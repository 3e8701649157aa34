import copy
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, Matrix as SymMatrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix

from torgrad.groups import FiniteQuotient
from torgrad.crossring import (
    MarkedModule,
    MarkedMorphism,
    op_norm,
)
from torgrad.discretize import (
    betti_mod_p,
    coinvariants_complex,
    coinvariants_matrix,
    coinvariants_rank,
    homology_from_factors,
    homology_of_complex,
    invariant_factors,
    mat_shape,
    retract_inequalities,
    shapiro_complex,
    shapiro_matrix,
    sparse_rank,
    to_dense,
    _core_invariant_factors,
    _eliminate,
    _forest_pivots,
    _oriented,
    _sparse_rows,
)
from torgrad.complexes import (
    check_retract,
    induce_resolution,
    push_complex,
    push_resolution,
)
from torgrad.constructions import resolution_by_name
from torgrad.config import parse_gradient_config
from torgrad.pipeline import run_gradient
from torgrad.verify import random_torsion_level
from helpers import (
    bench_workloads,
    free_complex,
    gm1,
    koszul2,
    log_torsion,
    mat_mul,
    matrix_rank,
    restricted_copy,
    w,
    zeros,
    zres,
)

SP22 = FiniteQuotient.abelian([2, 2])
SP33 = FiniteQuotient.abelian([3, 3])
SPS3 = FiniteQuotient.permutation(3, [[1, 0, 2], [1, 2, 0]])


int_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
)


def sparse(mats):
    """The sparse rows of each dense matrix, as homology_of_complex takes
    them."""
    return [_sparse_rows(m) for m in mats]


def checked_homology(dims, mats):
    """homology_of_complex on the rows, checking that it leaves them as
    they were and gives the same result when called again."""
    before = copy.deepcopy(mats)
    homology = homology_of_complex(dims, mats)
    assert mats == before
    assert homology_of_complex(dims, mats) == homology
    return homology


def assert_no_zero_stored(rows):
    assert all(v for row in rows for v in row.values())


def sympy_factors(a):
    m = SymMatrix(a)
    if m.rows == 0 or m.cols == 0:
        return ()
    d = sympy_snf(m)
    vals = [abs(d[i, i]) for i in range(min(d.rows, d.cols))]
    return tuple(v for v in vals if v)


def gf_rank(a, p):
    """Rank over F_p by sympy, independent of the kernel."""
    field = GF(p)
    shape = (len(a), len(a[0]) if a else 0)
    return DomainMatrix([[field(v) for v in row] for row in a], shape,
                        field).rank()


def test_snf_frozen_examples():
    assert invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert invariant_factors([[2, 1], [0, 2]]) == (1, 4)
    assert invariant_factors(zeros(3, 2)) == ()
    assert log_torsion([[2, 0], [0, 3]]) == pytest.approx(math.log(6))


@given(int_matrices)
@settings(deadline=None, max_examples=120)
def test_invariant_factors_oracle(a):
    diag = invariant_factors(a)
    for x, y in zip(diag, diag[1:]):
        assert y % x == 0
    assert diag == sympy_factors(a)


TOP = 3  # complexes in degrees 0..TOP
# ("Z", k): Z in degree k; (m, k): Z --m--> Z from degree k+1 to degree k
elementary = st.one_of(
    st.tuples(st.just("Z"), st.integers(0, TOP)),
    st.tuples(st.sampled_from([0, 1, 2, 3, 4, 6, 12]),
              st.integers(0, TOP - 1)),
)


def elementary_sum(summands):
    """dims and boundaries of the direct sum, and its (betti, torsion) per
    degree known by construction."""
    dims = [0] * (TOP + 1)
    entries = []  # (k, row, col, m): entry m of d_{k+1}
    betti = [0] * (TOP + 1)
    orders = [[] for _ in range(TOP + 1)]
    for m, k in summands:
        dims[k] += 1
        if m == "Z":
            betti[k] += 1
            continue
        dims[k + 1] += 1
        entries.append((k, dims[k] - 1, dims[k + 1] - 1, m))
        if m == 0:
            betti[k] += 1
            betti[k + 1] += 1
        elif m > 1:
            orders[k].append(m)
    mats = [zeros(dims[n - 1], dims[n]) for n in range(1, TOP + 1)]
    for k, row, col, m in entries:
        mats[k][row][col] = m
    return dims, mats, list(zip(betti, map(cyclic_sum_factors, orders)))


def cyclic_sum_factors(orders):
    """Invariant factors > 1 of the direct sum of Z/m over orders."""
    diag = [[m if i == j else 0 for j in range(len(orders))]
            for i, m in enumerate(orders)]
    return tuple(d for d in sympy_factors(diag) if d > 1)


def random_unimodular(rng, n):
    """P and its inverse, from random elementary row operations."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        P[i] = [x + c * y for x, y in zip(P[i], P[j])]
        for row in Pinv:
            row[j] -= c * row[i]
    return P, Pinv


@given(st.lists(elementary, max_size=6),
       st.tuples(st.sampled_from([2, 3, 4, 6, 12]), st.integers(1, TOP - 1)),
       st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=80)
def test_homology_torsion_oracle(summands, torsion_summand, rng):
    # a unit pair in every degree keeps each C_n nonzero
    units = [(1, k) for k in range(TOP)]
    dims, mats, expected = elementary_sum(
        units + [torsion_summand] + summands)
    conj = [random_unimodular(rng, d) for d in dims]
    for P, Pinv in conj:
        assert mat_mul(P, Pinv) == [[int(i == j) for j in range(len(P))]
                                    for i in range(len(P))]
    # d'_n = P_{n-1} d_n P_n^{-1}; the boundaries become dense
    dense = [mat_mul(mat_mul(conj[n - 1][0], mats[n - 1]), conj[n][1])
             for n in range(1, TOP + 1)]
    homology = checked_homology(dims, sparse(dense))
    got = [(h.betti, h.torsion) for h in homology]
    assert got == expected
    assert any(t for _, t in expected[1:])
    assert [h.boundary_rank for h in homology] == [
        SymMatrix(m).rank() for m in dense] + [0]
    # universal coefficients against ranks over F_p by sympy; 2 and 3
    # divide torsion in degree 1 or 2, 5 never does
    for p in (2, 3, 5):
        rank = [0] + [gf_rank(m, p) for m in dense] + [0]
        assert betti_mod_p(homology, p) == tuple(
            dims[n] - rank[n] - rank[n + 1] for n in range(len(dims)))


# The top-down reduction: homology_of_complex deletes the columns of d_n
# that d_{n+1}'s unit pivots pair off, and eliminates each boundary in the
# orientation with the shorter columns.


@st.composite
def reduction_complexes(draw):
    """A complex in degrees 0..TOP with a unit pair in d_{n+1} above torsion
    in d_n, torsion in d_{n+1} as well, random elementary summands, and free
    summands that make d_{n+1} tall, wide or square; every degree is
    conjugated by a random unimodular matrix.  Returns dims, the dense
    boundaries, (betti, torsion) per degree by construction, and n."""
    n = draw(st.integers(1, TOP - 1))
    torsion = st.sampled_from([2, 3, 4, 6, 12])
    summands = [(1, n), (1, n), (draw(torsion), n - 1), (draw(torsion), n)]
    summands += draw(st.lists(elementary, max_size=6))
    dims = elementary_sum(summands)[0]
    rows, cols = dims[n], dims[n + 1]
    extra = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["tall", "wide", "square"]))
    if shape == "tall":
        pad = [("Z", n)] * max(0, cols - rows + extra)
    elif shape == "wide":
        pad = [("Z", n + 1)] * max(0, rows - cols + extra)
    else:
        pad = [("Z", n if rows < cols else n + 1)] * abs(rows - cols)
    dims, mats, expected = elementary_sum(summands + pad)
    rng = draw(st.randoms(use_true_random=False))
    conj = [random_unimodular(rng, d) for d in dims]
    dense = [mat_mul(mat_mul(conj[k - 1][0], mats[k - 1]), conj[k][1])
             for k in range(1, TOP + 1)]
    return dims, dense, expected, n


@given(reduction_complexes())
@settings(deadline=None, max_examples=150)
def test_top_down_reduction_against_sympy(case):
    dims, mats, expected, n = case
    # each boundary on its own, by sympy's Smith form
    factors = [sympy_factors(m) for m in mats] + [()]
    rank = [0] + [len(f) for f in factors]
    oracle = [(dims[k] - rank[k] - rank[k + 1],
               tuple(d for d in factors[k] if d > 1), rank[k + 1])
              for k in range(len(dims))]
    homology = checked_homology(dims, sparse(mats))
    assert [(h.betti, h.torsion, h.boundary_rank) for h in homology] == oracle
    assert [(h.betti, h.torsion) for h in homology] == expected
    assert homology[n - 1].torsion and homology[n].torsion


@pytest.mark.parametrize("dims, top", [
    ([3, 1, 2], [[1, 0]]),      # tall d_1, wide d_2
    ([1, 2, 1], [[1], [0]]),    # wide d_1, tall d_2
])
def test_reduction_still_checks_composition(dims, top):
    rng = random.Random(len(top))
    d1 = [[int(i == j) for j in range(dims[1])] for i in range(dims[0])]
    assert mat_mul(d1, top) != zeros(dims[0], dims[2])
    with pytest.raises(ValueError, match="do not compose"):
        homology_of_complex(dims, sparse([d1, top]))
    # the same, with every degree conjugated
    conj = [random_unimodular(rng, d) for d in dims]
    mats = [mat_mul(mat_mul(conj[k - 1][0], m), conj[k][1])
            for k, m in ((1, d1), (2, top))]
    with pytest.raises(ValueError, match="do not compose"):
        homology_of_complex(dims, sparse(mats))


@given(int_matrices)
@settings(deadline=None, max_examples=120)
def test_rank_against_oracle(a):
    assert matrix_rank(a) == SymMatrix(a).rank()


@given(int_matrices, st.sampled_from([2, 3, 5, 7]))
@settings(deadline=None, max_examples=120)
def test_rank_mod_p_counts_unit_factors(a, p):
    # over F_p exactly the invariant factors prime to p survive
    expected = sum(1 for d in invariant_factors(a) if d % p)
    assert gf_rank(a, p) == expected


# The sparse kernel against slow oracles: sympy's Smith form, and the dense
# Smith loop (the kernel's core routine) run on the whole matrix.


def kernel_matrices(entries, size=8):
    """Matrices of shape 0..size x 0..size, with zero rows and columns
    spliced in; a matrix without rows is []."""
    def splice(a, zero_rows, zero_cols):
        width = len(a[0]) if a else 0
        a = [row[:] for row in a]
        for j in zero_cols:
            for row in a:
                row.insert(min(j, len(row)), 0)
        width += len(zero_cols)
        for i in zero_rows:
            a.insert(min(i, len(a)), [0] * width)
        return a

    shaped = st.integers(0, size).flatmap(
        lambda r: st.integers(0, size).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                               min_size=r, max_size=r)))
    gaps = st.lists(st.integers(0, size), max_size=2)
    return st.builds(splice, shaped, gaps, gaps)


unit_sparse = kernel_matrices(st.sampled_from([0, 0, 0, 0, 1, -1]))
non_unit = kernel_matrices(st.sampled_from([0, 0, 1, -1, 2, -2, 3, 4, 6]))


@st.composite
def dense_torsion(draw):
    """P D Q with D a diagonal carrying real torsion and P, Q random
    unimodular, so every entry is dense and few pivots are units."""
    d = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 12]),
                      min_size=1, max_size=5))
    extra = draw(st.integers(0, 2))
    rng = draw(st.randoms(use_true_random=False))
    rows, cols = len(d), len(d) + extra
    diag = [[d[i] if i == j else 0 for j in range(cols)]
            for i in range(rows)]
    P, _ = random_unimodular(rng, rows)
    Q, _ = random_unimodular(rng, cols)
    return mat_mul(mat_mul(P, diag), Q)


def check_kernel(a):
    expected = sympy_factors(a)
    assert invariant_factors(a) == expected
    assert _core_invariant_factors(a) == expected
    assert matrix_rank(a) == len(expected)
    # the sparse entry point leaves its rows as they were
    rows = _sparse_rows(a)
    before = copy.deepcopy(rows)
    assert sparse_rank(rows, mat_shape(a)[1]) == len(expected)
    assert rows == before
    for p in (2, 3, 5):
        # over F_p exactly the invariant factors prime to p survive
        assert gf_rank(a, p) == sum(1 for d in invariant_factors(a) if d % p)


@given(unit_sparse)
@settings(deadline=None, max_examples=150)
def test_kernel_sparse_units(a):
    check_kernel(a)


@given(non_unit)
@settings(deadline=None, max_examples=150)
def test_kernel_non_unit_pivots(a):
    check_kernel(a)


@given(dense_torsion())
@settings(deadline=None, max_examples=80)
def test_kernel_dense_core_with_torsion(a):
    check_kernel(a)
    assert matrix_rank(a) == SymMatrix(a).rank()


def test_kernel_empty_shapes():
    for a in ([], [[]], [[], [], []], zeros(3, 4)):
        assert invariant_factors(a) == ()
        assert matrix_rank(a) == 0
        assert gf_rank(a, 2) == 0


# The incidence path: over Z a matrix whose columns each hold one +1 and one
# -1, or a single +-1, takes its unit pivots from a spanning forest.


@st.composite
def incidence_matrices(draw, max_vertices=7, max_edges=10):
    """The vertices x edges incidence matrix of a random directed multigraph
    with loops (zero columns), parallel edges, edges to a ground vertex
    (a single +-1) and isolated vertices."""
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    edge = st.one_of(st.tuples(vertex, vertex),
                     st.tuples(vertex, st.sampled_from(["+", "-"])))
    edges = draw(st.lists(edge, min_size=1, max_size=max_edges))
    a = zeros(n, len(edges))
    for j, (tail, head) in enumerate(edges):
        if head in ("+", "-"):
            a[tail][j] = 1 if head == "+" else -1
        else:
            a[tail][j] -= 1
            a[head][j] += 1
    return a


def transpose(a):
    return [list(col) for col in zip(*a)]


def check_forest_pivots(a):
    """The forest path fires on a, vertices x edges, and its pivots sit on
    +-1 entries in distinct rows and columns, one per invariant factor,
    forming a block of determinant +-1."""
    pivots, core = _eliminate(_sparse_rows(a), len(a[0]))
    assert core == []
    assert pivots == _forest_pivots(_sparse_rows(a), len(a[0]))
    rows = [i for i, _ in pivots]
    cols = [j for _, j in pivots]
    assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
    assert all(a[i][j] in (1, -1) for i, j in pivots)
    assert len(pivots) == len(sympy_factors(a))
    if pivots:
        block = SymMatrix([[a[i][j] for j in cols] for i in rows])
        assert block.det() in (1, -1)


@given(incidence_matrices())
@settings(deadline=None, max_examples=150)
def test_incidence_path_against_sympy(a):
    check_forest_pivots(a)
    for m in (a, transpose(a)):
        expected = sympy_factors(m)
        assert set(expected) <= {1}
        assert invariant_factors(m) == expected
        assert matrix_rank(m) == len(expected)
        dims = [len(m), len(m[0])]
        homology = checked_homology(dims, sparse([m]))
        assert [(h.betti, h.torsion, h.boundary_rank) for h in homology] == [
            (dims[0] - len(expected), (), len(expected)),
            (dims[1] - len(expected), (), 0)]


@given(incidence_matrices(),
       st.sampled_from(["same_sign", "two", "three_entries"]),
       st.booleans())
@settings(deadline=None, max_examples=150)
def test_incidence_near_misses_take_the_kernel(a, miss, flip):
    # one new column breaks the pattern, on two new vertices so that every
    # kind of column fits; the rest stays an incidence matrix
    width = len(a[0]) + 1
    a = [row + [0] for row in a] + [[0] * width, [0] * width]
    n = len(a)
    entries = {"same_sign": [(0, 1), (n - 1, 1)],
               "two": [(n - 1, 2)],
               "three_entries": [(0, 1), (n - 2, -1), (n - 1, 1)]}[miss]
    for i, v in entries:
        a[i][-1] = -v if flip else v
    assert _forest_pivots(_sparse_rows(a), len(a[0])) is None
    for m in (a, transpose(a)):
        expected = sympy_factors(m)
        assert invariant_factors(m) == expected
        assert matrix_rank(m) == SymMatrix(m).rank()
        dims = [len(m), len(m[0])]
        h0 = checked_homology(dims, sparse([m]))[0]
        assert (h0.betti, h0.torsion) == (
            dims[0] - len(expected), tuple(d for d in expected if d > 1))


@st.composite
def incidence_over_torsion(draw):
    """A complex C_2 -> C_1 -> C_0 whose top boundary d_2 is an incidence
    matrix in its elimination orientation (d_2 = D, or D transposed, with
    more edges than vertices), and whose d_1 = M F has torsion: the rows of
    F are an integer basis of the left kernel of d_2, and M = P diag Q with
    P, Q random unimodular."""
    a = draw(incidence_matrices(max_vertices=5))
    # two vertices joined by parallel edges, and nothing else: a component
    # off the ground with a cycle, so the left kernel is never zero
    n, e = len(a), len(a[0])
    extra = max(2, n + 3 - e)
    a = [row + [0] * extra for row in a]
    a += [[0] * e + [-1] * extra, [0] * e + [1] * extra]
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(a)
    d2 = draw(st.sampled_from([a, transpose(a)]))
    kernel = SymMatrix(d2).T.nullspace()
    F = []
    for vec in kernel:
        scale = math.lcm(*(int(x.q) for x in vec))
        F.append([int(x * scale) for x in vec])
    diag = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6]),
                         min_size=len(F), max_size=len(F)))
    diag[0] = draw(st.sampled_from([2, 3, 4, 6]))
    P, _ = random_unimodular(rng, len(F))
    Q, _ = random_unimodular(rng, len(F))
    M = mat_mul(mat_mul(P, [[d if i == j else 0 for j, d in enumerate(diag)]
                            for i in range(len(F))]), Q)
    d1 = mat_mul(M, F)
    return [len(d1), len(d2), len(d2[0])], [d1, d2]


@given(incidence_over_torsion())
@settings(deadline=None, max_examples=80)
def test_forest_pairing_over_torsion(case):
    dims, mats = case
    assert mat_mul(*mats) == zeros(dims[0], dims[2])
    top = _oriented(_sparse_rows(mats[1]), dims[2])
    assert _forest_pivots(*top) is not None
    # the oracle: each whole boundary by the dense Smith loop
    factors = [_core_invariant_factors(m) for m in mats] + [()]
    rank = [0] + [len(f) for f in factors]
    oracle = [(dims[k] - rank[k] - rank[k + 1],
               tuple(d for d in factors[k] if d > 1), rank[k + 1])
              for k in range(len(dims))]
    homology = checked_homology(dims, sparse(mats))
    assert [(h.betti, h.torsion, h.boundary_rank) for h in homology] == oracle
    assert homology[0].torsion


def test_gradient_at_order_1024_within_budget():
    # free rank 2 over (Z/32)^2: H_1 of the index 1024 subgroup is free of
    # rank 1 + 1024; the budget leaves a wide margin on a 2-core machine
    budget_s = 10.0
    started = time.monotonic()
    table = run_gradient(parse_gradient_config({
        "family": "free", "param": 2,
        "levels": [{"kind": "abelian", "moduli": [32, 32]}],
    }))
    elapsed = time.monotonic() - started
    row = table.rows[1]
    assert (row.order, row.degree) == (1024, 1)
    assert row.betti_q == row.betti_p == 1025
    assert row.logtors == 0
    assert elapsed < budget_s, f"took {elapsed:.1f}s"


@pytest.mark.parametrize("family, param, moduli, betti", [
    # H_1 of an index n subgroup of the free group of rank 2 has rank n + 1
    ("free", 2, [50, 50], [1, 2501]),
    # a genus-2 cover of degree n is a surface of genus n + 1
    ("surface", 2, [7, 7, 7, 7], [1, 4804, 1]),
])
def test_gradient_memory_at_scale(family, param, moduli, betti):
    # the coinvariant boundaries stay sparse: each dense boundary of the
    # (Z/7)^4 level would hold 2401 x 9604 cells, 184 MB of list slots
    tracemalloc.start()
    try:
        table = run_gradient(parse_gradient_config({
            "family": family, "param": param,
            "levels": [{"kind": "abelian", "moduli": moduli}]}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row.betti_q for row in table.rows] == betti
    assert [row.logtors for row in table.rows] == [0] * len(betti)
    assert peak < 64 * 2 ** 20, f"traced peak {peak / 2 ** 20:.0f} MiB"


def test_coinvariants_shapes_and_column_norm():
    cx = free_complex(SP22)
    d1 = cx.boundary(1)
    rows = coinvariants_matrix(d1)
    assert_no_zero_stored(rows)
    assert coinvariants_rank(d1.domain) == 8
    mat = to_dense(rows, 8)
    assert mat_shape(mat) == (4, 8)
    assert _sparse_rows(mat) == rows
    assert len(list(d1.domain.atoms())) == 8
    bound = op_norm(d1)
    for col in range(8):
        assert sum(abs(mat[r][col]) for r in range(4)) <= bound


def test_coinvariants_respects_carriers():
    cx = restricted_copy(free_complex(SP22), 1, 0, [2, 3])
    rows = coinvariants_matrix(cx.boundary(1))
    assert len(rows) == 4
    assert coinvariants_rank(cx.module(1)) == 6
    assert {j for row in rows for j in row} <= set(range(6))


def coinvariants_by_atom_keys(f):
    """The coinvariants matrix with atoms addressed by (summand, point)
    keys in the order of module.atoms(): the reference for the positional
    lookup in coinvariants_matrix."""
    q = f.space
    col = {atom: k for k, atom in enumerate(f.domain.atoms())}
    row = {atom: k for k, atom in enumerate(f.codomain.atoms())}
    out = zeros(len(row), len(col))
    for i, entry_row in enumerate(f.entries):
        for j, entry in enumerate(entry_row):
            for g, fn in entry.items():
                back = q.left_table(q.inv(g))
                for u, c in fn.items():
                    out[row[j, back[u]]][col[i, u]] += c
    return out


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_coinvariants_by_position_match_atom_keys(data):
    sp = data.draw(st.sampled_from([SP22, SPS3]))
    point = st.integers(0, sp.order - 1)

    def module():
        # several summands with partial carriers, one of them empty
        carriers = data.draw(st.lists(st.sets(point, min_size=1),
                                      min_size=1, max_size=3))
        carriers.insert(data.draw(st.integers(0, len(carriers))), set())
        return MarkedModule(sp, carriers)

    dom, cod = module(), module()
    entry = st.dictionaries(
        point, st.dictionaries(point, st.integers(-3, 3), max_size=4),
        max_size=4)
    f = MarkedMorphism(dom, cod, [[data.draw(entry) for _ in cod.carriers]
                                  for _ in dom.carriers])
    rows = coinvariants_matrix(f)
    assert_no_zero_stored(rows)
    width = coinvariants_rank(dom)
    assert len(rows) == coinvariants_rank(cod)
    assert {j for row in rows for j in row} <= set(range(width))
    assert to_dense(rows, width) == coinvariants_by_atom_keys(f)


@given(st.data())
@settings(deadline=None, max_examples=40)
def test_coinvariants_functorial(data):
    # coinv(f then g) = coinv(g) . coinv(f) on random entries
    sp = SPS3
    full = MarkedModule.full(sp, 1)
    def rand_entry():
        return data.draw(
            st.dictionaries(
                st.integers(0, sp.order - 1),
                st.dictionaries(st.integers(0, sp.order - 1),
                                st.integers(-2, 2), max_size=3),
                max_size=3,
            )
        )
    f = MarkedMorphism(full, full, [[rand_entry()]])
    g = MarkedMorphism(full, full, [[rand_entry()]])
    def dense(h):
        return to_dense(coinvariants_matrix(h), sp.order)
    lhs = coinvariants_matrix(f.then(g))
    assert_no_zero_stored(lhs)
    assert to_dense(lhs, sp.order) == mat_mul(dense(g), dense(f))


KOSZUL2_MATS = [
    [[gm1("a")], [gm1("b")]],
    [[{w("b"): -1, (): 1}, gm1("a")]],
]


def test_shapiro_matches_coinvariants_of_induced():
    for sp in (SP33, SPS3):
        cx = koszul2(sp)
        dims, route_a = coinvariants_complex(cx)
        # unchecked: koszul2 at S3 is not a complex
        pushed = push_resolution(sp, [1, 2, 1], KOSZUL2_MATS)
        dims_b, route_b = shapiro_complex(sp, [1, 2, 1], pushed)
        assert dims == dims_b
        assert route_a == route_b
        for r, rows in enumerate(route_b):
            assert_no_zero_stored(rows)
            assert len(rows) == dims[r]
            # the dense Smith loop and sympy on each whole boundary
            dense = to_dense(rows, dims[r + 1])
            assert _core_invariant_factors(dense) == sympy_factors(dense)


def test_koszul_square_with_non_commuting_images_is_refused():
    # at S3 the images of a and b do not commute, so d_1 d_2 = ab - ba is
    # not zero: the check on the pushed ring matrices refuses the data, and
    # homology_of_complex still refuses their coinvariant rows
    ranks = [1, 2, 1]
    assert SPS3.mul(*SPS3.generator_images) != SPS3.mul(
        *reversed(SPS3.generator_images))
    with pytest.raises(ValueError, match="do not compose to zero"):
        push_complex(SPS3, ranks, KOSZUL2_MATS)
    rows = shapiro_complex(SPS3, ranks, push_resolution(SPS3, ranks,
                                                        KOSZUL2_MATS))
    with pytest.raises(ValueError, match="do not compose to zero"):
        homology_of_complex(*rows)
    with pytest.raises(ValueError, match="do not compose to zero"):
        homology_of_complex(*coinvariants_complex(koszul2(SPS3)))
    # at (Z/3)^2 they commute, and both checks pass
    pushed = push_complex(SP33, ranks, KOSZUL2_MATS)
    assert pushed == push_resolution(SP33, ranks, KOSZUL2_MATS)
    homology_of_complex(*shapiro_complex(SP33, ranks, pushed))


def test_shapiro_with_generator_images():
    q = FiniteQuotient.abelian([6])
    image = q.power(q.generator_images[0], 2)  # t -> t^2 in Z/6
    cx = zres(q, image)
    dims, mats = coinvariants_complex(cx)
    (pushed,) = push_resolution(q, [1, 1], [[[gm1("a")]]], [image])
    assert mats[0] == shapiro_matrix(q, pushed, 1)
    with pytest.raises(ValueError, match="1 rows, expected 2"):
        push_resolution(q, [1, 2], [[[gm1("a")]]])


def _row_routes_agree(q, ranks, mats, images=None):
    """Both routes to a level's coinvariant rows: the induced marked
    complex and the Shapiro rows of the checked pushed entries; equal rows
    (insertion order included) and equal homology.  Returns the homology."""
    induced = induce_resolution(q, ranks, mats, gen_images=images,
                                augmented=False)
    dims, rows = coinvariants_complex(induced)
    dims_s, rows_s = shapiro_complex(
        q, ranks, push_complex(q, ranks, mats, images))
    assert dims_s == dims
    assert [[list(row.items()) for row in m] for m in rows_s] == [
        [list(row.items()) for row in m] for m in rows]
    homology = homology_of_complex(dims, rows)
    assert homology_of_complex(dims_s, rows_s) == homology
    return homology


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_routes_agree_on_the_benchmark_levels(seed):
    workloads = bench_workloads()
    for name in ("gradient-ladder", "gradient-cyclic"):
        for inv in workloads.invocations(name, seed):
            cfg = parse_gradient_config(inv.config)
            for q in cfg.levels:
                _row_routes_agree(q, *cfg.resolution)


def test_row_routes_agree_with_generator_images():
    q = FiniteQuotient.abelian([12])
    ranks, mats = resolution_by_name("free_abelian", 2)
    images = [q.power(q.generator_images[0], 4), q.generator_images[0]]
    homology = _row_routes_agree(q, ranks, mats, images)
    assert [h.betti for h in homology] == [1, 2, 1]
    ranks, mats = resolution_by_name("integers", None)
    _row_routes_agree(q, ranks, mats, [q.power(q.generator_images[0], 5)])


def test_row_routes_agree_on_torsion_levels():
    rng = random.Random(5)
    kinds = set()
    for _ in range(200):
        q, ranks, mats, images = random_torsion_level(rng)
        if any(h.torsion for h in _row_routes_agree(q, ranks, mats, images)):
            kinds.add(q.spec["kind"])
    assert kinds == {"abelian", "permutation"}


def level_homology(cx):
    """Homology of the coinvariants of cx, checked against sympy's Smith
    form of each whole boundary."""
    dims, mats = coinvariants_complex(cx)
    for rows in mats:
        assert_no_zero_stored(rows)
    homology = checked_homology(dims, mats)
    assert homology == homology_from_factors(dims, [
        sympy_factors(to_dense(m, w)) for m, w in zip(mats, dims[1:])])
    return homology


def test_homology_of_induced_level_complexes():
    # rank 2 free group at (Z/2)^2: H_1 has rank 1 + |G|(d - 1) = 5
    h0, h1 = level_homology(free_complex(SP22))
    assert (h1.betti, h1.torsion) == (5, ())
    assert (h0.betti, h0.torsion) == (1, ())

    # at S3 the index 6 subgroup is free of rank 7
    assert level_homology(free_complex(SPS3))[1].betti == 7

    # Koszul at (Z/3)^2 sees the homology of Z^2: betti (1, 2, 1)
    for h, expect in zip(level_homology(koszul2(SP33)), [1, 2, 1]):
        assert h.betti == expect
        assert not h.torsion

    # Z at Z/5
    homology = level_homology(zres(FiniteQuotient.abelian([5]), 1))
    assert [h.betti for h in homology] == [1, 1]


def test_homology_torsion_and_mod_p():
    dims, mats = [1, 1], [[{0: 2}]]
    homology = h0, h1 = checked_homology(dims, mats)
    assert h0.betti == 0
    assert h0.torsion == (2,)
    assert h0.log_torsion == pytest.approx(math.log(2))
    assert (h0.boundary_rank, h1.boundary_rank) == (1, 0)
    assert betti_mod_p(homology, 2) == (1, 1)
    assert betti_mod_p(homology, 3) == (0, 0)
    assert h1.betti == 0

    # square presentation of Z/2 x Z/4 in one degree
    dims, mats = [2, 2], [[{0: 2}, {0: 2, 1: 4}]]
    h0 = checked_homology(dims, mats)[0]
    assert h0.torsion == (2, 4)


def test_homology_rejects_non_complex():
    with pytest.raises(ValueError, match="do not compose"):
        homology_of_complex([1, 1, 1], [[{0: 1}], [{0: 1}]])
    # a boundary whose row count is not the dimension below it
    with pytest.raises(ValueError, match="rows"):
        homology_of_complex([2, 1], [[{0: 1}]])


def test_betti_mod_p_matches_rational_when_torsion_free():
    dims, mats = coinvariants_complex(koszul2(SP33))
    homology = homology_of_complex(dims, mats)
    betti = tuple(h.betti for h in homology)
    assert betti_mod_p(homology, 2) == betti
    assert betti_mod_p(homology, 5) == betti


def test_identity_retract_passes():
    cx = koszul2(SP33)
    ident = [MarkedMorphism.identity(cx.module(r)) for r in range(3)]
    hzero = [MarkedMorphism.zero(cx.module(r), cx.module(r + 1)) for r in range(2)]
    report = check_retract(cx, cx, ident, ident, hzero)
    assert report.is_strict
    assert retract_inequalities(cx, cx)
    homology = homology_of_complex(*coinvariants_complex(cx))
    assert [h.betti for h in homology] == [1, 2, 1]
    assert report.homotopy_sizes == (0, 0, 0)


def test_broken_retract_detected():
    cx = koszul2(SP33)
    ident = [MarkedMorphism.identity(cx.module(r)) for r in range(3)]
    zero = [MarkedMorphism.zero(cx.module(r), cx.module(r)) for r in range(3)]
    hzero = [MarkedMorphism.zero(cx.module(r), cx.module(r + 1)) for r in range(2)]
    report = check_retract(cx, cx, ident, zero, hzero)
    assert not report.is_strict
    assert any(s > 0 for s in report.homotopy_sizes)


def test_retract_inequalities_detect_undominated_homology():
    # Z pushed along a generator of Z/3 x Z/3 has Betti numbers (3, 3),
    # which the Koszul complex's (1, 2, 1) does not dominate in degree 0
    small = zres(SP33, SP33.generator_images[0])
    big = koszul2(SP33)
    assert [h.betti for h in homology_of_complex(
        *coinvariants_complex(small))] == [3, 3]
    assert not retract_inequalities(small, big)
