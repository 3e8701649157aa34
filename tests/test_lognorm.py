import ast
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix as SymMatrix

from torgrad import lognorm
from torgrad.groups import FiniteQuotient
from torgrad.crossring import (
    MarkedModule,
    MarkedMorphism,
    marked_inclusion,
    marked_projection,
    morphism_stats,
    op_norm,
)
from torgrad.discretize import coinvariants_matrix, coinvariants_rank
from torgrad.lognorm import (
    EXACT_ATOM_CAP,
    LOG_SLACK,
    column_l1s,
    gabber_bounds,
    gabber_column_bound,
    log_plus,
    lognorm_rows,
    lognorm_values,
    set_partitions,
)
from torgrad.verify import (
    LOGNORM_SPECS,
    QUOTIENT_SPECS,
    random_int_matrix,
    random_morphism,
)
from helpers import (
    atom_image_masses,
    certificate_value,
    cli_certificate,
    coinvariants_dense,
    log_torsion,
    lognorm_of,
    matrix_rank,
    reference_lognorm_certificate,
)

SP2 = FiniteQuotient.abelian([2])
SP4 = FiniteQuotient.abelian([4])


def full_morphism(space, entry):
    full = MarkedModule.full(space, 1)
    return MarkedMorphism(full, full, [[entry]])


def test_single_atom_frozen_value():
    f = full_morphism(SP4, {0: {0: 2}})
    want = math.log(2) / 4
    assert lognorm_of(f, "atoms") == pytest.approx(want)
    assert lognorm_of(f, "block") == pytest.approx(want)
    assert lognorm_of(f, "exact") == pytest.approx(0.17328679513998632,
                                                   rel=1e-12)


def test_diagonal_23_partitions():
    # multiplication by 2 at one point and 3 at another; coinvariants is
    # diag(2, 3) and the exact bound meets the exact torsion log 6
    f = full_morphism(SP2, {0: {0: 2, 1: 3}})
    assert sorted(atom_image_masses(f).values()) == [2, 3]
    assert lognorm_of(f, "atoms") == pytest.approx(math.log(6) / 2)
    assert lognorm_of(f, "block") == pytest.approx(math.log(3))
    assert lognorm_of(f, "exact") == pytest.approx(math.log(6) / 2)
    assert lognorm_of(f, "greedy") == pytest.approx(math.log(6) / 2)
    assert log_torsion(coinvariants_dense(f)) == pytest.approx(math.log(6))


def test_decomposition_validation():
    # a decomposition strategy outside the four is refused
    f = full_morphism(SP2, {0: {0: 2, 1: 3}})
    with pytest.raises(ValueError, match="unknown strategy"):
        lognorm_of(f, "unheard-of")


def test_zero_and_unit_atoms_are_free():
    f = full_morphism(SP4, {0: {0: 1, 1: 1, 2: 5}})
    # unit-norm atoms never contribute
    assert lognorm_of(f, "exact") == pytest.approx(math.log(5) / 4)
    zero = MarkedMorphism.zero(f.domain, f.codomain)
    assert lognorm_of(zero, "atoms") == 0.0
    assert lognorm_of(zero, "exact") == 0.0


def test_exact_cap_enforced():
    # one atom per point, each mapping to twice itself: every partition
    # of the atoms gives log 2
    def doubling(order):
        space = FiniteQuotient.abelian([order])
        return full_morphism(space, {0: {u: 2 for u in range(order)}})

    assert EXACT_ATOM_CAP == 10
    assert lognorm_of(doubling(10), "exact") == pytest.approx(math.log(2))
    with pytest.raises(ValueError, match="11 atoms exceed the exhaustive cap"):
        lognorm_of(doubling(11), "exact")


def test_lognorm_imports_no_marked_type():
    # the bounds read integer rows that their callers build, so the module
    # imports nothing from the marked layers
    tree = ast.parse(Path(lognorm.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("torgrad." + node.module if node.level
                         else node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "torgrad.discretize" in imported
    assert not imported & {"torgrad.crossring", "torgrad.complexes"}


def test_set_partitions_count():
    assert sum(1 for _ in set_partitions(range(4))) == 15
    assert list(set_partitions([])) == [[]]


celt_entries = st.dictionaries(
    st.integers(0, 3),
    st.dictionaries(st.integers(0, 3), st.integers(-3, 3), max_size=3),
    max_size=3,
)


@given(celt_entries)
@settings(deadline=None, max_examples=60)
def test_strategy_chain(entry):
    f = full_morphism(SP4, entry)
    exact = lognorm_of(f, "exact")
    greedy = lognorm_of(f, "greedy")
    atoms = lognorm_of(f, "atoms")
    block = lognorm_of(f, "block")
    assert 0.0 <= exact <= greedy + LOG_SLACK
    assert greedy <= atoms + LOG_SLACK
    assert greedy <= block + LOG_SLACK
    # dimension bound: no strategy beats dim * log of the operator norm
    dim_bound = float(f.domain.dim()) * math.log(max(op_norm(f), 1))
    assert exact <= dim_bound + LOG_SLACK


@given(celt_entries)
@settings(deadline=None, max_examples=40)
def test_level_torsion_dominated(entry):
    f = full_morphism(SP4, entry)
    bound = SP4.order * lognorm_of(f, "atoms")
    assert log_torsion(coinvariants_dense(f)) <= bound + LOG_SLACK


celt_entries2 = st.dictionaries(
    st.integers(0, 1),
    st.dictionaries(st.integers(0, 1), st.integers(-3, 3), max_size=2),
    max_size=2,
)


@given(celt_entries2, celt_entries2)
@settings(deadline=None, max_examples=40)
def test_subadditive_under_direct_sum(a, b):
    fa = full_morphism(SP2, a)
    fb = full_morphism(SP2, b)
    dom = fa.domain.direct_sum(fb.domain)
    both = MarkedMorphism(dom, dom, [[a, {}], [{}, b]])
    assert lognorm_of(both, "exact") <= (
        lognorm_of(fa, "exact") + lognorm_of(fb, "exact") + LOG_SLACK
    )


def test_invariant_under_marked_inclusion():
    f = full_morphism(SP4, {0: {0: 2, 2: 3}, 1: {1: -4}})
    big = f.codomain.direct_sum(MarkedModule(SP4, [frozenset({0, 1})]))
    incl = marked_inclusion(f.codomain, big)
    proj = marked_projection(big, f.domain)
    exact = lognorm_of(f, "exact")
    assert lognorm_of(f.then(incl), "exact") == pytest.approx(exact)
    # extra zero-norm atoms from the projection change nothing
    assert lognorm_of(proj.then(f), "exact") == pytest.approx(exact)
    for strategy in ("atoms", "greedy", "block"):
        assert lognorm_of(f.then(incl), strategy) == pytest.approx(
            lognorm_of(f, strategy)
        )


def test_almost_equality_stability():
    base = {0: {0: 2, 1: 3, 2: 2}}
    bent = {0: {0: 2, 1: 3, 2: 7}}
    f = full_morphism(SP4, base)
    g = full_morphism(SP4, bent)
    delta = morphism_stats(f.sub(g)).size1
    assert delta == pytest.approx(1 / 4)
    peak = math.log(max(op_norm(f), op_norm(g)))
    gap = abs(lognorm_of(f, "exact") - lognorm_of(g, "exact"))
    assert gap <= float(delta) * peak + LOG_SLACK


@given(celt_entries, celt_entries)
@settings(deadline=None, max_examples=30)
def test_almost_equality_stability_random(a, b):
    f = full_morphism(SP4, a)
    g = full_morphism(SP4, b)
    delta = float(morphism_stats(f.sub(g)).size1)
    peak = math.log(max(op_norm(f), op_norm(g), 1))
    gap = abs(lognorm_of(f, "exact") - lognorm_of(g, "exact"))
    assert gap <= delta * peak + LOG_SLACK


int_matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
)


FROZEN_GABBER_MATRICES = ([[2, 0], [0, 3]], [[2, 1], [0, 2]])


def test_gabber_frozen_values():
    assert gabber_bounds([[2, 0], [0, 3]])[0] == pytest.approx(math.log(6))
    assert gabber_column_bound([[2, 0], [0, 3]]) == pytest.approx(math.log(6))
    # [[2,1],[0,2]] has torsion Z/4 but column bound log 2 + log 3
    assert gabber_bounds([[2, 1], [0, 2]])[0] == pytest.approx(math.log(4))
    assert gabber_column_bound([[2, 1], [0, 2]]) == pytest.approx(math.log(6))
    assert column_l1s([[2, 1], [0, 2]]) == [2, 3]
    assert gabber_bounds([[2, 1], [0, 2]]) == pytest.approx(
        (math.log(4), math.log(6), 2 * math.log(3)))


@given(int_matrices)
@settings(deadline=None, max_examples=120)
def test_gabber_chain(a):
    exact, column, split = gabber_bounds(a)
    assert exact <= column + LOG_SLACK
    assert column <= split + LOG_SLACK


def separate_split_bound(a):
    """The one-block split bound with its rank from its own elimination
    over Q: rank * log+ (max column norm)."""
    peak = max(column_l1s(a), default=0)
    return matrix_rank(a) * math.log(peak) if peak > 1 else 0.0


def test_gabber_bounds_match_separate_routes():
    # one factorisation gives the exact torsion and the split bound's rank;
    # each value is equal, float for float, to the one of its own route
    rng = random.Random(20)
    draws = [random_int_matrix(rng) for _ in range(600)]
    for a in draws + list(FROZEN_GABBER_MATRICES):
        assert gabber_bounds(a) == (log_torsion(a), gabber_column_bound(a),
                                    separate_split_bound(a)), a


def rerank_column_bound(a):
    """The greedy column bound by its definition: every column, cheapest
    first, is kept when the rank of the kept columns plus it grows."""
    rows, cols = len(a), len(a[0])
    norms = column_l1s(a)
    chosen, rank, total = [], 0, 0.0
    for j in sorted(range(cols), key=lambda j: (norms[j], j)):
        if not norms[j]:
            continue
        r = SymMatrix([[row[c] for c in chosen + [j]] for row in a]).rank()
        if r > rank:
            chosen, rank = chosen + [j], r
            total += log_plus(norms[j])
            if rank == min(rows, cols):
                break
    return total


@given(int_matrices, st.lists(st.tuples(st.integers(-2, 2),
                                        st.integers(-2, 2)), max_size=3))
@settings(deadline=None, max_examples=150)
def test_gabber_column_bound_matches_rerank(a, combos):
    # append columns that depend on the first two, so some are skipped
    for x, y in combos:
        for row in a:
            row.append(x * row[0] + y * row[-1])
    assert gabber_column_bound(a) == rerank_column_bound(a)


def test_certificate_realizes_value(tmp_path):
    f = full_morphism(SP2, {0: {0: 2, 1: 3}})
    path = tmp_path / "m.json"
    for strategy in ("atoms", "greedy", "exact", "block"):
        value, blocks = cli_certificate(f, strategy, path)
        assert value == pytest.approx(lognorm_of(f, strategy))
        assert certificate_value(f, blocks) == pytest.approx(value)
    # the zero morphism certifies with no blocks at all
    zero = full_morphism(SP2, {})
    assert cli_certificate(zero, "exact", path) == (0.0, [])


def test_rank_argument_changes_no_value():
    # the caller's rank of the rows stands in for the elimination of a
    # block covering every live column, and for nothing else
    for seed in range(40):
        f = random_morphism(random.Random(seed))
        args = (coinvariants_matrix(f), coinvariants_rank(f.domain),
                f.space.order)
        rank = matrix_rank(coinvariants_dense(f))
        live = sum(1 for n in atom_image_masses(f).values() if n)
        strategies = ["atoms", "greedy", "block"]
        if live <= 6:
            strategies.append("exact")
        for strategy in strategies:
            assert lognorm_rows(*args, strategy, rank) == lognorm_rows(
                *args, strategy), (seed, strategy)


def test_rank_argument_only_for_covering_blocks():
    # atoms splits the live columns of diag(2, 3) into two blocks, so even
    # a wrong rank is never read; the one block of block strategy reads it
    diag = ([{0: 2}, {1: 3}], 2, 2)
    assert lognorm_rows(*diag, "atoms", 0) == lognorm_rows(*diag, "atoms")
    assert lognorm_rows(*diag, "block") == (pytest.approx(math.log(3)),
                                            [(0, 1)])
    assert lognorm_rows(*diag, "block", 0) == (0.0, [(0, 1)])


def test_lognorm_values_match_each_strategy():
    # the four strategies over one block cache give the value of each
    # strategy on its own, repr for repr, and the bound of the route on
    # morphisms, on the draws of the lognorm suite
    rng = random.Random(20)
    levels = [FiniteQuotient.from_json(spec) for spec in LOGNORM_SPECS]
    strategies = ("exact", "greedy", "atoms", "block")
    for draw in range(300):
        f = random_morphism(rng, levels[rng.randrange(len(levels))],
                            max_rank=2)
        values = lognorm_values(coinvariants_matrix(f),
                                coinvariants_rank(f.domain), f.space.order,
                                strategies)
        alone = [lognorm_of(f, s) for s in strategies]
        assert list(map(repr, values)) == list(map(repr, alone)), draw
        reference = [reference_lognorm_certificate(f, s)[0]
                     for s in strategies]
        assert list(map(repr, values)) == list(map(repr, reference)), draw


def test_rows_route_matches_reference(tmp_path):
    # the certificate that the CLI reads off the coinvariant rows gives
    # the values and blocks of the route on morphisms, repr for repr, on
    # seeded morphisms over every verify level; exact runs where the
    # search is small or capped
    path = tmp_path / "m.json"
    rng = random.Random(19)
    levels = [FiniteQuotient.from_json(spec) for spec in QUOTIENT_SPECS]
    for draw in range(1000):
        f = random_morphism(rng, levels[draw % len(levels)], max_rank=3)
        live = len({k for row in coinvariants_matrix(f) for k in row})
        for strategy in ("atoms", "greedy", "block", "exact"):
            if strategy == "exact" and 7 < live <= EXACT_ATOM_CAP:
                continue
            try:
                want = reference_lognorm_certificate(f, strategy)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    cli_certificate(f, strategy, path)
                continue
            assert repr(cli_certificate(f, strategy, path)) == repr(want), (
                draw, strategy)
            assert repr(lognorm_of(f, strategy)) == repr(want[0])
