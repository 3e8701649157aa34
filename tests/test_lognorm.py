import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix as SymMatrix

from torgrad.groups import FiniteQuotient
from torgrad.crossring import (
    MarkedModule,
    MarkedMorphism,
    atom_norms,
    marked_inclusion,
    marked_projection,
    morphism_stats,
    op_norm,
)
from torgrad.discretize import matrix_rank
from torgrad.lognorm import (
    EXACT_ATOM_CAP,
    LOG_SLACK,
    column_l1s,
    gabber_column_bound,
    gabber_exact,
    gabber_split_bound,
    log_plus,
    lognorm_certificate,
    lognorm_exact,
    lognorm_upper,
    set_partitions,
)
from torgrad.pipeline import random_morphism
from helpers import certificate_value, coinvariants_dense

SP2 = FiniteQuotient.abelian([2])
SP4 = FiniteQuotient.abelian([4])


def full_morphism(space, entry):
    full = MarkedModule.full(space, 1)
    return MarkedMorphism(full, full, [[entry]])


def test_single_atom_frozen_value():
    f = full_morphism(SP4, {0: {0: 2}})
    want = math.log(2) / 4
    assert lognorm_upper(f, "atoms") == pytest.approx(want)
    assert lognorm_upper(f, "block") == pytest.approx(want)
    assert lognorm_exact(f) == pytest.approx(0.17328679513998632, rel=1e-12)


def test_diagonal_23_partitions():
    # multiplication by 2 at one point and 3 at another; coinvariants is
    # diag(2, 3) and the exact bound meets the exact torsion log 6
    f = full_morphism(SP2, {0: {0: 2, 1: 3}})
    assert sorted(atom_norms(f).values()) == [2, 3]
    assert lognorm_upper(f, "atoms") == pytest.approx(math.log(6) / 2)
    assert lognorm_upper(f, "block") == pytest.approx(math.log(3))
    assert lognorm_exact(f) == pytest.approx(math.log(6) / 2)
    assert lognorm_upper(f, "greedy") == pytest.approx(math.log(6) / 2)
    assert gabber_exact(coinvariants_dense(f)) == pytest.approx(math.log(6))


def test_decomposition_validation():
    # a decomposition strategy outside the four is refused
    f = full_morphism(SP2, {0: {0: 2, 1: 3}})
    with pytest.raises(ValueError, match="unknown strategy"):
        lognorm_upper(f, "unheard-of")


def test_zero_and_unit_atoms_are_free():
    f = full_morphism(SP4, {0: {0: 1, 1: 1, 2: 5}})
    # unit-norm atoms never contribute
    assert lognorm_exact(f) == pytest.approx(math.log(5) / 4)
    zero = MarkedMorphism.zero(f.domain, f.codomain)
    assert lognorm_upper(zero, "atoms") == 0.0
    assert lognorm_exact(zero) == 0.0


def test_exact_cap_enforced():
    # one atom per point, each mapping to twice itself: every partition
    # of the atoms gives log 2
    def doubling(order):
        space = FiniteQuotient.abelian([order])
        return full_morphism(space, {0: {u: 2 for u in range(order)}})

    assert EXACT_ATOM_CAP == 10
    assert lognorm_exact(doubling(10)) == pytest.approx(math.log(2))
    with pytest.raises(ValueError, match="11 atoms exceed the exhaustive cap"):
        lognorm_exact(doubling(11))


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
    exact = lognorm_exact(f)
    greedy = lognorm_upper(f, "greedy")
    atoms = lognorm_upper(f, "atoms")
    block = lognorm_upper(f, "block")
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
    bound = SP4.order * lognorm_upper(f, "atoms")
    assert gabber_exact(coinvariants_dense(f)) <= bound + LOG_SLACK


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
    assert lognorm_exact(both) <= (
        lognorm_exact(fa) + lognorm_exact(fb) + LOG_SLACK
    )


def test_invariant_under_marked_inclusion():
    f = full_morphism(SP4, {0: {0: 2, 2: 3}, 1: {1: -4}})
    big = f.codomain.direct_sum(MarkedModule(SP4, [frozenset({0, 1})]))
    incl = marked_inclusion(f.codomain, big, [0])
    proj = marked_projection(big, f.domain, [0])
    assert lognorm_exact(f.then(incl)) == pytest.approx(lognorm_exact(f))
    # extra zero-norm atoms from the projection change nothing
    assert lognorm_exact(proj.then(f)) == pytest.approx(lognorm_exact(f))
    for strategy in ("atoms", "greedy", "block"):
        assert lognorm_upper(f.then(incl), strategy) == pytest.approx(
            lognorm_upper(f, strategy)
        )


def test_almost_equality_stability():
    base = {0: {0: 2, 1: 3, 2: 2}}
    bent = {0: {0: 2, 1: 3, 2: 7}}
    f = full_morphism(SP4, base)
    g = full_morphism(SP4, bent)
    delta = morphism_stats(f.sub(g)).size1
    assert delta == pytest.approx(1 / 4)
    peak = math.log(max(op_norm(f), op_norm(g)))
    gap = abs(lognorm_exact(f) - lognorm_exact(g))
    assert gap <= float(delta) * peak + LOG_SLACK


@given(celt_entries, celt_entries)
@settings(deadline=None, max_examples=30)
def test_almost_equality_stability_random(a, b):
    f = full_morphism(SP4, a)
    g = full_morphism(SP4, b)
    delta = float(morphism_stats(f.sub(g)).size1)
    peak = math.log(max(op_norm(f), op_norm(g), 1))
    gap = abs(lognorm_exact(f) - lognorm_exact(g))
    assert gap <= delta * peak + LOG_SLACK


int_matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
)


def test_gabber_frozen_values():
    assert gabber_exact([[2, 0], [0, 3]]) == pytest.approx(math.log(6))
    assert gabber_column_bound([[2, 0], [0, 3]]) == pytest.approx(math.log(6))
    # [[2,1],[0,2]] has torsion Z/4 but column bound log 2 + log 3
    assert gabber_exact([[2, 1], [0, 2]]) == pytest.approx(math.log(4))
    assert gabber_column_bound([[2, 1], [0, 2]]) == pytest.approx(math.log(6))
    assert column_l1s([[2, 1], [0, 2]]) == [2, 3]
    assert gabber_split_bound([[2, 1], [0, 2]]) == pytest.approx(2 * math.log(3))


@given(int_matrices)
@settings(deadline=None, max_examples=120)
def test_gabber_chain(a):
    exact = gabber_exact(a)
    column = gabber_column_bound(a)
    split = gabber_split_bound(a)
    assert exact <= column + LOG_SLACK
    assert column <= split + LOG_SLACK


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


def test_certificate_realizes_value():
    f = full_morphism(SP2, {0: {0: 2, 1: 3}})
    for strategy in ("atoms", "greedy", "exact", "block"):
        value, blocks = lognorm_certificate(f, strategy)
        assert value == pytest.approx(lognorm_upper(f, strategy))
        assert certificate_value(f, blocks) == pytest.approx(value)
    # the zero morphism certifies with no blocks at all
    assert lognorm_certificate(full_morphism(SP2, {}), "exact") == (0.0, [])


def test_rank_argument_changes_no_value():
    # the caller's rank of the coinvariants matrix stands in for the
    # elimination of a block covering every live atom, and for nothing else
    for seed in range(40):
        f = random_morphism(random.Random(seed))
        rank = matrix_rank(coinvariants_dense(f))
        live = sum(1 for n in atom_norms(f).values() if n)
        strategies = ["atoms", "greedy", "block"]
        if live <= 6:
            strategies.append("exact")
        for strategy in strategies:
            assert lognorm_upper(f, strategy, rank=rank) == lognorm_upper(
                f, strategy), (seed, strategy)


def test_rank_argument_only_for_covering_blocks():
    # atoms splits the live atoms of diag(2, 3) into two blocks, so even a
    # wrong rank is never read; the one block of block strategy reads it
    f = full_morphism(SP2, {0: {0: 2, 1: 3}})
    assert lognorm_upper(f, "atoms", rank=0) == lognorm_upper(f, "atoms")
    assert lognorm_upper(f, "block") == pytest.approx(math.log(3))
    assert lognorm_upper(f, "block", rank=0) == 0.0
