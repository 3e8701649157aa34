from fractions import Fraction

import pytest

from torgrad.groups import FiniteQuotient
from torgrad.crossring import (
    MarkedModule,
    MarkedMorphism,
    celt_indicator,
    marked_inclusion,
    marked_projection,
    morphism_stats,
    op_norm,
)
from torgrad.complexes import (
    GHWitness,
    MarkedComplex,
    check_chain_map,
    defect_report,
    gh_verify,
    witness_defect,
)
from helpers import free_complex, gh_within, koszul2, restricted_copy


SP22 = FiniteQuotient.abelian([2, 2])
SP33 = FiniteQuotient.abelian([3, 3])


def test_induced_free_resolution_is_strict():
    cx = free_complex(SP22)
    rep = defect_report(cx)
    assert rep.is_strict
    assert rep.aug_size == 0
    assert [m.dim() for m in cx.modules] == [Fraction(1), Fraction(2)]


def test_koszul_is_strict_only_after_commuting_quotient():
    cx = koszul2(SP33)
    rep = defect_report(cx)
    assert rep.sizes[2] == 0
    assert rep.aug_size == 0
    assert rep.is_strict


def test_kappa_stats():
    # the norm and counting profile of the Koszul complex: the degree 2
    # boundary maps an atom to 4 units of l1 mass
    cx = koszul2(SP33)
    assert max(op_norm(d) for d in cx.boundaries()) == 4
    stats = [morphism_stats(d) for d in cx.boundaries()]
    assert max(s.n1 for s in stats) >= max(s.n1_max for s in stats) >= 2
    assert [m.dim() for m in cx.modules] == [Fraction(1), Fraction(2),
                                             Fraction(1)]


def test_witness_report():
    cx = koszul2(SP33)
    carrier = cx.module(0).carriers[0]
    z = cx.module(0).element(0, celt_indicator(carrier))
    assert witness_defect(cx, z) == 0
    # a witness missing two points of the level
    holed = cx.module(0).element(0, celt_indicator(carrier - {0, 4}))
    assert witness_defect(cx, holed) == Fraction(2, 9)


def test_chain_map_identity_is_strict():
    cx = koszul2(SP33)
    maps = [MarkedMorphism.identity(m) for m in cx.modules]
    rep = check_chain_map(maps, cx, cx)
    assert rep.is_strict
    assert rep.aug_size == 0


def test_chain_map_defect_is_measured():
    cx = koszul2(SP33)
    maps = [MarkedMorphism.identity(m) for m in cx.modules]
    # shave one point off the degree 1 identity
    m1 = cx.module(1)
    bad = [
        [celt_indicator(sorted(m1.carriers[0])[1:]), {}],
        [{}, celt_indicator(m1.carriers[1])],
    ]
    maps[1] = MarkedMorphism(m1, m1, bad)
    rep = check_chain_map(maps, cx, cx)
    assert rep.sizes[1] > 0
    assert not rep.is_strict


def identity_witness(cx, delta, k):
    return GHWitness(ambients=tuple(cx.modules), delta=delta, k=k)


def test_gh_identity_witness():
    # a complex compared with itself inside itself
    cx = koszul2(SP33)
    witness = identity_witness(cx, Fraction(1, 9), 0)
    rep = gh_verify(cx, cx, witness)
    assert gh_within(rep)
    assert all(v == 0 for v in rep.symdiff)
    assert all(v == 0 for v in rep.map_sizes)
    assert rep.aug_size == 0


def test_gh_perturbed_and_composed():
    cx = koszul2(SP33)
    removed = frozenset({0})
    other = restricted_copy(cx, 1, 0, removed)
    kappa = max(op_norm(d) for d in cx.boundaries())
    witness = identity_witness(cx, Fraction(1, 2), 2 * kappa)
    rep = gh_verify(cx, other, witness)
    assert rep.symdiff[1] == Fraction(1, 9)
    assert rep.symdiff[0] == 0 and rep.symdiff[2] == 0
    assert gh_within(rep)


def test_prefix_violations_raise():
    # summand i of a module sits in summand i of its ambient; each way to
    # break that rule is refused by gh_verify, the inclusion and the
    # projection alike
    cx = koszul2(SP33)
    shaved = restricted_copy(cx, 1, 0, frozenset({0})).module(1)
    # Z/9 has the order of Z/3 x Z/3, so carrier containment alone holds
    z9 = FiniteQuotient.abelian([9])
    cases = [
        (cx.modules[:1] + (shaved,) + cx.modules[2:],
         "carrier 0 is not contained in ambient carrier 0"),
        (cx.modules[:1] + (MarkedModule.full(SP33, 1),) + cx.modules[2:],
         "2 summands do not fit in an ambient of 1"),
        (tuple(MarkedModule.full(z9, m.rank) for m in cx.modules),
         "module and ambient live over different levels"),
    ]
    m = cx.module(1)
    for ambients, message in cases:
        witness = GHWitness(ambients=ambients, delta=Fraction(1), k=100)
        with pytest.raises(ValueError, match=message):
            gh_verify(cx, cx, witness)
        with pytest.raises(ValueError, match=message):
            marked_inclusion(m, ambients[1])
        with pytest.raises(ValueError, match=message):
            marked_projection(ambients[1], m)


def test_complex_json_round_trip():
    cx = koszul2(SP33)
    data = cx.to_json()
    again = MarkedComplex.from_json(data)
    assert again.to_json() == data
    assert defect_report(again).is_strict

    naked = MarkedComplex(cx.modules, cx.boundaries(), None)
    assert naked.to_json()["augmentation"] is None
    again = MarkedComplex.from_json(naked.to_json())
    assert again.augmentation is None
    assert again.to_json() == naked.to_json()
