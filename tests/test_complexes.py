from fractions import Fraction

import pytest

from torgrad.groups import FiniteQuotient, parse_word
from torgrad.crossring import (
    MarkedModule,
    MarkedMorphism,
    celt_indicator,
    morphism_stats,
    op_norm,
)
from torgrad.complexes import (
    GHWitness,
    MarkedComplex,
    check_chain_map,
    defect_report,
    gh_verify,
    induce_resolution,
    tensor_complex,
    witness_defect,
)


def w(s):
    return parse_word(s)


def gm1(s):
    # g - 1 in the group ring
    return {w(s): 1, (): -1}


def free2_complex(space):
    # 0 -> R^2 -> R -> L: the induced resolution of a rank 2 free group
    return induce_resolution(space, [1, 2], [[[gm1("a")], [gm1("b")]]])


def koszul_complex(space):
    return induce_resolution(
        space,
        [1, 2, 1],
        [
            [[gm1("a")], [gm1("b")]],
            [[{w("b"): -1, (): 1}, gm1("a")]],
        ],
    )


SP22 = FiniteQuotient.abelian([2, 2])
SP33 = FiniteQuotient.abelian([3, 3])


def test_induced_free_resolution_is_strict():
    cx = free2_complex(SP22)
    rep = defect_report(cx)
    assert rep.is_strict
    assert rep.aug_size == 0
    assert [m.dim() for m in cx.modules] == [Fraction(1), Fraction(2)]


def test_koszul_is_strict_only_after_commuting_quotient():
    cx = koszul_complex(SP33)
    rep = defect_report(cx)
    assert rep.sizes[2] == 0
    assert rep.aug_size == 0
    assert rep.is_strict


def test_kappa_stats():
    # the norm and counting profile of the Koszul complex: the degree 2
    # boundary maps an atom to 4 units of l1 mass
    cx = koszul_complex(SP33)
    assert max(op_norm(d) for d in cx.boundaries()) == 4
    stats = [morphism_stats(d) for d in cx.boundaries()]
    assert max(s.n1 for s in stats) >= max(s.n1_max for s in stats) >= 2
    assert [m.dim() for m in cx.modules] == [Fraction(1), Fraction(2),
                                             Fraction(1)]


def test_witness_report():
    cx = koszul_complex(SP33)
    carrier = cx.module(0).carriers[0]
    z = cx.module(0).element(0, celt_indicator(carrier))
    assert witness_defect(cx, z) == 0
    # a witness missing two points of the level
    holed = cx.module(0).element(0, celt_indicator(carrier - {0, 4}))
    assert witness_defect(cx, holed) == Fraction(2, 9)


def test_chain_map_identity_is_strict():
    cx = koszul_complex(SP33)
    maps = [MarkedMorphism.identity(m) for m in cx.modules]
    rep = check_chain_map(maps, cx, cx)
    assert rep.is_strict
    assert rep.aug_size == 0


def test_chain_map_defect_is_measured():
    cx = koszul_complex(SP33)
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


def one_generator_complex(space, image):
    # resolution of a single generator pushed along t -> image
    return induce_resolution(
        space, [1, 1], [[[gm1("a")]]], gen_images=[image]
    )


def test_tensor_matches_koszul():
    space = SP33
    t1, t2 = space.generator_images
    C = one_generator_complex(space, t1)
    D = one_generator_complex(space, t2)
    tensor = tensor_complex(C, D)
    assert [m.rank for m in tensor.modules] == [1, 2, 1]
    assert defect_report(tensor).is_strict
    assert tensor.augmentation is not None
    koszul = koszul_complex(space)
    assert ([m.dim() for m in tensor.modules]
            == [m.dim() for m in koszul.modules])
    # the boundaries agree up to the summand order
    maps = [MarkedMorphism.identity(m) for m in tensor.modules]
    rep = check_chain_map(maps, tensor, tensor)
    assert rep.is_strict
    # the product augmentation is 1 on the product of the two generators
    m0 = tensor.module(0)
    unit = tensor.augmentation.apply(
        m0.element(0, celt_indicator(m0.carriers[0])))
    assert unit == dict.fromkeys(range(space.order), 1)


def restricted_copy(cx, degree, summand, removed):
    """Copy of cx with some carrier points removed from one summand."""
    modules = list(cx.modules)
    carriers = list(modules[degree].carriers)
    carriers[summand] = carriers[summand] - removed
    modules[degree] = MarkedModule(cx.space, carriers)
    boundaries = []
    for r in range(1, cx.top_degree + 1):
        d = cx.boundary(r)
        boundaries.append(
            MarkedMorphism(modules[r], modules[r - 1],
                           [list(row) for row in d.entries])
        )
    aug = None
    if cx.augmentation is not None:
        from torgrad.crossring import Augmentation

        aug = Augmentation(modules[0], list(cx.augmentation.values))
    return MarkedComplex(modules, boundaries, aug)


def identity_witness(cx, delta, k):
    assignments = tuple(tuple(range(m.rank)) for m in cx.modules)
    return GHWitness(ambients=tuple(cx.modules), left_assignments=assignments,
                     right_assignments=assignments, delta=delta, k=k)


def test_gh_identity_witness():
    # a complex compared with itself inside itself
    cx = koszul_complex(SP33)
    witness = identity_witness(cx, Fraction(1, 9), 0)
    rep = gh_verify(cx, cx, witness)
    assert rep.within
    assert all(v == 0 for v in rep.symdiff)
    assert all(v == 0 for v in rep.map_sizes)
    assert rep.aug_size == 0


def test_gh_perturbed_and_composed():
    cx = koszul_complex(SP33)
    removed = frozenset({0})
    other = restricted_copy(cx, 1, 0, removed)
    kappa = max(op_norm(d) for d in cx.boundaries())
    witness = identity_witness(cx, Fraction(1, 2), 2 * kappa)
    rep = gh_verify(cx, other, witness)
    assert rep.symdiff[1] == Fraction(1, 9)
    assert rep.symdiff[0] == 0 and rep.symdiff[2] == 0
    assert rep.within


def test_gh_rejects_bad_assignments():
    cx = koszul_complex(SP33)
    other = restricted_copy(cx, 1, 0, frozenset({0}))
    witness = GHWitness(
        ambients=tuple(other.modules),
        left_assignments=tuple(tuple(range(m.rank)) for m in cx.modules),
        right_assignments=tuple(tuple(range(m.rank)) for m in cx.modules),
        delta=Fraction(1, 2),
        k=4,
    )
    # cx carriers are not contained in the shaved ambient
    with pytest.raises(ValueError):
        gh_verify(cx, other, witness)


def test_complex_json_round_trip():
    cx = koszul_complex(SP33)
    data = cx.to_json()
    again = MarkedComplex.from_json(data)
    assert again.to_json() == data
    assert defect_report(again).is_strict

    naked = MarkedComplex(cx.modules, cx.boundaries(), None)
    assert naked.to_json()["augmentation"] is None
    again = MarkedComplex.from_json(naked.to_json())
    assert again.augmentation is None
    assert again.to_json() == naked.to_json()
