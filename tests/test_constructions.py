import time
from fractions import Fraction

import pytest

from torgrad.groups import FiniteQuotient, parse_word
from torgrad.crossring import MarkedMorphism
from torgrad.complexes import (
    check_chain_map,
    defect_report,
    induce_resolution,
)
from torgrad.discretize import (
    coinvariants_complex,
    homology_of_complex,
    retract_inequality_check,
)
from torgrad.constructions import (
    integers_embedding,
    resolution_by_name,
    resolution_free,
    resolution_free_abelian,
    resolution_integers,
    resolution_surface,
    rokhlin_level_contraction,
    rokhlin_partition,
    rokhlin_tower_boundary,
    rokhlin_tower_contraction,
    surface_relator,
    tower_contract,
    tower_mul,
)
from helpers import koszul2, w

SP33 = FiniteQuotient.abelian([3, 3])


def ones(space):
    return {u: 1 for u in range(space.order)}


def test_resolution_free_shapes():
    ranks, mats = resolution_free(3)
    assert ranks == [1, 3]
    assert len(mats) == 1 and len(mats[0]) == 3
    assert mats[0][1] == [{w("b"): 1, (): -1}]
    assert resolution_integers()[0] == [1, 1]
    with pytest.raises(ValueError):
        resolution_free(0)
    with pytest.raises(ValueError):
        resolution_by_name("moebius")
    with pytest.raises(ValueError, match="takes no param"):
        resolution_by_name("integers", 3)
    # at most 128 generators over all degrees, refused before building
    assert sum(resolution_by_name("free", 127)[0]) == 128
    assert sum(resolution_by_name("free_abelian", 7)[0]) == 128
    for family, param in (("free", 128), ("surface", 64),
                          ("free_abelian", 8), ("free_abelian", 10 ** 9)):
        with pytest.raises(ValueError, match="above the cap"):
            resolution_by_name(family, param)


def test_surface_resolution_at_genus_63_within_budget():
    # the relator has length 4g; each free derivative is read off slices
    # of it, so the largest surface allowed builds in well under a second
    budget_s = 1.0
    started = time.monotonic()
    ranks, mats = resolution_by_name("surface", 63)
    elapsed = time.monotonic() - started
    assert ranks == [1, 126, 1]
    assert all(len(d) == 2 for d in mats[1][0])
    assert elapsed < budget_s, f"took {elapsed:.2f}s"


def test_surface_relator_and_fox_row():
    assert surface_relator(1) == parse_word("aba-1b-1")
    ranks, mats = resolution_surface(1)
    assert ranks == [1, 2, 1]
    da, db = mats[1][0]
    assert da == {(): 1, w("aba-1"): -1}
    assert db == {w("a"): 1, w("aba-1b-1"): -1}
    ranks2, mats2 = resolution_surface(2)
    assert ranks2 == [1, 4, 1]
    assert len(mats2[1][0]) == 4


def test_surface_homology_at_cyclic():
    q = FiniteQuotient.abelian([3])
    t = q.generator_images[0]
    ranks, mats = resolution_surface(2)
    cx = induce_resolution(q, ranks, mats, gen_images=[t, 0, 0, 0])
    assert defect_report(cx).is_strict
    dims, level = coinvariants_complex(cx)
    results = homology_of_complex(dims, level)
    assert [h.betti for h in results] == [1, 8, 1]
    assert not any(h.torsion for h in results)


def test_free_abelian_matches_koszul():
    ranks, mats = resolution_free_abelian(2)
    assert ranks == [1, 2, 1]
    cx = induce_resolution(SP33, ranks, mats)
    ref = koszul2(SP33)
    for r in (1, 2):
        assert cx.boundary(r).entries == ref.boundary(r).entries
    assert cx.augmentation.values == ref.augmentation.values


def test_free_abelian_cube():
    ranks, mats = resolution_free_abelian(3)
    assert ranks == [1, 3, 3, 1]
    space = FiniteQuotient.abelian([2, 2, 2])
    cx = induce_resolution(space, ranks, mats)
    assert defect_report(cx).is_strict
    dims, level = coinvariants_complex(cx)
    betti = [h.betti for h in homology_of_complex(dims, level)]
    assert betti == [1, 3, 3, 1]


def test_rokhlin_frozen_7_2():
    res = rokhlin_partition(7, 2)
    q = res.complex.space
    t = q.generator_images[0]
    assert res.base == {q.power(t, r) for r in (0, 2, 4)}
    assert res.remainder == {q.power(t, 6)}
    assert res.dim == Fraction(4, 7)
    assert res.boundary_norm == 2
    assert defect_report(res.complex).is_strict
    assert res.complex.augmentation.apply(res.witness) == ones(res.complex.space)


@pytest.mark.parametrize("modulus,tile", [(6, 2), (7, 2), (12, 4), (5, 5)])
def test_rokhlin_bounds(modulus, tile):
    res = rokhlin_partition(modulus, tile)
    assert defect_report(res.complex).is_strict
    assert res.complex.augmentation.apply(res.witness) == ones(res.complex.space)
    bound = Fraction(1, tile) + Fraction(modulus % tile, modulus)
    assert res.dim <= bound
    if tile < modulus:
        assert res.boundary_norm == 2
    with pytest.raises(ValueError):
        rokhlin_partition(4, 5)


def test_rokhlin_tower_contraction_window():
    assert rokhlin_tower_contraction(6, 2)
    assert rokhlin_tower_contraction(7, 2)
    assert rokhlin_tower_contraction(12, 4)
    # the boundary and contraction are honest tower operators
    s_d = rokhlin_tower_boundary(7, 2)
    z = {(3, 1): 1}
    assert tower_contract(7, 2, tower_mul(7, z, s_d)) == z


def test_rokhlin_level_contraction():
    assert rokhlin_level_contraction(rokhlin_partition(7, 2))
    assert rokhlin_level_contraction(rokhlin_partition(12, 4))
    assert rokhlin_level_contraction(rokhlin_partition(6, 2))


@pytest.mark.parametrize("modulus,tile", [(7, 2), (12, 4)])
def test_integers_embedding_identities(modulus, tile):
    emb = integers_embedding(rokhlin_partition(modulus, tile))
    assert emb.target is emb.rokhlin.complex
    assert check_chain_map(list(emb.forward), emb.source, emb.target).is_strict
    assert check_chain_map(list(emb.backward), emb.target, emb.source).is_strict
    d1 = emb.source.boundary(1)
    h0 = emb.homotopies[0]
    rf0 = emb.forward[0].then(emb.backward[0])
    rf1 = emb.forward[1].then(emb.backward[1])
    id0 = MarkedMorphism.identity(emb.source.module(0))
    id1 = MarkedMorphism.identity(emb.source.module(1))
    assert h0.then(d1).sub(rf0.sub(id0)).is_zero()
    assert d1.then(h0).sub(rf1.sub(id1)).is_zero()
    assert emb.norms == {"f0": 1, "f1": 1, "r0": 1, "r1": tile, "h0": tile - 1}


def test_integers_embedding_retract_inequalities():
    emb = integers_embedding(rokhlin_partition(7, 2))
    report = retract_inequality_check(
        emb.source, emb.target,
        list(emb.forward), list(emb.backward), list(emb.homotopies),
    )
    assert report.ok
    assert [h.betti for h in report.retract_homology] == [1, 1]
    assert all(a.betti >= 1 for a in report.ambient_homology)
