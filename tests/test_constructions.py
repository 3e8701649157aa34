import dataclasses
import time
from fractions import Fraction

import pytest

from torgrad.groups import FiniteQuotient, parse_word, word_to_str
from torgrad.crossring import MarkedMorphism, celt_add, morphism_stats
from torgrad.complexes import (
    MarkedComplex,
    check_chain_map,
    check_retract,
    defect_report,
    induce_resolution,
)
from torgrad.discretize import (
    coinvariants_complex,
    homology_of_complex,
    retract_inequalities,
)
from torgrad.constructions import (
    _residue_points,
    family_presentation,
    integers_embedding,
    resolution_by_name,
    rokhlin_level_contraction,
    rokhlin_partition,
    rokhlin_tower_boundary,
    rokhlin_tower_contraction,
    surface_relator,
    tower_contract,
    tower_mul,
)
from torgrad.verify import ROKHLIN_GRID, embedding_checks
from helpers import (
    insertion_order,
    koszul2,
    reference_integers_embedding,
    reference_level_contraction,
    reference_rokhlin_partition,
    w,
)

SP33 = FiniteQuotient.abelian([3, 3])


def ones(space):
    return {u: 1 for u in range(space.order)}


def test_resolution_free_shapes():
    ranks, mats = resolution_by_name("free", 3)
    assert ranks == [1, 3]
    assert len(mats) == 1 and len(mats[0]) == 3
    assert mats[0][1] == [{w("b"): 1, (): -1}]
    assert resolution_by_name("integers")[0] == [1, 1]
    with pytest.raises(ValueError):
        resolution_by_name("free", 0)
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
    ranks, mats = resolution_by_name("surface", 1)
    assert ranks == [1, 2, 1]
    da, db = mats[1][0]
    assert da == {(): 1, w("aba-1"): -1}
    assert db == {w("a"): 1, w("aba-1b-1"): -1}
    ranks2, mats2 = resolution_by_name("surface", 2)
    assert ranks2 == [1, 4, 1]
    assert len(mats2[1][0]) == 4


def test_family_presentations():
    # the relators the gradient config evaluates at every level
    for family, param, gens, relators in (
            ("free", 3, 3, []), ("integers", None, 1, []),
            ("surface", 2, 4, ["aba-1b-1cdc-1d-1"]),
            ("free_abelian", 3, 3, ["aba-1b-1", "aca-1c-1", "bcb-1c-1"])):
        pres = family_presentation(family, param)
        assert pres.num_generators == gens
        assert [word_to_str(r) for r in pres.relators] == relators


def test_surface_homology_at_cyclic():
    q = FiniteQuotient.abelian([3])
    t = q.generator_images[0]
    ranks, mats = resolution_by_name("surface", 2)
    cx = induce_resolution(q, ranks, mats, gen_images=[t, 0, 0, 0])
    assert defect_report(cx).is_strict
    dims, level = coinvariants_complex(cx)
    results = homology_of_complex(dims, level)
    assert [h.betti for h in results] == [1, 8, 1]
    assert not any(h.torsion for h in results)


def test_free_abelian_matches_koszul():
    ranks, mats = resolution_by_name("free_abelian", 2)
    assert ranks == [1, 2, 1]
    cx = induce_resolution(SP33, ranks, mats)
    ref = koszul2(SP33)
    for r in (1, 2):
        assert cx.boundary(r).entries == ref.boundary(r).entries
    assert cx.augmentation.values == ref.augmentation.values


def test_free_abelian_cube():
    ranks, mats = resolution_by_name("free_abelian", 3)
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


def test_residue_points_are_the_powers_of_t():
    # t^r is found from t^(r-1) by one step of t's left table
    for modulus in (1, 2, 7, 1000):
        q = FiniteQuotient.abelian([modulus])
        t = q.generator_images[0]
        assert _residue_points(q) == tuple(q.power(t, r)
                                           for r in range(modulus))


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


@pytest.mark.parametrize("modulus", range(1, 21))
def test_rokhlin_tiles_match_the_scanning_reference(modulus):
    # every tile of Z/modulus: the sets and sums built from the residues
    # equal those found by scans and copying sums, insertion order
    # included, so the coinvariant rows keep their column order
    for tile in range(1, modulus + 1):
        rok = rokhlin_partition(modulus, tile)
        ref = reference_rokhlin_partition(modulus, tile)
        assert list(rok.base) == list(ref["base"])
        assert list(rok.remainder) == list(ref["remainder"])
        assert insertion_order(rok.complex.boundary(1).entries[0][0]) == (
            insertion_order(ref["entry"])), (modulus, tile)
        assert insertion_order(rok.witness[0]) == insertion_order(ref["x"])
        emb = integers_embedding(rok)
        entries = {"f0": emb.forward[0], "f1": emb.forward[1],
                   "r0": emb.backward[0], "r1": emb.backward[1],
                   "h0": emb.homotopies[0]}
        for name, z in reference_integers_embedding(rok).items():
            assert insertion_order(entries[name].entries[0][0]) == (
                insertion_order(z)), (modulus, tile, name)


def test_rokhlin_tiles_near_the_modulus_within_budget():
    # a tile is built in O(M) and the h_0 entry costs what it holds; a
    # scan of all M residues per set took seconds on these
    budget_s = 0.5
    for build in (lambda: rokhlin_partition(10 ** 4, 5000),
                  lambda: integers_embedding(rokhlin_partition(400, 200))):
        started = time.monotonic()
        build()
        elapsed = time.monotonic() - started
        assert elapsed < budget_s, f"took {elapsed:.2f}s"


def test_rokhlin_tower_contraction_window():
    assert rokhlin_tower_contraction(6, 2)
    assert rokhlin_tower_contraction(7, 2)
    assert rokhlin_tower_contraction(12, 4)
    # the boundary and contraction are honest tower operators
    s_d = rokhlin_tower_boundary(7, 2)
    z = {(3, 1): 1}
    # the tile 2 of Z/7 has base {0, 2, 4} and remainder {6}
    assert tower_contract(7, {0, 2, 4, 6}, tower_mul(7, z, s_d)) == z


def with_witness_changed(res):
    """res with the first coefficient of its witness raised by one."""
    x = res.witness[0]
    g, fib = next(iter(x.items()))
    return dataclasses.replace(
        res, witness=(celt_add(x, {g: {next(iter(fib)): 1}}),))


def with_boundary_changed(res):
    """res with the coefficient of its boundary at (the least point of C,
    e) raised by one."""
    cx = res.complex
    d1 = cx.boundary(1)
    entry = celt_add(d1.entries[0][0], {0: {min(res.carrier): 1}})
    boundary = MarkedMorphism(d1.domain, d1.codomain, [[entry]])
    return dataclasses.replace(res, complex=MarkedComplex(
        cx.modules, [boundary], cx.augmentation))


ROKHLIN_PAIRS = sorted({(m, n) for m in range(2, 31)
                        for n in range(1, m + 1)} | set(ROKHLIN_GRID))


def test_rokhlin_level_contraction():
    # the running sums along the tower agree with the atom-by-atom route
    # on every tile of Z/2 .. Z/30 and the verify grid: both hold intact,
    # and both refuse one witness or boundary coefficient changed.  At
    # tile = modulus the boundary and every c_0 are zero, so the identity
    # does not read the boundary, and only the witness is changed there
    for modulus, tile in ROKHLIN_PAIRS:
        res = rokhlin_partition(modulus, tile)
        assert rokhlin_level_contraction(res), (modulus, tile)
        assert reference_level_contraction(res), (modulus, tile)
        broken = [with_witness_changed(res)]
        if tile < modulus:
            broken.append(with_boundary_changed(res))
        for bad in broken:
            assert not rokhlin_level_contraction(bad), (modulus, tile)
            assert not reference_level_contraction(bad), (modulus, tile)


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
    assert morphism_stats(h0.then(d1).sub(rf0.sub(id0))).size1 == 0
    assert morphism_stats(d1.then(h0).sub(rf1.sub(id1))).size1 == 0
    assert emb.norms == {"f0": 1, "f1": 1, "r0": 1, "r1": tile, "h0": tile - 1}


def test_integers_embedding_retract_inequalities():
    emb = integers_embedding(rokhlin_partition(7, 2))
    report = check_retract(
        emb.source, emb.target,
        list(emb.forward), list(emb.backward), list(emb.homotopies),
    )
    assert report.is_strict
    assert retract_inequalities(emb.source, emb.target)
    small = homology_of_complex(*coinvariants_complex(emb.source))
    big = homology_of_complex(*coinvariants_complex(emb.target))
    assert [h.betti for h in small] == [1, 1]
    assert all(a.betti >= 1 for a in big)


def test_embedding_ledger_detects_a_broken_homotopy():
    emb = integers_embedding(rokhlin_partition(12, 4))
    h0 = emb.homotopies[0]
    # one more cell, at the identity and point 0, in h0's only entry
    cell = celt_add(h0.entries[0][0], {0: {0: 1}})
    bad = dataclasses.replace(emb, homotopies=(
        MarkedMorphism(h0.domain, h0.codomain, [[cell]]),))
    report = check_retract(bad.source, bad.target, bad.forward,
                           bad.backward, bad.homotopies)
    assert not report.is_strict
    assert report.homotopy_sizes == (Fraction(1, 12), Fraction(1, 6))
    checks = embedding_checks(bad)
    assert checks["forward_chain_map"] and checks["backward_chain_map"]
    assert not checks["homotopy_degree0"]
    assert not checks["homotopy_degree1"]
