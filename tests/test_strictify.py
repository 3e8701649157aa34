from fractions import Fraction

import pytest

from helpers import koszul2, restricted_copy, with_aug_extra, with_boundary_extra
from torgrad.groups import FiniteQuotient
from torgrad.crossring import (
    celt_indicator,
    marked_inclusion,
    marked_projection,
    morphism_stats,
    op_norm,
    vector_stats,
)
from torgrad.complexes import (
    GHWitness,
    defect_report,
    gh_verify,
    witness_defect,
)
from torgrad.strictify import strictify_complex

SP33 = FiniteQuotient.abelian([3, 3])


# ---------------------------------------------------------------------------
# strictify_complex


def test_strict_input_passes_through():
    cx = koszul2(SP33)
    assert defect_report(cx).is_strict
    res = strictify_complex(cx)
    assert res.complex.to_json() == cx.to_json()
    assert res.total_error_dim == 0
    assert gh_verify(cx, res.complex, res.witness).within


def perturbed_complex():
    cx = koszul2(SP33)
    # break both the augmentation row and the composite: a lone extra atom
    # in d_1 and one in d_2
    t = SP33.generator_images[0]
    bad = with_boundary_extra(cx, 1, 0, 0, {t: {3: 1}})
    bad = with_boundary_extra(bad, 2, 0, 1, {0: {5: -1}})
    return bad


def test_strictify_repairs_almost_complex():
    bad = perturbed_complex()
    before = defect_report(bad)
    assert before.max_size > 0

    res = strictify_complex(bad)
    out = res.complex
    assert defect_report(out).is_strict
    assert out.top_degree == bad.top_degree
    assert any(d > 0 for d in res.error_dims)

    # degreewise error bound: dim E_r <= input defect at r plus
    # rank(D_{r+1}) * dim E_{r-1} * N_1max(d_{r+1})
    deltas = {0: before.aug_size}
    for r in range(2, bad.top_degree + 1):
        deltas[r - 1] = before.sizes[r]
    prev = Fraction(0)
    for r, dim_e in enumerate(res.error_dims):
        n1m = morphism_stats(bad.boundary(r + 1)).n1_max
        bound = deltas[r] + bad.module(r + 1).rank * prev * n1m
        assert dim_e <= bound
        prev = dim_e

    # norm growth: ||d-hat_r|| <= (||d_r|| + 1)(||d_{r+1}|| + 1)
    norms = {0: bad.augmentation.linf()}
    for r in range(1, bad.top_degree + 1):
        norms[r] = op_norm(bad.boundary(r))
    for r in range(1, bad.top_degree):
        assert op_norm(out.boundary(r)) <= (norms[r] + 1) * (norms[r + 1] + 1)
    assert op_norm(out.boundary(bad.top_degree)) <= norms[bad.top_degree] + 1

    # the witness packs both complexes into the output modules
    rep = gh_verify(bad, out, res.witness)
    assert rep.within


def test_strictify_augmentation_defect_only():
    cx = koszul2(SP33)
    bad = with_aug_extra(cx, 0, {2: 1})
    before = defect_report(bad)
    assert before.aug_size > 0
    res = strictify_complex(bad)
    assert defect_report(res.complex).is_strict
    # degree 0 errors are exactly the augmentation defect supports
    assert res.error_dims[0] == before.aug_size


def test_strictify_requires_augmentation():
    cx = koszul2(SP33)
    from torgrad.complexes import MarkedComplex

    naked = MarkedComplex(cx.modules, cx.boundaries(), None)
    with pytest.raises(ValueError):
        strictify_complex(naked)


# ---------------------------------------------------------------------------
# transporting witnesses across ambient comparisons


def test_transported_witness_bounds():
    cx = koszul2(SP33)
    other = restricted_copy(cx, 0, 0, {0})
    assignments = tuple(tuple(range(m.rank)) for m in cx.modules)
    probe = GHWitness(
        ambients=tuple(cx.modules),
        left_assignments=assignments,
        right_assignments=assignments,
        delta=Fraction(1),
        k=100,
    )
    rep = gh_verify(cx, other, probe)
    eps_candidates = list(rep.symdiff) + list(rep.map_sizes) + [rep.aug_size]
    eps = max(eps_candidates)
    assert eps > 0

    # move z across the witness: project the inclusion of z to other_0
    z = cx.module(0).element(0, celt_indicator(cx.module(0).carriers[0]))
    iota = marked_inclusion(cx.module(0), probe.ambients[0], assignments[0])
    pi = marked_projection(probe.ambients[0], other.module(0), assignments[0])
    zt = pi.apply(iota.apply(z))
    old = vector_stats(SP33, z)
    new = vector_stats(SP33, zt)
    assert new.n1 <= old.n1 and new.n2 <= old.n2 and new.linf <= old.linf

    # the input witness is exact, so the transported defect is at most
    # N_1(z) * eps, and the almost complex defect at most (1 + nu) * eps
    assert witness_defect(other, zt) <= old.n1 * eps
    nu = max([cx.augmentation.linf()]
             + [morphism_stats(d).n1 for d in cx.boundaries()])
    assert defect_report(other).max_size <= (1 + nu) * eps
