"""Repairing almost exact data into exactly exact data.

Three constructions, all at a fixed level and all exact-output:

* make_surjective patches the degree 0 module so an approximate
  augmentation witness becomes an exact one.
* strictify_complex appends small error summands degree by degree and
  corrects the boundaries so every composite (including the augmentation
  row) vanishes identically; the error carriers are exactly the supports
  of the measured defects, so a strict input passes through untouched.
* strictify_map does the same for an almost chain map between two strict
  complexes, enlarging only the target; the repaired map commutes exactly
  and covers the original augmentation on the nose.

Each result records the dimension of the error summands added per degree,
and strictify_complex also an ambient witness whose bounds are measured
against its input, so callers can check the advertised bounds instead of
trusting them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .crossring import (
    Augmentation,
    MarkedModule,
    MarkedMorphism,
    Vector,
    celt_indicator,
    celt_neg,
    fn_sub,
    measure,
    vector_supp1,
)
from .complexes import (
    GHWitness,
    MarkedComplex,
    defect_report,
    gh_verify,
    witness_report,
)


def _extend(module: MarkedModule, supports: Sequence[frozenset]):
    """module followed by one error summand <B> per nonempty support B,
    and the indices of those supports in the order of their summands."""
    kept = [i for i, B in enumerate(supports) if B]
    errors = MarkedModule(module.space, [supports[i] for i in kept])
    return module.direct_sum(errors), kept


def _pad_codomain(f: MarkedMorphism, big: MarkedModule) -> MarkedMorphism:
    """Reinterpret f into a codomain extended by extra summands on the
    right; the first block of big must be f.codomain."""
    extra = big.rank - f.codomain.rank
    if extra < 0 or big.carriers[: f.codomain.rank] != f.codomain.carriers:
        raise ValueError("extension must keep the codomain as its first block")
    rows = [list(row) + [{}] * extra for row in f.entries]
    return MarkedMorphism(f.domain, big, rows, normalize=False)


# ---------------------------------------------------------------------------
# surjectivity patch


@dataclass(frozen=True)
class SurjectiveResult:
    complex: MarkedComplex
    witness: Vector
    patch_carrier: frozenset
    patch_dim: Fraction
    patch_norm: int


def make_surjective(cx: MarkedComplex, z: Vector) -> SurjectiveResult:
    """Append <B>, B = supp(eta(z) - 1), send its generator to 1 - eta(z).

    The returned witness zhat = z + chi_B e satisfies eta_hat(zhat) = 1
    exactly; boundaries do not touch the new summand, so eta_hat o d_1 is
    unchanged.  The patch costs dim <B> = mu(B) < delta, has augmentation
    value bounded by |1 - eta(z)|_inf, and raises N_1, N_2 and the sup norm
    of the witness by at most one.
    """
    report = witness_report(cx, z)
    space = cx.space
    if not report.defect_support:
        return SurjectiveResult(cx, tuple(z), frozenset(), Fraction(0), 0)
    B = report.defect_support
    value = cx.augmentation.apply(z)
    # supported exactly on B
    patch_value = fn_sub(dict.fromkeys(range(space.order), 1), value)

    new_zero = cx.module(0).direct_sum(MarkedModule(space, [B]))
    aug = Augmentation(new_zero, list(cx.augmentation.values) + [patch_value])
    boundaries = list(cx.boundaries())
    if cx.top_degree >= 1:
        boundaries[0] = _pad_codomain(cx.boundary(1), new_zero)
    modules = [new_zero] + list(cx.modules[1:])
    new_cx = MarkedComplex(modules, boundaries, aug)
    new_witness = tuple(z) + (celt_indicator(B),)
    return SurjectiveResult(
        complex=new_cx,
        witness=new_witness,
        patch_carrier=B,
        patch_dim=measure(space, len(B)),
        patch_norm=report.defect_linf,
    )


# ---------------------------------------------------------------------------
# strictifying a complex


@dataclass(frozen=True)
class StrictifyComplexResult:
    complex: MarkedComplex
    error_dims: tuple
    witness: GHWitness

    @property
    def total_error_dim(self) -> Fraction:
        return sum(self.error_dims, Fraction(0))


def strictify_complex(cx: MarkedComplex) -> StrictifyComplexResult:
    """Correct an augmented almost complex to an exactly exact one.

    Degree by degree (r = 0 .. top-1) the defect of the corrected map
    against the next boundary is computed, its row supports B_i become new
    summands of degree r, the corrected boundary kills them and the new
    degree r map sends them onto the defect itself.  Error summands with
    empty carrier are dropped, so a strict complex returns unchanged.

    dim E_r is at most the input defect at r plus
    rank(D_{r+1}) * dim E_{r-1} * N_1max(d_{r+1}), and operator norms grow
    by at most (norm_r + 1)(norm_{r+1} + 1).
    """
    if cx.augmentation is None:
        raise ValueError("strictification needs an augmented complex")
    top = cx.top_degree
    if top == 0:
        return StrictifyComplexResult(cx, (), _strictify_witness(cx, cx))

    # degree 0: the corrected degree 0 map is the augmentation itself
    comp_aug = cx.augmentation.after(cx.boundary(1))
    supports = [frozenset(v) for v in comp_aug.values]
    zero_hat, kept = _extend(cx.module(0), supports)
    aug_hat = Augmentation(zero_hat, list(cx.augmentation.values)
                           + [comp_aug.values[i] for i in kept])
    new_modules = [zero_hat]
    new_boundaries = []
    tilde = _corrected_map(cx.boundary(1), zero_hat, kept, supports)

    for r in range(1, top):
        comp = cx.boundary(r + 1).then(tilde)
        supports = [frozenset(vector_supp1(comp.row(i)))
                    for i in range(comp.domain.rank)]
        r_hat, kept = _extend(cx.module(r), supports)
        rows = [list(row) for row in tilde.entries] + [
            list(comp.entries[i]) for i in kept
        ]
        new_boundaries.append(MarkedMorphism(r_hat, new_modules[r - 1], rows))
        new_modules.append(r_hat)
        tilde = _corrected_map(cx.boundary(r + 1), r_hat, kept, supports)

    new_modules.append(cx.module(top))
    new_boundaries.append(tilde)
    out = MarkedComplex(new_modules, new_boundaries, aug_hat)
    return StrictifyComplexResult(
        complex=out,
        error_dims=tuple(new_modules[r].dim() - cx.module(r).dim()
                         for r in range(top)),
        witness=_strictify_witness(cx, out),
    )


def _strictify_witness(before: MarkedComplex, after: MarkedComplex) -> GHWitness:
    """Ambient comparison witness: the output modules contain the input
    modules as their first summand blocks.  delta is the measured maximum
    plus half an atom, k the measured norm maximum."""
    probe = GHWitness(
        ambients=tuple(after.modules),
        left_assignments=tuple(tuple(range(m.rank)) for m in before.modules),
        right_assignments=tuple(tuple(range(m.rank)) for m in after.modules),
        delta=Fraction(1),
        k=0,
    )
    rep = gh_verify(before, after, probe)
    return replace(probe,
                   delta=rep.max_size + Fraction(1, 2 * before.space.order),
                   k=rep.max_norm)


# ---------------------------------------------------------------------------
# strictifying a chain map


@dataclass(frozen=True)
class StrictifyMapResult:
    target: MarkedComplex
    maps: tuple
    error_dims: tuple

    @property
    def total_error_dim(self) -> Fraction:
        return sum(self.error_dims, Fraction(0))


def strictify_map(
    source: MarkedComplex,
    target: MarkedComplex,
    maps: Sequence[MarkedMorphism],
) -> StrictifyMapResult:
    """Repair an almost chain map between strict complexes.

    Both complexes must be strict and augmented.  The target gains error
    summands <B_i> carrying the commutation defect of each source summand;
    the repaired maps subtract the corresponding indicators, so all squares
    commute exactly, the extended target stays exactly exact, and the
    repaired degree 0 map covers the source augmentation on the nose.
    dim E_r equals the measured defect size in degree r, and the repaired
    map differs from the original by (sum of dim E_r, 1).
    """
    if source.augmentation is None or target.augmentation is None:
        raise ValueError("both complexes must be augmented")
    if source.top_degree != target.top_degree:
        raise ValueError("chain map strictification expects equal top degrees")
    for cx, name in ((source, "source"), (target, "target")):
        if not defect_report(cx).is_strict:
            raise ValueError(f"{name} complex is not strict")
    top = source.top_degree
    if len(maps) != top + 1:
        raise ValueError(f"{len(maps)} maps for degrees 0..{top}")

    # degree 0: defect of the augmentation row
    delta0 = target.augmentation.after(maps[0]).sub(source.augmentation)
    supports = [frozenset(v) for v in delta0.values]
    zero_hat, kept = _extend(target.module(0), supports)
    aug_hat = Augmentation(zero_hat, list(target.augmentation.values)
                           + [delta0.values[i] for i in kept])
    new_modules = [zero_hat]
    new_boundaries = []
    new_maps = [_corrected_map(maps[0], zero_hat, kept, supports)]

    for r in range(top):
        # Delta: C_{r+1} -> target-hat_r, the square defect against the
        # already repaired degree r map
        through_target = _pad_codomain(
            maps[r + 1].then(target.boundary(r + 1)), new_modules[r]
        )
        through_source = source.boundary(r + 1).then(new_maps[r])
        delta = through_target.sub(through_source)
        supports = [frozenset(vector_supp1(delta.row(i)))
                    for i in range(delta.domain.rank)]
        r_hat, kept = _extend(target.module(r + 1), supports)
        # boundary: original target boundary on the first block, the defect
        # on the error block
        d_pad = _pad_codomain(target.boundary(r + 1), new_modules[r])
        rows = [list(row) for row in d_pad.entries] + [
            list(delta.entries[i]) for i in kept
        ]
        new_boundaries.append(MarkedMorphism(r_hat, new_modules[r], rows))
        new_modules.append(r_hat)
        new_maps.append(_corrected_map(maps[r + 1], r_hat, kept, supports))

    return StrictifyMapResult(
        target=MarkedComplex(new_modules, new_boundaries, aug_hat),
        maps=tuple(new_maps),
        error_dims=tuple(m.dim() - t.dim()
                         for m, t in zip(new_modules, target.modules)),
    )


def _corrected_map(f: MarkedMorphism, target_hat, kept, supports
                   ) -> MarkedMorphism:
    """f pushed into the extended target, each row kept[k] minus the
    indicator of its support on error summand k."""
    base_rank = f.codomain.rank
    extra = target_hat.rank - base_rank
    rows = [list(row) + [{}] * extra for row in f.entries]
    for k, i in enumerate(kept):
        rows[i][base_rank + k] = celt_neg(celt_indicator(supports[i]))
    return MarkedMorphism(f.domain, target_hat, rows)
