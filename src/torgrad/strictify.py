"""Repairing an almost exact complex into an exactly exact one.

strictify_complex works at a fixed level and is exact-output: it appends
small error summands degree by degree and corrects the boundaries so
every composite (including the augmentation row) vanishes identically.
The error carriers are exactly the supports of the measured defects, so
a strict input passes through untouched.

The result records the dimension of the error summands added per degree
and an ambient witness whose bounds are measured against its input, so
callers can check the advertised bounds instead of trusting them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .crossring import (
    Augmentation,
    MarkedModule,
    MarkedMorphism,
    celt_indicator,
    celt_neg,
    vector_supp1,
)
from .complexes import GHWitness, MarkedComplex, gh_verify


def _extend(module: MarkedModule, supports: Sequence[frozenset]):
    """module followed by one error summand <B> per nonempty support B,
    and the indices of those supports in the order of their summands."""
    kept = [i for i, B in enumerate(supports) if B]
    errors = MarkedModule(module.space, [supports[i] for i in kept])
    return module.direct_sum(errors), kept


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
