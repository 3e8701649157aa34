"""Marked chain complexes over a level, exactness defects, comparisons.

A complex stores one marked module per degree 0..top, boundaries
d_r: D_r -> D_{r-1} for r >= 1 and an optional augmentation eta: D_0 -> L.
Resolution data (free group ring matrices) are pushed to a level once per
entry (push_resolution).  The gradient needs no marked complex: it checks
d d = 0 on the pushed ranks x ranks matrices in the group ring of the level
(push_complex) and builds its integer rows from them in discretize.  Marked
complexes come from the same pushed data (induce_resolution), which is the
gradient's independent oracle, and from the constructions.  Nothing is
assumed exact: defect_report measures how far d o d and eta o d_1 are from
zero, witness_defect how far eta(z) is from 1, check_retract how far a
homotopy retract's identities are from holding, and the almost-equality
comparisons below measure distances between complexes sharing an ambient.

Compositions that land in the base module (eta o d_1, augmentation rows of
chain map checks and of ambient comparisons) are measured after collapsing
to base functions.  Measuring them as maps into a rank-one marked module
would report spurious nonzero defects: (1, e) - (1, g) is a nonzero ring
element whose action on base functions is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Optional, Sequence

from .crossring import (
    Augmentation,
    MarkedModule,
    MarkedMorphism,
    Vector,
    _check_prefix,
    carriers_from_json,
    celt_to_json,
    fn_from_json,
    fn_sub,
    level_from_json,
    level_to_json,
    measure,
    morphism_from_json,
    morphism_stats,
    op_norm,
)
from .groups import FiniteQuotient, push_to_quotient


class MarkedComplex:
    """Modules indexed by degree, boundaries, optional augmentation."""

    def __init__(
        self,
        modules: Sequence[MarkedModule],
        boundaries: Sequence[MarkedMorphism],
        augmentation: Optional[Augmentation] = None,
    ):
        if not modules:
            raise ValueError("a complex needs at least degree 0")
        if len(boundaries) != len(modules) - 1:
            raise ValueError(
                f"{len(boundaries)} boundaries for {len(modules)} degrees"
            )
        space = modules[0].space
        for m in modules:
            if m.space != space:
                raise ValueError("all degrees must share the level space")
        for r, d in enumerate(boundaries, start=1):
            if d.domain != modules[r] or d.codomain != modules[r - 1]:
                raise ValueError(f"boundary {r} has mismatched modules")
        if augmentation is not None and augmentation.domain != modules[0]:
            raise ValueError("augmentation domain must be degree 0")
        self.modules = tuple(modules)
        self._boundaries = tuple(boundaries)
        self.augmentation = augmentation
        self.space = space

    @property
    def top_degree(self) -> int:
        return len(self.modules) - 1

    def module(self, r: int) -> MarkedModule:
        return self.modules[r]

    def boundary(self, r: int) -> MarkedMorphism:
        if not 1 <= r <= self.top_degree:
            raise ValueError(f"no boundary in degree {r}")
        return self._boundaries[r - 1]

    def boundaries(self):
        return self._boundaries

    def __repr__(self) -> str:
        ranks = ",".join(str(m.rank) for m in self.modules)
        return f"MarkedComplex(degrees 0..{self.top_degree}, ranks [{ranks}])"

    def to_json(self) -> dict:
        return {
            **level_to_json(self.space),
            "degrees": [[sorted(A) for A in m.carriers] for m in self.modules],
            "boundaries": [
                [[celt_to_json(self.space, z) for z in row] for row in d.entries]
                for d in self._boundaries
            ],
            "augmentation": None
            if self.augmentation is None
            else [[[u, v[u]] for u in sorted(v)] for v in self.augmentation.values],
        }

    @staticmethod
    def from_json(data: dict) -> "MarkedComplex":
        space = level_from_json(data)
        modules = [MarkedModule(space, carriers_from_json(cs))
                   for cs in data["degrees"]]
        boundaries = [morphism_from_json(modules[r], modules[r - 1], rows)
                      for r, rows in enumerate(data["boundaries"], start=1)]
        aug = None
        if data.get("augmentation") is not None:
            values = [fn_from_json(space, pairs)
                      for pairs in data["augmentation"]]
            aug = Augmentation(modules[0], values)
            # Augmentation keeps a value's points inside its carrier only
            for i, (v, kept) in enumerate(zip(values, aug.values)):
                for u, c in v.items():
                    if c and u not in kept:
                        raise ValueError(f"augmentation value {i}: point {u} "
                                         f"lies outside carrier {i}")
        return MarkedComplex(modules, boundaries, aug)


# ---------------------------------------------------------------------------
# defect measurement


@dataclass(frozen=True)
class DefectReport:
    """Sizes of the composites or squares keyed by degree, and of the
    collapsed augmentation row if there is one."""

    sizes: dict
    aug_size: Optional[Fraction]

    @property
    def max_size(self) -> Fraction:
        sizes = list(self.sizes.values())
        if self.aug_size is not None:
            sizes.append(self.aug_size)
        return max(sizes, default=Fraction(0))

    @property
    def is_strict(self) -> bool:
        return self.max_size == 0


def defect_report(cx: MarkedComplex) -> DefectReport:
    """Sizes of d_{r-1} o d_r (keyed by r) and of eta o d_1 if augmented."""
    sizes = {}
    for r in range(2, cx.top_degree + 1):
        comp = cx.boundary(r).then(cx.boundary(r - 1))
        sizes[r] = morphism_stats(comp).size1
    aug_size = None
    if cx.augmentation is not None and cx.top_degree >= 1:
        aug_size = cx.augmentation.after(cx.boundary(1)).size1()
    return DefectReport(sizes, aug_size)


def witness_defect(cx: MarkedComplex, z: Vector) -> Fraction:
    """Measure of the points where eta(z) differs from the constant 1."""
    if cx.augmentation is None:
        raise ValueError("witness defects need an augmented complex")
    space = cx.space
    value = cx.augmentation.apply(z)
    diff = fn_sub(value, dict.fromkeys(range(space.order), 1))
    return measure(space, len(diff))


# ---------------------------------------------------------------------------
# chain maps


def check_chain_map(
    maps: Sequence[MarkedMorphism],
    source: MarkedComplex,
    target: MarkedComplex,
) -> DefectReport:
    """Measure the commutation defects of maps[r]: source_r -> target_r.

    Squares are d^T_r o f_r - f_{r-1} o d^S_r for r >= 1; if both ends are
    augmented the degree-0 row compares eta_T o f_0 with eta_S, collapsed.
    """
    top = min(source.top_degree, target.top_degree, len(maps) - 1)
    for r in range(top + 1):
        if maps[r].domain != source.module(r) or maps[r].codomain != target.module(r):
            raise ValueError(f"chain map degree {r} has mismatched modules")
    sizes = {}
    for r in range(1, top + 1):
        left = maps[r].then(target.boundary(r))
        right = source.boundary(r).then(maps[r - 1])
        sizes[r] = morphism_stats(left.sub(right)).size1
    aug_size = None
    if source.augmentation is not None and target.augmentation is not None:
        aug_size = target.augmentation.after(maps[0]).sub(
            source.augmentation).size1()
    return DefectReport(sizes, aug_size)


@dataclass(frozen=True)
class RetractReport:
    """Chain map reports of forward and backward, and per degree the size
    of the homotopy identity's difference."""

    forward: DefectReport
    backward: DefectReport
    homotopy_sizes: tuple

    @property
    def is_strict(self) -> bool:
        return (self.forward.is_strict and self.backward.is_strict
                and not any(self.homotopy_sizes))


def check_retract(
    small: MarkedComplex,
    big: MarkedComplex,
    forward: Sequence[MarkedMorphism],
    backward: Sequence[MarkedMorphism],
    homotopies: Sequence[MarkedMorphism],
) -> RetractReport:
    """Measure how far small is from a homotopy retract of big.

    forward: small -> big and backward: big -> small are checked as chain
    maps; homotopies[r]: small_r -> small_{r+1} for r in 0..top-1, and
    homotopy_sizes[r] is the size of
    backward_r o forward_r - id - h_r d_{r+1} - d_r h_{r-1},
    the terms past either end dropped.
    """
    top = small.top_degree
    sizes = []
    for r in range(top + 1):
        diff = forward[r].then(backward[r]).sub(
            MarkedMorphism.identity(small.module(r)))
        if r < top:
            diff = diff.sub(homotopies[r].then(small.boundary(r + 1)))
        if r >= 1:
            diff = diff.sub(small.boundary(r).then(homotopies[r - 1]))
        sizes.append(morphism_stats(diff).size1)
    return RetractReport(check_chain_map(forward, small, big),
                         check_chain_map(backward, big, small), tuple(sizes))


# ---------------------------------------------------------------------------
# resolutions at a level


def push_resolution(
    space: FiniteQuotient,
    ranks: Sequence[int],
    matrices: Sequence[Sequence[Sequence[dict]]],
    gen_images: Optional[Sequence[int]] = None,
) -> list:
    """Free resolution data pushed to the level, each entry once.

    ranks[r] is the free rank in degree r; matrices[r] is the degree r+1
    boundary, a ranks[r+1] x ranks[r] array of group ring elements over the
    free group (dicts {word: coeff}).  Returns the same arrays with each
    entry pushed to the quotient (push_to_quotient: words that merge add,
    and only nonzero coefficients stay).  gen_images overrides the
    quotient's generator images, so resolutions of a subgroup generator
    can be pushed along a chosen embedding.  Nothing but the shapes is
    checked."""
    if len(matrices) != len(ranks) - 1:
        raise ValueError(f"{len(matrices)} matrices for {len(ranks)} ranks")
    pushed = []
    for r, mat in enumerate(matrices, start=1):
        if len(mat) != ranks[r]:
            raise ValueError(f"matrix {r} has {len(mat)} rows, expected {ranks[r]}")
        for row in mat:
            if len(row) != ranks[r - 1]:
                raise ValueError(
                    f"matrix {r} row has {len(row)} columns, expected {ranks[r - 1]}"
                )
        pushed.append([[push_to_quotient(elt, space, gen_images) for elt in row]
                       for row in mat])
    return pushed


def push_complex(
    space: FiniteQuotient,
    ranks: Sequence[int],
    matrices: Sequence[Sequence[Sequence[dict]]],
    gen_images: Optional[Sequence[int]] = None,
) -> list:
    """push_resolution's arrays, checked to form a complex at the level:
    d_r d_{r+1} = 0 in the group ring of the level, for every r.

    The products are ranks[r+1] x ranks[r-1] arrays of ring elements,
    multiplied in the order of MarkedMorphism.then, so this is the check
    that the coinvariants of the induced full-carrier complex compose to
    zero, without the |G|-fold cells.  Raises ValueError if they do not."""
    pushed = push_resolution(space, ranks, matrices, gen_images)
    for r in range(1, len(pushed)):
        lower = pushed[r - 1]
        for row in pushed[r]:
            for k in range(ranks[r - 1]):
                acc = {}
                for x, below in zip(row, lower):
                    for g, c in x.items():
                        for h, e in below[k].items():
                            gh = space.mul(g, h)
                            acc[gh] = acc.get(gh, 0) + c * e
                if any(acc.values()):
                    raise ValueError(
                        f"boundaries {r} and {r + 1} do not compose to zero "
                        "at the level; not a complex")
    return pushed


def induce_resolution(
    space: FiniteQuotient,
    ranks: Sequence[int],
    matrices: Sequence[Sequence[Sequence[dict]]],
    gen_images: Optional[Sequence[int]] = None,
    augmented: bool = True,
) -> MarkedComplex:
    """Induce free resolution data to the level, with full carriers.

    The data are read as in push_resolution; a pushed term (g, c) becomes
    the ring element (c * chi_G, g).  d d = 0 is not checked, so that
    defect_report can measure a complex that is not one.  The gradient
    takes its rows from push_complex and discretize.shapiro_complex; this
    marked route to the same rows, through coinvariants_complex, is their
    independent check.
    """
    pushed = push_resolution(space, ranks, matrices, gen_images)
    modules = [MarkedModule.full(space, n) for n in ranks]
    full = range(space.order)
    boundaries = [
        MarkedMorphism(modules[r], modules[r - 1],
                       [[{g: dict.fromkeys(full, c) for g, c in elt.items()}
                         for elt in row] for row in mat],
                       normalize=False)
        for r, mat in enumerate(pushed, start=1)]
    aug = None
    if augmented:
        if ranks[0] != 1:
            raise ValueError("augmented induction expects a rank 1 degree 0")
        aug = Augmentation(modules[0], [dict.fromkeys(full, 1)])
    return MarkedComplex(modules, boundaries, aug)


# ---------------------------------------------------------------------------
# ambient comparisons (Gromov-Hausdorff style witnesses)


@dataclass(frozen=True)
class GHWitness:
    """Two complexes embedded in shared ambient modules, degree by degree.

    ambients[r] is the shared module P_r.  Each complex embeds by the
    prefix rule: summand i of its degree r module sits in summand i of
    P_r, with carrier containment.  delta bounds, per degree, both the
    carrier symmetric difference and the size of the boundary comparison;
    k bounds the comparison operator norms.
    """

    ambients: tuple
    delta: Fraction
    k: int


@dataclass(frozen=True)
class GHReport:
    symdiff: tuple
    map_sizes: tuple
    map_norms: tuple
    aug_size: Optional[Fraction]
    aug_linf: Optional[int]
    delta: Fraction
    k: int

    @property
    def max_size(self) -> Fraction:
        sizes = list(self.symdiff) + list(self.map_sizes)
        if self.aug_size is not None:
            sizes.append(self.aug_size)
        return max(sizes, default=Fraction(0))

    @property
    def max_norm(self) -> int:
        norms = list(self.map_norms)
        if self.aug_linf is not None:
            norms.append(self.aug_linf)
        return max(norms, default=0)


def _padded(f: MarkedMorphism, domain: MarkedModule, codomain: MarkedModule
            ) -> MarkedMorphism:
    """f as a map domain -> codomain, its entries zero-padded: the ambients
    of f's own domain and codomain under the prefix rule.  Stored entries
    already lie in A_i intersect g B_j, so no normalisation is needed."""
    zero = ({},) * codomain.rank
    rows = [row + zero[len(row):] for row in f.entries]
    rows += [zero] * (domain.rank - len(rows))
    return MarkedMorphism(domain, codomain, rows, normalize=False)


def gh_verify(left: MarkedComplex, right: MarkedComplex, witness: GHWitness
              ) -> GHReport:
    """Measure the witness: carrier symmetric differences and boundary
    comparisons per degree, augmentation row collapsed.

    Both complexes embed in the ambients by the prefix rule, so the
    comparison pi o d o iota of a side is its boundary zero-padded to the
    ambient's shape, and the augmentation after pi its values padded with
    zeros; the report measures the differences of the padded maps."""
    if left.top_degree != right.top_degree:
        raise ValueError("ambient comparison expects equal top degrees")
    if (left.augmentation is None) != (right.augmentation is None):
        raise ValueError("either both or neither complex may be augmented")
    top = left.top_degree
    ambients = witness.ambients
    if len(ambients) != top + 1:
        raise ValueError(f"{len(ambients)} ambients for top degree {top}")
    for cx in (left, right):
        for m, P in zip(cx.modules, ambients):
            _check_prefix(m, P)
    space = left.space
    symdiff = tuple(
        measure(space, sum(len(S ^ T) for S, T in zip_longest(
            L.carriers, R.carriers, fillvalue=frozenset())))
        for L, R in zip(left.modules, right.modules))

    map_sizes = []
    map_norms = []
    for r in range(1, top + 1):
        P, Q = ambients[r], ambients[r - 1]
        diff = _padded(left.boundary(r), P, Q).sub(
            _padded(right.boundary(r), P, Q))
        map_sizes.append(morphism_stats(diff).size1)
        map_norms.append(op_norm(diff))

    aug_size = aug_linf = None
    if left.augmentation is not None:
        P = ambients[0]
        L, R = (Augmentation(P, cx.augmentation.values
                             + ({},) * (P.rank - cx.module(0).rank))
                for cx in (left, right))
        diff = L.sub(R)
        aug_size = diff.size1()
        aug_linf = diff.linf()
    return GHReport(
        symdiff=symdiff,
        map_sizes=tuple(map_sizes),
        map_norms=tuple(map_norms),
        aug_size=aug_size,
        aug_linf=aug_linf,
        delta=witness.delta,
        k=witness.k,
    )
