"""Marked chain complexes over a level, exactness defects, comparisons.

A complex stores one marked module per degree 0..top, boundaries
d_r: D_r -> D_{r-1} for r >= 1 and an optional augmentation eta: D_0 -> L.
Complexes come from resolution data (induce_resolution) or as tensor
products.  Nothing is assumed exact: defect_report measures how far d o d
and eta o d_1 are from zero, witness_defect how far eta(z) is from 1, and
the almost-equality comparisons below measure distances between complexes
sharing an ambient.

Compositions that land in the base module (eta o d_1, augmentation rows of
chain map checks and of ambient comparisons) are measured after collapsing
to base functions.  Measuring them as maps into a rank-one marked module
would report spurious nonzero defects: (1, e) - (1, g) is a nonzero ring
element whose action on base functions is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .crossring import (
    Augmentation,
    MarkedModule,
    MarkedMorphism,
    Vector,
    carriers_from_json,
    celt_from_json,
    celt_to_json,
    fn_from_json,
    fn_sub,
    level_from_json,
    level_to_json,
    marked_inclusion,
    marked_projection,
    measure,
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
        boundaries = []
        for r, rows in enumerate(data["boundaries"], start=1):
            entries = [[celt_from_json(space, t) for t in row] for row in rows]
            boundaries.append(MarkedMorphism(modules[r], modules[r - 1], entries))
        aug = None
        if data.get("augmentation") is not None:
            values = [fn_from_json(pairs) for pairs in data["augmentation"]]
            aug = Augmentation(modules[0], values)
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


# ---------------------------------------------------------------------------
# induced resolutions


def induce_resolution(
    space: FiniteQuotient,
    ranks: Sequence[int],
    matrices: Sequence[Sequence[Sequence[dict]]],
    gen_images: Optional[Sequence[int]] = None,
    augmented: bool = True,
) -> MarkedComplex:
    """Induce free resolution data to the level, with full carriers.

    ranks[r] is the free rank in degree r; matrices[r] is the degree r+1
    boundary, a ranks[r+1] x ranks[r] array of group ring elements over the
    free group (dicts {word: coeff}).  A word w becomes the ring element
    (coeff * chi_G, image of w); words that merge in the quotient add.
    gen_images overrides the quotient's generator images, so resolutions of
    a subgroup generator can be pushed along a chosen embedding.
    """
    if len(matrices) != len(ranks) - 1:
        raise ValueError(f"{len(matrices)} matrices for {len(ranks)} ranks")
    modules = [MarkedModule.full(space, n) for n in ranks]
    full = range(space.order)
    boundaries = []
    for r, mat in enumerate(matrices, start=1):
        if len(mat) != ranks[r]:
            raise ValueError(f"matrix {r} has {len(mat)} rows, expected {ranks[r]}")
        entries = []
        for row in mat:
            if len(row) != ranks[r - 1]:
                raise ValueError(
                    f"matrix {r} row has {len(row)} columns, expected {ranks[r - 1]}"
                )
            out_row = []
            for elt in row:
                # push_to_quotient keeps nonzero coefficients only
                pushed = push_to_quotient(elt, space, gen_images)
                out_row.append({g: dict.fromkeys(full, c)
                                for g, c in pushed.items()})
            entries.append(out_row)
        boundaries.append(
            MarkedMorphism(modules[r], modules[r - 1], entries, normalize=False)
        )
    aug = None
    if augmented:
        if ranks[0] != 1:
            raise ValueError("augmented induction expects a rank 1 degree 0")
        aug = Augmentation(modules[0], [dict.fromkeys(full, 1)])
    return MarkedComplex(modules, boundaries, aug)


# ---------------------------------------------------------------------------
# tensor products


def tensor_complex(left: MarkedComplex, right: MarkedComplex) -> MarkedComplex:
    """Degreewise tensor product with intersected carriers.

    (L @ R)_n sums <A_i intersect B_j> over p + q = n, stored by p, then
    i, then j; the boundary acts by d_L on the left index and by (-1)^p d_R
    on the right index, entries restricted to the intersected carriers by
    the morphism normalisation.
    The restriction is exact when entries do not distinguish the two factor
    carriers (full carriers, e.g. induced resolutions); in general the
    output is a well formed sequence whose defect_report measures the loss.
    """
    if left.space != right.space:
        raise ValueError("tensor factors live over different levels")
    space = left.space
    top = left.top_degree + right.top_degree
    summands = []
    modules = []
    for n in range(top + 1):
        tags = []
        carriers = []
        for p in range(max(0, n - right.top_degree), min(n, left.top_degree) + 1):
            q = n - p
            for i, A in enumerate(left.module(p).carriers):
                for j, B in enumerate(right.module(q).carriers):
                    tags.append((p, i, j))
                    carriers.append(A & B)
        summands.append(tags)
        modules.append(MarkedModule(space, carriers))

    boundaries = []
    for n in range(1, top + 1):
        dom, cod = modules[n], modules[n - 1]
        entries = [[{} for _ in range(cod.rank)] for _ in range(dom.rank)]
        cod_pos = {tag: t for t, tag in enumerate(summands[n - 1])}
        for s, (p, i, j) in enumerate(summands[n]):
            q = n - p
            if p >= 1:
                dL = left.boundary(p)
                for i2 in range(dL.codomain.rank):
                    t = cod_pos.get((p - 1, i2, j))
                    if t is not None:
                        entries[s][t] = dL.entries[i][i2]
            if q >= 1:
                dR = right.boundary(q)
                sign = -1 if p % 2 else 1
                scaled = dR if sign == 1 else dR.neg()
                for j2 in range(dR.codomain.rank):
                    t = cod_pos.get((p, i, j2))
                    if t is not None:
                        entries[s][t] = scaled.entries[j][j2]
        boundaries.append(MarkedMorphism(dom, cod, entries))

    aug = None
    if left.augmentation is not None and right.augmentation is not None:
        values = []
        for (p, i, j) in summands[0]:
            vi = left.augmentation.values[i]
            vj = right.augmentation.values[j]
            # augmentation values are nonzero, so are their products
            values.append({u: vi[u] * vj[u] for u in vi.keys() & vj.keys()})
        aug = Augmentation(modules[0], values)
    return MarkedComplex(modules, boundaries, aug)


# ---------------------------------------------------------------------------
# ambient comparisons (Gromov-Hausdorff style witnesses)


@dataclass(frozen=True)
class GHWitness:
    """Two complexes embedded in shared ambient modules, degree by degree.

    ambients[r] is the shared module P_r; the assignments give the marked
    inclusions (summand i of the complex sits inside ambient summand
    assignment[i], with carrier containment).  delta bounds, per degree,
    both the carrier symmetric difference and the size of the boundary
    comparison; k bounds the comparison operator norms.
    """

    ambients: tuple
    left_assignments: tuple
    right_assignments: tuple
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

    @property
    def within(self) -> bool:
        return self.max_size < self.delta and self.max_norm <= self.k


def _comparison_map(cx: MarkedComplex, witness_side, ambients, r: int
                    ) -> MarkedMorphism:
    """phi_{r-1} o d_r o pi_{phi_r} on the ambient modules."""
    pi = marked_projection(ambients[r], cx.module(r), witness_side[r])
    iota = marked_inclusion(cx.module(r - 1), ambients[r - 1], witness_side[r - 1])
    return pi.then(cx.boundary(r)).then(iota)


def gh_verify(left: MarkedComplex, right: MarkedComplex, witness: GHWitness
              ) -> GHReport:
    """Measure the witness: carrier symmetric differences and boundary
    comparisons per degree, augmentation row collapsed."""
    if left.top_degree != right.top_degree:
        raise ValueError("ambient comparison expects equal top degrees")
    if (left.augmentation is None) != (right.augmentation is None):
        raise ValueError("either both or neither complex may be augmented")
    top = left.top_degree
    if len(witness.ambients) != top + 1:
        raise ValueError(f"{len(witness.ambients)} ambients for top degree {top}")
    space = left.space
    symdiff = []
    for r in range(top + 1):
        P = witness.ambients[r]
        # also validates carrier containments
        marked_inclusion(left.module(r), P, witness.left_assignments[r])
        marked_inclusion(right.module(r), P, witness.right_assignments[r])
        left_at = {t: left.module(r).carriers[i]
                   for i, t in enumerate(witness.left_assignments[r])}
        right_at = {t: right.module(r).carriers[j]
                    for j, t in enumerate(witness.right_assignments[r])}
        total = Fraction(0)
        for t in range(P.rank):
            S = left_at.get(t, frozenset())
            T = right_at.get(t, frozenset())
            total += measure(space, len(S ^ T))
        symdiff.append(total)

    map_sizes = []
    map_norms = []
    for r in range(1, top + 1):
        F = _comparison_map(left, witness.left_assignments, witness.ambients, r)
        G = _comparison_map(right, witness.right_assignments, witness.ambients, r)
        diff = F.sub(G)
        map_sizes.append(morphism_stats(diff).size1)
        map_norms.append(op_norm(diff))

    aug_size = aug_linf = None
    if left.augmentation is not None:
        piL = marked_projection(witness.ambients[0], left.module(0),
                                witness.left_assignments[0])
        piR = marked_projection(witness.ambients[0], right.module(0),
                                witness.right_assignments[0])
        diff = left.augmentation.after(piL).sub(right.augmentation.after(piR))
        aug_size = diff.size1()
        aug_linf = diff.linf()
    return GHReport(
        symdiff=tuple(symdiff),
        map_sizes=tuple(map_sizes),
        map_norms=tuple(map_norms),
        aug_size=aug_size,
        aug_linf=aug_linf,
        delta=witness.delta,
        k=witness.k,
    )
