"""Log-norm bounds for torsion growth.

A partition of the domain atoms of a morphism gives the bound

    sum over blocks of  min(dim block, rank of f on block) * log+ |f on block|

normalised by the group order.  The block norm is the largest l1 mass of
an atom image, the block rank is the integer rank of the corresponding
columns of the coinvariants matrix, and log+ x = max(0, log x).  The value
of a block depends only on its atom set, so the best bound over all
decompositions is a minimum over set partitions; atoms with zero norm
contribute nothing and are kept out of the search.

For plain integer matrices the same game is played on columns: the exact
torsion of the cokernel (from its invariant factors: unit-pivot reduction
plus a dense Smith form of the residual core) is dominated by the greedy
column bound (sum of log column norms over a rationally spanning subset,
cheapest columns first), which in turn is dominated by the one-block
split bound.  Ranks come from the same sparse elimination, taken over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .crossring import MarkedMorphism, atom_norms
from .discretize import (
    _transpose,
    coinvariants_matrix,
    coinvariants_rank,
    invariant_factors,
    mat_shape,
    matrix_rank,
    sparse_rank,
)

LOG_SLACK = 1e-9
EXACT_ATOM_CAP = 10


def log_plus(x) -> float:
    return math.log(x) if x > 1 else 0.0


class _BlockContext:
    """Shared data for evaluating blocks of one morphism, with caching.

    rank, when given, is the rank over Q of coinvariants_matrix(f).  A
    block holding every atom of nonzero norm holds every nonzero column
    of that matrix, so it takes this rank as is; the columns are built
    only when some other block needs an elimination."""

    def __init__(self, f: MarkedMorphism, rank: Optional[int] = None):
        self.f = f
        self.order = f.space.order
        self.norms = atom_norms(f)
        self.live = frozenset(a for a, n in self.norms.items() if n)
        self.rank = rank
        self._columns = None
        self._cache = {}

    def block_rank(self, key: frozenset) -> int:
        if self.rank is not None and key >= self.live:
            return self.rank
        if self._columns is None:
            # a block's rank is that of its columns, so keep them as rows
            columns = _transpose(coinvariants_matrix(self.f),
                                 coinvariants_rank(self.f.domain))
            self._columns = dict(zip(self.f.domain.atoms(), columns))
        return sparse_rank([self._columns[a] for a in key],
                           coinvariants_rank(self.f.codomain))

    def value(self, block) -> float:
        key = frozenset(block)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        norm = max((self.norms[a] for a in key), default=0)
        if norm <= 1:
            self._cache[key] = 0.0
            return 0.0
        weight = Fraction(min(len(key), self.block_rank(key)), self.order)
        val = float(weight) * math.log(norm)
        self._cache[key] = val
        return val

    def total(self, blocks) -> float:
        return sum(self.value(b) for b in blocks)


def _atoms_blocks(ctx: _BlockContext) -> list:
    by_norm = {}
    for atom, n in ctx.norms.items():
        if n:
            by_norm.setdefault(n, []).append(atom)
    return [sorted(v) for _, v in sorted(by_norm.items())]


def _greedy_blocks(ctx: _BlockContext) -> list:
    blocks = [frozenset(b) for b in _atoms_blocks(ctx)]
    while len(blocks) > 1:
        best = None
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                merged = blocks[i] | blocks[j]
                gain = (ctx.value(merged)
                        - ctx.value(blocks[i]) - ctx.value(blocks[j]))
                if gain < -1e-12 and (best is None or gain < best[0]):
                    best = (gain, i, j, merged)
        if best is None:
            break
        _, i, j, merged = best
        blocks = [b for k, b in enumerate(blocks) if k not in (i, j)]
        blocks.append(merged)
    return [sorted(b) for b in blocks]


def set_partitions(items: Sequence):
    """All partitions of items into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part


def lognorm_certificate(
    f: MarkedMorphism,
    strategy: str = "greedy",
    rank: Optional[int] = None,
) -> tuple:
    """Value plus the decomposition realising it, for audit output.

    Blocks are lists of (summand, point) atoms; atoms of zero norm are
    left out, they never contribute.  rank, when the caller already has
    it, is the rank over Q of coinvariants_matrix(f); it saves the
    elimination of any block that covers every atom of nonzero norm.
    """
    ctx = _BlockContext(f, rank)
    live = sorted(ctx.live)
    if not live:
        return 0.0, []
    if strategy == "block":
        return ctx.value(live), [list(live)]
    if strategy == "atoms":
        blocks = _atoms_blocks(ctx)
        return ctx.total(blocks), blocks
    if strategy == "greedy":
        blocks = _greedy_blocks(ctx)
        total = ctx.total(blocks)
        single = ctx.value(live)
        if single < total:
            return single, [list(live)]
        return total, blocks
    if strategy == "exact":
        if len(live) > EXACT_ATOM_CAP:
            raise ValueError(
                f"{len(live)} atoms exceed the exhaustive cap {EXACT_ATOM_CAP}"
            )
        best_val, best_blocks = None, None
        for part in set_partitions(live):
            val = ctx.total(part)
            if best_val is None or val < best_val:
                best_val, best_blocks = val, part
        return best_val, best_blocks
    raise ValueError(f"unknown strategy {strategy!r}")


def lognorm_upper(
    f: MarkedMorphism,
    strategy: str = "greedy",
    rank: Optional[int] = None,
) -> float:
    """Upper bound for the log-norm of f by the named search strategy.

    Every returned value is realised by some decomposition, so the chain
    exact <= greedy <= atoms and exact <= block always holds.  rank is as
    in lognorm_certificate.
    """
    return lognorm_certificate(f, strategy, rank)[0]


def lognorm_exact(f: MarkedMorphism) -> float:
    return lognorm_upper(f, "exact")


# ---------------------------------------------------------------------------
# integer matrix bounds


def column_l1s(a) -> list:
    return [sum(map(abs, col)) for col in zip(*a)]


def gabber_column_bound(a) -> float:
    """Sum of log column norms over a cheap rationally spanning subset.

    Columns are tried in order of ascending l1 norm and kept when they
    grow the rank, so the chosen set spans the image over Q and the
    torsion of the cokernel divides the product of the kept norms.  The
    kept columns are held as a fraction-free echelon basis, each vector
    with its pivot position and divided by the gcd of its entries; a
    candidate grows the rank when it does not reduce to zero against it.
    """
    rows, cols = mat_shape(a)
    columns = list(zip(*a))
    norms = column_l1s(a)
    order = sorted(range(cols), key=lambda j: (norms[j], j))
    basis = []  # (pivot, vector): zero at the pivots of earlier vectors
    total = 0.0
    for j in order:
        if not norms[j]:
            continue
        v = list(columns[j])
        for piv, b in basis:
            if v[piv]:
                x, y = b[piv], v[piv]
                v = [x * vi - y * bi for vi, bi in zip(v, b)]
                g = math.gcd(*v)
                if not g:
                    break
                v = [vi // g for vi in v]
        if any(v):
            basis.append((next(i for i, vi in enumerate(v) if vi), v))
            total += log_plus(norms[j])
            if len(basis) == min(rows, cols):
                break
    return total


def gabber_split_bound(a) -> float:
    """One-block bound min(columns, rank) * log+ (max column norm).

    It dominates the greedy column bound, which in turn dominates the
    exact cokernel torsion.
    """
    cols = mat_shape(a)[1]
    peak = max(column_l1s(a), default=0)
    if peak <= 1:
        return 0.0
    return min(cols, matrix_rank(list(zip(*a)))) * math.log(peak)


def gabber_exact(a) -> float:
    """Exact log torsion of the cokernel, from its invariant factors."""
    return sum(math.log(d) for d in invariant_factors(a) if d > 1)
