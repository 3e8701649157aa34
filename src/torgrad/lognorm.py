"""Log-norm bounds for torsion growth.

Every function here reads integer matrices; none sees a marked morphism.
The bound of a morphism is read from its coinvariants matrix, sparse rows
that the caller builds (``discretize.coinvariants_matrix``, or the
gradient's Shapiro rows), and |G|.  A partition of its columns, the domain
atoms, gives the bound

    sum over blocks of  min(dim block, rank of block) * log+ |block|

normalised by |G|.  The block norm is the largest l1 norm of a column of
the block (each cell gets one term, so that is the l1 mass of the atom's
image), the block rank is the integer rank of its columns (never more
than their number, so the min is the rank), and log+ x = max(0, log x).
The value of a block depends only on its column set, so the best bound
over all decompositions is a minimum over set partitions; columns with
zero norm contribute nothing and are kept out of the search.

For plain integer matrices the same game is played on columns: the exact
torsion of the cokernel (from its invariant factors: unit-pivot reduction
plus a dense Smith form of the residual core) is dominated by the greedy
column bound (sum of log column norms over a rationally spanning subset,
cheapest columns first), which in turn is dominated by the one-block
split bound.  The split bound takes its rank from the factorisation that
gives the exact torsion: the rank over Q is the number of nonzero
invariant factors.  Block ranks of a coinvariants matrix come from the
sparse elimination, taken over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .discretize import _transpose, invariant_factors, mat_shape, sparse_rank

LOG_SLACK = 1e-9
EXACT_ATOM_CAP = 10
# the search strategies of lognorm_rows, in the order the CLI lists them
STRATEGIES = ("atoms", "greedy", "exact", "block")


def log_plus(x) -> float:
    return math.log(x) if x > 1 else 0.0


class _BlockContext:
    """Shared data for evaluating blocks of one coinvariants matrix, with
    caching.  A block is a sorted tuple of live column positions (those of
    nonzero norm), which is also its cache key.  rank, when given, is the
    rank over Q of the rows: a block of every live column holds every
    nonzero column, so it takes this rank as is, and the columns are built
    only when some other block needs an elimination."""

    def __init__(self, rows: list, width: int, order: int,
                 rank: Optional[int]):
        norms = self.norms = [0] * width
        for row in rows:
            for k, v in row.items():
                norms[k] += abs(v)
        self.live = tuple(k for k, n in enumerate(norms) if n)
        self.rows, self.order, self.rank = rows, order, rank
        self._columns = None
        self._cache = {}

    def block_rank(self, block: tuple) -> int:
        if self.rank is not None and len(block) == len(self.live):
            return self.rank
        if self._columns is None:
            # a block's rank is that of its columns, so keep them as rows
            self._columns = _transpose(self.rows, len(self.norms))
        return sparse_rank([self._columns[k] for k in block], len(self.rows))

    def value(self, block: tuple) -> float:
        hit = self._cache.get(block)
        if hit is not None:
            return hit
        norm = max(self.norms[k] for k in block)
        val = 0.0
        if norm > 1:
            val = (float(Fraction(self.block_rank(block), self.order))
                   * math.log(norm))
        self._cache[block] = val
        return val

    def total(self, blocks) -> float:
        return sum(self.value(b) for b in blocks)


def _atoms_blocks(ctx: _BlockContext) -> list:
    by_norm = {}
    for k in ctx.live:
        by_norm.setdefault(ctx.norms[k], []).append(k)
    return [tuple(v) for _, v in sorted(by_norm.items())]


def _greedy_blocks(ctx: _BlockContext) -> list:
    blocks = _atoms_blocks(ctx)
    while len(blocks) > 1:
        best = None
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                merged = tuple(sorted(blocks[i] + blocks[j]))
                gain = (ctx.value(merged)
                        - ctx.value(blocks[i]) - ctx.value(blocks[j]))
                if gain < -1e-12 and (best is None or gain < best[0]):
                    best = (gain, i, j, merged)
        if best is None:
            break
        _, i, j, merged = best
        blocks = [b for k, b in enumerate(blocks) if k not in (i, j)]
        blocks.append(merged)
    return blocks


def set_partitions(items: Sequence):
    """All partitions of items into nonempty tuple blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [(first,) + part[k]] + part[k + 1:]
        yield [(first,)] + part


def _search(ctx: _BlockContext, strategy: str) -> tuple:
    """The bound by the named search strategy over ctx, and the partition
    realising it."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    live = ctx.live
    if not live:
        return 0.0, []
    if strategy == "block":
        return ctx.value(live), [live]
    if strategy == "atoms":
        blocks = _atoms_blocks(ctx)
        return ctx.total(blocks), blocks
    if strategy == "greedy":
        blocks = _greedy_blocks(ctx)
        total = ctx.total(blocks)
        single = ctx.value(live)
        if single < total:
            return single, [live]
        return total, blocks
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


def lognorm_rows(rows: list, width: int, order: int, strategy: str,
                 rank: Optional[int] = None) -> tuple:
    """The bound by the named search strategy of a coinvariants matrix,
    sparse rows of the given width over a level of the given order, and
    the partition realising it, so exact <= greedy <= atoms and exact <=
    block always holds.

    Blocks are sorted tuples of column positions; columns of zero norm are
    left out, they never contribute.  rank, when the caller already has
    it, is the rank over Q of the rows; it saves the elimination of any
    block that covers every column of nonzero norm.
    """
    return _search(_BlockContext(rows, width, order, rank), strategy)


def lognorm_values(rows: list, width: int, order: int,
                   strategies: Sequence[str]) -> list:
    """lognorm_rows(rows, width, order, s)[0] for each named strategy s in
    turn, searched over one block cache: a block's value depends on its
    columns only, so a block that several strategies rank is evaluated
    once and every value, tie and partition is unchanged."""
    ctx = _BlockContext(rows, width, order, None)
    return [_search(ctx, strategy)[0] for strategy in strategies]


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


def gabber_bounds(a) -> tuple:
    """(exact, column, split) for the integer matrix a, each dominating
    the one before: the exact log torsion of the cokernel, the greedy
    column bound, and the one-block bound rank * log+ (max column norm).

    One factorisation gives both the exact torsion and the split bound's
    rank over Q, the number of nonzero invariant factors.
    """
    factors = invariant_factors(a)
    peak = max(column_l1s(a), default=0)
    split = len(factors) * math.log(peak) if peak > 1 else 0.0
    torsion = sum(math.log(d) for d in factors if d > 1)
    return torsion, gabber_column_bound(a), split
