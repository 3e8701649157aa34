"""Discretisation to integer chain complexes and their homology.

The coinvariants of a marked module at a level form a free abelian group
with one generator per atom (summand, point); a marked morphism becomes an
integer matrix whose column l1 norms are bounded by its operator norm,
built as sparse rows {column: value} and kept sparse through elimination.
Induced resolutions can alternatively be discretised straight from the
group ring data (one permutation block per word), giving an independent
route to the same rows.

The integer linear algebra lives here too, as one sparse elimination
kernel (Dumas, Saunders, Villard, J. Symbolic Comput. 32, 2001;
Kaczynski, Mischaikow, Mrozek, Computational Homology, 2004).  It takes
sparse rows, transposed if there are more rows than columns, since a
pivot clears its whole column.  Over Z an
incidence matrix, each column one +1 and one -1 or a single +-1, is not
eliminated at all: it is totally unimodular, so every invariant factor is
1, and the edges of a spanning forest of its graph are the unit pivots.
Most boundaries of the resolutions here are incidence matrices of Cayley
graphs: d_1 = (g_s - 1) of every family and, transposed, the genus-2 d_2
and the Koszul d_3.  Any other matrix has its pivots taken in Markowitz
order from a cost queue.  Over Z only +-1 entries are pivots, each
contributing an invariant factor 1, and the residual core, usually empty
since these matrices are very sparse with unit entries, goes to a dense
Smith loop.  Rank over Q takes every nonzero entry as a pivot and leaves
no core.  Homology needs nothing more: C_n / ker d_n embeds in the free
group C_{n-1}, so Tors H_n = Tors coker d_{n+1} and
b_n = dim C_n - rk d_n - rk d_{n+1}.  The complex is reduced from the top
boundary down, each boundary eliminated once: the generators of C_n that
d_{n+1}'s unit pivots pair off are deleted from d_n first, which leaves
the image of d_n as it was.  Betti numbers over F_p come from the same
factors by universal coefficients, with no second elimination.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Optional, Sequence

from .crossring import MarkedModule, MarkedMorphism, morphism_stats
from .complexes import MarkedComplex, check_chain_map
from .groups import FiniteQuotient, push_to_quotient

Matrix = list  # list of rows, each a list of ints


# ---------------------------------------------------------------------------
# dense integer matrices


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def to_dense(rows: list, width: int) -> Matrix:
    """The dense matrix with the given sparse rows and width."""
    return [[row.get(j, 0) for j in range(width)] for row in rows]


# ---------------------------------------------------------------------------
# elimination


def _sparse_rows(a: Matrix) -> list:
    """Row i of a as {column: value} over its nonzero entries."""
    idx = range(len(a[0])) if a else ()
    return [{j: row[j] for j in compress(idx, row)} for row in a]


def _transpose(rows: list, width: int) -> list:
    """The width sparse rows of the transpose of sparse rows."""
    out = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


def _oriented(rows: list, width: int) -> tuple:
    """The sparse rows and width, or the transpose's if there are more rows
    than columns: a pivot clears its whole column, so elimination runs
    where columns are shorter.  Rank and invariant factors are the same."""
    if len(rows) > width:
        return _transpose(rows, width), len(rows)
    return rows, width


def _forest_pivots(rows: list, width: int) -> Optional[list]:
    """Unit pivots of an incidence matrix, or None if rows is not one.

    The sparse rows are an incidence matrix when every column is empty,
    holds one +1 and one -1, or holds a single +-1: rows are vertices,
    and a column is an edge between its two rows or from its one row to a
    ground vertex.  Such a matrix is totally unimodular, so every invariant
    factor is 1 and the rank is the size of a spanning forest of the graph
    with the ground added.  The forest is grown breadth first, from the
    ground and then from each vertex not yet reached, and each tree edge
    is the pivot (child, edge).  Listed in that order, the pivots form an
    upper triangular block with diagonal +-1, since an edge's other
    nonzero lies in its parent's row, an earlier pivot or a root: the
    block is unimodular, as the pairing in homology_of_complex needs.  The
    scan stops at the first entry that rules the matrix out.
    """
    head, tail, sign = [-1] * width, [-1] * width, [0] * width
    for i, row in enumerate(rows):
        for j, v in row.items():
            if head[j] < 0:
                if v != 1 and v != -1:
                    return None
                head[j], sign[j] = i, v
            elif tail[j] < 0 and v == -sign[j]:
                tail[j] = i
            else:
                return None
    ground = len(rows)
    adjacent = [[] for _ in range(ground + 1)]
    for j, (a, b) in enumerate(zip(head, tail)):
        if a >= 0:
            if b < 0:
                b = ground
            adjacent[a].append((j, b))
            adjacent[b].append((j, a))
    seen = [False] * (ground + 1)
    pivots = []
    for root in (ground, *range(ground)):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for v in queue:  # appended to while it is read: breadth first
            for j, u in adjacent[v]:
                if not seen[u]:
                    seen[u] = True
                    pivots.append((u, j))
                    queue.append(u)
    return pivots


def _eliminate(rows: list, width: int, over_q: bool = False) -> tuple:
    """Sparse elimination over Z, or over Q if over_q, of the matrix with
    the given sparse rows (not modified) and width.

    Over Z an incidence matrix takes its pivots from a spanning forest
    (_forest_pivots) and leaves no core.  Otherwise a pivot over Z is an
    entry +-1, whose row and column unimodular row and column operations
    clear, so the matrix is equivalent to I_k + S, S the Schur complement
    left when no unit pivot remains.  Over Q every nonzero entry is a pivot
    and nothing is left; a row cleared by a pivot u other than +-1 is first
    multiplied by u (the rank stays) and then divided by the gcd of its
    entries.

    Rows are pivoted cheapest first by the Markowitz cost (row length - 1)
    * (column length - 1) of their best pivot, from a heap: a row is queued
    again whenever elimination changes it, and an older entry is still
    used while its pivot is.  Returns the pivots as (row, column) pairs,
    k of them, and S as a dense matrix over the rows and columns left.
    Over Z, on either path, the pivots' block of the matrix is unimodular.
    """
    if not over_q:
        pivots = _forest_pivots(rows, width)
        if pivots is not None:
            return pivots, []
    rows = [dict(row) for row in rows]
    cols = [set() for _ in range(width)]  # column j -> rows nonzero there
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    units_only = not over_q

    def best(row):
        """(Markowitz cost, column) of the cheapest pivot of row, or None."""
        width = len(row) - 1
        top = None
        for j, v in row.items():
            if units_only and v != 1 and v != -1:
                continue
            cost = width * (len(cols[j]) - 1)
            if top is None or cost < top[0]:
                top = (cost, j)
        return top

    heap = [(*cand, i) for i, cand in enumerate(map(best, rows)) if cand]
    heapify(heap)
    pivots = []
    while heap:
        _, c, i = heappop(heap)
        pivot_row = rows[i]
        # the row may have changed since it was queued; its entry at c
        # is still a pivot if it is nonzero (and a unit over Z)
        u = pivot_row and pivot_row.get(c)
        if not u or units_only and u != 1 and u != -1:
            continue
        rows[i] = None
        del pivot_row[c]
        scale = u != 1 and u != -1
        for j in pivot_row:
            cols[j].discard(i)
        below, cols[c] = cols[c], set()
        below.discard(i)
        for t in below:
            row = rows[t]
            f = row.pop(c)
            if scale:  # over Q: row <- u * row - f * pivot_row
                for j in row:
                    row[j] *= u
            else:
                f *= u
            for j, v in pivot_row.items():
                w = row.get(j, 0) - f * v
                if w:
                    if j not in row:
                        cols[j].add(t)
                    row[j] = w
                elif j in row:
                    del row[j]
                    cols[j].discard(t)
            if scale and row:
                g = math.gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
            cand = best(row)
            if cand is not None:
                heappush(heap, (*cand, t))
        pivots.append((i, c))
    live = [row for row in rows if row]
    if not live:
        return pivots, []
    left = [j for j in range(width) if cols[j]]
    return pivots, [[row.get(j, 0) for j in left] for row in live]


def sparse_rank(rows: list, width: int) -> int:
    """Rank over Q of the sparse rows (not modified) of the given width."""
    return len(_eliminate(*_oriented(rows, width), over_q=True)[0])


def matrix_rank(a: Matrix) -> int:
    """Rank over Q of a dense matrix."""
    return sparse_rank(_sparse_rows(a), mat_shape(a)[1])


def invariant_factors(a: Matrix) -> tuple:
    """The nonzero invariant factors d_1 | d_2 | ... of a dense matrix a.

    Each unit pivot contributes a factor 1; the dense Smith loop runs on
    the residual core only, usually empty."""
    pivots, core = _eliminate(*_oriented(_sparse_rows(a), mat_shape(a)[1]))
    return (1,) * len(pivots) + _core_invariant_factors(core)


def _core_invariant_factors(a: Matrix) -> tuple:
    """Dense Smith normal form diagonal of a; no transform is tracked.

    An entry of least absolute value clears its row and column by integer
    row and column operations; a nonzero remainder is smaller and becomes
    the next pivot.  The diagonal found this way is brought into
    divisibility order at the end: diag(x, y) ~ diag(gcd, lcm)."""
    block = [list(row) for row in a if any(row)]
    diag = []
    while block:
        v, i, j = min((abs(v), i, j) for i, row in enumerate(block)
                      for j, v in enumerate(row) if v)
        pivot_row = block[i]
        p = pivot_row[j]
        clean = True
        for t, row in enumerate(block):
            if t != i and row[j]:
                q = row[j] // p
                block[t] = row = [x - q * y for x, y in zip(row, pivot_row)]
                clean = clean and not row[j]
        for jj, x in enumerate(pivot_row):
            if jj != j and x:
                q = x // p
                for row in block:
                    row[jj] -= q * row[j]
                clean = clean and not pivot_row[jj]
        if clean:
            diag.append(v)
            del block[i]
            for row in block:
                del row[j]
            block = [row for row in block if any(row)]
    for s in range(len(diag)):
        for t in range(s + 1, len(diag)):
            g = math.gcd(diag[s], diag[t])
            diag[s], diag[t] = g, diag[s] // g * diag[t]
    return tuple(diag)


# ---------------------------------------------------------------------------
# coinvariants


def coinvariants_rank(module: MarkedModule) -> int:
    return sum(len(A) for A in module.carriers)


def _atom_positions(module: MarkedModule) -> list:
    """positions[i][u]: the index of atom (i, u) in atom order, for u in
    A_i: summand i's carrier in sorted order, after the atoms of the
    summands before it."""
    positions, offset = [], 0
    for A in module.carriers:
        index = [0] * module.space.order
        for k, u in enumerate(sorted(A), offset):
            index[u] = k
        positions.append(index)
        offset += len(A)
    return positions


def coinvariants_matrix(f: MarkedMorphism) -> list:
    """The induced map on coinvariants, as sparse rows {column: value}
    of width coinvariants_rank(f.domain), with no zero stored since f
    stores none.

    Entry at (codomain atom (j, v), domain atom (i, u)) is the sum of
    f_g^{ij}(u) over group elements g with g^{-1} u = v.  Columns have l1
    norm at most the operator norm of f.  Rows and columns are the atoms
    of the codomain and the domain in atom order, addressed by position.
    """
    cols = _atom_positions(f.domain)
    rows = _atom_positions(f.codomain)
    out = [{} for _ in range(coinvariants_rank(f.codomain))]
    for i, entry_row in enumerate(f.entries):
        col = cols[i]
        for row, entry in zip(rows, entry_row):
            for g, fn in entry.items():
                back = f.space.left_table(f.space.inv(g))
                for u, c in fn.items():
                    # supp(f_g) <= g B_j, so g^-1 u lies in the carrier;
                    # u and g^-1 u fix g, so each cell gets one term
                    out[row[back[u]]][col[u]] = c
    return out


def coinvariants_complex(cx: MarkedComplex) -> tuple[list, list]:
    """dims[r] and mats[r], the degree r+1 boundary's rows, of coinvariants."""
    dims = [coinvariants_rank(m) for m in cx.modules]
    mats = [coinvariants_matrix(cx.boundary(r))
            for r in range(1, cx.top_degree + 1)]
    return dims, mats


def shapiro_matrix(
    quotient: FiniteQuotient,
    ring_matrix: Sequence[Sequence[dict]],
    gen_images: Optional[Sequence[int]] = None,
) -> list:
    """Discretise group ring data directly: each word w contributes its
    permutation block e_u -> e_{w^-1 u}.

    Rows of ring_matrix index domain summands, so the output is |G| *
    #columns sparse rows of width |G| * #rows, with no zero stored; it
    equals the coinvariants matrix of the induced full-carrier morphism.
    """
    order = quotient.order
    cod_rank = len(ring_matrix[0]) if ring_matrix else 0
    out = [{} for _ in range(order * cod_rank)]
    for i, row in enumerate(ring_matrix):
        for j, elt in enumerate(row):
            pushed = push_to_quotient(elt, quotient, gen_images)
            for g, c in pushed.items():
                back = quotient.left_table(quotient.inv(g))
                for u in range(order):
                    # one term per cell, as in coinvariants_matrix; c != 0
                    out[j * order + back[u]][i * order + u] = c
    return out


def shapiro_complex(
    quotient: FiniteQuotient,
    ranks: Sequence[int],
    matrices: Sequence[Sequence[Sequence[dict]]],
    gen_images: Optional[Sequence[int]] = None,
) -> tuple[list, list]:
    """dims and boundary rows at the level, straight from ring data."""
    dims = [quotient.order * n for n in ranks]
    mats = [shapiro_matrix(quotient, m, gen_images) for m in matrices]
    for r, m in enumerate(mats):
        rr, cc = len(m), quotient.order * len(matrices[r])
        if rr != dims[r] or cc != dims[r + 1]:
            raise ValueError(f"matrix {r} has shape {rr}x{cc}, "
                             f"expected {dims[r]}x{dims[r + 1]}")
    return dims, mats


# ---------------------------------------------------------------------------
# homology


@dataclass(frozen=True)
class HomologyResult:
    betti: int
    torsion: tuple  # invariant factors > 1, in divisibility order
    boundary_rank: int  # rk d_{n+1}: the count of its invariant factors

    @property
    def log_torsion(self) -> float:
        return sum(math.log(d) for d in self.torsion)


def homology_of_complex(dims: Sequence[int], mats: Sequence[list]) -> tuple:
    """H_n for every degree n = 0..len(dims)-1 of a complex of free abelian
    groups, as a tuple indexed by n.

    mats[r] is the boundary d_{r+1} from degree r+1 to degree r, as dims[r]
    sparse rows {column: value} of width dims[r+1], which are not modified.
    d d = 0 is checked on those rows, then the complex is reduced from the
    top boundary down, each boundary factored once: b_n = dims[n] - rk d_n
    - rk d_{n+1}, and Tors H_n is the torsion of coker d_{n+1}, since
    C_n / ker d_n is free.

    A unit pivot of d_{n+1} pairs a generator a of C_n with a generator b
    of C_{n+1}; d_n d_{n+1} b = 0 puts d_n a in the span of d_n on the
    other generators, and the same holds in every Schur complement.  The
    pivots of a spanning forest pair off the same way all at once: with P
    their generators in C_n and Q theirs in C_{n+1}, d_n[:, P]
    d_{n+1}[P, Q] = -d_n[:, not P] d_{n+1}[not P, Q], and the block
    d_{n+1}[P, Q] is triangular with diagonal +-1, so it has an integer
    inverse.  So the columns of d_n that d_{n+1}'s unit pivots pair off
    are deleted before d_n is eliminated, which leaves its image, hence its
    rank and nonzero invariant factors, as they were.  Each boundary is
    eliminated in the orientation with the shorter columns, transposed
    when it has more live rows than live columns.
    """
    if any(len(m) != n for m, n in zip(mats, dims)):
        raise ValueError(f"boundaries do not have {list(dims)} rows")
    for r in range(1, len(mats)):
        if not _composes_to_zero(mats[r - 1], mats[r]):
            raise ValueError(
                "boundaries do not compose to zero; not a complex"
            )
    factors = [()] * len(mats)  # factors[n] belongs to d_{n+1}
    paired = set()  # generators of C_{r+1} that d_{r+2} pairs off
    for r in reversed(range(len(mats))):
        a, width = mats[r], dims[r + 1]
        if paired:
            a = [{j: v for j, v in row.items() if j not in paired}
                 for row in a]
        transposed = len(a) > width - len(paired)
        if transposed:
            a, width = _transpose(a, width), len(a)
        pivots, core = _eliminate(a, width)
        factors[r] = (1,) * len(pivots) + _core_invariant_factors(core)
        # the pivots' indices in C_r, the codomain of d_{r+1}
        paired = {p[transposed] for p in pivots}
    return homology_from_factors(dims, factors)


def homology_from_factors(dims: Sequence[int], factors: Sequence) -> tuple:
    """H_n for every degree n = 0..len(dims)-1, from factors[r], the
    nonzero invariant factors of d_{r+1}; missing ones are empty."""
    factors = list(factors) + [()] * (len(dims) - len(factors))
    rank = [0] + [len(f) for f in factors]  # rank[r] = rk d_r
    return tuple(
        HomologyResult(betti=dims[n] - rank[n] - rank[n + 1],
                       torsion=tuple(d for d in factors[n] if d > 1),
                       boundary_rank=rank[n + 1])
        for n in range(len(dims))
    )


def betti_mod_p(homology: Sequence[HomologyResult], p: int) -> tuple:
    """b_n over F_p for every degree n, from the integral homology that
    homology_of_complex returns, as a tuple indexed by n.

    By universal coefficients H_n(C; F_p) = H_n (x) F_p + Tor(H_{n-1}, F_p),
    so b_n(F_p) = b_n + t_p(H_n) + t_p(H_{n-1}), where t_p counts the
    invariant factors divisible by p; no matrix is eliminated again."""
    t = [sum(1 for d in h.torsion if d % p == 0) for h in homology]
    return tuple(h.betti + t[n] + (t[n - 1] if n else 0)
                 for n, h in enumerate(homology))


def _composes_to_zero(a: list, b: list) -> bool:
    """Whether the product of the sparse rows a and b, a as wide as b has
    rows, is zero, summed over nonzero entries only."""
    for row in a:
        acc = defaultdict(int)
        for k, v in row.items():
            for j, w in b[k].items():
                acc[j] += v * w
        if any(acc.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# retract inequalities


@dataclass(frozen=True)
class RetractReport:
    forward: object   # chain map report for f: retract -> ambient
    backward: object  # chain map report for r: ambient -> retract
    homotopy_sizes: tuple
    retract_homology: tuple
    ambient_homology: tuple

    @property
    def maps_ok(self) -> bool:
        return (
            self.forward.is_strict
            and self.backward.is_strict
            and all(s == 0 for s in self.homotopy_sizes)
        )

    @property
    def betti_ok(self) -> bool:
        return all(
            a.betti >= c.betti
            for c, a in zip(self.retract_homology, self.ambient_homology)
        )

    @property
    def torsion_ok(self) -> bool:
        return all(
            a.log_torsion >= c.log_torsion - 1e-9
            for c, a in zip(self.retract_homology, self.ambient_homology)
        )

    @property
    def ok(self) -> bool:
        return self.maps_ok and self.betti_ok and self.torsion_ok


def retract_inequality_check(
    retract_cx: MarkedComplex,
    ambient_cx: MarkedComplex,
    forward: Sequence[MarkedMorphism],
    backward: Sequence[MarkedMorphism],
    homotopies: Sequence[MarkedMorphism],
) -> RetractReport:
    """Verify that retract_cx is a homotopy retract of ambient_cx and that
    the homology of its coinvariants is dominated degreewise.

    forward: retract -> ambient, backward: ambient -> retract, both strict
    chain maps; homotopies[r]: retract_r -> retract_{r+1} must satisfy
    d h_r + h_{r-1} d = backward o forward - id exactly (no h outside
    0..top-1).  Then every H_n of the retract's coinvariants is a direct
    summand of the ambient's, so betti numbers and torsion orders are
    dominated.
    """
    top = retract_cx.top_degree
    rep_f = check_chain_map(forward, retract_cx, ambient_cx)
    rep_b = check_chain_map(backward, ambient_cx, retract_cx)

    sizes = []
    for r in range(top + 1):
        rf = forward[r].then(backward[r])
        ident = MarkedMorphism.identity(retract_cx.module(r))
        want = rf.sub(ident)
        got = MarkedMorphism.zero(retract_cx.module(r), retract_cx.module(r))
        if r <= top - 1:
            got = got.add(homotopies[r].then(retract_cx.boundary(r + 1)))
        if r >= 1:
            got = got.add(retract_cx.boundary(r).then(homotopies[r - 1]))
        sizes.append(morphism_stats(got.sub(want)).size1)

    dims_c, mats_c = coinvariants_complex(retract_cx)
    dims_a, mats_a = coinvariants_complex(ambient_cx)
    return RetractReport(
        forward=rep_f,
        backward=rep_b,
        homotopy_sizes=tuple(sizes),
        retract_homology=homology_of_complex(dims_c, mats_c),
        ambient_homology=homology_of_complex(dims_a, mats_a),
    )
