"""Discretisation to integer chain complexes and their homology.

The coinvariants of a marked module at a level form a free abelian group
with one generator per atom (summand, point); a marked morphism becomes an
integer matrix whose column l1 norms are bounded by its operator norm.
Induced resolutions can alternatively be discretised straight from the
group ring data (one permutation block per word), giving an independent
route to the same matrices.

The integer linear algebra lives here too: fraction-free rank, elimination
mod p, and the invariant factors of a matrix by diagonal elimination.
Homology needs nothing more: C_n / ker d_n embeds in the free group
C_{n-1}, so Tors H_n = Tors coker d_{n+1} and
b_n = dim C_n - rk d_n - rk d_{n+1}, and each boundary is factored once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ValueError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    out = zeros(ra, cb)
    for i in range(ra):
        row = a[i]
        acc = out[i]
        for k in range(ca):
            v = row[k]
            if v:
                brow = b[k]
                for j in range(cb):
                    acc[j] += v * brow[j]
    return out


def matrix_to_json(a: Matrix) -> dict:
    r, c = mat_shape(a)
    return {"rows": r, "cols": c, "data": [list(row) for row in a]}


def matrix_from_json(obj: dict) -> Matrix:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    if "data" in obj:
        data = [[int(v) for v in row] for row in obj["data"]]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("dense matrix data does not match rows x cols")
        return data
    out = zeros(rows, cols)
    for i, j, v in obj["entries"]:
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"entry ({i}, {j}) outside {rows}x{cols}")
        out[int(i)][int(j)] += int(v)
    return out


def matrix_rank(a: Matrix) -> int:
    """Fraction-free elimination; exact over the integers."""
    m, n = mat_shape(a)
    M = [list(map(int, row)) for row in a]
    rank = 0
    prev = 1
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                M[i][j] = (M[i][j] * M[r][c] - M[i][c] * M[r][j]) // prev
            M[i][c] = 0
        prev = M[r][c]
        rank += 1
        r += 1
        if r == m:
            break
    return rank


def rank_mod_p(a: Matrix, p: int) -> int:
    m, n = mat_shape(a)
    M = [[v % p for v in row] for row in a]
    rank = 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], p - 2, p)
        # normalise the pivot row, then clear below
        M[r] = [(v * inv) % p for v in M[r]]
        for i in range(r + 1, m):
            f = M[i][c]
            if f:
                M[i] = [(vi - f * vr) % p for vi, vr in zip(M[i], M[r])]
        rank += 1
        r += 1
        if r == m:
            break
    return rank


# ---------------------------------------------------------------------------
# invariant factors


def invariant_factors(a: Matrix) -> tuple:
    """The nonzero invariant factors d_1 | d_2 | ... of a.

    Row and column operations bring a to its Smith normal form; only the
    diagonal is kept, no transform is tracked."""
    m, n = mat_shape(a)
    D = [list(map(int, row)) for row in a]
    limit = min(m, n)
    for t in range(limit):
        # smallest nonzero entry of the remaining block as pivot
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(D[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
                    if v == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        D[t], D[pivot[0]] = D[pivot[0]], D[t]
        # rows above t are zero from column t on
        for row in D[t:]:
            row[t], row[pivot[1]] = row[pivot[1]], row[t]
        while True:
            i = next((i for i in range(t + 1, m) if D[i][t]), None)
            if i is not None:
                q = D[i][t] // D[t][t]
                D[i] = [x - q * y for x, y in zip(D[i], D[t])]
                if D[i][t]:
                    D[t], D[i] = D[i], D[t]
                continue
            j = next((j for j in range(t + 1, n) if D[t][j]), None)
            if j is not None:
                q = D[t][j] // D[t][t]
                for row in D[t:]:
                    row[j] -= q * row[t]
                if D[t][j]:
                    for row in D[t:]:
                        row[t], row[j] = row[j], row[t]
                continue
            # pivot clean; enforce divisibility of the remaining block
            p = D[t][t]
            bad = next((i for i in range(t + 1, m)
                        if any(D[i][j] % p for j in range(t + 1, n))), None)
            if bad is None:
                break
            D[t] = [x + y for x, y in zip(D[t], D[bad])]
    return tuple(abs(D[i][i]) for i in range(limit) if D[i][i])


def cokernel_log_torsion(a: Matrix) -> float:
    """log of the torsion order of coker(a)."""
    return sum(math.log(d) for d in invariant_factors(a) if d > 1)


# ---------------------------------------------------------------------------
# coinvariants


def coinv_basis(module: MarkedModule) -> list:
    """Atoms (summand, point) in storage order; one Z generator each."""
    return list(module.atoms())


def coinvariants_rank(module: MarkedModule) -> int:
    return sum(len(A) for A in module.carriers)


def coinvariants_matrix(f: MarkedMorphism) -> Matrix:
    """The induced map on coinvariants.

    Entry at (codomain atom (j, v), domain atom (i, u)) is the sum of
    f_g^{ij}(u) over group elements g with g^{-1} u = v.  Columns have l1
    norm at most the operator norm of f.
    """
    space = f.space
    q = space.quotient
    dom = coinv_basis(f.domain)
    cod = coinv_basis(f.codomain)
    col_index = {atom: k for k, atom in enumerate(dom)}
    row_index = {atom: k for k, atom in enumerate(cod)}
    out = zeros(len(cod), len(dom))
    for i in range(f.domain.rank):
        for j in range(f.codomain.rank):
            for g, fn in f.entries[i][j].items():
                back = q.left_table(q.inv(g))
                for u, c in fn.items():
                    # supp(f_g) <= g B_j, so g^-1 u lies in the carrier
                    out[row_index[(j, back[u])]][col_index[(i, u)]] += c
    return out


def coinvariants_complex(cx: MarkedComplex) -> tuple[list, list]:
    """dims[r] and matrices[r] (the degree r+1 boundary) of coinvariants."""
    dims = [coinvariants_rank(m) for m in cx.modules]
    mats = [coinvariants_matrix(cx.boundary(r))
            for r in range(1, cx.top_degree + 1)]
    return dims, mats


def shapiro_matrix(
    quotient: FiniteQuotient,
    ring_matrix: Sequence[Sequence[dict]],
    gen_images: Optional[Sequence[int]] = None,
) -> Matrix:
    """Discretise group ring data directly: each word w contributes its
    permutation block e_u -> e_{w^-1 u}.

    Rows of ring_matrix index domain summands, so the output has shape
    (|G| * #columns) x (|G| * #rows); it equals the coinvariants matrix of
    the induced full-carrier morphism.
    """
    order = quotient.order
    dom_rank = len(ring_matrix)
    cod_rank = len(ring_matrix[0]) if dom_rank else 0
    out = zeros(order * cod_rank, order * dom_rank)
    for i, row in enumerate(ring_matrix):
        for j, elt in enumerate(row):
            pushed = push_to_quotient(elt, quotient, gen_images)
            for g, c in pushed.items():
                back = quotient.left_table(quotient.inv(g))
                for u in range(order):
                    out[j * order + back[u]][i * order + u] += c
    return out


def shapiro_complex(
    quotient: FiniteQuotient,
    ranks: Sequence[int],
    matrices: Sequence[Sequence[Sequence[dict]]],
    gen_images: Optional[Sequence[int]] = None,
) -> tuple[list, list]:
    """dims and boundary matrices at the level, straight from ring data."""
    dims = [quotient.order * n for n in ranks]
    mats = [shapiro_matrix(quotient, m, gen_images) for m in matrices]
    for r, m in enumerate(mats):
        rr, cc = mat_shape(m)
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

    @property
    def log_torsion(self) -> float:
        return sum(math.log(d) for d in self.torsion)

    @property
    def torsion_free(self) -> bool:
        return not self.torsion


def homology_of_complex(dims: Sequence[int], mats: Sequence[Matrix]) -> tuple:
    """H_n for every degree n = 0..len(dims)-1 of a complex of free abelian
    groups, as a tuple indexed by n.

    mats[r] is the boundary d_{r+1} from degree r+1 to degree r.  Each is
    factored once: b_n = dims[n] - rk d_n - rk d_{n+1}, and Tors H_n is
    the torsion of coker d_{n+1}, since C_n / ker d_n is free.
    """
    for r in range(1, len(mats)):
        # a matrix without rows has no width to check and composes to zero
        if mats[r - 1] and mats[r] and any(
                map(any, mat_mul(mats[r - 1], mats[r]))):
            raise ValueError(
                "boundaries do not compose to zero; not a complex"
            )
    # factors[n] belongs to d_{n+1}; no boundary maps into the top degree
    factors = [invariant_factors(m) for m in mats]
    factors += [()] * (len(dims) - len(mats))
    rank = [0] + [len(f) for f in factors]  # rank[r] = rk d_r
    return tuple(
        HomologyResult(betti=dims[n] - rank[n] - rank[n + 1],
                       torsion=tuple(d for d in factors[n] if d > 1))
        for n in range(len(dims))
    )


def betti_mod_p(dims: Sequence[int], mats: Sequence[Matrix], n: int, p: int
                ) -> int:
    rank_out = rank_mod_p(mats[n - 1], p) if n >= 1 else 0
    rank_in = rank_mod_p(mats[n], p) if n < len(mats) else 0
    return dims[n] - rank_out - rank_in


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
