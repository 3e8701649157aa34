"""Concrete families: resolutions and Rokhlin complexes.

Resolution data is kept at the group ring level (ranks plus matrices of
word-coefficient dictionaries) so one description can be induced at every
finite level.  The other constructions live at a fixed level: the
two-term complex attached to a Rokhlin tile of Z/M, and the chain homotopy
equivalence between that complex and the induced resolution of the
integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .groups import (
    FiniteQuotient,
    Word,
    fox_derivative,
    reduce_word,
)
from .crossring import (
    Augmentation,
    MarkedModule,
    MarkedMorphism,
    celt_add,
    celt_indicator,
    celt_mul,
    celt_sub,
    op_norm,
)
from .complexes import MarkedComplex


def _gen(k: int, e: int = 1) -> Word:
    return ((k, e),) if e else ()


def _gm1(k: int) -> dict:
    return {_gen(k): 1, (): -1}


# ---------------------------------------------------------------------------
# resolution data over group rings

# Free generators of a resolution summed over its degrees.  Every level
# multiplies them by |G|, so a larger resolution is refused before it is
# built.
MAX_GENERATORS = 128


def _check_size(total: int) -> None:
    if total > MAX_GENERATORS:
        raise ValueError(f"resolution has {total} generators over all "
                         f"degrees, above the cap {MAX_GENERATORS}")


def resolution_free(rank: int):
    """Free group on ``rank`` letters: 0 -> R^rank -> R -> Z -> 0."""
    if rank < 1:
        raise ValueError("free resolution needs at least one generator")
    _check_size(1 + rank)
    return [1, rank], [[[_gm1(k)] for k in range(rank)]]


def resolution_integers():
    return resolution_free(1)


def surface_relator(genus: int) -> Word:
    """Product of commutators [x_0, x_1]...[x_{2g-2}, x_{2g-1}]."""
    raw = []
    for i in range(genus):
        a, b = 2 * i, 2 * i + 1
        raw += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return reduce_word(tuple(raw))


def resolution_surface(genus: int):
    """Closed orientable surface group: ranks (1, 2g, 1), top boundary the
    free derivatives of the relator."""
    if genus < 1:
        raise ValueError("surface resolution needs genus >= 1")
    _check_size(2 + 2 * genus)
    rel = surface_relator(genus)
    d1 = [[_gm1(k)] for k in range(2 * genus)]
    d2 = [[fox_derivative(rel, k) for k in range(2 * genus)]]
    return [1, 2 * genus, 1], [d1, d2]


def resolution_free_abelian(dim: int):
    """Koszul resolution of Z^dim; rank C(dim, r) in degree r.

    The boundaries square to zero only once the generator images commute,
    which holds at every level of an abelian quotient.
    """
    if dim < 1:
        raise ValueError("free abelian resolution needs dimension >= 1")
    # 2^dim generators; the exponent is clipped so a huge dim costs nothing
    _check_size(2 ** min(dim, MAX_GENERATORS.bit_length()))
    return koszul_complex([_gm1(k) for k in range(dim)])


def koszul_complex(elements: Sequence[dict]):
    """Koszul complex of group ring elements x_0..x_{k-1}: rank C(k, r) in
    degree r, one basis vector e_s per r-subset s, and d e_s the sum over
    the positions p of s of (-1)^p x_{s_p} e_{s minus s_p}.

    The boundaries square to zero once the x_k commute at the level, as
    polynomials in one word do in every quotient.
    """
    dim = len(elements)
    ranks = []
    subsets = []
    for r in range(dim + 1):
        subs = [tuple(s) for s in combinations(range(dim), r)]
        subsets.append({s: k for k, s in enumerate(subs)})
        ranks.append(len(subs))
    matrices = []
    for r in range(1, dim + 1):
        rows = []
        for s in sorted(subsets[r], key=subsets[r].get):
            row = [{} for _ in range(ranks[r - 1])]
            for pos, k in enumerate(s):
                off = tuple(x for x in s if x != k)
                coeff = 1 if pos % 2 == 0 else -1
                row[subsets[r - 1][off]] = {
                    w: coeff * c for w, c in elements[k].items()}
            rows.append(row)
        matrices.append(rows)
    return ranks, matrices


def resolution_by_name(family: str, param: Optional[int] = None):
    if family == "free":
        return resolution_free(2 if param is None else param)
    if family == "surface":
        return resolution_surface(2 if param is None else param)
    if family == "integers":
        if param is not None:
            raise ValueError("the integers family takes no param, "
                             f"got {param!r}")
        return resolution_integers()
    if family == "free_abelian":
        return resolution_free_abelian(2 if param is None else param)
    raise ValueError(f"unknown resolution family {family!r}")


# ---------------------------------------------------------------------------
# Rokhlin complexes for Z at level Z/M


@dataclass(frozen=True)
class RokhlinResult:
    complex: MarkedComplex
    witness: tuple
    modulus: int
    tile: int
    base: frozenset       # residues 0, N, ..., (q-1)N
    remainder: frozenset  # residues qN .. M-1
    point: tuple          # point[r] = element index of t^r

    @property
    def carrier(self) -> frozenset:
        return self.base | self.remainder

    @property
    def dim(self) -> Fraction:
        return self.complex.module(0).dim()

    @property
    def boundary_norm(self) -> int:
        return op_norm(self.complex.boundary(1))


def _residue_points(quotient: FiniteQuotient):
    t = quotient.generator_images[0]
    return tuple(quotient.power(t, r) for r in range(quotient.order))


def _shifted(point: tuple, points: frozenset, shift: int) -> frozenset:
    """t^shift points, where point[r] is the element index of t^r."""
    M = len(point)
    return frozenset(point[(r + shift) % M]
                     for r in range(M) if point[r] in points)


def rokhlin_partition(modulus: int, tile: int) -> RokhlinResult:
    """The two-term complex of the tile {0, N, ..., (q-1)N} in Z/M.

    Both modules sit on C = A u B where A is the tile base and B the
    ragged top; the witness x = sum_{j<N} (chi_{t^j A}, t^j) + (chi_B, e)
    has eta(x) = 1 exactly and the boundary has operator norm 2.
    """
    M, N = modulus, tile
    if not 1 <= N <= M:
        raise ValueError("need 1 <= tile <= modulus")
    space = FiniteQuotient.abelian([M])
    point = _residue_points(space)
    q = M // N
    base = frozenset(point[j * N] for j in range(q))
    remainder = frozenset(point[k] for k in range(q * N, M))
    carrier = base | remainder
    module = MarkedModule(space, [carrier])
    aug = Augmentation(module, [dict.fromkeys(carrier, 1)])

    x = {}
    for j in range(N):
        x = celt_add(x, celt_indicator(_shifted(point, base, j), point[j]))
    x = celt_add(x, celt_indicator(remainder))

    tile_top = _shifted(point, base, N)      # t^N A
    rem_up = _shifted(point, remainder, 1)   # t B
    entry = celt_indicator(carrier)
    entry = celt_sub(entry, celt_indicator(tile_top, point[N % M]))
    entry = celt_sub(entry, celt_indicator(rem_up, point[1 % M]))
    boundary = MarkedMorphism(module, module, [[entry]])
    cx = MarkedComplex([module, module], [boundary], aug)
    return RokhlinResult(
        complex=cx,
        witness=(x,),
        modulus=M,
        tile=N,
        base=base,
        remainder=remainder,
        point=point,
    )


# --- contraction of the lifted complex, exponents kept in Z ---------------


def tower_mul(modulus: int, x: dict, y: dict) -> dict:
    """Product of sums of (residue, exponent) basis elements: (u, m)(v, k)
    is (u, m + k) when u = m + v mod M and zero otherwise."""
    out = {}
    for (u, m), c in x.items():
        for (v, k), d in y.items():
            if u == (m + v) % modulus:
                key = (u, m + k)
                val = out.get(key, 0) + c * d
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
    return out


def _rokhlin_residues(modulus: int, tile: int):
    q = modulus // tile
    base = {j * tile for j in range(q)}
    rem = set(range(q * tile, modulus))
    return base, rem


def rokhlin_tower_boundary(modulus: int, tile: int) -> dict:
    base, rem = _rokhlin_residues(modulus, tile)
    out = {(u, 0): 1 for u in base | rem}
    for a in base:
        out[((a + tile) % modulus, tile)] = -1
    for b in rem:
        out[((b + 1) % modulus, 1)] = out.get(((b + 1) % modulus, 1), 0) - 1
    return {k: v for k, v in out.items() if v}


def tower_contract(modulus: int, tile: int, elt: dict) -> dict:
    """c_0: on a basis element (u, m) of the lifted degree-0 module, minus
    the sum of (u, j) over 0 <= j < m with u in t^j C, and the mirrored
    positive sum for negative m."""
    base, rem = _rokhlin_residues(modulus, tile)
    carrier = base | rem
    out = {}
    for (u, m), c in elt.items():
        span = range(0, m) if m >= 0 else range(m, 0)
        sign = -1 if m >= 0 else 1
        for j in span:
            if (u - j) % modulus in carrier:
                key = (u, j)
                val = out.get(key, 0) + sign * c
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
    return out


def rokhlin_tower_contraction(modulus: int, tile: int) -> bool:
    """Check c_0 o d_1 = id on lifted basis elements with exponents
    |m| <= min(2M, 24) (the identity is exponent-uniform, the window is a
    probe)."""
    half = min(2 * modulus, 24)
    base, rem = _rokhlin_residues(modulus, tile)
    carrier = base | rem
    s_d = rokhlin_tower_boundary(modulus, tile)
    for m in range(-half, half + 1):
        for c_res in carrier:
            u = (c_res + m) % modulus
            z = {(u, m): 1}
            if tower_contract(modulus, tile, tower_mul(modulus, z, s_d)) != z:
                return False
    return True


def rokhlin_level_contraction(result: RokhlinResult) -> bool:
    """Check d_1 o c_0 = id - c_{-1} o eta at the level, with exponents
    read from the canonical representatives 0 <= m < M."""
    M = result.modulus
    space = result.complex.space
    point = result.point
    exponent = {point[m]: m for m in range(M)}
    carrier = result.carrier
    shifts = [frozenset(point[(exponent[p] + j) % M] for p in carrier)
              for j in range(M)]
    x = result.witness[0]
    d1 = result.complex.boundary(1)
    aug = result.complex.augmentation

    def c0(celt):
        out = {}
        for g, fn in celt.items():
            m = exponent[g]
            for u, c in fn.items():
                for j in range(m):
                    if u in shifts[j]:
                        out = celt_add(out, {point[j]: {u: -c}})
        return out

    for m in range(M):
        g = point[m]
        for u in shifts[m]:
            z = {g: {u: 1}}
            lhs = d1.apply((c0(z),))[0]
            eta = aug.apply((z,))
            rhs = celt_sub(z, celt_mul(space, {0: eta}, x))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# the induced resolution of Z as a homotopy retract of a Rokhlin complex


@dataclass(frozen=True)
class EmbeddingResult:
    source: MarkedComplex   # induced resolution of Z, full carriers
    rokhlin: RokhlinResult  # the tile whose complex is the target
    forward: tuple          # f_r: source_r -> target_r
    backward: tuple         # r_r: target_r -> source_r
    homotopies: tuple       # h_0: source_0 -> source_1

    @property
    def target(self) -> MarkedComplex:
        return self.rokhlin.complex

    @property
    def norms(self) -> dict:
        return {
            "f0": op_norm(self.forward[0]),
            "f1": op_norm(self.forward[1]),
            "r0": op_norm(self.backward[0]),
            "r1": op_norm(self.backward[1]),
            "h0": op_norm(self.homotopies[0]),
        }


def integers_embedding(rok: RokhlinResult) -> EmbeddingResult:
    """Chain maps both ways between the induced resolution of Z at Z/M and
    the Rokhlin complex rok of a tile, with a homotopy making the induced
    resolution a retract.  Norms stay bounded by the tile: f, r0 by 1, r1
    by N and h0 by N - 1.
    """
    M, N = rok.modulus, rok.tile
    space = rok.complex.space
    point = rok.point
    # resolution of Z with the degree-1 generator oriented so that
    # d_1 = 1 - t; this matches the sign of the Rokhlin boundary
    full = MarkedModule.full(space, 1)
    d_entry = celt_sub(celt_indicator(range(M)),
                       celt_indicator(range(M), point[1 % M]))
    source = MarkedComplex(
        [full, full],
        [MarkedMorphism(full, full, [[d_entry]])],
        Augmentation(full, [dict.fromkeys(range(M), 1)]),
    )

    tile_top = _shifted(point, rok.base, N)      # t^N A
    rem_up = _shifted(point, rok.remainder, 1)   # t B

    f0 = MarkedMorphism(source.module(0), rok.complex.module(0),
                        [[rok.witness[0]]])
    f1 = MarkedMorphism(source.module(1), rok.complex.module(1),
                        [[celt_indicator(rok.carrier)]])
    r0 = MarkedMorphism(rok.complex.module(0), source.module(0),
                        [[celt_indicator(rok.carrier)]])
    x_tilde = {}
    for j in range(N):
        x_tilde = celt_add(x_tilde, celt_indicator(tile_top, point[j]))
    x_tilde = celt_add(x_tilde, celt_indicator(rem_up))
    r1 = MarkedMorphism(rok.complex.module(1), source.module(1), [[x_tilde]])
    h_entry = {}
    for j in range(N):
        piece = _shifted(point, rok.base, j)
        for k in range(j):
            h_entry = celt_sub(h_entry, celt_indicator(piece, point[k]))
    h0 = MarkedMorphism(source.module(0), source.module(1), [[h_entry]])
    return EmbeddingResult(
        source=source,
        rokhlin=rok,
        forward=(f0, f1),
        backward=(r0, r1),
        homotopies=(h0,),
    )
