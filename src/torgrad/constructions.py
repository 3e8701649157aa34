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
    Presentation,
    Word,
    fox_derivative,
    reduce_word,
)
from .crossring import (
    Augmentation,
    MarkedModule,
    MarkedMorphism,
    _celt_add_into,
    _mul_into,
    celt_indicator,
    celt_mul,
    celt_sub,
    op_norm,
)
from .complexes import MarkedComplex, induce_resolution


def _gm1(k: int) -> dict:
    return {((k, 1),): 1, (): -1}


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


def surface_relator(genus: int) -> Word:
    """Product of commutators [x_0, x_1]...[x_{2g-2}, x_{2g-1}]."""
    return reduce_word(pair for a in range(0, 2 * genus, 2)
                       for pair in ((a, 1), (a + 1, 1), (a, -1), (a + 1, -1)))


def family_presentation(family: str,
                        param: Optional[int] = None) -> Presentation:
    """Free of rank param (integers: rank 1), the genus param surface
    group, or Z^param with the pairwise commutators; param defaults to 2.
    The resolution's size is checked before any word is built."""
    if family == "integers" and param is not None:
        raise ValueError(f"the integers family takes no param, got {param!r}")
    n = 1 if family == "integers" else 2 if param is None else param
    if family in ("free", "integers"):
        if n < 1:
            raise ValueError("free resolution needs at least one generator")
        _check_size(1 + n)
        return Presentation(n, ())
    if family == "surface":
        if n < 1:
            raise ValueError("surface resolution needs genus >= 1")
        _check_size(2 + 2 * n)
        return Presentation(2 * n, (surface_relator(n),))
    if family == "free_abelian":
        if n < 1:
            raise ValueError("free abelian resolution needs dimension >= 1")
        # 2^n generators; the exponent is clipped so a huge n costs nothing
        _check_size(2 ** min(n, MAX_GENERATORS.bit_length()))
        return Presentation(n, (((i, 1), (j, 1), (i, -1), (j, -1))
                                for i, j in combinations(range(n), 2)))
    raise ValueError(f"unknown resolution family {family!r}")


def presentation_resolution(pres: Presentation):
    """Chain complex of the presentation complex, a resolution for the
    free and surface families: ranks (1, k[, #relators]), d_1 the column
    of x_k - 1, d_2 the Fox derivatives, one row per relator."""
    k = pres.num_generators
    d1 = [[_gm1(j)] for j in range(k)]
    if not pres.relators:
        return [1, k], [d1]
    d2 = [[fox_derivative(r, j) for j in range(k)] for r in pres.relators]
    return [1, k, len(pres.relators)], [d1, d2]


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
    """(ranks, matrices) of a named family: Koszul for free_abelian, whose
    presentation complex is no resolution above dimension 2."""
    pres = family_presentation(family, param)
    if family == "free_abelian":
        return koszul_complex([_gm1(k) for k in range(pres.num_generators)])
    return presentation_resolution(pres)


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
    """point[r] = t^r for 0 <= r < |G|, each found from the last by one
    step of t's left table."""
    step = quotient.left_table(quotient.generator_images[0])
    point = [quotient.identity]
    for _ in range(1, quotient.order):
        point.append(step[point[-1]])
    return tuple(point)


def _tile_points(point: tuple, residues, shift: int = 0) -> frozenset:
    """t^shift t^R for the residues R, point[r] the element index of t^r."""
    M = len(point)
    return frozenset(point[(r + shift) % M] for r in residues)


def rokhlin_partition(modulus: int, tile: int) -> RokhlinResult:
    """The two-term complex of the tile {0, N, ..., (q-1)N} in Z/M.

    Both modules sit on C = A u B where A is the tile base and B the
    ragged top.  The boundary (chi_C, e) - (chi_{t^N A}, t^N) - (chi_{t B},
    t) has operator norm 2 (it is zero at N = M), and the witness x =
    sum_{j<N} (chi_{t^j A}, t^j) + (chi_B, e) has eta(x) = 1 exactly; its
    pieces are disjoint, so x is written fibre by fibre.  Every set is the
    image of _rokhlin_residues under point.
    """
    M, N = modulus, tile
    if not 1 <= N <= M:
        raise ValueError("need 1 <= tile <= modulus")
    space = FiniteQuotient.abelian([M])
    point = _residue_points(space)
    base_res, rem_res = _rokhlin_residues(M, N)
    base = _tile_points(point, base_res)
    remainder = _tile_points(point, rem_res)
    carrier = base | remainder
    module = MarkedModule(space, [carrier])
    aug = Augmentation(module, [dict.fromkeys(carrier, 1)])

    x = {point[j]: dict.fromkeys(_tile_points(point, base_res, j), 1)
         for j in range(N)}
    x[point[0]].update(dict.fromkeys(remainder, 1))

    entry = celt_indicator(carrier)
    for residues, shift in ((base_res, N), (rem_res, 1)):
        _celt_add_into(entry, celt_indicator(
            _tile_points(point, residues, shift), point[shift % M]), -1)
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


def _rokhlin_residues(modulus: int, tile: int) -> tuple:
    """The tile as exponents of t, each in increasing order: the base
    A = {0, N, ..., (q-1)N} and the ragged top B = {qN, ..., M-1},
    q = M // N."""
    q = modulus // tile
    return range(0, q * tile, tile), range(q * tile, modulus)


def rokhlin_tower_boundary(modulus: int, tile: int) -> dict:
    # exponents 0, N and 1 keep the pieces apart; B is empty at N = 1
    base, rem = _rokhlin_residues(modulus, tile)
    out = {(u, 0): 1 for u in (*base, *rem)}
    out.update({((a + tile) % modulus, tile): -1 for a in base})
    out.update({((b + 1) % modulus, 1): -1 for b in rem})
    return out


def tower_contract(modulus: int, carrier: set, elt: dict) -> dict:
    """c_0: on a basis element (u, m) of the lifted degree-0 module, minus
    the sum of (u, j) over 0 <= j < m with u in t^j C, and the mirrored
    positive sum for negative m.  carrier holds the residues of C = A u B,
    built once by the caller."""
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
    carrier = {*base, *rem}
    s_d = rokhlin_tower_boundary(modulus, tile)
    for m in range(-half, half + 1):
        for c_res in carrier:
            u = (c_res + m) % modulus
            z = {(u, m): 1}
            if tower_contract(modulus, carrier, tower_mul(modulus, z, s_d)) != z:
                return False
    return True


def rokhlin_level_contraction(result: RokhlinResult) -> bool:
    """Check d_1 o c_0 = id - c_{-1} o eta at the level on every atom
    (chi_u, t^m) with u in t^m C, exponents read from the canonical
    representatives 0 <= m < M.

    c_0 of the atom is minus the sum of (chi_u, t^j) over j < m with u in
    t^j C, so it grows by one term from m to m + 1.  d_1 o c_0 is kept as
    one running sum per point u, and d_1 of the term at m is added once the
    atoms at m are checked.  c_{-1} o eta(z) = eta(z) x is formed once per
    distinct value of eta(z).  Every atom is compared exactly.
    """
    M = result.modulus
    space = result.complex.space
    point = result.point
    base, rem = _rokhlin_residues(M, result.tile)
    x = result.witness[0]
    entry = result.complex.boundary(1).entries[0][0]
    aug = result.complex.augmentation
    lhs = {}       # u -> d_1 o c_0 of (chi_u, t^m), m the current exponent
    products = {}  # eta(z) as sorted items -> eta(z) x

    for m in range(M):
        g = point[m]
        shifted = [point[(c + m) % M] for c in (*base, *rem)]  # t^m C
        for u in shifted:
            z = {g: {u: 1}}
            eta = aug.apply((z,))
            key = tuple(sorted(eta.items()))
            prod = products.get(key)
            if prod is None:
                prod = products[key] = celt_mul(space, {0: eta}, x)
            if lhs.get(u, {}) != celt_sub(z, prod):
                return False
        for u in shifted:
            _mul_into(lhs.setdefault(u, {}), space, {g: {u: -1}}, entry)
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
    N = rok.tile
    point = rok.point
    base_res, rem_res = _rokhlin_residues(rok.modulus, N)
    # resolution of Z with the degree-1 generator oriented so that
    # d_1 = 1 - t; this matches the sign of the Rokhlin boundary
    source = induce_resolution(rok.complex.space, [1, 1],
                               [[[{(): 1, ((0, 1),): -1}]]])

    f0 = MarkedMorphism(source.module(0), rok.complex.module(0),
                        [[rok.witness[0]]])
    f1 = MarkedMorphism(source.module(1), rok.complex.module(1),
                        [[celt_indicator(rok.carrier)]])
    r0 = MarkedMorphism(rok.complex.module(0), source.module(0),
                        [[celt_indicator(rok.carrier)]])
    # x~ = sum_{j<N} (chi_{t^N A}, t^j) + (chi_{t B}, e), pieces disjoint
    tile_top = _tile_points(point, base_res, N)
    x_tilde = {point[j]: dict.fromkeys(tile_top, 1) for j in range(N)}
    x_tilde[point[0]].update(dict.fromkeys(_tile_points(point, rem_res, 1), 1))
    r1 = MarkedMorphism(rok.complex.module(1), source.module(1), [[x_tilde]])
    # h_0 = -sum_{k<j<N} (chi_{t^j A}, t^k), fibre t^k's pieces in order j
    pieces = [_tile_points(point, base_res, j) for j in range(N)]
    h_entry = {point[k]: {u: -1 for piece in pieces[k + 1:] for u in piece}
               for k in range(N - 1)}
    h0 = MarkedMorphism(source.module(0), source.module(1), [[h_entry]])
    return EmbeddingResult(
        source=source,
        rokhlin=rok,
        forward=(f0, f1),
        backward=(r0, r1),
        homotopies=(h0,),
    )
