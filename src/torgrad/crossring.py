"""Crossed product rings over a finite level and marked modules over them.

The level model of the crossed product: fix a finite quotient G of the
acting group; coefficients are integers with the usual absolute value.  A
ring element is a finite sum z = sum_g (f_g, g) with f_g a finitely
supported function G -> Z, stored as {g: {point: coeff}}.
Multiplication twists by the left translation action (g.f)(x) = f(g^-1 x):

    (f, g) * (h, k) = (f * (g.h), g k)

A marked module is a finite direct sum of ideals <A_i> = (ring) * chi_{A_i}
with A_i a subset of G; its elements are tuples, component i supported in
g A_i fibre by fibre.  A marked morphism keeps one ring element per
(domain summand, codomain summand) pair, supported in A_i and g B_j fibre
by fibre; both normalisations are applied on construction, so stored data
always satisfies the support constraints.

The counting statistics N_1, N_2 of a tuple are joint across summands
(a point's count adds contributions from every (summand, group element)
pair); |.|_inf takes the max and supp_1 the union.  On one summand they
reduce to the plain element statistics.

The level is the FiniteQuotient itself, measured by the normalised
counting measure (``measure``).  Sparse functions and ring elements are
plain dicts, and the coefficient helpers (fn_sub, celt_add, celt_mul,
celt_indicator, vector_l1, ...) are plain functions on them.  A helper takes
the level only when it reads the group (products, actions, words) or the
measure (normalised statistics).

Sums and products accumulate in place.  The private helpers _fn_add_into,
_celt_add_into, _act_into and _mul_into add into their first argument and
return it; they are the only code here that writes into a dict it was
given.  _act_into is the one loop that multiplies: _mul_into calls it once
per pair of fibres, and Augmentation.apply once per term of each summand.
Every public helper and method builds its result in dicts of its own
(celt_mul is _mul_into on {}), so none writes into an argument or a stored
entry.  A sum (_fn_add_into, _celt_add_into) and one product into an empty
target (celt_mul) keep the insertion order of copying the sum before each
addition; a product added into a nonempty target promises no order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .groups import FiniteQuotient, _as_int, parse_word, word_to_str

# Sparse function on the level: {point index: nonzero coefficient}.
Fn = dict
# Crossed ring element: {group element index: nonempty Fn}.
CElt = dict
# Module element: tuple of CElt, one per summand.
Vector = tuple


def measure(space: FiniteQuotient, n: int) -> Fraction:
    """n / |G|, the normalised counting measure of n points of the level."""
    return Fraction(n, space.order)


def level_to_json(space: FiniteQuotient) -> dict:
    return {"quotient": space.to_json()}


def level_from_json(data: dict) -> FiniteQuotient:
    """The level of a serialised module, morphism or complex.  Coefficients
    are integers: a ``char`` key, if present, must be the integer 0."""
    char = data.get("char", 0)
    if type(char) is not int or char != 0:
        raise ValueError(f"only integer coefficients are supported; "
                         f"char must be absent or 0, got {char!r}")
    return FiniteQuotient.from_json(data["quotient"])


# ---------------------------------------------------------------------------
# sparse functions


def _fn_add_into(out: Fn, g: Fn, sign: int = 1) -> Fn:
    """out + sign * g, accumulated into out and returned; a point that
    cancels is deleted."""
    for u, c in g.items():
        s = out.get(u, 0) + sign * c
        if s:
            out[u] = s
        else:
            out.pop(u, None)
    return out


def fn_sub(f: Fn, g: Fn) -> Fn:
    return _fn_add_into(dict(f), g, -1)


def fn_from_json(space: FiniteQuotient, pairs: list) -> Fn:
    """[[point, coeff], ...] as a sparse function on the level; a point or
    coefficient that is not an integer is refused rather than rounded, a
    point outside the level rather than dropped, and a point listed twice
    rather than read as its last coefficient."""
    out = {}
    for u, c in pairs:
        u = _as_int(u, "point")
        if not 0 <= u < space.order:
            raise ValueError(f"point {u} outside the level")
        if u in out:
            raise ValueError(f"point {u} listed twice")
        out[u] = _as_int(c, "coefficient")
    return out


def carriers_from_json(carriers: list) -> list:
    """Carrier point lists as read from JSON; every point an integer."""
    return [[_as_int(u, "carrier point") for u in A] for A in carriers]


# ---------------------------------------------------------------------------
# ring elements


def celt_indicator(points: Iterable[int], g: int = 0) -> CElt:
    """(chi_S, g); the multiplicative unit is celt_indicator(all, e)."""
    f = dict.fromkeys(points, 1)
    return {g: f} if f else {}


def _celt_add_into(out: CElt, y: CElt, sign: int = 1) -> CElt:
    """out + sign * y, accumulated into out and returned, fibre by fibre
    in the order of y; a fibre that cancels is deleted.  Fibres new to out
    are fresh dicts, so nothing of y is shared."""
    for g, f in y.items():
        fib = _fn_add_into(out.get(g, {}), f, sign)
        if fib:
            out[g] = fib
        else:
            out.pop(g, None)
    return out


def celt_add(x: CElt, y: CElt) -> CElt:
    return _celt_add_into({g: dict(f) for g, f in x.items()}, y)


def celt_neg(x: CElt) -> CElt:
    return {g: {u: -c for u, c in f.items()} for g, f in x.items()}


def celt_sub(x: CElt, y: CElt) -> CElt:
    return _celt_add_into({g: dict(f) for g, f in x.items()}, y, -1)


def _act_into(out: Fn, table: Sequence[int], f: Fn, h: Fn) -> Fn:
    """out + f * (g.h), accumulated into out and returned, where table is
    the left table of g; a point that cancels is deleted."""
    for u, c in h.items():
        gu = table[u]
        fv = f.get(gu)
        if fv is not None:
            s = out.get(gu, 0) + fv * c
            if s:
                out[gu] = s
            else:
                out.pop(gu, None)
    return out


def _mul_into(out: CElt, space: FiniteQuotient, x: CElt, y: CElt) -> CElt:
    """out + x * y, accumulated into out term by term and returned.

    Each pair of terms (f, g) of x and (h, k) of y adds f * (g.h) into the
    fibre at g k; a point or fibre that cancels is deleted.  Writes into
    out and its fibres only, never into x or y or a fibre they hold."""
    for g, f in x.items():
        table = space.left_table(g)
        for k, h in y.items():
            gk = table[k]
            fib = _act_into(out.get(gk, {}), table, f, h)
            if fib:
                out[gk] = fib
            else:
                out.pop(gk, None)
    return out


def celt_mul(space: FiniteQuotient, x: CElt, y: CElt) -> CElt:
    """(f, g)(h, k) = (f * (g.h), g k), extended bilinearly."""
    return _mul_into({}, space, x, y)


class ElementStats(NamedTuple):
    l1: Fraction
    linf: int
    n1: int
    n2: int
    size1: Fraction
    supp1: frozenset


# ---------------------------------------------------------------------------
# vectors (elements of a direct sum)


def vector_supp1(x: Vector) -> frozenset:
    """Union of the fibre supports; chi_supp1(x_i) * x_i = x_i."""
    out: set = set()
    for z in x:
        for f in z.values():
            out.update(f)
    return frozenset(out)


def vector_stats(space: FiniteQuotient, x: Vector) -> ElementStats:
    """Joint statistics: counts aggregate over (summand, group element)."""
    counts1: dict = {}
    counts2: dict = {}
    supp: set = set()
    total = 0
    linf = 0
    for z in x:
        for g, f in z.items():
            back = space.left_table(space.inv(g))
            for u, c in f.items():
                a = c if c >= 0 else -c
                total += a
                if a > linf:
                    linf = a
                counts2[u] = counts2.get(u, 0) + 1
                y = back[u]
                counts1[y] = counts1.get(y, 0) + 1
                supp.add(u)
    return ElementStats(
        l1=measure(space, total),
        linf=linf,
        n1=max(counts1.values(), default=0),
        n2=max(counts2.values(), default=0),
        size1=measure(space, len(supp)),
        supp1=frozenset(supp),
    )


def vector_l1(x: Vector) -> int:
    """The unnormalised l1 mass |G| * vector_stats(space, x).l1, for
    callers that read nothing else."""
    return sum(abs(c) for z in x for f in z.values() for c in f.values())


# ---------------------------------------------------------------------------
# marked modules


class MarkedModule:
    """A direct sum of marked ideals <A_1> + ... + <A_r>."""

    def __init__(self, space: FiniteQuotient, carriers: Sequence[Iterable[int]]):
        self.space = space
        fixed = []
        for A in carriers:
            A = frozenset(int(u) for u in A)
            for u in A:
                if not 0 <= u < space.order:
                    raise ValueError(f"carrier point {u} outside the level")
            fixed.append(A)
        self.carriers = tuple(fixed)
        self.rank = len(fixed)
        self._allowed: dict = {}

    def dim(self) -> Fraction:
        return measure(self.space, sum(len(A) for A in self.carriers))

    @classmethod
    def full(cls, space: FiniteQuotient, rank: int) -> "MarkedModule":
        return cls(space, [range(space.order)] * rank)

    def atom(self, i: int, u: int) -> Vector:
        """(chi_u, e) e_i; atoms run over i and u in A_i."""
        if u not in self.carriers[i]:
            raise ValueError(f"point {u} is not in carrier {i}")
        return self.element(i, celt_indicator([u]))

    def element(self, i: int, z: CElt) -> Vector:
        out = [{}] * self.rank
        out[i] = self.normalize_component(i, z)
        return tuple(out)

    def allowed(self, i: int, g: int) -> frozenset:
        """g A_i, the support allowed to the fibre at g of component i;
        cached."""
        allowed = self._allowed.get((i, g))
        if allowed is None:
            table = self.space.left_table(g)
            allowed = frozenset(table[u] for u in self.carriers[i])
            self._allowed[i, g] = allowed
        return allowed

    def normalize_component(self, i: int, z: CElt) -> CElt:
        """Project onto <A_i>: fibre at g is restricted to g A_i."""
        out = {}
        for g, f in z.items():
            allowed = self.allowed(i, g)
            kept = {u: c for u, c in f.items() if c and u in allowed}
            if kept:
                out[g] = kept
        return out

    def atoms(self):
        for i, A in enumerate(self.carriers):
            for u in sorted(A):
                yield i, u

    def direct_sum(self, other: "MarkedModule") -> "MarkedModule":
        if self.space != other.space:
            raise ValueError("direct sum needs a common level space")
        return MarkedModule(self.space, self.carriers + other.carriers)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MarkedModule)
            and self.space == other.space
            and self.carriers == other.carriers
        )

    def __hash__(self):
        return hash((self.space, self.carriers))

    def __repr__(self) -> str:
        sizes = ",".join(str(len(A)) for A in self.carriers)
        return f"MarkedModule(order={self.space.order}, carrier sizes [{sizes}])"


# ---------------------------------------------------------------------------
# marked morphisms


def celt_to_json(space: FiniteQuotient, z: CElt) -> list:
    terms = []
    for g in z:
        terms.append(
            {
                "word": word_to_str(space.word_of(g)),
                "coeffs": [[u, z[g][u]] for u in sorted(z[g])],
            }
        )
    terms.sort(key=lambda t: t["word"])
    return terms


def celt_from_json(space: FiniteQuotient, terms: list) -> CElt:
    out: CElt = {}
    for term in terms:
        g = space.evaluate_word(parse_word(term["word"]))
        _celt_add_into(out, {g: fn_from_json(space, term["coeffs"])})
    return out


class MarkedMorphism:
    """A morphism of marked modules, one ring element per summand pair.

    entries[i][j] maps the i-th domain summand to the j-th codomain
    summand; on construction each entry is normalised to lie in
    chi_{A_i} (ring) chi_{B_j}, so stored fibres satisfy
    supp(f_g) <= A_i intersect g B_j.
    """

    def __init__(self, domain: MarkedModule, codomain: MarkedModule, entries,
                 normalize: bool = True):
        if domain.space != codomain.space:
            raise ValueError("domain and codomain live over different levels")
        self.domain = domain
        self.codomain = codomain
        self.space = domain.space
        rows = []
        if len(entries) != domain.rank:
            raise ValueError(
                f"{len(entries)} entry rows for a rank {domain.rank} domain"
            )
        for i, row in enumerate(entries):
            if len(row) != codomain.rank:
                raise ValueError(
                    f"entry row {i} has {len(row)} columns, expected {codomain.rank}"
                )
            if normalize:
                row = [self._normalize_entry(i, j, z) for j, z in enumerate(row)]
            rows.append(tuple(row))
        self.entries = tuple(rows)

    def _normalize_entry(self, i: int, j: int, z: CElt) -> CElt:
        """z restricted to A_i intersect g B_j fibre by fibre, in one pass."""
        A = self.domain.carriers[i]
        allowed = self.codomain.allowed
        out = {}
        for g, f in z.items():
            B = allowed(j, g)
            kept = {u: c for u, c in f.items() if c and u in B and u in A}
            if kept:
                out[g] = kept
        return out

    # constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, domain: MarkedModule, codomain: MarkedModule) -> "MarkedMorphism":
        return cls(
            domain,
            codomain,
            [[{} for _ in range(codomain.rank)] for _ in range(domain.rank)],
            normalize=False,
        )

    @classmethod
    def identity(cls, module: MarkedModule) -> "MarkedMorphism":
        entries = [
            [
                celt_indicator(module.carriers[i]) if i == j else {}
                for j in range(module.rank)
            ]
            for i in range(module.rank)
        ]
        return cls(module, module, entries)

    # algebra ----------------------------------------------------------------

    def row(self, i: int) -> Vector:
        """f(chi_{A_i} e_i); stored entries are already normalised."""
        return self.entries[i]

    def apply(self, vec: Sequence[CElt]) -> Vector:
        if len(vec) != self.domain.rank:
            raise ValueError(
                f"vector has {len(vec)} components, expected {self.domain.rank}"
            )
        space = self.space
        out = [{} for _ in range(self.codomain.rank)]
        for z, row in zip(vec, self.entries):
            if z:
                for acc, e in zip(out, row):
                    if e:
                        _mul_into(acc, space, z, e)
        return tuple(out)

    def then(self, other: "MarkedMorphism") -> "MarkedMorphism":
        """other composed after self (self first)."""
        if self.codomain != other.domain:
            raise ValueError("composition needs matching middle module")
        space = self.space
        entries = []
        for i in range(self.domain.rank):
            row = []
            for k in range(other.codomain.rank):
                acc: CElt = {}
                for j in range(self.codomain.rank):
                    a = self.entries[i][j]
                    b = other.entries[j][k]
                    if a and b:
                        _mul_into(acc, space, a, b)
                row.append(acc)
            entries.append(row)
        # entries are automatically normalised; skip the projection pass
        return MarkedMorphism(self.domain, other.codomain, entries, normalize=False)

    def sub(self, other: "MarkedMorphism") -> "MarkedMorphism":
        self._check_same_shape(other)
        entries = [
            [celt_sub(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ]
        return MarkedMorphism(self.domain, self.codomain, entries, normalize=False)

    def _check_same_shape(self, other: "MarkedMorphism"):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ValueError("morphisms have different marked shapes")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MarkedMorphism)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return (
            f"MarkedMorphism({self.domain.rank} -> {self.codomain.rank}, "
            f"order={self.space.order})"
        )

    # serialisation -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            **level_to_json(self.space),
            "domain": [sorted(A) for A in self.domain.carriers],
            "codomain": [sorted(B) for B in self.codomain.carriers],
            "entries": [
                [celt_to_json(self.space, z) for z in row] for row in self.entries
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "MarkedMorphism":
        space = level_from_json(data)
        domain = MarkedModule(space, carriers_from_json(data["domain"]))
        codomain = MarkedModule(space, carriers_from_json(data["codomain"]))
        return morphism_from_json(domain, codomain, data["entries"])


def morphism_from_json(domain: MarkedModule, codomain: MarkedModule,
                       rows: list) -> MarkedMorphism:
    """The morphism whose entries are the JSON rows of ring elements.  A
    nonzero coefficient at a point outside A_i intersect g B_j, which
    normalisation would drop, is refused: the morphism measured must be
    the one in the file."""
    space = domain.space
    entries = [[celt_from_json(space, t) for t in row] for row in rows]
    f = MarkedMorphism(domain, codomain, entries)
    for i, (row, kept_row) in enumerate(zip(entries, f.entries)):
        for j, (z, kept) in enumerate(zip(row, kept_row)):
            for g, fibre in z.items():
                for u, c in fibre.items():
                    if c and u not in kept.get(g, ()):
                        raise ValueError(
                            f"entry ({i}, {j}): point {u} lies outside the "
                            f"support A_{i} ∩ g B_{j} of its term")
    return f


# ---------------------------------------------------------------------------
# morphism statistics and norms


@dataclass(frozen=True)
class MorphismStats:
    size1: Fraction
    n1: int
    n1_max: int
    n2_max: int
    linf: int


def morphism_stats(f: MarkedMorphism) -> MorphismStats:
    space = f.space
    size1 = Fraction(0)
    n1 = n1_max = n2_max = linf = 0
    for i in range(f.domain.rank):
        s = vector_stats(space, f.row(i))
        size1 += s.size1
        n1 += s.n1
        n1_max = max(n1_max, s.n1)
        n2_max = max(n2_max, s.n2)
        linf = max(linf, s.linf)
    return MorphismStats(size1=size1, n1=n1, n1_max=n1_max, n2_max=n2_max,
                         linf=linf)


def _point_masses(f: MarkedMorphism) -> list:
    """One pass over the nonzeros of f: for each domain summand i, the l1
    mass of the image of atom (i, u), by u, for the atoms f does not kill.
    Entries are normalised, so only points of A_i occur."""
    out = []
    for row in f.entries:
        masses: dict = {}
        for z in row:
            for fn in z.values():
                for u, c in fn.items():
                    masses[u] = masses.get(u, 0) + abs(c)
        out.append(masses)
    return out


def op_norm(f: MarkedMorphism) -> int:
    """The largest atom norm: the l1 mass of the image of an atom,
    renormalised by the measure of the atom; an integer."""
    return max((c for m in _point_masses(f) for c in m.values()), default=0)


# ---------------------------------------------------------------------------
# marked inclusions and projections


def _check_prefix(sub: MarkedModule, ambient: MarkedModule):
    """The prefix rule of an ambient: summand i of sub sits in summand i
    of ambient.  Both live over the same level, sub has no more summands
    than ambient, and each carrier A_i is contained in the ambient's P_i."""
    if sub.space != ambient.space:
        raise ValueError("module and ambient live over different levels")
    if sub.rank > ambient.rank:
        raise ValueError(f"{sub.rank} summands do not fit in an ambient "
                         f"of {ambient.rank}")
    for i, (A, P) in enumerate(zip(sub.carriers, ambient.carriers)):
        if not A <= P:
            raise ValueError(
                f"carrier {i} is not contained in ambient carrier {i}")


def marked_inclusion(sub: MarkedModule, ambient: MarkedModule
                     ) -> MarkedMorphism:
    """The inclusion of sub into ambient by the prefix rule: <A_i> into
    <P_i> given A_i <= P_i, each entry the identity indicator chi_{A_i}."""
    _check_prefix(sub, ambient)
    entries = [[{} for _ in range(ambient.rank)] for _ in range(sub.rank)]
    for i, A in enumerate(sub.carriers):
        entries[i][i] = celt_indicator(A)
    return MarkedMorphism(sub, ambient, entries)


def marked_projection(ambient: MarkedModule, sub: MarkedModule
                      ) -> MarkedMorphism:
    """The left inverse of marked_inclusion: restricts summand i of the
    ambient to <A_i> and kills the summands past sub.rank."""
    _check_prefix(sub, ambient)
    entries = [[{} for _ in range(sub.rank)] for _ in range(ambient.rank)]
    for i, A in enumerate(sub.carriers):
        entries[i][i] = celt_indicator(A)
    return MarkedMorphism(ambient, sub, entries)


# ---------------------------------------------------------------------------
# augmentations (maps from a degree-0 module to the base functions)


class Augmentation:
    """A module map eta: M -> L given by the values xi_i = eta(chi_{A_i} e_i),
    one base function per summand, supported in A_i.

    eta(z) = sum_i z_i . xi_i, the crossed ring acting on base functions.
    For such single-column maps the operator norm is exactly the max
    absolute value of the stored values, so norm bounds are exact here.
    """

    def __init__(self, domain: MarkedModule, values: Sequence[Fn]):
        if len(values) != domain.rank:
            raise ValueError(
                f"{len(values)} augmentation values for rank {domain.rank}"
            )
        self.domain = domain
        self.space = domain.space
        self.values = tuple(
            {u: c for u, c in v.items() if c and u in A}
            for v, A in zip(values, domain.carriers)
        )

    def apply(self, vec: Sequence[CElt]) -> Fn:
        if len(vec) != self.domain.rank:
            raise ValueError(
                f"vector has {len(vec)} components, expected {self.domain.rank}"
            )
        space = self.space
        out: Fn = {}
        for z, xi in zip(vec, self.values):
            if xi:
                for g, f in z.items():
                    _act_into(out, space.left_table(g), f, xi)
        return out

    def after(self, f: MarkedMorphism) -> "Augmentation":
        """The composite self o f, again an augmentation on f.domain."""
        if f.codomain != self.domain:
            raise ValueError("composition needs matching middle module")
        values = [self.apply(f.row(i)) for i in range(f.domain.rank)]
        return Augmentation(f.domain, values)

    def sub(self, other: "Augmentation") -> "Augmentation":
        if self.domain != other.domain:
            raise ValueError("augmentations have different domains")
        return Augmentation(
            self.domain,
            [fn_sub(a, b) for a, b in zip(self.values, other.values)],
        )

    def linf(self) -> int:
        """Exact operator norm, and also the bound K_eta."""
        return max((abs(c) for v in self.values for c in v.values()),
                   default=0)

    def size1(self) -> Fraction:
        """Sum over summands of the measure of the value support."""
        return measure(self.space, sum(len(v) for v in self.values))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Augmentation)
            and self.domain == other.domain
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"Augmentation(rank {self.domain.rank}, order={self.space.order})"
