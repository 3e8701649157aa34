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
plain dicts, and the coefficient helpers (fn_add, celt_add, celt_indicator,
vector_l1, ...) are plain functions on them.  A helper takes the level only
when it reads the group (products, actions, words) or the measure
(normalised statistics).
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

# measure memoises n / |G| for 0 <= n below this.
_FRACTION_MEMO = 4096
_fractions: dict = {}


def measure(space: FiniteQuotient, n: int) -> Fraction:
    """n / |G|, the normalised counting measure of n points of the level;
    small n are memoised, as statistics build these in hot loops."""
    key = (n, space.order)
    out = _fractions.get(key)
    if out is None:
        out = Fraction(n, space.order)
        if 0 <= n < _FRACTION_MEMO:
            _fractions[key] = out
    return out


def level_to_json(space: FiniteQuotient) -> dict:
    return {"quotient": space.to_json()}


def level_from_json(data: dict) -> FiniteQuotient:
    """The level of a serialised module, morphism or complex.  Coefficients
    are integers: a ``char`` key, if present, must be 0."""
    char = data.get("char", 0)
    if char != 0:
        raise ValueError(f"only integer coefficients are supported; "
                         f"char must be absent or 0, got {char!r}")
    return FiniteQuotient.from_json(data["quotient"])


# ---------------------------------------------------------------------------
# sparse functions


def fn_add(f: Fn, g: Fn) -> Fn:
    out = dict(f)
    for u, c in g.items():
        s = out.get(u, 0) + c
        if s:
            out[u] = s
        else:
            out.pop(u, None)
    return out


def fn_sub(f: Fn, g: Fn) -> Fn:
    return fn_add(f, {u: -c for u, c in g.items()})


def fn_from_json(pairs: list) -> Fn:
    """[[point, coeff], ...] as a sparse function; a point or coefficient
    that is not an integer is refused rather than rounded."""
    return {_as_int(u, "point"): _as_int(c, "coefficient") for u, c in pairs}


def carriers_from_json(carriers: list) -> list:
    """Carrier point lists as read from JSON; every point an integer."""
    return [[_as_int(u, "carrier point") for u in A] for A in carriers]


# ---------------------------------------------------------------------------
# ring elements


def celt_indicator(points: Iterable[int], g: int = 0) -> CElt:
    """(chi_S, g); the multiplicative unit is celt_indicator(all, e)."""
    f = dict.fromkeys(points, 1)
    return {g: f} if f else {}


def celt_add(x: CElt, y: CElt) -> CElt:
    out = {g: dict(f) for g, f in x.items()}
    for g, f in y.items():
        merged = fn_add(out.get(g, {}), f)
        if merged:
            out[g] = merged
        else:
            out.pop(g, None)
    return out


def celt_neg(x: CElt) -> CElt:
    return {g: {u: -c for u, c in f.items()} for g, f in x.items()}


def celt_sub(x: CElt, y: CElt) -> CElt:
    return celt_add(x, celt_neg(y))


def celt_mul(space: FiniteQuotient, x: CElt, y: CElt) -> CElt:
    """(f, g)(h, k) = (f * (g.h), g k), extended bilinearly."""
    out: CElt = {}
    for g, f in x.items():
        table = space.left_table(g)
        for k, h in y.items():
            gk = table[k]
            prod = {}
            for u, c in h.items():
                gu = table[u]
                fv = f.get(gu)
                if fv is not None:
                    prod[gu] = fv * c
            if prod:
                merged = fn_add(out.get(gk, {}), prod)
                if merged:
                    out[gk] = merged
                else:
                    out.pop(gk, None)
    return out


def celt_apply_l(space: FiniteQuotient, z: CElt, xi: Fn) -> Fn:
    """Action on base functions: (f, g).xi = f * (g.xi)."""
    out: Fn = {}
    for g, f in z.items():
        table = space.left_table(g)
        for u, c in xi.items():
            gu = table[u]
            fv = f.get(gu)
            if fv is not None:
                s = out.get(gu, 0) + fv * c
                if s:
                    out[gu] = s
                else:
                    out.pop(gu, None)
    return out


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
        self._allowed: dict = {}

    @property
    def rank(self) -> int:
        return len(self.carriers)

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

    def normalize_component(self, i: int, z: CElt) -> CElt:
        """Project onto <A_i>: fibre at g is restricted to g A_i."""
        out = {}
        for g, f in z.items():
            allowed = self._allowed.get((i, g))
            if allowed is None:
                table = self.space.left_table(g)
                allowed = frozenset(table[u] for u in self.carriers[i])
                self._allowed[i, g] = allowed
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

    def to_json(self) -> dict:
        return {
            **level_to_json(self.space),
            "carriers": [sorted(A) for A in self.carriers],
        }

    @staticmethod
    def from_json(data: dict) -> "MarkedModule":
        space = level_from_json(data)
        return MarkedModule(space, carriers_from_json(data["carriers"]))


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
        f = fn_from_json(term["coeffs"])
        out = celt_add(out, {g: f} if f else {})
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
        A = self.domain.carriers[i]
        out = {}
        for g, f in self.codomain.normalize_component(j, z).items():
            kept = {u: c for u, c in f.items() if u in A}
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
        for i, z in enumerate(vec):
            if not z:
                continue
            for j in range(self.codomain.rank):
                e = self.entries[i][j]
                if e:
                    prod = celt_mul(space, z, e)
                    out[j] = celt_add(out[j], prod) if out[j] else prod
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
                        acc = celt_add(acc, celt_mul(space, a, b))
                row.append(acc)
            entries.append(row)
        # entries are automatically normalised; skip the projection pass
        return MarkedMorphism(self.domain, other.codomain, entries, normalize=False)

    def add(self, other: "MarkedMorphism") -> "MarkedMorphism":
        self._check_same_shape(other)
        entries = [
            [celt_add(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ]
        return MarkedMorphism(self.domain, self.codomain, entries, normalize=False)

    def neg(self) -> "MarkedMorphism":
        entries = [[celt_neg(a) for a in row] for row in self.entries]
        return MarkedMorphism(self.domain, self.codomain, entries, normalize=False)

    def sub(self, other: "MarkedMorphism") -> "MarkedMorphism":
        return self.add(other.neg())

    def is_zero(self) -> bool:
        return all(not z for row in self.entries for z in row)

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
        entries = [
            [celt_from_json(space, t) for t in row] for row in data["entries"]
        ]
        return MarkedMorphism(domain, codomain, entries)


# ---------------------------------------------------------------------------
# morphism statistics and norms


@dataclass(frozen=True)
class MorphismStats:
    size1: Fraction
    n1: int
    n2: int
    n1_max: int
    n2_max: int
    linf: int


def morphism_stats(f: MarkedMorphism) -> MorphismStats:
    space = f.space
    size1 = Fraction(0)
    n1 = n2 = n1_max = n2_max = linf = 0
    for i in range(f.domain.rank):
        s = vector_stats(space, f.row(i))
        size1 += s.size1
        n1 += s.n1
        n2 += s.n2
        n1_max = max(n1_max, s.n1)
        n2_max = max(n2_max, s.n2)
        linf = max(linf, s.linf)
    return MorphismStats(size1=size1, n1=n1, n2=n2, n1_max=n1_max,
                         n2_max=n2_max, linf=linf)


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


def atom_norms(f: MarkedMorphism) -> dict:
    """The l1 mass of the image of each domain atom (i, u in A_i), an
    integer, keyed in atom order."""
    masses = _point_masses(f)
    return {(i, u): masses[i].get(u, 0) for i, u in f.domain.atoms()}


def op_norm(f: MarkedMorphism) -> int:
    """The largest atom norm: the l1 mass of the image of an atom,
    renormalised by the measure of the atom; an integer."""
    return max((c for m in _point_masses(f) for c in m.values()), default=0)


# ---------------------------------------------------------------------------
# marked inclusions and projections


def _check_assignment(sub: MarkedModule, ambient: MarkedModule,
                      assignment: Sequence[int]):
    if len(assignment) != sub.rank:
        raise ValueError("assignment length must equal the submodule rank")
    seen = set()
    for i, j in enumerate(assignment):
        if not 0 <= j < ambient.rank:
            raise ValueError(f"assignment target {j} out of range")
        if j in seen:
            raise ValueError("assignment must be injective on summands")
        seen.add(j)
        if not sub.carriers[i] <= ambient.carriers[j]:
            raise ValueError(
                f"carrier {i} is not contained in ambient carrier {j}"
            )


def marked_inclusion(sub: MarkedModule, ambient: MarkedModule,
                     assignment: Sequence[int]) -> MarkedMorphism:
    """The inclusion <A_i> -> <A'_sigma(i)> given A_i <= A'_sigma(i), each
    entry the identity indicator chi_{A_i}."""
    _check_assignment(sub, ambient, assignment)
    entries = [[{} for _ in range(ambient.rank)] for _ in range(sub.rank)]
    for i, j in enumerate(assignment):
        entries[i][j] = celt_indicator(sub.carriers[i])
    return MarkedMorphism(sub, ambient, entries)


def marked_projection(ambient: MarkedModule, sub: MarkedModule,
                      assignment: Sequence[int]) -> MarkedMorphism:
    """The left inverse of marked_inclusion with the same assignment:
    restricts summand sigma(i) to <A_i> and kills unassigned summands."""
    _check_assignment(sub, ambient, assignment)
    entries = [[{} for _ in range(sub.rank)] for _ in range(ambient.rank)]
    for i, j in enumerate(assignment):
        entries[j][i] = celt_indicator(sub.carriers[i])
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
        out: Fn = {}
        for z, xi in zip(vec, self.values):
            if z and xi:
                out = fn_add(out, celt_apply_l(self.space, z, xi))
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

    def is_zero(self) -> bool:
        return all(not v for v in self.values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Augmentation)
            and self.domain == other.domain
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"Augmentation(rank {self.domain.rank}, order={self.space.order})"

    def to_json(self) -> dict:
        return {
            **self.domain.to_json(),
            "values": [[[u, v[u]] for u in sorted(v)] for v in self.values],
        }

    @staticmethod
    def from_json(data: dict) -> "Augmentation":
        domain = MarkedModule.from_json(data)
        values = [fn_from_json(pairs) for pairs in data["values"]]
        return Augmentation(domain, values)
