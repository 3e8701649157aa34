"""Free-group words, Fox derivatives, finite quotients.

A presented group is only ever touched through its finite quotients: words
stay elements of the ambient free group, and equality of words is decided
by evaluating both sides in a quotient.  A quotient enumerates its elements
once, breadth first over the generator images, keeping the enumeration tree
from which a shortest representative word per element is built on request;
everything downstream addresses elements by their integer index, with index
0 the identity.  Inside a quotient an element of Z/m_1 x ... x Z/m_k is one
packed int, a permutation a tuple.
"""

from __future__ import annotations

import copy
import os
import re
import string
from typing import Callable, Iterable, Optional, Sequence

# A word is a reduced tuple of (generator index, nonzero exponent) pairs,
# adjacent pairs having distinct generators.  () is the identity.
Word = tuple
# A group-ring element is a dict {word: nonzero integer coefficient}.
RingElt = dict

ORDER_CAP_ENV = "TORGRAD_ORDER_CAP"
DEFAULT_ORDER_CAP = 10_000


class OrderCapExceeded(RuntimeError):
    """A quotient enumeration grew past the configured element cap."""


def order_cap() -> int:
    """Current cap on quotient order, from TORGRAD_ORDER_CAP (default 10000)."""
    raw = os.environ.get(ORDER_CAP_ENV)
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ORDER_CAP_ENV} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{ORDER_CAP_ENV} must be positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# words


def reduce_word(pairs: Iterable[Sequence[int]]) -> Word:
    """Freely reduce a sequence of (generator, exponent) pairs.

    Adjacent powers of the same generator merge, zero exponents vanish.
    """
    stack: list[tuple[int, int]] = []
    for g, e in pairs:
        g = int(g)
        e = int(e)
        if g < 0:
            raise ValueError(f"negative generator index {g}")
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            e += stack.pop()[1]
            if e == 0:
                continue
        stack.append((g, e))
    return tuple(stack)


_TOKEN = re.compile(r"(?:([a-z])|\{(\d+)\})(?:\^?(-?\d+))?")


def parse_word(text: str) -> Word:
    """Parse a word like ``"aba-1b-1"``, ``"a^2 c-3"`` or ``"{26}b-1"``.

    Generators are lowercase letters a, b, c, ... mapped to indices 0, 1,
    2, ..., or any index k spelled ``{k}``; an optional integer exponent
    (with optional ``^``) follows each generator.  ``""`` and ``"1"`` both
    denote the identity.
    """
    if not isinstance(text, str):
        raise ValueError(f"a word must be a string, got {text!r}")
    stripped = text.replace("*", " ").strip()
    if stripped in ("", "1"):
        return ()
    pairs = []
    pos = 0
    for match in _TOKEN.finditer(stripped):
        if stripped[pos : match.start()].strip():
            raise ValueError(f"cannot parse word {text!r} near offset {pos}")
        letter, braced, exp = match.groups()
        g = ord(letter) - ord("a") if letter else int(braced)
        pairs.append((g, 1 if exp is None else int(exp)))
        pos = match.end()
    if stripped[pos:].strip():
        raise ValueError(f"cannot parse word {text!r} near offset {pos}")
    return reduce_word(pairs)


def generator_name(g: int) -> str:
    """a..z for the first 26 generators, ``{k}`` for generator k past z."""
    if g < 0:
        raise ValueError(f"negative generator index {g}")
    return string.ascii_lowercase[g] if g < 26 else f"{{{g}}}"


def word_to_str(word: Word) -> str:
    """Canonical compact spelling; the identity prints as an empty string."""
    return "".join(
        generator_name(g) + (str(e) if e != 1 else "") for g, e in word
    )


# ---------------------------------------------------------------------------
# Fox calculus


def fox_derivative(word: Word, gen: int) -> RingElt:
    """Free derivative d(word)/d(gen) in the integral group ring.

    Characterised by d(uv) = du + u dv, dg/dg = 1, dh/dg = 0 for h != g,
    which forces d(g^-1)/dg = -g^-1.  The word is reduced once; a prefix
    of a reduced word is reduced and ends in a letter other than gen, so
    every term is a slice with one power of gen appended.
    """
    word = reduce_word(word)
    out: RingElt = {}
    for pos, (g, e) in enumerate(word):
        if g != gen:
            continue
        prefix = word[:pos]
        if e > 0:
            terms = [prefix + ((g, k),) if k else prefix for k in range(e)]
            sign = 1
        else:
            terms = [prefix + ((g, -k),) for k in range(1, -e + 1)]
            sign = -1
        for t in terms:
            c = out.get(t, 0) + sign
            if c:
                out[t] = c
            else:
                del out[t]
    return out


# ---------------------------------------------------------------------------
# presentations


class Presentation:
    """A finite presentation: a generator count and a tuple of relator words."""

    def __init__(self, num_generators: int, relators: Iterable[Word]):
        self.num_generators = int(num_generators)
        if self.num_generators < 0:
            raise ValueError("generator count must be nonnegative")
        self.relators = tuple(reduce_word(r) for r in relators)
        for r in self.relators:
            for g, _ in r:
                if g >= self.num_generators:
                    raise ValueError(
                        f"relator {word_to_str(r)!r} uses generator index {g}, "
                        f"outside the declared {self.num_generators}"
                    )

    def __repr__(self) -> str:
        rels = ", ".join(word_to_str(r) or "1" for r in self.relators)
        return f"Presentation(<{self.num_generators} gens | {rels}>)"


# ---------------------------------------------------------------------------
# finite quotients


def _enumerate_subgroup(
    identity_key,
    gen_keys: Sequence,
    key_mul: Callable,
    key_inv: Callable,
    cap: int,
):
    """Breadth-first enumeration over the generator images and their
    inverses, in that order.  Returns the keys, the key index, the right
    table of each step, and the tree: for each element x but the identity,
    its parent p and the right table of the step s that reached it, x = p s."""
    keys = [identity_key]
    index = {identity_key: 0}
    steps = []
    for gk in gen_keys:
        steps.append((gk, []))
        steps.append((key_inv(gk), []))
    tree = []
    # keys grows while it is read, so elements are expanded in index order
    # and right[i] is i * step
    for i, base_key in enumerate(keys):
        for gk, right in steps:
            nk = key_mul(base_key, gk)
            j = index.get(nk)
            if j is None:
                if len(keys) >= cap:
                    raise OrderCapExceeded(
                        f"quotient enumeration exceeded {cap} elements; raise "
                        f"{ORDER_CAP_ENV} to allow larger levels"
                    )
                j = index[nk] = len(keys)
                keys.append(nk)
                tree.append((i, right))
            right.append(j)
    return keys, index, [right for _, right in steps], tree


def _as_int(value, what: str) -> int:
    """value itself if it is an int; a bool, float or string is refused
    rather than rounded or read as 0 or 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


class FiniteQuotient:
    """A finite quotient group, enumerated once and addressed by index.

    ``mul`` and ``inv`` act on indices.  ``left_table(g)`` returns (and
    caches) the permutation x -> g*x as a list, for translation-heavy
    callers.  ``word_of(i)`` is a representative word mapping onto element
    i, so data keyed by group elements can be serialised losslessly; words
    are built from the enumeration tree on the first request.

    Elements are enumerated as keys: an abelian element is one int with
    coordinate c in bits [c*b, c*b + b), where b is one more than the bit
    length of the largest modulus, so a product is one addition and one
    masked subtraction of the moduli; a permutation is a tuple.
    """

    def __init__(self, spec: dict, gen_keys, identity_key, key_mul, key_inv):
        self.spec = spec
        self._key_mul = key_mul
        self._key_inv = key_inv
        keys, index, rights, tree = _enumerate_subgroup(
            identity_key, gen_keys, key_mul, key_inv, order_cap()
        )
        self._keys = keys
        self._index = index
        self._rights = rights
        self._tree = tree
        self._words: list[Word] = [()]
        self.order = len(keys)
        self.identity = 0
        self.generator_images = tuple(index[k] for k in gen_keys)
        self._left_tables: dict[int, list[int]] = {}
        self._inverses: dict[int, int] = {}

    # construction ---------------------------------------------------------

    @classmethod
    def abelian(
        cls,
        moduli: Sequence[int],
        images: Optional[Sequence[Sequence[int]]] = None,
    ) -> "FiniteQuotient":
        """Quotient inside Z/m_1 x ... x Z/m_k.

        Without ``images`` the j-th generator maps to the j-th basis vector
        (so the generator count equals len(moduli)); ``images`` overrides
        this with one coefficient vector per generator.
        """
        moduli = tuple(_as_int(m, "modulus") for m in moduli)
        if not moduli:
            raise ValueError("abelian quotient needs at least one modulus")
        for m in moduli:
            if m < 1:
                raise ValueError(f"moduli must be >= 1, got {m}")
        k = len(moduli)
        if images is None:
            vecs = [[1 if j == i else 0 for j in range(k)] for i in range(k)]
        else:
            vecs = [[_as_int(c, "image entry") for c in v] for v in images]
            for v in vecs:
                if len(v) != k:
                    raise ValueError(
                        f"abelian image {v} has length {len(v)}, expected {k}"
                    )
        spec: dict = {"kind": "abelian", "moduli": list(moduli)}
        if images is not None:
            spec["images"] = [list(v) for v in vecs]
        # coordinate c sits in bits [c*b, c*b + b): a residue is below
        # 2**(b-1), so the sum of two stays inside its field
        b = max(moduli).bit_length() + 1
        top = 1 << (b - 1)
        lift = high = mods = 0
        for c, m in enumerate(moduli):
            lift |= (top - m) << (c * b)
            high |= top << (c * b)
            mods |= m << (c * b)
        fill = (1 << b) - 1
        shift = b - 1

        def key_mul(x, y):
            # a field of s that reached m_c sets its top bit once lifted
            # by 2**(b-1) - m_c; that field loses m_c
            s = x + y
            return s - ((((s + lift) & high) >> shift) * fill & mods)

        def key_inv(x):
            return key_mul(mods - x, 0)

        gen_keys = [sum((a % m) << (c * b) for c, (a, m) in
                        enumerate(zip(v, moduli))) for v in vecs]
        return cls(spec, gen_keys, 0, key_mul, key_inv)

    @classmethod
    def permutation(
        cls, degree: int, images: Sequence[Sequence[int]]
    ) -> "FiniteQuotient":
        """Quotient inside the symmetric group on {0, ..., degree-1}.

        Permutations are one-line notation, 0-indexed, acting on the left;
        composition applies the right factor first.
        """
        degree = _as_int(degree, "permutation degree")
        if degree < 1:
            raise ValueError("permutation degree must be >= 1")
        # checked first, so nothing of size degree is built for a bad spec
        if not images or any(len(p) != degree for p in images):
            raise ValueError(f"a permutation level needs at least one image, "
                             f"each with exactly {degree} entries")
        gen_keys = []
        for p in images:
            t = tuple(_as_int(x, "permutation entry") for x in p)
            if sorted(t) != list(range(degree)):
                raise ValueError(f"{list(p)} is not a permutation of 0..{degree - 1}")
            gen_keys.append(t)
        spec = {
            "kind": "permutation",
            "degree": degree,
            "images": [list(p) for p in gen_keys],
        }
        rng = range(degree)

        def key_mul(p, q):
            return tuple(map(p.__getitem__, q))

        def key_inv(p):
            out = [0] * degree
            for i in rng:
                out[p[i]] = i
            return tuple(out)

        return cls(spec, gen_keys, tuple(rng), key_mul, key_inv)

    @staticmethod
    def from_json(spec: dict) -> "FiniteQuotient":
        if not isinstance(spec, dict):
            raise ValueError(f"a quotient must be a JSON object, got {spec!r}")
        kind = spec.get("kind")
        if kind not in ("abelian", "permutation"):
            raise ValueError(f"unknown quotient kind {kind!r}")
        size_key = "moduli" if kind == "abelian" else "degree"
        for key in spec:
            if key not in ("kind", size_key, "images"):
                raise ValueError(f"unknown key {key!r} in a quotient of kind "
                                 f"{kind!r}")
        if kind == "abelian":
            return FiniteQuotient.abelian(spec["moduli"], spec.get("images"))
        return FiniteQuotient.permutation(spec["degree"], spec["images"])

    def __eq__(self, other) -> bool:
        # JSON round trips compare levels built from different parses
        return self is other or (isinstance(other, FiniteQuotient)
                                 and self.spec == other.spec)

    def __hash__(self):
        return hash(self.order)  # equal specs give equal orders

    def to_json(self) -> dict:
        return copy.deepcopy(self.spec)

    # arithmetic -----------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self._index[self._key_mul(self._keys[i], self._keys[j])]

    def inv(self, i: int) -> int:
        j = self._inverses.get(i)
        if j is None:
            j = self._index[self._key_inv(self._keys[i])]
            self._inverses[i] = j
        return j

    def power(self, i: int, n: int) -> int:
        if n < 0:
            i, n = self.inv(i), -n
        acc, sq = self.identity, i
        while n:
            if n & 1:
                acc = self.mul(acc, sq)
            sq = self.mul(sq, sq)
            n >>= 1
        return acc

    def left_table(self, g: int) -> list[int]:
        table = self._left_tables.get(g)
        if table is None:
            # g x = (g p) s along the enumeration tree, parents first
            table = [g]
            for parent, right in self._tree:
                table.append(right[table[parent]])
            self._left_tables[g] = table
        return table

    def evaluate_word(
        self, word: Word, images: Optional[Sequence[int]] = None
    ) -> int:
        """Image of a free-group word, under the quotient's generator images
        or an explicit override (one element index per generator)."""
        imgs = self.generator_images if images is None else tuple(images)
        acc = self.identity
        for g, e in word:
            if g >= len(imgs):
                raise ValueError(
                    f"word uses generator index {g} but only {len(imgs)} images given"
                )
            acc = self.mul(acc, self.power(imgs[g], e))
        return acc

    # bookkeeping ----------------------------------------------------------

    def word_of(self, i: int) -> Word:
        """The shortest word the enumeration reached element i by: its
        parent's word with the step's letter appended, or merged into the
        last letter.  Words are built on the first request, in index order,
        so a parent's word is there before its children's."""
        words = self._words
        # a negative i counts from the end, as in a list
        last = i if 0 <= i < self.order else self.order - 1
        for j in range(len(words), last + 1):
            parent, right = self._tree[j - 1]
            # the tree names the step by its right table; step s is
            # generator s // 2, to the power -1 if s is odd
            s = next(s for s, r in enumerate(self._rights) if r is right)
            g, e = s >> 1, -1 if s & 1 else 1
            base = words[parent]
            if base and base[-1][0] == g:
                merged = base[-1][1] + e
                words.append(base[:-1] + ((g, merged),) if merged
                             else base[:-1])
            else:
                words.append(base + ((g, e),))
        return words[i]

    def __repr__(self) -> str:
        return f"FiniteQuotient({self.spec}, order={self.order})"


def push_to_quotient(
    elt: RingElt,
    quotient: FiniteQuotient,
    images: Optional[Sequence[int]] = None,
) -> dict[int, int]:
    """Push a group-ring element to the quotient: a sparse {index: coeff}
    map, coefficients of words with the same image added together."""
    out: dict[int, int] = {}
    for w, c in elt.items():
        i = quotient.evaluate_word(w, images)
        s = out.get(i, 0) + c
        if s:
            out[i] = s
        else:
            out.pop(i, None)
    return out
