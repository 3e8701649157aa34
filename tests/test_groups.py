import math
import os
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from torgrad.groups import (
    FiniteQuotient,
    OrderCapExceeded,
    Presentation,
    fox_derivative,
    parse_word,
    push_to_quotient,
    reduce_word,
    word_to_str,
)
from torgrad.verify import QUOTIENT_SPECS
from helpers import (
    ReferenceQuotient,
    fox_identity_defect,
    ring_add,
    ring_from_word,
    ring_mul,
    ring_one,
    ring_sub,
)

words = st.builds(
    reduce_word,
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(-3, 3)), max_size=6
    ),
)


def test_parse_basics():
    assert parse_word("aba-1b-1") == ((0, 1), (1, 1), (0, -1), (1, -1))
    assert parse_word("a^2 c-3") == ((0, 2), (2, -3))
    assert parse_word("") == ()
    assert parse_word("1") == ()
    assert parse_word("aa-1") == ()
    assert parse_word("a0b") == ((1, 1),)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("a+b")
    with pytest.raises(ValueError):
        parse_word("2a")


def test_word_to_str_round_trip():
    for text in ("", "aba-1b-1", "a2b-3", "c5"):
        assert word_to_str(parse_word(text)) == text


def test_generators_past_z_are_braced():
    # index k >= 26 spells {k}, its exponent following as for a letter
    word = ((0, 1), (26, 1), (27, -2), (25, 3))
    assert word_to_str(word) == "a{26}{27}-2z3"
    assert parse_word("a{26}{27}-2z3") == word
    assert parse_word("{26}^2 {0}") == ((26, 2), (0, 1))
    assert word_to_str(parse_word("{2}b-1")) == "cb-1"
    with pytest.raises(ValueError):
        parse_word("{26")
    with pytest.raises(ValueError,
                       match=re.escape("relator '{30}' uses generator index")):
        Presentation(27, [((30, 1),)])


def test_reduce_merges_through_cancellation():
    # abb-1a reduces to a^2, not to two separate a's
    assert reduce_word([(0, 1), (1, 1), (1, -1), (0, 1)]) == ((0, 2),)


@given(words, words, words)
@settings(deadline=None)
def test_word_group_laws(u, v, w):
    # free reduction is associative and cancels a word against its inverse
    assert (reduce_word(reduce_word(u + v) + w)
            == reduce_word(u + reduce_word(v + w)))
    inv = tuple((g, -e) for g, e in reversed(u))
    assert reduce_word(u + inv) == ()
    assert reduce_word(inv + u) == ()
    assert reduce_word(u) == u


ring_elts = st.builds(
    lambda pairs: {w: c for w, c in pairs if c},
    st.lists(st.tuples(words, st.integers(-4, 4)), max_size=4),
)


@given(ring_elts, ring_elts, ring_elts)
@settings(deadline=None, max_examples=60)
def test_ring_laws(x, y, z):
    assert ring_mul(ring_mul(x, y), z) == ring_mul(x, ring_mul(y, z))
    assert ring_mul(x, ring_add(y, z)) == ring_add(ring_mul(x, y), ring_mul(x, z))
    assert ring_mul(ring_one(), x) == x
    assert ring_sub(x, x) == {}


def test_fox_derivative_of_commutator():
    # d/da (aba-1b-1) = 1 - aba-1 and d/db = a - aba-1b-1, checked by hand
    w = parse_word("aba-1b-1")
    da = fox_derivative(w, 0)
    db = fox_derivative(w, 1)
    assert da == ring_sub(ring_one(), ring_from_word(parse_word("aba-1")))
    assert db == ring_sub(ring_from_word(parse_word("a")), ring_from_word(w))


def test_fox_derivative_powers():
    assert fox_derivative(parse_word("a3"), 0) == {
        (): 1,
        ((0, 1),): 1,
        ((0, 2),): 1,
    }
    assert fox_derivative(parse_word("a-2"), 0) == {
        ((0, -1),): -1,
        ((0, -2),): -1,
    }
    assert fox_derivative(parse_word("b"), 0) == {}


@given(words)
@settings(deadline=None)
def test_fox_fundamental_identity(w):
    # sum_g dw/dg (g - 1) = w - 1
    assert fox_identity_defect(w, 3) == {}


def s3_quotient():
    return FiniteQuotient.permutation(3, [[1, 0, 2], [1, 2, 0]])


def test_permutation_quotient_s3():
    q = s3_quotient()
    assert q.order == 6
    assert q.identity == 0
    a, b = q.generator_images
    # conjugation a b a^-1 is the other 3-cycle
    conj = q.evaluate_word(parse_word("aba-1"))
    assert conj == q.inv(b) != b
    assert q.mul(a, a) == q.identity
    assert q.power(b, 3) == q.identity
    assert q.inv(b) == q.power(b, 2)


def test_word_of_round_trip():
    for q in (s3_quotient(), FiniteQuotient.abelian([4, 4])):
        # words are built on request: a negative index still counts from
        # the end before any other word exists
        assert q.word_of(-1) == q.word_of(q.order - 1) != ()
        for i in range(q.order):
            assert q.evaluate_word(q.word_of(i)) == i


def test_left_table():
    q = s3_quotient()
    g = q.generator_images[1]
    table = q.left_table(g)
    assert table == [q.mul(g, x) for x in range(q.order)]
    assert sorted(table) == list(range(q.order))


abelian_quotients = st.integers(1, 3).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(1, 6), min_size=k, max_size=k),
        st.lists(st.lists(st.integers(-7, 7), min_size=k, max_size=k),
                 min_size=1, max_size=4),
    )
).map(lambda spec: FiniteQuotient.abelian(*spec))

permutation_quotients = st.integers(1, 5).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3)
    .map(lambda images: FiniteQuotient.permutation(d, images))
)


@given(st.one_of(abelian_quotients, permutation_quotients))
@settings(deadline=None, max_examples=60)
def test_left_table_matches_mul(q):
    # tables come from the enumeration tree, mul from key arithmetic
    for g in range(q.order):
        assert q.left_table(g) == [q.mul(g, x) for x in range(q.order)]


@given(st.one_of(abelian_quotients, permutation_quotients))
@settings(deadline=None, max_examples=60)
def test_quotient_words_are_reduced(q):
    # each representative word extends its parent's by one letter, merged
    # into the last; it must come out as free reduction would leave it
    for i in range(q.order):
        word = q.word_of(i)
        assert reduce_word(word) == word
        assert q.evaluate_word(word) == i


def test_enumeration_order_frozen():
    # element indices and representative words are part of the output
    # (a word list pins the order: evaluate_word sends word i back to i)
    q = s3_quotient()
    words = [(), ((0, 1),), ((1, 1),), ((1, -1),), ((0, 1), (1, 1)),
             ((0, 1), (1, -1))]
    assert [q.word_of(i) for i in range(q.order)] == words
    assert [q.evaluate_word(w) for w in words] == list(range(q.order))
    q = FiniteQuotient.abelian([3, 2], images=[[1, 1], [2, 0]])
    words = [(), ((0, 1),), ((0, -1),), ((1, 1),), ((1, -1),),
             ((0, 1), (1, 1))]
    assert [q.word_of(i) for i in range(q.order)] == words
    assert [q.evaluate_word(w) for w in words] == list(range(q.order))


def test_abelian_quotient_defaults():
    q = FiniteQuotient.abelian([2, 2])
    assert q.order == 4
    x, y = q.generator_images
    assert q.mul(x, x) == q.identity
    assert q.mul(x, y) == q.mul(y, x)


def test_abelian_quotient_with_images():
    # four generators onto Z/5, only the first one acting
    q = FiniteQuotient.abelian([5], images=[[1], [0], [0], [0]])
    assert q.order == 5
    assert q.generator_images[1:] == (q.identity,) * 3
    assert q.evaluate_word(parse_word("a7")) == q.evaluate_word(parse_word("a2"))


def test_modulus_one_is_trivial():
    q = FiniteQuotient.abelian([1])
    assert q.order == 1
    assert q.evaluate_word(parse_word("a-9")) == q.identity


def test_quotient_json_round_trip():
    for q in (
        s3_quotient(),
        FiniteQuotient.abelian([3, 3]),
        FiniteQuotient.abelian([5], images=[[1], [0]]),
    ):
        again = FiniteQuotient.from_json(q.to_json())
        assert again.to_json() == q.to_json()
        assert again.order == q.order
        # levels from different parses are equal, and hash alike, by spec
        assert again == q and hash(again) == hash(q)
    assert FiniteQuotient.abelian([6]) != FiniteQuotient.abelian([2, 3])
    assert FiniteQuotient.abelian([2]) != FiniteQuotient.permutation(
        2, [[1, 0]])


@pytest.mark.parametrize("spec, key", [
    ({"kind": "abelian", "moduli": [3], "degree": 3}, "degree"),
    ({"kind": "abelian", "moduli": [3], "image": [[1]]}, "image"),
    ({"kind": "permutation", "degree": 2, "images": [[1, 0]], "moduli": [2]},
     "moduli"),
    ({"kind": "permutation", "degree": 2, "images": [[1, 0]], "char": 0},
     "char"),
])
def test_quotient_json_refuses_unknown_keys(spec, key):
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        FiniteQuotient.from_json(spec)


@pytest.mark.parametrize("images", [[], [[1, 0, 2], [1, 0]], [[1, 0]]])
def test_permutation_images_need_degree_entries(images):
    with pytest.raises(ValueError, match="exactly 3 entries"):
        FiniteQuotient.permutation(3, images)


def test_quotient_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FiniteQuotient.from_json({"kind": "profinite"})


def test_order_cap(monkeypatch):
    # a level of order n is refused under the cap n - 1, accepted under n
    for build, order in (
        (s3_quotient, 6),
        (lambda: FiniteQuotient.abelian([3, 4], images=[[1, 2], [0, 3]]), 12),
    ):
        monkeypatch.setenv("TORGRAD_ORDER_CAP", str(order - 1))
        with pytest.raises(OrderCapExceeded, match=(
                f"^quotient enumeration exceeded {order - 1} elements; raise "
                "TORGRAD_ORDER_CAP to allow larger levels$")):
            build()
        monkeypatch.setenv("TORGRAD_ORDER_CAP", str(order))
        assert build().order == order
        monkeypatch.setenv("TORGRAD_ORDER_CAP", "zero")
        with pytest.raises(ValueError):
            build()


def test_push_to_quotient_merges_words():
    q = FiniteQuotient.abelian([2])
    # a and a^3 agree in Z/2, a^2 collapses onto the identity
    elt = ring_add(ring_from_word(parse_word("a")), ring_from_word(parse_word("a3")))
    assert push_to_quotient(elt, q) == {q.generator_images[0]: 2}
    elt = ring_sub(ring_from_word(parse_word("a2")), ring_one())
    assert push_to_quotient(elt, q) == {}


# moduli 1, 2, 2^t and 2^t +- 1 up to 10^4: the field width b of a packed
# key jumps at each power of two, and 2^t - 1 fills its field
ORACLE_MODULI = sorted({1, 2} | {m for t in range(2, 14)
                                 for m in (2 ** t - 1, 2 ** t, 2 ** t + 1)
                                 if m <= 10 ** 4})
image_entries = st.one_of(st.just(0), st.integers(-3, 3),
                          st.integers(-10 ** 4, 10 ** 4))


@st.composite
def abelian_specs(draw):
    """Up to 40 coordinates; at most three are active, with moduli whose
    product is at most 10^4, so the level fits under the default order
    cap.  An inert coordinate's image entries are multiples of its
    modulus: zero residues, but raw entries negative, zero or positive."""
    active = draw(st.lists(st.sampled_from(ORACLE_MODULI), min_size=1,
                           max_size=3)
                  .filter(lambda ms: math.prod(ms) <= 10 ** 4))
    inert = draw(st.lists(st.sampled_from(ORACLE_MODULI),
                          min_size=draw(st.integers(0, 40 - len(active))),
                          max_size=40 - len(active)))
    order = draw(st.permutations(range(len(active) + len(inert))))
    moduli = [(active + inert)[c] for c in order]
    if not inert and draw(st.booleans()):
        return {"kind": "abelian", "moduli": moduli}
    images = []
    for _ in range(draw(st.integers(1, 3))):
        entries = [draw(image_entries) for _ in active]
        entries += [m * draw(st.integers(-2, 2)) for m in inert]
        images.append([entries[c] for c in order])
    return {"kind": "abelian", "moduli": moduli, "images": images}


permutation_specs = st.integers(1, 6).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3)
    .map(lambda images: {"kind": "permutation", "degree": d,
                         "images": [list(p) for p in images]}))


def _examples(specs):
    def attach(test):
        for spec in specs:
            test = example(spec)(test)
        return test
    return attach


@given(st.one_of(abelian_specs(), permutation_specs))
@_examples(QUOTIENT_SPECS + (
    {"kind": "abelian", "moduli": [2 ** 13 - 1], "images": [[-1]]},
    {"kind": "abelian", "moduli": [1, 10 ** 4 - 1, 1],
     "images": [[5, -10 ** 4, 0], [0, 0, -7]]},
    {"kind": "abelian", "moduli": [2 ** 11 + 1, 2] + [1] * 37 + [2],
     "images": [[-1] + [0] * 38 + [1], [0, 1] + [5] * 37 + [0]]},
))
@settings(deadline=None, max_examples=60)
def test_quotient_matches_tuple_key_oracle(spec):
    # packed keys and on-demand words against the enumeration on tuple
    # keys: same element order (the generators' left tables are the
    # labelled Cayley graph), products, inverses, powers and words
    with mock.patch.dict(os.environ, {"TORGRAD_ORDER_CAP": "10000"}):
        q = FiniteQuotient.from_json(spec)
    ref = ReferenceQuotient(spec)
    n = q.order
    assert n == ref.order
    assert q.generator_images == ref.generator_images
    rng = random.Random(n)
    sample = sorted({0, n - 1, *(rng.randrange(n) for _ in range(8))})
    for g in sorted(set(q.generator_images)) + sample:
        assert q.left_table(g) == ref.left_table(g)
    pairs = [(i, j) for i in sample for j in sample]
    assert [q.mul(i, j) for i, j in pairs] == [ref.mul(i, j) for i, j in pairs]
    assert [q.inv(i) for i in range(n)] == [ref.inv(i) for i in range(n)]
    for i in sample:
        for e in (-n - 1, -2, -1, 0, 1, 2, 3, n):
            assert q.power(i, e) == ref.power(i, e)
    assert [q.word_of(i) for i in reversed(range(n))] == ref.words[::-1]
