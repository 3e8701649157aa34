import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torgrad.groups import FiniteQuotient
from torgrad.crossring import (
    Augmentation,
    MarkedModule,
    MarkedMorphism,
    celt_add,
    celt_from_json,
    celt_indicator,
    celt_mul,
    celt_sub,
    celt_to_json,
    level_from_json,
    level_to_json,
    marked_inclusion,
    measure,
    marked_projection,
    morphism_stats,
    op_norm,
    vector_l1,
    vector_stats,
    vector_supp1,
)
from torgrad.complexes import MarkedComplex
from torgrad.discretize import coinvariants_rank
from torgrad.verify import random_module, random_vector
from helpers import (
    coinvariants_dense,
    copying_celt_add,
    copying_celt_mul,
    insertion_order,
    matrix_rank,
    reference_apply,
    reference_aug_apply,
    reference_celt_add,
    reference_celt_mul,
    reference_then,
)

SP = FiniteQuotient.abelian([4])
SPS3 = FiniteQuotient.permutation(3, [[1, 0, 2], [1, 2, 0]])


def unit(space):
    """The multiplicative unit (chi_G, e)."""
    return celt_indicator(range(space.order), space.identity)


def project(module, vec):
    """vec with each component projected onto its summand."""
    return tuple(module.normalize_component(i, z) for i, z in enumerate(vec))


def build_celt(space, triples):
    out = {}
    for g, u, c in triples:
        out = celt_add(out, {g % space.order: {u % space.order: c}})
    return out


def celts(space):
    return st.builds(
        lambda ts: build_celt(space, ts),
        st.lists(
            st.tuples(st.integers(0, space.order - 1),
                      st.integers(0, space.order - 1),
                      st.integers(-3, 3)),
            max_size=5,
        ),
    )


@given(celts(SPS3), celts(SPS3), celts(SPS3))
@settings(deadline=None, max_examples=60)
def test_ring_axioms(x, y, z):
    sp = SPS3
    one = unit(sp)
    assert celt_mul(sp, one, x) == x
    assert celt_mul(sp, x, one) == x
    assert celt_mul(sp, celt_mul(sp, x, y), z) == celt_mul(sp, x, celt_mul(sp, y, z))
    lhs = celt_mul(sp, x, celt_add(y, z))
    rhs = celt_add(celt_mul(sp, x, y), celt_mul(sp, x, z))
    assert lhs == rhs


def test_twisted_product():
    # (chi_{1}, t) * (chi_{0}, t) = (chi_1 * (t.chi_0), t^2) = (chi_1, t^2)
    sp = SP
    t = sp.generator_images[0]
    x = celt_indicator([1], t)
    y = celt_indicator([0], t)
    t2 = sp.mul(t, t)
    assert celt_mul(sp, x, y) == {t2: {1: 1}}
    # and in the other order the supports miss: chi_0 * (t.chi_1) = chi_0 * chi_2 = 0
    assert celt_mul(sp, y, x) == {}


def test_stats_example():
    # z = (chi_{0,1}, t) + (2 chi_1, e) over Z/4
    sp = SP
    t = sp.generator_images[0]
    z = celt_add(celt_indicator([0, 1], t), {0: {1: 2}})
    s = vector_stats(sp, (z,))
    assert s.l1 == Fraction(4, 4)
    assert s.linf == 2
    assert s.n2 == 2  # point 1 is hit by both terms
    assert s.n1 == 1  # fibres sit over distinct base points
    assert s.supp1 == frozenset({0, 1})
    assert s.size1 == Fraction(1, 2)


@given(celts(SPS3))
@settings(deadline=None)
def test_supp1_is_left_support(z):
    # chi_{supp1(z)} * z = z
    sp = SPS3
    chi = celt_indicator(vector_supp1((z,)))
    assert celt_mul(sp, chi, z) == z


@given(celts(SPS3), celts(SPS3))
@settings(deadline=None, max_examples=60)
def test_stats_submultiplicative(x, y):
    sp = SPS3
    sx, sy = vector_stats(sp, (x,)), vector_stats(sp, (y,))
    sxy = vector_stats(sp, (celt_mul(sp, x, y),))
    assert sxy.n1 <= sx.n1 * sy.n1
    assert sxy.n2 <= sx.n2 * sy.n2
    assert sxy.l1 <= sx.l1 * sy.l1 * sp.order
    assert sxy.linf <= min(sx.n2 * sx.linf * sy.linf, sy.n1 * sx.linf * sy.linf)


def spaces_modules():
    dom = MarkedModule(SP, [{0, 1, 2}, {1, 3}])
    cod = MarkedModule(SP, [{0, 2, 3}, {0, 1, 2, 3}])
    return dom, cod


def morphisms():
    dom, cod = spaces_modules()
    entry = celts(SP)
    return st.builds(
        lambda e00, e01, e10, e11: MarkedMorphism(dom, cod, [[e00, e01], [e10, e11]]),
        entry, entry, entry, entry,
    )


def domain_vectors():
    dom, _ = spaces_modules()
    return st.builds(
        lambda a, b: project(dom, (a, b)), celts(SP), celts(SP)
    )


def test_module_dim_and_atoms():
    dom, cod = spaces_modules()
    assert dom.dim() == Fraction(3, 4) + Fraction(2, 4)
    assert list(dom.atoms()) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 3)]
    with pytest.raises(ValueError):
        dom.atom(1, 0)


def test_entry_normalisation():
    dom, cod = spaces_modules()
    t = SP.generator_images[0]
    # raw entry has full support; stored entry is cut to A_0 and g B_0
    raw = celt_indicator(range(4), t)
    f = MarkedMorphism(dom, cod, [[raw, {}], [{}, {}]])
    tB0 = {SP.left_table(t)[u] for u in cod.carriers[0]}
    assert set(f.entries[0][0][t]) == dom.carriers[0] & tB0


def test_identity_and_projection():
    dom, cod = spaces_modules()
    ident = MarkedMorphism.identity(dom)
    vec = project(dom, (celt_indicator(range(4)), unit(SP)))
    assert ident.apply(vec) == vec
    iota = marked_inclusion(dom, MarkedModule.full(SP, 2))
    pi = marked_projection(MarkedModule.full(SP, 2), dom)
    assert iota.then(pi) == MarkedMorphism.identity(dom)
    assert op_norm(iota) <= 1 and op_norm(pi) <= 1


@given(morphisms(), domain_vectors(), domain_vectors())
@settings(deadline=None, max_examples=40)
def test_apply_is_linear(f, u, v):
    lhs = f.apply(tuple(celt_add(a, b) for a, b in zip(u, v)))
    rhs = tuple(celt_add(a, b) for a, b in zip(f.apply(u), f.apply(v)))
    assert lhs == rhs


@given(morphisms(), morphisms())
@settings(deadline=None, max_examples=30)
def test_composition_matches_application(f, g):
    dom, cod = spaces_modules()
    swap = MarkedMorphism(cod, dom, [[{}, unit(SP)], [unit(SP), {}]])
    h = f.then(swap).then(g)
    for i, u in dom.atoms():
        atom = dom.atom(i, u)
        assert h.apply(atom) == g.apply(swap.apply(f.apply(atom)))


@given(morphisms(), domain_vectors())
@settings(deadline=None, max_examples=60)
def test_op_norm_controls_l1(f, vec):
    out = f.apply(vec)
    s_in = vector_stats(SP, vec)
    s_out = vector_stats(SP, out)
    assert s_out.l1 <= op_norm(f) * s_in.l1
    stats = morphism_stats(f)
    # N_2max * linf dominates the operator norm
    assert op_norm(f) <= stats.n2_max * stats.linf


@given(morphisms(), morphisms())
@settings(deadline=None, max_examples=30)
def test_norm_submultiplicative_and_rank_monotone(f, g):
    dom, cod = spaces_modules()
    swap = MarkedMorphism(cod, dom, [[{}, unit(SP)], [unit(SP), {}]])
    fg = f.then(swap).then(g)
    assert op_norm(fg) <= op_norm(f) * op_norm(swap) * op_norm(g)
    # coinvariants are functorial, so the rank of fg is at most that of g
    rank_g = matrix_rank(coinvariants_dense(g))
    assert matrix_rank(coinvariants_dense(fg)) <= rank_g
    assert rank_g <= coinvariants_rank(g.codomain)


@given(morphisms())
@settings(deadline=None, max_examples=30)
def test_coinvariant_column_norms_are_atom_image_masses(f):
    # each cell of the coinvariants matrix gets one term, so the l1 norm of
    # the column of atom (i, u) is the mass of its image: the lognorm bound
    # reads its atom norms off these columns
    dom, _ = spaces_modules()
    norms = [sum(map(abs, col)) for col in zip(*coinvariants_dense(f))]
    assert norms == [vector_l1(f.apply(dom.atom(i, u)))
                     for i, u in dom.atoms()]
    assert op_norm(f) == max(norms)


def test_k_bound_needs_joint_counts():
    # one atom mapping onto two codomain summands: ||f|| = 2, and the joint
    # N_2 of the row must see both hits
    dom = MarkedModule(SP, [{0}])
    cod = MarkedModule.full(SP, 2)
    e = celt_indicator([0])
    f = MarkedMorphism(dom, cod, [[e, e]])
    assert op_norm(f) == 2
    s = morphism_stats(f)
    assert s.n2_max == 2 and s.linf == 1
    assert s.n2_max * s.linf >= op_norm(f)


def test_almost_eq_report():
    # f and g agree up to one atom: their difference has size 1/4 and
    # operator norm 1
    dom, cod = spaces_modules()
    f = MarkedMorphism.zero(dom, cod)
    g = MarkedMorphism(dom, cod, [[celt_indicator([0]), {}], [{}, {}]])
    diff = f.sub(g)
    assert morphism_stats(diff).size1 == Fraction(1, 4)
    assert op_norm(diff) == 1


def test_morphism_json_round_trip():
    dom, cod = spaces_modules()
    t = SP.generator_images[0]
    f = MarkedMorphism(
        dom, cod,
        [[celt_indicator([0, 2], t), {0: {1: -2}}], [{}, unit(SP)]],
    )
    again = MarkedMorphism.from_json(f.to_json())
    assert again.entries == f.entries
    assert again.domain.carriers == f.domain.carriers


@given(celts(SPS3))
@settings(deadline=None, max_examples=40)
def test_celt_json_round_trip(z):
    assert celt_from_json(SPS3, celt_to_json(SPS3, z)) == z


def test_augmentation_norm_is_exact():
    dom, _ = spaces_modules()
    eta = Augmentation(dom, [{0: 1, 1: -3}, {1: 2, 3: 1}])
    assert eta.linf() == 3
    # the sup of |eta(m)|_1 / |m|_1 over atoms equals linf
    best = Fraction(0)
    for i, u in dom.atoms():
        atom = dom.atom(i, u)
        val = eta.apply(atom)
        mass = Fraction(sum(abs(c) for c in val.values()), SP.order)
        best = max(best, mass / vector_stats(SP, atom).l1)
    assert best == eta.linf()


@given(domain_vectors())
@settings(deadline=None, max_examples=60)
def test_augmentation_contract(vec):
    dom, _ = spaces_modules()
    eta = Augmentation(dom, [{0: 1, 1: -3}, {1: 2, 3: 1}])
    val = eta.apply(vec)
    mass = Fraction(sum(abs(c) for c in val.values()), SP.order)
    assert mass <= eta.linf() * vector_stats(SP, vec).l1


@given(morphisms())
@settings(deadline=None, max_examples=30)
def test_augmentation_composition(f):
    dom, cod = spaces_modules()
    eta = Augmentation(cod, [{0: 1, 2: -1}, {1: 1}])
    comp = eta.after(f)
    for i, u in dom.atoms():
        atom = dom.atom(i, u)
        assert comp.apply(atom) == eta.apply(f.apply(atom))


def assert_refused(reader, data, path, value, match):
    """reader reads data back, and refuses it once the item at path is
    set to value."""
    assert reader(data).to_json() == data
    *head, last = path
    target = data
    for key in head:
        target = target[key]
    target[last] = value
    with pytest.raises(ValueError, match=match):
        reader(data)


@pytest.mark.parametrize("value", [1.5, 1.0, "1", True],
                         ids=["1.5", "1.0", "string", "bool"])
def test_json_readers_refuse_non_integer_numbers(value):
    dom, _ = spaces_modules()
    f = MarkedMorphism.identity(dom)
    cx = MarkedComplex([dom], [], Augmentation(dom, [{0: 1, 1: -3}, {1: 2}]))
    # the morphism reader checks carrier points, the complex reader also
    # its augmentation values' points and coefficients
    cases = [(MarkedMorphism.from_json, f.to_json(), ("domain", 1, 0)),
             (MarkedComplex.from_json, cx.to_json(), ("degrees", 0, 1, 0)),
             (MarkedComplex.from_json, cx.to_json(),
              ("augmentation", 0, 0, 0)),
             (MarkedComplex.from_json, cx.to_json(),
              ("augmentation", 0, 1, 1))]
    for reader, data, path in cases:
        assert_refused(reader, data, path, value, "must be an integer")


@pytest.mark.parametrize("point", [-1, SP.order], ids=["-1", "order"])
def test_json_readers_refuse_points_outside_the_level(point):
    dom, _ = spaces_modules()
    f = MarkedMorphism.identity(dom)
    cx = MarkedComplex([dom, dom], [f],
                       Augmentation(dom, [{0: 1, 1: -3}, {1: 2}]))
    # a fibre point of an entry or an augmentation value's point outside
    # the level is refused like a carrier point, not dropped
    cases = [(MarkedMorphism.from_json, f.to_json(), ("domain", 1, 0)),
             (MarkedMorphism.from_json, f.to_json(),
              ("entries", 0, 0, 0, "coeffs", 0, 0)),
             (MarkedComplex.from_json, cx.to_json(),
              ("boundaries", 0, 0, 0, 0, "coeffs", 0, 0)),
             (MarkedComplex.from_json, cx.to_json(),
              ("augmentation", 0, 0, 0))]
    for reader, data, path in cases:
        assert_refused(reader, data, path, point, "outside the level")


def test_json_readers_refuse_points_outside_the_allowed_support():
    dom, _ = spaces_modules()
    f = MarkedMorphism.identity(dom)
    cx = MarkedComplex([dom, dom], [f],
                       Augmentation(dom, [{0: 1, 1: -3}, {1: 2}]))
    # point 3 lies in the level but outside A_0 = {0, 1, 2}; normalisation
    # would drop it and measure another map, so the readers refuse it
    cases = [(MarkedMorphism.from_json, f.to_json(),
              ("entries", 0, 0, 0, "coeffs", 0, 0), "outside the support"),
             (MarkedComplex.from_json, cx.to_json(),
              ("boundaries", 0, 0, 0, 0, "coeffs", 0, 0),
              "outside the support"),
             (MarkedComplex.from_json, cx.to_json(),
              ("augmentation", 0, 0, 0), "outside carrier 0")]
    for reader, data, path, match in cases:
        assert_refused(reader, data, path, 3, match)


def test_json_readers_refuse_a_point_listed_twice():
    dom, _ = spaces_modules()
    f = MarkedMorphism.identity(dom)
    cx = MarkedComplex([dom, dom], [f],
                       Augmentation(dom, [{0: 1, 1: -3}, {1: 2}]))
    # a point given twice in one term's coeffs or in one augmentation
    # value used to be read as its last coefficient
    cases = [(MarkedMorphism.from_json, f.to_json(),
              ("entries", 0, 0, 0, "coeffs", 1, 0)),
             (MarkedComplex.from_json, cx.to_json(),
              ("boundaries", 0, 0, 0, 0, "coeffs", 1, 0)),
             (MarkedComplex.from_json, cx.to_json(),
              ("augmentation", 0, 1, 0))]
    for reader, data, path in cases:
        assert_refused(reader, data, path, 0, "point 0 listed twice")


def test_char_p_coefficients():
    # coefficients are integers: a serialized char must be absent or 0
    data = level_to_json(FiniteQuotient.abelian([4]))
    assert data == {"quotient": {"kind": "abelian", "moduli": [4]}}
    assert level_from_json(data) == SP
    assert level_from_json(dict(data, char=0)) == SP
    for char in (2, 3, 1, -1, "0", False, 0.0):
        with pytest.raises(ValueError, match="char must be absent or 0"):
            level_from_json(dict(data, char=char))


def test_measure_is_normalised_counting():
    assert measure(SP, 0) == 0 and measure(SP, 4) == 1
    assert measure(SPS3, 2) == Fraction(1, 3)
    # n / |G| depends on the level only through its order
    assert measure(FiniteQuotient.abelian([6]), 2) == Fraction(1, 3)
    assert measure(SP, 10 ** 6) == Fraction(10 ** 6, 4)
    assert MarkedModule(SP, [[0, 1], [2]]).dim() == Fraction(3, 4)


def test_vector_sub_and_stats_join():
    dom, _ = spaces_modules()
    a = project(dom, (celt_indicator([0, 1]), {}))
    b = project(dom, ({}, celt_indicator([1])))
    d = tuple(celt_sub(x, y) for x, y in zip(a, b))
    s = vector_stats(SP, d)
    assert s.n2 == 2  # point 1 hit in both summands
    assert s.size1 == Fraction(1, 2)


# raw coefficients, zeros included
raw_vectors = st.lists(
    st.dictionaries(st.integers(0, 3),
                    st.dictionaries(st.integers(0, 3), st.integers(-6, 6),
                                    max_size=3),
                    max_size=3),
    max_size=3,
).map(tuple)


@given(raw_vectors)
@settings(deadline=None, max_examples=80)
def test_vector_l1_is_unnormalised_l1(x):
    assert vector_l1(x) == vector_stats(SP, x).l1 * SP.order


# abelian levels, S3 and the dihedral group of order 8
ORACLE_LEVELS = {
    "Z4": SP,
    "Z2xZ3": FiniteQuotient.abelian([2, 3]),
    "S3": SPS3,
    "D8": FiniteQuotient.permutation(4, [[1, 2, 3, 0], [3, 2, 1, 0]]),
}


def small_celt(rng, order):
    """Up to four group elements, each with a function of at most three
    points and coefficients in -2..2, drawn in random_celt's order."""
    celt = {}
    for g in rng.sample(range(order), rng.randint(1, min(4, order))):
        fn = {}
        for u in rng.sample(range(order), rng.randint(1, min(3, order))):
            c = rng.randint(-2, 2)
            if c:
                fn[u] = c
        if fn:
            celt[g] = fn
    return celt


def random_morphism_between(rng, dom, cod):
    """Dense, small coefficients: sums and products often cancel."""
    order = dom.space.order
    return MarkedMorphism(dom, cod, [
        [small_celt(rng, order) if rng.random() < 0.8 else {}
         for _ in cod.carriers]
        for _ in dom.carriers])


def random_augmentation(rng, module):
    """Values of at most three carrier points, coefficients in -2..2."""
    values = []
    for A in module.carriers:
        points = rng.sample(sorted(A), min(len(A), rng.randint(0, 3)))
        values.append({u: rng.randint(-2, 2) for u in points})
    return Augmentation(module, values)


def fibres(*objs):
    """Every fibre dict held by nested tuples, lists and ring elements."""
    out = []
    for obj in objs:
        if isinstance(obj, (tuple, list)):
            out += fibres(*obj)
        else:
            out += obj.values()
    return out


@pytest.mark.parametrize("name", ORACLE_LEVELS)
def test_ring_products_match_pointwise_oracle(name):
    space = ORACLE_LEVELS[name]
    rng = random.Random(name)
    # the augmentations draw from a generator of their own, so the other
    # draws stay those of the ring products alone
    aug_rng = random.Random(name + "/augmentation")
    for _ in range(25):
        dom, mid, cod = (random_module(rng, space) for _ in range(3))
        f = random_morphism_between(rng, dom, mid)
        same = random_morphism_between(rng, dom, mid)
        g = random_morphism_between(rng, mid, cod)
        vec = random_vector(rng, dom, max_terms=3)
        eta = random_augmentation(aug_rng, mid)
        mid_vec = random_vector(aug_rng, mid, max_terms=3)
        x, y = f.entries[0][0], g.entries[0][0]
        args = (f.entries, same.entries, g.entries, vec, mid_vec)
        before = copy.deepcopy(args)
        values_before = copy.deepcopy(eta.values)
        results = {
            "celt_mul": celt_mul(space, x, y),
            "celt_add": celt_add(x, y),
            "celt_sub": celt_sub(x, y),
            "apply": f.apply(vec),
            "then": f.then(g).entries,
            "sub": f.sub(same).entries,
        }
        aug_apply = eta.apply(mid_vec)
        aug_after = eta.after(f)
        # nothing written into an argument or a stored entry, and no
        # result shares a fibre with one
        assert args == before
        assert eta.values == values_before
        held = {id(fib) for fib in fibres(*args)}
        held.update(id(v) for v in eta.values)
        assert not any(id(fib) in held for fib in fibres(*results.values()))
        assert not any(id(v) in held for v in (aug_apply, *aug_after.values))

        assert results["celt_mul"] == reference_celt_mul(space, x, y)
        assert results["celt_add"] == reference_celt_add(space, x, y)
        assert results["celt_sub"] == reference_celt_add(space, x, y, -1)
        assert results["apply"] == reference_apply(f, vec)
        assert results["then"] == reference_then(f, g)
        assert results["sub"] == tuple(
            tuple(reference_celt_add(space, a, b, -1) for a, b in zip(ra, rb))
            for ra, rb in zip(f.entries, same.entries))
        assert aug_apply == reference_aug_apply(eta, mid_vec)
        assert aug_after == Augmentation(dom, [
            reference_aug_apply(eta, f.row(i)) for i in range(dom.rank)])

        # one sum or one product into an empty target keeps the insertion
        # order of copying before every addition
        assert (insertion_order(results["celt_mul"])
                == insertion_order(copying_celt_mul(space, x, y)))
        assert (insertion_order(results["celt_add"])
                == insertion_order(copying_celt_add(x, y)))


def test_accumulation_through_a_product_that_cancels():
    # over Z/2 the second product cancels in its own fibre at e; added
    # term by term into the first product, it deletes point 0 of that
    # fibre and writes it back, and the sum keeps its value
    space = FiniteQuotient.abelian([2])
    full = MarkedModule.full(space, 1)
    f = MarkedMorphism(MarkedModule.full(space, 2), full,
                       [[{0: {0: 1, 1: 1}}], [{0: {0: 1}, 1: {1: 1}}]])
    x2 = {0: {0: -1}, 1: {0: 1}}
    assert celt_mul(space, x2, f.entries[1][0]) == {}
    assert f.apply(({0: {0: 1, 1: 2}}, x2)) == ({0: {0: 1, 1: 2}},)
