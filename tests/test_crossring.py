from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torgrad.groups import FiniteQuotient
from torgrad.crossring import (
    Augmentation,
    MarkedModule,
    MarkedMorphism,
    atom_norms,
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
from torgrad.discretize import coinvariants_rank, matrix_rank
from helpers import coinvariants_dense

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
    iota = marked_inclusion(dom, MarkedModule.full(SP, 2), [0, 1])
    pi = marked_projection(MarkedModule.full(SP, 2), dom, [0, 1])
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
def test_atom_norms_are_atom_image_masses(f):
    dom, _ = spaces_modules()
    norms = atom_norms(f)
    assert list(norms) == list(dom.atoms())
    for i, u in dom.atoms():
        assert norms[i, u] == vector_l1(f.apply(dom.atom(i, u)))
    assert op_norm(f) == max(norms.values())


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


def test_augmentation_json_round_trip():
    dom, _ = spaces_modules()
    eta = Augmentation(dom, [{0: 1, 1: -3}, {1: 2}])
    again = Augmentation.from_json(eta.to_json())
    assert again.values == eta.values
    assert again.sub(eta).is_zero()


@pytest.mark.parametrize("value", [1.5, 1.0, "1", True],
                         ids=["1.5", "1.0", "string", "bool"])
def test_json_readers_refuse_non_integer_numbers(value):
    dom, _ = spaces_modules()
    eta = Augmentation(dom, [{0: 1, 1: -3}, {1: 2}])
    # the module reader checks carrier points, the augmentation reader also
    # its values' points and coefficients
    cases = [(MarkedModule.from_json, dom.to_json(), ("carriers", 0, 0)),
             (Augmentation.from_json, eta.to_json(), ("carriers", 1, 0)),
             (Augmentation.from_json, eta.to_json(), ("values", 0, 0, 0)),
             (Augmentation.from_json, eta.to_json(), ("values", 0, 1, 1))]
    for reader, data, path in cases:
        assert reader(data).to_json() == data
        *head, last = path
        target = data
        for key in head:
            target = target[key]
        target[last] = value
        with pytest.raises(ValueError, match="must be an integer"):
            reader(data)


def test_char_p_coefficients():
    # coefficients are integers: a serialized char must be absent or 0
    data = level_to_json(FiniteQuotient.abelian([4]))
    assert data == {"quotient": {"kind": "abelian", "moduli": [4]}}
    assert level_from_json(data) == SP
    assert level_from_json(dict(data, char=0)) == SP
    for char in (2, 3, 1, -1, "0"):
        with pytest.raises(ValueError, match="char must be absent or 0"):
            level_from_json(dict(data, char=char))


def test_measure_is_normalised_counting():
    assert measure(SP, 0) == 0 and measure(SP, 4) == 1
    assert measure(SPS3, 2) == Fraction(1, 3)
    # memoised values are shared only between levels of one order
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
