"""End-to-end acceptance run, one criterion per test.

Each test prints a single `[ACCEPTANCE] criterion k: PASS` line (visible
under `pytest -s`) and enforces its runtime budget on top of the exact
checks.  Seeds are fixed, so the run is reproducible bit for bit.
"""

import math
import random
import time
from fractions import Fraction

from torgrad.groups import FiniteQuotient
from torgrad.crossring import (
    MarkedModule,
    MarkedMorphism,
    marked_inclusion,
    morphism_stats,
    op_norm,
    vector_l1,
)
from torgrad.complexes import defect_report, gh_verify, induce_resolution
from torgrad.constructions import (
    integers_embedding,
    resolution_by_name,
    rokhlin_partition,
)
from torgrad.discretize import (
    coinvariants_complex,
    homology_of_complex,
    retract_inequality_check,
)
from torgrad.lognorm import (
    gabber_column_bound,
    gabber_exact,
    gabber_split_bound,
    log_plus,
    lognorm_exact,
    lognorm_upper,
)
from torgrad.strictify import strictify_complex
from helpers import coinvariants_dense
from torgrad.pipeline import (
    ROKHLIN_GRID,
    brute_force_op_norm,
    perturb_complex,
    perturb_morphism,
    random_base_complex,
    random_int_matrix,
    random_morphism,
    random_vector,
    rokhlin_checks,
    strictify_error_bound,
)


def _report(k: int, budget: float, started: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {k} took {elapsed:.1f}s"
    print(f"[ACCEPTANCE] criterion {k}: PASS - {detail} ({elapsed:.2f}s)")


def _group_homology(quotient, family, param, degree):
    ranks, matrices = resolution_by_name(family, param)
    cx = induce_resolution(quotient, ranks, matrices, augmented=False)
    dims, mats = coinvariants_complex(cx)
    return homology_of_complex(dims, mats)[degree]


def test_criterion_1_free_group_gradients():
    started = time.monotonic()
    quotients = [
        FiniteQuotient.abelian([2, 2]),
        FiniteQuotient.abelian([3, 3]),
        FiniteQuotient.abelian([4, 4]),
        FiniteQuotient.permutation(3, [[1, 0, 2], [1, 2, 0]]),
    ]
    expected = [5, 10, 17, 7]
    for quotient, want in zip(quotients, expected):
        h = _group_homology(quotient, "free", 2, 1)
        assert h.betti == 1 + quotient.order * (2 - 1)
        assert h.betti == want
        normalized = Fraction(h.betti, quotient.order)
        assert abs(normalized - 1) <= Fraction(1, quotient.order)
    _report(1, 5.0, started, "rk H1 = 5, 10, 17, 7 exactly")


def test_criterion_2_surface_group_gradients():
    started = time.monotonic()
    for n in range(2, 9):
        quotient = FiniteQuotient.abelian(
            [n], images=[[1], [0], [0], [0]])
        h1 = _group_homology(quotient, "surface", 2, 1)
        h2 = _group_homology(quotient, "surface", 2, 2)
        assert h1.betti == 2 + 2 * n
        assert not h1.torsion
        assert h2.betti == 1
    _report(2, 20.0, started, "genus 2 at Z/n: rk H1 = 2+2n torsion-free, "
                              "rk H2 = 1 for n = 2..8")


ROKHLIN_LEDGER = frozenset({
    "complex_strict", "witness_exact", "dim_bound", "boundary_norm",
    "tower_contraction", "level_contraction", "forward_chain_map",
    "backward_chain_map", "homotopy_degree0", "homotopy_degree1",
    "norm_table"})


def test_criterion_3_rokhlin_identities():
    started = time.monotonic()
    for modulus, tile in ROKHLIN_GRID:
        emb = integers_embedding(rokhlin_partition(modulus, tile))
        checks = rokhlin_checks(emb.rokhlin, emb)
        assert set(checks) == ROKHLIN_LEDGER
        bad = sorted(k for k, v in checks.items() if not v)
        assert not bad, f"({modulus},{tile}): {bad}"
        target = emb.target
        bound = Fraction(1, tile) + Fraction(modulus % tile, modulus)
        assert target.module(0).dim() == target.module(1).dim() <= bound
        assert op_norm(target.boundary(1)) == 2
        norms = emb.norms
        assert norms["f0"] <= 1 and norms["f1"] <= 1 and norms["r0"] <= 1
        assert norms["r1"] <= tile and norms["h0"] <= tile * tile
    _report(3, 5.0, started,
            "all identities and norm bounds exact on "
            + ", ".join(f"({m},{n})" for m, n in ROKHLIN_GRID))


def test_criterion_4_operator_norm_formula():
    started = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    for _ in range(500):
        f = random_morphism(rng)
        norm = op_norm(f)
        assert isinstance(norm, int)
        assert norm == brute_force_op_norm(f)
        for _ in range(1000):
            z = random_vector(rng, f.domain)
            mass = vector_l1(z)
            if mass == 0:
                continue
            assert vector_l1(f.apply(z)) <= norm * mass
            checked += 1
    _report(4, 30.0, started,
            f"500 morphisms: op_norm integral, equals the atom maximum, "
            f"dominates {checked} random ratios")


def test_criterion_5_gabber_bound():
    started = time.monotonic()
    rng = random.Random(2025)
    for t in range(500):
        a = random_int_matrix(rng)
        exact = gabber_exact(a)
        column = gabber_column_bound(a)
        split = gabber_split_bound(a)
        assert exact <= column + 1e-9, (t, a)
        assert column <= split + 1e-9, (t, a)
    _report(5, 30.0, started,
            "500 matrices: SNF log-torsion <= column <= split bound")


TORSION_LEVELS = (
    {"kind": "abelian", "moduli": [4]},
    {"kind": "abelian", "moduli": [2, 2]},
    {"kind": "abelian", "moduli": [6]},
    {"kind": "permutation", "degree": 3, "images": [[1, 0, 2], [1, 2, 0]]},
    {"kind": "abelian", "moduli": [8]},
    {"kind": "abelian", "moduli": [2, 4]},
)


def test_criterion_6_torsion_growth_inequality():
    started = time.monotonic()
    rng = random.Random(2026)
    for t in range(200):
        spec = TORSION_LEVELS[rng.randrange(len(TORSION_LEVELS))]
        space = FiniteQuotient.from_json(spec)
        f = random_morphism(rng, space)
        lhs = gabber_exact(coinvariants_dense(f))
        rhs = space.order * lognorm_upper(f, "atoms")
        assert lhs <= rhs + 1e-9, (t, spec, lhs, rhs)
    _report(6, 30.0, started,
            "200 morphisms at |G| in {4,6,8}: cokernel log-torsion <= "
            "|G| * atom-decomposition lognorm")


def test_criterion_7_strictification():
    started = time.monotonic()
    rng = random.Random(2027)
    for t in range(100):
        base = random_base_complex(rng)
        delta = Fraction(1, base.space.order)

        res0 = strictify_complex(base)
        assert res0.total_error_dim == 0
        for r in range(1, base.top_degree + 1):
            assert res0.complex.boundary(r).entries == base.boundary(r).entries

        pert = perturb_complex(rng, base, cells=1)
        res = strictify_complex(pert)
        assert defect_report(res.complex).is_strict
        bound = strictify_error_bound(pert, delta)
        for dim_e in res.error_dims:
            assert dim_e <= bound, (t, dim_e, bound)
        assert gh_verify(pert, res.complex, res.witness).within
    _report(7, 60.0, started,
            "100 perturbations: outputs exactly strict, error dims within "
            "(1 + rank*N1)*delta, witnesses verified, strict inputs fixed")


def test_criterion_8_cheap_embeddings():
    started = time.monotonic()
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        tile = math.ceil(2 / eps)
        for modulus in (2 * tile, 4 * tile):
            emb = integers_embedding(rokhlin_partition(modulus, tile))
            for r in (0, 1):
                assert emb.target.module(r).dim() < eps
            assert op_norm(emb.target.boundary(1)) <= 2
            report = retract_inequality_check(
                emb.source, emb.target, emb.forward, emb.backward,
                emb.homotopies)
            assert report.ok, (eps, modulus)
            h1 = report.retract_homology[1]
            assert h1.betti == 1 and not h1.torsion
    _report(8, 10.0, started,
            "eps in {1/2, 1/4, 1/8}: dim(D_r) < eps, boundary norm <= 2, "
            "retract inequalities hold against H1 = Z")


def _direct_sum_morphism(a: MarkedMorphism, b: MarkedMorphism):
    dom = a.domain.direct_sum(b.domain)
    cod = a.codomain.direct_sum(b.codomain)
    entries = []
    for i in range(dom.rank):
        row = []
        for j in range(cod.rank):
            if i < a.domain.rank and j < a.codomain.rank:
                row.append(a.entries[i][j])
            elif i >= a.domain.rank and j >= a.codomain.rank:
                row.append(b.entries[i - a.domain.rank][j - a.codomain.rank])
            else:
                row.append({})
        entries.append(row)
    return MarkedMorphism(dom, cod, entries, normalize=False)


SMALL_LEVELS = (
    {"kind": "abelian", "moduli": [2]},
    {"kind": "abelian", "moduli": [3]},
    {"kind": "abelian", "moduli": [4]},
    {"kind": "abelian", "moduli": [2, 2]},
)


def test_criterion_9_lognorm_calculus():
    started = time.monotonic()
    rng = random.Random(2029)
    for t in range(150):
        spec = SMALL_LEVELS[rng.randrange(len(SMALL_LEVELS))]
        space = FiniteQuotient.from_json(spec)
        f = random_morphism(rng, space, max_rank=2)
        exact = lognorm_exact(f)

        # dimension bound; every strategy stays above exact
        assert exact <= float(f.domain.dim()) * log_plus(op_norm(f)) + 1e-9
        for strategy in ("atoms", "greedy", "block"):
            assert exact <= lognorm_upper(f, strategy) + 1e-9

        # subadditivity under direct sum (rank 1 pieces keep the atom
        # count of the sum under the exhaustive cap)
        u = random_morphism(rng, space, max_rank=1)
        v = random_morphism(rng, space, max_rank=1)
        both = _direct_sum_morphism(u, v)
        assert lognorm_exact(both) <= (lognorm_exact(u)
                                       + lognorm_exact(v) + 1e-9)

        # marked-inclusion invariance
        ambient = f.codomain.direct_sum(
            MarkedModule.full(space, 1))
        incl = marked_inclusion(f.codomain, ambient,
                                list(range(f.codomain.rank)))
        assert abs(lognorm_exact(f.then(incl)) - exact) <= 1e-9

        # almost-equality stability at measured (delta, K)
        g = perturb_morphism(rng, f)
        delta = morphism_stats(f.sub(g)).size1
        kappa = log_plus(max(op_norm(f), op_norm(g)))
        assert abs(lognorm_exact(g) - exact) <= float(delta) * kappa + 1e-9
    _report(9, 60.0, started,
            "150 instances under the exhaustive cap: dimension bounds, "
            "subadditivity, inclusion invariance, stability")
