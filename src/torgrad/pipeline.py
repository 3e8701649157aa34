"""Command line driver: gradient tables, verification suites, constructions.

One exit-code convention everywhere: 0 success, 1 a configuration or
usage problem, 2 a verification failure (an identity or inequality that
should hold did not).  Failing cases are serialized as JSON on stderr so
runs are machine checkable, and everything is deterministic under a fixed
seed: identical config + seed gives byte-identical CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import (
    MarkedComplex,
    check_chain_map,
    defect_report,
    gh_verify,
    induce_resolution,
    witness_defect,
)
from .config import (
    ConfigError,
    GradientConfig,
    check_path,
    parse_gradient_config,
)
from .constructions import (
    EmbeddingResult,
    RokhlinResult,
    integers_embedding,
    koszul_complex,
    resolution_by_name,
    rokhlin_level_contraction,
    rokhlin_partition,
    rokhlin_tower_contraction,
)
from .crossring import (
    MarkedModule,
    MarkedMorphism,
    celt_add,
    marked_inclusion,
    marked_projection,
    morphism_stats,
    op_norm,
    vector_l1,
)
from .discretize import (
    HomologyResult,
    _core_invariant_factors,
    betti_mod_p,
    coinvariants_complex,
    coinvariants_matrix,
    coinvariants_rank,
    homology_from_factors,
    homology_of_complex,
    retract_inequality_check,
    shapiro_complex,
    to_dense,
)
from .groups import FiniteQuotient, OrderCapExceeded, order_cap
from .lognorm import (
    LOG_SLACK,
    gabber_column_bound,
    gabber_exact,
    gabber_split_bound,
    log_plus,
    lognorm_certificate,
    lognorm_exact,
    lognorm_upper,
)
from .strictify import strictify_complex


# ---------------------------------------------------------------------------
# seeded generators, shared by the verify suites and the acceptance run


QUOTIENT_SPECS = (
    {"kind": "abelian", "moduli": [2]},
    {"kind": "abelian", "moduli": [3]},
    {"kind": "abelian", "moduli": [4]},
    {"kind": "abelian", "moduli": [5]},
    {"kind": "abelian", "moduli": [6]},
    {"kind": "abelian", "moduli": [7]},
    {"kind": "abelian", "moduli": [8]},
    {"kind": "abelian", "moduli": [2, 2]},
    {"kind": "abelian", "moduli": [2, 3]},
    {"kind": "abelian", "moduli": [2, 4]},
    {"kind": "permutation", "degree": 3, "images": [[1, 0, 2], [1, 2, 0]]},
)


def random_space(rng: random.Random) -> FiniteQuotient:
    spec = QUOTIENT_SPECS[rng.randrange(len(QUOTIENT_SPECS))]
    return FiniteQuotient.from_json(spec)


def random_carrier(rng: random.Random, order: int) -> list:
    pts = [u for u in range(order) if rng.random() < 0.75]
    if not pts:
        pts = [rng.randrange(order)]
    return pts


def random_module(rng: random.Random, space: FiniteQuotient,
                  max_rank: int = 3) -> MarkedModule:
    rank = rng.randint(1, max_rank)
    return MarkedModule(
        space, [random_carrier(rng, space.order) for _ in range(rank)]
    )


def random_celt(rng: random.Random, space: FiniteQuotient,
                pool: Sequence[int], max_terms: int = 2,
                coeff_bound: int = 3) -> dict:
    celt: dict = {}
    pool = list(pool)
    for g in rng.sample(pool, rng.randint(1, min(max_terms, len(pool)))):
        fn = {}
        for u in rng.sample(range(space.order),
                            rng.randint(1, min(3, space.order))):
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                fn[u] = c
        if fn:
            celt[g] = fn
    return celt


def random_vector(rng: random.Random, module: MarkedModule,
                  max_terms: int = 2) -> tuple:
    vec = []
    for i in range(module.rank):
        if rng.random() < 0.6:
            raw = random_celt(rng, module.space, range(module.space.order),
                              max_terms)
            vec.append(module.normalize_component(i, raw))
        else:
            vec.append({})
    return tuple(vec)


def random_morphism(rng: random.Random,
                    space: Optional[FiniteQuotient] = None,
                    max_rank: int = 3,
                    max_group_elements: int = 4) -> MarkedMorphism:
    """Seeded morphism over a level of order <= 8, ranks <= max_rank, with
    at most max_group_elements distinct group elements across entries."""
    if space is None:
        space = random_space(rng)
    dom = random_module(rng, space, max_rank)
    cod = random_module(rng, space, max_rank)
    pool = rng.sample(range(space.order),
                      min(max_group_elements, space.order))
    entries = []
    for _ in range(dom.rank):
        row = []
        for _ in range(cod.rank):
            row.append(random_celt(rng, space, pool)
                       if rng.random() < 0.7 else {})
        entries.append(row)
    return MarkedMorphism(dom, cod, entries)


def random_int_matrix(rng: random.Random, max_size: int = 8,
                      bound: int = 9) -> list:
    rows = rng.randint(1, max_size)
    cols = rng.randint(1, max_size)
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def brute_force_op_norm(f: MarkedMorphism) -> int:
    """Max over atom inputs of the unnormalised l1 mass of the image."""
    best = 0
    for i, u in f.domain.atoms():
        best = max(best, vector_l1(f.apply(f.domain.atom(i, u))))
    return best


def _perturb_cell(rng: random.Random, f: MarkedMorphism,
                  coeffs: Sequence[int]) -> MarkedMorphism:
    """f plus one random cell: a single-point term, coefficient drawn from
    coeffs, in a random entry and fibre; f itself when that entry has no
    point to take.  Moves f by size at most 1/|G|."""
    i = rng.randrange(f.domain.rank)
    j = rng.randrange(f.codomain.rank)
    g = rng.randrange(f.space.order)
    table = f.space.left_table(g)
    gb = {table[v] for v in f.codomain.carriers[j]}
    pts = sorted(u for u in f.domain.carriers[i] if u in gb)
    if not pts:
        return f
    u = pts[rng.randrange(len(pts))]
    entries = [list(row) for row in f.entries]
    entries[i][j] = celt_add(entries[i][j], {g: {u: rng.choice(coeffs)}})
    return MarkedMorphism(f.domain, f.codomain, entries)


def perturb_complex(rng: random.Random, cx: MarkedComplex,
                    cells: int = 1) -> MarkedComplex:
    """Add `cells` random cells with coefficients +-1 to boundary entries;
    each cell moves one boundary map by size at most 1/|G|."""
    boundaries = list(cx.boundaries())
    for _ in range(cells):
        r = rng.randrange(len(boundaries))
        boundaries[r] = _perturb_cell(rng, boundaries[r], (-1, 1))
    return MarkedComplex(cx.modules, boundaries, cx.augmentation)


def perturb_morphism(rng: random.Random, f: MarkedMorphism) -> MarkedMorphism:
    """Add one random cell with coefficient +-1 or +-2 to one entry."""
    return _perturb_cell(rng, f, (-2, -1, 1, 2))


# ---------------------------------------------------------------------------
# gradient tables


GRADIENT_COLUMNS = ("level", "|G|", "degree", "betti_q", "betti_p", "logtors",
                    "betti_q/|G|", "logtors/|G|", "dim_upper", "lognorm_upper")
BOUND_COLUMNS = ("betti_bound", "torsion_bound", "verdict")


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return "%.12g" % float(value)


@dataclass(frozen=True)
class GradientRow:
    level: int
    order: int
    degree: int
    betti_q: int
    betti_p: int
    logtors: float
    dim_upper: Fraction
    lognorm_upper: float
    betti_bound: Optional[Fraction] = None
    torsion_bound: Optional[float] = None
    verdict: Optional[bool] = None

    def cells(self) -> list:
        out = [str(self.level), str(self.order), str(self.degree),
               str(self.betti_q), str(self.betti_p), _fmt(self.logtors),
               _fmt(Fraction(self.betti_q, self.order)),
               _fmt(self.logtors / self.order),
               _fmt(self.dim_upper), _fmt(self.lognorm_upper)]
        if self.verdict is not None:
            out += [_fmt(self.betti_bound), _fmt(self.torsion_bound),
                    "PASS" if self.verdict else "FAIL"]
        return out


@dataclass(frozen=True)
class GradientTable:
    columns: tuple
    rows: tuple

    @property
    def all_pass(self) -> bool:
        # rows on the induced target carry no verdict
        return all(row.verdict is not False for row in self.rows)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        lines.extend(",".join(row.cells()) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {"columns": list(self.columns),
                "rows": [row.cells() for row in self.rows]}


def run_gradient(cfg: GradientConfig) -> GradientTable:
    """Betti/torsion gradient table along the levels of a config that
    parse_gradient_config has checked and enumerated; nothing is checked
    here.  Each coinvariant boundary is factored once per level: betti_q,
    logtors and, by universal coefficients, betti_p.  dim_upper and
    lognorm_upper come from the target complex (the induced resolution,
    whose boundary ranks the factorisation gave, or the Rokhlin tile
    complex, with the bound columns and verdict).  A degree above the
    resolution reads zero homology and an empty target."""
    embedded = cfg.tile is not None
    rows = []
    for idx, quotient in enumerate(cfg.levels, start=1):
        induced = induce_resolution(quotient, *cfg.resolution,
                                    augmented=False)
        homology = homology_of_complex(*coinvariants_complex(induced))
        betti_p = betti_mod_p(homology, cfg.p)
        per_degree = dict(enumerate(zip(homology, betti_p)))
        target = (rokhlin_partition(quotient.order, cfg.tile).complex
                  if embedded else induced)
        for n in cfg.degrees:
            h, bp = per_degree.get(n, (HomologyResult(0, (), 0), 0))
            dim_upper = (target.module(n).dim()
                         if n <= target.top_degree else Fraction(0))
            # the induced target's boundary n + 1 has the rank h holds
            rank = None if embedded else h.boundary_rank
            ln_upper = (lognorm_upper(target.boundary(n + 1), cfg.strategy,
                                      rank=rank)
                        if n + 1 <= target.top_degree else 0.0)
            bounds = ()
            if embedded:
                betti_bound = quotient.order * dim_upper
                torsion_bound = quotient.order * ln_upper
                bounds = (betti_bound, torsion_bound,
                          h.betti <= betti_bound and bp <= betti_bound
                          and h.log_torsion <= torsion_bound + LOG_SLACK)
            rows.append(GradientRow(idx, quotient.order, n, h.betti, bp,
                                    h.log_torsion, dim_upper, ln_upper,
                                    *bounds))

    columns = GRADIENT_COLUMNS + (BOUND_COLUMNS if embedded else ())
    return GradientTable(columns, tuple(rows))


# ---------------------------------------------------------------------------
# verification suites


ROKHLIN_GRID = ((6, 2), (7, 2), (12, 4), (100, 10))


def _suite_opnorm(rng: random.Random, trials: int) -> list:
    failures = []
    for t in range(trials):
        f = random_morphism(rng)
        norm = op_norm(f)
        brute = brute_force_op_norm(f)
        ok = norm == brute and isinstance(norm, int)
        if ok:
            for _ in range(20):
                z = random_vector(rng, f.domain)
                mass = vector_l1(z)
                if mass == 0:
                    continue
                if vector_l1(f.apply(z)) > norm * mass:
                    ok = False
                    break
        if not ok:
            failures.append({"suite": "opnorm", "trial": t, "op_norm": norm,
                             "brute_force": brute, "morphism": f.to_json()})
    return failures


def _suite_gabber(rng: random.Random, trials: int) -> list:
    failures = []
    for t in range(trials):
        a = random_int_matrix(rng)
        exact = gabber_exact(a)
        column = gabber_column_bound(a)
        split = gabber_split_bound(a)
        if not (exact <= column + LOG_SLACK and column <= split + LOG_SLACK):
            failures.append({"suite": "gabber", "trial": t, "matrix": a,
                             "exact": exact, "column": column,
                             "split": split})
    return failures


def random_base_complex(rng: random.Random) -> MarkedComplex:
    """A strict augmented complex of length <= 2 at a level of order <= 8:
    an induced free resolution, or a Koszul square with commuting images."""
    q = random_space(rng)
    if rng.random() < 0.5:
        d = rng.randint(1, 3)
        ranks, mats = resolution_by_name("free", d)
        images = [rng.randrange(q.order) for _ in range(d)]
    else:
        ranks, mats = resolution_by_name("free_abelian", 2)
        h = rng.randrange(q.order)
        images = [q.power(h, rng.randint(0, q.order)) for _ in range(2)]
    return induce_resolution(q, ranks, mats, gen_images=images)


def strictify_error_bound(cx: MarkedComplex, delta: Fraction) -> Fraction:
    """Per-degree ceiling (1 + rank * N1max(d)) * delta for the error dims
    produced by strictifying a delta-perturbation of a strict complex."""
    n1 = max((morphism_stats(cx.boundary(r)).n1_max
              for r in range(1, cx.top_degree + 1)), default=0)
    rank = max(m.rank for m in cx.modules)
    return (1 + rank * n1) * delta


def _suite_strictify(rng: random.Random, trials: int) -> list:
    failures = []
    for t in range(trials):
        base = random_base_complex(rng)
        res0 = strictify_complex(base)
        checks = {"strict_input_identity": res0.total_error_dim == 0 and all(
            res0.complex.boundary(r).entries == base.boundary(r).entries
            for r in range(1, base.top_degree + 1))}
        pert = perturb_complex(rng, base, cells=1)
        res = strictify_complex(pert)
        checks["output_strict"] = defect_report(res.complex).is_strict
        checks["witness"] = gh_verify(pert, res.complex, res.witness).within
        bound = strictify_error_bound(pert, Fraction(1, base.space.order))
        checks["error_dims"] = all(d <= bound for d in res.error_dims)
        bad = sorted(k for k, v in checks.items() if not v)
        if bad:
            failures.append({"suite": "strictify", "trial": t, "failed": bad,
                             "complex": pert.to_json()})
    return failures


def rokhlin_checks(res: RokhlinResult,
                   emb: Optional[EmbeddingResult] = None) -> dict:
    """Identity-check ledger for one Rokhlin tile complex, and for the
    embedding of the integers built from it when one is given."""
    modulus, tile = res.modulus, res.tile
    cx = res.complex
    out = {"complex_strict": defect_report(cx).is_strict,
           "witness_exact": witness_defect(cx, res.witness) == 0}
    bound = Fraction(1, tile) + Fraction(modulus % tile, modulus)
    out["dim_bound"] = (cx.module(0).dim() == cx.module(1).dim()
                        and cx.module(0).dim() <= bound)
    expected = 2 if tile < modulus else 0
    out["boundary_norm"] = res.boundary_norm == expected
    out["tower_contraction"] = rokhlin_tower_contraction(modulus, tile)
    out["level_contraction"] = rokhlin_level_contraction(res)
    if emb is not None:
        out.update(embedding_checks(emb))
    return out


def embedding_checks(emb: EmbeddingResult) -> dict:
    """The six exact identities plus the norm table for one embedding."""
    tile = emb.rokhlin.tile
    out = {}
    out["forward_chain_map"] = check_chain_map(
        emb.forward, emb.source, emb.target).is_strict
    out["backward_chain_map"] = check_chain_map(
        emb.backward, emb.target, emb.source).is_strict
    f0, f1 = emb.forward
    r0, r1 = emb.backward
    h0 = emb.homotopies[0]
    d1 = emb.source.boundary(1)
    id0 = MarkedMorphism.identity(emb.source.module(0))
    id1 = MarkedMorphism.identity(emb.source.module(1))
    out["homotopy_degree0"] = h0.then(d1).sub(f0.then(r0).sub(id0)).is_zero()
    out["homotopy_degree1"] = d1.then(h0).sub(f1.then(r1).sub(id1)).is_zero()
    norms = emb.norms
    out["norm_table"] = (norms["f0"] <= 1 and norms["f1"] <= 1
                         and norms["r0"] <= 1 and norms["r1"] <= tile
                         and norms["h0"] <= tile * tile)
    return out


def _suite_rokhlin(rng: random.Random, trials: int) -> list:
    failures = []
    pairs = list(ROKHLIN_GRID)
    for _ in range(trials):
        modulus = rng.randint(2, 30)
        pairs.append((modulus, rng.randint(1, modulus)))
    for modulus, tile in pairs:
        res = rokhlin_partition(modulus, tile)
        emb = integers_embedding(res) if tile < modulus else None
        checks = rokhlin_checks(res, emb)
        if modulus <= 16 and emb is not None:
            checks["retract_inequalities"] = retract_inequality_check(
                emb.source, emb.target, emb.forward, emb.backward,
                emb.homotopies).ok
        bad = sorted(k for k, v in checks.items() if not v)
        if bad:
            failures.append({"suite": "rokhlin", "modulus": modulus,
                             "tile": tile, "failed": bad})
    return failures


LOGNORM_SPECS = tuple(s for s in QUOTIENT_SPECS
                      if s["kind"] == "abelian"
                      and math.prod(s["moduli"]) <= 4)


def _suite_lognorm(rng: random.Random, trials: int) -> list:
    failures = []
    for t in range(trials):
        spec = LOGNORM_SPECS[rng.randrange(len(LOGNORM_SPECS))]
        space = FiniteQuotient.from_json(spec)
        f = random_morphism(rng, space, max_rank=2)
        exact = lognorm_exact(f)
        greedy = lognorm_upper(f, "greedy")
        atoms = lognorm_upper(f, "atoms")
        block = lognorm_upper(f, "block")
        checks = {
            "strategy_chain": (exact <= greedy + LOG_SLACK
                               and greedy <= atoms + LOG_SLACK
                               and exact <= block + LOG_SLACK),
            "dimension": exact <= (float(f.domain.dim())
                                   * log_plus(op_norm(f)) + LOG_SLACK),
            "torsion_dominated": gabber_exact(to_dense(
                coinvariants_matrix(f), coinvariants_rank(f.domain)))
            <= space.order * atoms + LOG_SLACK,
        }
        ambient = f.codomain.direct_sum(
            MarkedModule(space, [random_carrier(rng, space.order)]))
        incl = marked_inclusion(f.codomain, ambient,
                                list(range(f.codomain.rank)))
        checks["inclusion_invariance"] = abs(
            lognorm_exact(f.then(incl)) - exact) <= LOG_SLACK
        g = perturb_morphism(rng, f)
        delta = morphism_stats(f.sub(g)).size1
        kappa = log_plus(max(op_norm(f), op_norm(g)))
        checks["stability"] = abs(lognorm_exact(g) - exact) <= (
            float(delta) * kappa + LOG_SLACK)
        bad = sorted(k for k, v in checks.items() if not v)
        if bad:
            failures.append({"suite": "lognorm", "trial": t, "failed": bad,
                             "morphism": f.to_json()})
    return failures


def direct_sum_complex(left: MarkedComplex,
                       right: MarkedComplex) -> MarkedComplex:
    """Degreewise direct sum with block-diagonal boundaries, unaugmented."""
    if left.top_degree != right.top_degree:
        raise ValueError("direct sum needs complexes of the same length")
    modules = [a.direct_sum(b) for a, b in zip(left.modules, right.modules)]
    boundaries = []
    for r in range(1, left.top_degree + 1):
        da, db = left.boundary(r), right.boundary(r)
        entries = []
        for i in range(modules[r].rank):
            row = []
            for j in range(modules[r - 1].rank):
                if i < da.domain.rank and j < da.codomain.rank:
                    row.append(da.entries[i][j])
                elif i >= da.domain.rank and j >= da.codomain.rank:
                    row.append(db.entries[i - da.domain.rank]
                               [j - da.codomain.rank])
                else:
                    row.append({})
            entries.append(row)
        boundaries.append(MarkedMorphism(modules[r], modules[r - 1], entries,
                                         normalize=False))
    return MarkedComplex(modules, boundaries, None)


def _suite_retract(rng: random.Random, trials: int) -> list:
    failures = []
    for t in range(trials):
        if rng.random() < 0.4:
            modulus = rng.randint(3, 16)
            tile = rng.randint(1, modulus - 1)
            emb = integers_embedding(rokhlin_partition(modulus, tile))
            report = retract_inequality_check(
                emb.source, emb.target, emb.forward, emb.backward,
                emb.homotopies)
            if not report.ok:
                failures.append({"suite": "retract", "trial": t,
                                 "modulus": modulus, "tile": tile})
            continue
        space = random_space(rng)
        d = rng.randint(1, 2)
        ranks, mats = resolution_by_name("free", d)
        images = [rng.randrange(space.order) for _ in range(d)]
        core = induce_resolution(space, ranks, mats, gen_images=images,
                                 augmented=False)
        junk_modules = [random_module(rng, space, 2)
                        for _ in range(core.top_degree + 1)]
        junk = MarkedComplex(
            junk_modules,
            [MarkedMorphism.zero(junk_modules[r], junk_modules[r - 1])
             for r in range(1, len(junk_modules))])
        ambient = direct_sum_complex(core, junk)
        forward = [marked_inclusion(core.module(r), ambient.module(r),
                                    list(range(core.module(r).rank)))
                   for r in range(core.top_degree + 1)]
        backward = [marked_projection(ambient.module(r), core.module(r),
                                      list(range(core.module(r).rank)))
                    for r in range(core.top_degree + 1)]
        homotopies = [MarkedMorphism.zero(core.module(r), core.module(r + 1))
                      for r in range(core.top_degree)]
        report = retract_inequality_check(core, ambient, forward, backward,
                                          homotopies)
        if not report.ok:
            failures.append({"suite": "retract", "trial": t,
                             "complex": core.to_json()})
    return failures


def random_torsion_level(rng: random.Random) -> tuple:
    """A small level and the Koszul complex of two or three random ring
    elements over it, (quotient, ranks, ring matrices, generator images);
    its homology usually has torsion.  An element is g - 1, a
    constant, g + c or 1 + g + g^2 for g a power of a free generator.
    Images are random elements of an abelian quotient, or powers of one
    element of S3 or of the dihedral group of order 8, so the elements
    commute at the level and the complex is strict."""
    if rng.random() < 0.3:
        q = FiniteQuotient.permutation(*rng.choice((
            (3, [[1, 0, 2], [1, 2, 0]]), (4, [[1, 2, 3, 0], [3, 2, 1, 0]]))))
        h = rng.randrange(q.order)
        images = [q.power(h, rng.randint(1, q.order)) for _ in range(2)]
    else:
        q = FiniteQuotient.abelian(rng.choice(
            [s["moduli"] for s in QUOTIENT_SPECS if s["kind"] == "abelian"]))
        images = [rng.randrange(q.order) for _ in range(2)]
    elements = []
    for _ in range(rng.randint(2, 3)):
        k, e = rng.randrange(2), rng.choice((1, -1, 2))
        g = ((k, e),)
        elements.append(rng.choice((
            {g: 1, (): -1},  # unit entries
            {(): rng.choice((2, 3))},
            {g: 1, (): rng.choice((1, 2, -2))},
            {(): 1, g: 1, ((k, 2 * e),): 1})))
    ranks, mats = koszul_complex(elements)
    return q, ranks, mats, images


def _suite_discretize(rng: random.Random, trials: int) -> list:
    failures = []
    for t in range(trials):
        q, ranks, mats, images = random_torsion_level(rng)
        cx = induce_resolution(q, ranks, mats,
                               gen_images=images, augmented=False)
        dims, level = coinvariants_complex(cx)
        routes = {
            "reduced": homology_of_complex(dims, level),
            # the dense Smith loop on each whole boundary
            "dense": homology_from_factors(dims, [_core_invariant_factors(
                to_dense(m, w)) for m, w in zip(level, dims[1:])]),
            "shapiro": homology_of_complex(
                *shapiro_complex(q, ranks, mats, images)),
        }
        if not routes["reduced"] == routes["dense"] == routes["shapiro"]:
            failures.append({"suite": "discretize", "trial": t,
                             "complex": cx.to_json(),
                             **{k: list(map(str, v))
                                for k, v in routes.items()}})
    return failures


# suite name -> (runner, default trial count)
VERIFY_SUITES = {
    "opnorm": (_suite_opnorm, 200), "gabber": (_suite_gabber, 200),
    "strictify": (_suite_strictify, 25), "rokhlin": (_suite_rokhlin, 6),
    "lognorm": (_suite_lognorm, 60), "retract": (_suite_retract, 20),
    "discretize": (_suite_discretize, 200)}


def run_verify(suite: str, seed: int, trials: int) -> list:
    """Run one verification suite; returns the list of failing cases."""
    if suite not in VERIFY_SUITES:
        raise ConfigError(f"unknown suite {suite!r}; "
                          f"choose from {', '.join(VERIFY_SUITES)}")
    if trials < 0:
        raise ConfigError("trials must be >= 0")
    return VERIFY_SUITES[suite][0](random.Random(seed), trials)


# ---------------------------------------------------------------------------
# command handlers


def _read_json_object(path: str) -> dict:
    """The JSON object stored at path; anything else is a ConfigError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    return data


def cmd_gradient(args) -> int:
    config = _read_json_object(args.config)
    # the flags first: a bad one is refused before any level is enumerated
    check_path("output", args.output)
    check_path("json", args.json)
    cfg = parse_gradient_config(config)
    out_path = args.output if args.output is not None else cfg.output
    table = run_gradient(cfg)
    csv_text = table.to_csv()
    try:
        if out_path is not None:
            with open(out_path, "w") as fh:
                fh.write(csv_text)
        else:
            sys.stdout.write(csv_text)
        if args.json is not None:
            with open(args.json, "w") as fh:
                json.dump(table.to_json(), fh, indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None
    if not table.all_pass:
        print("gradient table: bound inequality violated", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    trials = (VERIFY_SUITES[args.suite][1] if args.trials is None
              else args.trials)
    failures = run_verify(args.suite, args.seed, trials)
    status = "FAIL" if failures else "PASS"
    print(f"suite {args.suite}: trials={trials} "
          f"failures={len(failures)} {status}")
    for item in failures[:10]:
        print(json.dumps(item, sort_keys=True, default=str), file=sys.stderr)
    return 2 if failures else 0


def cmd_rokhlin(args) -> int:
    if args.embedding and args.tile >= args.modulus:
        raise ConfigError("the embedding needs tile < modulus")
    try:
        res = rokhlin_partition(args.modulus, args.tile)
        emb = integers_embedding(res) if args.embedding else None
        checks = rokhlin_checks(res, emb)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(f"rokhlin modulus={args.modulus} tile={args.tile} "
          f"base={len(res.base)} remainder={len(res.remainder)} "
          f"dim={res.dim} boundary_norm={res.boundary_norm}")
    for name in sorted(checks):
        print(f"{'ok' if checks[name] else 'FAIL'} {name}")
    if emb is not None:
        norms = emb.norms
        print("norms " + " ".join(f"{k}={norms[k]}"
                                  for k in ("f0", "f1", "r0", "r1", "h0")))
    return 0 if all(checks.values()) else 2


def cmd_lognorm(args) -> int:
    data = _read_json_object(args.input)
    try:
        f = MarkedMorphism.from_json(data)
        value, blocks = lognorm_certificate(f, args.strategy)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    certificate = {"strategy": args.strategy, "value": value,
                   "blocks": [[list(atom) for atom in block]
                              for block in blocks]}
    print(_fmt(value))
    print(json.dumps(certificate, sort_keys=True))
    return 0


def cmd_strictify_demo(args) -> int:
    if args.order < 2:
        raise ConfigError("order must be >= 2")
    rng = random.Random(args.seed)
    space = FiniteQuotient.abelian([args.order])
    ranks, mats = resolution_by_name("free_abelian", 2)
    t = space.generator_images[0]
    base = induce_resolution(space, ranks, mats, gen_images=[t, t])
    pert = perturb_complex(rng, base, cells=max(0, args.cells))
    before = defect_report(pert)
    res = strictify_complex(pert)
    after = defect_report(res.complex)
    print(f"level order {space.order}, degrees 0..{base.top_degree}")
    for r in range(base.top_degree):
        defect = before.aug_size if r == 0 else before.sizes[r + 1]
        print(f"degree {r}: input defect {defect}, "
              f"error dim {res.error_dims[r]}")
    report = gh_verify(pert, res.complex, res.witness)
    print(f"output strict: {after.is_strict}")
    print(f"witness delta={report.delta} k={report.k} "
          f"verified: {report.within}")
    return 0 if after.is_strict and report.within else 2


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torgrad",
        description="Betti and torsion gradients over finite quotient "
                    "levels, with exact verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gradient",
                       help="gradient table along a quotient chain")
    g.add_argument("--config", required=True, help="experiment JSON")
    g.add_argument("--output", default=None,
                   help="CSV path (default stdout)")
    g.add_argument("--json", default=None,
                   help="also write the table as JSON to this path")

    v = sub.add_parser("verify", help="run a property verification suite")
    v.add_argument("suite", choices=VERIFY_SUITES)
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)

    r = sub.add_parser("rokhlin",
                       help="identity ledger for one Rokhlin tile complex")
    r.add_argument("--modulus", type=int, required=True)
    r.add_argument("--tile", type=int, required=True)
    r.add_argument("--embedding", action="store_true",
                   help="also check the two-sided embedding identities")

    ln = sub.add_parser("lognorm",
                        help="lognorm bound of a serialized morphism")
    ln.add_argument("--input", required=True, help="morphism JSON path")
    ln.add_argument("--strategy", default="greedy",
                    choices=("atoms", "greedy", "exact", "block"))

    d = sub.add_parser("strictify-demo",
                       help="strictify a perturbed complex, print the "
                            "per-degree ledger")
    d.add_argument("--order", type=int, default=6)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--cells", type=int, default=1,
                   help="number of single-point perturbation cells")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; those are config errors here
        return 0 if exc.code in (0, None) else 1
    handlers = {"gradient": cmd_gradient, "verify": cmd_verify,
                "rokhlin": cmd_rokhlin, "lognorm": cmd_lognorm,
                "strictify-demo": cmd_strictify_demo}
    try:
        try:  # a malformed cap is refused before any command runs
            order_cap()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return handlers[args.command](args)
    except (ConfigError, OrderCapExceeded) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
