"""Seeded verification suites: the paper's finite-level lemmas, checked
exactly.  A suite is a function of one seeded trial that returns the
fields of a failing case, or None; ``_per_trial`` numbers the trials.
``rokhlin`` keeps its own runner: it checks a fixed grid first.  The
levels are drawn from fixed specs, and one run enumerates each of them
once (``shared_levels``)."""

from __future__ import annotations

import contextlib
import math
import random
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import (
    MarkedComplex,
    _padded,
    check_retract,
    defect_report,
    induce_resolution,
    push_complex,
    witness_defect,
)
from .config import ConfigError
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
    _core_invariant_factors,
    coinvariants_complex,
    coinvariants_matrix,
    coinvariants_rank,
    homology_from_factors,
    homology_of_complex,
    retract_inequalities,
    shapiro_complex,
    to_dense,
)
from .groups import FiniteQuotient
from .lognorm import (
    LOG_SLACK,
    gabber_bounds,
    log_plus,
    lognorm_rows,
    lognorm_values,
)
from .strictify import strictify_complex


# ---------------------------------------------------------------------------
# seeded generators, shared by the suites and the acceptance run


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

LOGNORM_SPECS = tuple(s for s in QUOTIENT_SPECS
                      if s["kind"] == "abelian"
                      and math.prod(s["moduli"]) <= 4)

# the torsion levels: the abelian specs above, and S3 (the permutation spec
# above) or the dihedral group of order 8
ABELIAN_SPECS = tuple(s for s in QUOTIENT_SPECS if s["kind"] == "abelian")
TORSION_PERMUTATION_SPECS = (
    QUOTIENT_SPECS[-1],
    {"kind": "permutation", "degree": 4,
     "images": [[1, 2, 3, 0], [3, 2, 1, 0]]},
)

# id(spec) -> level for the specs above, inside a shared_levels block
_shared: Optional[dict] = None


@contextlib.contextmanager
def shared_levels():
    """Inside the block, each fixed spec above is enumerated once and its
    level shared; outside, every draw enumerates afresh.  A run_verify call
    is one block, so an order cap set between two runs applies."""
    global _shared
    outer, _shared = _shared, {}
    try:
        yield
    finally:
        _shared = outer


def _fixed_level(spec: dict) -> FiniteQuotient:
    """The level of one of the fixed specs above (see shared_levels)."""
    if _shared is None:
        return FiniteQuotient.from_json(spec)
    level = _shared.get(id(spec))
    if level is None:
        level = _shared[id(spec)] = FiniteQuotient.from_json(spec)
    return level


def random_space(rng: random.Random) -> FiniteQuotient:
    return _fixed_level(QUOTIENT_SPECS[rng.randrange(len(QUOTIENT_SPECS))])


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
                pool: Sequence[int], max_terms: int = 2) -> dict:
    """Up to max_terms group elements of pool, each with a function of at
    most three points and coefficients in -3..3."""
    celt: dict = {}
    pool = list(pool)
    for g in rng.sample(pool, rng.randint(1, min(max_terms, len(pool)))):
        fn = {}
        for u in rng.sample(range(space.order),
                            rng.randint(1, min(3, space.order))):
            c = rng.randint(-3, 3)
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
                    max_rank: int = 3) -> MarkedMorphism:
    """Seeded morphism over a level of order <= 8, ranks <= max_rank, with
    at most four distinct group elements across entries."""
    if space is None:
        space = random_space(rng)
    dom = random_module(rng, space, max_rank)
    cod = random_module(rng, space, max_rank)
    pool = rng.sample(range(space.order), min(4, space.order))
    entries = []
    for _ in range(dom.rank):
        row = []
        for _ in range(cod.rank):
            row.append(random_celt(rng, space, pool)
                       if rng.random() < 0.7 else {})
        entries.append(row)
    return MarkedMorphism(dom, cod, entries)


def random_int_matrix(rng: random.Random) -> list:
    """At most 8 x 8, entries in -9..9."""
    rows = rng.randint(1, 8)
    cols = rng.randint(1, 8)
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


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
# the suites


def _per_trial(trial):
    """The runner (rng, trials) -> failing cases of a suite given as a
    function of one seeded trial, which returns the fields of a failing
    case or None; the runner adds the trial index to each case."""
    def run(rng: random.Random, trials: int) -> list:
        return [{"trial": t, **case} for t in range(trials)
                if (case := trial(rng)) is not None]
    return run


@_per_trial
def _suite_opnorm(rng: random.Random) -> Optional[dict]:
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
        return {"op_norm": norm, "brute_force": brute,
                "morphism": f.to_json()}


@_per_trial
def _suite_gabber(rng: random.Random) -> Optional[dict]:
    a = random_int_matrix(rng)
    exact, column, split = gabber_bounds(a)
    if not (exact <= column + LOG_SLACK and column <= split + LOG_SLACK):
        return {"matrix": a, "exact": exact, "column": column,
                "split": split}


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


def strictify_witness_bounds(cx: MarkedComplex, delta: Fraction) -> tuple:
    """Ceilings (size, k) for the witness of strictifying cx, a
    delta-perturbation of a strict complex.  The carrier differences are
    the error dimensions and a boundary comparison has size at most
    dim E_r + dim E_{r-1}, so the witness's delta is at most twice the
    error bound plus its half atom; its k is at most (n_r + 1)(n_{r+1} + 1),
    with n_0 the largest augmentation value and n_r the operator norm of
    d_r."""
    size = (2 * strictify_error_bound(cx, delta)
            + Fraction(1, 2 * cx.space.order))
    norms = [cx.augmentation.linf()] + [op_norm(d) for d in cx.boundaries()]
    k = max((a + 1) * (b + 1) for a, b in zip(norms, norms[1:]))
    return size, k


@_per_trial
def _suite_strictify(rng: random.Random) -> Optional[dict]:
    base = random_base_complex(rng)
    res0 = strictify_complex(base)
    checks = {"strict_input_identity": res0.total_error_dim == 0 and all(
        res0.complex.boundary(r).entries == base.boundary(r).entries
        for r in range(1, base.top_degree + 1))}
    pert = perturb_complex(rng, base, cells=1)
    res = strictify_complex(pert)
    checks["output_strict"] = defect_report(res.complex).is_strict
    atom = Fraction(1, base.space.order)
    delta, k = strictify_witness_bounds(pert, atom)
    checks["witness"] = res.witness.delta <= delta and res.witness.k <= k
    bound = strictify_error_bound(pert, atom)
    checks["error_dims"] = all(d <= bound for d in res.error_dims)
    bad = sorted(k for k, v in checks.items() if not v)
    if bad:
        return {"failed": bad, "complex": pert.to_json()}


ROKHLIN_GRID = ((6, 2), (7, 2), (12, 4), (100, 10))


def rokhlin_checks(res: RokhlinResult,
                   emb: Optional[EmbeddingResult] = None) -> dict:
    """Identity-check ledger for one Rokhlin tile complex, and for the
    embedding of the integers built from it when one is given."""
    modulus, tile = res.modulus, res.tile
    cx = res.complex
    out = {"complex_strict": defect_report(cx).is_strict,
           "witness_exact": witness_defect(cx, res.witness) == 0}
    bound = Fraction(1, tile) + Fraction(modulus % tile, modulus)
    out["dim_bound"] = cx.module(0).dim() <= bound
    expected = 2 if tile < modulus else 0
    out["boundary_norm"] = res.boundary_norm == expected
    out["tower_contraction"] = rokhlin_tower_contraction(modulus, tile)
    out["level_contraction"] = rokhlin_level_contraction(res)
    if emb is not None:
        out.update(embedding_checks(emb))
    return out


def embedding_checks(emb: EmbeddingResult) -> dict:
    """The retract identities (one check_retract report) plus the norm
    table for one embedding."""
    tile = emb.rokhlin.tile
    rep = check_retract(emb.source, emb.target, emb.forward, emb.backward,
                        emb.homotopies)
    out = {"forward_chain_map": rep.forward.is_strict,
           "backward_chain_map": rep.backward.is_strict,
           "homotopy_degree0": rep.homotopy_sizes[0] == 0,
           "homotopy_degree1": rep.homotopy_sizes[1] == 0}
    norms = emb.norms
    out["norm_table"] = (norms["f0"] <= 1 and norms["f1"] <= 1
                         and norms["r0"] <= 1 and norms["r1"] <= tile
                         and norms["h0"] <= tile - 1)
    return out


def _suite_rokhlin(rng: random.Random, trials: int) -> list:
    pairs = list(ROKHLIN_GRID)
    for _ in range(trials):
        modulus = rng.randint(2, 30)
        pairs.append((modulus, rng.randint(1, modulus)))
    failures = []
    for modulus, tile in pairs:
        res = rokhlin_partition(modulus, tile)
        emb = integers_embedding(res) if tile < modulus else None
        checks = rokhlin_checks(res, emb)
        if modulus <= 16 and emb is not None:
            checks["retract_inequalities"] = retract_inequalities(
                emb.source, emb.target)
        bad = sorted(k for k, v in checks.items() if not v)
        if bad:
            failures.append({"modulus": modulus, "tile": tile,
                             "failed": bad})
    return failures


def _exact_lognorm(f: MarkedMorphism) -> float:
    """The exact lognorm bound of f, read from its coinvariants matrix."""
    return lognorm_rows(coinvariants_matrix(f), coinvariants_rank(f.domain),
                        f.space.order, "exact")[0]


@_per_trial
def _suite_lognorm(rng: random.Random) -> Optional[dict]:
    space = _fixed_level(LOGNORM_SPECS[rng.randrange(len(LOGNORM_SPECS))])
    f = random_morphism(rng, space, max_rank=2)
    rows, width = coinvariants_matrix(f), coinvariants_rank(f.domain)
    exact, greedy, atoms, block = lognorm_values(
        rows, width, space.order, ("exact", "greedy", "atoms", "block"))
    # the torsion of coker f on coinvariants is that of H_0 of the
    # one-boundary complex of its rows
    torsion = homology_of_complex((len(rows), width), (rows,))[0].log_torsion
    checks = {
        "strategy_chain": (exact <= greedy + LOG_SLACK
                           and greedy <= atoms + LOG_SLACK
                           and exact <= block + LOG_SLACK),
        "dimension": exact <= (float(f.domain.dim())
                               * log_plus(op_norm(f)) + LOG_SLACK),
        "torsion_dominated": torsion <= space.order * atoms + LOG_SLACK,
    }
    ambient = f.codomain.direct_sum(
        MarkedModule(space, [random_carrier(rng, space.order)]))
    incl = marked_inclusion(f.codomain, ambient)
    checks["inclusion_invariance"] = abs(
        _exact_lognorm(f.then(incl)) - exact) <= LOG_SLACK
    g = perturb_morphism(rng, f)
    delta = morphism_stats(f.sub(g)).size1
    kappa = log_plus(max(op_norm(f), op_norm(g)))
    checks["stability"] = abs(_exact_lognorm(g) - exact) <= (
        float(delta) * kappa + LOG_SLACK)
    bad = sorted(k for k, v in checks.items() if not v)
    if bad:
        return {"failed": bad, "morphism": f.to_json()}


@_per_trial
def _suite_retract(rng: random.Random) -> Optional[dict]:
    if rng.random() < 0.4:
        modulus = rng.randint(3, 16)
        tile = rng.randint(1, modulus - 1)
        emb = integers_embedding(rokhlin_partition(modulus, tile))
        if not (check_retract(emb.source, emb.target, emb.forward,
                              emb.backward, emb.homotopies).is_strict
                and retract_inequalities(emb.source, emb.target)):
            return {"modulus": modulus, "tile": tile}
        return None
    space = random_space(rng)
    d = rng.randint(1, 2)
    ranks, mats = resolution_by_name("free", d)
    images = [rng.randrange(space.order) for _ in range(d)]
    core = induce_resolution(space, ranks, mats, gen_images=images,
                             augmented=False)
    # the ambient: core plus random summands on which every boundary is 0
    modules = [m.direct_sum(random_module(rng, space, 2))
               for m in core.modules]
    ambient = MarkedComplex(modules, [
        _padded(boundary, modules[r], modules[r - 1])
        for r, boundary in enumerate(core.boundaries(), start=1)])
    forward = [marked_inclusion(core.module(r), ambient.module(r))
               for r in range(core.top_degree + 1)]
    backward = [marked_projection(ambient.module(r), core.module(r))
                for r in range(core.top_degree + 1)]
    homotopies = [MarkedMorphism.zero(core.module(r), core.module(r + 1))
                  for r in range(core.top_degree)]
    if not (check_retract(core, ambient, forward, backward,
                          homotopies).is_strict
            and retract_inequalities(core, ambient)):
        return {"complex": core.to_json()}


def random_torsion_level(rng: random.Random) -> tuple:
    """A small level and the Koszul complex of two or three random ring
    elements over it, (quotient, ranks, ring matrices, generator images);
    its homology usually has torsion.  An element is g - 1, a
    constant, g + c or 1 + g + g^2 for g a power of a free generator.
    Images are random elements of an abelian quotient, or powers of one
    element of S3 or of the dihedral group of order 8, so the elements
    commute at the level and the complex is strict."""
    if rng.random() < 0.3:
        q = _fixed_level(rng.choice(TORSION_PERMUTATION_SPECS))
        h = rng.randrange(q.order)
        images = [q.power(h, rng.randint(1, q.order)) for _ in range(2)]
    else:
        q = _fixed_level(rng.choice(ABELIAN_SPECS))
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


@_per_trial
def _suite_discretize(rng: random.Random) -> Optional[dict]:
    q, ranks, mats, images = random_torsion_level(rng)
    cx = induce_resolution(q, ranks, mats,
                           gen_images=images, augmented=False)
    dims, level = coinvariants_complex(cx)
    routes = {
        "reduced": homology_of_complex(dims, level),
        # the dense Smith loop on each whole boundary
        "dense": homology_from_factors(dims, [_core_invariant_factors(
            to_dense(m, w)) for m, w in zip(level, dims[1:])]),
        # the gradient's rows, from the ring entries pushed once
        "shapiro": homology_of_complex(*shapiro_complex(
            q, ranks, push_complex(q, ranks, mats, images))),
    }
    if not routes["reduced"] == routes["dense"] == routes["shapiro"]:
        return {"complex": cx.to_json(),
                **{k: list(map(str, v)) for k, v in routes.items()}}


# suite name -> (runner, default trial count)
VERIFY_SUITES = {
    "opnorm": (_suite_opnorm, 200), "gabber": (_suite_gabber, 200),
    "strictify": (_suite_strictify, 25), "rokhlin": (_suite_rokhlin, 6),
    "lognorm": (_suite_lognorm, 60), "retract": (_suite_retract, 20),
    "discretize": (_suite_discretize, 200)}


def run_verify(suite: str, seed: int, trials: int) -> list:
    """Run one verification suite; returns the list of failing cases,
    each with the suite's name."""
    if suite not in VERIFY_SUITES:
        raise ConfigError(f"unknown suite {suite!r}; "
                          f"choose from {', '.join(VERIFY_SUITES)}")
    if trials < 0:
        raise ConfigError("trials must be >= 0")
    runner = VERIFY_SUITES[suite][0]
    with shared_levels():
        return [{"suite": suite, **case}
                for case in runner(random.Random(seed), trials)]
