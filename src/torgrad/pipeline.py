"""Command line driver: gradient tables and the CLI commands.

The verification suites live in ``torgrad.verify``.  One exit-code
convention everywhere: 0 success, 1 a configuration or usage problem, 2 a
verification failure (an identity or inequality that should hold did
not).  Failing cases are serialized as JSON on stderr, and identical
config + seed gives byte-identical CSV.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import (
    defect_report,
    induce_resolution,
    push_complex,
)
from .config import (
    ConfigError,
    GradientConfig,
    check_path,
    parse_gradient_config,
)
from .constructions import (
    integers_embedding,
    resolution_by_name,
    rokhlin_partition,
)
from .crossring import MarkedMorphism
from .discretize import (
    HomologyResult,
    _reduced_homology,
    betti_mod_p,
    coinvariants_complex,
    coinvariants_matrix,
    shapiro_complex,
)
from .groups import FiniteQuotient, OrderCapExceeded, order_cap
from .lognorm import LOG_SLACK, STRATEGIES, lognorm_rows
from .strictify import strictify_complex
from .verify import (
    VERIFY_SUITES,
    perturb_complex,
    rokhlin_checks,
    run_verify,
    strictify_witness_bounds,
)


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
    parse_gradient_config has checked and enumerated.

    At each level the resolution's ring entries are pushed once and d d = 0
    is checked on those ranks x ranks matrices (push_complex); the
    coinvariant rows are built straight from them (shapiro_complex) and
    each boundary is factored once: betti_q, logtors and, by universal
    coefficients, betti_p.  No marked complex is built; the induced
    resolution's coinvariants are the tests' independent route to the same
    rows.

    dim_upper and lognorm_upper are read from one target pair (tdims,
    tmats) of coinvariant dimensions and rows: the level's own rows on the
    induced target, whose boundary ranks the homology already holds, or
    the Rokhlin tile complex's under an embedding, which adds the bound
    columns and the verdict.  A degree above the resolution reads zero
    homology, and one above the target zero bounds."""
    embedded = cfg.tile is not None
    ranks = cfg.resolution[0]
    rows = []
    for idx, quotient in enumerate(cfg.levels, start=1):
        order = quotient.order
        pushed = push_complex(quotient, *cfg.resolution)
        dims, mats = shapiro_complex(quotient, ranks, pushed)
        homology = _reduced_homology(dims, mats)
        betti_p = betti_mod_p(homology, cfg.p)
        per_degree = dict(enumerate(zip(homology, betti_p)))
        if embedded:
            tdims, tmats = coinvariants_complex(
                rokhlin_partition(order, cfg.tile).complex)
        else:
            tdims, tmats = dims, mats
        for n in cfg.degrees:
            h, bp = per_degree.get(n, (HomologyResult(0, (), 0), 0))
            dim_upper = Fraction(tdims[n] if n < len(tdims) else 0, order)
            hint = None if embedded else h.boundary_rank
            ln_upper = (lognorm_rows(tmats[n], tdims[n + 1], order,
                                     cfg.strategy, hint)[0]
                        if n < len(tmats) else 0.0)
            bounds = ()
            if embedded:
                betti_bound = order * dim_upper
                torsion_bound = order * ln_upper
                bounds = (betti_bound, torsion_bound,
                          h.betti <= betti_bound and bp <= betti_bound
                          and h.log_torsion <= torsion_bound + LOG_SLACK)
            rows.append(GradientRow(idx, order, n, h.betti, bp,
                                    h.log_torsion, dim_upper, ln_upper,
                                    *bounds))

    columns = GRADIENT_COLUMNS + (BOUND_COLUMNS if embedded else ())
    return GradientTable(columns, tuple(rows))


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
        # the matrix's columns are the domain atoms, in atom order
        atoms = list(f.domain.atoms())
        value, blocks = lognorm_rows(coinvariants_matrix(f), len(atoms),
                                     f.space.order, args.strategy)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    certificate = {"strategy": args.strategy, "value": value,
                   "blocks": [[list(atoms[k]) for k in block]
                              for block in blocks]}
    print(_fmt(value))
    print(json.dumps(certificate, sort_keys=True))
    return 0


def cmd_strictify_demo(args) -> int:
    if args.order < 2:
        raise ConfigError("order must be >= 2")
    if args.cells < 0:
        raise ConfigError("cells must be >= 0")
    rng = random.Random(args.seed)
    space = FiniteQuotient.abelian([args.order])
    ranks, mats = resolution_by_name("free_abelian", 2)
    t = space.generator_images[0]
    base = induce_resolution(space, ranks, mats, gen_images=[t, t])
    pert = perturb_complex(rng, base, cells=args.cells)
    before = defect_report(pert)
    res = strictify_complex(pert)
    after = defect_report(res.complex)
    print(f"level order {space.order}, degrees 0..{base.top_degree}")
    for r in range(base.top_degree):
        defect = before.aug_size if r == 0 else before.sizes[r + 1]
        print(f"degree {r}: input defect {defect}, "
              f"error dim {res.error_dims[r]}")
    delta, k = strictify_witness_bounds(pert,
                                        Fraction(args.cells, space.order))
    witness = res.witness
    verified = witness.delta <= delta and witness.k <= k
    print(f"output strict: {after.is_strict}")
    print(f"witness delta={witness.delta} k={witness.k} "
          f"verified: {verified}")
    return 0 if after.is_strict and verified else 2


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state
    between calls, and main runs many times in one process in the tests
    and the benchmark."""
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
                    choices=STRATEGIES)

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
