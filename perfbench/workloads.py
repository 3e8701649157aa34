"""Workloads of the torgrad benchmark and the oracle that checks their output.

A workload is a fixed list of invocations of ``torgrad.pipeline.main``.  The
seed only picks inputs the answer does not depend on: generator images that
are automorphisms of the level (so |G| and the homology stay the same), a
Rokhlin tile from a range where the embedding costs the same, and the seed of
the verify suites.  So the oracle is a closed form plus golden CSV bytes
captured once, never a second run of the program under test.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

GOLDEN = Path(__file__).resolve().parent / "golden"

# Library modules of the package, one layer each; everything else in the
# package (today only torgrad.pipeline) is the CLI layer "pipeline".
LIBRARY = ("groups", "crossring", "complexes", "strictify", "lognorm",
           "discretize", "constructions")

# Trial counts scaled up from the defaults so that no suite is trivially
# short next to the others.
VERIFY_TRIALS = (("opnorm", 1000), ("gabber", 2000), ("strictify", 200),
                 ("rokhlin", 30), ("lognorm", 600), ("retract", 200))

# Rokhlin tiles whose embedding into Z/100 .. Z/400 costs about the same;
# small tiles and tiles near the modulus cost up to 25 times more.
CYCLIC_TILES = range(6, 17)

# Layers that a traced pass of each workload must reach.
EXPECTED_LAYERS = {
    "gradient-ladder": ("groups", "complexes", "discretize", "lognorm",
                        "constructions"),
    "gradient-cyclic": ("groups", "complexes", "discretize", "lognorm",
                        "constructions"),
    "verify-mix": LIBRARY,
}


@dataclass(frozen=True)
class Invocation:
    """One call of ``main``: a gradient config or a verify argv."""
    label: str
    ops: int
    config: Optional[dict] = None   # gradient: written to a file first
    verify: Optional[tuple] = None  # verify: (suite, trials, seed)
    golden: Optional[str] = None    # gradient: golden CSV file name

    def argv(self, config_path: Optional[str]) -> list:
        if self.config is not None:
            return ["gradient", "--config", config_path]
        suite, trials, seed = self.verify
        return ["verify", suite, "--trials", str(trials), "--seed", str(seed)]

    def check(self, rc, out: str) -> tuple:
        """(failed ops, messages) for one invocation's exit code and stdout."""
        if self.config is not None:
            return _check_gradient(self, rc, out)
        return _check_verify(self, rc, out)


def _det(m: list) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:]
                                           for row in m[1:]])
               for j in range(len(m)))


def _automorphism(rng: random.Random, k: int, m: int) -> list:
    """Generator images (Z/m)^k -> (Z/m)^k with unit determinant, so the
    images generate the whole group."""
    while True:
        images = [[rng.randrange(m) for _ in range(k)] for _ in range(k)]
        if math.gcd(_det(images) % m, m) == 1:
            return images


def _ladder(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for family, param, k, moduli in (("free", 2, 2, (8, 10, 12, 14, 16)),
                                     ("surface", 2, 4, (2, 3)),
                                     ("free_abelian", 3, 3, (3, 4))):
        levels = [{"kind": "abelian", "moduli": [m] * k,
                   "images": _automorphism(rng, k, m)} for m in moduli]
        config = {"family": family, "param": param, "levels": levels,
                  "strategy": "atoms"}
        out.append(Invocation(f"gradient {family} {param}", len(levels),
                              config=config,
                              golden=f"gradient-ladder-{family}.csv"))
    return out


def _cyclic(seed: int) -> list:
    tile = random.Random(seed).choice(CYCLIC_TILES)
    levels = [{"kind": "abelian", "moduli": [m]} for m in (100, 200, 300, 400)]
    config = {"family": "integers", "levels": levels, "strategy": "atoms",
              "embedding": {"kind": "rokhlin", "tile": tile}}
    return [Invocation(f"gradient integers tile {tile}", len(levels),
                       config=config,
                       golden=f"gradient-cyclic-tile{tile}.csv")]


def _verify(seed: int) -> list:
    return [Invocation(f"verify {suite}", trials, verify=(suite, trials, seed))
            for suite, trials in VERIFY_TRIALS]


WORKLOADS = {"gradient-ladder": _ladder, "gradient-cyclic": _cyclic,
             "verify-mix": _verify}


def invocations(workload: str, seed: int) -> list:
    return WORKLOADS[workload](seed)


# ---------------------------------------------------------------------------
# oracle


def expected_betti(family: str, param: Optional[int], order: int) -> list:
    """Rational Betti numbers of the finite cover, degree 0 to the top."""
    if family == "free":
        return [1, 1 + (param - 1) * order]
    if family == "surface":
        return [1, 2 + (2 * param - 2) * order, 1]
    if family == "free_abelian":
        return [math.comb(param, k) for k in range(param + 1)]
    if family == "integers":
        return [1, 1]
    raise ValueError(f"no closed form for family {family!r}")


def _check_gradient(inv: Invocation, rc, out: str) -> tuple:
    config = inv.config
    levels = len(config["levels"])
    if rc != 0:
        return levels, [f"{inv.label}: exit code {rc}"]
    golden = (GOLDEN / inv.golden).read_text()
    lines, gold = out.splitlines(), golden.splitlines()
    if out != golden and (len(lines) != len(gold) or lines[0] != gold[0]
                          or not out.endswith("\n")):
        return levels, [f"{inv.label}: output is not shaped like "
                        f"{inv.golden}: {out[:200]!r}"]
    bad, messages = set(), []
    for line, ref in zip(lines[1:], gold[1:]):
        if line != ref:
            bad.add(int(ref.split(",")[0]))
            messages.append(f"{inv.label}: {line!r} != golden {ref!r}")

    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    for idx, spec in enumerate(config["levels"], start=1):
        order = math.prod(spec["moduli"])
        betti = expected_betti(config["family"], config.get("param"), order)
        want = [(str(order), str(n), str(b)) for n, b in enumerate(betti)]
        got = [r for r in rows if r["level"] == str(idx)]
        ok = [(r.get("|G|"), r.get("degree"), r.get("betti_q"))
              for r in got] == want
        ok = ok and all(r.get("betti_p") == r.get("betti_q")
                        and r.get("logtors") == "0"
                        and r.get("verdict", "PASS") == "PASS" for r in got)
        if not ok:
            bad.add(idx)
            messages.append(f"{inv.label} level {idx}: rows {got} do not "
                            f"match the closed form (|G|, degree, betti) "
                            f"{want}, betti_p == betti_q, logtors 0")
    return len(bad), messages


_VERIFY_LINE = re.compile(
    r"^suite (\w+): trials=(\d+) failures=(\d+) (PASS|FAIL)$")


def _check_verify(inv: Invocation, rc, out: str) -> tuple:
    suite, trials, _ = inv.verify
    match = _VERIFY_LINE.match(out.strip())
    if (match is None or match.group(1) != suite
            or int(match.group(2)) != trials):
        return trials, [f"{inv.label}: exit code {rc}, output {out!r}"]
    failures = int(match.group(3))
    if rc == 0 and failures == 0 and match.group(4) == "PASS":
        return 0, []
    return max(failures, 1), [f"{inv.label}: exit code {rc}, {out.strip()}"]
