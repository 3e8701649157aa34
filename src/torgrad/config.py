"""The gradient config, checked whole before any level is computed: a
bad config is refused naming the first key or level at fault.  Each level
is enumerated here, once, and handed on to the computation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .constructions import family_presentation, resolution_by_name
from .groups import FiniteQuotient, OrderCapExceeded, word_to_str
from .lognorm import STRATEGIES


class ConfigError(ValueError):
    """Bad experiment configuration; maps to exit code 1."""


GRADIENT_STRATEGIES = tuple(s for s in STRATEGIES if s != "exact")
CONFIG_KEYS = ("family", "param", "levels", "degrees", "p", "strategy",
               "embedding", "output")
P_CAP = 2 ** 31  # keeps the trial division below fast


@dataclass(frozen=True)
class GradientConfig:
    resolution: tuple      # (ranks, matrices) over the free group ring
    levels: tuple          # one FiniteQuotient per level, orders increasing
    degrees: tuple
    p: int
    strategy: str
    tile: Optional[int]    # Rokhlin tile of the target; None: induced
    output: Optional[str]


def check_path(name: str, path) -> Optional[str]:
    """path, when it is None or a nonempty string without NUL (on which
    open() raises ValueError, not OSError)."""
    if path is not None and (not isinstance(path, str)
                             or not path or "\0" in path):
        raise ConfigError(f"{name} must be a nonempty path string, "
                          f"got {path!r}")
    return path


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % k for k in range(2, math.isqrt(p) + 1))


def _parse_tile(config: dict, family: str) -> Optional[int]:
    """The Rokhlin tile of the configured embedding, None for the induced
    target; a cheap embedding is the tile ceil(2 / epsilon)."""
    embedding = config.get("embedding")
    if embedding in (None, "induced"):
        return None
    if not isinstance(embedding, dict) or embedding.get("kind") not in (
            "rokhlin", "cheap"):
        raise ConfigError("embedding must be 'induced' or a dict with kind "
                          "rokhlin|cheap")
    if family != "integers":
        raise ConfigError("rokhlin and cheap embeddings target the integers "
                          "family only")
    size_key = "tile" if embedding["kind"] == "rokhlin" else "epsilon"
    for key in embedding:
        if key not in ("kind", size_key):
            raise ConfigError(f"unknown key {key!r} in the "
                              f"{embedding['kind']} embedding")
    if size_key == "tile":
        tile = embedding.get("tile")
        if not isinstance(tile, int) or isinstance(tile, bool) or tile < 1:
            raise ConfigError("rokhlin embedding needs a positive integer "
                              "tile")
        return tile
    eps = embedding.get("epsilon")
    # 2 / eps overflows to inf for a subnormal epsilon
    if (not isinstance(eps, (int, float)) or isinstance(eps, bool)
            or not 0 < eps or not math.isfinite(2 / eps)):
        raise ConfigError("cheap embedding needs an epsilon > 0")
    return max(1, math.ceil(2 / eps))


def parse_gradient_config(config: dict) -> GradientConfig:
    """The checked gradient config of a JSON object: output, unknown keys,
    family, param, levels, degrees, p, strategy, embedding, then each
    level in turn against the family's generator count and relators and,
    under an embedding, for a cyclic level of order at least the tile."""
    output = check_path("output", config.get("output"))
    for key in config:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r} in the config; expected "
                              f"one of {', '.join(CONFIG_KEYS)}")
    family = config.get("family")
    if not isinstance(family, str):
        raise ConfigError("config needs a resolution family under 'family'")
    param = config.get("param")
    if param is not None and (not isinstance(param, int)
                              or isinstance(param, bool)):
        raise ConfigError(f"param must be an integer, got {param!r}")
    try:
        presentation = family_presentation(family, param)
        resolution = resolution_by_name(family, param)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    specs = config.get("levels")
    if (not isinstance(specs, list) or not specs
            or not all(isinstance(spec, dict) for spec in specs)):
        raise ConfigError("config needs a nonempty list of JSON objects "
                          "under 'levels'")
    degrees = config.get("degrees", list(range(len(resolution[0]))))
    if (not isinstance(degrees, list) or not degrees
            or any(not isinstance(n, int) or isinstance(n, bool) or n < 0
                   for n in degrees)):
        raise ConfigError("degrees must be a nonempty list of integers >= 0")
    p = config.get("p", 2)
    if not isinstance(p, int) or p >= P_CAP or not _is_prime(p):
        raise ConfigError(f"p must be a prime below 2**31, got {p!r}")
    strategy = config.get("strategy", "atoms")
    if strategy not in GRADIENT_STRATEGIES:
        # exact search is capped at EXACT_ATOM_CAP atoms, which an induced
        # level of any interest exceeds
        raise ConfigError(f"lognorm strategy {strategy!r} is not usable in "
                          f"gradient; choose from "
                          f"{', '.join(GRADIENT_STRATEGIES)}")
    tile = _parse_tile(config, family)
    levels = []
    prev_order = 0
    for idx, spec in enumerate(specs, start=1):
        try:
            quotient = FiniteQuotient.from_json(spec)
        except (KeyError, TypeError, ValueError, OrderCapExceeded) as exc:
            raise ConfigError(f"level {idx}: {exc}") from None
        if quotient.order <= prev_order:
            raise ConfigError(f"level {idx}: chain orders must increase "
                              f"({quotient.order} after {prev_order})")
        prev_order = quotient.order
        gens = presentation.num_generators
        if len(quotient.generator_images) != gens:
            raise ConfigError(
                f"level {idx}: {len(quotient.generator_images)} generator "
                f"images for a {family} resolution on {gens} generators")
        # Fox's formula gives d_1 d_2 = r - 1 (and the Koszul squares are
        # commutators), so d d = 0 at the level iff every relator maps to 1
        for rel in presentation.relators:
            if quotient.evaluate_word(rel) != quotient.identity:
                raise ConfigError(
                    f"level {idx}: the generator images break a relation of "
                    f"the {family} family: the relator {word_to_str(rel)} is "
                    "not the identity")
        if tile is not None:
            if (spec.get("kind") != "abelian" or len(spec["moduli"]) != 1
                    or spec.get("images") not in (None, [[1]])):
                raise ConfigError(f"level {idx}: embeddings need plain "
                                  "cyclic levels (abelian, one modulus)")
            if tile > quotient.order:
                raise ConfigError(f"level {idx}: need 1 <= tile <= modulus")
        levels.append(quotient)
    return GradientConfig(resolution, tuple(levels), tuple(degrees), p,
                          strategy, tile, output)
