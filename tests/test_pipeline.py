import ast
import contextlib
import copy
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import torgrad
from torgrad import (
    complexes,
    constructions,
    crossring,
    discretize,
    lognorm,
    pipeline,
    verify,
)
from torgrad.config import parse_gradient_config
from torgrad.complexes import induce_resolution
from torgrad.crossring import MarkedModule, MarkedMorphism
from torgrad.discretize import coinvariants_complex, homology_of_complex
from torgrad.groups import FiniteQuotient, word_to_str
from torgrad.strictify import strictify_complex
from helpers import (
    bench_workloads,
    certificate_value,
    lognorm_of,
    reference_lognorm_certificate,
)
from torgrad.pipeline import (
    ConfigError,
    GRADIENT_COLUMNS,
    main,
    run_gradient,
)
from torgrad.verify import (
    ROKHLIN_GRID,
    VERIFY_SUITES,
    random_base_complex,
    random_morphism,
    random_torsion_level,
    run_verify,
    shared_levels,
)


FREE_CHAIN = {
    "family": "free",
    "param": 2,
    "levels": [
        {"kind": "abelian", "moduli": [2, 2]},
        {"kind": "abelian", "moduli": [3, 3]},
        {"kind": "abelian", "moduli": [4, 4]},
    ],
    "degrees": [1],
}


def gradient(config):
    return run_gradient(parse_gradient_config(config))


def test_gradient_free_chain_frozen():
    table = gradient(FREE_CHAIN)
    assert table.columns == GRADIENT_COLUMNS
    got = [(r.order, r.betti_q, r.betti_p, r.logtors) for r in table.rows]
    assert got == [(4, 5, 5, 0.0), (9, 10, 10, 0.0), (16, 17, 17, 0.0)]
    # normalized column decreases toward d - 1 = 1
    lines = table.to_csv().strip().split("\n")[1:]
    normalized = [line.split(",")[6] for line in lines]
    assert normalized == ["1.25", "1.11111111111", "1.0625"]


def test_gradient_deterministic_bytes():
    assert gradient(FREE_CHAIN).to_csv() == gradient(FREE_CHAIN).to_csv()


def test_gradient_degenerate_degrees():
    # degrees above the resolution read zero homology; nothing is sized
    # by the degree
    cfg = dict(FREE_CHAIN, degrees=[0, 1, 3, 10 ** 9],
               levels=FREE_CHAIN["levels"][:1])
    table = gradient(cfg)
    assert [row.degree for row in table.rows] == [0, 1, 3, 10 ** 9]
    for top in table.rows[2:]:
        assert (top.betti_q, top.betti_p, top.logtors) == (0, 0, 0.0)
        assert top.dim_upper == 0 and top.lognorm_upper == 0.0


def test_gradient_embedding_rows():
    cfg = {
        "family": "integers",
        "levels": [{"kind": "abelian", "moduli": [6]},
                   {"kind": "abelian", "moduli": [12]}],
        "embedding": {"kind": "rokhlin", "tile": 2},
    }
    table = gradient(cfg)
    assert table.columns[-3:] == ("betti_bound", "torsion_bound", "verdict")
    assert table.all_pass
    for row in table.rows:
        assert row.betti_q == 1
        assert row.betti_q <= row.betti_bound
        assert row.logtors <= row.torsion_bound + 1e-9
    # cheap embedding picks the tile from epsilon
    cheap = gradient(dict(cfg, embedding={"kind": "cheap", "epsilon": 0.5}))
    assert cheap.all_pass
    assert float(cheap.rows[-1].dim_upper) < 0.5


@pytest.mark.parametrize("breakage", [
    {"family": 7},
    {"levels": []},
    {"levels": [{"kind": "abelian", "moduli": [4]},
                {"kind": "abelian", "moduli": [2]}]},
    {"degrees": [-1]},
    {"p": 4},
    {"strategy": "best"},
    {"family": "free", "embedding": {"kind": "rokhlin", "tile": 2}},
    {"embedding": {"kind": "rokhlin", "tile": 0}},
    {"embedding": {"kind": "cheap"}},
    {"levels": [{"kind": "abelian", "moduli": [2, 3]}],
     "embedding": {"kind": "rokhlin", "tile": 2}},
])
def test_gradient_config_errors(breakage):
    cfg = {"family": "integers",
           "levels": [{"kind": "abelian", "moduli": [4]}]}
    cfg.update(breakage)
    with pytest.raises(ConfigError):
        parse_gradient_config(cfg)


def test_gradient_cli_writes_files(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(FREE_CHAIN))
    out_path = tmp_path / "table.csv"
    json_path = tmp_path / "table.json"
    code = main(["gradient", "--config", str(cfg_path),
                 "--output", str(out_path), "--json", str(json_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith(",".join(GRADIENT_COLUMNS))
    data = json.loads(json_path.read_text())
    assert data["columns"] == list(GRADIENT_COLUMNS)
    assert len(data["rows"]) == 3
    # stdout path: same bytes
    assert main(["gradient", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == text


def test_gradient_cli_error_codes(tmp_path, capsys):
    assert main(["gradient", "--config", str(tmp_path / "nope.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gradient", "--config", str(bad)]) == 1
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert main(["gradient", "--config", str(listy)]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"family": "nowhere", "levels": [
        {"kind": "abelian", "moduli": [2]}]}))
    assert main(["gradient", "--config", str(broken)]) == 1
    capsys.readouterr()


def _gradient_cli_error(tmp_path, capsys, config, *extra):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["gradient", "--config", str(cfg_path), *extra])
    err = capsys.readouterr().err
    return code, err


def _cyclic_embedding(embedding):
    return {"family": "integers", "param": None, "embedding": embedding,
            "levels": [{"kind": "abelian", "moduli": [6]}]}


@pytest.mark.parametrize("breakage", [
    {"degrees": [True]},
    {"param": "x"},
    _cyclic_embedding({"kind": "rokhlin", "tile": True}),
    _cyclic_embedding({"kind": "cheap", "epsilon": True}),
    {"output": [1]},
    {"output": "table\0.csv"},
    {"levels": [1]},
    {"levels": [{"kind": "abelian", "moduli": [True, 3]}]},
    _cyclic_embedding({"kind": "cheap", "epsilon": 1e-320}),
    {"p": 2 ** 61 - 1},
    {"param": 10 ** 6},
    {"output": ""},
    {"family": "integers", "param": 3,
     "levels": [{"kind": "abelian", "moduli": [2]}]},
])
def test_gradient_cli_rejects_bad_values(tmp_path, capsys, breakage):
    code, err = _gradient_cli_error(tmp_path, capsys,
                                    dict(FREE_CHAIN, **breakage))
    assert code == 1
    assert err.startswith("config error:")


S3_LEVEL = {"kind": "permutation", "degree": 3,
            "images": [[1, 0, 2], [1, 2, 0]]}


@pytest.mark.parametrize("config,reason", [
    # three images for a two-generator family: F_2 maps onto only a
    # subgroup of index 4, so the level is a disconnected cover
    (dict(FREE_CHAIN, levels=[FREE_CHAIN["levels"][0],
                              {"kind": "abelian", "moduli": [4, 4, 4]}]),
     "3 generator images for a free resolution on 2 generators"),
    # non-commuting images break the surface relator and the Koszul square
    ({"family": "surface", "param": 1,
      "levels": [FREE_CHAIN["levels"][0], S3_LEVEL]},
     "break a relation of the surface family: the relator aba-1b-1 is not "
     "the identity"),
    ({"family": "free_abelian", "param": 2,
      "levels": [FREE_CHAIN["levels"][0], S3_LEVEL]},
     "break a relation of the free_abelian family: the relator aba-1b-1"),
    # generators past z are spelled {k}
    ({"family": "surface", "param": 14,
      "levels": [dict(FREE_CHAIN["levels"][0], images=[[1, 0], [0, 1]] * 14),
                 dict(S3_LEVEL, images=S3_LEVEL["images"] * 14)]},
     "yzy-1z-1{26}{27}{26}-1{27}-1 is not the identity"),
], ids=["too_many_generators", "surface_over_s3", "free_abelian_over_s3",
        "surface_genus_14_over_s3"])
def test_gradient_cli_refuses_levels_off_the_family(tmp_path, capsys, config,
                                                    reason):
    code, err = _gradient_cli_error(tmp_path, capsys, config)
    assert code == 1
    assert err.startswith("config error: level 2: ")
    assert reason in err


CYCLIC_CHAIN = {"family": "integers",
                "levels": [{"kind": "abelian", "moduli": [6]},
                           {"kind": "abelian", "moduli": [12]}]}


@pytest.mark.parametrize("config, reason", [
    (dict(FREE_CHAIN, levels=FREE_CHAIN["levels"]
          + [{"kind": "abelian", "moduli": [5, 5, 5]}]),
     "level 4: 3 generator images for a free resolution on 2 generators"),
    (dict(FREE_CHAIN, family="surface", param=1, levels=FREE_CHAIN["levels"]
          + [{"kind": "permutation", "degree": 4,
              "images": [[1, 0, 2, 3], [1, 2, 3, 0]]}]),
     "level 4: the generator images break a relation of the surface "
     "family: the relator aba-1b-1"),
    (dict(CYCLIC_CHAIN, embedding={"kind": "rokhlin", "tile": 2},
          levels=CYCLIC_CHAIN["levels"]
          + [{"kind": "abelian", "moduli": [4, 5], "images": [[1, 1]]}]),
     "level 3: embeddings need plain cyclic levels"),
    # orders increase, so a tile above one level is above the first
    (dict(CYCLIC_CHAIN, embedding={"kind": "rokhlin", "tile": 7}),
     "level 1: need 1 <= tile <= modulus"),
], ids=["generator_count", "relator", "non_cyclic", "tile"])
def test_gradient_cli_checks_every_level_before_computing(
        tmp_path, capsys, monkeypatch, config, reason):
    calls = []
    build = pipeline.push_complex

    def counted(*args, **kwargs):
        calls.append(args[0].order)
        return build(*args, **kwargs)

    monkeypatch.setattr(pipeline, "push_complex", counted)
    code, err = _gradient_cli_error(tmp_path, capsys, config)
    assert code == 1
    assert err.startswith(f"config error: {reason}")
    assert calls == []


@pytest.mark.parametrize("config, key", [
    (dict(FREE_CHAIN, stratgy="block"), "'stratgy'"),
    (dict(FREE_CHAIN, degree=[1]), "'degree'"),
    (dict(FREE_CHAIN, levels=[{"kind": "abelian", "moduli": [3, 3],
                               "image": [[1, 0], [1, 0]]}]), "'image'"),
    (dict(FREE_CHAIN, levels=[dict(S3_LEVEL, moduli=[6])]), "'moduli'"),
    (_cyclic_embedding({"kind": "rokhlin", "tile": 2, "epsilon": 0.5}),
     "'epsilon'"),
    (_cyclic_embedding({"kind": "cheap", "epsilon": 0.5, "tile": 2}),
     "'tile'"),
], ids=["top_level", "degree_for_degrees", "level_image", "level_moduli",
        "rokhlin_epsilon", "cheap_tile"])
def test_gradient_cli_refuses_unknown_keys(tmp_path, capsys, config, key):
    code, err = _gradient_cli_error(tmp_path, capsys, config)
    assert code == 1
    assert err.startswith("config error:")
    assert f"unknown key {key}" in err


@pytest.mark.parametrize("command", ["gradient", "lognorm"])
@pytest.mark.parametrize("degree", [3 * 10 ** 6, 10 ** 30])
def test_cli_refuses_permutation_degree_before_building(tmp_path, capsys,
                                                        command, degree):
    # images of 3 entries on a huge degree: refused before anything of
    # size degree is built
    level = dict(S3_LEVEL, degree=degree)
    if command == "gradient":
        flag, data = "--config", dict(FREE_CHAIN, levels=[level])
    else:
        flag, data = "--input", dict(_one_atom_morphism(), quotient=level)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        code = main([command, flag, str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert f"each with exactly {degree} entries" in captured.err
    assert peak < 2 * 10 ** 6


def test_gradient_cli_rejects_exact_strategy(tmp_path, capsys, monkeypatch):
    # refused before any level is built
    monkeypatch.setattr(FiniteQuotient, "from_json", None)
    code, err = _gradient_cli_error(tmp_path, capsys,
                                    dict(FREE_CHAIN, strategy="exact"))
    assert code == 1
    assert err.startswith("config error:")
    assert "atoms, greedy, block" in err


def test_gradient_cli_order_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORGRAD_ORDER_CAP", "10")
    code, err = _gradient_cli_error(tmp_path, capsys, FREE_CHAIN)
    assert code == 1
    assert err.startswith("config error: level 3:")


def test_gradient_cli_refuses_empty_output_flag(tmp_path, capsys,
                                                monkeypatch):
    # --output is taken whenever it is given, so an empty one is refused
    # rather than falling through to the config's path
    monkeypatch.chdir(tmp_path)
    code, err = _gradient_cli_error(
        tmp_path, capsys, dict(FREE_CHAIN, output="from_config.csv"),
        "--output", "")
    assert code == 1
    assert err.startswith("config error: output must be a nonempty path")
    assert not (tmp_path / "from_config.csv").exists()


def test_gradient_cli_refuses_empty_json_flag(tmp_path, capsys,
                                              monkeypatch):
    # an empty --json path is refused before any level is built, rather
    # than read as absent
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(FiniteQuotient, "from_json", None)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(FREE_CHAIN))
    code = main(["gradient", "--config", str(cfg_path), "--json", ""])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("config error: json must be a nonempty "
                                   "path string, got ''")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]


def test_gradient_cli_unwritable_output(tmp_path, capsys):
    missing = tmp_path / "missing" / "table.csv"
    code, err = _gradient_cli_error(tmp_path, capsys, FREE_CHAIN,
                                    "--output", str(missing))
    assert code == 1
    assert err.startswith("config error: cannot write output:")


# Small valid configs, one per embedding kind, and the places a mutation
# may hit: top-level keys, keys of the first level and of the embedding.
FUZZ_BASES = (
    dict(FREE_CHAIN, levels=[{"kind": "abelian", "moduli": [2, 2]},
                             {"kind": "abelian", "moduli": [3, 3],
                              "images": [[1, 1], [0, 1]]}],
         degrees=[0, 1], p=2, strategy="atoms"),
    _cyclic_embedding({"kind": "rokhlin", "tile": 2}),
    _cyclic_embedding({"kind": "cheap", "epsilon": 0.5}),
    dict(FREE_CHAIN, levels=[S3_LEVEL]),
)
FUZZ_PATHS = (("family",), ("param",), ("levels",), ("degrees",), ("p",),
              ("strategy",), ("embedding",), ("output",),
              ("levels", 0, "kind"), ("levels", 0, "moduli"),
              ("levels", 0, "images"), ("levels", 0, "degree"),
              ("embedding", "kind"), ("embedding", "tile"),
              ("embedding", "epsilon"))
# no "/" in strings: an "output" value is a path relative to a temporary dir
fuzz_text = st.text(alphabet="ab01.\0", max_size=4)
fuzz_leaf = st.one_of(st.none(), st.booleans(), st.floats(), fuzz_text,
                      st.integers(-10 ** 6, 0), st.integers(10 ** 6, 10 ** 30))
fuzz_value = st.one_of(fuzz_leaf, st.lists(fuzz_leaf, max_size=3),
                       st.dictionaries(fuzz_text, fuzz_leaf, max_size=2))
DELETE = object()


@given(st.sampled_from(FUZZ_BASES), st.sampled_from(FUZZ_PATHS),
       st.one_of(fuzz_value, st.just(DELETE)))
@settings(deadline=None, max_examples=200)
def test_gradient_config_fuzz(base, path, value):
    config = copy.deepcopy(base)
    owner = config
    for key in path[:-1]:
        owner = owner.get(key) if isinstance(owner, dict) else owner[key]
        if not isinstance(owner, (dict, list)):
            return
    if value is DELETE:
        if isinstance(owner, dict):
            owner.pop(path[-1], None)
    else:
        owner[path[-1]] = value
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        cfg_path = os.path.join(workdir, "exp.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["gradient", "--config", cfg_path])
        finally:
            os.chdir(old)
    assert code in (0, 1, 2)
    assert code != 1 or err.getvalue().startswith("config error:")


def test_module_start_runs_once():
    # python -m torgrad.pipeline must not import the module a second time
    # through the package (runpy warns on stderr when it does)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "torgrad.pipeline", "verify", "gabber",
         "--trials", "0"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "suite gabber: trials=0 failures=0 PASS\n"
    assert proc.stderr == ""


def test_top_level_definitions_have_a_caller():
    # every top-level function and class of the package is used somewhere
    # in the package outside its own definition and __init__.py, so the
    # library does not keep code that only tests reach; torgrad.__all__
    # names only such definitions
    defined = set()
    used = set()
    for path in Path(torgrad.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
                names.discard(stmt.name)
            used |= names
    assert not defined - used, (
        f"defined but used only by tests: {sorted(defined - used)}")
    assert not set(torgrad.__all__) - defined, (
        "exported but not a top-level definition of the package: "
        f"{sorted(set(torgrad.__all__) - defined)}")


# The JSON readers and writers may lack a caller: failing verify cases print
# morphisms and complexes as JSON so that they can be read back and replayed.
REPLAY_METHODS = frozenset({"to_json", "from_json"})


def test_public_methods_have_a_caller():
    # every public method or property of a class in the package is used as
    # an attribute somewhere in the package outside its own definition.  A
    # use C.name with C a class of the package counts for C only; any other
    # x.name counts for every class with a method of that name.
    trees = {path: ast.parse(path.read_text())
             for path in Path(torgrad.__file__).parent.glob("*.py")}
    classes = set()
    methods = {}  # (class, name) -> (path, first line, last line)
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            classes.add(cls.name)
            for item in cls.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")
                        and item.name not in REPLAY_METHODS):
                    methods[cls.name, item.name] = (path, item.lineno,
                                                    item.end_lineno)
    uses = [(node.attr, getattr(node.value, "id", None), path, node.lineno)
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)]

    def has_caller(cls, name, home, first, last):
        return any(attr == name and (owner == cls or owner not in classes)
                   and not (path == home and first <= line <= last)
                   for attr, owner, path, line in uses)

    unused = sorted(f"{cls}.{name}"
                    for (cls, name), where in methods.items()
                    if not has_caller(cls, name, *where))
    assert not unused, f"methods used only by tests: {unused}"


def _is_dataclass_decorator(node) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def test_dataclass_fields_are_read():
    # every annotated field of a dataclass in the package is read as an
    # attribute somewhere in the package or the tests, so results do not
    # carry values that no caller looks at
    package = sorted(Path(torgrad.__file__).parent.glob("*.py"))
    trees = [ast.parse(path.read_text())
             for path in package + sorted(Path(__file__).parent.glob("*.py"))]
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    unread = sorted(
        f"{cls.name}.{item.target.id}"
        for tree in trees[:len(package)] for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(map(_is_dataclass_decorator, cls.decorator_list))
        for item in cls.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and item.target.id not in loaded)
    assert not unread, f"dataclass fields that nothing reads: {unread}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_ladder_matches_golden_csv(tmp_path, capsys, seed):
    workloads = bench_workloads()
    for inv in workloads.invocations("gradient-ladder", seed):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(inv.config))
        assert main(inv.argv(str(cfg_path))) == 0
        golden = (workloads.GOLDEN / inv.golden).read_text()
        assert capsys.readouterr().out == golden, inv.label


def test_gradient_cyclic_matches_golden_csv(tmp_path, capsys):
    # the benchmark's embedding configs, one per tile; the seed picks the
    # tile, so seeds are taken in order until every tile is seen
    workloads = bench_workloads()
    by_tile, seed = {}, 0
    while len(by_tile) < len(workloads.CYCLIC_TILES):
        inv, = workloads.invocations("gradient-cyclic", seed)
        by_tile.setdefault(inv.config["embedding"]["tile"], inv)
        seed += 1
    assert sorted(by_tile) == list(workloads.CYCLIC_TILES)
    for inv in by_tile.values():
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(inv.config))
        assert main(inv.argv(str(cfg_path))) == 0
        golden = (workloads.GOLDEN / inv.golden).read_text()
        assert capsys.readouterr().out == golden, inv.label


@pytest.mark.parametrize("family, param, moduli, betti", [
    ("surface", 2, [10] * 4, [1, 2 + 2 * 10 ** 4, 1]),
    ("free_abelian", 3, [21] * 3, [1, 3, 3, 1]),
], ids=["surface2-Z10^4", "free_abelian3-Z21^3"])
def test_gradient_near_the_order_cap_matches_closed_forms(family, param,
                                                          moduli, betti):
    table = gradient({"family": family, "param": param,
                      "levels": [{"kind": "abelian", "moduli": moduli}]})
    order = math.prod(moduli)
    assert [(row.order, row.degree, row.betti_q, row.betti_p, row.logtors)
            for row in table.rows] == [(order, n, b, b, 0)
                                       for n, b in enumerate(betti)]


def test_main_builds_its_parser_once(tmp_path, capsys):
    assert pipeline.build_parser() is pipeline.build_parser()
    # a reused parser keeps nothing from one call to the next: without
    # --output the second table goes to stdout
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(FREE_CHAIN))
    out_path = tmp_path / "table.csv"
    assert main(["gradient", "--config", str(cfg_path),
                 "--output", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["gradient", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == out_path.read_text() != ""


def test_gradient_lognorm_column_matches_reference():
    # the lognorm_upper column is read off the coinvariant rows that the
    # homology used; on the first two levels of each benchmark ladder
    # family it equals the bound by the route on morphisms, bit for bit
    for inv in bench_workloads().invocations("gradient-ladder", 0):
        for strategy in ("atoms", "greedy", "block"):
            cfg = parse_gradient_config(dict(
                inv.config, levels=inv.config["levels"][:2],
                strategy=strategy))
            rows = run_gradient(cfg).rows
            assert {row.level for row in rows} == {1, 2}
            for row in rows:
                induced = induce_resolution(cfg.levels[row.level - 1],
                                            *cfg.resolution, augmented=False)
                n = row.degree
                want = (reference_lognorm_certificate(
                    induced.boundary(n + 1), strategy)[0]
                    if n + 1 <= induced.top_degree else 0.0)
                assert repr(row.lognorm_upper) == repr(want), (
                    inv.label, strategy, row.level, n)


@pytest.mark.parametrize("embedded", [False, True])
def test_gradient_builds_each_level_from_the_pushed_ring_data(monkeypatch,
                                                              embedded):
    # each level pushes every ring entry once and checks d d = 0 on the
    # pushed matrices once; each boundary's rows are built once from them,
    # and the lognorm bound reads those rows; no marked complex is built
    # and no coinvariant cell is multiplied out
    names = ("push_complex", "push_to_quotient", "shapiro_matrix",
             "induce_resolution", "coinvariants_matrix", "_composes_to_zero",
             "_point_masses")
    calls = dict.fromkeys(names, 0)

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (pipeline, complexes, discretize, lognorm, crossring):
        for name in names:
            if name in vars(module):
                monkeypatch.setattr(module, name, counted(vars(module)[name]))
    if embedded:
        config = {"family": "integers",
                  "levels": [{"kind": "abelian", "moduli": [m]}
                             for m in (20, 30)],
                  "embedding": {"kind": "rokhlin", "tile": 4}}
    else:
        config = bench_workloads().invocations("gradient-ladder", 0)[1].config
    cfg = parse_gradient_config(config)
    assert len(cfg.levels) == 2
    ranks, mats = cfg.resolution
    entries = sum(len(row) for mat in mats for row in mat)
    table = run_gradient(cfg)
    assert all(row.verdict is not None for row in table.rows) == embedded
    # on the Rokhlin target the lognorm bound of the tile complex's one
    # boundary reads that boundary's coinvariants, once per level
    assert calls == {"push_complex": 2, "push_to_quotient": 2 * entries,
                     "shapiro_matrix": 2 * len(mats), "induce_resolution": 0,
                     "coinvariants_matrix": 2 if embedded else 0,
                     "_composes_to_zero": 0, "_point_masses": 0}


def _bench_tracer(monkeypatch):
    """perfbench/workloads.py and a Tracer of perfbench/tracer.py, read
    only."""
    workloads = bench_workloads()
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    path = Path(workloads.__file__).with_name("tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return workloads, tracer_module.Tracer()


def test_traced_gradient_ladder_reaches_every_layer(tmp_path, capsys,
                                                    monkeypatch):
    # perfbench/tracer.py wraps what the CLI-layer modules (pipeline,
    # config, verify) import from each library layer; a function moved
    # between modules must not leave a layer the benchmark expects without
    # a span
    workloads, tracer = _bench_tracer(monkeypatch)
    tracer.install(run_id=0)
    try:
        start = time.perf_counter()
        for inv in workloads.invocations("gradient-ladder", 0):
            cfg_path = tmp_path / "exp.json"
            cfg_path.write_text(json.dumps(inv.config))
            assert main(inv.argv(str(cfg_path))) == 0
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    capsys.readouterr()
    reached = tracer.summarize(0, wall)["layers_reached"]
    assert set(workloads.EXPECTED_LAYERS["gradient-ladder"]) <= set(reached)


def test_traced_verify_mix_reaches_every_layer(capsys, monkeypatch):
    # the suites reach the library through torgrad.verify's bindings; each
    # suite of the benchmark's verify-mix, run briefly, leaves a span in
    # every layer that workload expects
    workloads, tracer = _bench_tracer(monkeypatch)
    tracer.install(run_id=0)
    try:
        start = time.perf_counter()
        for suite, _ in workloads.VERIFY_TRIALS:
            assert main(["verify", suite, "--trials", "3"]) == 0
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    capsys.readouterr()
    reached = tracer.summarize(0, wall)["layers_reached"]
    assert set(workloads.EXPECTED_LAYERS["verify-mix"]) <= set(reached)


SMALL_TRIALS = {"opnorm": 25, "gabber": 50, "strictify": 8,
                "rokhlin": 2, "lognorm": 25, "retract": 8, "discretize": 60}


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_suites_pass(suite):
    assert run_verify(suite, seed=11, trials=SMALL_TRIALS[suite]) == []


def test_verify_discretize_levels_have_torsion(monkeypatch):
    # the suite's levels carry torsion, on permutation quotients too
    rng = random.Random(3)
    seen = set()
    for _ in range(60):
        q, ranks, mats, images = random_torsion_level(rng)
        cx = induce_resolution(q, ranks, mats, gen_images=images,
                               augmented=False)
        homology = homology_of_complex(*coinvariants_complex(cx))
        if any(h.torsion for h in homology):
            seen.add(q.spec["kind"])
    assert seen == {"abelian", "permutation"}

    # and it reports a homology that forgets torsion
    def torsion_free(dims, mats):
        return tuple(dataclasses.replace(h, torsion=())
                     for h in homology_of_complex(dims, mats))
    monkeypatch.setattr(verify, "homology_of_complex", torsion_free)
    failures = run_verify("discretize", seed=11, trials=20)
    assert failures
    assert {f["suite"] for f in failures} == {"discretize"}
    json.dumps(failures)


def test_verify_strictify_witness_check_can_fail(monkeypatch):
    # a witness whose delta is pushed past its ceiling is reported
    def loose(cx):
        res = strictify_complex(cx)
        delta, _ = verify.strictify_witness_bounds(
            cx, Fraction(1, cx.space.order))
        return dataclasses.replace(res, witness=dataclasses.replace(
            res.witness, delta=delta + Fraction(1, cx.space.order)))
    monkeypatch.setattr(verify, "strictify_complex", loose)
    failures = run_verify("strictify", seed=11, trials=8)
    assert len(failures) == 8
    assert all(f["failed"] == ["witness"] for f in failures)


def test_verify_unknown_suite():
    with pytest.raises(ConfigError):
        run_verify("meta", 0, 1)
    with pytest.raises(ConfigError):
        run_verify("opnorm", seed=0, trials=-1)


def test_verify_cli(capsys):
    assert main(["verify", "opnorm", "--trials", "10", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "suite opnorm: trials=10 failures=0 PASS" in out
    # default trial count is reported when --trials is omitted
    assert main(["verify", "gabber"]) == 0
    assert f"trials={VERIFY_SUITES['gabber'][1]}" in capsys.readouterr().out


def test_verify_cli_reports_failures(monkeypatch, capsys):
    monkeypatch.setitem(VERIFY_SUITES, "gabber", (
        lambda rng, trials: [{"suite": "gabber", "trial": 0}], 200))
    assert main(["verify", "gabber", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert json.loads(captured.err.strip())["suite"] == "gabber"


def test_rokhlin_cli(capsys):
    assert main(["rokhlin", "--modulus", "7", "--tile", "2",
                 "--embedding"]) == 0
    out = capsys.readouterr().out
    assert "dim=4/7 boundary_norm=2" in out
    assert "FAIL" not in out
    assert "norms f0=1 f1=1 r0=1 r1=2 h0=1" in out
    assert main(["rokhlin", "--modulus", "4", "--tile", "5"]) == 1
    assert main(["rokhlin", "--modulus", "4", "--tile", "4",
                 "--embedding"]) == 1
    capsys.readouterr()


def test_rokhlin_checks_build_each_tile_once(monkeypatch, capsys):
    # one counter on every binding of rokhlin_partition
    calls = []
    build = constructions.rokhlin_partition

    def counted(modulus, tile):
        calls.append((modulus, tile))
        return build(modulus, tile)

    monkeypatch.setattr(constructions, "rokhlin_partition", counted)
    monkeypatch.setattr(pipeline, "rokhlin_partition", counted)
    monkeypatch.setattr(verify, "rokhlin_partition", counted)
    assert run_verify("rokhlin", 0, 6) == []
    # the grid plus one random pair per trial, one partition each
    assert len(calls) == len(ROKHLIN_GRID) + 6
    assert calls[:len(ROKHLIN_GRID)] == list(ROKHLIN_GRID)
    calls.clear()
    assert main(["rokhlin", "--modulus", "7", "--tile", "2",
                 "--embedding"]) == 0
    assert calls == [(7, 2)]
    capsys.readouterr()


def test_lognorm_cli_certificate(tmp_path, capsys):
    f = random_morphism(random.Random(3))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(f.to_json()))
    for strategy in ("atoms", "greedy", "block"):
        assert main(["lognorm", "--input", str(path),
                     "--strategy", strategy]) == 0
        value_line, cert_line = capsys.readouterr().out.strip().split("\n")
        cert = json.loads(cert_line)
        value, blocks = reference_lognorm_certificate(f, strategy)
        assert value_line == pipeline._fmt(value)
        assert repr(cert["value"]) == repr(value)
        assert repr([[tuple(atom) for atom in block]
                     for block in cert["blocks"]]) == repr(blocks)
        assert abs(certificate_value(f, blocks) - value) < 1e-9
    # coefficients are integers: char 0 reads as no char, any other is
    # refused, false and 0.0 too, as every JSON reader refuses a bool or a
    # float where an integer belongs
    main(["lognorm", "--input", str(path)])
    expected = capsys.readouterr().out
    path.write_text(json.dumps(dict(f.to_json(), char=0)))
    assert main(["lognorm", "--input", str(path)]) == 0
    assert capsys.readouterr().out == expected
    for char in (2, False, 0.0):
        path.write_text(json.dumps(dict(f.to_json(), char=char)))
        assert main(["lognorm", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: only integer coefficients are supported; char "
            f"must be absent or 0, got {char!r}\n")
    assert main(["lognorm", "--input", str(tmp_path / "gone.json")]) == 1
    capsys.readouterr()


def test_lognorm_cli_generators_past_z(tmp_path, capsys):
    # a level with 27 generators: the last one is the only one acting
    space = FiniteQuotient.abelian([2], images=[[0]] * 26 + [[1]])
    g = space.generator_images[26]
    assert word_to_str(space.word_of(g)) == "{26}"
    module = MarkedModule(space, [[0, 1]])
    f = MarkedMorphism(module, module, [[{g: {0: 3, 1: -2}, 0: {1: 5}}]])
    data = json.loads(json.dumps(f.to_json()))
    assert {t["word"] for t in data["entries"][0][0]} == {"", "{26}"}
    assert MarkedMorphism.from_json(data).to_json() == data
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["lognorm", "--input", str(path)]) == 0
    value_line = capsys.readouterr().out.split("\n")[0]
    assert abs(float(value_line) - lognorm_of(f, "greedy")) < 1e-9
    assert float(value_line) > 0


def test_lognorm_cli_exact_small(tmp_path, capsys):
    # keep the instance under the exhaustive cap: order 2, rank 2
    space = FiniteQuotient.abelian([2])
    f = random_morphism(random.Random(5), space, max_rank=2)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(f.to_json()))
    assert main(["lognorm", "--input", str(path), "--strategy", "exact"]) == 0
    value_line = capsys.readouterr().out.strip().split("\n")[0]
    assert abs(float(value_line) - lognorm_of(f, "exact")) < 1e-9


@pytest.mark.parametrize("command, flag", [("gradient", "--config"),
                                           ("lognorm", "--input")],
                         ids=["gradient", "lognorm"])
@pytest.mark.parametrize("content, message", [
    (None, "cannot read "),
    ("{not json", "is not valid JSON: "),
    (b"\xff{}", "is not valid JSON: "),
    ("[1, 2]", "top level must be a JSON object"),
], ids=["missing", "invalid", "not_utf8", "list"])
def test_cli_json_input_errors(tmp_path, capsys, command, flag, content,
                               message):
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    assert main([command, flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err


@pytest.mark.parametrize("argv", [
    ["lognorm", "--input"],
    ["rokhlin", "--modulus", "20", "--tile", "3"],
    ["strictify-demo", "--order", "20"],
], ids=["lognorm", "rokhlin", "strictify-demo"])
def test_cli_order_cap(tmp_path, capsys, monkeypatch, argv):
    if argv[0] == "lognorm":
        space = FiniteQuotient.abelian([20])
        f = MarkedMorphism.identity(MarkedModule.full(space, 1))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(f.to_json()))
        argv = argv + [str(path)]
    monkeypatch.setenv("TORGRAD_ORDER_CAP", "10")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: quotient enumeration exceeded 10")


@pytest.mark.parametrize("value", ["abc", "0"])
@pytest.mark.parametrize("argv", [
    ["gradient", "--config", "unread.json"],
    ["verify", "opnorm", "--trials", "1"],
    ["rokhlin", "--modulus", "7", "--tile", "2"],
    ["lognorm", "--input", "unread.json"],
    ["strictify-demo"],
], ids=["gradient", "verify", "rokhlin", "lognorm", "strictify-demo"])
def test_cli_malformed_order_cap(capsys, monkeypatch, argv, value):
    # checked before the command runs: no input file is read
    monkeypatch.setenv("TORGRAD_ORDER_CAP", value)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: TORGRAD_ORDER_CAP must be")


def _one_atom_morphism() -> dict:
    space = FiniteQuotient.abelian([4])
    module = MarkedModule(space, [[0]])
    return MarkedMorphism.identity(module).to_json()


def _set_coeff(data, value):
    data["entries"][0][0][0]["coeffs"][0][1] = value


def _set_point(data, value):
    data["entries"][0][0][0]["coeffs"][0][0] = value


def _set_carrier(data, value):
    data["domain"][0][0] = value


@pytest.mark.parametrize("mutate", [_set_coeff, _set_point, _set_carrier],
                         ids=["coefficient", "point", "carrier"])
@pytest.mark.parametrize("value", [2.9, 0.5, 1.0, "3", True, None],
                         ids=["2.9", "0.5", "1.0", "string", "bool", "null"])
def test_lognorm_cli_refuses_non_integer_numbers(tmp_path, capsys, mutate,
                                                 value):
    data = _one_atom_morphism()
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["lognorm", "--input", str(path)]) == 0
    capsys.readouterr()
    mutate(data, value)
    path.write_text(json.dumps(data))
    assert main(["lognorm", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert "must be an integer" in captured.err


@pytest.mark.parametrize("mutate, what", [(_set_point, "point"),
                                          (_set_carrier, "carrier point")],
                         ids=["point", "carrier"])
@pytest.mark.parametrize("value", [-1, 4], ids=["-1", "order"])
def test_lognorm_cli_refuses_points_outside_the_level(tmp_path, capsys,
                                                      mutate, what, value):
    # the morphism lives on Z/4
    data = _one_atom_morphism()
    mutate(data, value)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["lognorm", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {what} {value} outside the level\n"


def test_lognorm_cli_refuses_points_outside_the_allowed_support(tmp_path,
                                                                capsys):
    # point 2 is in Z/3 but outside the carrier {0}: it used to be dropped,
    # and the bound of the zero map printed
    data = {"quotient": {"kind": "abelian", "moduli": [3]},
            "domain": [[0]], "codomain": [[0]],
            "entries": [[[{"word": "", "coeffs": [[2, 5]]}]]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["lognorm", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: entry (0, 0): point 2 lies outside "
                            "the support A_0 ∩ g B_0 of its term\n")


def test_lognorm_cli_lists_the_strategies_in_order(capsys):
    # the choices are lognorm.STRATEGIES; the gradient's are those but
    # exact (test_gradient_cli_rejects_exact_strategy)
    assert main(["lognorm", "--input", "unread.json",
                 "--strategy", "nope"]) == 1
    assert ("invalid choice: 'nope' (choose from 'atoms', 'greedy', "
            "'exact', 'block')") in capsys.readouterr().err


def test_lognorm_cli_refuses_a_point_listed_twice(tmp_path, capsys):
    # over Z/3, coeffs [[0, 5], [0, 1]] used to read as the coefficient 1,
    # whose bound is 0; a point split across two words with one image is
    # still summed, here to 6
    level = {"quotient": {"kind": "abelian", "moduli": [3]},
             "domain": [[0]], "codomain": [[0]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dict(level, entries=[[[
        {"word": "", "coeffs": [[0, 5], [0, 1]]}]]])))
    assert main(["lognorm", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: point 0 listed twice\n"
    path.write_text(json.dumps(dict(level, entries=[[[
        {"word": "", "coeffs": [[0, 5]]},
        {"word": "aaa", "coeffs": [[0, 1]]}]]])))
    assert main(["lognorm", "--input", str(path)]) == 0
    value_line = capsys.readouterr().out.split("\n")[0]
    assert value_line == pipeline._fmt(math.log(6) / 3)


def _set_word(data, value):
    data["entries"][0][0][0]["word"] = value


def _set_quotient(data, value):
    data["quotient"] = value


@pytest.mark.parametrize("mutate, value", [
    (_set_word, 5), (_set_word, None), (_set_word, ["a"]),
    (_set_quotient, []), (_set_quotient, "abelian"), (_set_quotient, None),
    (_set_quotient, {"kind": "abelian", "moduli": [4], "degree": 4}),
], ids=["word-number", "word-null", "word-list", "quotient-list",
        "quotient-string", "quotient-null", "quotient-unknown-key"])
def test_lognorm_cli_refuses_malformed_words_and_quotients(
        tmp_path, capsys, mutate, value):
    data = _one_atom_morphism()
    mutate(data, value)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["lognorm", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")


def test_strictify_demo_cli(capsys):
    assert main(["strictify-demo", "--order", "6", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "output strict: True" in out
    assert "verified: True" in out
    assert main(["strictify-demo", "--order", "1"]) == 1
    capsys.readouterr()


def test_strictify_demo_refuses_negative_cells(capsys):
    # a negative count is refused, as verify refuses negative trials
    assert main(["strictify-demo", "--cells", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: cells must be >= 0\n"
    assert main(["verify", "opnorm", "--trials", "-1"]) == 1
    assert capsys.readouterr().err == "config error: trials must be >= 0\n"
    # no cell leaves the strict base complex as it is
    assert main(["strictify-demo", "--cells", "0"]) == 0
    out = capsys.readouterr().out
    assert "input defect 0, error dim 0" in out
    assert "output strict: True" in out


# (order, seed, cells) -> input defect and error dim of degrees 0 and 1,
# then the witness's delta and k, as strictify-demo prints them
STRICTIFY_DEMO_LEDGERS = {
    (2, 0, 0): ("0", "0", "0", "0", "1/4", "0"),
    (2, 0, 1): ("0", "0", "1/2", "1/2", "3/4", "2"),
    (2, 0, 3): ("1/2", "1/2", "1", "1", "7/4", "4"),
    (2, 1, 0): ("0", "0", "0", "0", "1/4", "0"),
    (2, 1, 1): ("1/2", "1/2", "1", "1", "7/4", "2"),
    (2, 1, 3): ("1/2", "1/2", "1/2", "1/2", "5/4", "2"),
    (6, 0, 0): ("0", "0", "0", "0", "1/12", "0"),
    (6, 0, 1): ("0", "0", "1/6", "1/6", "1/4", "2"),
    (6, 0, 3): ("1/6", "1/6", "1/3", "1/3", "7/12", "2"),
    (6, 1, 0): ("0", "0", "0", "0", "1/12", "0"),
    (6, 1, 1): ("1/6", "1/6", "1/3", "1/3", "7/12", "2"),
    (6, 1, 3): ("1/6", "1/6", "1/3", "1/3", "7/12", "4"),
    (12, 0, 0): ("0", "0", "0", "0", "1/24", "0"),
    (12, 0, 1): ("0", "0", "1/12", "1/12", "1/8", "2"),
    (12, 0, 3): ("1/12", "1/12", "1/4", "1/4", "3/8", "4"),
    (12, 1, 0): ("0", "0", "0", "0", "1/24", "0"),
    (12, 1, 1): ("1/12", "1/12", "1/6", "1/6", "7/24", "2"),
    (12, 1, 3): ("1/12", "1/12", "1/6", "1/6", "7/24", "6"),
}


def test_strictify_demo_stdout_is_pinned(capsys):
    # the whole stdout, so the printed witness delta and k are pinned too
    for (order, seed, cells), ledger in STRICTIFY_DEMO_LEDGERS.items():
        d0, e0, d1, e1, delta, k = ledger
        assert main(["strictify-demo", "--order", str(order), "--seed",
                     str(seed), "--cells", str(cells)]) == 0
        assert capsys.readouterr().out == (
            f"level order {order}, degrees 0..2\n"
            f"degree 0: input defect {d0}, error dim {e0}\n"
            f"degree 1: input defect {d1}, error dim {e1}\n"
            "output strict: True\n"
            f"witness delta={delta} k={k} verified: True\n")


def test_strictify_demo_witness_check_can_fail(monkeypatch, capsys):
    # a witness pushed past a ceiling computed from the input and --cells
    # fails the demo's check
    cells = 3

    def loose(field):
        def build(cx):
            res = strictify_complex(cx)
            bounds = verify.strictify_witness_bounds(
                cx, Fraction(cells, cx.space.order))
            pushed = {"delta": bounds[0] + Fraction(1, cx.space.order),
                      "k": bounds[1] + 1}
            return dataclasses.replace(res, witness=dataclasses.replace(
                res.witness, **{field: pushed[field]}))
        return build

    for field in ("delta", "k"):
        monkeypatch.setattr(pipeline, "strictify_complex", loose(field))
        assert main(["strictify-demo", "--order", "6",
                     "--cells", str(cells)]) == 2
        out = capsys.readouterr().out
        assert "output strict: True\n" in out
        assert out.endswith(" verified: False\n")


# (modulus, tile) -> the header fields base, remainder and dim of
# `torgrad rokhlin`, and the norms line that --embedding adds
ROKHLIN_DEMO_LEDGERS = {
    (6, 2): ("3", "0", "1/2", "r1=2 h0=1"),
    (7, 2): ("3", "1", "4/7", "r1=2 h0=1"),
    (12, 4): ("3", "0", "1/4", "r1=4 h0=3"),
    (30, 7): ("4", "2", "1/5", "r1=7 h0=6"),
    (100, 10): ("10", "0", "1/10", "r1=10 h0=9"),
    # near the modulus: x~ and h_0 have up to 28 fibres
    (12, 11): ("1", "1", "1/6", "r1=11 h0=10"),
    (20, 19): ("1", "1", "1/10", "r1=19 h0=18"),
    (30, 29): ("1", "1", "1/15", "r1=29 h0=28"),
    (31, 16): ("1", "15", "16/31", "r1=16 h0=15"),
}
ROKHLIN_TILE_CHECKS = ("boundary_norm", "complex_strict", "dim_bound",
                       "level_contraction", "tower_contraction",
                       "witness_exact")
ROKHLIN_EMBEDDING_CHECKS = ("backward_chain_map", "forward_chain_map",
                            "homotopy_degree0", "homotopy_degree1",
                            "norm_table")


def test_rokhlin_stdout_is_pinned(capsys):
    # the whole stdout, with and without the embedding, checks sorted
    for (modulus, tile), ledger in ROKHLIN_DEMO_LEDGERS.items():
        base, remainder, dim, norms = ledger
        header = (f"rokhlin modulus={modulus} tile={tile} base={base} "
                  f"remainder={remainder} dim={dim} boundary_norm=2\n")
        argv = ["rokhlin", "--modulus", str(modulus), "--tile", str(tile)]
        assert main(argv) == 0
        assert capsys.readouterr().out == header + "".join(
            f"ok {name}\n" for name in ROKHLIN_TILE_CHECKS)
        assert main(argv + ["--embedding"]) == 0
        checks = sorted(ROKHLIN_TILE_CHECKS + ROKHLIN_EMBEDDING_CHECKS)
        assert capsys.readouterr().out == header + "".join(
            f"ok {name}\n" for name in checks) + (
            f"norms f0=1 f1=1 r0=1 {norms}\n")


def test_usage_errors_map_to_one(capsys):
    assert main([]) == 1
    assert main(["nonsense"]) == 1
    assert main(["verify", "meta"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_random_morphism_deterministic():
    a = random_morphism(random.Random(42))
    b = random_morphism(random.Random(42))
    assert a.to_json() == b.to_json()
    c = random_morphism(random.Random(43))
    assert a.to_json() != c.to_json()


def _seeded_draws(seed):
    q, ranks, mats, images = random_torsion_level(random.Random(seed))
    return {
        "morphism": random_morphism(random.Random(seed)).to_json(),
        "complex": random_base_complex(random.Random(seed)).to_json(),
        "torsion_level": {
            "quotient": q.to_json(), "ranks": ranks, "images": images,
            "mats": [[[sorted([word_to_str(w), c] for w, c in x.items())
                       for x in row] for row in m] for m in mats]},
    }


# sha256 of the sorted-key JSON of the draws at seeds 0-299, taken when
# every draw still enumerated its own level
SEEDED_DRAWS_SHA256 = (
    "1d11beefcf67b8716d3a4621ff1c7b903bca8a2a659ee1ded04cc5a11f759973")


def test_distribution_takes_its_name_and_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    data = tomllib.loads(pyproject.read_text())
    assert data["project"]["name"] == "torgrad"
    assert data["project"]["dynamic"] == ["version"]
    assert "version" not in data["project"]
    assert data["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "torgrad.__version__"}
    assert isinstance(torgrad.__version__, str) and torgrad.__version__


def test_seeded_draws_are_unchanged():
    def digest():
        text = json.dumps([_seeded_draws(s) for s in range(300)],
                          sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()
    assert digest() == SEEDED_DRAWS_SHA256
    # and with the levels shared, as within a verify run
    with shared_levels():
        assert digest() == SEEDED_DRAWS_SHA256


def test_verify_levels_are_shared_within_one_run_only(monkeypatch, capsys):
    argv = ["verify", "opnorm", "--trials", "20", "--seed", "0"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    # the same draws under a lower cap: a level of order 6 or more left
    # over from the first run would hide the refusal
    monkeypatch.setenv("TORGRAD_ORDER_CAP", "5")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        "config error: quotient enumeration exceeded 5 elements")
    # within one run, each spec is enumerated at most once
    calls = []
    real = FiniteQuotient.from_json
    monkeypatch.delenv("TORGRAD_ORDER_CAP")
    monkeypatch.setattr(FiniteQuotient, "from_json", staticmethod(
        lambda spec: calls.append(id(spec)) or real(spec)))
    for suite in ("opnorm", "strictify", "lognorm", "retract",
                  "discretize"):
        calls.clear()
        run_verify(suite, seed=1, trials=40)
        assert calls and len(calls) == len(set(calls)), suite
