import ast
import contextlib
import copy
import dataclasses
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import torgrad
from torgrad import constructions, pipeline
from torgrad.complexes import induce_resolution
from torgrad.crossring import MarkedModule, MarkedMorphism
from torgrad.discretize import coinvariants_complex, homology_of_complex
from torgrad.groups import FiniteQuotient
from torgrad.lognorm import lognorm_exact, lognorm_upper
from helpers import certificate_value
from torgrad.pipeline import (
    ConfigError,
    DEFAULT_TRIALS,
    GRADIENT_COLUMNS,
    ROKHLIN_GRID,
    SUITE_RUNNERS,
    VERIFY_SUITES,
    main,
    random_morphism,
    random_torsion_level,
    run_gradient,
    run_verify,
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


def test_gradient_free_chain_frozen():
    table = run_gradient(FREE_CHAIN)
    assert table.columns == GRADIENT_COLUMNS
    got = [(r.order, r.betti_q, r.betti_p, r.logtors) for r in table.rows]
    assert got == [(4, 5, 5, 0.0), (9, 10, 10, 0.0), (16, 17, 17, 0.0)]
    # normalized column decreases toward d - 1 = 1
    lines = table.to_csv().strip().split("\n")[1:]
    normalized = [line.split(",")[6] for line in lines]
    assert normalized == ["1.25", "1.11111111111", "1.0625"]


def test_gradient_deterministic_bytes():
    assert run_gradient(FREE_CHAIN).to_csv() == run_gradient(FREE_CHAIN).to_csv()


def test_gradient_degenerate_degrees():
    cfg = dict(FREE_CHAIN, degrees=[0, 1, 3], levels=FREE_CHAIN["levels"][:1])
    table = run_gradient(cfg)
    top = table.rows[-1]
    assert top.degree == 3
    assert (top.betti_q, top.betti_p, top.logtors) == (0, 0, 0.0)
    assert top.dim_upper == 0 and top.lognorm_upper == 0.0


def test_gradient_embedding_rows():
    cfg = {
        "family": "integers",
        "levels": [{"kind": "abelian", "moduli": [6]},
                   {"kind": "abelian", "moduli": [12]}],
        "embedding": {"kind": "rokhlin", "tile": 2},
    }
    table = run_gradient(cfg)
    assert table.columns[-3:] == ("betti_bound", "torsion_bound", "verdict")
    assert table.all_pass
    for row in table.rows:
        assert row.betti_q == 1
        assert row.betti_q <= row.betti_bound
        assert row.logtors <= row.torsion_bound + 1e-9
    # cheap embedding picks the tile from epsilon
    cheap = run_gradient(dict(cfg, embedding={"kind": "cheap", "epsilon": 0.5}))
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
        run_gradient(cfg)


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
     "break a relation of the surface family"),
    ({"family": "free_abelian", "param": 2,
      "levels": [FREE_CHAIN["levels"][0], S3_LEVEL]},
     "break a relation of the free_abelian family"),
], ids=["too_many_generators", "surface_over_s3", "free_abelian_over_s3"])
def test_gradient_cli_refuses_levels_off_the_family(tmp_path, capsys, config,
                                                    reason):
    code, err = _gradient_cli_error(tmp_path, capsys, config)
    assert code == 1
    assert err.startswith("config error: level 2: ")
    assert reason in err


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


# Paper constructions exported for callers that are planned but not yet
# written: no command reaches them today.
KEPT_CONSTRUCTIONS = frozenset({"tensor_complex", "Presentation"})


def test_exported_names_have_a_caller():
    # every other name in torgrad.__all__ is used somewhere in the package
    # outside its own definition and __init__.py, so the public API does
    # not grow helpers that only tests reach
    used = set()
    for path in Path(torgrad.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    unused = set(torgrad.__all__) - used
    assert not unused - KEPT_CONSTRUCTIONS, (
        "exported but used only by tests: "
        f"{sorted(unused - KEPT_CONSTRUCTIONS)}")
    # an exemption cannot go stale: once its name gains a caller in the
    # package or leaves the API, it leaves the list
    assert not KEPT_CONSTRUCTIONS - unused, (
        "exempt but exported with a caller, or not exported: "
        f"{sorted(KEPT_CONSTRUCTIONS - unused)}")


# The JSON readers and writers stay without a caller: failing verify cases
# are printed as JSON so that they can be read back and replayed.
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


def _bench_workloads():
    """perfbench/workloads.py, read only: its configs and golden CSVs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_ladder_matches_golden_csv(tmp_path, capsys, seed):
    workloads = _bench_workloads()
    for inv in workloads.invocations("gradient-ladder", seed):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(inv.config))
        assert main(inv.argv(str(cfg_path))) == 0
        golden = (workloads.GOLDEN / inv.golden).read_text()
        assert capsys.readouterr().out == golden, inv.label


def test_gradient_cyclic_matches_golden_csv(tmp_path, capsys):
    # the benchmark's embedding configs, one per tile; the seed picks the
    # tile, so seeds are taken in order until every tile is seen
    workloads = _bench_workloads()
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
    monkeypatch.setattr(pipeline, "homology_of_complex", torsion_free)
    failures = run_verify("discretize", seed=11, trials=20)
    assert failures
    assert {f["suite"] for f in failures} == {"discretize"}
    json.dumps(failures)


def test_verify_unknown_suite():
    with pytest.raises(ConfigError):
        run_verify("meta", seed=0)
    with pytest.raises(ConfigError):
        run_verify("opnorm", seed=0, trials=-1)


def test_verify_cli(capsys):
    assert main(["verify", "opnorm", "--trials", "10", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "suite opnorm: trials=10 failures=0 PASS" in out
    # default trial count is reported when --trials is omitted
    assert main(["verify", "gabber"]) == 0
    assert f"trials={DEFAULT_TRIALS['gabber']}" in capsys.readouterr().out


def test_verify_cli_reports_failures(monkeypatch, capsys):
    monkeypatch.setitem(SUITE_RUNNERS, "gabber",
                        lambda rng, trials: [{"suite": "gabber", "trial": 0}])
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
    # one counter on both bindings of rokhlin_partition
    calls = []
    build = constructions.rokhlin_partition

    def counted(modulus, tile):
        calls.append((modulus, tile))
        return build(modulus, tile)

    monkeypatch.setattr(constructions, "rokhlin_partition", counted)
    monkeypatch.setattr(pipeline, "rokhlin_partition", counted)
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
        value = lognorm_upper(f, strategy)
        assert abs(float(value_line) - value) < 1e-9
        blocks = [[tuple(atom) for atom in block] for block in cert["blocks"]]
        assert abs(certificate_value(f, blocks) - value) < 1e-9
    # coefficients are integers: char 0 reads as no char, any other is refused
    main(["lognorm", "--input", str(path)])
    expected = capsys.readouterr().out
    path.write_text(json.dumps(dict(f.to_json(), char=0)))
    assert main(["lognorm", "--input", str(path)]) == 0
    assert capsys.readouterr().out == expected
    path.write_text(json.dumps(dict(f.to_json(), char=2)))
    assert main(["lognorm", "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert main(["lognorm", "--input", str(tmp_path / "gone.json")]) == 1
    capsys.readouterr()


def test_lognorm_cli_exact_small(tmp_path, capsys):
    # keep the instance under the exhaustive cap: order 2, rank 2
    space = FiniteQuotient.abelian([2])
    f = random_morphism(random.Random(5), space, max_rank=2)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(f.to_json()))
    assert main(["lognorm", "--input", str(path), "--strategy", "exact"]) == 0
    value_line = capsys.readouterr().out.strip().split("\n")[0]
    assert abs(float(value_line) - lognorm_exact(f)) < 1e-9


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
