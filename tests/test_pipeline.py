import json
import random

import pytest

from torgrad.crossring import LevelSpace
from torgrad.groups import FiniteQuotient
from torgrad.lognorm import lognorm_exact, lognorm_of_decomposition, lognorm_upper
from torgrad.pipeline import (
    ConfigError,
    DEFAULT_TRIALS,
    GRADIENT_COLUMNS,
    SUITE_RUNNERS,
    VERIFY_SUITES,
    main,
    random_morphism,
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
])
def test_gradient_cli_rejects_bad_values(tmp_path, capsys, breakage):
    code, err = _gradient_cli_error(tmp_path, capsys,
                                    dict(FREE_CHAIN, **breakage))
    assert code == 1
    assert err.startswith("config error:")


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


def test_gradient_cli_unwritable_output(tmp_path, capsys):
    missing = tmp_path / "missing" / "table.csv"
    code, err = _gradient_cli_error(tmp_path, capsys, FREE_CHAIN,
                                    "--output", str(missing))
    assert code == 1
    assert err.startswith("config error: cannot write output:")


SMALL_TRIALS = {"opnorm": 25, "gabber": 50, "strictify": 8,
                "rokhlin": 2, "lognorm": 25, "retract": 8}


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_suites_pass(suite):
    assert run_verify(suite, seed=11, trials=SMALL_TRIALS[suite]) == []


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
        assert abs(lognorm_of_decomposition(f, blocks) - value) < 1e-9
    assert main(["lognorm", "--input", str(tmp_path / "gone.json")]) == 1
    capsys.readouterr()


def test_lognorm_cli_exact_small(tmp_path, capsys):
    # keep the instance under the exhaustive cap: order 2, rank 2
    space = LevelSpace(FiniteQuotient.abelian([2]))
    f = random_morphism(random.Random(5), space, max_rank=2)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(f.to_json()))
    assert main(["lognorm", "--input", str(path), "--strategy", "exact"]) == 0
    value_line = capsys.readouterr().out.strip().split("\n")[0]
    assert abs(float(value_line) - lognorm_exact(f)) < 1e-9


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
