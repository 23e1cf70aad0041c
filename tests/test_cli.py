import json
import os

import pytest

from jumplab.cli import main
from jumplab.errors import ConfigError
from jumplab.io import ExperimentConfig, load_config, run_experiment, write_bundle


def test_poincare_stdout(capsys):
    assert main(["poincare", "--alpha", "1.0", "--radii", "4,8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["experiment"] == "poincare"
    assert out["constants"]["C_Q"] > 0


def test_heat_t0_identity(capsys):
    assert main(["heat", "--t", "0", "--r-win", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["values"]["0"] == 1.0
    assert all(v == 0.0 for k, v in out["values"].items() if k != "0")


def test_alpha_out_of_scope_warns_but_runs(capsys, caplog):
    assert main(["exit-time", "--alpha", "2.5", "--radii", "4,8"]) == 0
    assert any("outside (0,2)" in r.message for r in caplog.records)


def test_failed_write_keeps_previous_bundle(tmp_path):
    out = str(tmp_path / "bundle")
    write_bundle(out, {"seed": 1}, {"value": 1.0}, csvs={"rows": [{"a": 1}]})
    with open(os.path.join(out, "report.json"), "rb") as f:
        before = f.read()
    with pytest.raises(TypeError):
        write_bundle(out, {"seed": 2}, {"value": object()})
    assert sorted(os.listdir(tmp_path)) == ["bundle"]
    assert sorted(os.listdir(out)) == ["config.resolved", "meta.json",
                                       "report.json", "rows.csv"]
    with open(os.path.join(out, "report.json"), "rb") as f:
        assert f.read() == before
    write_bundle(out, {"seed": 3}, {"value": 3.0})
    assert sorted(os.listdir(tmp_path)) == ["bundle"]
    with open(os.path.join(out, "report.json")) as f:
        assert json.load(f) == {"value": 3.0}


def test_bundle_layout_and_determinism(tmp_path):
    args = ["cex", "ladder", "--ranges", "16", "--n-hit", "200",
            "--n-sup", "1000", "--seed", "5"]
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", d1]) == 0
    assert main(args + ["--out", d2]) == 0
    for d in (d1, d2):
        assert sorted(os.listdir(d)) == ["config.resolved", "exit_time.csv",
                                         "jump_bounds.csv", "meta.json",
                                         "report.json"]
    with open(os.path.join(d1, "report.json"), "rb") as f1, \
            open(os.path.join(d2, "report.json"), "rb") as f2:
        assert f1.read() == f2.read()


def test_exit_code_assertion_failure(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "cex-ladder",
        "params": {"ranges": [16], "n_hit": 200, "n_sup": 500,
                   "hit_margin": 0.99},
        "assert_thresholds": True, "seed": 1}))
    assert main(["run", str(cfg)]) == 1


def test_exit_code_error():
    assert main(["run", "/nonexistent-config.json"]) == 2


def test_zero_gap_suppressed_pair_is_an_error(capsys):
    assert main(["cex", "suppressed", "--radii", "0"]) == 2
    err = capsys.readouterr().err
    assert "ZeroDivisionError" not in err
    assert "distinct" in err


def test_config_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"experiment\": \"nope\"}")
    with pytest.raises(ConfigError, match="experiment"):
        load_config(str(bad))
    bad.write_text("{\"experiment\": \"phi\", \"bogus\": 1}")
    with pytest.raises(ConfigError, match="bogus"):
        load_config(str(bad))
    bad.write_text("not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_run_experiment_flag_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "poincare", "params": {"alpha": 1.0, "radii": [4]}}))
    out = str(tmp_path / "bundle")
    assert main(["run", str(cfg), "--out", out]) == 0
    with open(os.path.join(out, "config.resolved")) as f:
        resolved = json.load(f)
    assert resolved["out_dir"] == out


def test_conditions_sweep_bundle(tmp_path):
    out = str(tmp_path / "cond")
    assert main(["conditions", "--radii", "4,8", "--out", out]) == 0
    with open(os.path.join(out, "report.json")) as f:
        rep = json.load(f)
    names = set(rep["conditions"])
    assert {"VD", "J_bounds", "UJS_LJS_JS", "PI", "E_alpha",
            "boundary_flux"} <= names
    assert "model_digest" in rep


def test_ladder_requires_alpha_in_range():
    cfg = ExperimentConfig(experiment="cex-ladder", params={"alpha": 1.0})
    with pytest.raises(ConfigError):
        run_experiment(cfg)
