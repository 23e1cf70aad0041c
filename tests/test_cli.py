import ast
import csv
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import jumplab
from jumplab.cli import COMMANDS, _config_from_args, build_parser, main
from jumplab import io as io_module
from jumplab.errors import ConfigError
from jumplab.io import (PARAMS, ExperimentConfig, load_config, run_experiment,
                        write_bundle)
from jumplab.models import (KILLED, REFLECTED, LatticeModel, PolynomialKernel,
                            truncate)
from jumplab.semigroup import heat_kernel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_heat_at_tiny_t_finishes_with_unit_mass(capsys):
    """At t = 1e-100 the Chebyshev weights come from the leading terms of
    ive's series: the run ends in well under 2 s with mass 1 and no "nan"
    (the backward recurrence overflowed, and the series doubled toward
    TERM_CAP)."""
    t0 = time.perf_counter()
    assert main(["heat", "--t", "1e-100", "--r-win", "4", "--mode",
                 "reflected"]) == 0
    assert time.perf_counter() - t0 < 2.0
    text = capsys.readouterr().out
    out = json.loads(text)
    assert "nan" not in text and abs(out["mass"] - 1.0) <= 1e-10


@pytest.mark.parametrize("argv", [
    ["heat", "--r-win", "40", "--t", "2"],
    ["heat", "--d", "2", "--r-win", "3", "--mode", "reflected"],
    ["heat", "--t", "0", "--r-win", "4"],
    ["cex", "suppressed", "--radii", "8"],
])
def test_stdout_is_json_dump_of_the_report(capsys, argv):
    """`lab` without --out prints json.dump(jsonable(report), sort_keys=True,
    indent=2) and a newline, byte for byte, as it did before the one report
    emitter."""
    assert main(argv) == 0
    got = capsys.readouterr().out
    args = build_parser(argv).parse_args(argv)
    report, _ = run_experiment(_config_from_args(args))
    assert got == json.dumps(io_module.jsonable(report), sort_keys=True,
                             indent=2) + "\n"


def test_alpha_out_of_scope_warns_but_runs(capsys):
    assert main(["exit-time", "--alpha", "2.5", "--radii", "4,8"]) == 0
    assert "WARNING alpha=2.5 lies outside (0,2)" in capsys.readouterr().err


def test_failed_write_keeps_previous_bundle(tmp_path):
    out = str(tmp_path / "bundle")
    write_bundle(out, {"seed": 1}, {"value": 1.0}, csvs={"rows": {"a": [1]}},
                 meta={})
    with open(os.path.join(out, "report.json"), "rb") as f:
        before = f.read()
    with pytest.raises(TypeError):
        write_bundle(out, {"seed": 2}, {"value": object()}, csvs={}, meta={})
    assert sorted(os.listdir(tmp_path)) == ["bundle"]
    assert sorted(os.listdir(out)) == ["config.resolved", "meta.json",
                                       "report.json", "rows.csv"]
    with open(os.path.join(out, "report.json"), "rb") as f:
        assert f.read() == before
    write_bundle(out, {"seed": 3}, {"value": 3.0}, csvs={}, meta={})
    assert sorted(os.listdir(tmp_path)) == ["bundle"]
    with open(os.path.join(out, "report.json")) as f:
        assert json.load(f) == {"value": 3.0}


def test_bundle_layout_and_determinism(tmp_path):
    args = ["cex", "ladder", "--ranges", "16", "--seed", "5"]
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


def test_ladder_seed_reaches_only_the_hits(tmp_path):
    """Seeds 0 and 7 give the same report but for the hitting estimates and
    their assertions: the running-sup values are exact."""
    reports = []
    for seed in (0, 7):
        out = str(tmp_path / str(seed))
        assert main(["cex", "ladder", "--seed", str(seed), "--out", out]) == 0
        with open(os.path.join(out, "report.json")) as f:
            reports.append(json.load(f))
    for report in reports:
        del report["hit_before_exit"]
        report["assertions"] = [a for a in report["assertions"]
                                if not a["name"].startswith("hit_lower_R")]
    assert reports[0] == reports[1]
    assert len(reports[0]["assertions"]) == 9


def test_exit_code_assertion_failure(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "cex-ladder",
        "params": {"ranges": [16]},
        "assert_thresholds": True, "seed": 1}))
    assert main(["run", str(cfg)]) == 1


def test_exit_code_error():
    assert main(["run", "/nonexistent-config.json"]) == 2


def test_zero_gap_suppressed_pair_is_an_error(capsys):
    assert main(["cex", "suppressed", "--radii", "0"]) == 2
    err = capsys.readouterr().err
    assert "ZeroDivisionError" not in err
    assert "param 'radii': need entries of at least 1, got 0" in err


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


@pytest.mark.parametrize("experiment, params, match", [
    ("phi", {"R": 2, "bogus": 1}, "bogus"),
    ("heat", {"mode": "kiled"}, "mode"),
    ("poincare", {"metric": "l2"}, "metric"),
    ("ehi", [["R", 2]], "params"),
], ids=["unknown-param", "bad-mode", "bad-metric", "params-list"])
def test_config_params_checked(tmp_path, experiment, params, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(experiment=experiment, params=params)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "params": params}))
    with pytest.raises(ConfigError, match=str(cfg)):
        load_config(str(cfg))
    assert main(["run", str(cfg)]) == 2


@pytest.mark.parametrize("experiment, params, match", [
    ("cex-ladder", {"ranges": [16.5, 64]}, "param 'ranges': 16.5 is not"),
    ("cex-suppressed", {"radii": [8.9]}, "param 'radii': 8.9 is not"),
    ("phi", {"R": 2.7}, "param 'R': 2.7 is not"),
], ids=["ranges", "radii", "R"])
def test_config_fractional_integer_rejected(tmp_path, experiment, params,
                                            match):
    """An integer param or list entry with a fractional part is a
    ConfigError naming the param, not truncated; an integral float is
    taken as its integer."""
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(experiment=experiment, params=params)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "params": params}))
    with pytest.raises(ConfigError, match=f"{cfg}: {match}"):
        load_config(str(cfg))
    key, value = next(iter(params.items()))
    whole = ([int(v) for v in value] if isinstance(value, list)
             else int(value))
    integral = ([float(v) for v in whole] if isinstance(whole, list)
                else float(whole))
    got = ExperimentConfig(experiment=experiment, params={key: integral})
    assert json.dumps(got.params[key]) == json.dumps(whole)


_LATTICE = {"kind": "lattice", "d": 2, "metric": "l1",
            "kernel": {"type": "polynomial", "alpha": 1.0}}


@pytest.mark.parametrize("experiment, params, match", [
    ("poincare", {"d": 2}, "unknown param 'd'"),
    ("heat", {"metric": "l1"}, "unknown param 'metric'"),
    ("cex-suppressed", {"radii": [2]}, "model"),
    ("cex-ladder", {}, "model"),
], ids=["d", "metric", "cex-suppressed", "cex-ladder"])
def test_config_model_replaces_params(tmp_path, experiment, params, match):
    """With a `model`, `d` and `metric` are not params; the cex experiments
    take no `model` at all."""
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(experiment=experiment, params=params, model=_LATTICE)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "params": params,
                               "model": _LATTICE}))
    assert main(["run", str(cfg)]) == 2


def test_config_model_resolved_without_shape_params(tmp_path):
    out = str(tmp_path / "bundle")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "poincare", "model": _LATTICE,
                               "params": {"radii": [2]}}))
    assert main(["run", str(cfg), "--out", out]) == 0
    with open(os.path.join(out, "config.resolved")) as f:
        resolved = json.load(f)
    assert resolved["model"] == _LATTICE
    assert list(resolved["params"]) == ["alpha", "radii"]
    with open(os.path.join(out, "report.json")) as f:
        assert json.load(f)["grid"]["centers"] == [[0, 0]]


# a well-formed explicit graph: the path 0 - 1 - 2
_PATH3 = {"kind": "explicit", "vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]],
          "kernel": {"type": "tabulated",
                     "entries": [[[0, 1], 1.0], [[1, 2], 1.0]]}}


@pytest.mark.parametrize("model, match", [
    ({"kind": "explicit", "vertices": [0, 1]}, "KeyError: 'kernel'"),
    ({"kind": "lattce", "kernel": {"type": "polynomial", "alpha": 1.0}},
     "unknown model kind 'lattce'"),
    ({"kernel": {"type": "polynomal"}}, "unknown kernel type"),
    ({"kernel": {"type": "polynomial", "alpha": "one"}}, "ValueError"),
    ({"kernel": [1.0]}, "TypeError"),
    ([1, 2], "field 'model'"),
    ({**_LATTICE, "metric": "l2"}, "unknown lattice metric 'l2'"),
    ({"kernel": {"type": "polynomial", "alpha": 1.0}, "d": 2, "metrc": "l1"},
     "unknown model key 'metrc'"),
    ({**_LATTICE, "c_j": 4.0}, "unknown model key 'c_j'"),
    ({**_LATTICE, "kernel": {"type": "polynomial", "alhpa": 1.0, "alpha": 1.0}},
     "unknown kernel key 'alhpa'"),
    ({**_LATTICE, "mu": {"type": "constant", "valeu": 2.0}},
     "unknown mu key 'valeu'"),
    ({"d": 1, "kernel": {"type": "ladder", "alpha": 1.5, "ranges": [0, 16]}},
     "ladder range 0 is below 1"),
    ({**_LATTICE, "mu": {"type": "constant", "value": -1}},
     "mu 'value': need a finite positive number, got -1"),
    ({**_LATTICE, "mu": {"type": "alternating", "even": 0, "odd": 1}},
     "mu 'even': need a finite positive number, got 0"),
    ({**_LATTICE, "kernel": {"type": "polynomial", "alpha": float("nan")}},
     "kernel 'alpha': need a finite real number, got nan"),
    ({**_LATTICE, "d": 0}, "lattice dimension d must be at least 1, got 0"),
    ({**_PATH3, "mu": {"type": "table", "entries": [[0, 1.0], [1, 1.0]]}},
     "the mu table has no entry for vertex 2"),
    ({**_PATH3, "kernel": {"type": "tabulated",
                           "entries": [[[0, 1], 1.0], [[1, 7], 1.0]]}},
     r"kernel entry \(1, 7\) names 7, which is not a vertex"),
    ({**_PATH3, "edges": [[0, 1], [1, 5]]},
     r"edge \(1, 5\) names 5, which is not a vertex"),
    ({**_PATH3, "vertices": [0, 1, 1, 2]}, "vertex 1 is listed twice"),
    ({**_PATH3, "vertices": [0, "a", 2], "edges": [[0, "a"], ["a", 2]]},
     r"vertex labels \[0, 'a', 2\] cannot be ordered"),
], ids=["no-kernel", "bad-kind", "bad-kernel", "bad-alpha", "kernel-list",
        "model-list", "bad-metric", "metrc", "c_j", "kernel-key", "mu-key",
        "ladder-range-0", "mu-negative", "mu-zero-even", "alpha-nan",
        "d-zero", "mu-table-gap", "kernel-non-vertex", "edge-non-vertex",
        "vertex-twice", "mixed-labels"])
def test_config_malformed_model(tmp_path, capsys, model, match):
    """A malformed `model` is a ConfigError naming the field, raised when
    the config is built."""
    with pytest.raises(ConfigError, match="field 'model'") as info:
        ExperimentConfig(experiment="heat", model=model)
    assert info.match(match)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "heat", "model": model}))
    assert main(["run", str(cfg)]) == 2
    assert f"{cfg}: field 'model'" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, match", [
    ("assert_thresholds", "false", "expected true or false, got 'false'"),
    ("seed", 1.5, "1.5 is not an integer"),
    ("seed", "7", "'7' is not an integer"),
    ("seed", -3, "need a nonnegative integer, got -3"),
    ("seed", 2 ** 64, f"need an integer of at most 64 bits, got {2 ** 64}"),
    ("out_dir", 5, "expected a string, got int"),
], ids=["assert-thresholds-str", "seed-fraction", "seed-str", "seed-negative",
        "seed-65-bits", "out-dir-int"])
def test_config_top_level_fields_checked(tmp_path, capsys, field, value, match):
    """A top-level field of the wrong type is a ConfigError naming it, not
    a truthy string that asserts or a numpy or os error in the run."""
    with pytest.raises(ConfigError, match=f"field '{field}': {match}"):
        ExperimentConfig(experiment="cex-ladder", params={"ranges": [16]},
                         **{field: value})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "cex-ladder",
                               "params": {"ranges": [16]}, field: value}))
    assert main(["run", str(cfg)]) == 2
    assert f"{cfg}: field '{field}': {match}" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["run", "{cfg}", "--seed", "-3"],
    ["cex", "ladder", "--ranges", "16", "--seed", "-3"],
], ids=["run-override", "flag"])
def test_negative_seed_flag_rejected(tmp_path, capsys, args):
    """`lab run --seed` is set after the file is read, and is checked as the
    file's own seed is."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "cex-ladder",
                               "params": {"ranges": [16]}}))
    assert main([a.format(cfg=cfg) for a in args]) == 2
    err = capsys.readouterr().err
    assert "field 'seed': need a nonnegative integer, got -3" in err
    assert "ValueError" not in err


@pytest.mark.parametrize("experiment, key", [
    (exp, key) for exp, table in PARAMS.items()
    for key, default in table.items() if isinstance(default, list)])
def test_empty_list_param_rejected(tmp_path, capsys, experiment, key):
    """An empty list param is a ConfigError naming it, given as a flag or
    in a config file."""
    with pytest.raises(ConfigError, match=f"param '{key}': empty list"):
        ExperimentConfig(experiment=experiment, params={key: []})
    assert main([*COMMANDS[experiment][0], f"--{key}="]) == 2
    assert f"error: param '{key}': empty list" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "params": {key: []}}))
    assert main(["run", str(cfg)]) == 2
    assert f"{cfg}: param '{key}': empty list" in capsys.readouterr().err


@pytest.mark.parametrize("value, match", [
    ("8,8", "need a strictly increasing list, got [8, 8]"),
    ("16,8", "need a strictly increasing list, got [16, 8]"),
    ("0,8", "need entries of at least 1, got 0"),
], ids=["repeated", "decreasing", "zero"])
@pytest.mark.parametrize("experiment, key", [
    (exp, key) for exp, table in PARAMS.items()
    for key, default in table.items() if isinstance(default, list)])
def test_list_param_outside_radius_grid_rejected(tmp_path, capsys,
                                                 monkeypatch, experiment, key,
                                                 value, match):
    """A list param with a repeated, decreasing or zero entry is a
    ConfigError naming it (`conditions.radius_grid`), given as a flag or in
    a config file, raised before any checker runs."""
    ran = _spy_on_checkers(monkeypatch)
    entries = [int(v) for v in value.split(",")]
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(experiment=experiment, params={key: entries})
    assert str(info.value) == f"param '{key}': {match}"
    assert main([*COMMANDS[experiment][0], f"--{key}={value}"]) == 2
    assert f"error: param '{key}': {match}" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment,
                               "params": {key: entries}}))
    assert main(["run", str(cfg)]) == 2
    assert f"{cfg}: param '{key}': {match}" in capsys.readouterr().err
    assert ran == []


@pytest.mark.parametrize("value", ["4,,8", "16,", ",16"],
                         ids=["inner", "trailing", "leading"])
@pytest.mark.parametrize("experiment, key", [
    (exp, key) for exp, table in PARAMS.items()
    for key, default in table.items() if isinstance(default, list)])
def test_list_flag_with_empty_entry_rejected(capsys, monkeypatch, experiment,
                                             key, value):
    """An empty entry between commas in a list flag exits 2 before any
    checker runs; it is not dropped to leave a shorter list."""
    ran = _spy_on_checkers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([*COMMANDS[experiment][0], f"--{key}={value}"])
    assert exc.value.code == 2
    assert f"argument --{key}: invalid" in capsys.readouterr().err
    assert ran == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("experiment, key", [
    (exp, key) for exp, table in PARAMS.items()
    for key, default in table.items() if isinstance(default, float)])
def test_nonfinite_float_param_rejected(tmp_path, capsys, experiment, key,
                                        value):
    """A NaN or infinite float param is a ConfigError naming it (exit 2),
    given as a flag or in a config file (json reads NaN and Infinity), not
    a stray error late in the run."""
    match = f"param '{key}': need a finite number, got {float(value)!r}"
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(experiment=experiment, params={key: float(value)})
    flag = f"--{key.replace('_', '-')}={value}"
    assert main([*COMMANDS[experiment][0], flag]) == 2
    assert f"error: {match}" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment,
                               "params": {key: float(value)}}))
    assert main(["run", str(cfg)]) == 2
    assert f"{cfg}: {match}" in capsys.readouterr().err


def test_resolved_config_reproduces_report(tmp_path):
    """config.resolved lists every param, and `lab run` on it writes the
    same report.json as the flags did."""
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["poincare", "--d", "2", "--radii", "2,4", "--out", first]) == 0
    resolved = os.path.join(first, "config.resolved")
    with open(resolved) as f:
        assert list(json.load(f)["params"]) == list(PARAMS["poincare"])
    assert main(["run", resolved, "--out", second]) == 0
    reports = []
    for d in (first, second):
        with open(os.path.join(d, "report.json"), "rb") as f:
            reports.append(f.read())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("vertices", [[0, 1, 2], ["left", "mid", "right"]],
                         ids=["int", "str"])
def test_heat_keys_on_explicit_graph(capsys, tmp_path, vertices):
    a, b, c = vertices
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "heat", "params": {"t": 0.5, "r_win": 2},
        "model": {"kind": "explicit", "vertices": vertices,
                  "edges": [[a, b], [b, c]],
                  "kernel": {"type": "tabulated",
                             "entries": [[[a, b], 1.0], [[b, c], 1.0]]}}}))
    assert main(["run", str(cfg)]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    assert sorted(values) == sorted(map(str, vertices))
    assert sum(values.values()) == pytest.approx(1.0, abs=1e-12)


# params small enough for a 7-vertex graph
_GRAPH_PARAMS = {"heat": {"t": 0.5, "r_win": 2}, "exit-time": {"radii": [1, 2]},
                 "poincare": {"radii": [1, 2]}, "phi": {"R": 1},
                 "ehi": {"R": 1}, "conditions-sweep": {"radii": [1, 2]}}


@pytest.mark.parametrize("labels", [list(range(7)),
                                    [f"v{i}" for i in range(7)]],
                         ids=["int", "str"])
@pytest.mark.parametrize("experiment", _GRAPH_PARAMS)
def test_generic_experiments_on_explicit_graph(capsys, tmp_path, experiment,
                                               labels):
    """Each generic experiment runs on the path v5 - v3 - v1 - v0 - v2 - v4 -
    v6, labelled by integers or by multi-character strings.  A Harnack box
    is centred on the label v0 as given, and the jump-bound pairs join v0 to
    the least vertex at 1 and at 2 hops; no vertex is 4 hops away."""
    path = [labels[i] for i in (5, 3, 1, 0, 2, 4, 6)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": experiment, "params": _GRAPH_PARAMS[experiment],
        "model": {"kind": "explicit", "vertices": labels,
                  "edges": [list(e) for e in zip(path, path[1:])],
                  "kernel": {"type": "tabulated", "entries": [
                      [[u, path[j]], 1.0 / (j - i) ** 2]
                      for i, u in enumerate(path) for j in range(i + 1, 7)]}}}))
    assert main(["run", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    if experiment in ("phi", "ehi"):
        assert report["box"]["x0"] == labels[0]
    if experiment == "conditions-sweep":
        assert report["conditions"]["J_bounds"]["grid"]["pairs"] == [
            [labels[0], labels[1]], [labels[0], labels[3]]]


def _benchmark_workloads() -> dict:
    """perfbench/run.py's `lab` argument lists, read with ast, not imported."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "WORKLOADS")


def test_benchmark_workloads_parse():
    """perfbench/run.py's argument lists still parse to the experiment and
    params they are meant to run."""
    workloads = _benchmark_workloads()
    expected = {
        "cex-suppressed": ("cex-suppressed", {"radii": [8, 16]}),
        "cex-ladder": ("cex-ladder", {"ranges": [16, 64, 256]}),
        "phi-z2": ("phi", {"d": 2, "R": 2}),
        "heat-reflected": ("heat", {"r_win": 2048, "t": 256.0,
                                    "mode": "reflected"}),
    }
    assert sorted(workloads) == sorted(expected)
    for name, argv in workloads.items():
        argv = [a.replace("{seed}", "0") for a in argv]
        args = build_parser(argv).parse_args(argv)
        experiment, given = expected[name]
        assert args.experiment == experiment, name
        assert {k: getattr(args, k) for k in PARAMS[experiment]} \
            == {**PARAMS[experiment], **given}, name


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


@pytest.mark.parametrize("args", [
    ["conditions", "--d", "2", "--radii", "2,4"],
    ["cex", "suppressed", "--radii", "8"],
], ids=["conditions-z2", "cex-suppressed"])
def test_csv_rows_match_header_width(tmp_path, args):
    """Vertex cells hold commas (`0,0`, `0,8`); the writer quotes them, so
    every row parses to the header's width."""
    out = str(tmp_path / "bundle")
    assert main(args + ["--out", out]) == 0
    names = [f for f in os.listdir(out) if f.endswith(".csv")]
    assert names
    for name in names:
        with open(os.path.join(out, name), newline="") as f:
            header, *rows = list(csv.reader(f))
        assert rows and all(len(r) == len(header) for r in rows), name
        assert all("(" not in cell for r in rows for cell in r), name


def _row_dict_csv(path, rows):
    """A table written row by row from dicts, as heat.csv once was: a vertex
    cell joins its coordinates by commas, any other cell is str()."""
    def cell(v):
        return ",".join(map(str, v)) if isinstance(v, tuple) else str(v)

    with open(path, "w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(rows[0])
        out.writerows([cell(r[k]) for k in rows[0]] for r in rows)


@pytest.mark.parametrize("mode", ["killed", "reflected"])
@pytest.mark.parametrize("d", [1, 2])
def test_heat_csv_written_from_columns_matches_row_dicts(tmp_path, d, mode):
    """heat.csv, written from the row's columns, is byte for byte the file
    the row-dict writer makes from the same values, `"x,y"` cells quoted on
    Z^2 included."""
    out = str(tmp_path / "bundle")
    assert main(["heat", "--d", str(d), "--r-win", "5", "--t", "1.5",
                 "--mode", mode, "--out", out]) == 0
    fm = truncate(LatticeModel(d=d, kernel=PolynomialKernel(1.0)), (0,) * d,
                  5, KILLED if mode == "killed" else REFLECTED)
    hk = heat_kernel(fm, (0,) * d, 1.5)
    oracle = str(tmp_path / "oracle.csv")
    _row_dict_csv(oracle, [{"y": v, "p": float(val)}
                           for v, val in zip(fm.window, hk.values)])
    with open(os.path.join(out, "heat.csv"), "rb") as f, \
            open(oracle, "rb") as g:
        got, want = f.read(), g.read()
    assert got == want
    assert (b'"0,0",' in got) == (d == 2)


def test_layertrace_entry_points_resolve():
    """Every entry point the traced benchmark run wraps still exists, so a
    rename cannot break `perfbench/run.py --trace 1` unseen."""
    spec = importlib.util.spec_from_file_location(
        "layertrace", PERFBENCH / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for module, attr in layertrace.ENTRY_POINTS:
        obj = module
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{module.__name__}.{attr}"


def test_ladder_requires_alpha_in_range():
    cfg = ExperimentConfig(experiment="cex-ladder", params={"alpha": 1.0})
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_ladder_walker_counts_are_not_params(tmp_path, capsys):
    """The walker counts are constants: `--n-hit` and a config's `n_sup`
    are unknown params (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(["cex", "ladder", "--ranges", "16", "--n-hit", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-hit 5" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "cex-ladder",
                               "params": {"ranges": [16], "n_sup": 500}}))
    assert main(["run", str(cfg)]) == 2
    assert "unknown param 'n_sup'" in capsys.readouterr().err


@pytest.mark.parametrize("args, name", [
    (["conditions", "--radii", "4,8,16"], "E_alpha.csv"),
    (["exit-time", "--radii", "4,8,16"], "exit_time.csv"),
], ids=["conditions", "exit-time"])
def test_exit_time_csv_has_one_row_per_radius(tmp_path, args, name):
    """The exit-time table holds one row per radius, each with an integer
    `r`, and no fit row."""
    out = str(tmp_path / "bundle")
    assert main(args + ["--out", out]) == 0
    with open(os.path.join(out, name), newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["r"] for row in rows] == ["4", "8", "16"]


def test_ladder_requires_ranges_of_at_least_one(capsys):
    """A range of 0 is an error naming it, not a KeyError from the jump-bound
    rows, which skip the zero-distance pair."""
    assert main(["cex", "ladder", "--ranges", "0,16"]) == 2
    err = capsys.readouterr().err
    assert "param 'ranges': need entries of at least 1, got 0" in err
    assert "KeyError" not in err


def test_ladder_rejects_repeated_range(capsys):
    """A repeated range is an error naming it, not a run whose kernel counts
    the atom once in J and twice in its row sum."""
    assert main(["cex", "ladder", "--ranges", "16,64,16"]) == 2
    assert ("param 'ranges': need a strictly increasing list, "
            "got [16, 64, 16]" in capsys.readouterr().err)


@pytest.mark.parametrize("t", ["0", "-0.001"])
def test_suppressed_requires_positive_t_probe(capsys, t):
    """A t_probe <= 0 is a ConfigError naming the param, not a NaN collapse
    ratio (t = 0) or a numpy error (t < 0)."""
    assert main(["cex", "suppressed", "--radii", "8", "--t-probe", t]) == 2
    assert "param 't_probe': need a positive time" in capsys.readouterr().err


def test_suppressed_unresolved_t_probe_is_refused(capsys):
    """At t_probe = 1e-7 the suppressed pair's heat kernel value is below
    the series' certified error: the run exits 2 naming that error, not a
    window that moved 300 % on doubling."""
    assert main(["cex", "suppressed", "--radii", "8", "--t-probe", "1e-7"]) == 2
    err = capsys.readouterr().err
    assert "certified error" in err and "doubling" not in err


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize("experiment", [
    exp for exp, table in PARAMS.items() if "d" in table])
def test_lattice_dimension_below_one_rejected(capsys, experiment, d):
    """A lattice dimension below 1 is an error naming d (exit 2), raised
    when the model is built, not a reduce() or numpy error late in the
    run."""
    assert main([*COMMANDS[experiment][0], f"--d={d}"]) == 2
    err = capsys.readouterr().err
    assert f"lattice dimension d must be at least 1, got {d}" in err
    assert "TypeError" not in err


def _spy_on_checkers(monkeypatch) -> list:
    """Replace every checker, Harnack constant and Monte Carlo estimate the
    runners call by a stub that records its name in the returned list."""
    ran = []
    for module in (io_module.cond, io_module.har, io_module.mc):
        for name in dir(module):
            if name.startswith(("check_", "phi_", "ehi_", "hit_", "sample_")):
                monkeypatch.setattr(module, name,
                                    lambda *a, name=name, **k: ran.append(name))
    return ran


def test_suppressed_refuses_gap_below_one_up_front(capsys, monkeypatch):
    """A gap below 1 anywhere in --radii is a ConfigError naming the param,
    raised before any checker runs, not a ValueError once the gaps before
    it are computed."""
    ran = _spy_on_checkers(monkeypatch)
    assert main(["cex", "suppressed", "--radii", "8,-4"]) == 2
    err = capsys.readouterr().err
    assert "param 'radii': need entries of at least 1" in err
    assert "got -4" in err
    assert ran == []


def test_suppressed_refuses_repeated_gap_up_front(capsys, monkeypatch):
    """A repeated gap is a ConfigError naming the param, raised before any
    checker runs, not a run that lists the gap's assertions twice."""
    ran = _spy_on_checkers(monkeypatch)
    assert main(["cex", "suppressed", "--radii", "8,16,8"]) == 2
    assert ("param 'radii': need a strictly increasing list, got [8, 16, 8]"
            in capsys.readouterr().err)
    assert ran == []


def test_ladder_refuses_unsorted_ranges_up_front(capsys, monkeypatch):
    """Ranges out of increasing order are a ConfigError naming the param,
    raised before any checker runs: the C_UJ assertions read the ranges in
    the order given."""
    ran = _spy_on_checkers(monkeypatch)
    assert main(["cex", "ladder", "--ranges", "64,16"]) == 2
    assert ("param 'ranges': need a strictly increasing list, got [64, 16]"
            in capsys.readouterr().err)
    assert ran == []


def _fresh_python(code: str) -> str:
    """The stripped stdout of `code` run in a new interpreter that imports
    jumplab from this source tree."""
    src = str(Path(jumplab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    """`lab` loads no scipy module and imports numpy.fft, which every
    lattice window uses and numpy loads lazily, so that import stays out of
    the timed part of a run.  numpy.random, which `lab` never uses, is
    loaded only where a bare `import numpy` already does (numpy < 2)."""
    code = "import sys, numpy; bare = 'numpy.random' in sys.modules; " \
           "import jumplab.cli; print(sorted(m for m in sys.modules " \
           "if m.split('.')[0] == 'scipy'), 'numpy.fft' in sys.modules, " \
           "'numpy.random' in sys.modules and not bare)"
    assert _fresh_python(code) == "[] True False"


def test_cli_import_loads_no_logging_or_fractions():
    """`import jumplab.cli` loads neither `logging` (the one warning is a
    print to stderr) nor `fractions` and the `decimal` it pulls in (the
    shell polynomials are exact integers over (d-1)!)."""
    code = "import sys, jumplab.cli; print([m for m in ('logging', " \
           "'fractions', 'decimal') if m in sys.modules])"
    assert _fresh_python(code) == "[]"


def test_benchmark_runs_load_no_openssl(tmp_path):
    """The model digest comes from CPython's built-in SHA-256 and the walker
    draws from its own SplitMix64, so neither `import jumplab.cli` nor the
    benchmark's four runs, `cex ladder --ranges 16,64,256 --seed 0` among
    them, load OpenSSL's `_hashlib` (about 3.6 MiB of RSS) or numpy.random
    (2.5 MiB more)."""
    runs = [[a.replace("{seed}", "0") for a in argv]
            + ["--out", str(tmp_path / name)]
            for name, argv in sorted(_benchmark_workloads().items())]
    assert ["cex", "ladder", "--ranges", "16,64,256", "--assert-thresholds",
            "--seed", "0"] in [r[:7] for r in runs]
    code = "import sys, numpy; bare = 'numpy.random' in sys.modules; " \
           "from jumplab.cli import main; " \
           "before = '_hashlib' in sys.modules; " \
           f"codes = [main(args) for args in {runs!r}]; " \
           "print(before, codes, '_hashlib' in sys.modules, " \
           "'numpy.random' in sys.modules and not bare)"
    assert _fresh_python(code) == "False [0, 0, 0, 0] False False"


@pytest.mark.parametrize("d, timed", [(1, False), (1, True), (2, True)],
                         ids=["z1-hit", "z1-exit", "z2-exit"])
def test_walk_loads_no_numpy_random(d, timed):
    """A walk, its holds and its Z^2 directions draw from the package's
    SplitMix64, so no walk imports numpy.random or OpenSSL's `_hashlib`."""
    x = (2,) + (0,) * (d - 1)
    run = f"mc.sample_exit_time(s, {x}, {x}, 8, 10)" if timed else \
        f"mc.hit_before_exit(s, {x}, {(0,) * d}, {(0,) * d}, 8, 10)"
    code = "import sys, numpy; bare = 'numpy.random' in sys.modules; " \
           "from jumplab import montecarlo as mc; " \
           "from jumplab.models import LatticeModel, PolynomialKernel; " \
           f"s = mc.TrajectorySampler(LatticeModel(d={d}, " \
           "kernel=PolynomialKernel(1.0)), seed=0); " \
           f"rep = {run}; " \
           "print(rep.n, 'numpy.random' in sys.modules and not bare, " \
           "'_hashlib' in sys.modules)"
    assert _fresh_python(code) == "10 False False"
