"""Experiment configs, headline experiment runners, and report bundles.

A run is a pure function of its resolved config (given the seed): reports are
serialized with sorted keys and repr-exact floats, and timestamps live in a
separate meta.json, so re-running with the same config reproduces report.json
byte for byte.  Bundles are written to a temp directory and renamed into
place atomically.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import json
import logging
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from . import conditions as cond
from . import harnack as har
from . import montecarlo as mc
from .errors import ConfigError
from .models import (
    KILLED,
    LadderKernel,
    LatticeModel,
    PolynomialKernel,
    REFLECTED,
    SuppressedPairKernel,
    model_from_dict,
    truncate,
)
from .semigroup import heat_kernel

log = logging.getLogger("jumplab")

# Each experiment's params and their defaults, in flag order: the one table
# behind `lab`'s flags and a config file's `params`.  A list default holds
# ints; every other value gives its param's type.
_MODEL = {"alpha": 1.0, "d": 1, "metric": "linf"}
PARAMS = {
    "conditions-sweep": {**_MODEL, "radii": [4, 8, 16]},
    "phi": {**_MODEL, "R": 8, "lam": 1.0},
    "ehi": {**_MODEL, "R": 8},
    "heat": {**_MODEL, "t": 1.0, "r_win": 16, "mode": "killed"},
    "exit-time": {**_MODEL, "radii": [8, 16, 32]},
    "poincare": {**_MODEL, "radii": [4, 8, 16]},
    "cex-suppressed": {"alpha": 1.0, "d": 1, "radii": [8, 16],
                       "t_probe": 1e-3},
    "cex-ladder": {"alpha": 1.5, "ranges": [16, 64, 256]},
}
CHOICES = {"metric": ("linf", "l1"), "mode": ("killed", "reflected")}
EXPERIMENTS = tuple(PARAMS)
# The suppressed pair's Poincare ratio may exceed 2^(d+alpha+1) by this factor.
PI_MARGIN = 1.25
# The ladder's hitting probability, less 3 standard errors, stays above this.
HIT_MARGIN = 0.1
# Monte Carlo walkers per ladder range: hitting runs and running-sup draws.
N_HIT = 2000
N_SUP = 20_000


def _integer(value) -> int:
    """int(value), or ValueError for a float with a fractional part."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


@dataclass
class ExperimentConfig:
    experiment: str
    model: dict | None = None
    params: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str | None = None
    assert_thresholds: bool = False
    # the LatticeModel built from `model`, which keeps the raw dict
    built_model: LatticeModel | None = field(default=None, init=False,
                                             repr=False, compare=False)

    def __post_init__(self):
        """Build the `model` and overlay `params` on the experiment's
        defaults, each cast to its default's type; an integer param or list
        entry with a fractional part is refused, not truncated.  A `model`
        replaces the `d` and `metric` params, and the cex experiments build
        their own.
        An unknown experiment or param, a bad value, a float param that is
        not finite, an empty list, a malformed `model`, a seed that is not a
        nonnegative integer, an `out_dir` that is not a string or an
        `assert_thresholds` that is not a bool is a ConfigError."""
        try:
            if isinstance(self.seed, (str, bool)):
                raise TypeError(f"{self.seed!r} is not an integer")
            self.seed = _integer(self.seed)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"field 'seed': {e}") from e
        if self.seed < 0:
            raise ConfigError(f"field 'seed': need a nonnegative integer, "
                              f"got {self.seed}")
        if not isinstance(self.out_dir, (str, type(None))):
            raise ConfigError(f"field 'out_dir': expected a string, got "
                              f"{type(self.out_dir).__name__}")
        if not isinstance(self.assert_thresholds, bool):
            raise ConfigError(f"field 'assert_thresholds': expected true or "
                              f"false, got {self.assert_thresholds!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"field 'experiment': unknown value "
                              f"{self.experiment!r}; expected one of {EXPERIMENTS}")
        if not isinstance(self.params, dict):
            raise ConfigError(f"field 'params': expected an object, got "
                              f"{type(self.params).__name__}")
        table = PARAMS[self.experiment]
        if self.model is not None:
            if self.experiment.startswith("cex-"):
                raise ConfigError(f"field 'model': {self.experiment} builds "
                                  f"its own models")
            try:
                self.built_model = model_from_dict(self.model)
            except (AttributeError, KeyError, TypeError, ValueError) as e:
                raise ConfigError(f"field 'model': {type(e).__name__}: {e}") from e
            table = {k: v for k, v in table.items() if k not in ("d", "metric")}
        resolved = {}
        for key, value in {**table, **self.params}.items():
            if key not in table:
                raise ConfigError(f"{self.experiment}: unknown param {key!r}; "
                                  f"expected one of {tuple(table)}")
            if key in CHOICES and value not in CHOICES[key]:
                raise ConfigError(f"param {key!r}: unknown value {value!r}; "
                                  f"expected one of {CHOICES[key]}")
            default = table[key]
            cast = (_integer if isinstance(default, (int, list))
                    else type(default))
            try:
                resolved[key] = ([cast(r) for r in value]
                                 if isinstance(default, list) else cast(value))
            except (TypeError, ValueError) as e:
                raise ConfigError(f"param {key!r}: {e}") from e
            if isinstance(default, float) and not math.isfinite(resolved[key]):
                raise ConfigError(f"param {key!r}: need a finite number, "
                                  f"got {value!r}")
            if resolved[key] == []:
                raise ConfigError(f"param {key!r}: empty list")
        self.params = resolved

    def resolved(self) -> dict:
        return {"experiment": self.experiment, "model": self.model,
                "params": jsonable(self.params), "seed": self.seed,
                "out_dir": self.out_dir,
                "assert_thresholds": self.assert_thresholds}


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if "experiment" not in raw:
        raise ConfigError(f"{path}: missing required field 'experiment'")
    known = {f.name for f in dataclasses.fields(ExperimentConfig) if f.init}
    for k in raw:
        if k not in known:
            raise ConfigError(f"{path}: unknown field {k!r}")
    try:
        return ExperimentConfig(**raw)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def jsonable(v):
    """Deterministic JSON-safe conversion, the one serialiser of reports:
    tuples to lists, numpy scalars to Python numbers, and inf, -inf, nan to
    the strings "inf", "-inf", "nan"."""
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, (np.floating,)):
        v = float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [jsonable(x) for x in v.tolist()]
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
    return v


def _cell(v) -> str:
    """A CSV cell: a vertex as its coordinates joined by commas, else str."""
    return ",".join(map(str, v)) if isinstance(v, tuple) else str(v)


def write_bundle(out_dir: str, config: dict, report: dict, csvs: dict,
                 meta: dict):
    """Atomically write config.resolved, report.json, meta.json, and CSVs
    (one `_cell` per value, quoted where it holds a comma).

    The files go to a sibling temp directory.  An existing bundle is renamed
    aside, the new one renamed into place, and only then is the old one
    deleted, so a complete bundle exists at every moment.  On failure the
    temp directory is removed and the old bundle stays in place.
    """
    base = out_dir.rstrip("/")
    tmp = base + f".tmp-{os.getpid()}"
    old = base + f".old-{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    try:
        meta = dict(meta, written_at=datetime.datetime.now(
            datetime.timezone.utc).isoformat())
        for name, obj in (("config.resolved", config), ("report.json", report),
                          ("meta.json", meta)):
            with open(os.path.join(tmp, name), "w") as f:
                json.dump(jsonable(obj), f, sort_keys=True, indent=2)
                f.write("\n")
        for name, rows in csvs.items():
            with open(os.path.join(tmp, name + ".csv"), "w", newline="") as f:
                if rows:
                    out = csv.writer(f, lineterminator="\n")
                    out.writerow(rows[0])
                    out.writerows([_cell(r[k]) for k in rows[0]] for r in rows)
        if os.path.exists(out_dir):
            os.replace(out_dir, old)
        os.replace(tmp, out_dir)
    except BaseException:
        if os.path.exists(old) and not os.path.exists(out_dir):
            os.replace(old, out_dir)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


def _warn_alpha(alpha: float):
    if not (0.0 < alpha < 2.0):
        log.warning("alpha=%s lies outside (0,2); polynomial-bound sweeps are "
                    "outside their usual scope but the computation proceeds",
                    alpha)


def _assertion(name, value, threshold, ok) -> dict:
    return {"name": name, "value": jsonable(value),
            "threshold": jsonable(threshold), "ok": bool(ok)}


# ---------------------------------------------------------------------------
# headline experiments
# ---------------------------------------------------------------------------

def run_cex_suppressed(config: ExperimentConfig):
    """Suppressed-pair experiment: one deleted jump kills the lower kernel
    bound while the Harnack and Poincare constants barely move."""
    p = config.params
    d, alpha, gaps, t_probe = p["d"], p["alpha"], p["radii"], p["t_probe"]
    if t_probe <= 0:
        raise ConfigError(f"param 't_probe': need a positive time, got {t_probe}")
    if min(gaps) < 1:
        raise ConfigError(f"param 'radii': need gaps of at least 1, so the "
                          f"suppressed pair has distinct vertices, got "
                          f"{min(gaps)}")
    for i, R in enumerate(gaps):
        if R in gaps[:i]:
            raise ConfigError(f"param 'radii': gap {R} is repeated")
    _warn_alpha(alpha)
    report = {"experiment": "cex-suppressed", "per_gap": {}, "assertions": []}
    csvs = {}
    for R in gaps:
        y0 = tuple(R if i == 0 else 0 for i in range(d))
        origin = (0,) * d
        base = LatticeModel(d=d, kernel=PolynomialKernel(alpha))
        supp = LatticeModel(d=d, kernel=SuppressedPairKernel(
            base=PolynomialKernel(alpha), x0=origin, y0=y0))
        entry = {"gap": R, "y0": list(y0)}
        pairs = [(origin, y0)] + cond.default_pair_grid(base)
        jb_base = cond.check_jump_bounds(base, alpha, pairs)
        jb_supp = cond.check_jump_bounds(supp, alpha, pairs)
        entry["C_LJ"] = {"base": jb_base.constants["C_LJ"],
                         "suppressed": jb_supp.constants["C_LJ"],
                         "witness": jb_supp.witnesses["C_LJ"]}
        report["assertions"].append(_assertion(
            f"C_LJ_zero_R{R}", jb_supp.constants["C_LJ"], 0.0,
            jb_supp.constants["C_LJ"] == 0.0
            and jb_supp.witnesses["C_LJ"] == (origin, y0)))
        # lower heat-kernel bound collapse at the suppressed pair
        hk_base = cond.check_hkp(base, alpha, [(origin, y0)],
                                 times=[t_probe], r_win=8 * R)
        hk_supp = cond.check_hkp(supp, alpha, [(origin, y0)],
                                 times=[t_probe], r_win=8 * R)
        rb = hk_base.metadata["rows"][0]["ratio"]
        rs = hk_supp.metadata["rows"][0]["ratio"]
        entry["lhkp_ratio"] = {"base": rb, "suppressed": rs,
                               "collapse": rs / rb, "t": t_probe}
        report["assertions"].append(_assertion(
            f"lhkp_collapse_R{R}", rs / rb, 0.01, rs / rb <= 0.01))
        js_base = cond.check_ujs_ljs_js(base, pairs)
        js_supp = cond.check_ujs_ljs_js(supp, pairs)
        entry["ujs"] = {"base": js_base.constants, "suppressed": js_supp.constants}
        pi_base = cond.check_poincare(base, alpha, radii=[R])
        pi_supp = cond.check_poincare(supp, alpha, radii=[R])
        pi_ratio = pi_supp.constants["C_Q"] / pi_base.constants["C_Q"]
        pi_cap = 2.0 ** (d + alpha + 1) * PI_MARGIN
        entry["poincare"] = {"base": pi_base.constants["C_Q"],
                             "suppressed": pi_supp.constants["C_Q"],
                             "ratio": pi_ratio, "cap": pi_cap}
        report["assertions"].append(_assertion(
            f"pi_ratio_R{R}", pi_ratio, pi_cap, pi_ratio <= pi_cap))
        box = har.HarnackBox(x0=origin, R=R, alpha=alpha, lam=1.0)
        phi_base = har.phi_constant(base, box)
        phi_supp = har.phi_constant(supp, box)
        phi_ratio = phi_supp.constant / phi_base.constant
        entry["phi"] = {"base": phi_base.constant,
                        "suppressed": phi_supp.constant, "ratio": phi_ratio}
        report["assertions"].append(_assertion(
            f"phi_ratio_R{R}", phi_ratio, 2.0, phi_ratio <= 2.0))
        ehi_base = har.ehi_constant(base, origin, R)
        ehi_supp = har.ehi_constant(supp, origin, R)
        ehi_ratio = ehi_supp.constant / ehi_base.constant
        entry["ehi"] = {"base": ehi_base.constant,
                        "suppressed": ehi_supp.constant, "ratio": ehi_ratio}
        report["assertions"].append(_assertion(
            f"ehi_ratio_R{R}", ehi_ratio, 2.0, ehi_ratio <= 2.0))
        report["per_gap"][str(R)] = entry
        csvs[f"jump_bounds_R{R}"] = jb_supp.metadata["rows"]
    report["model_digest"] = {"base": base.digest(), "suppressed": supp.digest()}
    return report, csvs


def run_cex_ladder(config: ExperimentConfig):
    """Ladder experiment: log-weight atoms push the upper jump constant up
    with scale while exit times and hitting probabilities stay uniform."""
    p = config.params
    alpha = p["alpha"]
    if not (1.0 < alpha < 2.0):
        raise ConfigError(f"cex-ladder requires alpha in (1,2), got {alpha}")
    ranges = tuple(p["ranges"])
    model = LatticeModel(d=1, kernel=LadderKernel(alpha=alpha, ranges=ranges))
    if any(a >= b for a, b in zip(ranges, ranges[1:])):
        raise ConfigError(f"param 'ranges': need strictly increasing ranges, "
                          f"got {list(ranges)}")
    report = {"experiment": "cex-ladder", "alpha": alpha,
              "ranges": list(ranges), "assertions": []}
    csvs = {}
    # upper jump constant probed at each atom scale
    pairs = [((0,), (r,)) for r in ranges]
    jb = cond.check_jump_bounds(model, alpha, pairs)
    cuj = {r: row["ratio"] for r, row in zip(ranges, jb.metadata["rows"])}
    report["C_UJ"] = {str(r): cuj[r] for r in ranges}
    increasing = all(cuj[a] < cuj[b] for a, b in zip(ranges, ranges[1:]))
    growth = cuj[ranges[-1]] / cuj[ranges[0]]
    report["assertions"].append(_assertion(
        "C_UJ_increasing", [cuj[r] for r in ranges], None, increasing))
    report["assertions"].append(_assertion(
        "C_UJ_growth", growth, 1.5, growth >= 1.5))
    csvs["jump_bounds"] = jb.metadata["rows"]
    # exit-time stability across the atom scales
    et = cond.check_exit_time(model, alpha, radii=list(ranges))
    spread = et.constants["c2"] / et.constants["c1"]
    report["exit_time"] = {"c1": et.constants["c1"], "c2": et.constants["c2"],
                           "exponent": et.constants["exponent"],
                           "spread": spread}
    report["assertions"].append(_assertion(
        "exit_time_spread", spread, 2.0, spread <= 2.0))
    csvs["exit_time"] = et.metadata["rows"]
    # hitting probability bounded below uniformly in the scale
    sampler = mc.TrajectorySampler(model, seed=config.seed)
    hits = {}
    for R in ranges:
        rep = mc.hit_before_exit(sampler, (R // 4,), (0,), (0,), R, N_HIT)
        hits[str(R)] = {"estimate": rep.estimate, "se": rep.se, "n": rep.n}
        report["assertions"].append(_assertion(
            f"hit_lower_R{R}", rep.estimate - 3 * rep.se, HIT_MARGIN,
            rep.estimate - 3 * rep.se >= HIT_MARGIN))
    report["hit_before_exit"] = hits
    # running-sup bounds for the pure single-range component
    sups = {}
    for R in ranges:
        rep = mc.sample_position_sup(R, alpha, T=float(R) ** alpha / 4,
                                     n=N_SUP, seed=config.seed + R)
        sups[str(R)] = rep.to_dict()
        report["assertions"].append(_assertion(
            f"doob_R{R}", rep.extra["E_Y2"], rep.extra["doob_bound"],
            rep.extra["doob_ok"]))
        report["assertions"].append(_assertion(
            f"cheb_R{R}", rep.extra["P_ge_lam"], rep.extra["cheb_bound"],
            rep.extra["cheb_ok"]))
    report["position_sup"] = sups
    report["model_digest"] = model.digest()
    return report, csvs


# ---------------------------------------------------------------------------
# generic single-checker experiments
# ---------------------------------------------------------------------------

def _config_model(config: ExperimentConfig) -> LatticeModel:
    if config.built_model is not None:
        return config.built_model
    p = config.params
    return LatticeModel(d=p["d"], metric=p["metric"],
                        kernel=PolynomialKernel(p["alpha"]))


def run_generic(config: ExperimentConfig):
    p = config.params
    model = _config_model(config)
    alpha = p["alpha"]
    _warn_alpha(alpha)
    origin = model.origin
    exp = config.experiment
    csvs = {}
    if exp == "heat":
        t, r_win, mode = p["t"], p["r_win"], p["mode"]
        fm = truncate(model, origin, r_win,
                      KILLED if mode == "killed" else REFLECTED)
        hk = heat_kernel(fm, origin, t)
        csvs["heat"] = [{"y": v, "p": float(val)}
                        for v, val in zip(fm.window, hk.values)]
        report = {"experiment": "heat", "t": t, "r_win": r_win, "mode": mode,
                  "mass": hk.mass(), "eps_poisson": hk.eps_poisson,
                  "values": {_cell(v): float(val)
                             for v, val in zip(fm.window, hk.values)}}
    elif exp == "exit-time":
        rep = cond.check_exit_time(model, alpha, p["radii"])
        report = {"experiment": "exit-time", **rep.to_dict()}
        csvs["exit_time"] = rep.metadata["rows"]
    elif exp == "poincare":
        rep = cond.check_poincare(model, alpha, p["radii"])
        report = {"experiment": "poincare", **rep.to_dict()}
        csvs["poincare"] = rep.metadata["rows"]
    elif exp == "phi":
        box = har.HarnackBox(x0=origin, R=p["R"], alpha=alpha, lam=p["lam"])
        rep = har.phi_constant(model, box)
        report = {"experiment": "phi", **rep.to_dict()}
    elif exp == "ehi":
        rep = har.ehi_constant(model, origin, p["R"])
        report = {"experiment": "ehi", **rep.to_dict()}
    else:  # conditions-sweep
        radii = p["radii"]
        pairs = cond.default_pair_grid(model)
        out = {}
        for rep in (cond.check_vd(model, radii),
                    cond.check_jump_bounds(model, alpha, pairs),
                    cond.check_ujs_ljs_js(model, pairs),
                    cond.check_poincare(model, alpha, radii),
                    cond.check_exit_time(model, alpha, radii),
                    cond.check_boundary_flux(model, radii, alpha=alpha)):
            out[rep.condition] = rep.to_dict()
            csvs[rep.condition] = rep.metadata.get("rows", [])
        report = {"experiment": "conditions-sweep", "conditions": out}
    report["model_digest"] = model.digest()
    return report, csvs


def run_experiment(config: ExperimentConfig):
    """Dispatch, write the bundle if configured, and collect threshold failures."""
    t0 = time.monotonic()
    if config.experiment == "cex-suppressed":
        report, csvs = run_cex_suppressed(config)
    elif config.experiment == "cex-ladder":
        report, csvs = run_cex_ladder(config)
    else:
        report, csvs = run_generic(config)
    failures = [a for a in report.get("assertions", []) if not a["ok"]]
    if config.out_dir:
        write_bundle(config.out_dir, config.resolved(), report, csvs,
                     meta={"duration_s": time.monotonic() - t0})
    return report, failures
