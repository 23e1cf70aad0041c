"""Acceptance gate: one test per headline criterion, one verdict line each."""

import json
import math
import os

import numpy as np
import pytest
from scipy.linalg import expm

from jumplab import conditions as cond
from jumplab import harnack as H
from jumplab import montecarlo as mc
from jumplab.io import ExperimentConfig, run_experiment
from jumplab.models import (
    KILLED,
    LatticeModel,
    MuConstant,
    PolynomialKernel,
    REFLECTED,
    TabulatedKernel,
    truncate,
)
from jumplab.semigroup import expected_exit_time, generator, heat_kernel
from oracles import (
    caloric_box_ratio,
    caloric_solve,
    full_window,
    poincare_rayleigh,
)


def _verdict(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_uniformization_vs_dense_expm():
    """Heat kernels match the dense matrix-exponential oracle to 1e-10."""
    two = LatticeModel(kind="explicit", vertices=("a", "b"),
                       edges=(("a", "b"),),
                       kernel=TabulatedKernel(entries=((("a", "b"), 0.7),)),
                       mu_rule=MuConstant(1.0))
    fms = [truncate(two, "a", 1, REFLECTED),
           truncate(LatticeModel(d=1, kernel=PolynomialKernel(1.0)),
                    (0,), 10, KILLED),
           truncate(LatticeModel(d=2, kernel=PolynomialKernel(1.0)),
                    (0, 0), 3, REFLECTED)]
    worst = 0.0
    for fm in fms:
        assert fm.n <= 50
        gen = generator(fm)
        for t in (0.1, 1.0, 10.0):
            got = heat_kernel(fm, None, t).values
            oracle = expm(t * gen.Q) / fm.mu[None, :]
            worst = max(worst, float(np.max(np.abs(got - oracle))))
    _verdict(f"uniformization vs dense expm, max dev {worst:.2e} < 1e-10",
             worst < 1e-10)


def test_criterion_2_conservation_symmetry_semigroup():
    """Mass conservation, mu-symmetry, and Chapman-Kolmogorov at tolerance."""
    z1 = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    ref = truncate(z1, (0,), 10, REFLECTED)
    kil = truncate(z1, (0,), 10, KILLED)
    ok = True
    for t in (0.1, 1.0, 10.0):
        pr = heat_kernel(ref, None, t).values
        pk = heat_kernel(kil, None, t).values
        ok &= float(np.max(np.abs(pr @ ref.mu - 1.0))) <= 1e-9
        ok &= float(np.max(pk @ kil.mu)) <= 1.0 + 1e-9
        ok &= float(np.max(np.abs(pr - pr.T))) <= 2e-10
        ok &= float(np.max(np.abs(pk - pk.T))) <= 2e-10
    p1 = heat_kernel(kil, None, 0.6).values
    p2 = heat_kernel(kil, None, 1.4).values
    p3 = heat_kernel(kil, None, 2.0).values
    ok &= float(np.max(np.abs(p1 @ np.diag(kil.mu) @ p2 - p3))) <= 3e-10
    _verdict("conservation / symmetry / Chapman-Kolmogorov suite", ok)


def test_criterion_3_short_time_jump_identity():
    """t^{-1} p_t(x,y) mu_x mu_y -> J(x,y) within 1% at t = 1e-4, 20 pairs."""
    z1 = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    fm = truncate(z1, (0,), 80, KILLED)
    rng = np.random.default_rng(2024)
    t = 1e-4
    worst = 0.0
    for _ in range(20):
        x = int(rng.integers(-10, 11))
        y = int(rng.integers(-10, 11))
        while y == x:
            y = int(rng.integers(-10, 11))
        p = heat_kernel(fm, (x,), t).values[fm.index[(y,)]]
        j = z1.J((x,), (y,))
        worst = max(worst, abs(p / t - j) / j)
    _verdict(f"short-time jump identity, worst rel dev {worst:.2e} <= 1e-2",
             worst <= 1e-2)


def test_criterion_4_exit_time_cross_validation():
    """Solver vs Monte Carlo within 3 SE; log-log exponent within alpha±0.15."""
    z1 = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    fm = truncate(z1, (0,), 16, KILLED)
    want = float(expected_exit_time(fm)[fm.index[(0,)]])
    rep = mc.sample_exit_time(mc.TrajectorySampler(z1, seed=42),
                              (0,), (0,), 16, 10_000)
    ok = abs(rep.estimate - want) <= 3 * rep.se
    exps = {}
    for alpha in (0.75, 1.0, 1.5):
        m = LatticeModel(d=1, kernel=PolynomialKernel(alpha))
        e = cond.check_exit_time(m, alpha, radii=[8, 16, 32, 64])
        exps[alpha] = e.constants["exponent"]
        ok &= abs(exps[alpha] - alpha) <= 0.15
    _verdict(f"exit-time cross-validation (MC z={abs(rep.estimate - want) / rep.se:.2f}, "
             f"exponents {[f'{a}:{v:.3f}' for a, v in exps.items()]})", ok)


def test_criterion_5_poincare_exactness():
    """Eigen C_Q dominates 100 random Rayleigh quotients; two-point closed form."""
    j = 0.7
    two = LatticeModel(kind="explicit", vertices=("a", "b"),
                       edges=(("a", "b"),),
                       kernel=TabulatedKernel(entries=((("a", "b"), j),)),
                       mu_rule=MuConstant(1.0))
    got = cond.check_poincare(two, 1.0, radii=[1]).constants["C_Q"]
    ok = abs(got - 1.0 / (4 * j)) <= 1e-10
    z1 = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    rng = np.random.default_rng(5)
    violations = 0
    for R in (4, 8, 16):
        cq = cond.check_poincare(z1, 1.0, radii=[R]).constants["C_Q"]
        for _ in range(100):
            f = rng.standard_normal(2 * R + 1)
            violations += poincare_rayleigh(z1, (0,), R, 1.0, f) > cq + 1e-12
    _verdict(f"Poincare exactness (two-point dev {abs(got - 1 / (4 * j)):.1e}, "
             f"{violations} violations)", ok and violations == 0)


def test_criterion_6_harnack_cone_soundness():
    """100 random caloric fields below C_P + 1e-8; doubling-stable per box."""
    z1 = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    rng = np.random.default_rng(6)
    ok = True
    for R in (8, 16):
        box = H.HarnackBox(x0=(0,), R=R, alpha=1.0, lam=1.0)
        rep = H.phi_constant(z1, box)
        ratio_dbl = rep.metadata["doubled_constant"] / rep.constant
        ok &= 0.5 <= ratio_dbl <= 2.0
        fm, sources = full_window(z1, (0,), 2 * R)
        n_ext = len(fm.exterior)
        for _ in range(100):
            fld = caloric_solve(fm, sources, rng.random(fm.n),
                                rng.random((box.m_steps, n_ext)),
                                box.T, box.m_steps,
                                remainder_data=rng.random(box.m_steps))
            ok &= caloric_box_ratio(fld, box) <= rep.constant + 1e-8
    _verdict("Harnack cone soundness at R in {8,16}", ok)


def test_criterion_7_counterexample_suppressed_pair():
    """C_LJ = 0 with witness; LHKP collapse <= 1%; C_P and C_EHI ratios <= 2."""
    cfg = ExperimentConfig(experiment="cex-suppressed",
                           params={"radii": [8, 16]}, seed=0)
    report, failures = run_experiment(cfg)
    names = [a["name"] for a in report["assertions"]]
    assert {"C_LJ_zero_R8", "lhkp_collapse_R8", "phi_ratio_R8", "ehi_ratio_R8",
            "C_LJ_zero_R16", "lhkp_collapse_R16", "phi_ratio_R16",
            "ehi_ratio_R16"} <= set(names)
    _verdict(f"counterexample A: {len(report['assertions'])} assertions, "
             f"{len(failures)} failures", not failures)


def test_criterion_8_counterexample_ladder():
    """C_UJ log-growth; exit constants stable; uniform hitting; Doob/Chebyshev."""
    cfg = ExperimentConfig(experiment="cex-ladder",
                           params={"ranges": [16, 64, 256]}, seed=0)
    report, failures = run_experiment(cfg)
    growth = next(a for a in report["assertions"] if a["name"] == "C_UJ_growth")
    _verdict(f"counterexample B: C_UJ growth {growth['value']:.3f} >= 1.5, "
             f"{len(failures)} failures", not failures)


def test_criterion_9_determinism(tmp_path):
    """Identical config + seed reproduces report.json byte-identically."""
    outs = []
    for name in ("r1", "r2"):
        cfg = ExperimentConfig(
            experiment="cex-ladder",
            params={"ranges": [16]},
            seed=7, out_dir=str(tmp_path / name))
        run_experiment(cfg)
        with open(tmp_path / name / "report.json", "rb") as f:
            outs.append(f.read())
    _verdict("byte-identical report.json across reruns", outs[0] == outs[1])
