import math

import numpy as np
import pytest
from scipy import stats

from jumplab import montecarlo as mc
from jumplab.models import (
    KILLED,
    LadderKernel,
    LatticeModel,
    PolynomialKernel,
    SuppressedPairKernel,
    shell_count,
    shell_tail_sum,
    truncate,
)
from jumplab.semigroup import expected_exit_time, heat_kernel


@pytest.fixture
def sampler(z1):
    return mc.TrajectorySampler(z1, seed=42)


def test_seed_determinism(z1):
    a = mc.sample_exit_time(mc.TrajectorySampler(z1, seed=9), (0,), (0,), 8, 500)
    b = mc.sample_exit_time(mc.TrajectorySampler(z1, seed=9), (0,), (0,), 8, 500)
    assert a.estimate == b.estimate and a.se == b.se


def test_single_vertex_exponential(sampler, z1):
    rep = mc.sample_exit_time(sampler, (0,), (0,), 0, 10_000)
    q = sampler.total / 1.0
    assert abs(rep.estimate - 1.0 / q) <= 3 * rep.se


def test_exit_time_matches_solver(sampler, z1):
    fm = truncate(z1, (0,), 16, KILLED)
    want = float(expected_exit_time(fm)[fm.index[(0,)]])
    rep = mc.sample_exit_time(sampler, (0,), (0,), 16, 10_000)
    assert abs(rep.estimate - want) <= 3 * rep.se


def test_exit_time_monotone(sampler):
    small = mc.sample_exit_time(sampler, (0,), (0,), 8, 4000)
    large = mc.sample_exit_time(sampler, (0,), (0,), 32, 4000)
    assert large.estimate - small.estimate > 3 * math.hypot(small.se, large.se)


def test_shell_chi_square(z1, sampler):
    n = 1_000_000
    rng = np.random.default_rng(1)
    disp = sampler._directions(
        sampler._sample_radii(rng.random(n) * sampler.total), rng)
    r = np.abs(disp[:, 0])
    obs = np.array([(r == k).sum() for k in range(1, 17)], dtype=float)
    expect = np.array([2.0 * k ** -2.0 for k in range(1, 17)]) / sampler.total * n
    tail_o, tail_e = n - obs.sum(), n - expect.sum()
    chi2 = float(((obs - expect) ** 2 / expect).sum()
                 + (tail_o - tail_e) ** 2 / tail_e)
    assert stats.chi2.sf(chi2, 16) > 1e-3


@pytest.mark.parametrize("metric,npts", [("linf", 16), ("l1", 8)])
def test_d2_shell_uniformity(metric, npts):
    m = LatticeModel(d=2, metric=metric, kernel=PolynomialKernel(1.0))
    s = mc.TrajectorySampler(m, seed=5)
    rng = np.random.default_rng(2)
    n = 160_000
    pts = s._directions(np.full(n, 2, dtype=np.int64), rng)
    dist = np.abs(pts).max(axis=1) if metric == "linf" else np.abs(pts).sum(axis=1)
    assert (dist == 2).all()
    assert shell_count(2, metric, 2) == npts
    _, counts = np.unique(pts, axis=0, return_counts=True)
    assert len(counts) == npts
    chi2 = float(((counts - n / npts) ** 2 / (n / npts)).sum())
    assert stats.chi2.sf(chi2, npts - 1) > 1e-3


def test_occupation_matches_heat_kernel(z1, sampler):
    n = 100_000
    fm = truncate(z1, (0,), 60, KILLED)
    for t in (0.5, 2.0):
        counts = mc.sample_occupation(sampler, (0,), t, n)
        hk = heat_kernel(fm, (0,), t)
        for y in [(-2,), (0,), (1,), (5,)]:
            p = float(hk.values[fm.index[y]])  # mu = 1
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(y, 0) / n - p) <= 4 * se


def test_hit_before_exit_trivial(sampler):
    rep = mc.hit_before_exit(sampler, (3,), (3,), (0,), 8, 50)
    assert rep.estimate == 1.0


def absorbing_oracle(model, x, y, x0, R):
    """P^x(T_y <= tau_B) by a linear solve on the embedded jump chain."""
    ball = model.ball(x0, R)
    states = [v for v in ball if v != y]
    idx = {v: i for i, v in enumerate(states)}
    n = len(states)
    P = np.zeros((n, n))
    b = np.zeros(n)
    for i, v in enumerate(states):
        total, _ = model.row_sum_all(v)
        for w in ball:
            jw = model.J(v, w) / total
            if w == y:
                b[i] += jw
            elif w != v:
                P[i, idx[w]] += jw
    h = np.linalg.solve(np.eye(n) - P, b)
    return float(h[idx[x]])


def test_hit_before_exit_matches_absorbing_solve(z1, sampler):
    want = absorbing_oracle(z1, (3,), (0,), (0,), 6)
    rep = mc.hit_before_exit(sampler, (3,), (0,), (0,), 6, 20_000)
    assert abs(rep.estimate - want) <= 3 * rep.se


def test_hit_before_exit_ladder_uniform_lower_bound():
    for R in (16, 64):
        m = LatticeModel(d=1, kernel=LadderKernel(alpha=1.5, ranges=(16, 64)))
        s = mc.TrajectorySampler(m, seed=7)
        rep = mc.hit_before_exit(s, (R // 4,), (0,), (0,), R, 3000)
        assert rep.estimate - 3 * rep.se > 0.1


def test_suppressed_pair_never_jumps(z1):
    m = LatticeModel(d=1, kernel=SuppressedPairKernel(
        base=PolynomialKernel(1.0), x0=(0,), y0=(8,)))
    s = mc.TrajectorySampler(m, seed=3)
    rng = np.random.default_rng(0)
    pos = np.zeros((100_000, 1), dtype=np.int64)
    new = s._jump(pos, rng)
    assert not np.any(new[:, 0] == 8)
    # row sum at the suppressed endpoint is reduced by exactly J(0,8)
    q = s._row_sum(np.array([[0], [1]]))
    assert q[0] == pytest.approx(s.total - 8.0 ** -2, abs=1e-14)
    assert q[1] == pytest.approx(s.total, abs=1e-14)


@pytest.mark.parametrize("d, metric, kernel, y0", [
    (1, "linf", PolynomialKernel(1.0), (3,)),
    (1, "l1", PolynomialKernel(1.5), (5,)),
    (2, "linf", PolynomialKernel(0.8), (3, 1)),
    (2, "l1", PolynomialKernel(1.0), (2, -1)),
    (1, "linf", LadderKernel(alpha=1.5, ranges=(16, 64, 256)), (64,)),
])
def test_sampler_tables_bitwise_equal_explicit_formulas(d, metric, kernel, y0):
    """The jump law's shell table, total and suppressed row sums, against the
    formulas written out per kernel class."""
    ladder = isinstance(kernel, LadderKernel)
    expo = 1.0 + kernel.alpha if ladder else d + kernel.alpha
    s = np.arange(1, mc.SHELL_HORIZON + 1, dtype=float)
    counts = np.array([shell_count(d, metric, int(r))
                       for r in range(1, mc.SHELL_HORIZON + 1)], dtype=float)
    weights = counts * s ** (-expo)
    for r in (kernel.ranges if ladder else ()):
        weights[r - 1] += counts[r - 1] * (math.log(r) * r ** (-1.0 - kernel.alpha))
    cum = np.cumsum(weights)
    total = float(cum[-1] + shell_tail_sum(d, metric, expo, mc.SHELL_HORIZON + 1))
    gap = max(abs(c) for c in y0) if metric == "linf" else sum(abs(c) for c in y0)
    pair = float(gap) ** (-expo)
    if ladder and gap in kernel.ranges:
        pair += math.log(gap) * gap ** (-1.0 - kernel.alpha)

    x0 = (0,) * d
    plain = mc.TrajectorySampler(LatticeModel(d=d, metric=metric, kernel=kernel), 0)
    supp = mc.TrajectorySampler(LatticeModel(
        d=d, metric=metric, kernel=SuppressedPairKernel(kernel, x0, y0)), 0)
    for sampler in (plain, supp):
        assert sampler.total == total
        assert np.array_equal(sampler.cum[:300], cum[:300])
    q = supp._row_sum(np.array([x0, y0, (7,) * d]))
    assert q[0] == total - pair and q[1] == total - pair and q[2] == total


def test_position_sup_bounds_and_t0():
    rep = mc.sample_position_sup(64, 1.5, T=64.0 ** 1.5 / 4, n=20_000, seed=11)
    assert rep.extra["doob_ok"] and rep.extra["cheb_ok"]
    tiny = mc.sample_position_sup(64, 1.5, T=1e-6, n=2_000, seed=11)
    assert tiny.estimate == 0.0


def test_unsupported_dimensions():
    m = LatticeModel(d=3, kernel=PolynomialKernel(1.0))
    with pytest.raises(NotImplementedError):
        mc.TrajectorySampler(m, seed=0)
