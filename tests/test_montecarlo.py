import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from jumplab import montecarlo as mc
from jumplab.errors import DivergentTail, NumericalFailure, TruncationBudgetExceeded
from jumplab.models import (
    KILLED,
    LadderKernel,
    LatticeModel,
    MuAlternating,
    PolynomialKernel,
    SHELL_HORIZON,
    SuppressedPairKernel,
    shell_counts,
    shell_tail_sum,
    truncate,
)
from jumplab.semigroup import expected_exit_time, heat_kernel
from oracles import SplitMix64, mix64, sample_occupation, unmix64


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
    disp = sampler._displacements(n, np.random.default_rng(1))
    r = np.abs(disp[:, 0])
    obs = np.array([(r == k).sum() for k in range(1, 17)], dtype=float)
    expect = np.array([2.0 * k ** -2.0 for k in range(1, 17)]) / sampler.total * n
    tail_o, tail_e = n - obs.sum(), n - expect.sum()
    chi2 = float(((obs - expect) ** 2 / expect).sum()
                 + (tail_o - tail_e) ** 2 / tail_e)
    assert stats.chi2.sf(chi2, 16) > 1e-3


def test_sign_balance_on_z():
    """On Z the step's sign is the top half of its uniform: each sign has
    probability 1/2 on every shell, so the two signs of one radius are
    binomially balanced, and the radius law is the same on both sides."""
    s = mc.TrajectorySampler(LatticeModel(d=1, kernel=LadderKernel(
        alpha=1.5, ranges=(16, 64, 256))), seed=0)
    steps = s._displacements(1_000_000, np.random.default_rng(3))[:, 0]
    groups = [np.abs(steps) == r for r in (1, 2, 3, 16, 64, 256)]
    groups += [(np.abs(steps) > 3) & ~np.isin(np.abs(steps), (16, 64, 256)),
               np.ones(len(steps), dtype=bool)]
    for mask in groups:
        up = int(np.count_nonzero(steps[mask] > 0))
        assert stats.binomtest(up, int(mask.sum()), 0.5).pvalue > 1e-3
    # the radii drawn for each sign agree in law (two-sample chi-square)
    radii = np.minimum(np.abs(steps), 17)
    table = [np.bincount(radii[steps > 0], minlength=18)[1:],
             np.bincount(radii[steps < 0], minlength=18)[1:]]
    assert stats.chi2_contingency(table).pvalue > 1e-3


@pytest.mark.parametrize("metric,npts", [("linf", 16), ("l1", 8)])
def test_d2_shell_uniformity(metric, npts):
    m = LatticeModel(d=2, metric=metric, kernel=PolynomialKernel(1.0))
    s = mc.TrajectorySampler(m, seed=5)
    draws = 1_050_000
    pts = s._displacements(draws, np.random.default_rng(2))
    # the helper's radii come from its first `draws` uniforms: every point
    # lies exactly on the shell it was drawn for
    radii = s.radii(np.random.default_rng(2).random(draws) * s.total)
    assert (m.norm(pts) == radii).all()
    pts = pts[radii == 2]  # the radius-2 shell of the jump law
    n = len(pts)
    assert n > 150_000
    assert shell_counts(2, metric, 2) == npts
    _, counts = np.unique(pts, axis=0, return_counts=True)
    assert len(counts) == npts
    chi2 = float(((counts - n / npts) ** 2 / (n / npts)).sum())
    assert stats.chi2.sf(chi2, npts - 1) > 1e-3


@pytest.mark.parametrize("metric", ["linf", "l1"])
def test_d2_directions_biject_onto_shell(metric):
    """For each radius s = 1..64, the uniforms (k + 1/2) / count over every
    k < count = `shell_counts` give count distinct points of the shell, so
    each shell point has the same share of [0, 1)."""
    m = LatticeModel(d=2, metric=metric, kernel=PolynomialKernel(1.0))
    s = mc.TrajectorySampler(m, seed=0)
    for r in range(1, 65):
        count = int(shell_counts(2, metric, r))
        u = (np.arange(count) + 0.5) / count
        pts = s._directions(np.full(count, r), ForcedUniforms(u, 0))
        assert (m.norm(pts) == r).all()
        assert len(np.unique(pts, axis=0)) == count


def test_occupation_matches_heat_kernel(z1, sampler):
    n = 100_000
    fm = truncate(z1, (0,), 60, KILLED)
    for t in (0.5, 2.0):
        counts = sample_occupation(sampler, (0,), t, n)
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
    # the helper draws the unsuppressed law; the cut marks exactly the
    # draws from 0 that land on 8
    draws = s._displacements(100_000, np.random.default_rng(0))
    assert np.count_nonzero(draws[:, 0] == 8) > 100
    assert np.array_equal(s._forbidden(np.zeros_like(draws), draws), draws[:, 0] == 8)
    # so no walker's first accepted jump from 0 is to 8
    _, first, _, _ = mc._walk(s, (0,), 100_000,
                              lambda post, t: post[..., 0] != 0, timed=False)
    assert len(first) == 100_000 and not np.any(first[:, 0] == 8)
    # row sum at the suppressed endpoint is reduced by exactly J(0,8)
    q, _ = m.row_sums_all(np.array([[0], [1]]))
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
    """The jump law's shell table, the closed-form total and suppressed row
    sums, against the formulas written out per kernel class."""
    ladder = isinstance(kernel, LadderKernel)
    expo = 1.0 + kernel.alpha if ladder else d + kernel.alpha
    s = np.arange(1, SHELL_HORIZON + 1, dtype=float)
    # shell sizes: 2 on Z, 8s (linf) and 4s (l1) on Z^2
    counts = np.full(SHELL_HORIZON, 2.0) if d == 1 else {"linf": 8, "l1": 4}[metric] * s
    weights = counts * s ** (-expo)
    for r in (kernel.ranges if ladder else ()):
        weights[r - 1] += counts[r - 1] * (math.log(r) * r ** (-1.0 - kernel.alpha))
    cum = np.cumsum(weights)
    # J(x, G) in closed form: the power law over every shell, then the atoms
    total = shell_tail_sum(d, metric, expo, 1)
    for r in (kernel.ranges if ladder else ()):
        total += counts[r - 1] * (math.log(r) * r ** (-1.0 - kernel.alpha))
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
    q, _ = supp.model.row_sums_all(np.array([x0, y0, (7,) * d]))
    assert q[0] == total - pair and q[1] == total - pair and q[2] == total


@pytest.mark.parametrize("d, metric, kernel, y0", [
    (1, "linf", PolynomialKernel(1.0), (3,)),
    (1, "l1", PolynomialKernel(1.5), (5,)),
    (2, "linf", PolynomialKernel(0.8), (3, 1)),
    (2, "l1", PolynomialKernel(1.0), (2, -1)),
    (1, "linf", LadderKernel(alpha=1.5, ranges=(16, 64, 256)), (64,)),
])
def test_row_sum_is_the_sampler_total(d, metric, kernel, y0):
    """J(x, G) has one owner: the row sum of a vertex off the suppressed pair
    is the jump law's total, bit for bit."""
    for m in (LatticeModel(d=d, metric=metric, kernel=kernel),
              LatticeModel(d=d, metric=metric,
                           kernel=SuppressedPairKernel(kernel, (0,) * d, y0))):
        assert m.row_sum_all((7,) * d)[0] == mc.TrajectorySampler(m, 0).total


def test_sup_moments_match_path_enumeration():
    """m2(N) = E max_{k<=N} S_k^2 over all 2^N sign paths, N <= 10."""
    m2 = mc._sup_moments(10)
    for N in range(11):
        paths = np.array(list(itertools.product((-1, 1), repeat=N)),
                         dtype=np.int64).reshape(2 ** N, N)
        peak = np.abs(np.cumsum(paths, axis=1)).max(axis=1, initial=0)
        assert m2[N] == np.mean(peak.astype(float) ** 2)


@pytest.mark.parametrize("R, e_y2, p_lam", [
    (16, 22.64114990717593, 0.08299595679532878),
    (64, 134.14797456894493, 0.031969103253852826),
    (256, 711.6941693857378, 0.010771986806024536),
])
def test_position_sup_exact_values(R, e_y2, p_lam):
    """The ladder's running-sup values at T = R^alpha / 4, alpha = 1.5; the
    seed-free values replace the seed-R Monte Carlo estimates
    23.155 +- 0.587, 130.253 +- 5.371 and 616.038 +- 44.719."""
    rep = mc.sample_position_sup(R, 1.5, T=float(R) ** 1.5 / 4)
    assert rep.estimate == rep.extra["E_Y2"]
    assert rep.estimate == pytest.approx(e_y2, rel=1e-12, abs=0)
    assert rep.extra["P_ge_lam"] == pytest.approx(p_lam, rel=1e-12, abs=0)
    assert 0 < rep.extra["E_Y2_tail"] <= 1e-12 * rep.estimate
    assert rep.extra["doob_ok"] and rep.extra["cheb_ok"]
    assert (rep.se, rep.n, rep.seed, rep.truncated) == (0.0, 0, None, 0)


@pytest.mark.parametrize("r1, T", [(1, 5.0), (64, 0.0)], ids=["delta0", "T0"])
def test_position_sup_without_jumps_is_zero(r1, T):
    """No jump (delta = log 1 = 0, or T = 0) gives Y_T = 0."""
    rep = mc.sample_position_sup(r1, 1.5, T=T)
    assert rep.estimate == rep.extra["P_ge_lam"] == rep.extra["E_Y2_tail"] == 0.0
    assert rep.extra["doob_ok"] and rep.extra["cheb_ok"]


@pytest.mark.parametrize("ell", [0.0866, 1.0, 5.0])
def test_sup_sum_tail_bound_holds(ell):
    """The sum cut after K terms, plus its stated tail bound, brackets the
    sum to K = 80, for every K >= 2 whose bound is above rounding."""
    full, _ = mc._sup_sum(ell, 80)
    for K in range(2, 80):
        part, tail = mc._sup_sum(ell, K)
        if tail < 1e-12 * full:
            break
        assert part <= full <= part + tail
    assert K > 5


def test_position_sup_refuses_negative_time():
    with pytest.raises(ValueError, match="need T >= 0, got -0.001"):
        mc.sample_position_sup(16, 1.5, T=-1e-3)


def test_position_sup_term_cap_raises_before_allocating():
    """A jump count whose Poisson cutoff passes SUP_TERM_CAP is refused
    before its table or the running-max array exists."""
    T = 1e7  # ell = 2 delta T is about 5.4e4 at r1 = 16
    tracemalloc.start()
    try:
        with pytest.raises(TruncationBudgetExceeded):
            mc.sample_position_sup(16, 1.5, T=T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_unsupported_dimensions():
    m = LatticeModel(d=3, kernel=PolynomialKernel(1.0))
    with pytest.raises(NotImplementedError):
        mc.TrajectorySampler(m, seed=0)


# -- per-walker reference loops ---------------------------------------------
#
# Reference implementations of the block driver: the same draws through the
# same displacement helper and block schedule, then each walker's path is
# scanned jump by jump in plain Python for its first event (the STEP_CAP-th
# jump done, a suppressed-pair jump, or the estimand's stop).  The driver must
# reach the same events, so its results are compared with ==.

def tail_radius(sampler, u):
    """Smallest s with cumulative weight through s >= u, beyond the horizon,
    by doubling and then bisection on the zeta tail."""
    m = sampler.model

    def cum_through(s):
        return sampler.total - shell_tail_sum(
            m.d, m.metric, m.base_kernel.exponent(m.d), s + 1)
    lo, hi = SHELL_HORIZON, 2 * SHELL_HORIZON
    while cum_through(hi) < u:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cum_through(mid) >= u:
            hi = mid
        else:
            lo = mid
    return hi


def dist(model, a, b):
    gaps = [abs(p - q) for p, q in zip(a, b)]
    return max(gaps) if model.metric == "linf" else sum(gaps)


class LoopWalk:
    """One walk of n walkers from x, event by event; `cuts` counts the
    suppressed-pair jumps that were thrown away."""

    def __init__(self, sampler, x, n, stop, timed):
        self.cuts = 0
        model, d = sampler.model, sampler.model.d
        x = tuple(int(c) for c in x)
        if stop(x, x, 0.0):
            self.ends, self.truncated = [(x, x, 0.0)] * n, 0
            return
        pair = model.pair
        forbidden = set() if pair is None else {(pair[0], pair[1]), (pair[1], pair[0])}
        self.truncated = 0
        # one generator for every walker, seeded as the driver's
        rng = mc.SplitMix64(sampler.seed)
        walkers = [[x, 0.0, 0] for _ in range(n)]  # position, clock, jumps
        ends = [None] * n
        live = list(range(n))
        k = 1
        while live:
            m = len(live)
            k = min(2 * k, max(1, mc.DRAW_BUDGET // m))
            jumps = sampler._displacements(m * k, rng).reshape(m, k, d).tolist()
            if timed:
                expo = rng.standard_exponential(m * k).reshape(m, k).tolist()
            still = []
            for row, w in enumerate(live):
                pos, clock, steps = walkers[w]
                run, last_t, done = 0.0, clock, False
                for j in range(k):
                    if steps + j >= mc.STEP_CAP:
                        self.truncated += 1
                        done = True
                        break
                    new = tuple(p + q for p, q in zip(pos, jumps[row][j]))
                    t = None
                    if timed:
                        rate = model.row_sum_all(pos)[0] / model.mu_rule(pos)
                        run += expo[row][j] / rate
                        t = clock + run
                    if (pos, new) in forbidden:
                        self.cuts += 1
                        steps += j
                        break
                    if stop(pos, new, t):
                        ends[w] = (pos, new, t)
                        done = True
                        break
                    pos, last_t = new, t if timed else clock
                else:
                    steps += k
                if not done:
                    walkers[w] = [pos, last_t, steps]
                    still.append(w)
            live = still
        self.ends = [e for e in ends if e is not None]


def mask_exit_time(sampler, x, x0, R, n):
    walk = LoopWalk(sampler, x, n,
                    lambda pre, post, t: dist(sampler.model, post, x0) > R, True)
    return mc._finish("exit_time", [t for _, _, t in walk.ends], walk.truncated,
                      sampler.seed, {"x": list(x), "x0": list(x0), "R": R})


def mask_hit_before_exit(sampler, x, y, x0, R, n):
    y = tuple(y)
    walk = LoopWalk(sampler, x, n, lambda pre, post, t: post == y or
                    dist(sampler.model, post, x0) > R, False)
    hits = [float(post == y) for _, post, _ in walk.ends]
    return mc._finish("hit_before_exit", hits, walk.truncated, sampler.seed,
                      {"x": list(x), "y": list(y), "x0": list(x0), "R": R}), walk


def mask_occupation(sampler, x, t, n):
    walk = LoopWalk(sampler, x, n, lambda pre, post, clock: clock > t, True)
    counts = {}
    for pre, _, _ in walk.ends:
        counts[pre] = counts.get(pre, 0) + 1
    return counts


def _same_report(a, b):
    assert a.to_dict() == b.to_dict()  # estimate, se, n, truncated, extra


def _suppressed(base, d, metric, y0, **kw):
    return LatticeModel(d=d, metric=metric, kernel=SuppressedPairKernel(
        base=base, x0=(0,) * d, y0=y0), **kw)


# (model, walker start x, target y, ball radius R): the suppressed pairs sit
# next to the origin, where the walkers start, so the pair cut happens.
COMPACT_CASES = {
    "z1": (LatticeModel(d=1, kernel=PolynomialKernel(1.0)), (3,), (0,), 6),
    "z1-mu": (LatticeModel(d=1, kernel=PolynomialKernel(0.8),
                           mu_rule=MuAlternating(1.0, 2.5)), (2,), (-1,), 5),
    "z1-pair": (_suppressed(PolynomialKernel(1.0), 1, "linf", (1,)),
                (1,), (0,), 6),
    "z2-linf": (LatticeModel(d=2, kernel=PolynomialKernel(1.0)),
                (2, 1), (0, 0), 4),
    "z2-l1": (LatticeModel(d=2, metric="l1", kernel=PolynomialKernel(1.2)),
              (2, -1), (0, 0), 4),
    "z2-linf-pair": (_suppressed(PolynomialKernel(1.0), 2, "linf", (1, 0)),
                     (1, 0), (0, 0), 3),
    "z2-l1-pair": (_suppressed(PolynomialKernel(1.0), 2, "l1", (0, 1)),
                   (0, 1), (0, 0), 3),
}


@pytest.mark.parametrize("case", sorted(COMPACT_CASES))
def test_compact_loops_equal_mask_loops(case):
    model, x, y, R = COMPACT_CASES[case]
    x0 = (0,) * model.d
    s = mc.TrajectorySampler(model, seed=17)
    got = mc.hit_before_exit(s, x, y, x0, R, 600)
    want, walk = mask_hit_before_exit(s, x, y, x0, R, 600)
    _same_report(got, want)
    if model.pair is not None:
        assert walk.cuts > 0
    _same_report(mc.sample_exit_time(s, x0, x0, R, 600),
                 mask_exit_time(s, x0, x0, R, 600))
    for t in (0.3, 2.0):
        got = sample_occupation(s, x0, t, 600)
        want = mask_occupation(s, x0, t, 600)
        assert list(got.items()) == list(want.items())


def test_compact_hit_equals_mask_hit_on_ladder():
    """The cex-ladder estimand at the ladder's own scales."""
    m = LatticeModel(d=1, kernel=LadderKernel(alpha=1.5, ranges=(16, 64, 256)))
    s = mc.TrajectorySampler(m, seed=5)
    for R in (16, 64, 256):
        got = mc.hit_before_exit(s, (R // 4,), (0,), (0,), R, 400)
        _same_report(got, mask_hit_before_exit(s, (R // 4,), (0,), (0,), R, 400)[0])


@pytest.mark.parametrize("case", ["z1", "z1-mu", "z1-pair", "z2-l1-pair",
                                  "z2-linf-pair"])
def test_compact_loops_equal_mask_loops_at_step_cap(monkeypatch, case):
    """With STEP_CAP = 3 the cap falls inside the second block (2 + 4
    jumps): a walker without an event after 3 accepted jumps is truncated,
    as in the per-walker loop."""
    model, x, y, R = COMPACT_CASES[case]
    x0 = (0,) * model.d
    s = mc.TrajectorySampler(model, seed=4)
    monkeypatch.setattr(mc, "STEP_CAP", 3)
    got = mc.hit_before_exit(s, x, y, x0, R, 400)
    assert got.truncated > 0
    _same_report(got, mask_hit_before_exit(s, x, y, x0, R, 400)[0])
    got = mc.sample_exit_time(s, x0, x0, R, 400)
    assert got.truncated > 0
    _same_report(got, mask_exit_time(s, x0, x0, R, 400))


class UnitSteps:
    """A displacement helper whose every jump is +1 on Z."""

    def __init__(self):
        self.drawn = []

    def __call__(self, n, rng):
        self.drawn.append(n)
        return np.ones((n, 1), dtype=np.int64)


@pytest.mark.parametrize("cap", [3, 4, 5])
def test_step_cap_is_exact_mid_block(monkeypatch, cap):
    """Blocks of 2 then 4 jumps put the cap inside the second block: a walker
    may make its cap-th jump and never a further one."""
    monkeypatch.setattr(mc, "STEP_CAP", cap)
    s = mc.TrajectorySampler(LatticeModel(d=1, kernel=PolynomialKernel(1.0)), 0)
    steps = UnitSteps()
    monkeypatch.setattr(s, "_displacements", steps)
    rep = mc.hit_before_exit(s, (0,), (cap,), (0,), 100, 16)
    assert (rep.estimate, rep.truncated, rep.n) == (1.0, 0, 16)
    assert steps.drawn[:2] == [16 * 2, 16 * 4]  # 16 walkers, one generator
    with pytest.raises(ValueError, match="step cap"):
        mc.hit_before_exit(s, (0,), (cap + 1,), (0,), 100, 16)
    _, _, _, truncated = mc._walk(
        s, (0,), 16, lambda post, t: post[..., 0] > cap, timed=True)
    assert truncated == 16


def test_occupation_refuses_truncated_paths(monkeypatch):
    """A path cut at STEP_CAP before t raises instead of leaving the law."""
    monkeypatch.setattr(mc, "STEP_CAP", 3)
    s = mc.TrajectorySampler(LatticeModel(d=1, kernel=PolynomialKernel(1.0)), 0)
    monkeypatch.setattr(s, "_displacements", UnitSteps())
    with pytest.raises(ValueError, match="16 of 16 paths hit the step cap"):
        sample_occupation(s, (0,), 1e9, 16)


def test_start_outside_ball_hit(z1, sampler):
    """tau_B = 0 from outside B, so P^x(T_y <= tau_B) = 1{x = y}."""
    away = mc.hit_before_exit(sampler, (10,), (0,), (0,), 4, 500)
    assert (away.estimate, away.se, away.n) == (0.0, 0.0, 500)
    there = mc.hit_before_exit(sampler, (10,), (10,), (0,), 4, 500)
    assert (there.estimate, there.se) == (1.0, 0.0)


def test_start_outside_ball_exit_time(z1, sampler):
    rep = mc.sample_exit_time(sampler, (10,), (0,), 4, 500)
    assert (rep.estimate, rep.se, rep.n, rep.truncated) == (0.0, 0.0, 500, 0)
    z2 = mc.TrajectorySampler(LatticeModel(d=2, metric="l1",
                                           kernel=PolynomialKernel(1.0)), 3)
    assert mc.sample_exit_time(z2, (3, 2), (0, 0), 4, 50).estimate == 0.0


# -- exact laws: the driver against linear solves -----------------------------

LADDER = LatticeModel(d=1, kernel=LadderKernel(alpha=1.5, ranges=(16, 64, 256)))
HIT_LAWS = {
    "z1-pair": COMPACT_CASES["z1-pair"],
    "z2-linf-pair": COMPACT_CASES["z2-linf-pair"],
    "z2-l1-pair": COMPACT_CASES["z2-l1-pair"],
    "ladder-16": (LADDER, (4,), (0,), 16),
    "ladder-64": (LADDER, (16,), (0,), 64),
}


@pytest.mark.parametrize("case", sorted(HIT_LAWS))
def test_hit_law_matches_absorbing_oracle(case):
    model, x, y, R = HIT_LAWS[case]
    x0 = (0,) * model.d
    want = absorbing_oracle(model, x, y, x0, R)
    rep = mc.hit_before_exit(mc.TrajectorySampler(model, seed=23), x, y, x0, R, 20_000)
    assert abs(rep.estimate - want) <= 4 * rep.se


@pytest.mark.parametrize("model", [
    LatticeModel(d=1, kernel=PolynomialKernel(1.0), mu_rule=MuAlternating(1.0, 2.5)),
    _suppressed(PolynomialKernel(1.0), 1, "linf", (2,)),
    _suppressed(PolynomialKernel(1.0), 2, "l1", (0, 1),
                mu_rule=MuAlternating(0.5, 1.5)),
], ids=["z1-mu", "z1-pair", "z2-l1-pair-mu"])
def test_exit_time_law_matches_solver(model):
    x0 = (0,) * model.d
    R = 6 if model.d == 1 else 3
    fm = truncate(model, x0, R, KILLED)
    want = float(expected_exit_time(fm)[fm.index[x0]])
    rep = mc.sample_exit_time(mc.TrajectorySampler(model, seed=29), x0, x0, R, 20_000)
    assert rep.truncated == 0
    assert abs(rep.estimate - want) <= 4 * rep.se


def test_hit_law_pooled_over_seeds():
    """Eight seeds of the suppressed pair on Z^2: the mean z-score has standard
    deviation 1/sqrt(8), so a bias of half a standard error shows."""
    model, x, y, R = COMPACT_CASES["z2-l1-pair"]
    want = absorbing_oracle(model, x, y, (0, 0), R)
    zs = []
    for seed in range(8):
        rep = mc.hit_before_exit(mc.TrajectorySampler(model, seed), x, y, (0, 0), R, 8000)
        zs.append((rep.estimate - want) / rep.se)
    assert abs(np.mean(zs)) <= 1.5


class ForcedUniforms:
    """A generator whose first uniforms are given; the other draws are real."""

    def __init__(self, u, seed):
        self.u = np.array(u, dtype=float)  # a copy: the draws are scaled in place
        self.rng = np.random.default_rng(seed)

    def random(self, m):
        if self.u is None:
            return self.rng.random(m)
        assert m == len(self.u)
        u, self.u = self.u, None
        return u


@pytest.mark.parametrize("kernel", [
    PolynomialKernel(1.0), LadderKernel(alpha=1.5, ranges=(16, 64, 256))])
def test_jump_tail_radius_on_z(kernel):
    """Uniforms in the analytic tail beyond SHELL_HORIZON go through the
    sampler's tail bisection, and agree with the table search and the
    reference bisection."""
    s = mc.TrajectorySampler(LatticeModel(d=1, kernel=kernel), seed=0)
    head = s.cum[-1] / s.total
    u = np.array([0.25, head + (1 - head) / 3, 0.999, 1 - (1 - head) / 7])
    u = np.concatenate([u / 2, 0.5 + u / 2])  # positive steps, then negative
    got = s._displacements(8, ForcedUniforms(u, 8))[:, 0]
    v = u * (2 * s.total)
    neg = v >= s.total
    v = np.where(neg, v - s.total, v)
    want = np.searchsorted(s.cum, v, side="right") + 1
    want = [tail_radius(s, float(w)) if r > SHELL_HORIZON else r
            for r, w in zip(want, v)]
    assert got.tolist() == np.where(neg, -np.array(want), want).tolist()
    assert neg.tolist() == [False] * 4 + [True] * 4
    assert (np.abs(got) > SHELL_HORIZON).tolist() == [False, True, False, True] * 2


def table_radii(sampler, w):
    """The table search's radii: searchsorted up to the horizon, the
    reference bisection beyond it."""
    r = sampler.cum.searchsorted(w, side="right") + 1
    return [tail_radius(sampler, float(x)) if ri > SHELL_HORIZON else int(ri)
            for ri, x in zip(r, w)]


# on Z the two metrics give one table
GUIDED = {f"z{d}-{metric}-{a}": (d, metric, PolynomialKernel(a))
          for d, metric in ((1, "linf"), (2, "linf"), (2, "l1"))
          for a in (0.8, 1.0, 1.9)}
GUIDED["z1-ladder"] = (1, "linf", LadderKernel(alpha=1.5, ranges=(16, 64, 256)))
# a tail of about 3 % of the mass, so whole buckets lie past the horizon
GUIDED["z1-linf-0.3"] = (1, "linf", PolynomialKernel(0.3))


@pytest.mark.parametrize("d, metric, kernel", GUIDED.values(), ids=GUIDED.keys())
def test_draw_table_holds_steps_shared_by_both_edges(d, metric, kernel):
    """A draw-table bucket holds a step exactly where the table search
    gives that signed step at both of its edges, as the walker rounds them
    (a draw lies between the two); every other bucket, those with a step
    past the horizon among them, is 0 and goes to the full search.  So no
    bucket is left out for a margin around it."""
    s = mc.TrajectorySampler(LatticeModel(d=d, metric=metric, kernel=kernel), 0)
    total, g = s.total, mc.GUIDE_BUCKETS
    halves = 2 if d == 1 else 1
    assert len(s._table) == halves * g
    e = np.arange(halves * g + 1) * (total / g)
    neg = e >= total
    r = s.cum.searchsorted(np.where(neg, e - total, e), side="right") + 1
    step = np.where(r > SHELL_HORIZON, 0, np.where(neg, -r, r))  # 0: past the table
    lo, hi = step[:-1], step[1:]
    held = s._table != 0
    assert (s._table[held] == lo[held]).all() and (s._table[held] == hi[held]).all()
    assert ((lo != hi) | (lo == 0))[~held].all()


@pytest.mark.parametrize("d, metric, kernel", GUIDED.values(), ids=GUIDED.keys())
def test_guided_radii_equal_table_search(d, metric, kernel):
    """The drawn radii equal the table search's, bit for bit, at every
    bucket edge and every shell boundary a bucket can lie within, their
    neighbours, the extreme draws and draws in the analytic tail.  On Z a
    draw spans [0, 2 total) and the points recur past total for the
    negative steps: the signed table's bucket edges, and the sign boundary
    itself."""
    model = LatticeModel(d=d, metric=metric, kernel=kernel)
    s = mc.TrajectorySampler(model, seed=0)
    cum, total, g = s.cum, s.total, mc.GUIDE_BUCKETS
    # the mass past the horizon
    tail = shell_tail_sum(d, metric, kernel.exponent(d), SHELL_HORIZON + 1)
    # the first G + 1 shells, and on to the last one that outweighs half a
    # bucket, so could hold a whole one
    heavy = np.flatnonzero(np.diff(cum, prepend=0.0) > total / (2 * g))
    last = max(g, int(heavy[-1])) + 1
    halves = 2 if d == 1 else 1
    span = halves * total  # a draw is u * span
    shells = np.concatenate([cum[:last + 1],  # then the horizon and the tail
                             [cum[-1], cum[-1] + tail / 2]])
    v = np.concatenate([np.arange(halves * g + 1) * (total / g),
                        *(h * total + shells for h in range(halves))])
    v = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])
    # u = v / span lands on v wherever a uniform can (u * span skips some
    # doubles, which are then never drawn)
    u = np.concatenate([v / span, [0.0, 0.5, np.nextafter(0.5, 0), 1 - 2.0 ** -53]])
    u = np.unique(u[(u >= 0) & (u < 1)])
    w = u * span
    assert np.isin(v[v < span], w).mean() > 0.9
    neg = w >= total
    w = np.where(neg, w - total, w)  # exact: Sterbenz
    assert (w > cum[-1]).sum() >= 2 * halves
    assert neg.any() == (d == 1) and (~neg).sum() > g
    want = np.array(table_radii(s, w), dtype=object)
    ok = want <= mc.JUMP_RADIUS_CAP
    pts = s._displacements(int(ok.sum()), ForcedUniforms(u[ok], 8))
    got = pts[:, 0] if d == 1 else model.norm(pts)
    assert got.tolist() == np.where(neg, -want, want)[ok].tolist()
    for f in u[~ok]:  # radii past 2^59: the largest uniforms at alpha < 1
        with pytest.raises(NumericalFailure, match="2\\^59"):
            s._displacements(1, ForcedUniforms([f], 8))
    assert ok.all() == (kernel.alpha >= 1.0)


@pytest.mark.parametrize("d, alpha", [(1, 0.0), (2, -0.5)])
def test_divergent_kernel_refused_before_the_table(d, alpha):
    """A kernel with alpha <= 0 has no finite J(x, G): the sampler raises
    DivergentTail before it builds its 512 KiB shell table."""
    model = LatticeModel(d=d, kernel=PolynomialKernel(alpha))
    tracemalloc.start()
    try:
        with pytest.raises(DivergentTail):
            mc.TrajectorySampler(model, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10


def test_heavy_tail_raises_numerical_failure():
    """Radii past int64 are refused, with the bound and the exponent named,
    instead of overflowing the walker's positions."""
    s = mc.TrajectorySampler(LatticeModel(d=1, kernel=PolynomialKernel(0.1)), 0)
    with pytest.raises(NumericalFailure, match="exponent 1.1"):
        mc.hit_before_exit(s, (0,), (1,), (0,), 8, 200)
    with pytest.raises(NumericalFailure, match="exponent 1.1"):
        mc.sample_exit_time(s, (0,), (0,), 8, 200)


@pytest.mark.parametrize("model, seed, run, estimate, se", [
    (LADDER, 0, lambda s: mc.hit_before_exit(s, (16,), (0,), (0,), 64, 400),
     0.5675, 0.024802162065186362),
    (LatticeModel(d=1, kernel=PolynomialKernel(1.0)), 9,
     lambda s: mc.sample_exit_time(s, (0,), (0,), 8, 500),
     2.8134873816116506, 0.11860075609961268),
    (LatticeModel(d=2, metric="l1", kernel=PolynomialKernel(1.2)), 3,
     lambda s: mc.sample_exit_time(s, (0, 0), (0, 0), 4, 500),
     0.965307983071797, 0.03610067079726405),
], ids=["ladder-hit", "z1-exit", "z2-l1-exit"])
def test_walker_pinned(model, seed, run, estimate, se):
    """Estimates pinned with ==, as the one-generator walk gave them with
    every radius taken from `TrajectorySampler.radii` on the same words, and the
    hold rates from the closed-form J(x, G): the per-walker loops above
    share the displacement helper, so they cannot catch a change in the
    draws themselves."""
    rep = run(mc.TrajectorySampler(model, seed))
    assert (rep.estimate, rep.se, rep.truncated) == (estimate, se, 0)


# -- the generator: SplitMix64 words against the Python-integer oracle --------

def test_oracle_gives_the_published_splitmix64_words():
    """From state 0 the reference SplitMix64 gives these three words."""
    g = SplitMix64(0)
    g.state = 0
    assert g.words(3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                          0x06C45D188009454F]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
def test_words_equal_python_oracle(seed):
    """At one word, a full buffer and past it, and across a run of mixed
    calls that carries the state over, including the uniforms and the
    exponential holds made from the words."""
    budget = mc.DRAW_BUDGET
    for n in (1, budget, budget + 3):
        assert mc.SplitMix64(seed).words(n).tolist() == SplitMix64(seed).words(n)
    got, want = mc.SplitMix64(seed), SplitMix64(seed)
    for n in (1, 5, budget + 3, 2, budget, 7):
        assert got.words(n).tolist() == want.words(n)
    z = np.array([w >> 11 for w in want.words(1000)], dtype=float)
    assert got.random(1000).tolist() == (z * 2.0 ** -53).tolist()
    z = np.array([w >> 11 for w in want.words(1000)], dtype=float)
    assert got.standard_exponential(1000).tolist() == \
        (-np.log((z + 1) * 2.0 ** -53)).tolist()
    assert got.state == want.state


def test_seeding_is_a_bijection_of_64_bit_words():
    """The first state is mix64(seed), which the oracle inverts, so distinct
    seeds never start at one state."""
    rng = np.random.default_rng(0)
    seeds = [0, 1, 2, 2 ** 63, 2 ** 64 - 1] + [int(s) for s in rng.integers(
        0, 2 ** 64, size=2000, dtype=np.uint64)]
    starts = [mc.SplitMix64(s).state for s in seeds[:5]] + \
        [mc._start(s) for s in seeds[5:]]
    assert starts == [mix64(s) for s in seeds]
    assert [unmix64(x) for x in starts] == seeds


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
def test_seed_outside_64_bits_refused(seed):
    model = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    with pytest.raises(ValueError, match="need a seed in \\[0, 2\\^64\\)"):
        mc.TrajectorySampler(model, seed)
    with pytest.raises(ValueError, match="need a seed in"):
        mc.SplitMix64(seed)
    top = mc.TrajectorySampler(model, 2 ** 64 - 1)
    assert mc.hit_before_exit(top, (1,), (0,), (0,), 4, 10).n == 10


def test_walk_wider_than_the_buffer_draws_the_oracle_words(monkeypatch):
    """40,000 walkers start with one jump each, a call past DRAW_BUDGET:
    every word the walk draws, its holds' with them, is the oracle's, and
    the exit time still matches the solver."""
    calls = []
    words = mc.SplitMix64.words

    def spy(self, n):
        z = words(self, n)
        calls.append(z.tolist())
        return z

    monkeypatch.setattr(mc.SplitMix64, "words", spy)
    model = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    rep = mc.sample_exit_time(mc.TrajectorySampler(model, seed=11),
                              (0,), (0,), 2, 40_000)
    assert len(calls[0]) == len(calls[1]) == 40_000 > mc.DRAW_BUDGET
    oracle = SplitMix64(11)
    assert calls == [oracle.words(len(c)) for c in calls]
    fm = truncate(model, (0,), 2, KILLED)
    want = float(expected_exit_time(fm)[fm.index[(0,)]])
    assert abs(rep.estimate - want) <= 4 * rep.se


class GivenWords(mc.SplitMix64):
    """A SplitMix64 whose first words are given; its later ones are its own."""

    def __init__(self, w, seed):
        super().__init__(seed)
        self.w = w

    def words(self, n):
        if self.w is None:
            return super().words(n)
        assert n == len(self.w)
        w, self.w = self.w, None
        return w


@pytest.mark.parametrize("d, metric, kernel", [
    GUIDED["z1-ladder"], GUIDED["z1-linf-1.0"], GUIDED["z2-l1-1.0"]],
    ids=["z1-ladder", "z1-linf-1.0", "z2-l1-1.0"])
def test_word_buckets_equal_the_uniforms_floor(monkeypatch, d, metric, kernel):
    """For 10^6 random words w and the words at both sides of every bucket
    edge, the shifted word's bucket is _table[int(x len)] and each miss
    point u is the product x len (total / G) at x = (w >> 11) 2^-53, bit
    for bit: the word path and the uniform path send the same points to
    `TrajectorySampler.radii` and draw the same radii."""
    s = mc.TrajectorySampler(LatticeModel(d=d, metric=metric, kernel=kernel), 0)
    size = len(s._table)
    edges = np.arange(1, size, dtype=np.uint64) << np.uint64(s._shift)
    w = np.concatenate([np.random.default_rng(4).integers(
        0, 2 ** 64, size=1_000_000, dtype=np.uint64), edges, edges - 1])
    x = (w >> 11) * 2.0 ** -53
    step = s._table[(x * size).astype(np.intp)]
    assert np.array_equal(s._table[w >> s._shift], step)
    points = []
    radii = mc.TrajectorySampler.radii

    def spy(sampler, u):
        points.append(u.copy())
        return radii(sampler, u)

    monkeypatch.setattr(mc.TrajectorySampler, "radii", spy)
    by_word = s._displacements(len(w), GivenWords(w, 1))
    by_uniform = s._displacements(len(w), ForcedUniforms(x, 1))
    miss = step == 0
    assert 0.001 < miss.mean() < 0.05
    u = x[miss] * size * (s.total / mc.GUIDE_BUCKETS)
    neg = u >= s.total
    u = np.where(neg, u - s.total, u)
    for got in points:  # the word path's, then the uniform path's
        assert np.array_equal(got.view(np.uint64), u.view(np.uint64))
    if d == 1:
        assert np.array_equal(by_word, by_uniform)
    else:  # the directions draw on; the radii are the same
        assert np.array_equal(s.model.norm(by_word), s.model.norm(by_uniform))


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
def test_uniforms_and_holds_pass_their_laws(seed):
    """Fixed seeds, 10^6 draws each.  Uniforms over 256 equal buckets pass
    chi-square (p > 1e-3); their lag-1 correlation is within 4 / sqrt(n)
    of 0.  Holds have mean within 4 / sqrt(n) of 1 and variance within
    4 sqrt(8 / n) of 1 (an Exp(1) square has variance 8)."""
    n = 1_000_000
    g = mc.SplitMix64(seed)
    x = g.random(n)
    counts = np.bincount((x * 256).astype(np.intp), minlength=256)
    assert stats.chisquare(counts).pvalue > 1e-3
    assert abs(np.corrcoef(x[:-1], x[1:])[0, 1]) <= 4 / math.sqrt(n)
    e = g.standard_exponential(n)
    assert e.min() >= 0.0
    assert abs(e.mean() - 1.0) <= 4 / math.sqrt(n)
    assert abs(e.var() - 1.0) <= 4 * math.sqrt(8 / n)
