import math

import numpy as np
import pytest
from scipy import stats

from jumplab import montecarlo as mc
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
        sampler.profile.radii(rng.random(n) * sampler.total), rng)
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
    assert shell_counts(2, metric, 2) == npts
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
    s = np.arange(1, SHELL_HORIZON + 1, dtype=float)
    # shell sizes: 2 on Z, 8s (linf) and 4s (l1) on Z^2
    counts = np.full(SHELL_HORIZON, 2.0) if d == 1 else {"linf": 8, "l1": 4}[metric] * s
    weights = counts * s ** (-expo)
    for r in (kernel.ranges if ladder else ()):
        weights[r - 1] += counts[r - 1] * (math.log(r) * r ** (-1.0 - kernel.alpha))
    cum = np.cumsum(weights)
    total = float(cum[-1] + shell_tail_sum(d, metric, expo, SHELL_HORIZON + 1))
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
        assert np.array_equal(sampler.profile.cum[:300], cum[:300])
    q = supp._row_sum(np.array([x0, y0, (7,) * d]))
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


def test_position_sup_bounds_and_t0():
    rep = mc.sample_position_sup(64, 1.5, T=64.0 ** 1.5 / 4, n=20_000, seed=11)
    assert rep.extra["doob_ok"] and rep.extra["cheb_ok"]
    tiny = mc.sample_position_sup(64, 1.5, T=1e-6, n=2_000, seed=11)
    assert tiny.estimate == 0.0


def test_unsupported_dimensions():
    m = LatticeModel(d=3, kernel=PolynomialKernel(1.0))
    with pytest.raises(NotImplementedError):
        mc.TrajectorySampler(m, seed=0)


# -- the mask-based loops the compact alive-set loops replaced --------------
#
# Reference implementations: every live walker is gathered and scattered
# through an `alive` mask at every step, and vertex tests use np.all over the
# coordinate axis in every dimension.  The compact loops must make the same
# draws in the same order, so their results are compared with ==.

def tail_radius(prof, u):
    """Smallest s with cumulative weight through s >= u, beyond the horizon,
    by doubling and then bisection on the zeta tail."""
    def cum_through(s):
        return prof.total - shell_tail_sum(prof.d, prof.metric, prof.expo, s + 1)
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


class MaskSampler:
    """The sampler's draw path with np.all row tests and a `beyond` mask."""

    def __init__(self, sampler):
        self.s = sampler
        self.model = sampler.model
        self.resamples = 0

    def row_sum(self, pos):
        out = np.full(len(pos), self.s.total)
        p = self.model.pair
        if p is not None:
            for v in p[:2]:
                out[np.all(pos == v, axis=1)] -= p[2]
        return out

    def sample_radii(self, u):
        r = np.searchsorted(self.s.profile.cum, u, side="right") + 1
        beyond = r > SHELL_HORIZON
        if np.any(beyond):
            for i in np.nonzero(beyond)[0]:
                r[i] = tail_radius(self.s.profile, float(u[i]))
        return r.astype(np.int64)

    def directions(self, radii, rng):
        if self.model.d == 1:
            signs = rng.integers(0, 2, len(radii)) * 2 - 1
            return (radii * signs)[:, None]
        return self.s._directions(radii, rng)

    def jump(self, pos, rng):
        n = len(pos)
        new = pos + self.directions(
            self.sample_radii(rng.random(n) * self.s.total), rng)
        p = self.model.pair
        if p is not None:
            x0, y0 = np.asarray(p[0]), np.asarray(p[1])
            while True:
                bad = (np.all(pos == x0, axis=1) & np.all(new == y0, axis=1)) | \
                      (np.all(pos == y0, axis=1) & np.all(new == x0, axis=1))
                if not np.any(bad):
                    break
                self.resamples += 1
                idx = np.nonzero(bad)[0]
                new[idx] = pos[idx] + self.directions(
                    self.sample_radii(rng.random(len(idx)) * self.s.total), rng)
        return new


def mask_exit_time(sampler, x, x0, R, n):
    ref = MaskSampler(sampler)
    model = sampler.model
    out, truncated = [], 0
    for rng, size in sampler._streams(n):
        pos = np.tile(np.asarray(x, dtype=np.int64), (size, 1))
        t = np.zeros(size)
        alive = np.ones(size, dtype=bool)
        steps = 0
        while np.any(alive):
            if steps >= mc.STEP_CAP:
                truncated += int(alive.sum())
                break
            p = pos[alive]
            q = ref.row_sum(p) / model.mu_rule.at(p)
            t[alive] += rng.exponential(1.0, len(p)) / q
            pos[alive] = ref.jump(p, rng)
            exited = model.norm(pos[alive] - np.asarray(x0)) > R
            idx = np.nonzero(alive)[0]
            alive[idx[exited]] = False
            steps += 1
        out.extend(t[~alive].tolist())
    return mc._finish("exit_time", out, truncated, sampler.seed,
                      {"x": list(x), "x0": list(x0), "R": R})


def mask_hit_before_exit(sampler, x, y, x0, R, n):
    ref = MaskSampler(sampler)
    model = sampler.model
    yv = np.asarray(y, dtype=np.int64)
    out, truncated = [], 0
    for rng, size in sampler._streams(n):
        pos = np.tile(np.asarray(x, dtype=np.int64), (size, 1))
        hit = np.all(pos == yv, axis=1).astype(float)
        alive = ~(hit > 0)
        steps = 0
        while np.any(alive):
            if steps >= mc.STEP_CAP:
                truncated += int(alive.sum())
                alive_idx = np.nonzero(alive)[0]
                hit[alive_idx] = np.nan
                break
            p = ref.jump(pos[alive], rng)
            pos[alive] = p
            hits = np.all(p == yv, axis=1)
            done = hits | (model.norm(p - np.asarray(x0)) > R)
            idx = np.nonzero(alive)[0]
            hit[idx[done]] = hits[done].astype(float)
            alive[idx[done]] = False
            steps += 1
        out.extend(hit[np.isfinite(hit)].tolist())
    return mc._finish("hit_before_exit", out, truncated, sampler.seed,
                      {"x": list(x), "y": list(y), "x0": list(x0), "R": R}), ref


def mask_occupation(sampler, x, t, n):
    ref = MaskSampler(sampler)
    counts = {}
    for rng, size in sampler._streams(n):
        pos = np.tile(np.asarray(x, dtype=np.int64), (size, 1))
        clock = np.zeros(size)
        alive = np.ones(size, dtype=bool)
        while np.any(alive):
            p = pos[alive]
            q = ref.row_sum(p) / sampler.model.mu_rule.at(p)
            hold = rng.exponential(1.0, len(p)) / q
            idx = np.nonzero(alive)[0]
            over = clock[alive] + hold > t
            clock[alive] += hold
            alive[idx[over]] = False
            still = idx[~over]
            if len(still):
                pos[still] = ref.jump(pos[still], rng)
        for p in pos:
            key = tuple(int(c) for c in p)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _same_report(a, b):
    assert a.to_dict() == b.to_dict()  # estimate, se, n, truncated, extra


def _suppressed(base, d, metric, y0, **kw):
    return LatticeModel(d=d, metric=metric, kernel=SuppressedPairKernel(
        base=base, x0=(0,) * d, y0=y0), **kw)


# (model, walker start x, target y, ball radius R): the suppressed pairs sit
# next to the origin, where the walkers start, so the resample loop runs.
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
    want, ref = mask_hit_before_exit(s, x, y, x0, R, 600)
    _same_report(got, want)
    if model.pair is not None:
        assert ref.resamples > 0
    _same_report(mc.sample_exit_time(s, x0, x0, R, 600),
                 mask_exit_time(s, x0, x0, R, 600))
    for t in (0.3, 2.0):
        got = mc.sample_occupation(s, x0, t, 600)
        want = mask_occupation(s, x0, t, 600)
        assert list(got.items()) == list(want.items())


def test_compact_hit_equals_mask_hit_on_ladder():
    """The cex-ladder estimand at the ladder's own scales."""
    m = LatticeModel(d=1, kernel=LadderKernel(alpha=1.5, ranges=(16, 64, 256)))
    s = mc.TrajectorySampler(m, seed=5)
    for R in (16, 64, 256):
        got = mc.hit_before_exit(s, (R // 4,), (0,), (0,), R, 400)
        _same_report(got, mask_hit_before_exit(s, (R // 4,), (0,), (0,), R, 400)[0])


@pytest.mark.parametrize("case", ["z1", "z1-pair", "z2-l1-pair"])
def test_compact_loops_equal_mask_loops_at_step_cap(monkeypatch, case):
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


class ForcedUniforms:
    """A generator whose uniforms are given; the other draws are real."""

    def __init__(self, u, seed):
        self.u = np.asarray(u, dtype=float)
        self.rng = np.random.default_rng(seed)

    def random(self, m):
        assert m == len(self.u)
        return self.u.copy()

    def integers(self, *args):
        return self.rng.integers(*args)


@pytest.mark.parametrize("kernel", [
    PolynomialKernel(1.0), LadderKernel(alpha=1.5, ranges=(16, 64, 256))])
def test_jump_tail_radius_on_z(kernel):
    """Uniforms in the analytic tail beyond SHELL_HORIZON go through the
    profile's tail bisection, and the d=1 jump agrees with the mask-based one."""
    s = mc.TrajectorySampler(LatticeModel(d=1, kernel=kernel), seed=0)
    head = s.profile.cum[-1] / s.total
    u = [0.25, head + (1 - head) / 3, 0.999, 1 - (1 - head) / 7]
    pos = np.array([[0], [5], [-3], [2]], dtype=np.int64)
    got = s._jump(pos, ForcedUniforms(u, 8))
    want = MaskSampler(s).jump(pos, ForcedUniforms(u, 8))
    assert np.array_equal(got, want)
    far = np.abs(got - pos)[:, 0] > SHELL_HORIZON
    assert far.tolist() == [False, True, False, True]
