"""Exact trajectory sampling of the jump process on the infinite lattice.

The walker holds at x for an Exp(q_x) time with q_x = J(x,G)/mu_x (the row
sum is tail-certified, not truncated) and then jumps to y with probability
J(x,y)/J(x,G).  Jump radii are drawn by inverse CDF over the radial shells
of the kernel's `RadialProfile` (exact shell weights up to a large horizon,
certified analytic tail beyond), then a point uniform on the selected shell,
so the jump law matches the kernel exactly.  On Z one uniform on
[0, 2 J(x,G)) makes the whole step, its top half holding the negative steps;
on Z^2 one uniform on [0, J(x,G)) makes the radius.  The inverse CDF goes
through one table of equal-mass buckets (Chen & Asau's indexed search,
Devroye 1986, III.2.4): a bucket whose two edges give the same table-search
step holds that step, and every draw in it takes it in one gather; a draw
in any other bucket (several shells, the sign boundary, the analytic tail;
about 1 % on the ladder) goes to the profile's full search.  A draw lies in
the closed interval between its bucket's edges, so every step is exactly
the table search's.  Trajectories never see a window;
only the observables are windowed, which avoids truncation bias in exit and
hitting estimates.

Each estimate draws from one generator, `default_rng(SeedSequence(seed))`,
so it depends on the seed alone.  Walkers are block-stepped: each of the m
live walkers draws k i.i.d. displacements (and, for timed estimands, k unit
exponentials) in one call, its path is its position plus their running
sum, and one argmax over the (m, k) event mask finds each walker's first
event.  An event is the estimand's stop, a jump past the walker's first
STEP_CAP accepted ones (it is truncated), or a jump between the endpoints of
a suppressed pair.  That last one is the exact rejection cut: the walker
keeps its last accepted position and clock, the rest of its block (the
rejected hold with it) is dropped, and its next block draws afresh, so each
accepted jump follows the conditional law J(x,y)/J(x,G) with an unbiased
Exp(q_x) hold.  k doubles from block to block while m*k stays within
DRAW_BUDGET.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
import numpy.random  # noqa: F401  numpy would load it lazily, inside a run

from .models import LadderKernel, LatticeModel, radial_profile

STEP_CAP = 10_000_000
DRAW_BUDGET = 1 << 15  # displacements drawn per block: m walkers x k jumps
GUIDE_BUCKETS = 4096  # equal-mass draw-table buckets over [0, J(x, G))
_COS = np.array([1, 0, -1, 0])  # cos of q quarter turns; sin is _COS[q - 1]


@dataclass
class EstimateReport:
    estimand: str
    estimate: float
    se: float
    n: int
    seed: int
    truncated: int = 0
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


class TrajectorySampler:
    """Vectorized batch sampler for radial kernels on Z^d (d <= 2)."""

    def __init__(self, model: LatticeModel, seed: int):
        if model.kind != "lattice":
            raise NotImplementedError("trajectory sampling needs a lattice model")
        if model.d > 2:
            raise NotImplementedError("shell direction sampling implemented for d <= 2")
        self.model = model
        self.seed = seed
        self.profile = radial_profile(model.d, model.metric, model.base_kernel)
        self.total = self.profile.total  # J(x, G) off the suppressed pair
        # The draw table: halves * G buckets over [0, halves * total), the
        # top half (on Z) for the negative steps.  A uniform x times
        # halves * G, a power of two, is exact, and its bucket b is the
        # floor of that; its point u = (x halves G)(total / G) is one
        # monotone rounding of a real in [b, b + 1) total / G, so it lies
        # between e_b and e_{b+1}, the bucket's edges as rounded here.
        # Where both edges give the same signed step, every draw in the
        # bucket takes it, and _table[b] is that step; elsewhere it is 0.
        halves = 2 if model.d == 1 else 1
        cum = self.profile.cum
        edges = np.arange(halves * GUIDE_BUCKETS + 1) * (self.total / GUIDE_BUCKETS)
        neg = edges >= self.total
        i = cum.searchsorted(np.where(neg, edges - self.total, edges), side="right")
        code = np.where(i < len(cum), np.where(neg, -1, 1) * (i + 1), 0)
        self._table = np.where(code[:-1] == code[1:], code[:-1], 0)

    # -- walker tests (points along the last axis) -----------------------------

    def _at(self, pts: np.ndarray, v) -> np.ndarray:
        """Which points are the vertex v (a plain compare on Z)."""
        if self.model.d == 1:
            return pts[..., 0] == v[0]
        return np.all(pts == v, axis=-1)

    def _outside(self, pts: np.ndarray, x0, R) -> np.ndarray:
        """Which points lie outside B(x0, R) (two compares on Z, which
        form no integer temporary)."""
        if self.model.d == 1:
            return (pts[..., 0] < x0[0] - R) | (pts[..., 0] > x0[0] + R)
        return self.model.norm(pts - np.asarray(x0)) > R

    def _rates(self, pts: np.ndarray) -> np.ndarray:
        """The jump rate q_x = J(x, G) / mu_x of each point."""
        flat = pts.reshape(-1, self.model.d)
        q = self.model.row_sums_all(flat)[0] / self.model.mu_rule.at(flat)
        return q.reshape(pts.shape[:-1])

    def _forbidden(self, pre: np.ndarray, post: np.ndarray):
        """Which jumps pre -> post join the two ends of the suppressed pair."""
        p = self.model.pair
        if p is None:
            return False
        a, b = p[0], p[1]
        return (self._at(pre, a) & self._at(post, b)) | \
               (self._at(pre, b) & self._at(post, a))

    # -- displacement sampling ------------------------------------------------

    def _directions(self, radii: np.ndarray, rng) -> np.ndarray:
        """Uniform point on each walker's shell of Z^2 (exact enumeration):
        point j of one side, (s, j+1-s) for j < 2s on l-inf or (s-j, j) for
        j < s on l1, turned by one of four quarter turns, (x, y) -> (-y, x)."""
        s = radii.astype(np.int64)
        linf = self.model.metric == "linf"
        side = 2 * s if linf else s
        k = (rng.random(len(s)) * (4 * side)).astype(np.int64)
        turn, j = np.divmod(np.minimum(k, 4 * side - 1), side)
        x, y = (s, j + 1 - s) if linf else (s - j, j)
        cos, sin = _COS[turn], _COS[turn - 1]
        return np.stack([cos * x - sin * y, sin * x + cos * y], axis=1)

    def _displacements(self, n: int, rng) -> np.ndarray:
        """n i.i.d. draws of the unsuppressed jump law, as an (n, d) array.

        A uniform picks a bucket of the draw table; a draw in a bucket with
        a step takes it, the others take `profile.radii` at their point u,
        signed on Z by u >= total (u - total is exact, Sterbenz).  On Z^2 a
        direction uniform on the radius' shell completes the step."""
        x = rng.random(n)
        x *= len(self._table)  # exact: a power of two
        step = self._table[x.astype(np.intp)]
        miss = np.flatnonzero(step == 0)
        if len(miss):
            u = x[miss] * (self.total / GUIDE_BUCKETS)
            neg = u >= self.total
            r = self.profile.radii(np.where(neg, u - self.total, u))
            step[miss] = np.where(neg, -r, r)
        if self.model.d == 2:
            return self._directions(step, rng)
        return step[:, None]


def _walk(sampler: TrajectorySampler, x, n: int, stop, timed: bool):
    """Run n walkers from x, block by block, to each one's first stop.

    `stop(post, clock)` marks the jumps that end a walk by their landing
    points; `clock` is the time after each jump's hold (the scalar 0 unless
    `timed`).  The start is tested first as a landing at x at time 0, so a
    walker that is settled before it moves (say, started outside the ball)
    draws nothing.  Returns pre, post and clock of the stopping jump of
    every walker that stopped, in walker order, and the number of walkers
    truncated at STEP_CAP.
    """
    model, d = sampler.model, sampler.model.d
    rng = np.random.default_rng(np.random.SeedSequence(sampler.seed))
    start = np.asarray(x, dtype=np.int64)
    if stop(start[None], np.zeros(1))[0]:
        here = np.tile(start, (n, 1))
        return here, here, np.zeros(n), 0
    live = np.arange(n)
    pos = np.tile(start, (n, 1))
    clock = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    end_pre = np.empty((n, d), dtype=np.int64)
    end_post = np.empty((n, d), dtype=np.int64)
    end_clock = np.zeros(n)
    ended = np.zeros(n, dtype=bool)
    truncated, k = 0, 1
    while len(live):
        m = len(live)
        k = min(2 * k, max(1, DRAW_BUDGET // m))
        jumps = sampler._displacements(m * k, rng).reshape(m, k, d)
        post = np.cumsum(jumps, axis=1)
        post += pos[:, None]
        # the holds and the pair cut read the jumps' starting points
        pre = post - jumps if timed or model.pair is not None else None
        t = 0.0
        if timed:
            t = clock[:, None] + np.cumsum(
                rng.standard_exponential(m * k).reshape(m, k) / sampler._rates(pre),
                axis=1)
        event = stop(post, t)
        # the cap and the pair cut are masked only where they can occur
        capped = cut = None
        if steps.max() + k > STEP_CAP:
            capped = np.arange(k) >= (STEP_CAP - steps)[:, None]
            event = event | capped
        if model.pair is not None:
            cut = sampler._forbidden(pre, post)
            if capped is not None:
                cut &= ~capped
            event = event | cut
        col = event.argmax(axis=1)
        rows = np.arange(m)
        met = event[rows, col]
        # the walker's state after its last accepted jump
        last = np.where(met, col, k)
        pos = np.where((last > 0)[:, None], post[rows, last - 1], pos)
        if timed:
            clock = np.where(last > 0, t[rows, last - 1], clock)
        steps += last
        done = met if cut is None else met & ~cut[rows, col]
        halt = done
        if capped is not None:
            over = done & capped[rows, col]
            halt = done & ~over
            truncated += int(np.count_nonzero(over))
        ids, at = live[halt], (rows[halt], col[halt])
        end_pre[ids], end_post[ids] = pos[halt], post[at]
        if timed:
            end_clock[ids] = t[at]
        ended[ids] = True
        live, pos, clock, steps = live[~done], pos[~done], clock[~done], steps[~done]
        del jumps, post, pre, t  # freed before the next block is drawn
    return end_pre[ended], end_post[ended], end_clock[ended], truncated


def _se(samples: np.ndarray) -> float:
    """Standard error of the mean of n samples; inf for n = 1."""
    n = len(samples)
    return float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf


def _finish(estimand, samples, truncated, seed, extra) -> EstimateReport:
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n == 0:
        raise ValueError("all trajectories hit the step cap")
    return EstimateReport(estimand=estimand, estimate=float(samples.mean()),
                          se=_se(samples), n=n, seed=seed, truncated=truncated,
                          extra=extra)


def sample_exit_time(sampler: TrajectorySampler, x, x0, R,
                     n: int) -> EstimateReport:
    """Unbiased Monte Carlo mean of tau_{B(x0,R)} started at x (0 outside B).

    Capped trajectories are excluded from the mean and counted; exclusion
    biases the estimate downward.
    """
    _, _, tau, truncated = _walk(
        sampler, x, n, lambda post, t: sampler._outside(post, x0, R),
        timed=True)
    return _finish("exit_time", tau, truncated, sampler.seed,
                   {"x": list(x), "x0": list(x0), "R": R})


def hit_before_exit(sampler: TrajectorySampler, x, y, x0, R,
                    n: int) -> EstimateReport:
    """P^x(T_y <= tau_{B(x0,R)}); jump-chain simulation (times not needed).

    From x outside the ball tau_B = 0, so the estimate is 1{x = y}.
    """
    _, post, _, truncated = _walk(
        sampler, x, n,
        lambda post, t: sampler._at(post, y) | sampler._outside(post, x0, R),
        timed=False)
    return _finish("hit_before_exit", sampler._at(post, y), truncated,
                   sampler.seed, {"x": list(x), "y": list(y), "x0": list(x0), "R": R})


def sample_position_sup(r1: int, alpha: float, T: float, n: int,
                        seed: int) -> EstimateReport:
    """Running-sup statistics of the pure single-range component on Z.

    The component jumps +-r1 at rate delta each way (mu = 1) with
    delta = r1^{-1-alpha} log r1; Y_T = sup_{s<=T} |X_s|.  Estimates E Y_T^2
    and P(Y_T >= lam) at lam = r1 and compares them with two bounds:
    - `doob_bound` 4 r1^2 delta T is 2 E X_T^2, half of Doob's L^2 bound
      4 E X_T^2.  It holds for E Y_T^2 here because 2 delta T is small: a
      walk rarely jumps more than once.
    - `cheb_bound` 4 T log r1 / (lam^2 r1^{alpha-1}) equals 4 delta T at
      lam = r1.  P(Y_T >= r1) is exactly 1 - e^{-2 delta T}, since any one
      jump reaches |X| = r1, and that is at most 2 delta T, so `cheb_ok`
      cannot fail.
    """
    lam = float(r1)
    delta = LadderKernel(alpha, (r1,)).atom(r1)
    rate = 2.0 * delta  # total jump rate (both directions)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = rng.poisson(rate * T, n)
    y = np.zeros(n)
    cur = np.zeros(n)
    remaining = counts.copy()
    while np.any(remaining > 0):
        act = remaining > 0
        steps = (rng.integers(0, 2, int(act.sum())) * 2 - 1) * r1
        cur[act] += steps
        y[act] = np.maximum(y[act], np.abs(cur[act]))
        remaining[act] -= 1
    y2 = y ** 2
    e_y2 = float(y2.mean())
    se_y2 = _se(y2)
    ind = (y >= lam).astype(float)
    p_lam = float(ind.mean())
    se_p = _se(ind)
    doob = 4.0 * r1 ** 2 * delta * T
    cheb = 4.0 * T * math.log(r1) / (lam ** 2 * float(r1) ** (alpha - 1.0))
    return EstimateReport(
        estimand="position_sup", estimate=e_y2, se=se_y2, n=n, seed=seed,
        extra={"E_Y2": e_y2, "se_E_Y2": se_y2, "doob_bound": doob,
               "doob_ok": e_y2 <= doob + 3 * se_y2,
               "lam": lam, "P_ge_lam": p_lam, "se_P": se_p,
               "cheb_bound": cheb, "cheb_ok": p_lam <= cheb + 3 * se_p,
               "r1": r1, "alpha": alpha, "T": T, "delta": delta})
