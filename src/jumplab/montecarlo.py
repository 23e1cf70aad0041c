"""Exact trajectory sampling of the jump process on the infinite lattice.

The walker holds at x for an Exp(q_x) time with q_x = J(x,G)/mu_x (the row
sum is tail-certified, not truncated) and then jumps to y with probability
J(x,y)/J(x,G).  Jump radii are drawn by inverse CDF over the radial shells
of the kernel's `RadialProfile` (exact shell weights up to a large horizon,
certified analytic tail beyond), then a point uniform on the selected shell,
so the jump law matches the kernel exactly.  The inverse CDF is a guide table
(Chen & Asau's indexed search, Devroye 1986, III.2.4): a uniform's bucket
gives its shell in one step, checked against the shell's bracket, and the
few draws that miss it (buckets holding several shells, the analytic tail)
go to the profile's full search, so every radius is exactly the table
search's.  Trajectories never see a window; only the observables are
windowed, which avoids truncation bias in exit and hitting estimates.

Walkers are block-stepped: each of the m live walkers of a stream draws k
i.i.d. displacements (and, for timed estimands, k unit exponentials) in one
call, its path is its position plus their running sum, and one argmax over
the (m, k) event mask finds each walker's first event.  An event is the
estimand's stop, a jump past the walker's first STEP_CAP accepted ones (it
is truncated), or a jump between the endpoints of a suppressed pair.  That
last one is the exact rejection cut: the walker keeps its last accepted
position and clock, the rest of its block (the rejected hold with it) is
dropped, and its next block draws afresh, so each accepted jump follows the
conditional law J(x,y)/J(x,G) with an unbiased Exp(q_x) hold.  k doubles
from block to block while m*k stays within DRAW_BUDGET.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
import numpy.random  # noqa: F401  numpy would load it lazily, inside a run

from .models import LadderKernel, LatticeModel, radial_profile, shell_counts

STEP_CAP = 10_000_000
N_STREAMS = 8
DRAW_BUDGET = 1 << 13  # displacements one stream draws per block: m walkers x k jumps
GUIDE_BUCKETS = 4096  # equal-mass buckets of the guide table over [0, J(x, G))


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
        # Guide table: a draw u in bucket b = floor(u G / total) lies, up to
        # rounding at the bucket's edge, in shell guide[b] + 1 or above, with
        # guide[b] = #{cum <= b total / G}.  At most G shells outweigh a
        # bucket, so guided indices stop at G + 1 and only that head of the
        # table is bracketed: lo[i] = cum[i - 1] (-inf for i = 0) and
        # hi[i] = cum[i].  Bucket G catches a u G / total rounded up to G.
        cum, g = self.profile.cum, GUIDE_BUCKETS
        edges = np.arange(g + 1) * (self.total / g)
        self._guide = np.minimum(cum.searchsorted(edges, side="right"), g)
        head = np.concatenate(([-np.inf], cum[:g + 2]))
        self._lo, self._hi = head[:-1], head[1:]
        self._scale = g / self.total

    # -- walker tests (points along the last axis) -----------------------------

    def _at(self, pts: np.ndarray, v) -> np.ndarray:
        """Which points are the vertex v (a plain compare on Z)."""
        if self.model.d == 1:
            return pts[..., 0] == v[0]
        return np.all(pts == v, axis=-1)

    def _outside(self, pts: np.ndarray, x0, R) -> np.ndarray:
        """Which points lie outside B(x0, R)."""
        if self.model.d == 1:
            return np.abs(pts[..., 0] - x0[0]) > R
        return self.model.norm(pts - np.asarray(x0)) > R

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
        """Uniform point on each walker's shell (exact enumeration)."""
        n = len(radii)
        d, metric = self.model.d, self.model.metric
        if d == 1:
            return np.where(rng.random(n) < 0.5, -radii, radii)[:, None]
        s = radii.astype(np.int64)
        counts = shell_counts(d, metric, s)
        k = (rng.random(n) * counts).astype(np.int64)
        k = np.minimum(k, counts - 1)
        out = np.empty((n, 2), dtype=np.int64)
        if metric == "linf":
            # 2(2s+1) points with |x|=s, then 2(2s-1) with |y|=s, |x|<s
            side = 2 * s + 1
            a = k < 2 * side
            out[a, 0] = np.where(k[a] < side[a], s[a], -s[a])
            out[a, 1] = k[a] % side[a] - s[a]
            b = ~a
            kk = k[b] - 2 * side[b]
            width = 2 * s[b] - 1
            out[b, 1] = np.where(kk < width, s[b], -s[b])
            out[b, 0] = kk % width - (s[b] - 1)
        else:
            # l1 circle of 4s points: 2s-1 with y>0, 2s-1 with y<0, two poles
            up = k < 2 * s - 1
            out[up, 0] = k[up] - (s[up] - 1)
            out[up, 1] = s[up] - np.abs(out[up, 0])
            down = (~up) & (k < 4 * s - 2)
            kk = k[down] - (2 * s[down] - 1)
            out[down, 0] = kk - (s[down] - 1)
            out[down, 1] = -(s[down] - np.abs(out[down, 0]))
            pole = k >= 4 * s - 2
            out[pole, 0] = np.where(k[pole] == 4 * s[pole] - 2, s[pole], -s[pole])
            out[pole, 1] = 0
        return out

    def _radii(self, u: np.ndarray) -> np.ndarray:
        """`profile.radii(u)` by the guide table: from its bucket's guide
        index i and one step, u takes shell i + 1 when cum[i - 1] <= u <
        cum[i], which is the table search's answer; the draws outside that
        bracket go to the full search."""
        lo, hi = self._lo, self._hi
        i = self._guide[(u * self._scale).astype(np.intp)]
        i += hi[i] <= u
        miss = (u < lo[i]) | (hi[i] <= u)
        i += 1
        if miss.any():
            i[miss] = self.profile.radii(u[miss])
        return i

    def _displacements(self, n: int, rng) -> np.ndarray:
        """n i.i.d. draws of the unsuppressed jump law, as an (n, d) array."""
        return self._directions(self._radii(rng.random(n) * self.total), rng)

    # -- stream plumbing -------------------------------------------------------

    def _streams(self, n: int):
        """Deterministic split of n walkers across independent RNG streams."""
        seqs = np.random.SeedSequence(self.seed).spawn(N_STREAMS)
        sizes = [n // N_STREAMS + (1 if i < n % N_STREAMS else 0)
                 for i in range(N_STREAMS)]
        return [(np.random.default_rng(sq), sz)
                for sq, sz in zip(seqs, sizes) if sz > 0]


def _walk(sampler: TrajectorySampler, x, n: int, stop, timed: bool):
    """Run n walkers from x, block by block, to each one's first stop.

    `stop(pre, post, clock)` marks the jumps pre -> post that end a walk;
    `clock` is the time after each jump's hold (the scalar 0 unless
    `timed`).  The start is tested first as the zero-length jump x -> x at
    time 0, so a walker that is settled before it moves (say, started
    outside the ball) draws nothing.  Returns pre, post and clock of the
    stopping jump of every walker that stopped, in stream and walker order,
    and the number of walkers truncated at STEP_CAP.
    """
    model, d = sampler.model, sampler.model.d
    start = np.asarray(x, dtype=np.int64)
    if stop(start[None], start[None], np.zeros(1))[0]:
        here = np.tile(start, (n, 1))
        return here, here, np.zeros(n), 0
    pres, posts, clocks, truncated = [], [], [], 0
    for rng, size in sampler._streams(n):
        live = np.arange(size)
        pos = np.tile(start, (size, 1))
        clock = np.zeros(size)
        steps = np.zeros(size, dtype=np.int64)
        end_pre = np.empty((size, d), dtype=np.int64)
        end_post = np.empty((size, d), dtype=np.int64)
        end_clock = np.zeros(size)
        ended = np.zeros(size, dtype=bool)
        k = 1
        while len(live):
            m = len(live)
            k = min(2 * k, max(1, DRAW_BUDGET // m))
            jumps = sampler._displacements(m * k, rng).reshape(m, k, d)
            post = np.cumsum(jumps, axis=1)
            post += pos[:, None]
            pre = post - jumps
            t = 0.0
            if timed:
                flat = pre.reshape(m * k, d)
                hold = rng.standard_exponential(m * k) / (
                    model.row_sums_all(flat)[0] / model.mu_rule.at(flat))
                t = clock[:, None] + np.cumsum(hold.reshape(m, k), axis=1)
            event = stop(pre, post, t)
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
            ids = live[halt]
            end_pre[ids] = pre[rows[halt], col[halt]]
            end_post[ids] = post[rows[halt], col[halt]]
            if timed:
                end_clock[ids] = t[rows[halt], col[halt]]
            ended[ids] = True
            live, pos, clock, steps = live[~done], pos[~done], clock[~done], steps[~done]
        pres.append(end_pre[ended])
        posts.append(end_post[ended])
        clocks.append(end_clock[ended])
    return (np.concatenate(pres), np.concatenate(posts), np.concatenate(clocks),
            truncated)


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
        sampler, x, n, lambda pre, post, t: sampler._outside(post, x0, R),
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
        lambda pre, post, t: sampler._at(post, y) | sampler._outside(post, x0, R),
        timed=False)
    return _finish("hit_before_exit", sampler._at(post, y), truncated,
                   sampler.seed, {"x": list(x), "y": list(y), "x0": list(x0), "R": R})


def sample_position_sup(r1: int, alpha: float, T: float, n: int,
                        seed: int) -> EstimateReport:
    """Running-sup statistics of the pure single-range component on Z.

    The component jumps +-r1 at rate delta each way (mu = 1) with
    delta = r1^{-1-alpha} log r1; Y_T = sup_{s<=T} |X_s|.  Estimates E Y_T^2
    and P(Y_T >= lam) at lam = r1 and compares them with the maximal bounds
    E Y_T^2 <= 4 r1^2 delta T and
    P(Y_T >= lam) <= 4 T log r1 / (lam^2 r1^{alpha-1}).
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
