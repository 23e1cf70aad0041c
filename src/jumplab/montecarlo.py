"""Exact trajectory sampling of the jump process on the infinite lattice.

The walker holds at x for an Exp(q_x) time with q_x = J(x,G)/mu_x (the row
sum is tail-certified, not truncated) and then jumps to y with probability
J(x,y)/J(x,G).  Jump radii are drawn by inverse CDF over the radial shells
of the kernel (the sampler's table of exact shell weights up to
SHELL_HORIZON, count(s) times `LatticeModel.radial_values`; the certified
Hurwitz-zeta tail beyond), then a point uniform on the selected shell, so
the jump law matches the kernel exactly.  On Z one uniform on
[0, 2 J(x,G)) makes the whole step, its top half holding the negative steps;
on Z^2 one uniform on [0, J(x,G)) makes the radius.  The inverse CDF goes
through one table of equal-mass buckets (Chen & Asau's indexed search,
Devroye 1986, III.2.4): a bucket whose two edges give the same table-search
step holds that step, and every draw in it takes it in one gather; a draw
in any other bucket (several shells, the sign boundary, the analytic tail;
about 1 % on the ladder) goes to the full search, `TrajectorySampler.radii`.
A draw lies in the closed interval between its bucket's edges, so every
step is exactly the table search's.  Trajectories never see a window;
only the observables are windowed, which avoids truncation bias in exit and
hitting estimates.

Each estimate draws from one generator, `SplitMix64(seed)` (Steele, Lea &
Flood, OOPSLA 2014; the output function of Java's `SplittableRandom`), so
it depends on the seed alone.  A draw is a 64-bit word w, and z = w >> 11
its top 53 bits: a uniform is x = z 2^-53 and a unit exponential
-log((z + 1) 2^-53).  The draw table takes the bucket floor(x len(_table))
as w's top bits, w >> (64 - log2 len(_table)), and forms x len(_table) =
z (len(_table) 2^-53), one exact product, only for the draws that miss:
the doubles of the floor and product on x, so the argument above holds
word for word.

Walkers are block-stepped: each of the m
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

`sample_position_sup` samples nothing (its running sup is exact); it keeps an
estimate's report as `perfbench/layertrace.py` wraps it by name.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericalFailure
from .models import (
    SHELL_HORIZON,
    LadderKernel,
    LatticeModel,
    radial_total,
    shell_counts,
    shell_tail_sum,
)
from .semigroup import TOL, _poisson_cutoff, _poisson_table

STEP_CAP = 10_000_000
DRAW_BUDGET = 1 << 15  # displacements drawn per block: m walkers x k jumps
GUIDE_BUCKETS = 4096  # equal-mass draw-table buckets over [0, J(x, G))
# Largest jump radius drawn: Z^2 shell counts (8s) and walker distances
# (|x - x0| <= R + s) stay in int64.
JUMP_RADIUS_CAP = 2 ** 59
SUP_TERM_CAP = 256  # Poisson terms of the running-sup sum, ~2 K^3 flops
_COS = np.array([1, 0, -1, 0])  # cos of q quarter turns; sin is _COS[q - 1]
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's Weyl increment, 2^64 / golden ratio
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))  # then z ^= z >> 31
_M64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """SplitMix64's output function on one word: a bijection of [0, 2^64)."""
    for shift, mult in _MIX:
        z = (z ^ (z >> shift)) * mult & _M64
    return z ^ (z >> 31)


def _start(seed: int) -> int:
    """The first state of seed's stream, mix64(seed); a seed outside
    [0, 2^64), which would alias one inside, is a ValueError."""
    seed = operator.index(seed)
    if not 0 <= seed <= _M64:
        raise ValueError(f"need a seed in [0, 2^64), got {seed}")
    return _mix64(seed)


class SplitMix64:
    """The walker's generator: SplitMix64's 64-bit words.

    The state is one 64-bit word; it starts at mix64(seed), so distinct
    seeds in [0, 2^64) start at distinct states, and advances by GAMMA
    per word, which is mix64 of it.  A call for n <= DRAW_BUDGET words
    fills buffers the generator owns: one add of the precomputed steps
    i GAMMA (i = 1..n) to the state, then the mixing rounds in place; a
    larger call (more than DRAW_BUDGET walkers at one jump each) gets
    buffers of its own."""

    def __init__(self, seed: int):
        self.state = _start(seed)
        self._buffers = self._allocate(DRAW_BUDGET)

    @staticmethod
    def _allocate(n: int):
        """The steps i GAMMA mod 2^64 for i = 1..n, and two word buffers."""
        return (np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GAMMA),
                np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64))

    def words(self, n: int) -> np.ndarray:
        """The next n words; for n <= DRAW_BUDGET a view of the generator's
        buffer, which its next call overwrites."""
        bufs = self._buffers
        if n > len(bufs[0]):
            bufs = self._allocate(n)
        steps, z, tmp = (b[:n] for b in bufs)
        np.add(steps, self.state, out=z)
        self.state = (self.state + n * GAMMA) & _M64
        for shift, mult in _MIX:
            z ^= np.right_shift(z, shift, out=tmp)
            z *= mult
        z ^= np.right_shift(z, 31, out=tmp)
        return z

    def random(self, n: int) -> np.ndarray:
        """n uniforms z 2^-53 in [0, 1), z a word's top 53 bits."""
        return (self.words(n) >> 11) * 2.0 ** -53

    def standard_exponential(self, n: int) -> np.ndarray:
        """n unit exponentials -log((z + 1) 2^-53), each in [0, 53 log 2]."""
        e = (self.words(n) >> 11) + 1.0
        e *= 2.0 ** -53
        np.log(e, out=e)
        return np.negative(e, out=e)


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
        _start(seed)  # refuses a seed outside [0, 2^64) before any walk
        self.seed = seed
        d, metric = model.d, model.metric
        # J(x, G) off the suppressed pair; a divergent kernel raises here,
        # before the table is built
        self.total = radial_total(d, metric, model.base_kernel)[0]
        # The shell table: cum sums the shell weights count(s) J(s), atoms
        # included, over s = 1..SHELL_HORIZON.
        s = np.arange(1, SHELL_HORIZON + 1)
        self.cum = cum = np.cumsum(shell_counts(d, metric, s) * model.radial_values(s))
        # The draw table: halves * G buckets over [0, halves * total), the
        # top half (on Z) for the negative steps.  A uniform x times
        # halves * G, a power of two, is exact, and its bucket b is the
        # floor of that; its point u = (x halves G)(total / G) is one
        # monotone rounding of a real in [b, b + 1) total / G, so it lies
        # between e_b and e_{b+1}, the bucket's edges as rounded here.
        # Where both edges give the same signed step, every draw in the
        # bucket takes it, and _table[b] is that step; elsewhere it is 0.
        halves = 2 if d == 1 else 1
        edges = np.arange(halves * GUIDE_BUCKETS + 1) * (self.total / GUIDE_BUCKETS)
        neg = edges >= self.total
        i = cum.searchsorted(np.where(neg, edges - self.total, edges), side="right")
        code = np.where(i < len(cum), np.where(neg, -1, 1) * (i + 1), 0)
        self._table = np.where(code[:-1] == code[1:], code[:-1], 0)
        self._shift = 65 - len(self._table).bit_length()  # 64 - log2 len

    def radii(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF shell radii for uniforms u in [0, total): a binary
        search of the whole table up to the horizon; beyond it, the least s
        with cumulative weight through s >= u, by doubling and bisection on
        the zeta tail.  This is the reference: the walker draws through the
        table of buckets and sends here every draw whose bucket's two edges
        do not share one step.

        Raises NumericalFailure for a radius beyond JUMP_RADIUS_CAP: a draw
        lands there with probability about 2 % at tail exponent 1.1 on Z,
        and under 1e-14 at exponent 1.8."""
        d, metric = self.model.d, self.model.metric
        expo = self.model.base_kernel.exponent(d)

        def through(s):
            return self.total - shell_tail_sum(d, metric, expo, s + 1)
        r = self.cum.searchsorted(u, side="right") + 1
        if r.size and r.max() > SHELL_HORIZON:
            for i in np.nonzero(r > SHELL_HORIZON)[0]:
                lo, hi = SHELL_HORIZON, 2 * SHELL_HORIZON
                while through(hi) < u[i]:
                    if hi >= JUMP_RADIUS_CAP:
                        raise NumericalFailure(
                            f"a jump radius beyond 2^59 = {JUMP_RADIUS_CAP} was "
                            f"drawn: the kernel's tail exponent {expo} on "
                            f"Z^{d} is too heavy to sample in int64")
                    lo, hi = hi, 2 * hi
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (lo, mid) if through(mid) >= u[i] else (mid, hi)
                r[i] = hi
        return r.astype(np.int64, copy=False)

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
        a step takes it, the others take `radii` at their point u,
        signed on Z by u >= total (u - total is exact, Sterbenz).  On Z^2 a
        direction uniform on the radius' shell completes the step.  A
        `SplitMix64` word gives its bucket by a shift; another generator
        (numpy's, say) gives its uniforms by `random`."""
        size = len(self._table)
        if isinstance(rng, SplitMix64):
            w = rng.words(n)
            step = self._table.take((w >> self._shift).view(np.intp))  # buckets
            miss = np.flatnonzero(step == 0)
            x = (w[miss] >> 11) * (size * 2.0 ** -53)  # exact: a power of two
        else:
            x = rng.random(n) * size  # exact: a power of two
            step = self._table[x.astype(np.intp)]
            miss = np.flatnonzero(step == 0)
            x = x[miss]
        if len(miss):
            u = x * (self.total / GUIDE_BUCKETS)
            neg = u >= self.total
            r = self.radii(np.where(neg, u - self.total, u))
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
    rng = SplitMix64(sampler.seed)
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


def _finish(estimand, samples, truncated, seed, extra) -> EstimateReport:
    """The mean of the samples and its standard error (inf for one sample)."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n == 0:
        raise ValueError("all trajectories hit the step cap")
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return EstimateReport(estimand=estimand, estimate=float(samples.mean()),
                          se=se, n=n, seed=seed, truncated=truncated, extra=extra)


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


def _sup_moments(n: int) -> np.ndarray:
    """m2[N] = E max_{k<=N} S_k^2 = sum_{m>=1} (2m - 1) P(S leaves (-m, m) by
    step N), N = 0..n, for the simple random walk S; row m - 1 of `v` is S
    killed outside (-m, m), so about 2 n^3 flops."""
    levels, x = np.arange(1, n + 1), np.arange(-n, n + 1)
    inside = np.abs(x) < levels[:, None]
    v = (x == 0) * inside.astype(float)
    m2 = np.empty(n + 1)
    for N in range(n + 1):
        m2[N] = (2 * levels - 1) @ (1.0 - v.sum(axis=1))
        v[:, 1:-1] = (v[:, :-2] + v[:, 2:]) / 2
        v *= inside
    return m2


def _sup_sum(ell: float, K: int) -> tuple[float, float]:
    """(sum_{N<=K} Pois(N; ell) m2(N), a bound on the rest), K >= 2: as
    m2(N) <= N^2, the rest is at most ell^2 P(N >= K-1) + ell P(N >= K)."""
    pmf, sf = _poisson_table(ell, K)
    return float(pmf @ _sup_moments(K)), float(ell ** 2 * sf[K - 2] + ell * sf[K - 1])


def sample_position_sup(r1: int, alpha: float, T: float) -> EstimateReport:
    """Exact running-sup statistics of the pure single-range component on Z.

    It jumps +-r1 at rate delta = r1^{-1-alpha} log r1 each way (mu = 1): by
    T it makes N ~ Poisson(ell = 2 delta T) jumps, Y_T = sup_{s<=T} |X_s| is
    r1 max_{k<=N} |S_k|, and P(Y_T >= lam = r1) = 1 - e^{-ell} >= ell/(1+ell).
    The sum for E Y_T^2 >= r1^2 P(Y_T >= lam) stops two terms past the least
    K with P(N > K) <= TOL / (1 + ell)^2 (past SUP_TERM_CAP it raises
    TruncationBudgetExceeded), so `E_Y2_tail` <= TOL E Y_T^2.  `doob_bound`
    2 E X_T^2, half of Doob's L^2 bound, holds as a walk rarely jumps twice;
    `cheb_bound` 4 delta T = 2 ell cannot fail.  A negative T is a ValueError.
    """
    if T < 0:
        raise ValueError(f"need T >= 0, got {T}")
    delta = LadderKernel(alpha, (r1,)).atom(r1)
    ell = 2.0 * delta * T  # expected number of jumps
    _, sf = _poisson_cutoff(ell, TOL / (1.0 + ell) ** 2, SUP_TERM_CAP)
    moment, tail = _sup_sum(ell, len(sf) + 1)
    e_y2, p_lam, cheb = r1 ** 2 * moment, -math.expm1(-ell), 4.0 * delta * T
    return EstimateReport(  # nothing sampled: no se, n or seed
        estimand="position_sup", estimate=e_y2, se=0.0, n=0, seed=None,
        extra={"E_Y2": e_y2, "E_Y2_tail": r1 ** 2 * tail, "terms": len(sf) + 2,
               "doob_bound": r1 ** 2 * cheb, "doob_ok": e_y2 <= r1 ** 2 * cheb,
               "lam": float(r1), "P_ge_lam": p_lam, "cheb_bound": cheb,
               "cheb_ok": p_lam <= cheb, "alpha": alpha, "T": T, "delta": delta})
