"""Exact trajectory sampling of the jump process on the infinite lattice.

The walker holds at x for an Exp(q_x) time with q_x = J(x,G)/mu_x (the row
sum is tail-certified, not truncated) and then jumps to y with probability
J(x,y)/J(x,G).  Jump displacements are drawn by inverse-CDF over the radial
shells of the kernel's `RadialProfile` — exact shell weights up to a large
horizon, certified analytic tail beyond — followed by a uniform choice on the
selected shell, so the jump law matches the kernel exactly.  Trajectories
never see a window; only the observables are windowed, which avoids
truncation bias in exit and hitting estimates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .models import LatticeModel, radial_profile, shell_counts

STEP_CAP = 10_000_000
N_STREAMS = 8
_SIGNS = np.array([-1, 1])  # a fair bit in {0, 1} -> a direction on Z


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
        if model.d == 2 and model.metric not in ("linf", "l1"):
            raise NotImplementedError(model.metric)
        self.model = model
        self.seed = seed
        self.profile = radial_profile(model.d, model.metric, model.base_kernel)
        self.total = self.profile.total  # J(x, G) off the suppressed pair

    # -- walker tests ----------------------------------------------------------

    def _at(self, pos: np.ndarray, v) -> np.ndarray:
        """Which walkers sit at the vertex v (a column compare on Z)."""
        if self.model.d == 1:
            return pos[:, 0] == v[0]
        return np.all(pos == v, axis=1)

    def _outside(self, pos: np.ndarray, x0, R) -> np.ndarray:
        """Which walkers lie outside B(x0, R)."""
        if self.model.d == 1:
            return np.abs(pos[:, 0] - x0[0]) > R
        return self.model.norm(pos - np.asarray(x0)) > R

    # -- row sums and rates -------------------------------------------------

    def _row_sum(self, pos: np.ndarray) -> np.ndarray:
        """J(x, G) per walker (suppressed-pair endpoints corrected)."""
        out = np.full(len(pos), self.total)
        p = self.model.pair
        if p is not None:
            for v in p[:2]:
                out[self._at(pos, v)] -= p[2]
        return out

    # -- displacement sampling ------------------------------------------------

    def _directions(self, radii: np.ndarray, rng) -> np.ndarray:
        """Uniform point on each walker's shell (exact enumeration)."""
        n = len(radii)
        d, metric = self.model.d, self.model.metric
        if d == 1:
            return (radii * _SIGNS[rng.integers(0, 2, n)])[:, None]
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

    def _jump(self, pos: np.ndarray, rng) -> np.ndarray:
        """One jump of every walker; exact under pair suppression (resample)."""
        n = len(pos)
        new = pos + self._directions(
            self.profile.radii(rng.random(n) * self.total), rng)
        p = self.model.pair
        if p is not None:
            x0, y0 = p[0], p[1]
            while True:
                bad = (self._at(pos, x0) & self._at(new, y0)) | \
                      (self._at(pos, y0) & self._at(new, x0))
                if not np.any(bad):
                    break
                idx = np.nonzero(bad)[0]
                new[idx] = pos[idx] + self._directions(
                    self.profile.radii(rng.random(len(idx)) * self.total), rng)
        return new

    # -- stream plumbing -------------------------------------------------------

    def _streams(self, n: int):
        """Deterministic split of n walkers across independent RNG streams."""
        seqs = np.random.SeedSequence(self.seed).spawn(N_STREAMS)
        sizes = [n // N_STREAMS + (1 if i < n % N_STREAMS else 0)
                 for i in range(N_STREAMS)]
        return [(np.random.default_rng(sq), sz)
                for sq, sz in zip(seqs, sizes) if sz > 0]


def _finish(estimand, samples, truncated, seed, extra=None) -> EstimateReport:
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n == 0:
        raise ValueError("all trajectories hit the step cap")
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return EstimateReport(estimand=estimand, estimate=float(samples.mean()),
                          se=se, n=n, seed=seed, truncated=truncated,
                          extra=extra or {})


def sample_exit_time(sampler: TrajectorySampler, x, x0, R,
                     n: int) -> EstimateReport:
    """Unbiased Monte Carlo mean of tau_{B(x0,R)} started at x.

    Capped trajectories are excluded from the mean and counted; exclusion
    biases the estimate downward.
    """
    model = sampler.model
    out, truncated = [], 0
    for rng, size in sampler._streams(n):
        idx = np.arange(size)
        pos = np.tile(np.asarray(x, dtype=np.int64), (size, 1))
        t = np.zeros(size)
        tau = np.empty(size)
        steps = 0
        while len(idx):
            if steps >= STEP_CAP:
                truncated += len(idx)
                break
            q = sampler._row_sum(pos) / model.mu_rule.at(pos)
            t += rng.exponential(1.0, len(idx)) / q
            pos = sampler._jump(pos, rng)
            done = sampler._outside(pos, x0, R)
            tau[idx[done]] = t[done]
            keep = ~done
            idx, pos, t = idx[keep], pos[keep], t[keep]
            steps += 1
        out.extend(np.delete(tau, idx).tolist())
    return _finish("exit_time", out, truncated, sampler.seed,
                   {"x": list(x), "x0": list(x0), "R": R})


def hit_before_exit(sampler: TrajectorySampler, x, y, x0, R,
                    n: int) -> EstimateReport:
    """P^x(T_y <= tau_{B(x0,R)}); jump-chain simulation (times not needed)."""
    out, truncated = [], 0
    for rng, size in sampler._streams(n):
        pos = np.tile(np.asarray(x, dtype=np.int64), (size, 1))
        hit = sampler._at(pos, y).astype(float)
        idx = np.flatnonzero(hit == 0.0)
        pos = pos[idx]
        steps = 0
        while len(idx):
            if steps >= STEP_CAP:
                truncated += len(idx)
                break
            pos = sampler._jump(pos, rng)
            hits = sampler._at(pos, y)
            keep = ~(hits | sampler._outside(pos, x0, R))
            hit[idx[hits]] = 1.0
            idx, pos = idx[keep], pos[keep]
            steps += 1
        out.extend(np.delete(hit, idx).tolist())
    return _finish("hit_before_exit", out, truncated, sampler.seed,
                   {"x": list(x), "y": list(y), "x0": list(x0), "R": R})


def sample_position_sup(r1: int, alpha: float, T: float, n: int, seed: int,
                        lam: float | None = None,
                        mu: float = 1.0) -> EstimateReport:
    """Running-sup statistics of the pure single-range component on Z.

    The component jumps +-r1 at rate delta/mu each way with
    delta = r1^{-1-alpha} log r1 per direction pair; Y_T = sup_{s<=T} |X_s|.
    Estimates E Y_T^2 and P(Y_T >= lam) and compares them with the maximal
    bounds E Y_T^2 <= 4 r1^2 delta T and
    P(Y_T >= lam) <= 4 T log r1 / (lam^2 r1^{alpha-1}).
    """
    if lam is None:
        lam = float(r1)
    delta = float(r1) ** (-(1.0 + alpha)) * math.log(r1)
    rate = 2.0 * delta / mu  # total jump rate (both directions)
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
    se_y2 = float(y2.std(ddof=1) / math.sqrt(n))
    ind = (y >= lam).astype(float)
    p_lam = float(ind.mean())
    se_p = float(ind.std(ddof=1) / math.sqrt(n))
    doob = 4.0 * r1 ** 2 * delta * T
    cheb = 4.0 * T * math.log(r1) / (lam ** 2 * float(r1) ** (alpha - 1.0))
    return EstimateReport(
        estimand="position_sup", estimate=e_y2, se=se_y2, n=n, seed=seed,
        extra={"E_Y2": e_y2, "se_E_Y2": se_y2, "doob_bound": doob,
               "doob_ok": e_y2 <= doob + 3 * se_y2,
               "lam": lam, "P_ge_lam": p_lam, "se_P": se_p,
               "cheb_bound": cheb, "cheb_ok": p_lam <= cheb + 3 * se_p,
               "r1": r1, "alpha": alpha, "T": T, "delta": delta})


def sample_occupation(sampler: TrajectorySampler, x, t: float, n: int) -> dict:
    """Empirical law of X_t over n paths: {vertex: count}; heat-kernel oracle."""
    counts: dict = {}
    for rng, size in sampler._streams(n):
        idx = np.arange(size)
        pos = np.tile(np.asarray(x, dtype=np.int64), (size, 1))
        clock = np.zeros(size)
        final = np.empty_like(pos)
        while len(idx):
            q = sampler._row_sum(pos) / sampler.model.mu_rule.at(pos)
            clock += rng.exponential(1.0, len(idx)) / q
            over = clock > t
            final[idx[over]] = pos[over]
            keep = ~over
            idx, pos, clock = idx[keep], pos[keep], clock[keep]
            if len(idx):
                pos = sampler._jump(pos, rng)
        for key in map(tuple, final.tolist()):
            counts[key] = counts.get(key, 0) + 1
    return counts
