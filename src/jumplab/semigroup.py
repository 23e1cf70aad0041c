"""Generator, heat kernels by certified series, exit times, and the one-step
propagators of the Harnack scan.

All rates are uniformly bounded, so P = I + Q/Lam is substochastic and
exp(tQ) is evaluated as a series in P with a certified truncation error.  Two
series, split by the same `V.ndim` rule as `GeneratorView.apply`:

- A matrix (all-pairs heat kernels, the Harnack step operators) and every
  `integrated_action` take the Poisson mixture (uniformization)
  sum_k pmf_k P^k V up to the least K whose tail sf(K, Lam t) meets tol.
  Its terms are nonnegative on nonnegative data, so the sum keeps the
  per-entry relative accuracy the Harnack scans need.
- A single vector (heat-kernel rows, `check_hkp`) takes the Chebyshev
  series exp(tQ) v = sum_k c_k T_k(P) v with c_0 = ive(0, Lam t) and
  c_k = 2 ive(k, Lam t), ive(k, x) = I_k(x) e^-x, about
  sqrt(2 Lam t ln(1/tol)) terms (Tal-Ezer & Kosloff, J. Chem. Phys. 81
  (1984)).  Its terms cancel, so its error is relative to max|v|, but so is
  that of the FFT product a vector goes through.  J is symmetric, so P is
  self-adjoint in l2(mu); by Gershgorin its spectrum lies in [-1, 1], so
  ||T_k(P)||_mu <= 1 and the max-norm error is at most
  sum_{k>K} c_k * sqrt(mu(W)/min mu) * max|v|.

Both weight sets come from recurrences in numpy (`_poisson_table`, `_ive`),
within 5e-15 relative of mpmath up to Lam t = 3.3e7.

Which products are matrix-free: `GeneratorView.apply` on a single vector
applies P through the window's `FiniteModel.rates_matvec`, an FFT convolution
on lattice windows (O(n log n) time, O(n) memory), so heat-kernel rows and
`GeneratorView.apply_Q` never build an n x n matrix, and neither do exit
times: `solve_generator` on a positive vector and a lattice window runs
conjugate gradients on the same product, preconditioned by the window box's
Strang circulant, with an a-posteriori relative error bound at every slot
(`_cg_solve`).  What stays dense: actions on a matrix use the BLAS-3 product
with the dense P, as the FFT product (accurate relative to the largest entry)
would lose the per-entry accuracy above, and at their window sizes GEMM is
faster; `solve_generator` on a matrix (the elliptic Harnack generators) or on
an explicit graph solves with the dense Q.  Both are built on first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoExit, NumericalFailure, TruncationBudgetExceeded
from .models import EXTERIOR_TRACKED, REFLECTED, FiniteModel

TERM_CAP = 1_000_000
# Certified max-norm error each series is truncated to.
TOL = 1e-12
# CG solves stop once the recomputed residual is at most CG_RTOL of the
# right-hand side at every slot, or once it stalls at the rounding floor of
# the window; CG_MAXITER caps the iterations.
CG_RTOL = 1e-12
CG_MAXITER = 20_000


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@dataclass
class GeneratorView:
    """Uniformized view of the generator of a finite model.

    The total jump-out rate and the uniformization rate `lam` are computed at
    once; the dense `Q` and `P = I + Q/lam` are built on first read.
    """

    fm: FiniteModel
    out_rate: np.ndarray
    lam: float

    @functools.cached_property
    def Q(self) -> np.ndarray:
        Q = self.fm.rates / self.fm.mu[:, None]
        np.fill_diagonal(Q, -self.out_rate)
        return Q

    @functools.cached_property
    def P(self) -> np.ndarray:
        return np.eye(self.fm.n) + self.Q / self.lam

    def apply_Q(self, f: np.ndarray) -> np.ndarray:
        """Q f for a vector f, matrix-free."""
        return self.fm.rates_matvec(f) / self.fm.mu - self.out_rate * f

    def apply(self, V: np.ndarray) -> np.ndarray:
        """P V: matrix-free for a vector, the dense BLAS-3 product for a matrix."""
        if V.ndim == 2:
            return self.P @ V
        return V + self.apply_Q(V) / self.lam


def generator(fm: FiniteModel) -> GeneratorView:
    out_rate = fm.row_sums / fm.mu + fm.kill
    lam = float(out_rate.max()) if fm.n else 0.0
    if lam == 0.0:
        lam = 1.0
    return GeneratorView(fm=fm, out_rate=out_rate, lam=lam)


# ---------------------------------------------------------------------------
# series primitives
# ---------------------------------------------------------------------------

def _within_cap(k: int) -> int:
    """k, or TruncationBudgetExceeded before a series of k terms is built."""
    if k > TERM_CAP:
        raise TruncationBudgetExceeded(f"needed more than {TERM_CAP} series terms")
    return k


def _poisson_table(lt: float, k: int):
    """(pmf[0..k], sf[0..k]) of Poisson(lt), sf(j) = P(N > j).

    The pmf steps out from the mode m = floor(lt) by the ratios
    p_{j+1}/p_j = lt/(j+1), none above 1, so nothing overflows, and is
    normalised by its sum; sf is the reversed cumulative sum from
    40 sqrt(lt+1) + 40 past the mode, where the terms are below 1e-150 of the
    mode's.
    """
    m = int(lt)
    top = max(k, m + int(40.0 * np.sqrt(lt + 1.0)) + 40) + 1
    p = np.empty(top + 1)
    p[m] = 1.0
    p[m + 1:] = np.cumprod(lt / np.arange(m + 1, top + 1))
    p[:m][::-1] = np.cumprod(np.arange(m, 0, -1) / lt)
    tail = np.cumsum(p[::-1])[::-1]  # tail[j] = sum_{i >= j} p_i
    total = p.sum()
    return p[:k + 1] / total, tail[1:k + 2] / total


def _poisson_cutoff(lt: float, tol: float):
    """(pmf[0..K], sf[0..K]) for the least K with sf(K, lt) <= tol, searched
    on the doubling ladder from lt + 12 sqrt(lt+1) + 30."""
    k = _within_cap(int(lt + 12.0 * np.sqrt(lt + 1.0) + 30.0))
    while True:
        pmf, sf = _poisson_table(lt, k)
        fits = np.flatnonzero(sf <= tol)
        if fits.size:
            K = int(fits[0])
            return pmf[:K + 1], sf[:K + 1]
        k = _within_cap(2 * k)


def _ive(n: int, x: float) -> np.ndarray:
    """ive(0..n, x) = I_k(x) e^-x for x > 0, by Miller's backward recurrence
    I_{k-1} = (2k/x) I_k + I_{k+1} from index n + 30 + 10 sqrt(x), normalised
    by e^x = I_0 + 2 sum_{k>=1} I_k; values are rescaled past 1e250."""
    top = n + 30 + int(10.0 * np.sqrt(x))
    y = np.empty(top + 1)
    cur, nxt = 1.0, 0.0  # I_j, I_{j+1} up to a common factor
    for j in range(top, 0, -1):
        y[j] = cur
        cur, nxt = (2.0 * j / x) * cur + nxt, cur
        if cur > 1e250:
            cur, nxt = cur * 1e-250, nxt * 1e-250
            y[j:] *= 1e-250
    y[0] = cur
    return y[:n + 1] / (cur + 2.0 * y[1:].sum())


def _chebyshev_weights(lt: float, tol: float):
    """(c_0..c_K, 2 sum_{k>K} ive(k, lt)) for the least K >= 1 whose tail
    bound is <= tol, where exp(lt (P - I)) = sum_k c_k T_k(P).

    The tail is bounded by Amos (Math. Comp. 28 (1974)): I_{k+1}(x)/I_k(x) <
    r_k = x / (k + 1/2 + sqrt((k + 1/2)^2 + x^2)), decreasing in k, so
    sum_{k>K} ive(k, x) < ive(K+1, x) / (1 - r_{K+1}).
    """
    k = _within_cap(int(np.sqrt(2.0 * lt * max(np.log(1.0 / tol), 1.0))) + 30)
    while True:
        w = _ive(k + 1, lt)
        # tails[K] bounds 2 sum_{k>K} ive(k, lt) by the ratio r_{K+1}
        half = np.arange(1, k + 2) + 0.5
        tails = 2.0 * w[1:] / (1.0 - lt / (half + np.hypot(half, lt)))
        fits = np.flatnonzero(tails[1:] <= tol)
        if fits.size:
            K = int(fits[0]) + 1
            return np.concatenate([w[:1], 2.0 * w[1:K + 1]]), float(tails[K])
        k = _within_cap(2 * k)


def _input_scale(V: np.ndarray, t: float) -> float:
    """max|V|, or 0.0 when t == 0 or V vanishes, where the action is trivial."""
    return float(np.abs(V).max()) if t != 0.0 and V.size else 0.0


def _series(gen: GeneratorView, V: np.ndarray, weights) -> np.ndarray:
    """sum_k weights[k] P^k V."""
    acc = weights[0] * V
    work = V
    for w in weights[1:]:
        work = gen.apply(work)
        acc += w * work
    return acc


def _chebyshev_series(gen: GeneratorView, v: np.ndarray, coef) -> np.ndarray:
    """sum_k coef[k] T_k(P) v by T_{k+1} = 2 P T_k - T_{k-1}; len(coef) >= 2."""
    prev, work = v, gen.apply(v)
    acc = coef[0] * v + coef[1] * work
    for c in coef[2:]:
        prev, work = work, 2.0 * gen.apply(work) - prev
        acc += c * work
    return acc


def expm_action(gen: GeneratorView, V: np.ndarray, t: float,
                tol: float = TOL) -> tuple[np.ndarray, float]:
    """(exp(tQ) V, certified max-norm error bound).

    A vector takes the Chebyshev series, a matrix the Poisson mixture (see the
    module docstring).  A negative t raises ValueError.
    """
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    V = np.asarray(V, dtype=float)
    scale = _input_scale(V, t)
    if scale == 0.0:
        return V.copy(), 0.0
    if V.ndim == 2:
        pmf, sf = _poisson_cutoff(gen.lam * t, tol / max(scale, 1e-300))
        return _series(gen, V, pmf), float(sf[-1]) * scale
    # max|T_k(P) v| <= ||T_k(P) v||_mu / sqrt(min mu) <= growth * max|v|
    growth = float(np.sqrt(gen.fm.mu.sum() / gen.fm.mu.min()))
    coef, tail = _chebyshev_weights(gen.lam * t, tol / max(scale * growth, 1e-300))
    out = _chebyshev_series(gen, V, coef)
    if V.min() >= 0:
        # exp(tQ) has no negative entry, and clipping only shrinks the error
        out = np.maximum(out, 0.0)
    return out, tail * growth * scale


def integrated_action(gen: GeneratorView, V: np.ndarray,
                      t: float) -> tuple[np.ndarray, float]:
    """(int_0^t exp(sQ) V ds, certified error bound).

    Uses int_0^t e^{-Lam s}(Lam s)^k/k! ds = sf(k, Lam t)/Lam.  K is chosen
    by `_poisson_cutoff`; the weight left after K terms is sum_{k>K}
    sf(k, Lam t)/Lam = E[(N-K-1)^+]/Lam <= t sf(K, Lam t), N ~ Poisson(Lam t).
    """
    V = np.asarray(V, dtype=float)
    scale = _input_scale(V, t)
    if scale == 0.0:
        return np.zeros_like(V), 0.0
    _, sf = _poisson_cutoff(gen.lam * t, TOL / max(scale * t, 1e-300))
    return _series(gen, V, sf / gen.lam), t * float(sf[-1]) * scale


# ---------------------------------------------------------------------------
# heat kernels
# ---------------------------------------------------------------------------

@dataclass
class HeatKernelResult:
    """Heat kernel densities p_t(x, .) with respect to mu, plus truncation bound."""

    fm: FiniteModel
    t: float
    values: np.ndarray        # (n,) or (n, n); p_t(x,y), all-pairs indexed [x, y]
    # certified max-norm error of values: the Chebyshev tail for a single
    # source, the Poisson tail for all pairs; reports carry it as eps_poisson
    eps_poisson: float

    def mass(self) -> np.ndarray:
        """sum_y p_t(x,y) mu_y (scalar array for single-source results)."""
        return self.values @ self.fm.mu


def heat_kernel(fm: FiniteModel, x, t: float) -> HeatKernelResult:
    """p_t(x, .) (or the full matrix for x=None) via uniformization."""
    gen = generator(fm)
    if x is None:
        T, eps = expm_action(gen, np.eye(fm.n), t)
        dens = T / fm.mu[None, :]
    else:
        # p_t(x,y) = [exp(tQ)]_{xy}/mu_y = [exp(tQ) (e_x/mu_x)]_y by
        # mu-reversibility of Q.
        i = fm.index[x]
        e = np.zeros(fm.n)
        e[i] = 1.0 / fm.mu[i]
        dens, eps = expm_action(gen, e, t)
    return HeatKernelResult(fm=fm, t=t, values=dens, eps_poisson=eps)


def _cg_solve(fm: FiniteModel, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """(u, rel) with -Q u = rhs for a positive vector rhs on a lattice window,
    by preconditioned conjugate gradients (Hestenes & Stiefel, J. Res. NBS 49
    (1952)) on A u = mu rhs, and |u - exact| <= rel * u at every slot.

    A = mu (-Q) = diag(mu out_rate) - J_W = diag(J(x, G)) - J_W does not
    depend on mu.  Its diagonal is J(x, G), the same at every slot but the
    ends of a suppressed pair, so A is Toeplitz (block-Toeplitz on Z^2) up
    to the pair's rank-2 term and its two diagonal entries.  The
    preconditioner is the Strang circulant of that Toeplitz part on the
    window's box (`BoxConvolution.strang`), one FFT pair of the box side per
    iteration; it keeps the iteration count between 8 and 20 on every window
    measured, from 33 to 16,641 states.

    A has rows summing to mu kill; with kill > 0 at every slot it is a
    nonsingular symmetric M-matrix, so A^-1 is entrywise nonnegative.  With
    b = mu rhs and a residual |b - A u| <= delta b at every slot,
    |u - exact| <= A^-1 |b - A u| <= delta exact, hence
    rel = delta / (1 - delta).  delta is the largest |b - A u| / b of a
    recomputed residual plus `rho`, the standard estimate of that residual's
    rounding: eps log2(N) sqrt(n) max(diag) max|u| / min(b) for an FFT of N
    points, which grows with the window as diag/min(b) ~ r^alpha does.

    The true residual is recomputed each time the recursive one falls
    fourfold.  The iteration stops once it is at most CG_RTOL, or once it no
    longer halves between two recomputations and is at most rho (the rounding
    floor of the window).  A zero kill rate, a stall above rho, a delta of 1
    or more, or CG_MAXITER iterations raise NumericalFailure.
    """
    if not (fm.mu * fm.kill).min() > 0.0:
        raise NumericalFailure("CG needs a positive kill rate at every state")
    diag = fm.mu * generator(fm).out_rate
    b = fm.mu * rhs

    def matvec(v):
        return diag * v - fm.rates_matvec(v)

    def size(res):
        return float(np.max(np.abs(res) / b))

    precondition = fm.action.strang(float(diag.max()))

    x = np.zeros_like(b)
    r = b.copy()
    p = np.zeros_like(b)
    rz = 1.0
    check, last = 0.25, np.inf
    for _ in range(CG_MAXITER):
        if size(r) <= check:
            # the recursive residual r drifts from the true one, which stalls
            # at the rounding floor while r keeps falling
            res = size(b - matvec(x))
            if res <= CG_RTOL or res > last / 2:
                rho = (np.finfo(float).eps * math.log2(math.prod(fm.action.shape))
                       * math.sqrt(fm.n) * float(diag.max())
                       * float(np.abs(x).max()) / float(b.min()))
                delta = res + rho
                if res > max(CG_RTOL, rho) or not delta < 1.0:
                    raise NumericalFailure(f"CG stalled at a residual of {res:.2e} "
                                           f"relative, above its rounding {rho:.2e}")
                return x, delta / (1.0 - delta)
            check, last = size(r) / 4, res
        z = precondition(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
        Ap = matvec(p)
        step = rz / float(p @ Ap)
        x += step * p
        r -= step * Ap
    raise NumericalFailure(f"CG did not converge in {CG_MAXITER} iterations")


def solve_generator(fm: FiniteModel, rhs: np.ndarray) -> np.ndarray:
    """u with -Q u = rhs on the window.

    A positive vector rhs (an exit time) on a lattice window is solved
    matrix-free by `_cg_solve`, which never builds Q; any other rhs (a matrix
    for the elliptic Harnack generators) or an explicit graph takes a dense
    solve.  A singular Q, a non-finite solution or a CG run that does not
    converge raises NumericalFailure.
    """
    if np.ndim(rhs) == 1 and fm.action is not None and np.all(rhs > 0):
        return _cg_solve(fm, rhs)[0]
    try:
        u = np.linalg.solve(-generator(fm).Q, rhs)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(str(e)) from e
    if not np.all(np.isfinite(u)):
        raise NumericalFailure("generator solve returned non-finite values")
    return u


def expected_exit_time(fm: FiniteModel) -> np.ndarray:
    """u with Q u = -1; u(x) = E^x tau_W.  Requires a killing boundary."""
    if fm.mode == REFLECTED or not np.any(fm.kill > 0):
        raise NoExit("no killing: exit time is infinite")
    return solve_generator(fm, np.ones(fm.n))


# ---------------------------------------------------------------------------
# step operators
# ---------------------------------------------------------------------------

@dataclass
class StepOperators:
    """Exact one-step propagators for a uniform time grid."""

    E: np.ndarray          # exp(dt Q)
    S: np.ndarray          # int_0^dt exp(sQ) ds @ sources, a column per channel
    err: float


def step_operators(fm: FiniteModel, dt: float,
                   sources: np.ndarray) -> StepOperators:
    """E and S on the grid step dt, for `sources`, an (n, k) matrix of
    source rates on the window (such as the cone's columns that
    `harnack._channels` builds)."""
    if fm.mode != EXTERIOR_TRACKED:
        raise ValueError("step operators need an exterior-tracked model")
    gen = generator(fm)
    E, e1 = expm_action(gen, np.eye(fm.n), dt)
    S, e2 = integrated_action(gen, sources, dt)
    return StepOperators(E=E, S=S, err=e1 + e2)
