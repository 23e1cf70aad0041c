"""Generator, heat kernels by certified series, exit times, and the one-step
propagators of the Harnack scan.

All rates are uniformly bounded, so P = I + Q/Lam is substochastic and
exp(tQ) is evaluated as a series in P with a certified truncation error.  Two
series, one per kind of operand:

- Matrices go through `step_operators`, which takes the Poisson mixture
  (uniformization) sum_k pmf_k P^k V up to the least K whose tail
  sf(K, Lam t) meets tol, with the dense P (`_series`).  Its terms are
  nonnegative on nonnegative data, so the sum keeps the per-entry relative
  accuracy the Harnack scans need.  It sums E = exp(dt Q) and
  W = int_0^dt exp(sQ) ds on the n x n window in one pass over the powers
  and takes S = W sources by one GEMM; `integrated_action`, the same
  integral on the source columns, is the tests' oracle for S, and
  `perfbench/layertrace.py` times it by name.
- `expm_action` takes vectors only (heat-kernel rows, `check_hkp`), by the
  Chebyshev series exp(tQ) v = sum_k c_k T_k(P) v with c_0 = ive(0, Lam t) and
  c_k = 2 ive(k, Lam t), ive(k, x) = I_k(x) e^-x, about
  sqrt(2 Lam t ln(1/tol)) terms (Tal-Ezer & Kosloff, J. Chem. Phys. 81
  (1984)).  Its terms cancel, so its error is relative to the norm of v,
  but so is that of the FFT product a vector goes through.  J is symmetric, so P is
  self-adjoint in l2(mu); by Gershgorin its spectrum lies in [-1, 1], so
  ||T_k(P)||_mu <= 1, and as |f(x)| <= ||f||_mu / sqrt(min mu) the max-norm
  error is at most sum_{k>K} c_k * ||v||_mu / sqrt(min mu).  For a point
  mass on n equal weights that is sqrt(n) times below the bound through
  max|v|, sum_{k>K} c_k * sqrt(mu(W)/min mu) * max|v|.

Both weight sets come from recurrences in numpy (`_poisson_table`, `_ive`),
within 5e-15 relative of mpmath up to Lam t = 3.3e7.

Which products are matrix-free: `GeneratorView.apply` applies P to a vector
through the window's `FiniteModel.rates_matvec`, an FFT convolution on
lattice windows (O(n log n) time, O(n) memory), so heat-kernel rows and
`GeneratorView.apply_Q` never build an n x n matrix, and neither do exit
times: `solve_generator` on a positive vector and a lattice window runs
conjugate gradients on the same product, preconditioned by the window box's
Strang circulant, with an a-posteriori relative error bound at every slot
(`_cg_solve`).  What stays dense: the Poisson mixture uses the BLAS-3
product with the dense P, as the FFT product (accurate relative to the
largest entry) would lose the per-entry accuracy above, and at the step
operators' window sizes GEMM is faster; `solve_generator` on a matrix (the
elliptic Harnack generators) or on an explicit graph solves with the dense
Q.  Both are built on first read.

The series loops own their buffers: the Poisson mixture's P work goes into
two arrays in turn; a Chebyshev step runs in place with one scratch vector;
the FFT product and the Strang solve keep their zero-padded box.  Each
writes the same ufuncs on the same operands with `out=`, so the bits are
those of fresh arrays, and a term past malloc's mmap threshold (128 KiB) is
not mapped and page-faulted in anew at every step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoExit, NumericalFailure, TruncationBudgetExceeded
from .models import REFLECTED, FiniteModel

TERM_CAP = 1_000_000
# Certified max-norm error each series is truncated to.
TOL = 1e-12
# CG solves stop once the recomputed residual is at most CG_RTOL of the
# right-hand side at every slot, or once it stalls at the rounding floor of
# the window; CG_MAXITER caps the iterations.
CG_RTOL = 1e-12
CG_MAXITER = 20_000
# `_ive` takes the power series below this x, where Miller's recurrence
# could overflow (see there).
IVE_SERIES_X = 1e-8
# Columns per GEMM of S = W sources (`step_operators`) and of the cone
# scan's tiles (`harnack`), in equal chunks (`_chunks`).
TILE_COLS = 512


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

    def apply(self, v: np.ndarray) -> np.ndarray:
        """P v for a vector v, matrix-free."""
        return v + self.apply_Q(v) / self.lam


def generator(fm: FiniteModel) -> GeneratorView:
    out_rate = fm.row_sums / fm.mu + fm.kill
    lam = float(out_rate.max()) if fm.n else 0.0
    if lam == 0.0:
        lam = 1.0
    return GeneratorView(fm=fm, out_rate=out_rate, lam=lam)


# ---------------------------------------------------------------------------
# series primitives
# ---------------------------------------------------------------------------

def _chunks(width: int) -> list[slice]:
    """Equal chunks of at most TILE_COLS of `width` columns."""
    size = -(-width // -(-width // TILE_COLS))
    return [slice(c0, min(c0 + size, width)) for c0 in range(0, width, size)]


def _within_cap(k: int, cap: int = TERM_CAP) -> int:
    """k, or TruncationBudgetExceeded before a series of k terms is built."""
    if k > cap:
        raise TruncationBudgetExceeded(f"needed more than {cap} series terms")
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


def _poisson_cutoff(lt: float, tol: float, cap: int = TERM_CAP):
    """(pmf[0..K], sf[0..K]) for the least K with sf(K, lt) <= tol, searched
    on the doubling ladder from lt + 12 sqrt(lt+1) + 30, up to `cap`."""
    k = _within_cap(int(lt + 12.0 * np.sqrt(lt + 1.0) + 30.0), cap)
    while True:
        pmf, sf = _poisson_table(lt, k)
        fits = np.flatnonzero(sf <= tol)
        if fits.size:
            K = int(fits[0])
            return pmf[:K + 1], sf[:K + 1]
        k = _within_cap(2 * k, cap)


def _ive(n: int, x: float) -> np.ndarray:
    """ive(0..n, x) = I_k(x) e^-x for x > 0, by Miller's backward recurrence
    I_{k-1} = (2k/x) I_k + I_{k+1} from index n + 30 + 10 sqrt(x), normalised
    by e^x = I_0 + 2 sum_{k>=1} I_k; values are rescaled past 1e250.

    Below IVE_SERIES_X the recurrence's factor 2k/x could overflow in one
    step, so the leading terms of the power series are taken instead:
    ive(k, x) = e^-x (x/2)^k / k! (1 + (x/2)^2 / (k+1)), whose next term is
    below 1e-33 relative.  Beyond k = 170, where k! leaves the doubles,
    (x/2)^k has long underflowed."""
    if x < IVE_SERIES_X:
        k = np.arange(min(n, 170) + 1)
        fact = np.array([float(math.factorial(j)) for j in k])
        h = x / 2.0
        y = np.zeros(n + 1)
        y[:len(k)] = (np.power(h, k) / fact * (1.0 + h * h / (k + 1))
                      * math.exp(-x))
        return y
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
        if not np.isfinite(w).all():
            raise NumericalFailure(f"non-finite Chebyshev weights at "
                                   f"Lam t = {lt!r}")
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


def _series(gen: GeneratorView, V: np.ndarray, sets: tuple) -> tuple:
    """The sums sum_k w[k] P^k V with the dense P, one per weight sequence
    w of the tuple `sets`, from one pass over the powers.  P work goes into
    two arrays in turn, and each weighted add through the one the product
    has just freed, so a sum's bits do not depend on the other sequences."""
    accs = [w[0] * V for w in sets]
    work = V
    P, bufs = gen.P, (np.empty(V.shape), np.empty(V.shape))
    for i in range(max(map(len, sets)) - 1):
        work = np.matmul(P, work, out=bufs[i % 2])
        for acc, w in zip(accs, sets):
            if i + 1 < len(w):
                acc += np.multiply(w[i + 1], work, out=bufs[1 - i % 2])
    return tuple(accs)


def _chebyshev_series(gen: GeneratorView, v: np.ndarray, coef) -> np.ndarray:
    """sum_k coef[k] T_k(P) v by T_{k+1} = 2 P T_k - T_{k-1}; len(coef) >= 2.
    Each step is formed in place in the array P T_k comes in, and the
    weighted add goes through one scratch vector."""
    prev, work = v, gen.apply(v)
    acc = coef[0] * v + coef[1] * work
    scratch = np.empty_like(work)
    for c in coef[2:]:
        step = gen.apply(work)
        step *= 2.0
        step -= prev
        prev, work = work, step
        acc += np.multiply(c, work, out=scratch)
    return acc


def expm_action(gen: GeneratorView, V: np.ndarray, t: float,
                tol: float = TOL) -> tuple[np.ndarray, float]:
    """(exp(tQ) V, certified max-norm error bound) for a vector V, by the
    Chebyshev series (see the module docstring).  A negative t or a V that
    is not a vector raises ValueError: matrices go through
    `step_operators`, whose Poisson mixture keeps per-entry accuracy.
    """
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    V = np.asarray(V, dtype=float)
    if V.ndim != 1:
        raise ValueError(f"expm_action takes a vector, got shape {V.shape}")
    scale = _input_scale(V, t)
    if scale == 0.0:
        return V.copy(), 0.0
    # max|T_k(P) v| <= ||T_k(P) v||_mu / sqrt(min mu) <= ||v||_mu / sqrt(min mu)
    mu = gen.fm.mu
    bound = scale * float(np.sqrt(mu @ np.square(V / scale) / mu.min()))
    coef, tail = _chebyshev_weights(gen.lam * t, tol / max(bound, 1e-300))
    out = _chebyshev_series(gen, V, coef)
    if V.min() >= 0:
        # exp(tQ) has no negative entry, and clipping only shrinks the error
        out = np.maximum(out, 0.0)
    return out, tail * bound


def _integral_weights(gen: GeneratorView, t: float, scale: float):
    """(w, err) with int_0^t exp(sQ) V ds = sum_k w[k] P^k V within err, for
    V with max|V| = scale.

    Uses int_0^t e^{-Lam s}(Lam s)^k/k! ds = sf(k, Lam t)/Lam.  K is chosen
    by `_poisson_cutoff`; the weight left after K terms is sum_{k>K}
    sf(k, Lam t)/Lam = E[(N-K-1)^+]/Lam <= t sf(K, Lam t), N ~ Poisson(Lam t),
    and as P is substochastic the rest of the series is at most that times
    scale.
    """
    _, sf = _poisson_cutoff(gen.lam * t, TOL / max(scale * t, 1e-300))
    return sf / gen.lam, t * float(sf[-1]) * scale


def integrated_action(gen: GeneratorView, V: np.ndarray,
                      t: float) -> tuple[np.ndarray, float]:
    """(int_0^t exp(sQ) V ds, certified error bound), by the series of
    `_integral_weights`.  `step_operators` forms the same integral as a
    matrix instead; the tests hold it to this."""
    V = np.asarray(V, dtype=float)
    scale = _input_scale(V, t)
    if scale == 0.0:
        return np.zeros_like(V), 0.0
    weights, err = _integral_weights(gen, t, scale)
    return _series(gen, V, (weights,))[0], err


# ---------------------------------------------------------------------------
# heat kernels
# ---------------------------------------------------------------------------

@dataclass
class HeatKernelResult:
    """The heat kernel row p_t(x, .), a density with respect to mu."""

    fm: FiniteModel
    values: np.ndarray        # (n,): p_t(x, y) at each window slot y
    # certified max-norm error of values, the Chebyshev tail; reports carry
    # it as eps_poisson
    eps_poisson: float

    def mass(self) -> float:
        """sum_y p_t(x,y) mu_y."""
        return self.values @ self.fm.mu


def heat_kernel(fm: FiniteModel, x, t: float) -> HeatKernelResult:
    """p_t(x, .) for the vertex x, by the Chebyshev series."""
    # p_t(x,y) = [exp(tQ)]_{xy}/mu_y = [exp(tQ) (e_x/mu_x)]_y by
    # mu-reversibility of Q.
    i = fm.slot(x)
    e = np.zeros(fm.n)
    e[i] = 1.0 / fm.mu[i]
    dens, eps = expm_action(generator(fm), e, t)
    return HeatKernelResult(fm=fm, values=dens, eps_poisson=eps)


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
    nonnegative source rates on the window (such as the cone's columns that
    `harnack._channels` builds).  S is written over `sources`, so a caller
    that reads its sources again passes a copy.

    E = exp(dt Q) and W = int_0^dt exp(sQ) ds are summed on the n x n window
    in one pass over the powers P^j, each to its own cutoff: E's is that of
    the Poisson mixture on the identity (scale 1); W's takes
    scale = max|sources|, as `integrated_action` does.  Then S = W sources
    is one GEMM of nonnegative matrices, so every entry keeps its relative
    accuracy.  The weight W leaves out is a nonnegative series whose row
    sums are at most dt sf(K), so S is within dt sf(K) max|sources|, the
    error `integrated_action` certifies.  The series costs K n^3 flops, and
    S n^2 k, in place of K n^2 k for the series on the k columns.

    S is formed a chunk of at most TILE_COLS columns at a time through one
    buffer, each chunk written over its columns of `sources` after its GEMM
    has read them, so no second n x k matrix is held.
    """
    if dt < 0:
        raise ValueError(f"need dt >= 0, got {dt}")
    gen = generator(fm)
    sources = np.asarray(sources, dtype=float)
    pmf, sf = _poisson_cutoff(gen.lam * dt, TOL)  # the identity's max is 1
    # max|sources| is its max, no entry being negative
    weights, err = _integral_weights(gen, dt, float(sources.max(initial=0.0)))
    E, W = _series(gen, np.eye(fm.n), (pmf, weights))
    chunks = _chunks(sources.shape[1])
    buf = np.empty(fm.n * chunks[0].stop)
    for c in chunks:
        prod = buf[:fm.n * (c.stop - c.start)].reshape(fm.n, -1)
        sources[:, c] = np.matmul(W, sources[:, c], out=prod)
    return StepOperators(E=E, S=sources, err=float(sf[-1]) + err)
