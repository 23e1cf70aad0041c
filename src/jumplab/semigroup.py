"""Generator, Dirichlet form, heat kernels via uniformization, and caloric solves.

All rates are uniformly bounded, so exp(tQ) is evaluated as a Poisson mixture
of powers of the substochastic jump matrix P = I + Q/Lam with a certified
truncation error.

Which products are matrix-free: `GeneratorView.apply` on a single vector
applies P through the window's `FiniteModel.rates_matvec`, an FFT convolution
on lattice windows (O(n log n) time, O(n) memory), so heat-kernel rows,
`apply_generator` and `dirichlet_form` never build an n x n matrix.  What
stays dense: actions on a matrix (all-pairs heat kernels, the Harnack step
operators) use the BLAS-3 product with the dense P, because the Harnack scans
need per-entry relative accuracy, which an FFT product (accurate relative to
the largest entry) does not give, and at their window sizes GEMM is faster;
`solve_generator` (exit times, harmonic extensions) needs the dense Q.  Both
are built on first read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import poisson

from .errors import (
    InvalidData,
    NoExit,
    NumericalFailure,
    TruncationBudgetExceeded,
)
from .models import EXTERIOR_TRACKED, REFLECTED, FiniteModel

TERM_CAP = 1_000_000


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


def apply_generator(fm: FiniteModel, f: np.ndarray) -> np.ndarray:
    """(Lf)(x) = mu_x^{-1} sum_y (f(y)-f(x)) J(x,y) - kill_x f(x), on the window."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != fm.n:
        raise ValueError("dimension mismatch")
    return generator(fm).apply_Q(f)


def dirichlet_form(fm: FiniteModel, f: np.ndarray, g: np.ndarray | None = None) -> float:
    """(1/2) sum_{x,y in W} (f(x)-f(y))(g(x)-g(y)) J(x,y)."""
    f = np.asarray(f, dtype=float)
    g = f if g is None else np.asarray(g, dtype=float)
    if f.shape[0] != fm.n or g.shape[0] != fm.n:
        raise ValueError("dimension mismatch")
    return float(f @ (fm.row_sums * g) - f @ fm.rates_matvec(g))


# ---------------------------------------------------------------------------
# uniformization primitives
# ---------------------------------------------------------------------------

def _poisson_weights(lt: float, tol: float):
    """Poisson(lt) pmf up to K with sf(K, lt) <= tol; returns (pmf, tail)."""
    k = int(lt + 12.0 * np.sqrt(lt + 1.0) + 30.0)
    while poisson.sf(k, lt) > tol:
        k *= 2
        if k > TERM_CAP:
            raise TruncationBudgetExceeded(
                f"needed more than {TERM_CAP} uniformization terms")
    pmf = poisson.pmf(np.arange(k + 1), lt)
    return pmf, float(poisson.sf(k, lt))


def expm_action(gen: GeneratorView, V: np.ndarray, t: float,
                tol: float = 1e-12) -> tuple[np.ndarray, float]:
    """(exp(tQ) V, certified max-norm error bound)."""
    V = np.asarray(V, dtype=float)
    if t == 0.0:
        return V.copy(), 0.0
    scale = float(np.abs(V).max()) if V.size else 0.0
    if scale == 0.0:
        return V.copy(), 0.0
    pmf, tail = _poisson_weights(gen.lam * t, tol / max(scale, 1e-300))
    acc = pmf[0] * V
    work = V
    for k in range(1, len(pmf)):
        work = gen.apply(work)
        acc = acc + pmf[k] * work
    return acc, tail * scale


def integrated_action(gen: GeneratorView, V: np.ndarray, t: float,
                      tol: float = 1e-12) -> tuple[np.ndarray, float]:
    """(int_0^t exp(sQ) V ds, certified error bound).

    Uses int_0^t e^{-Lam s}(Lam s)^k/k! ds = sf(k, Lam t)/Lam.
    """
    V = np.asarray(V, dtype=float)
    if t == 0.0:
        return np.zeros_like(V), 0.0
    scale = float(np.abs(V).max()) if V.size else 0.0
    if scale == 0.0:
        return np.zeros_like(V), 0.0
    lt = gen.lam * t
    # remaining weight after K terms is t - sum_{k<=K} sf(k,lt)/lam
    k = int(lt + 12.0 * np.sqrt(lt + 1.0) + 30.0)
    while True:
        sf = poisson.sf(np.arange(k + 1), lt) / gen.lam
        rem = max(t - float(sf.sum()), 0.0)
        if rem <= tol / max(scale, 1e-300) or k > TERM_CAP:
            break
        k *= 2
    if k > TERM_CAP:
        raise TruncationBudgetExceeded("integrated action term cap exceeded")
    acc = sf[0] * V
    work = V
    for i in range(1, len(sf)):
        work = gen.apply(work)
        acc = acc + sf[i] * work
    return acc, rem * scale


# ---------------------------------------------------------------------------
# heat kernels
# ---------------------------------------------------------------------------

@dataclass
class HeatKernelResult:
    """Heat kernel densities p_t(x, .) with respect to mu, plus truncation bound."""

    fm: FiniteModel
    t: float
    values: np.ndarray        # (n,) or (n, n); p_t(x,y), all-pairs indexed [x, y]
    eps_poisson: float

    def mass(self) -> np.ndarray:
        """sum_y p_t(x,y) mu_y (scalar array for single-source results)."""
        return self.values @ self.fm.mu


def heat_kernel(fm: FiniteModel, x, t: float, tol: float = 1e-12) -> HeatKernelResult:
    """p_t(x, .) (or the full matrix for x=None) via uniformization."""
    if t < 0 or tol <= 0:
        raise ValueError("need t >= 0 and tol > 0")
    gen = generator(fm)
    if x is None:
        T, eps = expm_action(gen, np.eye(fm.n), t, tol)
        dens = T / fm.mu[None, :]
    else:
        # p_t(x,y) = [exp(tQ)]_{xy}/mu_y = [exp(tQ) (e_x/mu_x)]_y by
        # mu-reversibility of Q.
        i = fm.index[x]
        e = np.zeros(fm.n)
        e[i] = 1.0 / fm.mu[i]
        dens, eps = expm_action(gen, e, t, tol)
    return HeatKernelResult(fm=fm, t=t, values=dens, eps_poisson=eps)


def killed_heat_kernel(fm: FiniteModel, x, t: float,
                       tol: float = 1e-12) -> HeatKernelResult:
    if fm.mode == REFLECTED:
        raise ValueError("killed_heat_kernel requires a killed-mode model")
    return heat_kernel(fm, x, t, tol)


def solve_generator(fm: FiniteModel, rhs: np.ndarray) -> np.ndarray:
    """u with -Q u = rhs on the window, by a dense solve.

    A singular Q or a non-finite solution raises NumericalFailure.
    """
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
# caloric solves
# ---------------------------------------------------------------------------

@dataclass
class CaloricField:
    """Nonnegative solution of du/dt = Lu on a time grid x window."""

    fm: FiniteModel
    times: np.ndarray                 # (m+1,)
    values: np.ndarray                # (m+1, n) on the window
    exterior_data: np.ndarray | None  # (m, n_ext) piecewise-constant data
    remainder_data: np.ndarray | None # (m,) data on the aggregate kill channel
    provenance: dict = field(default_factory=dict)

    def at(self, i: int) -> np.ndarray:
        return self.values[i]


@dataclass
class StepOperators:
    """Exact one-step propagators for a uniform time grid."""

    gen: GeneratorView
    dt: float
    E: np.ndarray          # exp(dt Q)
    S: np.ndarray          # int_0^dt exp(sQ) ds @ C  (source response, n x n_ext)
    s_rem: np.ndarray      # same for the aggregate remainder channel
    err: float


def step_operators(fm: FiniteModel, dt: float, tol: float = 1e-12) -> StepOperators:
    if fm.mode != EXTERIOR_TRACKED:
        raise ValueError("caloric solves need an exterior-tracked model")
    gen = generator(fm)
    E, e1 = expm_action(gen, np.eye(fm.n), dt, tol)
    C = fm.coupling / fm.mu[:, None]
    S, e2 = integrated_action(gen, C, dt, tol)
    s_rem, e3 = integrated_action(gen, fm.remainder_kill, dt, tol)
    return StepOperators(gen=gen, dt=dt, E=E, S=S, s_rem=s_rem, err=e1 + e2 + e3)


def caloric_solve(fm: FiniteModel, initial, exterior_data, T: float,
                  m_steps: int = 256, tol: float = 1e-12,
                  remainder_data=None, ops: StepOperators | None = None) -> CaloricField:
    """Solve du/dt = Lu on the window with given initial and exterior data.

    Exterior data, an (m_steps, n_exterior) array or None for zero, and
    remainder data, an (m_steps,) array or None, are piecewise constant on
    the uniform grid and integrated exactly per step, so the discrete caloric
    residual is the truncation tolerance of the step operators.
    """
    initial = np.asarray(initial, dtype=float)
    if initial.shape[0] != fm.n:
        raise InvalidData("initial data has wrong length")
    if np.any(initial < 0):
        raise InvalidData("initial data must be nonnegative")
    times = np.linspace(0.0, T, m_steps + 1)
    shape = (m_steps, len(fm.exterior))
    data = (np.zeros(shape) if exterior_data is None
            else np.asarray(exterior_data, dtype=float))
    if data.shape != shape:
        raise InvalidData(f"exterior data must have shape {shape}")
    if np.any(data < 0):
        raise InvalidData("exterior data must be nonnegative")
    rem = (np.zeros(m_steps) if remainder_data is None
           else np.asarray(remainder_data, dtype=float))
    if np.any(rem < 0):
        raise InvalidData("remainder data must be nonnegative")
    if ops is None:
        ops = step_operators(fm, times[1] - times[0], tol)
    values = np.empty((m_steps + 1, fm.n))
    values[0] = initial
    u = initial
    for i in range(m_steps):
        u = ops.E @ u + ops.S @ data[i] + ops.s_rem * rem[i]
        values[i + 1] = u
    return CaloricField(fm=fm, times=times, values=values,
                        exterior_data=data, remainder_data=rem)


def duhamel_generators(fm: FiniteModel, T: float, m_steps: int = 256,
                       source_steps=None, tol: float = 1e-12,
                       include_remainder: bool = True) -> list[CaloricField]:
    """Extreme rays of the nonnegative caloric cone on (0,T) x window.

    Family (i): initial point masses delta_z / mu_z (fields p^B_t(., z)).
    Family (ii): unit exterior data at one tracked vertex for one grid step
    starting at each source step.  Optionally one aggregate generator for the
    remainder kill channel.
    """
    times = np.linspace(0.0, T, m_steps + 1)
    ops = step_operators(fm, times[1] - times[0], tol)
    out = []
    n_ext = len(fm.exterior)
    for zi, z in enumerate(fm.window):
        init = np.zeros(fm.n)
        init[zi] = 1.0 / fm.mu[zi]
        fld = caloric_solve(fm, init, None, T, m_steps, tol, ops=ops)
        fld.provenance = {"kind": "initial", "z": z}
        out.append(fld)
    if source_steps is None:
        source_steps = list(range(m_steps))
    for si in source_steps:
        for wi, w in enumerate(fm.exterior):
            data = np.zeros((m_steps, n_ext))
            data[si, wi] = 1.0
            fld = caloric_solve(fm, np.zeros(fm.n), data, T, m_steps, tol, ops=ops)
            fld.provenance = {"kind": "source", "step": si, "w": w}
            out.append(fld)
    if include_remainder:
        rem = np.ones(m_steps)
        fld = caloric_solve(fm, np.zeros(fm.n), None, T, m_steps, tol,
                            remainder_data=rem, ops=ops)
        fld.provenance = {"kind": "remainder"}
        out.append(fld)
    return out


def harmonic_extension(fm: FiniteModel, exterior_data,
                       remainder_value: float = 0.0) -> np.ndarray:
    """h with Lh = 0 on the window and h = exterior_data on the tracked annulus."""
    if fm.mode != EXTERIOR_TRACKED:
        raise ValueError("harmonic extension needs an exterior-tracked model")
    g = np.asarray(exterior_data, dtype=float)
    if g.shape[0] != len(fm.exterior):
        raise InvalidData("exterior data has wrong length")
    if np.any(g < 0) or remainder_value < 0:
        raise InvalidData("exterior data must be nonnegative")
    rhs = (fm.coupling / fm.mu[:, None]) @ g + fm.remainder_kill * remainder_value
    return solve_generator(fm, rhs)
