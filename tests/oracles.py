"""Brute-force oracles the tests hold jumplab to; nothing in src/jumplab
calls them."""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from jumplab import conditions as cond
from jumplab import harnack as H
from jumplab import montecarlo as mc
from jumplab.models import (
    EXTERIOR_TRACKED,
    KILLED,
    FiniteModel,
    _pair_rates,
    truncate,
)
from jumplab.semigroup import (
    TOL,
    _poisson_cutoff,
    _series,
    generator,
    solve_generator,
    step_operators,
)


# ---------------------------------------------------------------------------
# the whole tracked annulus
# ---------------------------------------------------------------------------

def full_sources(model, x0, r_win, lam_ext=4.0):
    """(exterior, sources) of the annulus B(x0, lam_ext r_win) less the
    window, one channel per vertex: its vertices in ball order, and the
    (n, n_ext + 1) matrix of mu_x^{-1} J(x, w) per vertex w, then the
    remainder max(kill - mu_x^{-1} sum_w J(x, w), 0).  `truncate` builds one
    column per symmetry orbit instead."""
    fm = truncate(model, x0, r_win, KILLED)
    window = set(fm.window)
    exterior = [v for v in model.ball(x0, lam_ext * r_win) if v not in window]
    coupling = _pair_rates(model, fm.window, exterior)
    remainder = np.maximum(fm.kill - coupling.sum(axis=1) / fm.mu, 0.0)
    return exterior, np.column_stack([coupling / fm.mu[:, None], remainder])


def full_window(model, x0, r_win, lam_ext=4.0):
    """(fm, sources): `truncate` in exterior-tracked mode with every annulus
    vertex and every window slot its own orbit, and the channels of
    `full_sources`."""
    fm = truncate(model, x0, r_win, EXTERIOR_TRACKED, lam_ext)
    exterior, sources = full_sources(model, x0, r_win, lam_ext)
    return dataclasses.replace(
        fm, exterior=exterior, orbits=np.ones(len(exterior), dtype=np.int64),
        slot_maps=np.arange(fm.n)[None]), sources


def orbit_window(model, x0, r_win, lam_ext=4.0):
    """(fm, sources): `truncate` in exterior-tracked mode, one channel per
    symmetry orbit, and the columns of `full_sources` at its channels
    (`fm.exterior`), the whole annulus' remainder last."""
    fm = truncate(model, x0, r_win, EXTERIOR_TRACKED, lam_ext)
    exterior, full = full_sources(model, x0, r_win, lam_ext)
    col = {w: i for i, w in enumerate(exterior)}
    return fm, full[:, [col[w] for w in fm.exterior] + [-1]]


def channels(fm) -> list:
    """The labels of fm's source columns: its channels, then "remainder"."""
    return [*fm.exterior, "remainder"]


# ---------------------------------------------------------------------------
# heat kernels
# ---------------------------------------------------------------------------

def poisson_mixture(gen, V, t: float, tol: float = TOL):
    """(exp(tQ) V, certified max-norm error bound) for a matrix V: the
    Poisson mixture sum_k pmf_k P^k V up to the least K whose tail
    sf(K, Lam t) is at most tol / max|V|, the series `step_operators` sums
    for E.  `expm_action` takes vectors, by the Chebyshev series."""
    scale = float(np.abs(V).max())
    pmf, sf = _poisson_cutoff(gen.lam * t, tol / max(scale, 1e-300))
    return _series(gen, V, (pmf,))[0], float(sf[-1]) * scale


def all_pairs_heat_kernel(fm, t: float) -> np.ndarray:
    """p_t(x, y) for every pair of window vertices, indexed [x, y]: the
    Poisson mixture on the identity, over mu_y.  `heat_kernel` gives one
    row, by the Chebyshev series."""
    return poisson_mixture(generator(fm), np.eye(fm.n), t)[0] / fm.mu


# ---------------------------------------------------------------------------
# caloric fields
# ---------------------------------------------------------------------------

@dataclass
class CaloricField:
    """Nonnegative solution of du/dt = Lu on a time grid x window."""

    fm: FiniteModel
    values: np.ndarray                # (m+1, n) on the window

    def at(self, i: int) -> np.ndarray:
        return self.values[i]


def caloric_solve(fm, sources, initial, exterior_data, T: float,
                  m_steps: int, remainder_data=None) -> CaloricField:
    """Solve du/dt = Lu on the window with given initial and exterior data,
    entering through `sources`, one column per channel, the remainder last.

    Exterior data, an (m_steps, n_exterior) array or None for zero, and
    remainder data, an (m_steps,) array or None, are piecewise constant on
    the uniform grid and integrated exactly per step, so the discrete caloric
    residual is the truncation tolerance of the step operators.
    """
    ext = (np.zeros((m_steps, len(fm.exterior))) if exterior_data is None
           else exterior_data)
    rem = np.zeros(m_steps) if remainder_data is None else remainder_data
    data = np.column_stack([ext, rem])  # one column per channel, remainder last
    ops = step_operators(fm, T / m_steps, sources.copy())
    values = np.empty((m_steps + 1, fm.n))
    values[0] = u = np.asarray(initial, dtype=float)
    for i in range(m_steps):
        u = ops.E @ u + ops.S @ data[i]
        values[i + 1] = u
    return CaloricField(fm=fm, values=values)


def duhamel_generators(fm, sources, T: float,
                       m_steps: int) -> list[CaloricField]:
    """Extreme rays of the nonnegative caloric cone on (0,T) x window, each
    field stepped out in full by the one-step propagator E.

    Family (i): initial point masses delta_z / mu_z (fields p^B_t(., z)).
    Family (ii): unit data on one source channel (a tracked vertex or the
    remainder) for one grid step, by (step, channel): zero up to the launch
    step si, then S[:, c] at step si + 1, with S formed from `sources`.
    """
    ops = step_operators(fm, T / m_steps, sources.copy())
    starts = [(0, np.diag(1.0 / fm.mu))]
    starts += [(si + 1, ops.S) for si in range(m_steps)]
    out = []
    for step, W in starts:
        for c in range(W.shape[1]):
            values = np.zeros((m_steps + 1, fm.n))
            values[step] = W[:, c]
            for i in range(step, m_steps):
                values[i + 1] = ops.E @ values[i]
            out.append(CaloricField(fm=fm, values=values))
    return out


def harmonic_extension(fm, sources, exterior_data,
                       remainder_value: float) -> np.ndarray:
    """h with Lh = 0 on the window and h = exterior_data on the tracked
    annulus, remainder_value beyond it, by a dense solve; the data enter
    through `sources`, one column per channel, the remainder last."""
    return np.linalg.solve(-generator(fm).Q,
                           sources @ np.append(exterior_data, remainder_value))


def caloric_box_ratio(fld, box) -> float:
    """sup_{Q-} u / inf_{Q+} u for a caloric field on the box's grid: 0 if
    the sup is not positive, inf if the inf is below FLOOR."""
    half = fld.fm.ball_slots(box.x0, box.R / 2)
    sup = fld.values[np.ix_(list(box.minus_steps()), half)].max()
    inf = fld.values[np.ix_(list(box.plus_steps()), half)].min()
    if not sup > 0.0:
        return 0.0
    return math.inf if inf < H.FLOOR else float(sup / inf)


def harmonic_partition_residual(model, x0, R) -> float:
    """max_x |sum_w h_w(x) + h_rem(x) - 1| over B(x0,R): the harmonic
    generators of data == 1 must sum to the constant function.  One matrix
    solve gives the generator of each channel (one per symmetry orbit), and
    the sum over each orbit is taken through the maps
    (`FiniteModel.annulus_sum`)."""
    fm, sources = orbit_window(model, x0, 2 * R, H.LAM_EXT)
    h = solve_generator(fm, sources)
    every = np.ones(len(fm.exterior), dtype=bool)
    total = fm.annulus_sum(h[:, :-1], every) + h[:, -1]
    return float(np.abs(total[fm.ball_slots(x0, R)] - 1.0).max())


def scan_all(fm, sources, box):
    """(init, src): the `_Family` of each kind of one cone scan of the
    columns `sources` of fm's channels, the initial fields at the first slot
    of each window orbit, with no second annulus."""
    return H._scan_generators(fm, box, H._representatives(fm), sources.copy(),
                              channels(fm))[:2]


def two_scan_phi(model, box) -> dict:
    """`phi_constant` as two truncations and two scans of every generator
    (`full_window`), with the tracked annulus at LAM_EXT and at twice it;
    the witness is the first's."""
    runs = []
    for lam_ext in (H.LAM_EXT, 2 * H.LAM_EXT):
        fm, sources = full_window(model, box.x0, 2 * box.R, lam_ext)
        init, src = scan_all(fm, sources, box)
        runs.append((fm, max(init.ratio.max(), src.ratio.max(), 1.0),
                     init, src))
    (fm, c, init, src), (_, c2, _, _) = runs
    return {"constant": c, "witness": H._collect(fm, box, init, src)[1],
            "family_sizes": {"initial": fm.n,
                             "source": H.M_STEPS * len(channels(fm))},
            "n_exterior": len(fm.exterior), "doubled_constant": c2}


def two_solve_ehi(model, x0, R) -> dict:
    """`ehi_constant` as two truncations and two solves for every channel
    (`full_window`), with the tracked annulus at LAM_EXT and at twice it;
    the witness is the first's."""
    runs = []
    for lam_ext in (H.LAM_EXT, 2 * H.LAM_EXT):
        fm, sources = full_window(model, x0, 2 * R, lam_ext)
        inner = fm.ball_slots(x0, R)
        sub = solve_generator(fm, sources)[inner]
        rmax, hi = H._first_near(sub)
        rmin, lo = H._first_near(sub, -1.0)
        c, best = H._first_near(H._ratio(hi, lo))
        wit = None
        if best > -math.inf:
            wit = {"generator": ("exterior", channels(fm)[c]),
                   "max_at": fm.window[inner[rmax[c]]],
                   "min_at": fm.window[inner[rmin[c]]]}
        runs.append((fm, max(best, 1.0), wit))
    (fm, c, wit), (_, c2, _) = runs
    return {"constant": c, "witness": wit,
            "family_sizes": {"exterior": len(channels(fm))},
            "n_exterior": len(fm.exterior), "doubled_constant": c2}


# ---------------------------------------------------------------------------
# Poincare audits
# ---------------------------------------------------------------------------

def poincare_rayleigh(model, x0, R, alpha: float, f) -> float:
    """Var_mu(f) / (R^alpha * sum_{x,y in B}(f(x)-f(y))^2 J(x,y)) for an audit f."""
    _, _, L, mu = cond._ball_form_matrices(model, x0, R)
    f = np.asarray(f, float)
    fbar = float(f @ mu) / float(mu.sum())
    var = float(((f - fbar) ** 2 * mu).sum())
    form = 2.0 * float(f @ L @ f)
    return var / (float(R) ** alpha * form)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def sample_occupation(sampler, x, t: float, n: int) -> dict:
    """Empirical law of X_t over n paths: {vertex: count}; heat-kernel oracle.

    Raises ValueError if a path makes STEP_CAP jumps before time t: leaving
    it out would bias the law its callers read off counts / n.
    """
    final, _, _, truncated = mc._walk(
        sampler, x, n, lambda post, clock: clock > t, timed=True)
    if truncated:
        raise ValueError(f"{truncated} of {n} paths hit the step cap before t")
    counts: dict = {}
    for key in map(tuple, final.tolist()):
        counts[key] = counts.get(key, 0) + 1
    return counts


_M64 = (1 << 64) - 1
_MULTS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def mix64(z: int) -> int:
    """SplitMix64's output function, in Python integers."""
    z = (z ^ (z >> 30)) * _MULTS[0] & _M64
    z = (z ^ (z >> 27)) * _MULTS[1] & _M64
    return z ^ (z >> 31)


def unmix64(z: int) -> int:
    """The inverse of `mix64`: each xor-shift undone bit block by bit block,
    each odd multiplier by its inverse mod 2^64."""
    def unshift(z, s):
        x = z
        for _ in range(64 // s):
            x = z ^ (x >> s)
        return x
    z = unshift(z, 31)
    z = unshift(z * pow(_MULTS[1], -1, 1 << 64) & _M64, 27)
    return unshift(z * pow(_MULTS[0], -1, 1 << 64) & _M64, 30)


class SplitMix64:
    """The walker's generator one word at a time, in Python integers, after
    Steele, Lea & Flood (OOPSLA 2014): the state starts at mix64(seed) and
    gains 0x9E3779B97F4A7C15 per word, and a word is mix64 of the state."""

    def __init__(self, seed: int):
        self.state = mix64(seed)

    def words(self, n: int) -> list:
        out = []
        for _ in range(n):
            self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
            out.append(mix64(self.state))
        return out
