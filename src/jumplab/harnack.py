"""Parabolic and elliptic Harnack constants of space-time boxes.

The nonnegative caloric functions on a window form a cone.  On a fixed time
grid every field produced by `caloric_solve` is a nonnegative combination of
finitely many extreme generators: initial point masses, one-step exterior
impulses at each tracked vertex, and one-step impulses on the aggregate
remainder channel.  Since a ratio of nonnegative mixtures is bounded by the
largest component ratio, the box constant of the cone equals the maximum
two-point ratio over the generators, which is what these routines compute.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ExteriorOutOfRange, WindowUnconverged
from .models import EXTERIOR_TRACKED, FiniteModel, KILLED, LatticeModel, truncate
from .semigroup import (
    CaloricField,
    expm_action,
    generator,
    integrated_action,
    solve_generator,
    step_operators,
)

FLOOR = 1e-30


@dataclass(frozen=True)
class HarnackBox:
    """Q = (0,T) x B(x0,R) with T = lam * R^alpha and the two probe sub-boxes
    Q- = [T/4,T/2] x B(x0,R/2), Q+ = [3T/4,T] x B(x0,R/2)."""

    x0: tuple
    R: float
    alpha: float
    lam: float = 1.0
    m_steps: int = 256

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise ValueError("lam must lie in (0, 1]")
        if self.R <= 0:
            raise ValueError("R must be positive")
        if self.m_steps % 4 != 0:
            raise ValueError("m_steps must be divisible by 4 so the grid "
                             "contains the quarter times exactly")

    @property
    def T(self) -> float:
        return self.lam * float(self.R) ** self.alpha

    def minus_steps(self) -> range:
        return range(self.m_steps // 4, self.m_steps // 2 + 1)

    def plus_steps(self) -> range:
        return range(3 * self.m_steps // 4, self.m_steps + 1)

    def to_dict(self):
        return {"x0": list(self.x0), "R": self.R, "alpha": self.alpha,
                "lam": self.lam, "T": self.T, "m_steps": self.m_steps}


@dataclass
class HarnackReport:
    box: dict
    constant: float
    witness: dict
    family_sizes: dict
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _half_ball_slots(fm: FiniteModel, x0, R) -> list[int]:
    return [i for i, v in enumerate(fm.window)
            if fm.model.distance(x0, v) <= R / 2]


def _age_reductions(W: np.ndarray, E: np.ndarray, half: list[int], m: int):
    """Reduce the fields E^a W, a = 0..m-1, over the half ball once per age.

    Returns four (m, columns) arrays: the column max and the first half-ball
    slot attaining it, then the column min and the first slot attaining it.
    """
    shape = (m, W.shape[1])
    hi, lo = np.empty(shape), np.empty(shape)
    hi_row = np.empty(shape, dtype=np.int64)
    lo_row = np.empty(shape, dtype=np.int64)
    for age in range(m):
        vals = W[half]
        hi[age], hi_row[age] = vals.max(axis=0), vals.argmax(axis=0)
        lo[age], lo_row[age] = vals.min(axis=0), vals.argmin(axis=0)
        if age < m - 1:
            W = E @ W
    return hi, hi_row, lo, lo_row


def _scan_generators(fm: FiniteModel, box: HarnackBox, tol: float):
    """Stream all cone generators through the box, reducing each age once.

    A source generator launched at step si has value E^(j-si-1) S_aug[:, w]
    at grid step j > si, so it only ever shows the fields E^a S_aug at ages
    a = 0..m-1; the initial fields E^j diag(1/mu) are those of a launch at
    si = 0 from E diag(1/mu).  Returns (init, src, half, ops), where `init`
    and `src` are the `_age_reductions` of the two families over the half
    ball; `_collect` folds them per launch step.
    """
    m = box.m_steps
    dt = box.T / m
    ops = step_operators(fm, dt, tol)
    E = ops.E
    # exterior channels plus the aggregate remainder channel share the scan
    S_aug = np.concatenate([ops.S, ops.s_rem[:, None]], axis=1)
    half = _half_ball_slots(fm, box.x0, box.R)
    init = _age_reductions(E @ np.diag(1.0 / fm.mu), E, half, m)
    src = _age_reductions(S_aug, E, half, m)
    return init, src, half, ops


def _fold(red, si: int, minus: range, plus: range):
    """Ratios sup_{Q-} / inf_{Q+} of the generators launched at step si.

    Grid step j shows age j - 1 - si, so each of Q- and Q+ is one contiguous
    window of ages, clipped at 0.  argmax/argmin return the first age
    attaining the extreme, and each age stores the first half-ball slot
    attaining it, so the witnesses are the first attained in (step, slot)
    order.  A generator whose sup over Q- is not > 0 gets ratio -inf.
    Returns None when no step of Q- follows the launch.
    """
    hi, hi_row, lo, lo_row = red
    a0, a1 = max(minus.start - 1 - si, 0), minus.stop - 1 - si
    if a0 >= a1:
        return None
    b0, b1 = max(plus.start - 1 - si, 0), plus.stop - 1 - si
    cols = np.arange(hi.shape[1])
    am = a0 + hi[a0:a1].argmax(axis=0)
    ap = b0 + lo[b0:b1].argmin(axis=0)
    mm, mp = hi[am, cols], lo[ap, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mp < FLOOR, np.inf, mm / mp)
    ratio[~(mm > 0.0)] = -np.inf
    return ratio, (am + si + 1, hi_row[am, cols]), (ap + si + 1, lo_row[ap, cols])


def _collect(fm: FiniteModel, box: HarnackBox, init, src, half):
    """Fold the per-age reductions into (constant, witness).

    For each launch step, `_fold` takes every generator's sup over Q- and inf
    over Q+ with one argmax and one argmin over a contiguous window of ages.
    Within a generator the first-attained (step, then half-ball slot)
    witness wins, and a sup over Q- that is not > 0 disqualifies it.  Across
    generators the order is initial fields (window order), then source
    impulses by (launch step, channel), and only a strictly greater ratio
    replaces the current best.
    """
    m = box.m_steps
    channels = list(fm.exterior) + ["remainder"]
    times = np.linspace(0.0, box.T, m + 1)
    launches = [(("initial",), fm.window, init, 0)]
    launches += [(("source", si), channels, src, si) for si in range(m)]

    best = -math.inf
    best_wit = None
    for prefix, labels, red, si in launches:
        folded = _fold(red, si, box.minus_steps(), box.plus_steps())
        if folded is None:
            continue
        ratio, (jm, rm), (jp, rp) = folded
        c = int(ratio.argmax())
        if ratio[c] > best:
            best = ratio[c]
            best_wit = {"generator": prefix + (labels[c],),
                        "minus": (float(times[jm[c]]), fm.window[half[rm[c]]]),
                        "plus": (float(times[jp[c]]), fm.window[half[rp[c]]])}
    return best, best_wit


def _doubled(name: str, c: float, c2: float, lam_ext: float) -> float:
    """Accept the constant c2 recomputed with twice the tracked annulus.

    Two infinite constants agree; otherwise c and c2 must both be finite and
    within 5% of each other, else WindowUnconverged.  Returns c2.
    """
    if not (math.isinf(c) and math.isinf(c2)):
        if math.isinf(c) != math.isinf(c2) or abs(c2 - c) > 0.05 * min(c, c2):
            raise WindowUnconverged(
                f"{name} moved from {c} to {c2} when doubling the tracked "
                f"exterior radius (lam_ext {lam_ext} -> {2 * lam_ext})")
    return c2


def _phi_once(model: LatticeModel, box: HarnackBox, lam_ext: float, tol: float):
    fm = truncate(model, box.x0, 2 * box.R, EXTERIOR_TRACKED, lam_ext)
    init, src, half, ops = _scan_generators(fm, box, tol)
    best, wit = _collect(fm, box, init, src, half)
    return fm, max(best, 1.0), wit, ops.err


def phi_constant(model: LatticeModel, box: HarnackBox, lam_ext: float = 4.0,
                 tol: float = 1e-12, check_doubling: bool = True) -> HarnackReport:
    """Exact box constant of the nonnegative caloric cone on the time grid:
    C_P = max over generators of sup_{Q-} g / inf_{Q+} g.

    Exterior data beyond the tracked annulus enters through one aggregate
    remainder channel; `check_doubling` recomputes with twice the annulus and
    raises WindowUnconverged if the constant moves by more than 5%.
    """
    fm, c_p, wit, err = _phi_once(model, box, lam_ext, tol)
    doubled = None
    if check_doubling:
        doubled = _doubled("C_P", c_p, _phi_once(model, box, 2 * lam_ext, tol)[1],
                           lam_ext)
    n_ext = len(fm.exterior)
    return HarnackReport(
        box=box.to_dict(), constant=c_p, witness=wit,
        family_sizes={"initial": fm.n,
                      "source": box.m_steps * (n_ext + 1)},
        metadata={"window_radius": 2 * box.R, "lam_ext": lam_ext,
                  "exterior_radius": lam_ext * 2 * box.R,
                  "n_exterior": n_ext, "m_steps": box.m_steps,
                  "floor": FLOOR, "step_error": err,
                  "doubled_constant": doubled})


def caloric_box_ratio(fld: CaloricField, box: HarnackBox) -> float:
    """sup_{Q-} u / inf_{Q+} u for a caloric field on the box's grid."""
    fm = fld.fm
    half = _half_ball_slots(fm, box.x0, box.R)
    minus = list(box.minus_steps())
    plus = list(box.plus_steps())
    sup = float(fld.values[np.ix_(minus, half)].max())
    inf = float(fld.values[np.ix_(plus, half)].min())
    if sup <= 0.0:
        return 0.0
    if inf < FLOOR:
        return math.inf
    return sup / inf


# ---------------------------------------------------------------------------
# elliptic constant
# ---------------------------------------------------------------------------

def _ehi_once(model: LatticeModel, x0, R, lam_ext: float):
    """(fm, C_EHI, witness, generators on B(x0,R)): column w of the last is
    h_w on the ball's slots, the remainder channel last."""
    fm = truncate(model, x0, 2 * R, EXTERIOR_TRACKED, lam_ext)
    rhs = np.concatenate([fm.coupling / fm.mu[:, None],
                          fm.remainder_kill[:, None]], axis=1)
    H = solve_generator(fm, rhs)
    inner = [i for i, v in enumerate(fm.window)
             if fm.model.distance(x0, v) <= R]
    channels = list(fm.exterior) + ["remainder"]
    best = -math.inf
    wit = None
    sub = H[inner]
    for ci, ch in enumerate(channels):
        col = sub[:, ci]
        hi = float(col.max())
        if hi <= 0.0:
            continue
        lo = float(col.min())
        ratio = math.inf if lo < FLOOR else hi / lo
        if ratio > best:
            best = ratio
            wit = {"generator": ("exterior", ch),
                   "max_at": fm.window[inner[int(col.argmax())]],
                   "min_at": fm.window[inner[int(col.argmin())]]}
    return fm, max(best, 1.0), wit, sub


def ehi_constant(model: LatticeModel, x0, R, lam_ext: float = 4.0,
                 check_doubling: bool = True) -> HarnackReport:
    """C_EHI = max over exterior-delta harmonic generators h_w of
    max_{B(x0,R)} h_w / min_{B(x0,R)} h_w, on the window B(x0,2R)."""
    fm, c, wit, _ = _ehi_once(model, x0, R, lam_ext)
    doubled = None
    if check_doubling:
        doubled = _doubled("C_EHI", c, _ehi_once(model, x0, R, 2 * lam_ext)[1],
                           lam_ext)
    return HarnackReport(
        box={"x0": list(x0), "R": R, "elliptic": True},
        constant=c, witness=wit,
        family_sizes={"exterior": len(fm.exterior) + 1},
        metadata={"window_radius": 2 * R, "lam_ext": lam_ext,
                  "n_exterior": len(fm.exterior), "floor": FLOOR,
                  "doubled_constant": doubled})


def harmonic_partition_residual(model: LatticeModel, x0, R,
                                lam_ext: float = 4.0) -> float:
    """max_x |sum_w h_w(x) + h_rem(x) - 1| over B(x0,R): the harmonic
    generators of data == 1 must sum to the constant function."""
    h = _ehi_once(model, x0, R, lam_ext)[3]
    return float(np.abs(h.sum(axis=1) - 1.0).max())


# ---------------------------------------------------------------------------
# first-jump exit density
# ---------------------------------------------------------------------------

def first_jump_density(model: LatticeModel, x0, R, y0, T: float, h: float,
                       x=None, lam_ext: float = 4.0, tol: float = 1e-12):
    """h^{-1} P^x(X_{tau_B} = y0, tau_B in (T/2-h, T/2)) for B = B(x0,R).

    Computed exactly from the killed semigroup: the probability equals
    int_{T/2-h}^{T/2} [e^{sQ_B} kappa](x) ds = [e^{(T/2-h)Q_B} int_0^h e^{sQ_B}
    kappa ds](x) with kappa(z) = J(z,y0)/mu_z.  With T = 2h the value
    converges to mu_x^{-1} J(x,y0) as h -> 0 (relative error O(h)).
    Requires y0 outside B but within the tracked range lam_ext*R.
    """
    if not (0.0 < h <= T / 2):
        raise ValueError("need 0 < h <= T/2")
    dist = model.distance(x0, y0)
    if dist <= R:
        raise ValueError("y0 must lie outside the ball")
    if dist > lam_ext * R:
        raise ExteriorOutOfRange(
            f"y0 at distance {dist} exceeds the tracked range {lam_ext * R}")
    fm = truncate(model, x0, R, KILLED)
    gen = generator(fm)
    kappa = np.array([model.J(z, y0) for z in fm.window]) / fm.mu
    acc, _ = integrated_action(gen, kappa, h, tol)
    acc, _ = expm_action(gen, acc, T / 2 - h, tol)
    vals = acc / h
    if x is None:
        return vals
    return float(vals[fm.index[x]])
