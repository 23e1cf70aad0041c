"""Parabolic and elliptic Harnack constants of space-time boxes.

The nonnegative caloric functions on a window form a cone.  On a fixed time
grid every field produced by `caloric_solve` is a nonnegative combination of
finitely many extreme generators: initial point masses and one-step impulses
on each source channel of the window (each tracked exterior vertex, and the
aggregate remainder).  Since a ratio of nonnegative mixtures is bounded by the
largest component ratio, the box constant of the cone equals the maximum
two-point ratio over the generators, which is what these routines compute.

Constants are exact extremes; witnesses follow one tie rule, so rounding
noise between mirror-image vertices cannot pick them: among values within
relative EPS of an extreme take the first (an infinite extreme ties only with
an equal value), and replace a witness only by a ratio larger by more than EPS.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import WindowUnconverged
from .models import (
    EXTERIOR_TRACKED,
    FiniteModel,
    KILLED,
    LatticeModel,
    _pair_rates,
    truncate,
)
from .semigroup import (
    CaloricField,
    expm_action,
    generator,
    integrated_action,
    solve_generator,
    step_operators,
)

FLOOR = 1e-30
# Relative gap below which two values tie when a witness is picked.
EPS = 1e-12
# Radius of the tracked exterior annulus, in units of the window radius; the
# doubling check recomputes every constant at twice it.
LAM_EXT = 4.0


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


def _first_near(vals: np.ndarray, sign: float = 1.0, top=None):
    """(index, extreme) along axis 0: the max for sign = +1, the min for
    sign = -1, and the first index within relative EPS of `top` (default that
    extreme; an infinite one ties only if equal), or else at the extreme."""
    v = vals if sign > 0 else -vals
    own = v.max(axis=0)
    top = own if top is None else sign * top
    slack = EPS * np.abs(np.where(np.isfinite(top), top, 0.0))
    return (v >= np.minimum(top - slack, own)).argmax(axis=0), sign * own


def _ratio(hi, lo):
    """sup / inf per generator: inf if the inf is below FLOOR, -inf if sup <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lo < FLOOR, np.inf, hi / lo)
    return np.where(hi > 0.0, ratio, -np.inf)


class _Family(NamedTuple):
    """Fields E^a start[:, c] with each age's half-ball max (hi), min (lo)."""

    hi: np.ndarray
    lo: np.ndarray
    start: np.ndarray
    E: np.ndarray


def _age_reductions(W: np.ndarray, E: np.ndarray, half: list[int], m: int):
    """The `_Family` of the fields E^a W, a = 0..m-1, reduced once per age
    as I[half] E^a W: the half-ball rows are stepped, not the n of E^a W."""
    hi, lo = np.empty((m, W.shape[1])), np.empty((m, W.shape[1]))
    rows = np.eye(len(E))[half]
    for age in range(m):
        vals = rows @ W
        hi[age], lo[age] = vals.max(axis=0), vals.min(axis=0)
        rows = rows @ E
    return _Family(hi, lo, W, E)


def _scan_generators(fm: FiniteModel, box: HarnackBox):
    """Stream all cone generators through the box, reducing each age once.

    A source generator launched at step si has value E^(j-si-1) S[:, c] at
    grid step j > si, so it only ever shows the fields E^a S at ages
    a = 0..m-1; the initial fields E^j diag(1/mu) are those of a launch at
    si = 0 from E diag(1/mu).  Returns (init, src, half, ops), where `init`
    and `src` are the `_Family` of each kind, reduced from I[half] E^a W
    for W = E diag(1/mu) and S; `_collect` folds them per launch step.
    """
    m, half = box.m_steps, fm.ball_slots(box.x0, box.R / 2)
    ops = step_operators(fm, box.T / m)
    init = _age_reductions(ops.E @ np.diag(1.0 / fm.mu), ops.E, half, m)
    src = _age_reductions(ops.S, ops.E, half, m)
    return init, src, half, ops


def _launch(fam: _Family, si: int, minus: range, plus: range):
    """(ratios sup_{Q-} / inf_{Q+}, (Q- ages, Q+ ages)) of the generators
    launched at step si < minus.stop - 1.  Grid step j shows age j - 1 - si,
    so each of Q- and Q+ is one slice of ages, clipped at 0, and the sup and
    inf are the exact extremes over it."""
    ages = (slice(max(minus.start - 1 - si, 0), minus.stop - 1 - si),
            slice(max(plus.start - 1 - si, 0), plus.stop - 1 - si))
    return _ratio(fam.hi[ages[0]].max(axis=0), fam.lo[ages[1]].min(axis=0)), ages


def _fold(fam: _Family, si: int, c: int, minus: range, plus: range):
    """(minus age, plus age, sup, inf) of generator c launched at step si:
    each witness age is the first within relative EPS of its extreme."""
    am, ap = _launch(fam, si, minus, plus)[1]
    im, sup = _first_near(fam.hi[am, c])
    ip, inf = _first_near(fam.lo[ap, c], -1.0)
    return am.start + int(im), ap.start + int(ip), sup, inf


def _collect(fm: FiniteModel, box: HarnackBox, init, src, half):
    """Fold the per-age reductions into (constant, witness).

    The constant is the largest ratio.  Generators run initial fields (window
    order), then source impulses by (launch step, channel), and each replaces
    the witness only when its ratio is larger by more than EPS; launches
    from step minus.stop - 1 on show no step of Q-.  Only the winner's
    witness ages are searched (`_fold`), and its column is recomputed to
    them, where each witness slot is the first half-ball slot within EPS of
    its sup over Q- (inf over Q+).
    """
    minus, plus = box.minus_steps(), box.plus_steps()
    times = np.linspace(0.0, box.T, box.m_steps + 1)
    launches = [(("initial",), fm.window, init, 0)]
    launches += [(("source", si), fm.channels, src, si)
                 for si in range(minus.stop - 1)]

    best, wit_ratio, win = -math.inf, -math.inf, None
    for prefix, labels, fam, si in launches:
        ratio = _launch(fam, si, minus, plus)[0]
        best = max(best, ratio.max())
        c = 0
        while (later := ratio[c:] > wit_ratio * (1.0 + EPS)).any():
            c += int(later.argmax())
            wit_ratio = ratio[c]
            win = (prefix + (labels[c],), fam, si, c)
    if win is None:
        return best, None
    generator, fam, si, c = win
    am, ap, mm, mp = _fold(fam, si, c, minus, plus)
    fields = [fam.start[:, c]]
    for _ in range(max(am, ap)):
        fields.append(fam.E @ fields[-1])
    sm = _first_near(fields[am][half], top=mm)[0]
    sp = _first_near(fields[ap][half], -1.0, top=mp)[0]
    return best, {"generator": generator,
                  "minus": (float(times[am + si + 1]), fm.window[half[sm]]),
                  "plus": (float(times[ap + si + 1]), fm.window[half[sp]])}


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


def _phi_once(model: LatticeModel, box: HarnackBox, lam_ext: float):
    fm = truncate(model, box.x0, 2 * box.R, EXTERIOR_TRACKED, lam_ext)
    init, src, half, ops = _scan_generators(fm, box)
    best, wit = _collect(fm, box, init, src, half)
    return fm, max(best, 1.0), wit, ops.err


def phi_constant(model: LatticeModel, box: HarnackBox) -> HarnackReport:
    """Exact box constant of the nonnegative caloric cone on the time grid:
    C_P = max over generators of sup_{Q-} g / inf_{Q+} g.

    Exterior data beyond the tracked annulus enters through one aggregate
    remainder channel; the constant is recomputed with twice the annulus, and
    WindowUnconverged is raised if it moves by more than 5%.
    """
    fm, c_p, wit, err = _phi_once(model, box, LAM_EXT)
    doubled = _doubled("C_P", c_p, _phi_once(model, box, 2 * LAM_EXT)[1],
                       LAM_EXT)
    return HarnackReport(
        box=box.to_dict(), constant=c_p, witness=wit,
        family_sizes={"initial": fm.n,
                      "source": box.m_steps * len(fm.channels)},
        metadata={"window_radius": 2 * box.R, "lam_ext": LAM_EXT,
                  "exterior_radius": LAM_EXT * 2 * box.R,
                  "n_exterior": len(fm.exterior), "m_steps": box.m_steps,
                  "floor": FLOOR, "step_error": err,
                  "doubled_constant": doubled})


def caloric_box_ratio(fld: CaloricField, box: HarnackBox) -> float:
    """sup_{Q-} u / inf_{Q+} u for a caloric field on the box's grid."""
    half = fld.fm.ball_slots(box.x0, box.R / 2)
    sup = fld.values[np.ix_(list(box.minus_steps()), half)].max()
    inf = fld.values[np.ix_(list(box.plus_steps()), half)].min()
    return max(float(_ratio(sup, inf)), 0.0)


# ---------------------------------------------------------------------------
# elliptic constant
# ---------------------------------------------------------------------------

def _ehi_once(model: LatticeModel, x0, R, lam_ext: float):
    """(fm, C_EHI, witness, generators on B(x0,R)): column w of the last is
    h_w on the ball's slots, the remainder channel last."""
    fm = truncate(model, x0, 2 * R, EXTERIOR_TRACKED, lam_ext)
    H = solve_generator(fm, fm.sources)
    inner = fm.ball_slots(x0, R)
    sub = H[inner]
    rmax, hi = _first_near(sub)
    rmin, lo = _first_near(sub, -1.0)
    c, best = _first_near(_ratio(hi, lo))
    wit = None
    if best > -math.inf:
        wit = {"generator": ("exterior", fm.channels[c]),
               "max_at": fm.window[inner[rmax[c]]],
               "min_at": fm.window[inner[rmin[c]]]}
    return fm, max(best, 1.0), wit, sub


def ehi_constant(model: LatticeModel, x0, R) -> HarnackReport:
    """C_EHI = max over exterior-delta harmonic generators h_w of
    max_{B(x0,R)} h_w / min_{B(x0,R)} h_w, on the window B(x0,2R), checked
    against twice the annulus as `phi_constant` is."""
    fm, c, wit, _ = _ehi_once(model, x0, R, LAM_EXT)
    doubled = _doubled("C_EHI", c, _ehi_once(model, x0, R, 2 * LAM_EXT)[1],
                       LAM_EXT)
    return HarnackReport(
        box={"x0": list(x0), "R": R, "elliptic": True},
        constant=c, witness=wit,
        family_sizes={"exterior": len(fm.channels)},
        metadata={"window_radius": 2 * R, "lam_ext": LAM_EXT,
                  "n_exterior": len(fm.exterior), "floor": FLOOR,
                  "doubled_constant": doubled})


def harmonic_partition_residual(model: LatticeModel, x0, R) -> float:
    """max_x |sum_w h_w(x) + h_rem(x) - 1| over B(x0,R): the harmonic
    generators of data == 1 must sum to the constant function."""
    h = _ehi_once(model, x0, R, LAM_EXT)[3]
    return float(np.abs(h.sum(axis=1) - 1.0).max())


# ---------------------------------------------------------------------------
# first-jump exit density
# ---------------------------------------------------------------------------

def first_jump_density(model: LatticeModel, x0, R, y0, T: float, h: float,
                       x=None):
    """(value, err): value is h^{-1} P^x(X_{tau_B} = y0, tau_B in (T/2-h, T/2))
    for B = B(x0,R), at x or (x None) on the whole window.

    Computed exactly from the killed semigroup: the probability equals
    int_{T/2-h}^{T/2} [e^{sQ_B} kappa](x) ds = [e^{(T/2-h)Q_B} int_0^h e^{sQ_B}
    kappa ds](x) with kappa(z) = J(z,y0)/mu_z.  With T = 2h the value
    converges to mu_x^{-1} J(x,y0) as h -> 0 (relative error O(h)).  err is
    the certified max-norm error; the killed semigroup contracts the max norm,
    so the first step's error passes the second undiminished.  Requires y0
    outside B, at any distance: kappa is exact there.
    """
    if not (0.0 < h <= T / 2):
        raise ValueError("need 0 < h <= T/2")
    if model.distance(x0, y0) <= R:
        raise ValueError("y0 must lie outside the ball")
    fm = truncate(model, x0, R, KILLED)
    gen = generator(fm)
    kappa = _pair_rates(model, fm.window, [y0])[:, 0] / fm.mu
    acc, e_int = integrated_action(gen, kappa, h)
    acc, e_exp = expm_action(gen, acc, T / 2 - h)
    vals, err = acc / h, (e_int + e_exp) / h
    if x is None:
        return vals, err
    return float(vals[fm.index[x]]), err
