"""Parabolic and elliptic Harnack constants of space-time boxes.

The nonnegative caloric functions on a window form a cone.  On a fixed time
grid, with exterior data constant over each step, every such field is a
nonnegative combination of finitely many extreme generators: initial point
masses and one-step impulses on each source channel of the window (each
tracked exterior vertex, and the aggregate remainder).  Since a ratio of
nonnegative mixtures is bounded by the largest component ratio, the box
constant of the cone equals the maximum two-point ratio over the generators,
which is what these routines compute.

The parabolic scan reads the generators only on the half ball of the probe
boxes.  It steps the rows I[half] E^a of the one-step propagator E one age
at a time and multiplies a block of ages by a chunk of launch columns in one
GEMM, its rows and its product each within TILE_BYTES.  It keeps each
half-ball max only at the ages that Q- shows to some launch step, and each
min only at those Q+ shows; then one sliding-window fold of each gives the
sup and inf of every launch step at once, so a family of generators has one
(launch step x column) matrix of ratios.  Max and min select values, they do
not round them.

Both scans run one generator per symmetry orbit.  The signed coordinate
permutations that fix x0 and keep the suppressed pair and mu
(`LatticeModel.symmetries`) keep the kernel, the window, the annulus and the
half ball, so they permute the generators and keep their ratios (to
rounding).  Only the first member of each orbit in window or channel order
is formed and scanned (`_representatives`), the remainder channel on its
own; on Z^2 that is about one column in eight.

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
from .models import EXTERIOR_TRACKED, FiniteModel, LatticeModel, truncate
from .semigroup import solve_generator, step_operators

FLOOR = 1e-30
# Relative gap below which two values tie when a witness is picked.
EPS = 1e-12
# Radius of the tracked exterior annulus, in units of the window radius; the
# doubling check recomputes every constant at twice it.
LAM_EXT = 4.0
# One GEMM of the cone scan multiplies the half-ball rows of a block of ages
# by a chunk of at most TILE_COLS columns; the rows and the product each take
# at most TILE_BYTES (or one age, if one age alone is larger).  Larger tiles
# run the GEMMs faster but raise the peak memory of scans with few columns.
TILE_BYTES = 1 << 18
TILE_COLS = 512
# Entries per call of a sliding-window pass: wide arrays take s rows a call,
# which numpy vectorizes, and narrow ones few calls.
SLIDE_ENTRIES = 4096


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
        if self.m_steps < 4 or self.m_steps % 4 != 0:
            raise ValueError("m_steps must be a positive multiple of 4 so "
                             "the grid contains the quarter times exactly")

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
    """sup / inf per generator, written over hi: inf where the inf is below
    FLOOR, -inf where the sup is not positive."""
    tiny, dead = lo < FLOOR, ~(hi > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(hi, lo, out=hi)
    hi[tiny], hi[dead] = np.inf, -np.inf
    return hi


def _ages(steps: range, si: int) -> range:
    """The ages a generator launched at step si shows at the grid steps
    `steps`: step j shows age j - 1 - si, and no age is below 0."""
    return range(max(steps.start - 1 - si, 0), steps.stop - 1 - si)


def _extremes(W: np.ndarray, E: np.ndarray, half: list[int],
              hi_ages: range, lo_ages: range):
    """(hi, lo): row r is the half-ball max of E^a W at the age
    a = hi_ages.stop - 1 - r (the min at lo_ages.stop - 1 - r), latest age
    first.  The values are read as (I[half] E^a) W: the rows I[half] E^a are
    stepped one age at a time, and a block of ages meets a chunk of columns
    of W in one GEMM whose rows and product each fit in TILE_BYTES."""
    h, n, width = len(half), len(E), W.shape[1]
    last = max(hi_ages.stop, lo_ages.stop) - 1
    chunks = -(-width // TILE_COLS)
    cols = -(-width // chunks)  # equal chunks of at most TILE_COLS columns
    block = min(max(TILE_BYTES // (8 * h * max(cols, n)), 1), last + 1)
    hi, lo = np.empty((len(hi_ages), width)), np.empty((len(lo_ages), width))
    stack, ages = np.empty((block, h, n)), []
    rows = np.eye(n)[half]
    for age in range(last + 1):
        if age in hi_ages or age in lo_ages:
            stack[len(ages)] = rows
            ages.append(age)
        if ages and (len(ages) == block or age == last):
            flat = stack[:len(ages)].reshape(-1, n)
            for c0 in range(0, width, cols):
                vals = (flat @ W[:, c0:c0 + cols]).reshape(len(ages), h, -1)
                for out, kept, op in ((hi, hi_ages, np.max),
                                      (lo, lo_ages, np.min)):
                    i = [k for k, a in enumerate(ages) if a in kept]
                    if i:
                        r = kept.stop - 1 - ages[i[-1]]
                        op(vals[i[0]:i[-1] + 1][::-1], axis=1,
                           out=out[r:r + len(i), c0:c0 + cols])
            ages = []
        rows = rows @ E
    return hi, lo


def _slide(x: np.ndarray, w: int, op) -> np.ndarray:
    """x, with row j replaced in place by op over rows j..j+w-1 (the window
    clipped at the last row): the extreme of every window of w rows.

    The window doubles while it stays within w, then grows by the rest (the
    sliding extremes of van Herk and of Gil & Werman, by doubling).  A pass
    with shift s sets row j to op(row j, row j + s), from row 0 up, in calls
    of at least s rows and SLIDE_ENTRIES entries: a call of s rows does not
    overlap its operand, and in a longer one the output starts before the
    operand with equal strides, so numpy runs it forward with no copy."""
    k, least = 1, -(-SLIDE_ENTRIES // x.shape[1])
    while k < w:
        s = min(k, w - k)
        step = max(s, least)
        for r in range(0, len(x) - s, step):
            e = min(r + step, len(x) - s)
            op(x[r:e], x[r + s:e + s], out=x[r:e])
        k += s
    return x


class _Family(NamedTuple):
    """Generators launched at steps 0..L-1 from the columns of `start` and
    stepped by E: ratio[si, c] is sup over Q- / inf over Q+ of the one
    launched from column c at step si, the generator `labels[c]`."""

    ratio: np.ndarray
    start: np.ndarray
    E: np.ndarray
    labels: list


def _family(W: np.ndarray, E: np.ndarray, half: list[int], box: HarnackBox,
            launches: int, labels: list) -> _Family:
    """The `_Family` of the fields E^a W launched at steps 0..launches-1.

    The half-ball max is formed only at the ages some launch shows in Q-,
    and the min only at those shown in Q+.  Their rows run latest age first,
    so launch si reads the window of rows that starts at row si, and one
    sliding fold of each gives every launch's sup and inf.  The ratios are
    written over the sups."""
    minus, plus = box.minus_steps(), box.plus_steps()
    hi, lo = _extremes(
        W, E, half,
        range(_ages(minus, launches - 1).start, minus.stop - 1),
        range(_ages(plus, launches - 1).start, plus.stop - 1))
    sup = _slide(hi, len(minus), np.maximum)[:launches]
    inf = _slide(lo, len(plus), np.minimum)[:launches]
    return _Family(_ratio(sup, inf), W, E, labels)


def _representatives(fm: FiniteModel, x0) -> tuple[np.ndarray, np.ndarray]:
    """(window slots, source columns) of the first member, in window and
    channel order, of each orbit of `LatticeModel.symmetries(x0)`; the
    remainder channel is its own orbit.  One lookup grid over the box of the
    window and annulus gives the slots of every point's images, and a point
    is a representative if none of them comes first."""
    maps = fm.model.symmetries(x0)
    n_ext = len(fm.exterior)
    if len(maps) == 1:
        return np.arange(fm.n), np.arange(n_ext + 1)
    c = np.asarray(x0, dtype=np.int64)
    pts = np.asarray(fm.window + fm.exterior, dtype=np.int64) - c
    m = int(np.abs(pts).max())
    grid = np.empty((2 * m + 1,) * len(c), dtype=np.int64)
    grid[tuple((pts + m).T)] = np.arange(len(pts))
    images = grid[tuple(np.moveaxis(pts @ maps.transpose(0, 2, 1) + m, -1, 0))]
    first = np.flatnonzero(images.min(axis=0) == np.arange(len(pts)))
    slots = first[first < fm.n]
    return slots, np.append(first[first >= fm.n] - fm.n, n_ext)


def _scan_generators(fm: FiniteModel, box: HarnackBox):
    """Stream one cone generator of each symmetry orbit through the box,
    reducing each age once.

    A source generator launched at step si has value E^(j-si-1) S[:, c] at
    grid step j > si, so it only ever shows the fields E^a S at ages
    a = 0..m-1; the initial fields E^j diag(1/mu) are those of a launch at
    si = 0 from E diag(1/mu).  Launches from step m/2 on show no step of Q-,
    so the sources launch at steps 0..m/2-1: their Q- reads ages [0, m/2)
    and their Q+ ages [m/4, m), and only those half-ball maxima and minima
    are formed, a tile of (I[half] E^a) W at a time.  Only the
    representative columns (`_representatives`) of W and S are formed.
    Returns (init, src, half, ops), where `init` and `src` are the `_Family`
    of each kind, for W = E diag(1/mu) and S.
    """
    m, half = box.m_steps, fm.ball_slots(box.x0, box.R / 2)
    slots, cols = _representatives(fm, box.x0)
    ops = step_operators(fm, box.T / m, fm.sources[:, cols])
    init = _family(ops.E[:, slots] * (1.0 / fm.mu[slots]), ops.E, half, box,
                   1, [fm.window[i] for i in slots])
    src = _family(ops.S, ops.E, half, box, m // 2,
                  [fm.channels[i] for i in cols])
    return init, src, half, ops


def _fold(fam: _Family, half: list[int], si: int, c: int, minus: range,
          plus: range):
    """(minus age, plus age, minus slot, plus slot) of generator c launched
    at step si, from its column recomputed as (I[half] E^a) start[:, c]: each
    witness age is the first within relative EPS of the extreme over its
    window, and each slot the first half-ball slot there within EPS of it."""
    wm, wp = _ages(minus, si), _ages(plus, si)
    rows, col = np.eye(len(fam.E))[half], []
    for _ in range(wp.stop):
        col.append(rows @ fam.start[:, c])
        rows = rows @ fam.E
    col = np.array(col)
    im, sup = _first_near(col[wm].max(axis=1))
    ip, inf = _first_near(col[wp].min(axis=1), -1.0)
    am, ap = wm.start + int(im), wp.start + int(ip)
    sm = _first_near(col[am], top=sup)[0]
    sp = _first_near(col[ap], -1.0, top=inf)[0]
    return am, ap, int(sm), int(sp)


def _collect(fm: FiniteModel, box: HarnackBox, init, src, half):
    """Fold the ratio matrices into (constant, witness).

    The constant is the largest ratio.  Generators run initial fields (window
    order), then source impulses by (launch step, channel), and each replaces
    the witness only when its ratio is larger by more than EPS; only launch
    steps whose largest ratio could replace it are searched.  Only the
    winner's witness ages and slots are searched (`_fold`).  The families
    hold the first member of each symmetry orbit, and its mirror images
    tie with it, so the witness is the one a scan of every generator picks.
    """
    minus, plus = box.minus_steps(), box.plus_steps()
    times = np.linspace(0.0, box.T, box.m_steps + 1)
    best, wit_ratio, win = -math.inf, -math.inf, None
    for fam in (init, src):
        tops = fam.ratio.max(axis=1)
        best = max(best, tops.max())
        for si in np.flatnonzero(tops > wit_ratio * (1.0 + EPS)):
            ratio, c = fam.ratio[si], 0
            while (later := ratio[c:] > wit_ratio * (1.0 + EPS)).any():
                c += int(later.argmax())
                wit_ratio = ratio[c]
                win = (fam, int(si), c)
    if win is None:
        return best, None
    fam, si, c = win
    am, ap, sm, sp = _fold(fam, half, si, c, minus, plus)
    prefix = ("source", si) if fam is src else ("initial",)
    return best, {"generator": prefix + (fam.labels[c],),
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
    """(fm, C_P, (init, src, half), step error) of one scan with the tracked
    annulus at lam_ext; the third is what `_collect` reads for a witness.
    `_ratio` yields no NaN, so C_P is `_collect`'s constant."""
    fm = truncate(model, box.x0, 2 * box.R, EXTERIOR_TRACKED, lam_ext)
    init, src, half, ops = _scan_generators(fm, box)
    c_p = max(init.ratio.max(), src.ratio.max(), 1.0)
    return fm, c_p, (init, src, half), ops.err


def phi_constant(model: LatticeModel, box: HarnackBox) -> HarnackReport:
    """Exact box constant of the nonnegative caloric cone on the time grid:
    C_P = max over generators of sup_{Q-} g / inf_{Q+} g.

    Exterior data beyond the tracked annulus enters through one aggregate
    remainder channel; the constant is recomputed with twice the annulus, and
    WindowUnconverged is raised if it moves by more than 5%.  Only the first
    scan's witness is searched, and its arrays are released before the
    second scan starts.
    """
    fm, c_p, scan, err = _phi_once(model, box, LAM_EXT)
    wit = _collect(fm, box, *scan)[1]
    del scan
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


# ---------------------------------------------------------------------------
# elliptic constant
# ---------------------------------------------------------------------------

def _ehi_once(model: LatticeModel, x0, R, lam_ext: float):
    """(fm, C_EHI, witness): the harmonic generator h_w of each source
    channel w is solved for the first channel of each symmetry orbit only,
    as `_scan_generators` does, and read on the ball's slots."""
    fm = truncate(model, x0, 2 * R, EXTERIOR_TRACKED, lam_ext)
    cols = _representatives(fm, x0)[1]
    inner = fm.ball_slots(x0, R)
    sub = solve_generator(fm, fm.sources[:, cols])[inner]
    rmax, hi = _first_near(sub)
    rmin, lo = _first_near(sub, -1.0)
    c, best = _first_near(_ratio(hi, lo))
    wit = None
    if best > -math.inf:
        wit = {"generator": ("exterior", fm.channels[cols[c]]),
               "max_at": fm.window[inner[rmax[c]]],
               "min_at": fm.window[inner[rmin[c]]]}
    return fm, max(best, 1.0), wit


def ehi_constant(model: LatticeModel, x0, R) -> HarnackReport:
    """C_EHI = max over exterior-delta harmonic generators h_w of
    max_{B(x0,R)} h_w / min_{B(x0,R)} h_w, on the window B(x0,2R), checked
    against twice the annulus as `phi_constant` is."""
    if R <= 0:
        raise ValueError("R must be positive")
    fm, c, wit = _ehi_once(model, x0, R, LAM_EXT)
    doubled = _doubled("C_EHI", c, _ehi_once(model, x0, R, 2 * LAM_EXT)[1],
                       LAM_EXT)
    return HarnackReport(
        box={"x0": list(x0), "R": R, "elliptic": True},
        constant=c, witness=wit,
        family_sizes={"exterior": len(fm.channels)},
        metadata={"window_radius": 2 * R, "lam_ext": LAM_EXT,
                  "n_exterior": len(fm.exterior), "floor": FLOOR,
                  "doubled_constant": doubled})
