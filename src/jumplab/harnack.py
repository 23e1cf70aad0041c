"""Parabolic and elliptic Harnack constants of space-time boxes.

The constant of a box of radius R and height T is taken over a cone: the
nonnegative functions caloric on (0, T) x B(x0, 2R), the truncation window,
with both probe boxes Q-, Q+ in B(x0, R/2).  On a fixed time grid, with
exterior data constant over each step, every such field is a nonnegative
combination of finitely many extreme generators: initial point masses and
one-step impulses on each source channel of the window (each tracked
exterior vertex, and the aggregate remainder).  Since a ratio of nonnegative
mixtures is bounded by the largest component ratio, the box constant of the
cone equals the maximum two-point ratio over the generators, which is what
these routines compute.

The parabolic scan reads the generators only on the half ball of the probe
boxes, in one pass over the ages for both families.  It forms the rows
I[half] E^a of the one-step propagator E a block of ages at a time, within
TILE_BYTES, each age by one GEMM on the age before.  The source family
multiplies each block by a chunk of launch columns in one GEMM, the product
within TILE_BYTES; the initial family E^a diag(1/mu) is gathered from the
rows one age later.  It keeps each half-ball max only at the ages that Q-
shows to some launch step, and each min only at those Q+ shows; then one
sliding-window fold of each gives the sup and inf of every launch step at
once, so a family of generators has one (launch step x column) matrix of
ratios.  Max and min select values and all factors are nonnegative, so
every value keeps its relative accuracy.  The witness's ages and slots come
from one vector walk of the winning launch column, w -> E w an age at a
time.

Both scans run one generator per symmetry orbit.  The signed coordinate
permutations that fix x0 and keep the suppressed pair and mu
(`LatticeModel.symmetries`) keep the kernel, the window, the annulus and the
half ball, so they permute the generators and keep their ratios (to
rounding).  Only the first member of each orbit in window or channel order
is formed and scanned, the remainder channels on their own: `truncate`
lists the first vertex and the size of each orbit of the annulus,
`_channels` builds one source column per orbit, and the initial fields are
taken at the first slot of each window orbit (`_representatives`); on Z^2
that is about one column in eight.

The doubling check compares each constant with the one of twice the tracked
annulus.  The window, its kill rates and E do not depend on the annulus, and
the first annulus is the part of the doubled one within its radius, so each
constant truncates once, at 2 LAM_EXT, and scans or solves once; the two
constants are maxima over two sets of columns of that result.  `_channels`
builds the columns of both annuli as one array, each remainder by one rule:
the kill rate less the annulus' J, summed through the orbits.

Constants are exact extremes; witnesses follow one tie rule, so rounding
noise between mirror-image vertices cannot pick them: among values within
relative EPS of an extreme take the first (an infinite extreme ties only with
an equal value), and replace a witness only by a ratio larger by more than EPS.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import WindowUnconverged
from .models import (
    EXTERIOR_TRACKED,
    FiniteModel,
    LatticeModel,
    _pair_rates,
    truncate,
)
from .semigroup import TILE_COLS, _chunks, solve_generator, step_operators

FLOOR = 1e-30
# Relative gap below which two values tie when a witness is picked.
EPS = 1e-12
# Radius of the tracked exterior annulus, in units of the window radius; the
# doubling check compares every constant with the one at twice it.
LAM_EXT = 4.0
# One GEMM of the cone scan multiplies the half-ball rows of a block of ages
# by a chunk of at most TILE_COLS columns (`semigroup._chunks`); the rows
# and the product each take
# at most TILE_BYTES (or one age, if one age alone is larger).  Larger tiles
# run the GEMMs faster but raise the peak memory of scans with few columns.
# Both are buffers the scan owns, sized once and written with `out=`: a tile
# near TILE_BYTES is above malloc's mmap threshold, so a fresh one per GEMM
# would be mapped, page-faulted in and unmapped again on every call.
TILE_BYTES = 1 << 18
# Entries per call of a sliding-window pass: wide arrays take s rows a call,
# which numpy vectorizes, and narrow ones few calls.
SLIDE_ENTRIES = 4096
# Steps of the time grid on (0, T); a multiple of 4, so the grid holds the
# quarter times that bound Q- and Q+.
M_STEPS = 256


@dataclass(frozen=True)
class HarnackBox:
    """A box of radius R at x0 and height T = lam * R^alpha, with the probe
    sub-boxes Q- = [T/4,T/2] x B(x0,R/2) and Q+ = [3T/4,T] x B(x0,R/2).
    `phi_constant` takes its cone on (0,T) x B(x0,2R), the truncation
    window, not on (0,T) x B(x0,R)."""

    x0: tuple
    R: float
    alpha: float
    lam: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise ValueError("lam must lie in (0, 1]")
        if self.R <= 0:
            raise ValueError("R must be positive")

    @property
    def T(self) -> float:
        return self.lam * float(self.R) ** self.alpha

    def minus_steps(self) -> range:
        return range(M_STEPS // 4, M_STEPS // 2 + 1)

    def plus_steps(self) -> range:
        return range(3 * M_STEPS // 4, M_STEPS + 1)

    def to_dict(self):
        return {"x0": self.x0, "R": self.R, "alpha": self.alpha,
                "lam": self.lam, "T": self.T, "m_steps": M_STEPS}


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


def _age_blocks(E: np.ndarray, half: np.ndarray, block: int, stop: int):
    """Yield (a0, stack) with stack[j] = I[half] E^(a0 + j), over the ages
    0..stop-1 in blocks of `block` (the last may be shorter).  Each row is
    one GEMM on the row before, stack[j] = stack[j - 1] E (a block's first
    on the last row of the block before), so every age has the bits of
    stepping one age at a time.  `stack` is reused: it is read before the
    next block is asked for."""
    h = len(half)
    stack = np.zeros((block, h, len(E)))
    stack[0, np.arange(h), half] = 1.0
    for a0 in range(0, stop, block):
        k = min(block, stop - a0)
        for j in range(0 if a0 else 1, k):
            np.dot(stack[j - 1], E, out=stack[j])
        yield a0, stack[:k]


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
    """Generators launched at steps first..first+L-1 from the columns of W
    and stepped by E: ratio[r, c] is sup over Q- / inf over Q+ of the one
    launched from column c at step first + r, the generator `labels[c]`.
    `launch(c)` gives W[:, c], for a walk by `_fold`, and `half` the
    half-ball slots its values are read at."""

    ratio: np.ndarray
    launch: Callable
    first: int
    labels: list
    E: np.ndarray
    half: np.ndarray

    def take(self, cols: np.ndarray) -> "_Family":
        """The family of the columns `cols` alone, in that order."""
        return self._replace(ratio=self.ratio[:, cols],
                             launch=lambda c: self.launch(cols[c]),
                             labels=[self.labels[i] for i in cols])


def _representatives(fm: FiniteModel) -> np.ndarray:
    """The window slots that come first in their orbit (`fm.slot_maps`)."""
    return np.flatnonzero(fm.slot_maps.min(axis=0) == np.arange(fm.n))


def _channels(fm: FiniteModel, x0, radius: float):
    """(slots, sources, labels, inner, n_inner): the representative window
    slots; the (n, k + 2) source columns of the cone, labelled by `labels`:
    one channel per orbit of the tracked annulus (`fm.exterior`), its
    remainder, and the remainder of the first annulus, B(x0, radius) less
    the window; `inner` the first annulus' columns, its remainder last, and
    n_inner its vertex count.

    A channel's column is mu_x^{-1} J(x, c) for its orbit's first vertex c.
    The first annulus is a mask over the channels.  The symmetries keep
    B(x0, radius), so no orbit crosses the mask, and its vertex count is the
    sum of the masked orbit sizes.  Each remainder is max(kill - mu^{-1}
    J(x, annulus), 0), the J summed through the orbits
    (`FiniteModel.annulus_sum`).  The one array is built in this layout and
    divided and filled in place."""
    k = len(fm.exterior)
    ball = set(fm.model.ball(x0, radius))
    near = np.array([w in ball for w in fm.exterior], dtype=bool)
    sources = _pair_rates(fm.model, fm.window, fm.exterior, 2)
    sources[:, :k] /= fm.mu[:, None]
    for c, mask in ((k, np.ones(k, dtype=bool)), (k + 1, near)):
        sources[:, c] = np.maximum(
            fm.kill - fm.annulus_sum(sources[:, :k], mask), 0.0)
    return (_representatives(fm), sources,
            [*fm.exterior, "remainder", "remainder"],
            np.append(np.flatnonzero(near), k + 1),
            int(fm.orbits[near].sum()))


def _scan_generators(fm: FiniteModel, box: HarnackBox, slots: np.ndarray,
                     sources: np.ndarray, labels: list):
    """Stream the cone generators through the box in one pass over the ages
    a = 0..m, reducing each age once.

    A source generator launched at step si has value E^(j-si-1) S[:, c] at
    grid step j > si, so it only ever shows the fields E^a S at ages
    a = 0..m-1; the initial fields E^j diag(1/mu) are a launch at step -1
    from W = diag(1/mu), so their values are the rows of the age blocks at
    the slots, over mu.  Launches from step m/2 on show no step of Q-, so
    the sources launch at steps 0..m/2-1: their Q- reads ages [0, m/2) and
    their Q+ ages [m/4, m), and only those half-ball maxima and minima are
    formed.  S is formed for the columns of `sources`, written over them
    (see `step_operators`), and the initial fields at `slots` only.  The
    rows I[half] E^a come a block of ages at a time (`_age_blocks`), as many
    as fit TILE_BYTES, and each family's values at a block go into one
    buffer sized once per scan.  Returns (init, src,
    ops), the `_Family` of each kind and the step operators.
    """
    m = M_STEPS
    half = np.array(fm.ball_slots(box.x0, box.R / 2))
    ops = step_operators(fm, box.T / m, sources)
    n, h, mu = fm.n, len(half), fm.mu[slots]
    chunks, init_chunks = _chunks(ops.S.shape[1]), _chunks(len(slots))
    width = chunks[0].stop - chunks[0].start
    block = min(max(TILE_BYTES // (8 * h * max(width, n)), 1), m + 1)
    buf = np.empty(block * h * max(width, init_chunks[0].stop))

    def tile(st, c):
        """The (len(st), h, columns of c) product of a block, a view of buf."""
        return buf[:len(st) * h * (c.stop - c.start)].reshape(len(st), h, -1)

    def gather(st, c):
        # mode="clip" keeps np.take from buffering; the slots are in range
        out = np.take(st, slots[c], axis=2, out=tile(st, c), mode="clip")
        return np.divide(out, mu[c], out=out)

    def product(st, c):
        out = tile(st, c)
        np.matmul(st.reshape(-1, n), ops.S[:, c],
                  out=out.reshape(-1, out.shape[2]))
        return out

    minus, plus = box.minus_steps(), box.plus_steps()
    fams = []
    for read, launch, first, launches, labs, cuts in (
            (gather, lambda c: np.eye(1, n, slots[c])[0] / mu[c], -1, 1,
             [fm.window[i] for i in slots], init_chunks),
            (product, lambda c: ops.S[:, c], 0, m // 2, labels, chunks)):
        # the ages some launch shows in Q- (the max) and in Q+ (the min);
        # row r of each array holds age kept.stop - 1 - r
        kept = [range(_ages(w, first + launches - 1).start,
                      _ages(w, first).stop) for w in (minus, plus)]
        outs = [np.empty((len(k), cuts[-1].stop)) for k in kept]
        fams.append((read, launch, first, launches, labs, cuts, kept, outs))
    for a0, stack in _age_blocks(ops.E, half, block, m + 1):
        for read, _, _, _, _, cuts, kept, outs in fams:
            b0 = max(a0, min(k.start for k in kept))
            b1 = min(a0 + len(stack), max(k.stop for k in kept))
            if b0 >= b1:
                continue
            for c in cuts:
                vals = read(stack[b0 - a0:b1 - a0], c)
                for k, out, op in zip(kept, outs, (np.max, np.min)):
                    lo, hi = max(b0, k.start), min(b1, k.stop)
                    if lo < hi:
                        op(vals[lo - b0:hi - b0][::-1], axis=1,
                           out=out[k.stop - hi:k.stop - lo, c])
    init, src = (_Family(_ratio(_slide(hi, len(minus), np.maximum)[:launches],
                                _slide(lo, len(plus), np.minimum)[:launches]),
                         launch, first, labs, ops.E, half)
                 for _, launch, first, launches, labs, _, _, (hi, lo) in fams)
    return init, src, ops


def _fold(fam: _Family, si: int, c: int, minus: range, plus: range):
    """(minus age, plus age, minus slot, plus slot) of generator c launched
    at step si, from its half-ball values walked one age at a time from its
    launch column w (col[a] = w[half], then w = E w): each witness age is
    the first within relative EPS of the extreme over its window, and each
    slot the first half-ball slot there within EPS of it."""
    wm, wp = _ages(minus, si), _ages(plus, si)
    E, half, w = fam.E, fam.half, fam.launch(c)
    col = np.empty((wp.stop, len(half)))
    for a in range(wp.stop):
        col[a] = w[half]
        w = E.dot(w)
    im, sup = _first_near(col[wm.start:wm.stop].max(axis=1))
    ip, inf = _first_near(col[wp.start:wp.stop].min(axis=1), -1.0)
    am, ap = wm.start + int(im), wp.start + int(ip)
    sm = _first_near(col[am], top=sup)[0]
    sp = _first_near(col[ap], -1.0, top=inf)[0]
    return am, ap, int(sm), int(sp)


def _collect(fm: FiniteModel, box: HarnackBox, init: _Family, src: _Family):
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
    times = np.linspace(0.0, box.T, M_STEPS + 1)
    best, wit_ratio, win = -math.inf, -math.inf, None
    for fam in (init, src):
        tops = fam.ratio.max(axis=1)
        best = max(best, tops.max())
        for r in np.flatnonzero(tops > wit_ratio * (1.0 + EPS)):
            ratio, c = fam.ratio[r], 0
            while (later := ratio[c:] > wit_ratio * (1.0 + EPS)).any():
                c += int(later.argmax())
                wit_ratio = ratio[c]
                win = (fam, fam.first + int(r), c)
    if win is None:
        return best, None
    fam, si, c = win
    am, ap, sm, sp = _fold(fam, si, c, minus, plus)
    prefix = ("source", si) if fam is src else ("initial",)
    half = fam.half
    return best, {"generator": prefix + (fam.labels[c],),
                  "minus": (float(times[am + si + 1]), fm.window[half[sm]]),
                  "plus": (float(times[ap + si + 1]), fm.window[half[sp]])}


def _doubled(name: str, c: float, c2: float) -> float:
    """Accept the constant c2 of twice the tracked annulus.

    Two infinite constants agree; otherwise c and c2 must both be finite and
    within 5% of each other, else WindowUnconverged.  Returns c2.
    """
    if not (math.isinf(c) and math.isinf(c2)):
        if math.isinf(c) != math.isinf(c2) or abs(c2 - c) > 0.05 * min(c, c2):
            raise WindowUnconverged(
                f"{name} moved from {c} to {c2} when doubling the tracked "
                f"exterior radius (LAM_EXT {LAM_EXT} -> {2 * LAM_EXT})")
    return c2


def phi_constant(model: LatticeModel, box: HarnackBox) -> HarnackReport:
    """Exact box constant, on the time grid, of the cone of nonnegative
    functions caloric on (0, T) x B(x0, 2R), the truncation window:
    C_P = max over generators of sup_{Q-} g / inf_{Q+} g, with Q- and Q+
    in B(x0, R/2).

    Exterior data beyond the tracked annulus enters through one aggregate
    remainder channel.  The constant with twice the annulus comes from the
    same truncation and scan, a superset of its columns (module docstring),
    and WindowUnconverged is raised if it moves by more than 5%.  The
    witness is searched among the first annulus' generators only.
    """
    r_win = 2 * box.R
    fm = truncate(model, box.x0, r_win, EXTERIOR_TRACKED, 2 * LAM_EXT)
    # S is written over the source matrix, so one (n, k) matrix lives
    # through the scan
    slots, sources, labels, inner, n_inner = _channels(fm, box.x0,
                                                       LAM_EXT * r_win)
    init, src, ops = _scan_generators(fm, box, slots, sources, labels)
    first = src.take(inner)
    # `_ratio` yields no NaN, so these are `_collect`'s constants
    top = max(init.ratio.max(), 1.0)
    c_p = max(top, first.ratio.max())
    doubled = _doubled("C_P", c_p, max(top, src.ratio[:, :-1].max()))
    return HarnackReport(
        box=box.to_dict(), constant=c_p,
        witness=_collect(fm, box, init, first)[1],
        family_sizes={"initial": fm.n,
                      "source": M_STEPS * (n_inner + 1)},
        metadata={"window_radius": r_win, "lam_ext": LAM_EXT,
                  "exterior_radius": LAM_EXT * r_win,
                  "n_exterior": n_inner, "m_steps": M_STEPS,
                  "floor": FLOOR, "step_error": ops.err,
                  "doubled_constant": doubled})


# ---------------------------------------------------------------------------
# elliptic constant
# ---------------------------------------------------------------------------

def ehi_constant(model: LatticeModel, x0, R) -> HarnackReport:
    """C_EHI = max over exterior-delta harmonic generators h_w of
    max_{B(x0,R)} h_w / min_{B(x0,R)} h_w, on the window B(x0,2R), checked
    against twice the annulus as `phi_constant` is: one truncation and one
    solve for the first channel of each symmetry orbit of both annuli
    (`_channels`), read on the ball's slots."""
    if R <= 0:
        raise ValueError("R must be positive")
    fm = truncate(model, x0, 2 * R, EXTERIOR_TRACKED, 2 * LAM_EXT)
    _, sources, labels, first, n_inner = _channels(fm, x0, LAM_EXT * 2 * R)
    inner = fm.ball_slots(x0, R)
    sub = solve_generator(fm, sources)[inner]
    rmax, hi = _first_near(sub)
    rmin, lo = _first_near(sub, -1.0)
    ratio = _ratio(hi, lo)
    c, best = _first_near(ratio[first])
    wit = None
    if best > -math.inf:
        j = first[c]
        wit = {"generator": ("exterior", labels[j]),
               "max_at": fm.window[inner[rmax[j]]],
               "min_at": fm.window[inner[rmin[j]]]}
    c_e = max(best, 1.0)
    doubled = _doubled("C_EHI", c_e, max(ratio[:-1].max(), 1.0))
    return HarnackReport(
        box={"x0": x0, "R": R, "elliptic": True},
        constant=c_e, witness=wit,
        family_sizes={"exterior": n_inner + 1},
        metadata={"window_radius": 2 * R, "lam_ext": LAM_EXT,
                  "n_exterior": n_inner, "floor": FLOOR,
                  "doubled_constant": doubled})
