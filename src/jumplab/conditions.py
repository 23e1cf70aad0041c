"""Quantitative sweeps for the named conditions: fitted extremal constants with witnesses.

Each checker scans a deterministic grid of radii about the model's origin
(or of pairs and times), fits the best constant for its condition, and
records the witness tuple attaining it.  Every radius, gap or range list, a
checker's or an experiment param's, passes `radius_grid`.
Supremum-type constants only grow under grid refinement; infimum-type only
shrink.  "Holds" is always a statement about fitted constants plus stability
across a dyadic sweep, never a proof.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericalFailure, WindowUnconverged
from .models import (
    KILLED,
    REFLECTED,
    LatticeModel,
    _pair_rates,
    require_dense,
    truncate,
)
from .semigroup import expected_exit_time, expm_action, generator

EIG_TOL = 1e-10
# Relative move of a probed heat-kernel value, on doubling the window, above
# which `check_hkp` raises WindowUnconverged.
DOUBLING_MARGIN = 0.01
# Distances from the origin of the pairs of `default_pair_grid`.
PAIR_DISTANCES = (1, 2, 4, 8, 16)
# Ball radii of the UJS/LJS averages in `check_ujs_ljs_js`.
UJS_RADII = (1, 2, 4)


@dataclass
class ConditionReport:
    condition: str
    alpha: float | None
    grid: dict
    constants: dict
    witnesses: dict
    passed: bool | None = None
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def radius_grid(values) -> list:
    """`values` as a list, the one rule for a scale list: ValueError unless
    it is nonempty, strictly increasing and at least 1 throughout."""
    values = list(values)
    if not values:
        raise ValueError("empty list")
    if min(values) < 1:
        raise ValueError(f"need entries of at least 1, got {min(values)}")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"need a strictly increasing list, got {values}")
    return values


def _slope(radii, values) -> float:
    """Least-squares slope of log(values) against log(radii), nan for one
    radius."""
    if len(radii) < 2:
        return math.nan
    return float(np.polyfit(np.log(np.array(radii, dtype=float)),
                            np.log(np.array(values, dtype=float)), 1)[0])


def _fit(rows, col, at, lower: bool = False):
    """(max of row[col] over rows, witness), or the min when `lower`.

    The witness is row[at], or the tuple of row[k] for k in `at` when `at`
    is a tuple.  The comparison is strict, in row order, from -inf (inf when
    `lower`): the first extreme wins, a NaN never wins, and no rows or only
    NaN give (-inf, None), or (inf, None).
    """
    best = math.inf if lower else -math.inf
    wit = None
    for row in rows:
        val = row[col]
        if (val < best) if lower else (val > best):
            best = val
            wit = tuple(row[k] for k in at) if isinstance(at, tuple) else row[at]
    return best, wit


# ---------------------------------------------------------------------------
# volume doubling
# ---------------------------------------------------------------------------

def check_vd(model: LatticeModel, radii) -> ConditionReport:
    """Fits C_V = max V(x,2r)/V(x,r) and the (vd3) ratio floor at the origin;
    fits the V(d) exponent."""
    radii = radius_grid(radii)
    x = model.origin
    rows = []
    for r in radii:
        v1 = model.volume(x, r)
        v2 = model.volume(x, 2 * r)
        ratio = v2 / v1
        rows.append({"center": x, "r": r, "V_r": v1, "V_2r": v2, "ratio": ratio})
    c_v, wit_max = _fit(rows, "ratio", ("center", "r"))
    min_ratio, wit_min = _fit(rows, "ratio", ("center", "r"), lower=True)
    slope = _slope(radii, [row["V_r"] for row in rows])
    floor = 1.0 + c_v ** (-4.0)
    return ConditionReport(
        condition="VD", alpha=None,
        grid={"radii": radii, "centers": [x]},
        constants={"C_V": c_v, "min_ratio": min_ratio,
                   "vd3_floor": floor, "volume_exponent": slope},
        witnesses={"C_V": wit_max, "min_ratio": wit_min},
        passed=min_ratio >= floor,
        metadata={"rows": rows, "volume_exponents": [slope]})


# ---------------------------------------------------------------------------
# heat kernel bounds
# ---------------------------------------------------------------------------

def _hkp_bound(model, x, y, t, alpha):
    R = model.distance(x, y)
    on_diag = 1.0 / model.volume(x, t ** (1.0 / alpha))
    if R == 0:
        return on_diag
    off_diag = t / (model.volume(x, R) * R ** alpha)
    return min(on_diag, off_diag)


def _kernel_rows_at_times(model, r_win, sources, times):
    """p_t(x, .) on the killed window about the origin for each source and
    time (times sorted), and the sum of the certified max-norm errors of all
    steps, which bounds the error of every row."""
    fm = truncate(model, model.origin, r_win, KILLED)
    gen = generator(fm)
    out = {}
    eps = 0.0
    for x in sources:
        i = fm.slot(x)
        v = np.zeros(fm.n)
        v[i] = 1.0 / fm.mu[i]
        prev_t = 0.0
        for t in times:
            v, e = expm_action(gen, v, t - prev_t, 1e-13)
            eps += e
            prev_t = t
            out[(x, t)] = v.copy()
    return fm, out, eps


def check_hkp(model: LatticeModel, alpha: float, pairs, times,
              r_win: int) -> ConditionReport:
    """Fits C1/C2 for LHKP/UHKP over a (x,y,t) grid; also reports UHD at x=y.

    Full-graph kernels are approximated by killed kernels on a window about
    the origin; the window is doubled once and any probed value moving by
    more than DOUBLING_MARGIN (relative) raises WindowUnconverged.  A probed
    value at or below its window's certified error is rounding residue, not
    a heat kernel value, and raises NumericalFailure.
    `metadata["eps_poisson"]` is the summed certified Chebyshev-series error of
    the kernel rows on both windows, a max-norm bound on each probed value.
    """
    pairs = list(pairs)
    times = sorted(set(times))
    sources = sorted(set(x for x, _ in pairs))
    fm1, rows1, eps1 = _kernel_rows_at_times(model, r_win, sources, times)
    fm2, rows2, eps2 = _kernel_rows_at_times(model, 2 * r_win, sources, times)
    probe_rows = []
    for x, y in pairs:
        for t in times:
            p_small = rows1[(x, t)][fm1.slot(y)]
            p = rows2[(x, t)][fm2.slot(y)]
            for value, err in ((p_small, eps1), (p, eps2)):
                if value <= err:
                    raise NumericalFailure(
                        f"p_t({x},{y}) at t={t} is {value:.3g}, within its "
                        f"certified error {err:.3g}: the probe is not "
                        f"resolved; use a larger t")
            if abs(p - p_small) > DOUBLING_MARGIN * p:
                raise WindowUnconverged(
                    f"p_t({x},{y}) at t={t} moved {abs(p - p_small) / p:.2%} "
                    f"when doubling the window from {r_win}")
            bound = _hkp_bound(model, x, y, t, alpha)
            ratio = p / bound
            probe_rows.append({"x": x, "y": y, "t": t, "p": p, "bound": bound,
                               "ratio": ratio})
    c2, wit2 = _fit(probe_rows, "ratio", ("x", "y", "t"))
    c1, wit1 = _fit(probe_rows, "ratio", ("x", "y", "t"), lower=True)
    # UHD over the diagonal pairs, then on-diagonal probes at every source
    # even if no diagonal pair was supplied
    diag = [row for row in probe_rows if row["x"] == row["y"]]
    for x in sources:
        for t in times:
            p = rows2[(x, t)][fm2.slot(x)]
            diag.append({"x": x, "y": x, "t": t,
                         "ratio": p * model.volume(x, t ** (1.0 / alpha))})
    uhd, wit_uhd = _fit(diag, "ratio", ("x", "y", "t"))
    return ConditionReport(
        condition="HKP", alpha=alpha,
        grid={"pairs": pairs, "times": times, "r_win": r_win},
        constants={"C1_lower": c1, "C2_upper": c2, "C_UHD": uhd},
        witnesses={"C1_lower": wit1, "C2_upper": wit2, "C_UHD": wit_uhd},
        metadata={"rows": probe_rows, "eps_poisson": eps1 + eps2})


# ---------------------------------------------------------------------------
# exit times
# ---------------------------------------------------------------------------

def check_exit_time(model: LatticeModel, alpha: float, radii) -> ConditionReport:
    """Fits c1 <= E^x tau_{B(x,r)} / r^alpha <= c2 at the origin x, plus the
    log-log slope of E tau against r as the exponent (nan for one radius)."""
    x = model.origin
    radii = radius_grid(radii)
    rows = []
    for r in radii:
        fm = truncate(model, x, r, KILLED)
        tau = float(expected_exit_time(fm)[fm.slot(x)])
        rows.append({"center": x, "r": r, "E_tau": tau,
                     "ratio": tau / float(r) ** alpha})
    slope = _slope(radii, [row["E_tau"] for row in rows])
    c1, w1 = _fit(rows, "ratio", ("center", "r"), lower=True)
    c2, w2 = _fit(rows, "ratio", ("center", "r"))
    return ConditionReport(
        condition="E_alpha", alpha=alpha,
        grid={"radii": radii, "centers": [x]},
        constants={"c1": c1, "c2": c2, "exponent": slope},
        witnesses={"c1": w1, "c2": w2},
        metadata={"rows": rows})


# ---------------------------------------------------------------------------
# Poincare inequalities
# ---------------------------------------------------------------------------

def _ball_form_matrices(model, x0, R):
    """(ball, A, L, mu) on B(x0, R): jump rates, form Laplacian and measure."""
    fm = truncate(model, x0, R, REFLECTED)
    A = fm.rates
    L = np.diag(A.sum(axis=1)) - A
    return fm.window, A, L, fm.mu


def _component_of_first(A) -> np.ndarray:
    """Mask of the vertices joined to vertex 0 by positive-rate jumps."""
    adj = (A > 0) | (A.T > 0)
    reached = np.zeros(len(A), dtype=bool)
    reached[0] = True
    frontier = reached
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~reached
        reached |= frontier
    return reached


def check_poincare(model: LatticeModel, alpha: float, radii) -> ConditionReport:
    """Optimal C_Q per ball about the origin from the generalized
    eigenproblem 2L f = lam M f, M = diag(mu).

    C_Q(B) = 1/(R^alpha * lam_plus) with lam_plus the smallest nonzero
    eigenvalue on the mean-zero subspace (constant vector deflated by taking
    the second-smallest eigenvalue; exact optimum over all f).  The balls
    nest, so the largest is held to the dense byte budget before the first
    eigensolve, and an oversized last radius raises WindowTooLarge at once.
    """
    x0 = model.origin
    radii = radius_grid(radii)
    n = len(model.ball(x0, radii[-1]))
    require_dense(n, n)
    rows = []
    disconnected = None
    for R in radii:
        ball, A, L, mu = _ball_form_matrices(model, x0, R)
        first = _component_of_first(A)
        if not first.all():
            piece = sorted(v for v, f in zip(ball, first) if f)
            disconnected = (x0, R, piece[0])
            rows.append({"center": x0, "R": R, "lam_plus": 0.0,
                         "C_Q": math.inf})
            continue
        # 2L f = lam diag(mu) f is symmetric in g = mu^1/2 f
        root = 1.0 / np.sqrt(mu)
        vals = np.linalg.eigvalsh(2.0 * L * np.outer(root, root))
        scale = max(abs(vals[-1]), 1.0)
        nonzero = vals[vals > EIG_TOL * scale]
        if len(nonzero) == 0:
            raise NumericalFailure("degenerate Poincare eigenproblem")
        lam_plus = float(nonzero[0])
        val = 1.0 / (float(R) ** alpha * lam_plus)
        rows.append({"center": x0, "R": R, "lam_plus": lam_plus, "C_Q": val})
    # a disconnected ball makes C_Q infinite; the last one is the witness
    c_q, wit = _fit(rows, "C_Q", ("center", "R"))
    wit = disconnected or wit
    return ConditionReport(
        condition="PI", alpha=alpha,
        grid={"radii": radii, "centers": [x0]},
        constants={"C_Q": c_q},
        witnesses={"C_Q": wit, "disconnected": disconnected},
        metadata={"rows": rows})


# ---------------------------------------------------------------------------
# jump kernel bounds and smoothness
# ---------------------------------------------------------------------------

def default_pair_grid(model: LatticeModel) -> list:
    """Pairs (origin, y) for s in PAIR_DISTANCES: y = origin + s e_1 on a
    lattice; on an explicit graph the least vertex at hop distance s, and no
    pair for a distance no vertex has."""
    x = model.origin
    if model.kind == "explicit":
        hops = model._hops(x, max(PAIR_DISTANCES))
        return [(x, min(v for v, h in hops.items() if h == s))
                for s in PAIR_DISTANCES if s in hops.values()]
    return [(x, tuple(c + (s if i == 0 else 0) for i, c in enumerate(x)))
            for s in PAIR_DISTANCES]


def check_jump_bounds(model: LatticeModel, alpha: float, pairs) -> ConditionReport:
    """C_UJ/C_LJ: extremes of J(x,y) d^alpha V(x,d) / (mu_x mu_y)."""
    pairs = list(pairs)
    rows = []
    for x, y in pairs:
        dxy = model.distance(x, y)
        if dxy < 1:
            continue
        val = (model.J(x, y) * float(dxy) ** alpha * model.volume(x, dxy)
               / (model.mu(x) * model.mu(y)))
        rows.append({"x": x, "y": y, "d": dxy, "ratio": val})
    c_uj, w_uj = _fit(rows, "ratio", ("x", "y"))
    c_lj, w_lj = _fit(rows, "ratio", ("x", "y"), lower=True)
    return ConditionReport(
        condition="J_bounds", alpha=alpha,
        grid={"pairs": pairs},
        constants={"C_UJ": c_uj, "C_LJ": c_lj},
        witnesses={"C_UJ": w_uj, "C_LJ": w_lj},
        metadata={"rows": rows})


def check_ujs_ljs_js(model: LatticeModel, pairs) -> ConditionReport:
    """UJS/LJS/JS constants.  The ball average sums J(x',y) over x' in B(x,r)
    (the summation variable of the display, as used downstream), for each r
    in UJS_RADII up to d(x,y)/2; it and the JS ratios read one `_pair_rates`
    column per ball."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty pair list")
    rows = []
    for x, y in pairs:
        dxy = model.distance(x, y)
        for r in UJS_RADII:
            if r > dxy / 2:
                continue
            # a left-to-right sum in ball order keeps the reported ratios
            # bitwise equal to the pointwise sum; numpy's pairwise sum does not
            avg = sum(_pair_rates(model, model.ball(x, r), [y])[:, 0].tolist())
            if avg <= 0:
                continue
            val = model.J(x, y) * model.volume(x, r) / (model.mu(x) * avg)
            rows.append({"x": x, "y": y, "r": r, "ratio": val})
    c_ujs, w_ujs = _fit(rows, "ratio", ("x", "y", "r"))
    c_ljs, w_ljs = _fit(rows, "ratio", ("x", "y", "r"), lower=True)
    # local non-degeneracy over unit-distance pairs derived from the grid;
    # its probes and the JS probes stay out of metadata["rows"], which
    # reports write out
    units = []
    seen = set()
    for x, _ in pairs:
        if x in seen:
            continue
        seen.add(x)
        for y in sorted(model.ball(x, 1)):
            if model.distance(x, y) == 1:
                units.append({"x": x, "y": y, "J": model.J(x, y)})
    c0, w0 = _fit(units, "J", ("x", "y"), lower=True)
    # JS: J(x1,y) <= c J(x0,y) whenever d(x0,x1) <= d(x0,y)/2
    smooth = []
    for x0, y in pairs:
        dxy = model.distance(x0, y)
        j0 = model.J(x0, y)
        if j0 <= 0 or dxy < 2:
            continue
        ball = model.ball(x0, dxy / 2)
        col = _pair_rates(model, ball, [y])[:, 0]
        for x1, j1 in zip(ball, col.tolist()):
            smooth.append({"x0": x0, "x1": x1, "y": y, "ratio": j1 / j0})
    c_js, w_js = _fit(smooth, "ratio", ("x0", "x1", "y"))
    # reference composition of the fitted smoothness constants with a doubling
    # factor; a coarse grid can make this smaller than c_JS, so it is reported
    # for comparison, not enforced, and is inf when no UJS probe survives
    r0 = UJS_RADII[0]
    c_v = max(model.volume(x, 2 * r0) / model.volume(x, r0) for x in sorted(seen))
    composed = (c_ujs / c_ljs) * c_v if rows and c_ljs > 0 else math.inf
    return ConditionReport(
        condition="UJS_LJS_JS", alpha=None,
        grid={"pairs": pairs, "radii": list(UJS_RADII)},
        constants={"c_UJS": c_ujs, "c_LJS": c_ljs, "c0": c0, "c_JS": c_js,
                   "c_JS_composed_bound": composed},
        witnesses={"c_UJS": w_ujs, "c_LJS": w_ljs, "c0": w0, "c_JS": w_js},
        metadata={"rows": rows})


def check_boundary_flux(model: LatticeModel, radii,
                        alpha: float) -> ConditionReport:
    """c = max over balls about the origin x0 of
    R^alpha sum_{y in B'} J(y, G-B) / mu(B'), B' = B(x0, R/2).
    J(y, G-B) is the killed window's mu_y kill_y."""
    x0 = model.origin
    radii = radius_grid(radii)
    rows = []
    for R in radii:
        fm = truncate(model, x0, R, KILLED)
        half = fm.ball_slots(x0, R / 2)
        flux = float((fm.kill * fm.mu)[half].sum())
        val = float(R) ** alpha * flux / float(fm.mu[half].sum())
        rows.append({"center": x0, "R": R, "flux": flux, "c": val})
    c, wit = _fit(rows, "c", ("center", "R"))
    return ConditionReport(
        condition="boundary_flux", alpha=alpha,
        grid={"radii": radii, "centers": [x0]},
        constants={"c": c},
        witnesses={"c": wit},
        metadata={"rows": rows})
