"""Quantitative sweeps for the named conditions: fitted extremal constants with witnesses.

Each checker scans a deterministic grid of centers/radii/times, fits the best
constant for its condition, and records the witness tuple attaining it.
Supremum-type constants only grow under grid refinement; infimum-type only
shrink.  "Holds" is always a statement about fitted constants plus stability
across a dyadic sweep, never a proof.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import eigh

from .errors import NumericalFailure
from .models import KILLED, REFLECTED, LatticeModel, truncate
from .semigroup import (
    dirichlet_form,
    expected_exit_time,
    expm_action,
    generator,
    killed_heat_kernel,
)

EIG_TOL = 1e-10


@dataclass
class ConditionReport:
    condition: str
    alpha: float | None
    grid: dict
    constants: dict
    witnesses: dict
    passed: bool | None = None
    thresholds: dict | None = None
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def dyadic_radii(lo: int = 4, hi: int = 64) -> list[int]:
    out = []
    r = lo
    while r <= hi:
        out.append(r)
        r *= 2
    return out


def _origin(model: LatticeModel):
    if model.kind == "lattice":
        return (0,) * model.d
    return sorted(model.vertices)[0]


# ---------------------------------------------------------------------------
# volume doubling
# ---------------------------------------------------------------------------

def check_vd(model: LatticeModel, radii=None, centers=None) -> ConditionReport:
    """Fits C_V = max V(x,2r)/V(x,r) and the (vd3) ratio floor; fits the V(d) exponent."""
    radii = list(radii) if radii else dyadic_radii()
    if not radii:
        raise ValueError("empty radius grid")
    if min(radii) < 1:
        raise ValueError("VD sweep needs radii >= 1")
    centers = list(centers) if centers else [_origin(model)]
    rows = []
    c_v, wit_max = -math.inf, None
    min_ratio, wit_min = math.inf, None
    for x in centers:
        for r in radii:
            v1 = model.volume(x, r)
            v2 = model.volume(x, 2 * r)
            ratio = v2 / v1
            rows.append({"center": x, "r": r, "V_r": v1, "V_2r": v2, "ratio": ratio})
            if ratio > c_v:
                c_v, wit_max = ratio, (x, r)
            if ratio < min_ratio:
                min_ratio, wit_min = ratio, (x, r)
    logs_r = np.log(np.array(sorted(set(radii)), dtype=float))
    slopes = []
    for x in centers:
        if len(logs_r) < 2:
            slopes.append(math.nan)
            continue
        logs_v = np.log(np.array([model.volume(x, r)
                                  for r in sorted(set(radii))]))
        slopes.append(float(np.polyfit(logs_r, logs_v, 1)[0]))
    floor = 1.0 + c_v ** (-4.0)
    return ConditionReport(
        condition="VD", alpha=None,
        grid={"radii": radii, "centers": centers},
        constants={"C_V": c_v, "min_ratio": min_ratio,
                   "vd3_floor": floor, "volume_exponent": max(slopes)},
        witnesses={"C_V": wit_max, "min_ratio": wit_min},
        passed=min_ratio >= floor,
        metadata={"rows": rows, "volume_exponents": slopes})


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


def _kernel_rows_at_times(model, center, r_win, sources, times):
    """p_t(x, .) on the killed window for each source and time (times sorted),
    and the sum of the certified max-norm errors of all steps, which bounds
    the error of every row."""
    fm = truncate(model, center, r_win, KILLED)
    gen = generator(fm)
    out = {}
    eps = 0.0
    for x in sources:
        i = fm.index[x]
        v = np.zeros(fm.n)
        v[i] = 1.0 / fm.mu[i]
        prev_t = 0.0
        for t in times:
            v, e = expm_action(gen, v, t - prev_t, 1e-13)
            eps += e
            prev_t = t
            out[(x, t)] = v.copy()
    return fm, out, eps


def check_hkp(model: LatticeModel, alpha: float, pairs, times=None,
              r_win: int | None = None, doubling_margin: float = 0.01,
              center=None) -> ConditionReport:
    """Fits C1/C2 for LHKP/UHKP over a (x,y,t) grid; also reports UHD at x=y.

    Full-graph kernels are approximated by killed kernels on a window; the
    window is doubled once and any probed value moving by more than
    `doubling_margin` (relative) raises WindowUnconverged.
    `metadata["eps_poisson"]` is the summed certified uniformization error of
    the kernel rows on both windows, a max-norm bound on each probed value.
    """
    from .errors import WindowUnconverged

    pairs = list(pairs)
    center = center if center is not None else _origin(model)
    dists = [model.distance(x, y) for x, y in pairs]
    max_d = max(dists) if dists else 1
    if r_win is None:
        r_win = 16 * max(max_d, 1)
    if times is None:
        tset = set()
        for (x, y), R in zip(pairs, dists):
            base = max(R, 1) ** alpha
            tset.update(f * base for f in (0.25, 0.5, 1.0, 2.0))
        times = sorted(tset)
    else:
        times = sorted(set(times))
    sources = sorted(set(x for x, _ in pairs))
    fm1, rows1, eps1 = _kernel_rows_at_times(model, center, r_win, sources, times)
    fm2, rows2, eps2 = _kernel_rows_at_times(model, center, 2 * r_win, sources,
                                             times)
    probe_rows = []
    c2, wit2 = -math.inf, None
    c1, wit1 = math.inf, None
    uhd, wit_uhd = -math.inf, None
    for x, y in pairs:
        for t in times:
            p_small = rows1[(x, t)][fm1.index[y]]
            p = rows2[(x, t)][fm2.index[y]]
            if p > 0 and abs(p - p_small) > doubling_margin * p:
                raise WindowUnconverged(
                    f"p_t({x},{y}) at t={t} moved {abs(p - p_small) / p:.2%} "
                    f"when doubling the window from {r_win}")
            bound = _hkp_bound(model, x, y, t, alpha)
            ratio = p / bound
            probe_rows.append({"x": x, "y": y, "t": t, "p": p, "bound": bound,
                               "ratio": ratio})
            if ratio > c2:
                c2, wit2 = ratio, (x, y, t)
            if ratio < c1:
                c1, wit1 = ratio, (x, y, t)
            if x == y and ratio > uhd:
                uhd, wit_uhd = ratio, (x, y, t)
    # on-diagonal probes for UHD even if no diagonal pair was supplied
    for x in sources:
        for t in times:
            p = rows2[(x, t)][fm2.index[x]]
            ratio = p * model.volume(x, t ** (1.0 / alpha))
            if ratio > uhd:
                uhd, wit_uhd = ratio, (x, x, t)
    return ConditionReport(
        condition="HKP", alpha=alpha,
        grid={"pairs": pairs, "times": times, "r_win": r_win},
        constants={"C1_lower": c1, "C2_upper": c2, "C_UHD": uhd},
        witnesses={"C1_lower": wit1, "C2_upper": wit2, "C_UHD": wit_uhd},
        metadata={"rows": probe_rows, "eps_poisson": eps1 + eps2})


def check_ndlb(model: LatticeModel, alpha: float, radii, centers=None,
               band=(0.5, 2.0), n_times: int = 3) -> ConditionReport:
    """c1 = min over probed tuples of p^{B(x,r)}_t(x',y') * V(x,r), t in the band."""
    centers = list(centers) if centers else [_origin(model)]
    radii = list(radii)
    c1, wit = math.inf, None
    rows = []
    per_radius = {}
    for x in centers:
        for r in radii:
            fm = truncate(model, x, r, KILLED)
            half = [v for v in fm.window if model.distance(x, v) <= r / 2]
            idx = [fm.index[v] for v in half]
            vol = model.volume(x, r)
            ts = np.geomspace(band[0], band[1], n_times) * float(r) ** alpha
            best_r = math.inf
            for t in ts:
                hk = killed_heat_kernel(fm, None, float(t))
                sub = hk.values[np.ix_(idx, idx)]
                val = float(sub.min()) * vol
                i, j = np.unravel_index(int(sub.argmin()), sub.shape)
                rows.append({"center": x, "r": r, "t": float(t), "c1": val})
                best_r = min(best_r, val)
                if val < c1:
                    c1, wit = val, (x, r, half[i], half[j], float(t))
            per_radius[(x, r)] = best_r
    return ConditionReport(
        condition="NDLB", alpha=alpha,
        grid={"radii": radii, "centers": centers, "band": list(band)},
        constants={"c1": c1},
        witnesses={"c1": wit},
        metadata={"rows": rows,
                  "per_radius": {str(k): v for k, v in per_radius.items()}})


def check_sb(model: LatticeModel, alpha: float, radii, centers=None,
             band=(0.5, 2.0), n_times: int = 3) -> ConditionReport:
    """c1 = max over the band of sup_{x,y} p^B_t(x,y) * V(x0,r)."""
    centers = list(centers) if centers else [_origin(model)]
    radii = list(radii)
    c1, wit = -math.inf, None
    rows = []
    per_radius = {}
    for x0 in centers:
        for r in radii:
            fm = truncate(model, x0, r, KILLED)
            vol = model.volume(x0, r)
            ts = np.geomspace(band[0], band[1], n_times) * float(r) ** alpha
            worst = -math.inf
            for t in ts:
                hk = killed_heat_kernel(fm, None, float(t))
                val = float(hk.values.max()) * vol
                i, j = np.unravel_index(int(hk.values.argmax()), hk.values.shape)
                rows.append({"center": x0, "r": r, "t": float(t), "c1": val})
                worst = max(worst, val)
                if val > c1:
                    c1, wit = val, (x0, r, fm.window[i], fm.window[j], float(t))
            per_radius[(x0, r)] = worst
    return ConditionReport(
        condition="SB", alpha=alpha,
        grid={"radii": radii, "centers": centers, "band": list(band)},
        constants={"c1": c1},
        witnesses={"c1": wit},
        metadata={"rows": rows,
                  "per_radius": {str(k): v for k, v in per_radius.items()}})


# ---------------------------------------------------------------------------
# exit times
# ---------------------------------------------------------------------------

def check_exit_time(model: LatticeModel, alpha: float, radii,
                    centers=None) -> ConditionReport:
    """Fits c1 <= E^x tau_{B(x,r)} / r^alpha <= c2 plus a log-log exponent.

    The exponent is the largest per-center slope; each center's slope is in
    its "fit" row.
    """
    centers = list(centers) if centers else [_origin(model)]
    radii = list(radii)
    if min(radii) < 1:
        raise ValueError("exit-time sweep needs radii >= 1")
    rows = []
    c1, w1 = math.inf, None
    c2, w2 = -math.inf, None
    slopes = []
    for x in centers:
        taus = []
        for r in radii:
            fm = truncate(model, x, r, KILLED)
            tau = float(expected_exit_time(fm)[fm.index[x]])
            taus.append(tau)
            ratio = tau / float(r) ** alpha
            rows.append({"center": x, "r": r, "E_tau": tau, "ratio": ratio})
            if ratio < c1:
                c1, w1 = ratio, (x, r)
            if ratio > c2:
                c2, w2 = ratio, (x, r)
        if len(set(radii)) >= 2:
            slope = float(np.polyfit(np.log(np.array(radii, float)),
                                     np.log(np.array(taus)), 1)[0])
        else:
            slope = math.nan
        slopes.append(slope)
        rows.append({"center": x, "r": "fit", "E_tau": math.nan, "ratio": slope})
    return ConditionReport(
        condition="E_alpha", alpha=alpha,
        grid={"radii": radii, "centers": centers},
        constants={"c1": c1, "c2": c2, "exponent": max(slopes)},
        witnesses={"c1": w1, "c2": w2},
        metadata={"rows": rows})


# ---------------------------------------------------------------------------
# Poincare inequalities
# ---------------------------------------------------------------------------

def _ball_form_matrices(model, x0, R):
    """(ball, A, L, M) on B(x0, R): jump rates, form Laplacian and diag(mu)."""
    fm = truncate(model, x0, R, REFLECTED)
    A = fm.rates
    L = np.diag(A.sum(axis=1)) - A
    return fm.window, A, L, np.diag(fm.mu)


def _connected_components(A):
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse import csr_matrix
    n_comp, labels = connected_components(csr_matrix(A > 0), directed=False)
    return n_comp, labels


def poincare_rayleigh(model: LatticeModel, x0, R, alpha: float, f) -> float:
    """Var_mu(f) / (R^alpha * sum_{x,y in B}(f(x)-f(y))^2 J(x,y)) for an audit f."""
    _, _, L, M = _ball_form_matrices(model, x0, R)
    f = np.asarray(f, float)
    mu = np.diag(M)
    fbar = float(f @ mu) / float(mu.sum())
    var = float(((f - fbar) ** 2 * mu).sum())
    form = 2.0 * float(f @ L @ f)
    return var / (float(R) ** alpha * form)


def check_poincare(model: LatticeModel, alpha: float, radii,
                   centers=None) -> ConditionReport:
    """Optimal C_Q per ball from the generalized eigenproblem 2L f = lam M f.

    C_Q(B) = 1/(R^alpha * lam_plus) with lam_plus the smallest nonzero
    eigenvalue on the mean-zero subspace (constant vector deflated by taking
    the second-smallest eigenvalue; exact optimum over all f).
    """
    centers = list(centers) if centers else [_origin(model)]
    radii = list(radii)
    if min(radii) < 1:
        raise ValueError("PI sweep needs radii >= 1")
    c_q, wit = -math.inf, None
    rows = []
    disconnected = None
    for x0 in centers:
        for R in radii:
            ball, A, L, M = _ball_form_matrices(model, x0, R)
            n_comp, labels = _connected_components(A)
            if n_comp > 1:
                piece = sorted(v for v, l in zip(ball, labels) if l == labels[0])
                disconnected = (x0, R, piece[0])
                c_q, wit = math.inf, disconnected
                rows.append({"center": x0, "R": R, "lam_plus": 0.0,
                             "C_Q": math.inf})
                continue
            vals = eigh(2.0 * L, M, eigvals_only=True)
            scale = max(abs(vals[-1]), 1.0)
            nonzero = vals[vals > EIG_TOL * scale]
            if len(nonzero) == 0:
                raise NumericalFailure("degenerate Poincare eigenproblem")
            lam_plus = float(nonzero[0])
            val = 1.0 / (float(R) ** alpha * lam_plus)
            rows.append({"center": x0, "R": R, "lam_plus": lam_plus, "C_Q": val})
            if val > c_q:
                c_q, wit = val, (x0, R)
    return ConditionReport(
        condition="PI", alpha=alpha,
        grid={"radii": radii, "centers": centers},
        constants={"C_Q": c_q},
        witnesses={"C_Q": wit, "disconnected": disconnected},
        metadata={"rows": rows})


def tent_weight(model: LatticeModel, x0, R, ball) -> np.ndarray:
    """phi_R(x) = c (R - d(x,x0))^+ on the ball, normalized to sum to 1."""
    phi = np.array([max(float(R) - model.distance(x0, v), 0.0) for v in ball])
    s = phi.sum()
    if s <= 0:
        raise ValueError("degenerate tent weight")
    return phi / s


def _tent_forms(model: LatticeModel, x0, R):
    """(phi, W, mu) on the support of phi_R (vertices of B(x0,R) with phi > 0):
    the tent weight, the weighted rates min(phi_x, phi_y) J(x,y), and mu."""
    fm = truncate(model, x0, R, REFLECTED)
    phi = tent_weight(model, x0, R, fm.window)
    keep = np.flatnonzero(phi > 0)
    phi = phi[keep]
    W = np.minimum.outer(phi, phi) * fm.rates[np.ix_(keep, keep)]
    return phi, W, fm.mu[keep]


def weighted_poincare_sides(model: LatticeModel, x0, R, alpha: float, f):
    """(variance side, form side) of the weighted Poincare inequality for f.

    f lives on the support of phi_R (vertices of B(x0,R) with phi > 0).
    """
    phi, W, mu = _tent_forms(model, x0, R)
    f = np.asarray(f, float)
    fbar = float((f * phi * mu).sum())
    var = float(((f - fbar) ** 2 * mu).sum())
    diff = f[:, None] - f[None, :]
    form = float((diff ** 2 * W).sum())
    return var, form


def check_weighted_poincare(model: LatticeModel, alpha: float, radii,
                            centers=None) -> ConditionReport:
    """Best constant of the tent-weighted Poincare inequality per ball.

    The tent weight vanishes on the outermost ring, so the extremal problem is
    posed on the support of phi_R; the constant-f direction is deflated.
    """
    centers = list(centers) if centers else [_origin(model)]
    radii = list(radii)
    c_w, wit = -math.inf, None
    rows = []
    for x0 in centers:
        for R in radii:
            phi, Wm, mu = _tent_forms(model, x0, R)
            Lw = np.diag(Wm.sum(axis=1)) - Wm
            n = len(phi)
            w = phi * mu
            # Var(f) = f^T V f with V = M - m w^T - w m^T + (1^T m) w w^T
            M = np.diag(mu)
            V = M - np.outer(mu, w) - np.outer(w, mu) + mu.sum() * np.outer(w, w)
            # deflate the constant direction
            ones = np.ones((n, 1)) / math.sqrt(n)
            Z = np.linalg.qr(np.eye(n) - ones @ ones.T)[0][:, : n - 1]
            lam = eigh(Z.T @ (2.0 * Lw) @ Z, Z.T @ V @ Z, eigvals_only=True)
            lam_plus = float(lam[0])
            if lam_plus <= EIG_TOL:
                val = math.inf
            else:
                val = 1.0 / (float(R) ** alpha * lam_plus)
            rows.append({"center": x0, "R": R, "C_weighted": val})
            if val > c_w:
                c_w, wit = val, (x0, R)
    unweighted = check_poincare(model, alpha, radii, centers)
    return ConditionReport(
        condition="PI_weighted", alpha=alpha,
        grid={"radii": radii, "centers": centers},
        constants={"C_weighted": c_w,
                   "C_unweighted": unweighted.constants["C_Q"]},
        witnesses={"C_weighted": wit},
        metadata={"rows": rows})


# ---------------------------------------------------------------------------
# Nash inequality (sampled lower bound on the best constant)
# ---------------------------------------------------------------------------

def _full_form(fm, f):
    """Dirichlet form of f (supported on the window) over the whole graph."""
    return dirichlet_form(fm, f) + float((f ** 2 * fm.kill * fm.mu).sum())


def check_nash(model: LatticeModel, alpha: float, d: int,
               n_samples: int = 100, r_win: int = 16, seed: int = 0,
               indicator_radii=(4, 8, 16)) -> ConditionReport:
    """Lower-bounds the Nash constant C_N by maximizing the Nash ratio over
    sampled functions (deltas, ball indicators, tents, random)."""
    x0 = _origin(model)
    fm = truncate(model, x0, r_win, KILLED)
    mu = fm.mu
    theta = 2.0 * alpha / d

    def ratio(f):
        form = _full_form(fm, f)
        if form <= 0:
            return None
        n2 = float((f ** 2 * mu).sum())
        n1 = float((np.abs(f) * mu).sum())
        return n2 ** (1.0 + theta / 2.0) / (form * n1 ** theta)

    best, wit = -math.inf, None
    rows = []

    def consider(name, f):
        nonlocal best, wit
        r = ratio(np.asarray(f, float))
        if r is None:
            return
        rows.append({"family": name, "ratio": r})
        if r > best:
            best, wit = r, name

    delta = np.zeros(fm.n)
    delta[fm.index[x0]] = 1.0
    consider("delta", delta)
    for r in indicator_radii:
        ind = np.array([1.0 if model.distance(x0, v) <= r else 0.0
                        for v in fm.window])
        consider(f"indicator_r{r}", ind)
        tent = np.array([max(1.0 - model.distance(x0, v) / float(r), 0.0)
                         for v in fm.window])
        consider(f"tent_r{r}", tent)
    rng = np.random.default_rng(seed)
    for i in range(n_samples):
        consider(f"random_{i}", np.abs(rng.standard_normal(fm.n)))
    return ConditionReport(
        condition="Nash", alpha=alpha,
        grid={"r_win": r_win, "n_samples": n_samples, "d": d, "seed": seed},
        constants={"C_N_lower": best},
        witnesses={"C_N_lower": wit},
        metadata={"rows": rows, "note": "sampled lower bound on the true constant"})


# ---------------------------------------------------------------------------
# jump kernel bounds and smoothness
# ---------------------------------------------------------------------------

def default_pair_grid(model: LatticeModel, distances=(1, 2, 4, 8, 16),
                      centers=None) -> list:
    centers = list(centers) if centers else [_origin(model)]
    pairs = []
    for x in centers:
        for s in distances:
            y = tuple(c + (s if i == 0 else 0) for i, c in enumerate(x))
            pairs.append((x, y))
    return pairs


def check_jump_bounds(model: LatticeModel, alpha: float, pairs) -> ConditionReport:
    """C_UJ/C_LJ: extremes of J(x,y) d^alpha V(x,d) / (mu_x mu_y)."""
    pairs = list(pairs)
    c_uj, w_uj = -math.inf, None
    c_lj, w_lj = math.inf, None
    rows = []
    for x, y in pairs:
        dxy = model.distance(x, y)
        if dxy < 1:
            continue
        val = (model.J(x, y) * float(dxy) ** alpha * model.volume(x, dxy)
               / (model.mu(x) * model.mu(y)))
        rows.append({"x": x, "y": y, "d": dxy, "ratio": val})
        if val > c_uj:
            c_uj, w_uj = val, (x, y)
        if val < c_lj:
            c_lj, w_lj = val, (x, y)
    return ConditionReport(
        condition="J_bounds", alpha=alpha,
        grid={"pairs": pairs},
        constants={"C_UJ": c_uj, "C_LJ": c_lj},
        witnesses={"C_UJ": w_uj, "C_LJ": w_lj},
        metadata={"rows": rows})


def check_ujs_ljs_js(model: LatticeModel, pairs, radii) -> ConditionReport:
    """UJS/LJS/JS constants.  The ball average sums J(x',y) over x' in B(x,r)
    (the summation variable of the display, as used downstream)."""
    pairs = list(pairs)
    radii = list(radii)
    c_ujs, w_ujs = -math.inf, None
    c_ljs, w_ljs = math.inf, None
    rows = []
    for x, y in pairs:
        dxy = model.distance(x, y)
        for r in radii:
            if r < 1 or r > dxy / 2:
                continue
            ball = model.ball(x, r)
            avg = sum(model.J(xp, y) for xp in ball)
            if avg <= 0:
                continue
            val = model.J(x, y) * model.volume(x, r) / (model.mu(x) * avg)
            rows.append({"x": x, "y": y, "r": r, "ratio": val})
            if val > c_ujs:
                c_ujs, w_ujs = val, (x, y, r)
            if val < c_ljs:
                c_ljs, w_ljs = val, (x, y, r)
    # local non-degeneracy over unit-distance pairs derived from the grid
    c0, w0 = math.inf, None
    seen = set()
    for x, _ in pairs:
        if x in seen:
            continue
        seen.add(x)
        for y in sorted(model.ball(x, 1)):
            if model.distance(x, y) == 1:
                v = model.J(x, y)
                if v < c0:
                    c0, w0 = v, (x, y)
    # JS: J(x1,y) <= c J(x0,y) whenever d(x0,x1) <= d(x0,y)/2
    c_js, w_js = -math.inf, None
    for x0, y in pairs:
        dxy = model.distance(x0, y)
        j0 = model.J(x0, y)
        if j0 <= 0 or dxy < 2:
            continue
        for x1 in model.ball(x0, dxy / 2):
            val = model.J(x1, y) / j0
            if val > c_js:
                c_js, w_js = val, (x0, x1, y)
    # reference composition of the fitted smoothness constants with a doubling
    # factor; a coarse grid can make this smaller than c_JS, so it is reported
    # for comparison, not enforced
    r0 = max(1, min(radii)) if radii else 1
    c_v = max(model.volume(x, 2 * r0) / model.volume(x, r0) for x in sorted(seen))
    composed = (c_ujs / c_ljs) * c_v if c_ljs > 0 else math.inf
    return ConditionReport(
        condition="UJS_LJS_JS", alpha=None,
        grid={"pairs": pairs, "radii": radii},
        constants={"c_UJS": c_ujs, "c_LJS": c_ljs, "c0": c0, "c_JS": c_js,
                   "c_JS_composed_bound": composed},
        witnesses={"c_UJS": w_ujs, "c_LJS": w_ljs, "c0": w0, "c_JS": w_js},
        metadata={"rows": rows})


def check_boundary_flux(model: LatticeModel, radii, centers=None,
                        alpha: float = 1.0) -> ConditionReport:
    """c = max over balls of R^alpha sum_{y in B'} J(y, G-B) / mu(B'),
    B' = B(x0, R/2)."""
    centers = list(centers) if centers else [_origin(model)]
    radii = list(radii)
    c, wit = -math.inf, None
    rows = []
    for x0 in centers:
        for R in radii:
            half = model.ball(x0, R / 2)
            flux = sum(model.row_sum_outside(y, x0, R)[0]
                       for y in half)
            mb = model.volume(x0, R / 2)
            val = float(R) ** alpha * flux / mb
            rows.append({"center": x0, "R": R, "flux": flux, "c": val})
            if val > c:
                c, wit = val, (x0, R)
    return ConditionReport(
        condition="boundary_flux", alpha=alpha,
        grid={"radii": radii, "centers": centers},
        constants={"c": c},
        witnesses={"c": wit},
        metadata={"rows": rows})


# ---------------------------------------------------------------------------
# moment sums
# ---------------------------------------------------------------------------

def moment_sums(model: LatticeModel, x, r) -> tuple[float, float]:
    """M1(x,r) = sum_{B(x,r)} d(x,y)^2 J(x,y) (exact);
    M2(x,r) = J(x, B(x,r)^c) (tail-certified)."""
    m1 = sum(model.distance(x, y) ** 2 * model.J(x, y) for y in model.ball(x, r))
    m2, _ = model.row_sum_outside(x, x, r)
    return float(m1), float(m2)


def annulus_mass(model: LatticeModel, x, r, delta: float, lam: float) -> float:
    """M2(x, delta*r) - M2(x, lam*r) = J(x, B(x, lam r) - B(x, delta r)), exact."""
    lo = math.floor(delta * r)
    hi = math.floor(lam * r)
    return float(sum(model.J(x, y) for y in model.ball(x, hi)
                     if model.distance(x, y) > lo))
