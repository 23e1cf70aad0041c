import math

import numpy as np
import pytest

from jumplab import harnack as H
from jumplab.errors import ExteriorOutOfRange, NumericalFailure, WindowUnconverged
from jumplab.models import (
    EXTERIOR_TRACKED,
    LatticeModel,
    PolynomialKernel,
    SuppressedPairKernel,
    truncate,
)
from jumplab.semigroup import (
    StepOperators,
    caloric_solve,
    duhamel_generators,
    expm_action,
    generator,
    integrated_action,
)


def small_box():
    return H.HarnackBox(x0=(0,), R=4, alpha=1.0, lam=1.0, m_steps=16)


def test_box_invariants():
    box = H.HarnackBox(x0=(0,), R=8, alpha=1.5, lam=0.5)
    assert box.T == pytest.approx(0.5 * 8 ** 1.5)
    assert max(box.minus_steps()) < min(box.plus_steps())
    with pytest.raises(ValueError):
        H.HarnackBox(x0=(0,), R=8, alpha=1.0, lam=1.5)
    with pytest.raises(ValueError):
        H.HarnackBox(x0=(0,), R=8, alpha=1.0, m_steps=30)


def test_scan_matches_explicit_generators(z1):
    """The streaming scan equals the brute-force max over explicitly solved
    generator fields (initial masses, per-step exterior and remainder impulses)."""
    box = small_box()
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    init_stats, src_stats, half, _ = H._scan_generators(fm, box, 1e-12)
    best, _ = H._collect(fm, box, init_stats, src_stats, half)
    gens = duhamel_generators(fm, box.T, box.m_steps,
                              source_steps=range(box.m_steps),
                              include_remainder=False)
    explicit = max(H.caloric_box_ratio(g, box) for g in gens)
    for si in range(box.m_steps):
        rem = np.zeros(box.m_steps)
        rem[si] = 1.0
        fld = caloric_solve(fm, np.zeros(fm.n), None, box.T, box.m_steps,
                            remainder_data=rem)
        explicit = max(explicit, H.caloric_box_ratio(fld, box))
    assert best == pytest.approx(explicit, rel=1e-12)


# Reference: the per-launch fan-out scan that `_scan_generators` and
# `_collect` replace.  Every age's values are shown to every launch step
# through running sup/inf statistics with strict-improvement updates.

class _BoxStats:
    def __init__(self, n_cols):
        self.max_minus = np.zeros(n_cols)
        self.min_plus = np.full(n_cols, np.inf)
        self.wit_minus = np.full((n_cols, 2), -1, dtype=np.int64)
        self.wit_plus = np.full((n_cols, 2), -1, dtype=np.int64)

    def see_minus(self, step, vals_half):
        colmax = vals_half.max(axis=0)
        rows = vals_half.argmax(axis=0)
        upd = colmax > self.max_minus
        self.max_minus[upd] = colmax[upd]
        self.wit_minus[upd, 0] = step
        self.wit_minus[upd, 1] = rows[upd]

    def see_plus(self, step, vals_half):
        colmin = vals_half.min(axis=0)
        rows = vals_half.argmin(axis=0)
        upd = colmin < self.min_plus
        self.min_plus[upd] = colmin[upd]
        self.wit_plus[upd, 0] = step
        self.wit_plus[upd, 1] = rows[upd]


def fanout_scan(fm, box, tol):
    m = box.m_steps
    ops = H.step_operators(fm, box.T / m, tol)
    E = ops.E
    S_aug = np.concatenate([ops.S, ops.s_rem[:, None]], axis=1)
    half = H._half_ball_slots(fm, box.x0, box.R)
    minus, plus = set(box.minus_steps()), set(box.plus_steps())
    init_stats = _BoxStats(fm.n)
    U = np.diag(1.0 / fm.mu)
    for j in range(1, m + 1):
        U = E @ U
        if j in minus:
            init_stats.see_minus(j, U[half])
        if j in plus:
            init_stats.see_plus(j, U[half])
    src_stats = [_BoxStats(S_aug.shape[1]) for _ in range(m)]
    W = S_aug.copy()
    for age in range(m):
        vals = W[half]
        for j in minus:
            if 0 <= j - 1 - age < m:
                src_stats[j - 1 - age].see_minus(j, vals)
        for j in plus:
            if 0 <= j - 1 - age < m:
                src_stats[j - 1 - age].see_plus(j, vals)
        if age < m - 1:
            W = E @ W
    return init_stats, src_stats, half


def fanout_collect(fm, box, init_stats, src_stats, half):
    times = np.linspace(0.0, box.T, box.m_steps + 1)
    best, best_wit = -math.inf, None

    def consider(gen_id, stats, col):
        nonlocal best, best_wit
        mm = stats.max_minus[col]
        if mm <= 0.0:
            return
        mp = stats.min_plus[col]
        ratio = math.inf if mp < H.FLOOR else mm / mp
        if ratio > best:
            jm, rm = stats.wit_minus[col]
            jp, rp = stats.wit_plus[col]
            best = ratio
            best_wit = {"generator": gen_id,
                        "minus": (float(times[jm]), fm.window[half[rm]])
                        if jm >= 0 else None,
                        "plus": (float(times[jp]), fm.window[half[rp]])
                        if jp >= 0 else None}

    for zi, z in enumerate(fm.window):
        consider(("initial", z), init_stats, zi)
    for si in range(box.m_steps):
        for ci, ch in enumerate(list(fm.exterior) + ["remainder"]):
            consider(("source", si, ch), src_stats[si], ci)
    return best, best_wit


@pytest.mark.parametrize("model, box", [
    (LatticeModel(d=1, kernel=PolynomialKernel(1.0)), small_box()),
    (LatticeModel(d=1, kernel=SuppressedPairKernel(
        base=PolynomialKernel(1.0), x0=(0,), y0=(3,))), small_box()),
    (LatticeModel(d=2, metric="l1", kernel=PolynomialKernel(1.0)),
     H.HarnackBox(x0=(0, 0), R=2, alpha=1.0, m_steps=16)),
    (LatticeModel(d=1, kernel=PolynomialKernel(1.5)),
     H.HarnackBox(x0=(0,), R=4, alpha=1.5, lam=0.5, m_steps=20)),
], ids=["z1", "suppressed", "l1-z2", "lam-half"])
def test_scan_matches_fanout_reference(model, box):
    """The per-age scan gives exactly the fan-out scan's constant and witness."""
    fm = truncate(model, box.x0, 2 * box.R, EXTERIOR_TRACKED)
    init, src, half, _ = H._scan_generators(fm, box, 1e-12)
    got = H._collect(fm, box, init, src, half)
    want = fanout_collect(fm, box, *fanout_scan(fm, box, 1e-12))
    assert want[1] is not None
    assert got == want


@pytest.mark.parametrize("seed", range(6))
def test_scan_tie_breaks_match_fanout_reference(z1, monkeypatch, seed):
    """Identity, permutation and dyadic-mixture step operators make values
    tie exactly across half-ball slots, steps and generators, and vanish on
    some; the per-age scan still picks the reference's generator and
    first-attained witnesses."""
    box = small_box()
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    rng = np.random.default_rng(seed)
    n = fm.n
    perms = [np.eye(n)[rng.permutation(n)] for _ in range(2)]
    E = [np.eye(n), perms[0], (perms[0] + perms[1]) / 2][seed % 3]
    ops = StepOperators(gen=None, dt=box.T / box.m_steps, E=E,
                        S=rng.integers(0, 3, (n, len(fm.exterior))).astype(float),
                        s_rem=rng.integers(0, 3, n).astype(float), err=0.0)
    monkeypatch.setattr(H, "step_operators", lambda *args: ops)
    init, src, half, _ = H._scan_generators(fm, box, 1e-12)
    got = H._collect(fm, box, init, src, half)
    assert got == fanout_collect(fm, box, *fanout_scan(fm, box, 1e-12))


def test_mixture_audit(z1, rng):
    """50 random nonnegative mixtures never exceed the computed constant."""
    box = small_box()
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    init_stats, src_stats, half, _ = H._scan_generators(fm, box, 1e-12)
    best, _ = H._collect(fm, box, init_stats, src_stats, half)
    c_p = max(best, 1.0)
    n_ext = len(fm.exterior)
    for _ in range(50):
        fld = caloric_solve(fm, rng.random(fm.n),
                            rng.random((box.m_steps, n_ext)),
                            box.T, box.m_steps,
                            remainder_data=rng.random(box.m_steps))
        assert H.caloric_box_ratio(fld, box) <= c_p + 1e-8


def test_scale_invariance(z1, rng):
    box = small_box()
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    init = rng.random(fm.n)
    f1 = caloric_solve(fm, init, None, box.T, box.m_steps)
    f2 = caloric_solve(fm, 7.3 * init, None, box.T, box.m_steps)
    assert H.caloric_box_ratio(f1, box) == pytest.approx(
        H.caloric_box_ratio(f2, box), rel=1e-12)


def test_single_vertex_ball_finite(z1):
    box = H.HarnackBox(x0=(0,), R=0.4, alpha=1.0, m_steps=16)
    rep = H.phi_constant(z1, box, check_doubling=False)
    assert 1.0 <= rep.constant < math.inf


def test_phi_stable_across_radii(z1):
    reps = {R: H.phi_constant(z1, H.HarnackBox(x0=(0,), R=R, alpha=1.0))
            for R in (8, 16)}
    vals = [r.constant for r in reps.values()]
    assert max(vals) / min(vals) < 2.0
    for rep in reps.values():
        assert rep.constant == pytest.approx(rep.metadata["doubled_constant"],
                                             rel=0.05)


def test_phi_monotone_in_lambda():
    m = LatticeModel(d=1, kernel=PolynomialKernel(1.5))
    c1 = H.phi_constant(m, H.HarnackBox(x0=(0,), R=8, alpha=1.5, lam=1.0),
                        check_doubling=False).constant
    chalf = H.phi_constant(m, H.HarnackBox(x0=(0,), R=8, alpha=1.5, lam=0.5),
                           check_doubling=False).constant
    assert math.isfinite(c1) and math.isfinite(chalf)


def test_ehi_le_phi(z1):
    for R in (8,):
        phi = H.phi_constant(z1, H.HarnackBox(x0=(0,), R=R, alpha=1.0),
                             check_doubling=False)
        ehi = H.ehi_constant(z1, (0,), R, check_doubling=False)
        assert ehi.constant <= phi.constant * 1.05


def test_harmonic_partition(z1):
    assert H.harmonic_partition_residual(z1, (0,), 8) < 1e-12


@pytest.mark.parametrize("fault", ["singular", "non-finite"])
def test_harmonic_partition_solve_failure(z1, monkeypatch, fault):
    """The partition reads the generators of the one matrix solve; a
    singular or non-finite solve there is reported as NumericalFailure."""
    shapes = []

    def faulty(a, b):
        shapes.append(np.shape(b))
        if fault == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(np.shape(b), np.nan)

    monkeypatch.setattr(np.linalg, "solve", faulty)
    with pytest.raises(NumericalFailure):
        H.harmonic_partition_residual(z1, (0,), 4)
    assert len(shapes) == 1 and len(shapes[0]) == 2


def test_ehi_suppressed_within_factor_two():
    base = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    supp = LatticeModel(d=1, kernel=SuppressedPairKernel(
        base=PolynomialKernel(1.0), x0=(0,), y0=(8,)))
    cb = H.ehi_constant(base, (0,), 8, check_doubling=False).constant
    cs = H.ehi_constant(supp, (0,), 8, check_doubling=False).constant
    assert 0.5 <= cs / cb <= 2.0


@pytest.mark.parametrize("c, c2", [(1.0, 1.04), (math.inf, math.inf)])
def test_doubling_check_accepts(c, c2):
    assert H._doubled("C", c, c2, 4.0) == c2


@pytest.mark.parametrize("c, c2", [(1.0, 1.1), (math.inf, 2.0), (2.0, math.inf)])
def test_doubling_check_rejects(c, c2):
    with pytest.raises(WindowUnconverged):
        H._doubled("C", c, c2, 4.0)


# ---------------------------------------------------------------------------
# first jump density
# ---------------------------------------------------------------------------

def test_first_jump_density_limit(z1):
    vals = [H.first_jump_density(z1, (0,), 4, (8,), T=2 * h, h=h, x=(0,))
            for h in (1e-1, 1e-2, 1e-3)]
    target = 8.0 ** -2  # J(0,8)/mu_0
    # linear-in-h convergence, so Richardson on the last two points
    rich = (10 * vals[2] - vals[1]) / 9
    assert abs(rich - target) / target <= 1e-3
    errs = [abs(v - target) for v in vals]
    assert errs[2] < errs[0]


def test_first_jump_density_suppressed_vanishes():
    m = LatticeModel(d=1, kernel=SuppressedPairKernel(
        base=PolynomialKernel(1.0), x0=(0,), y0=(8,)))
    v = H.first_jump_density(m, (0,), 4, (8,), T=2e-3, h=1e-3, x=(0,))
    assert v <= 1e-3 * 8.0 ** -2 / 1e-2  # second order in h


def test_first_jump_density_additive(z1):
    fm = truncate(z1, (0,), 4, "killed")
    gen = generator(fm)
    h = 1e-2
    va = H.first_jump_density(z1, (0,), 4, (8,), T=1.0, h=h)
    vb = H.first_jump_density(z1, (0,), 4, (9,), T=1.0, h=h)
    kap = np.array([z1.J(z, (8,)) + z1.J(z, (9,)) for z in fm.window]) / fm.mu
    combined, _ = integrated_action(gen, kap, h)
    combined, _ = expm_action(gen, combined, 0.5 - h)
    assert np.max(np.abs(va + vb - combined / h)) < 1e-12


def test_first_jump_density_depends_on_T(z1):
    fm = truncate(z1, (0,), 4, "killed")
    h = 1e-2
    kap = np.array([z1.J(z, (8,)) for z in fm.window]) / fm.mu
    first, _ = integrated_action(generator(fm), kap, h)
    late = H.first_jump_density(z1, (0,), 4, (8,), T=1.0, h=h)
    early = H.first_jump_density(z1, (0,), 4, (8,), T=0.5, h=h)
    assert np.min(np.abs(late - early)) > 1e-4
    # T = 2h is the window (0, h): the integrated action alone
    assert np.array_equal(H.first_jump_density(z1, (0,), 4, (8,), T=2 * h, h=h),
                          first / h)


def test_first_jump_density_errors(z1):
    with pytest.raises(ValueError):
        H.first_jump_density(z1, (0,), 4, (2,), T=1.0, h=0.1)  # inside ball
    with pytest.raises(ExteriorOutOfRange):
        H.first_jump_density(z1, (0,), 4, (100,), T=1.0, h=0.1)
    with pytest.raises(ValueError):
        H.first_jump_density(z1, (0,), 4, (8,), T=1.0, h=0.9)  # h > T/2
