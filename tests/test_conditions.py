import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from jumplab import conditions as cond
from jumplab.errors import WindowUnconverged
from jumplab.io import jsonable
from jumplab.models import (
    LadderKernel,
    LatticeModel,
    MuAlternating,
    MuConstant,
    PolynomialKernel,
    SuppressedPairKernel,
    TabulatedKernel,
)
from oracles import poincare_rayleigh


# ---------------------------------------------------------------------------
# volume doubling
# ---------------------------------------------------------------------------

def test_vd_exact_z1(z1):
    rep = cond.check_vd(z1, radii=[4, 8, 16, 32])
    # V(0,r) = 2r+1, so the doubling ratio peaks at the largest radius
    assert rep.constants["C_V"] == pytest.approx(129 / 65, abs=1e-12)
    assert rep.witnesses["C_V"] == ((0,), 32)
    assert abs(rep.constants["volume_exponent"] - 1.0) < 0.06
    assert rep.passed


def test_vd_exponent_z2(z2):
    rep = cond.check_vd(z2, radii=[16, 32, 64])
    assert abs(rep.constants["volume_exponent"] - 2.0) < 0.1


def test_vd_default_grid(z1):
    rep = cond.check_vd(z1, radii=[4, 8, 16, 32, 64])
    assert rep.grid == {"radii": [4, 8, 16, 32, 64], "centers": [(0,)]}
    assert rep.metadata["volume_exponents"] == [
        rep.constants["volume_exponent"]]


@pytest.mark.parametrize("check", [
    lambda m: cond.check_vd(m, []),
    lambda m: cond.check_exit_time(m, 1.0, []),
    lambda m: cond.check_poincare(m, 1.0, []),
], ids=["vd", "exit-time", "poincare"])
def test_empty_radius_grid_rejected(z1, check):
    with pytest.raises(ValueError, match="empty radius grid"):
        check(z1)


# ---------------------------------------------------------------------------
# jump bounds and smoothness
# ---------------------------------------------------------------------------

def test_jump_bounds_closed_form(z1):
    # ratio at distance s is s^{-2} * s * (2s+1) = (2s+1)/s
    rep = cond.check_jump_bounds(z1, 1.0, cond.default_pair_grid(z1))
    assert rep.constants["C_UJ"] == pytest.approx(3.0, abs=1e-12)
    assert rep.constants["C_LJ"] == pytest.approx(33 / 16, abs=1e-12)
    assert rep.witnesses["C_UJ"] == ((0,), (1,))


def test_jump_bounds_suppressed_zero():
    m = LatticeModel(d=1, kernel=SuppressedPairKernel(
        base=PolynomialKernel(1.0), x0=(0,), y0=(8,)))
    rep = cond.check_jump_bounds(m, 1.0, [((0,), (8,)), ((0,), (4,))])
    assert rep.constants["C_LJ"] == 0.0
    assert rep.witnesses["C_LJ"] == ((0,), (8,))


def test_empty_supremum_serialises_as_minus_inf():
    # a pair at distance 0 is skipped, so both extremes stay at their seeds
    rep = cond.check_jump_bounds(LatticeModel(), 1.0, [((0,), (0,))])
    out = jsonable(rep.to_dict())
    assert out["constants"] == {"C_UJ": "-inf", "C_LJ": "inf"}


def test_ladder_uj_log_growth():
    m = LatticeModel(d=1, kernel=LadderKernel(alpha=1.5, ranges=(16, 64, 256)))
    rep = cond.check_jump_bounds(m, 1.5, [((0,), (r,)) for r in (16, 64, 256)])
    vals = [row["ratio"] for row in rep.metadata["rows"]]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] / vals[0] >= 1.5
    # ratio at an atom distance s is (1 + log s)(2s+1)/s
    want = (1 + math.log(16)) * 33 / 16
    assert vals[0] == pytest.approx(want, rel=1e-12)


def test_ujs_ljs_js_polynomial(z1):
    pairs = [((0,), (s,)) for s in (4, 8, 16)]
    rep = cond.check_ujs_ljs_js(z1, pairs)
    c = rep.constants
    assert c["c0"] == 1.0  # J(x, x+1) = 1 at alpha = 1
    assert 0 < c["c_LJS"] <= c["c_UJS"] < math.inf
    # JS constant at the probe grid: J(x1,y)/J(x0,y) maximized by x1 at R/2
    assert c["c_JS"] == pytest.approx(4.0, rel=1e-12)  # (2/1)^2 at R=2? no: max over grid
    assert rep.witnesses["c_JS"] is not None


def test_ujs_ljs_js_no_ujs_probe(z1):
    """Every UJS radius exceeds d(x, y)/2 for a unit pair, so no UJS probe
    survives and the composed bound is inf, not nan."""
    rep = cond.check_ujs_ljs_js(z1, [((0,), (1,))])
    assert rep.metadata["rows"] == []
    assert rep.constants["c_JS_composed_bound"] == math.inf


def test_ujs_ljs_js_empty_pairs(z1):
    with pytest.raises(ValueError, match="empty pair list"):
        cond.check_ujs_ljs_js(z1, [])


def test_boundary_flux(z1):
    rep = cond.check_boundary_flux(z1, radii=[4], alpha=1.0)
    brute = sum(sum(z1.J((y,), (z,)) for z in range(-3000, 3001)
                    if abs(z) > 4) for y in range(-2, 3))
    want = 4.0 * brute / 5.0
    # the brute sum is truncated at |z| = 3000; the checker's tail is exact,
    # so it must exceed the brute value by at most the truncated mass
    tail_cap = 4.0 / 5.0 * 5 * 2.0 / 2995
    assert want <= rep.constants["c"] <= want + tail_cap


def test_boundary_flux_z2(z2):
    """On Z^2, J(y, G - B) is the certified row sum minus a brute-force sum
    over the 81 vertices of B(0, 4); the flux sums it over B(0, 2)."""
    rep = cond.check_boundary_flux(z2, radii=[4], alpha=1.0)
    ball = z2.ball((0, 0), 4)
    half = z2.ball((0, 0), 2)
    flux = sum(z2.row_sum_all(y)[0] - sum(z2.J(y, z) for z in ball)
               for y in half)
    assert rep.metadata["rows"][0]["flux"] == pytest.approx(flux, rel=1e-12)
    assert rep.constants["c"] == pytest.approx(4.0 * flux / len(half), rel=1e-12)


# ---------------------------------------------------------------------------
# Poincare
# ---------------------------------------------------------------------------

def test_two_point_poincare_closed_form(two_state):
    model, j = two_state
    rep = cond.check_poincare(model, alpha=1.3, radii=[1])
    assert rep.constants["C_Q"] == pytest.approx(1 / (4 * j), abs=1e-10)


def test_two_point_poincare_brute_force(two_state):
    # optimize the Rayleigh quotient by hand over f = (0, s)
    model, j = two_state
    best = 0.0
    for s in np.linspace(-3, 3, 2001):
        f = np.array([0.0, s])
        if s == 0:
            continue
        var = ((f - f.mean()) ** 2).sum()
        form = 2 * j * s ** 2
        best = max(best, var / form)
    rep = cond.check_poincare(model, alpha=1.0, radii=[1])
    assert rep.constants["C_Q"] == pytest.approx(best, abs=1e-10)


def test_poincare_dominates_random_rayleigh(z1, rng):
    for R in (4, 8):
        rep = cond.check_poincare(z1, 1.0, radii=[R])
        cq = rep.constants["C_Q"]
        n = 2 * R + 1
        for _ in range(100):
            f = rng.standard_normal(n)
            assert poincare_rayleigh(z1, (0,), R, 1.0, f) <= cq + 1e-12


def test_poincare_disconnected_is_infinite():
    m = LatticeModel(kind="explicit", vertices=("a", "b", "c"),
                     edges=(("a", "b"), ("b", "c")),
                     kernel=TabulatedKernel(entries=((("a", "b"), 1.0),)),
                     mu_rule=MuConstant(1.0))
    rep = cond.check_poincare(m, 1.0, radii=[2])
    assert math.isinf(rep.constants["C_Q"])
    assert rep.witnesses["disconnected"] is not None


def test_poincare_witness_is_last_disconnected_ball():
    """C_Q is infinite once a ball is disconnected, and the witness is the
    last disconnected ball of the sweep, with a connected ball between: on
    the path a-b-c-d with rates only on (a, c) and (b, c), B(a, 1) = {a, b}
    and B(a, 3) are disconnected and B(a, 2) = {a, b, c} is not."""
    m = LatticeModel(kind="explicit", vertices=("a", "b", "c", "d"),
                     edges=(("a", "b"), ("b", "c"), ("c", "d")),
                     kernel=TabulatedKernel(entries=((("a", "c"), 1.0),
                                                     (("b", "c"), 1.0))),
                     mu_rule=MuConstant(1.0))
    rep = cond.check_poincare(m, 1.0, radii=[1, 2, 3])
    rows = rep.metadata["rows"]
    assert [math.isinf(r["C_Q"]) for r in rows] == [True, False, True]
    wit = rep.witnesses["C_Q"]
    assert wit == rep.witnesses["disconnected"]
    assert wit[:2] == ("a", 3) and wit[2] in m.ball("a", 3)
    assert math.isinf(rep.constants["C_Q"])


@pytest.mark.parametrize("seed", range(6))
def test_component_of_first_matches_csgraph(seed):
    """The ball's first connected piece equals scipy's component labelling
    (undirected, positive entries), also for one-sided entries."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    A = rng.random((n, n)) * (rng.random((n, n)) < 2.0 / n)
    if seed % 2:
        A = A + A.T
    _, labels = connected_components(csr_matrix(A > 0), directed=False)
    assert np.array_equal(cond._component_of_first(A), labels == labels[0])


@pytest.mark.parametrize("mu", [MuConstant(1.0), MuAlternating(1.0, 2.0)])
def test_poincare_eigenvalues_match_scipy(mu):
    """The numpy reduction by mu^-1/2 gives scipy's generalized eigenvalues
    within 1e-12 relative."""
    m = LatticeModel(d=1, kernel=PolynomialKernel(1.0), mu_rule=mu)
    for R in (3, 8):
        _, _, L, mu_b = cond._ball_form_matrices(m, (0,), R)
        lam = eigh(2.0 * L, np.diag(mu_b), eigvals_only=True)[1]
        row, = cond.check_poincare(m, 1.0, [R]).metadata["rows"]
        assert row["lam_plus"] == pytest.approx(lam, rel=1e-12)


# ---------------------------------------------------------------------------
# exit times, HKP
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.75, 1.0, 1.5])
def test_exit_time_exponent(alpha):
    m = LatticeModel(d=1, kernel=PolynomialKernel(alpha))
    rep = cond.check_exit_time(m, alpha, radii=[8, 16, 32, 64])
    assert abs(rep.constants["exponent"] - alpha) <= 0.15
    assert 0 < rep.constants["c1"] <= rep.constants["c2"] < math.inf


def test_hkp_two_sided(z1):
    rep = cond.check_hkp(z1, 1.0, pairs=[((0,), (4,)), ((0,), (8,))],
                         times=[1.0, 2.0, 4.0, 8.0, 16.0], r_win=128)
    c = rep.constants
    assert 0 < c["C1_lower"] <= c["C2_upper"] < math.inf
    assert c["C_UHD"] <= c["C2_upper"] + 1e-12


def test_hkp_window_guard(z1):
    # a deliberately tiny window at a long horizon must trip the guard
    with pytest.raises(WindowUnconverged):
        cond.check_hkp(z1, 1.0, pairs=[((0,), (8,))], times=[64.0], r_win=16)


def test_suppressed_lhkp_collapse():
    base = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    supp = LatticeModel(d=1, kernel=SuppressedPairKernel(
        base=PolynomialKernel(1.0), x0=(0,), y0=(8,)))
    t = 1e-3
    rb = cond.check_hkp(base, 1.0, [((0,), (8,))], times=[t],
                        r_win=64).metadata["rows"][0]["ratio"]
    rs = cond.check_hkp(supp, 1.0, [((0,), (8,))], times=[t],
                        r_win=64).metadata["rows"][0]["ratio"]
    assert rs / rb <= 0.01


# ---------------------------------------------------------------------------
# the fit rule, against the accumulators it replaced
# ---------------------------------------------------------------------------

def _accumulate(rows, col, at, lower=False):
    """The strict accumulator each checker used to carry by hand."""
    if lower:
        c, wit = math.inf, None
        for row in rows:
            if row[col] < c:
                c, wit = row[col], (tuple(row[k] for k in at)
                                    if isinstance(at, tuple) else row[at])
        return c, wit
    c, wit = -math.inf, None
    for row in rows:
        if row[col] > c:
            c, wit = row[col], (tuple(row[k] for k in at)
                                if isinstance(at, tuple) else row[at])
    return c, wit


_VALUES = [0.0, 1.0, 1.0, -2.5, 3.0, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("vals", [
    [], [math.nan], [math.nan, math.nan], [1.0, 1.0, 1.0], [2.0, 5.0, 5.0, 2.0],
    [math.inf, 1.0, math.inf], [-math.inf, -math.inf], [math.nan, 3.0, 3.0],
    [3.0, math.nan, -1.0, -1.0], [-math.inf, math.inf, math.nan, 0.0],
], ids=lambda v: repr(v))
@pytest.mark.parametrize("lower", [False, True])
@pytest.mark.parametrize("at", ["i", ("i", "tag")], ids=["one-key", "two-keys"])
def test_fit_matches_strict_accumulator(vals, lower, at):
    rows = [{"v": v, "i": i, "tag": f"row{i}"} for i, v in enumerate(vals)]
    got = cond._fit(rows, "v", at, lower=lower)
    assert got == _accumulate(rows, "v", at, lower)
    if not any(v == v for v in vals):  # empty or all NaN
        assert got == ((math.inf if lower else -math.inf), None)


@given(st.lists(st.sampled_from(_VALUES), max_size=12), st.booleans())
def test_fit_matches_strict_accumulator_sampled(vals, lower):
    rows = [{"v": v, "i": i, "j": -i} for i, v in enumerate(vals)]
    for at in ("i", ("i", "j")):
        assert cond._fit(rows, "v", at, lower) == _accumulate(rows, "v", at, lower)


def test_fit_ties_go_to_the_first_row():
    rows = [{"v": 2.0, "at": "first"}, {"v": 2.0, "at": "second"},
            {"v": -1.0, "at": "low"}, {"v": -1.0, "at": "low-again"}]
    assert cond._fit(rows, "v", "at") == (2.0, "first")
    assert cond._fit(rows, "v", "at", lower=True) == (-1.0, "low")
