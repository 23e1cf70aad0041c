"""The matrix-free window operator against the dense matrices it replaces."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import ive

from jumplab import conditions as cond
from jumplab import semigroup
from jumplab.errors import NumericalFailure, WindowTooLarge
from jumplab.models import (
    EXTERIOR_TRACKED,
    BoxConvolution,
    FiniteModel,
    KILLED,
    REFLECTED,
    LadderKernel,
    LatticeModel,
    MuAlternating,
    MuTable,
    PolynomialKernel,
    SuppressedPairKernel,
    TabulatedKernel,
    _irfft,
    _pair_rates,
    _rfft,
    _shell_poly_coeffs,
    shell_counts,
    truncate,
)
from jumplab.semigroup import (
    _cg_solve,
    _chebyshev_series,
    _chebyshev_weights,
    _poisson_cutoff,
    _series,
    expected_exit_time,
    expm_action,
    generator,
    heat_kernel,
)
from oracles import poisson_mixture

MODES = (KILLED, REFLECTED, EXTERIOR_TRACKED)

# (model, window centre, window radius); the suppressed pairs put both, one
# and neither endpoint inside B(centre, radius)
CASES = {
    "linf-d1": (LatticeModel(d=1, kernel=PolynomialKernel(1.0)), (0,), 12),
    "l1-d1": (LatticeModel(d=1, metric="l1", kernel=PolynomialKernel(0.7)),
              (3,), 9),
    "linf-d2": (LatticeModel(d=2, kernel=PolynomialKernel(1.2)), (0, 0), 4),
    "l1-d2": (LatticeModel(d=2, metric="l1", kernel=PolynomialKernel(1.0)),
              (1, -2), 5),
    "ladder": (LatticeModel(d=1, kernel=LadderKernel(1.5, (4, 8))), (0,), 10),
    "mu-alternating": (LatticeModel(d=2, metric="l1", kernel=PolynomialKernel(1.0),
                                    mu_rule=MuAlternating(1.0, 2.5)), (0, 0), 4),
    "pair-both-in": (LatticeModel(d=1, kernel=SuppressedPairKernel(
        PolynomialKernel(1.0), (0,), (5,))), (0,), 8),
    "pair-one-in": (LatticeModel(d=1, kernel=SuppressedPairKernel(
        PolynomialKernel(1.0), (0,), (11,))), (0,), 8),
    "pair-none-in": (LatticeModel(d=1, kernel=SuppressedPairKernel(
        PolynomialKernel(1.0), (20,), (30,))), (0,), 8),
    "pair-both-in-l1-d2": (LatticeModel(d=2, metric="l1", kernel=SuppressedPairKernel(
        PolynomialKernel(1.0), (0, 0), (2, -1)), mu_rule=MuAlternating(1.0, 2.0)),
        (0, 0), 4),
}


def _window(name, mode):
    model, x0, r = CASES[name]
    return truncate(model, x0, r, mode, lam_ext=2.0)


def _dense_P_loop(fm, v, t, tol=1e-12):
    """exp(tQ) v by the uniformization loop over a P built from fm.rates."""
    Q = fm.rates / fm.mu[:, None]
    out_rate = fm.rates.sum(axis=1) / fm.mu + fm.kill
    np.fill_diagonal(Q, -out_rate)
    lam = float(out_rate.max())
    P = np.eye(fm.n) + Q / lam
    pmf, _ = _poisson_cutoff(lam * t, tol / float(np.abs(v).max()))
    acc = pmf[0] * v
    work = v
    for w in pmf[1:]:
        work = P @ work
        acc = acc + w * work
    return acc


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_matvec_and_row_sums_match_dense(name, mode):
    fm = _window(name, mode)
    assert fm.action is not None
    v = np.random.default_rng(7).standard_normal(fm.n)
    scale = np.abs(fm.rates).sum(axis=1).max()
    assert np.max(np.abs(fm.rates_matvec(v) - fm.rates @ v)) \
        <= 1e-13 * scale * np.abs(v).max()
    assert np.max(np.abs(fm.row_sums - fm.rates.sum(axis=1))) <= 1e-13 * scale


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_vector_expm_action_matches_dense_loop(name, mode):
    fm = _window(name, mode)
    v = np.random.default_rng(3).random(fm.n)
    got, _ = expm_action(generator(fm), v, 2.5)
    assert np.max(np.abs(got - _dense_P_loop(fm, v, 2.5))) \
        <= 1e-10 * np.abs(v).max()


# an explicit graph with unequal rates and measure, so the 1/sqrt(min mu)
# factor of the Chebyshev certificate is not 1
GRAPH = LatticeModel(
    kind="explicit", vertices=("a", "b", "c", "d", "e"),
    edges=(("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")),
    kernel=TabulatedKernel(entries=((("a", "b"), 1.0), (("b", "c"), 0.3),
                                    (("c", "d"), 2.0), (("a", "e"), 0.05),
                                    (("b", "d"), 0.7))),
    mu_rule=MuTable((("a", 1.0), ("b", 4.0), ("c", 0.5), ("d", 2.0),
                     ("e", 0.25))))
ORACLE_WINDOWS = [(name, mode) for name in sorted(CASES) for mode in MODES] \
    + [("graph", KILLED), ("graph", REFLECTED)]


def _oracle_window(name, mode):
    if name == "graph":
        return truncate(GRAPH, "a", 2 if mode == KILLED else 4, mode)
    return _window(name, mode)


@pytest.mark.parametrize("lt", [1e-3, 1.0, 50.0, 800.0])
@pytest.mark.parametrize("name, mode", ORACLE_WINDOWS)
def test_vector_expm_action_certificate_holds(name, mode, lt):
    """The Chebyshev series against scipy's dense exponential: the error is
    within the returned bound (plus rounding), and the vector agrees with the
    Poisson mixture on it as a column within the sum of the two bounds."""
    fm = _oracle_window(name, mode)
    gen = generator(fm)
    t = lt / gen.lam
    v = np.random.default_rng(11).standard_normal(fm.n)
    rounding = 1e-14 * np.abs(v).max()
    got, eps = expm_action(gen, v, t)
    assert 0.0 < eps <= 1e-12
    assert np.max(np.abs(got - expm(t * gen.Q) @ v)) <= eps + rounding
    as_matrix, eps_matrix = poisson_mixture(gen, v[:, None], t)
    assert np.max(np.abs(got - as_matrix[:, 0])) <= eps + eps_matrix + rounding


@pytest.mark.parametrize("lt", [1.0, 800.0])
@pytest.mark.parametrize("name, mode", ORACLE_WINDOWS)
def test_point_mass_certificate_holds(name, mode, lt):
    """A heat row's input e_x / mu_x, at the lightest and the heaviest
    vertex, against scipy's dense exponential: its mu-norm, 1/sqrt(mu_x),
    sets the certificate, and the error stays within it."""
    fm = _oracle_window(name, mode)
    gen = generator(fm)
    t = lt / gen.lam
    dense = expm(t * gen.Q)
    for i in {int(np.argmin(fm.mu)), int(np.argmax(fm.mu))}:
        e = np.zeros(fm.n)
        e[i] = 1.0 / fm.mu[i]
        got, eps = expm_action(gen, e, t)
        assert 0.0 < eps <= 1e-12
        assert np.max(np.abs(got - dense[:, i] / fm.mu[i])) <= eps + 1e-14 * e[i]


@pytest.mark.parametrize("tol", [1e-12, 1e-15])
@pytest.mark.parametrize("lt", [1e-3, 1.0, 50.0, 842.0, 1e4, 3.3e7])
def test_chebyshev_tail_bounds_the_direct_sum(lt, tol):
    """The weights are 2 ive(k, lt) (ive(0, lt) first) within scipy's own
    error, which mpmath puts at 6e-12 relative for lt = 3.3e7, and the tail
    bound dominates the direct sum of the weights left out."""
    coef, tail = _chebyshev_weights(lt, tol)
    K = len(coef) - 1
    expect = np.concatenate([[1.0], np.full(K, 2.0)]) * ive(np.arange(K + 1), lt)
    np.testing.assert_allclose(coef, expect, rtol=1e-12 if lt <= 1e4 else 2e-11)
    direct, k = 0.0, K + 1
    while True:  # sum 2 ive(k, lt) over k > K until it underflows
        w = 2.0 * ive(np.arange(k, k + 4096), lt)
        direct += w.sum()
        if w[-1] == 0.0:
            break
        k += 4096
    assert direct <= tail <= tol


def test_heat_row_chebyshev_matvec_count():
    """The heat row of `lab heat --r-win 2048 --t 256 --mode reflected`
    (Lam t = 842) takes at most 215 products with P (207 with the tail
    bounded through the row's mu-norm); the Poisson mixture took 1,220."""
    fm = truncate(LatticeModel(d=1, kernel=PolynomialKernel(1.0)), (0,), 2048,
                  REFLECTED)
    gen = generator(fm)
    assert gen.lam * 256.0 == pytest.approx(842.0, abs=0.5)
    calls = []
    apply = gen.apply

    def counted(V):
        calls.append(V.shape)
        return apply(V)

    gen.apply = counted
    e = np.zeros(fm.n)
    e[fm.index[(0,)]] = 1.0 / fm.mu[fm.index[(0,)]]
    _, eps = expm_action(gen, e, 256.0)
    assert 0 < len(calls) <= 215 and eps <= 1e-12
    assert set(calls) == {(fm.n,)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_lazy_rates_equal_eager_pair_rates(name):
    fm = _window(name, KILLED)
    assert "rates" not in vars(fm)
    eager = _pair_rates(fm.model, fm.window, fm.window)
    np.fill_diagonal(eager, 0.0)
    assert np.array_equal(fm.rates, eager)


@pytest.mark.parametrize("name", ["pair-both-in-l1-d2", "ladder", "mu-alternating"])
def test_generator_actions_match_dense_Q(name):
    fm = _window(name, KILLED)
    f = np.random.default_rng(1).standard_normal(fm.n)
    gen = generator(fm)
    Qf = gen.apply_Q(f)
    assert np.max(np.abs(Qf - gen.Q @ f)) <= 1e-12 * np.abs(gen.Q @ f).max()
    assert np.max(np.abs(gen.apply(f) - gen.P @ f)) <= 1e-13 * np.abs(f).max()


def test_reflected_heat_row_never_builds_dense_rates():
    model = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    fm = truncate(model, (0,), 512, REFLECTED)
    hk = heat_kernel(fm, (0,), 16.0)
    assert "rates" not in vars(fm)
    # the source slot comes from the window's points: neither the list of
    # vertex tuples nor the index dict is built
    assert "window" not in vars(fm) and "index" not in vars(fm)
    assert abs(float(hk.mass()) - 1.0) <= 1e-10


LADDER = LatticeModel(d=1, kernel=LadderKernel(1.5, (16, 64, 256)))

# killed windows for the CG exit-time solve, (model, centre, radius), all of
# at most 4,225 states; the ladder windows are those of `lab cex ladder`, and
# the ladder at 1024 and 2048 and alpha = 1.9 at 512 have rounding floors
# above 1e-10 of the right-hand side, which the iteration stops at
LADDER_WIDE = LatticeModel(d=1, kernel=LadderKernel(1.5, (16, 64, 256, 1024, 2048)))
CG_CASES = {
    "polynomial-d1": (LatticeModel(d=1, kernel=PolynomialKernel(1.0)), (0,), 256),
    **{f"ladder-{r}": (LADDER, (0,), r) for r in LADDER.kernel.ranges},
    **{f"ladder-{r}": (LADDER_WIDE, (0,), r) for r in (1024, 2048)},
    "alpha-1.9": (LatticeModel(d=1, kernel=PolynomialKernel(1.9)), (0,), 512),
    "pair-in-window": (LatticeModel(d=1, kernel=SuppressedPairKernel(
        PolynomialKernel(1.0), (0,), (5,))), (0,), 64),
    "mu-alternating": (LatticeModel(d=1, kernel=PolynomialKernel(1.0),
                                    mu_rule=MuAlternating(1.0, 2.0)), (0,), 128),
    "linf-d2": (LatticeModel(d=2, kernel=PolynomialKernel(1.0)), (0, 0), 32),
    "l1-d2": (LatticeModel(d=2, metric="l1", kernel=PolynomialKernel(1.0)),
              (0, 0), 32),
}


@pytest.mark.parametrize("name", sorted(CG_CASES))
def test_cg_exit_time_matches_dense_solve(name):
    """CG agrees with the dense solve of -Q u = 1 to 1e-10 relative at every
    slot, and its relative certificate bounds the distance at every slot."""
    model, x0, r = CG_CASES[name]
    fm = truncate(model, x0, r, KILLED)
    assert fm.n <= 4225
    u, rel = _cg_solve(fm, np.ones(fm.n))
    want = np.linalg.solve(-generator(fm).Q, np.ones(fm.n))
    err = np.abs(u - want)
    assert np.all(err <= 1e-10 * want)
    assert np.all(err <= rel * u) and rel < 1e-7


def test_cg_iterations_stay_few_on_the_widest_ladder(monkeypatch):
    """The circulant preconditioner solves the ladder window of range 4,096
    (8,193 states) in at most 30 iterations; plain CG takes about 600, so a
    silent fall-back to it fails on the cap."""
    model = LatticeModel(d=1, kernel=LadderKernel(1.5, (16, 64, 256, 1024, 4096)))
    fm = truncate(model, (0,), 4096, KILLED)
    monkeypatch.setattr(semigroup, "CG_MAXITER", 30)
    u, rel = _cg_solve(fm, np.ones(fm.n))
    assert rel < 1e-7 and u.argmax() == fm.index[(0,)]


@pytest.mark.parametrize("name", ["linf-d1", "ladder", "linf-d2", "l1-d2"])
def test_strang_solve_equals_dense_circulant(name):
    """`BoxConvolution.strang` against R C^-1 R^T formed densely on the box
    of side 2m + 1: C[i, j] = diag - J(w(i - j)), w taking each coordinate
    mod side to the nearest of -m..m, and R picks the window's points."""
    model, x0, r = CASES[name]
    fm = _window(name, KILLED)
    m, d = int(r), model.d
    side = 2 * m + 1
    diag = float(model.row_sum_all(model.origin)[0])
    pts = np.stack(np.unravel_index(np.arange(side ** d), (side,) * d), axis=-1)
    gap = (pts[:, None, :] - pts[None, :, :] + m) % side - m
    C = diag * np.eye(side ** d) - model.radial_values(model.norm(gap))
    assert np.linalg.eigvalsh(C).min() > 0
    slots = np.ravel_multi_index(tuple((np.array(fm.window) - x0 + m).T), (side,) * d)
    v = np.random.default_rng(4).standard_normal(fm.n)
    want = np.linalg.inv(C)[np.ix_(slots, slots)] @ v
    got = fm.action.strang(diag)(v)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", ["pair-both-in-l1-d2", "pair-both-in"])
def test_box_convolution_reused_bitwise_equals_fresh(name):
    """One `BoxConvolution`, and one of its Strang solves, applied to five
    vectors in a row equal a fresh instance per vector, bit for bit: each
    keeps its zero-padded box, and an l1 window scatters into a masked
    subset of it, so a stale pad entry would leak into the next product."""
    model, x0, r = CASES[name]
    fm = _window(name, KILLED)
    diag = float(model.row_sum_all(model.origin)[0])
    conv, solve = fm.action, fm.action.strang(diag)
    for v in np.random.default_rng(11).standard_normal((5, fm.n)):
        fresh = BoxConvolution(model, fm.points, x0, r)
        assert np.array_equal(conv(v), fresh(v))
        assert np.array_equal(solve(v), fresh.strang(diag)(v))


@pytest.mark.parametrize("shape", [(24,), (25,), (6, 10)])
def test_rfft_pair_bitwise_equals_numpy_nd(shape):
    """`_rfft`/`_irfft` (rfft itself on one axis) give rfftn/irfftn's bits."""
    u = np.random.default_rng(2).standard_normal(shape)
    axes = tuple(range(len(shape)))
    spec = np.fft.rfftn(u, axes=axes)
    assert np.array_equal(_rfft(u), spec)
    assert np.array_equal(_irfft(spec, shape),
                          np.fft.irfftn(spec, s=shape, axes=axes).reshape(-1))


@pytest.mark.parametrize("terms", [1, 2, 3, None])
def test_matrix_series_bitwise_equals_plain_loop(terms):
    """`_series` on a matrix, through the two arrays it owns, against the
    plain loop acc += w * (P @ work), bit for bit, for an odd and an even
    number of products."""
    fm = _window("pair-both-in-l1-d2", EXTERIOR_TRACKED)
    gen = generator(fm)
    V = np.random.default_rng(5).random((fm.n, 7))
    weights = _poisson_cutoff(gen.lam * 3.0, 1e-12)[0][:terms]
    acc, work = weights[0] * V, V
    for w in weights[1:]:
        work = gen.P @ work
        acc += w * work
    assert np.array_equal(_series(gen, V, (weights,))[0], acc)


def test_chebyshev_series_bitwise_equals_plain_recurrence():
    """`_chebyshev_series`, stepping in place, against the plain recurrence
    T_{k+1} = 2 P T_k - T_{k-1}, bit for bit; v itself is not written."""
    fm = _window("pair-both-in-l1-d2", REFLECTED)
    gen = generator(fm)
    v = np.random.default_rng(6).standard_normal(fm.n)
    coef, _ = _chebyshev_weights(gen.lam * 2.5, 1e-12)
    prev, work = v, gen.apply(v)
    acc = coef[0] * v + coef[1] * work
    for c in coef[2:]:
        prev, work = work, 2.0 * gen.apply(work) - prev
        acc += c * work
    kept = v.copy()
    assert np.array_equal(_chebyshev_series(gen, v, coef), acc)
    assert np.array_equal(v, kept)


def test_cg_past_iteration_cap_raises(monkeypatch):
    model, x0, r = CG_CASES["ladder-256"]
    fm = truncate(model, x0, r, KILLED)
    monkeypatch.setattr(semigroup, "CG_MAXITER", 5)
    with pytest.raises(NumericalFailure, match="5 iterations"):
        expected_exit_time(fm)


def test_cg_stall_above_rounding_raises(monkeypatch):
    """A product with errors far above the FFT's rounding stalls the true
    residual above its rounding estimate, which raises."""
    model, x0, r = CG_CASES["ladder-256"]
    fm = truncate(model, x0, r, KILLED)
    fm.row_sums
    exact = FiniteModel.rates_matvec
    noise = np.random.default_rng(0)

    def noisy(self, v):
        return exact(self, v) * (1 + 1e-6 * noise.standard_normal(self.n))

    monkeypatch.setattr(FiniteModel, "rates_matvec", noisy)
    with pytest.raises(NumericalFailure, match="stalled"):
        expected_exit_time(fm)


def test_ladder_exit_times_stay_matrix_free(monkeypatch):
    """The exit-time check of `lab cex ladder` makes no dense solve and
    builds no dense rate matrix."""
    def dense_solve(*args):
        raise AssertionError("dense solve on the ladder's exit-time path")

    monkeypatch.setattr(np.linalg, "solve", dense_solve)
    rep = cond.check_exit_time(LADDER, 1.5, radii=list(LADDER.kernel.ranges))
    assert rep.constants["c2"] / rep.constants["c1"] <= 2.0
    fm = truncate(LADDER, (0,), 256, KILLED)
    expected_exit_time(fm)
    assert "rates" not in vars(fm)


def test_dense_rates_over_byte_budget_raise_before_allocating():
    """A d=2, r=64 window (16,641 states) would need a 2.2 GB rate matrix:
    reading it raises at once, and its exit times are still computed."""
    fm = truncate(LatticeModel(d=2, kernel=PolynomialKernel(1.0)), (0, 0), 64,
                  KILLED)
    assert fm.n == 16_641
    tracemalloc.start()
    try:
        with pytest.raises(WindowTooLarge, match="budget"):
            fm.rates
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    u = expected_exit_time(fm)
    assert np.all(u > 0) and u.argmax() == fm.index[(0, 0)]


def test_poincare_checks_every_ball_before_eigensolve(monkeypatch):
    """`poincare --d 2 --radii 16,32,64`: the r = 64 ball is over the byte
    budget, so the sweep raises before its first eigensolve."""
    solves = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: solves.append(a))
    with pytest.raises(WindowTooLarge, match="budget"):
        cond.check_poincare(LatticeModel(d=2, kernel=PolynomialKernel(1.0)),
                            1.0, radii=[16, 32, 64])
    assert solves == []


def test_check_hkp_reports_poisson_error(z1):
    rep = cond.check_hkp(z1, 1.0, pairs=[((0,), (4,)), ((0,), (8,))],
                         times=[1.0, 2.0, 4.0, 8.0, 16.0], r_win=128)
    eps = rep.metadata["eps_poisson"]
    # one step per window and time, each certified to the 1e-13 tolerance
    assert 0.0 <= eps <= 2 * len(rep.grid["times"]) * 1e-13


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("metric", ["linf", "l1"])
def test_shell_counts_match_shell_count(d, metric):
    s = np.concatenate([np.arange(0, 300), [4095, 4096, 2 ** 16]])
    got = shell_counts(d, metric, s)
    assert got.dtype == np.int64
    assert got.tolist() == [shell_count(d, metric, int(r)) for r in s]
    assert_poly_matches(d, metric, s)


@pytest.mark.parametrize("d", [4, 5])
@pytest.mark.parametrize("metric", ["linf", "l1"])
def test_shell_counts_exact_beyond_int64(d, metric):
    """Where (2s+1)^d leaves int64, as on Z^4 at the shell horizon, the
    counts come in Python integers and stay exact."""
    s = np.array([0, 1, 7, 4096, 2 ** 16 - 1, 2 ** 16])
    got = shell_counts(d, metric, s)
    assert got.tolist() == [shell_count(d, metric, int(r)) for r in s]
    assert_poly_matches(d, metric, s)


def assert_poly_matches(d, metric, s):
    """The tail-sum polynomial sum_j c_j s^j / (d-1)!, in integers, gives
    every count for s >= 1."""
    coeffs, den = _shell_poly_coeffs(d, metric)
    assert den == math.factorial(d - 1)
    for r in (int(r) for r in s if r >= 1):
        assert sum(c * r ** j for j, c in enumerate(coeffs)) \
            == den * shell_count(d, metric, r), r


def shell_count(d, metric, s):
    """Reference: the per-radius closed form in Python integers."""
    if s == 0:
        return 1
    if metric == "linf":
        return (2 * s + 1) ** d - (2 * s - 1) ** d
    return sum(2 ** k * math.comb(d, k) * math.comb(s - 1, k - 1)
               for k in range(1, min(d, s) + 1))
