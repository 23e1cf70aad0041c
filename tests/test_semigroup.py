import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.linalg import expm

from jumplab import harnack as H
from jumplab import semigroup
from jumplab.errors import NoExit, NumericalFailure, TruncationBudgetExceeded
from jumplab.models import (
    EXTERIOR_TRACKED,
    KILLED,
    LatticeModel,
    PolynomialKernel,
    REFLECTED,
    SuppressedPairKernel,
    truncate,
)
from jumplab.semigroup import (
    _chebyshev_weights,
    _ive,
    _poisson_cutoff,
    _poisson_table,
    expected_exit_time,
    expm_action,
    generator,
    heat_kernel,
    integrated_action,
    TILE_COLS,
    step_operators,
)
from oracles import (
    all_pairs_heat_kernel,
    caloric_solve,
    full_window,
    harmonic_extension,
    orbit_window,
    poisson_mixture,
)


def dense_oracle(fm, t):
    """Heat kernel density via scipy's dense matrix exponential."""
    gen = generator(fm)
    return expm(t * gen.Q) / fm.mu[None, :]


# ---------------------------------------------------------------------------
# uniformization vs dense exponential
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_uniformization_matches_dense(z1, two_state, t):
    models = [truncate(two_state[0], "a", 1, REFLECTED),
              truncate(z1, (0,), 10, KILLED),
              truncate(LatticeModel(d=2, kernel=PolynomialKernel(1.0)),
                       (0, 0), 3, REFLECTED)]
    for fm in models:
        values = all_pairs_heat_kernel(fm, t)
        assert np.max(np.abs(values - dense_oracle(fm, t))) < 1e-10


def test_two_state_closed_form(two_state):
    model, j = two_state
    fm = truncate(model, "a", 1, REFLECTED)
    for t in (0.1, 1.0, 10.0):
        hk = heat_kernel(fm, "a", t)
        assert hk.values[fm.index["a"]] == pytest.approx(
            (1 + math.exp(-2 * j * t)) / 2, abs=1e-12)
        assert hk.values[fm.index["b"]] == pytest.approx(
            (1 - math.exp(-2 * j * t)) / 2, abs=1e-12)


def test_single_source_matches_all_pairs(z1):
    fm = truncate(z1, (0,), 8, KILLED)
    all_pairs = all_pairs_heat_kernel(fm, 0.7)
    row = heat_kernel(fm, (2,), 0.7)
    assert np.max(np.abs(row.values - all_pairs[fm.index[(2,)]])) < 1e-13


def test_vector_action_clipped_at_zero(z1):
    """At t = 100 the killed row has decayed to rounding level, where the
    Chebyshev terms cancel; exp(tQ) has no negative entry, so the row is
    clipped at zero and stays inside its certified bound."""
    fm = truncate(z1, (0,), 8, KILLED)
    hk = heat_kernel(fm, (0,), 100.0)
    assert hk.values.min() >= 0.0
    want = dense_oracle(fm, 100.0)[fm.index[(0,)]]
    assert np.max(np.abs(hk.values - want)) <= hk.eps_poisson


def test_wide_split_long_time(z1):
    # an all-pairs action at lam * t > 64 against the dense oracle
    fm = truncate(z1, (0,), 20, REFLECTED)
    values = all_pairs_heat_kernel(fm, 50.0)
    assert np.max(np.abs(values - dense_oracle(fm, 50.0))) < 1e-9


def test_expm_action_refuses_a_matrix(z1):
    """`expm_action` takes vectors only: on a matrix `GeneratorView.apply_Q`
    would divide by mu along the wrong axis, so a 2-D operand raises."""
    fm = truncate(z1, (0,), 4, KILLED)
    for V in (np.eye(fm.n), np.ones((fm.n, 1))):
        with pytest.raises(ValueError, match="takes a vector"):
            expm_action(generator(fm), V, 1.0)


@pytest.mark.parametrize("x", [(0,), None], ids=["vector", "matrix"])
def test_negative_time_raises(z1, x):
    """A negative t raises in `expm_action`, which every heat action passes
    through, before a series is built from a negative Lam t."""
    fm = truncate(z1, (0,), 4, KILLED)
    V = np.eye(fm.n) if x is None else np.ones(fm.n)
    with pytest.raises(ValueError, match="need t >= 0"):
        expm_action(generator(fm), V, -1e-3)
    if x is not None:
        with pytest.raises(ValueError, match="need t >= 0"):
            heat_kernel(fm, x, -1e-3)


# ---------------------------------------------------------------------------
# conservation / symmetry / semigroup laws
# ---------------------------------------------------------------------------

def test_conservation_and_symmetry(z1):
    ref = truncate(z1, (0,), 10, REFLECTED)
    kil = truncate(z1, (0,), 10, KILLED)
    for t in (0.1, 1.0, 10.0):
        hr = all_pairs_heat_kernel(ref, t)
        mass = hr @ ref.mu
        assert np.max(np.abs(mass - 1.0)) < 1e-9
        hk = all_pairs_heat_kernel(kil, t)
        assert np.max(hk @ kil.mu) <= 1.0 + 1e-9
        for h in (hr, hk):
            assert np.max(np.abs(h - h.T)) < 2e-10


def test_chapman_kolmogorov(z1):
    fm = truncate(z1, (0,), 8, KILLED)
    t, s = 0.4, 1.1
    pt = all_pairs_heat_kernel(fm, t)
    ps = all_pairs_heat_kernel(fm, s)
    pts = all_pairs_heat_kernel(fm, t + s)
    composed = pt @ np.diag(fm.mu) @ ps
    assert np.max(np.abs(composed - pts)) < 3e-10


def test_short_time_jump_identity(z1):
    fm = truncate(z1, (0,), 64, KILLED)
    t = 1e-4
    hk = heat_kernel(fm, (0,), t)
    for y in [(1,), (3,), (10,)]:
        p = hk.values[fm.index[y]]
        j = z1.J((0,), y)
        assert abs(p / t - j) / j < 1e-2


# ---------------------------------------------------------------------------
# integrated action and exit times
# ---------------------------------------------------------------------------

def test_integrated_action_vs_quadrature(two_state):
    model, _ = two_state
    fm = truncate(model, "a", 1, REFLECTED)
    gen = generator(fm)
    v = np.array([1.0, 0.3])
    got, err = integrated_action(gen, v, 2.5)
    for i in range(2):
        want, _ = quad(lambda s: (expm(s * gen.Q) @ v)[i], 0, 2.5,
                       epsabs=1e-13)
        assert got[i] == pytest.approx(want, abs=1e-10)
    assert err < 1e-10


@pytest.mark.parametrize("t", [1.0, 1e3, 1e4])
def test_integrated_action_vs_dense_oracle(z1, t):
    """int_0^t e^{sQ} V ds = Q^{-1}(e^{tQ} - I) V on a killed window; the
    reported error is the Poisson tail bound, not the rounding noise of a
    difference of nearly equal numbers (which made t = 1e4 exceed the
    term cap)."""
    fm = truncate(z1, (0,), 8, KILLED)
    gen = generator(fm)
    v = np.ones(fm.n)
    got, err = integrated_action(gen, v, t)
    want = np.linalg.solve(gen.Q, (expm(t * gen.Q) - np.eye(fm.n)) @ v)
    assert np.max(np.abs(got - want)) <= err + 1e-12 * np.max(np.abs(want))
    assert err <= 1e-12


@pytest.mark.parametrize("kernel, d, r_win, dt", [
    (PolynomialKernel(1.0), 1, 8, 1.0 / 16),
    (PolynomialKernel(1.0), 1, 8, 4.0),
    (SuppressedPairKernel(PolynomialKernel(0.8), (0,), (3,)), 1, 6, 0.3),
    (PolynomialKernel(1.0), 2, 4, 4.0 / 256),
    (PolynomialKernel(1.5), 2, 4, 2.0),
])
def test_step_operators_equal_the_per_column_series(kernel, d, r_win, dt):
    """E, summed beside W in one pass over the powers, is the Poisson
    mixture on the identity bit for bit; S = W sources is nonnegative and within 1e-13
    relative of `integrated_action` on the source columns at every entry;
    err is the sum of the two series' certified errors, unchanged."""
    fm, sources = orbit_window(LatticeModel(d=d, kernel=kernel), (0,) * d, r_win)
    ops = step_operators(fm, dt, sources.copy())
    gen = generator(fm)
    E, e1 = poisson_mixture(gen, np.eye(fm.n), dt)
    S, e2 = integrated_action(gen, sources, dt)
    assert np.array_equal(ops.E, E)
    assert np.all(ops.S >= 0.0) and np.all(S > 0.0)
    assert np.all(np.abs(ops.S - S) <= 1e-13 * S)
    assert ops.err == e1 + e2


def test_step_operators_write_S_over_the_sources():
    """S is written over the source matrix, equal to the S of a copy of it;
    at the window of `lab phi --d 2 --R 4` (289 states, 2,102 channels) the
    tracemalloc peak of the call is one chunk of TILE_COLS columns and seven
    n x n arrays (Q, P, the identity, E, W and the series' two buffers),
    below a second source matrix beside them."""
    box = H.HarnackBox(x0=(0, 0), R=4, alpha=1.0)
    fm = truncate(LatticeModel(d=2, kernel=PolynomialKernel(1.0)), box.x0,
                  2 * box.R, EXTERIOR_TRACKED, 2 * H.LAM_EXT)
    sources = H._channels(fm, box.x0, H.LAM_EXT * 2 * box.R)[1]
    n, k = sources.shape
    assert (n, k) == (289, 2102)
    dt = box.T / H.M_STEPS
    fresh = step_operators(fm, dt, sources.copy())
    fm.rates  # the window's own rate matrix, built once before the trace
    tracemalloc.start()
    try:
        ops = step_operators(fm, dt, sources)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ops.S is sources
    assert np.array_equal(ops.E, fresh.E) and ops.err == fresh.err
    assert np.array_equal(ops.S, fresh.S)
    assert peak <= 8 * (n * TILE_COLS + 7 * n * n)
    assert peak < sources.nbytes + 4 * 8 * n * n


def test_exit_time_vs_survival_quadrature(z1):
    fm = truncate(z1, (0,), 6, KILLED)
    u = expected_exit_time(fm)
    gen = generator(fm)
    i = fm.index[(0,)]
    # E tau = int_0^inf P^0(tau > t) dt, survival from the killed semigroup
    want, _ = quad(lambda t: (expm(t * gen.Q)).sum(axis=1)[i], 0, np.inf,
                   limit=200)
    assert u[i] == pytest.approx(want, rel=1e-8)
    assert u[i] == u.max()  # maximal at the center


def test_exit_time_requires_killing(z1):
    with pytest.raises(NoExit):
        expected_exit_time(truncate(z1, (0,), 4, REFLECTED))


# ---------------------------------------------------------------------------
# generator properties
# ---------------------------------------------------------------------------

def test_apply_generator_constant(z1):
    fm = truncate(z1, (0,), 5, KILLED)
    out = generator(fm).apply_Q(np.ones(fm.n))
    assert np.max(np.abs(out + fm.kill)) < 1e-14


# ---------------------------------------------------------------------------
# caloric solves
# ---------------------------------------------------------------------------

def test_caloric_zero_data_is_killed_semigroup(z1):
    fm, sources = orbit_window(z1, (0,), 6)
    init = np.zeros(fm.n)
    init[fm.index[(0,)]] = 1.0
    fld = caloric_solve(fm, sources, init, None, T=2.0, m_steps=32)
    kil = truncate(z1, (0,), 6, KILLED)
    # the exp(tQ) row
    want = all_pairs_heat_kernel(kil, 2.0)[kil.index[(0,)]] * kil.mu
    assert np.max(np.abs(fld.at(32) - want)) < 1e-11


def test_caloric_unit_data_is_exit_probability(z1):
    fm, sources = full_window(z1, (0,), 6)
    ones = np.ones((32, len(fm.exterior)))
    fld = caloric_solve(fm, sources, np.zeros(fm.n), ones, T=2.0, m_steps=32,
                        remainder_data=np.ones(32))
    kil = truncate(z1, (0,), 6, KILLED)
    survival = all_pairs_heat_kernel(kil, 2.0) @ np.diag(kil.mu)
    want = 1.0 - survival.sum(axis=1)
    assert np.max(np.abs(fld.at(32) - want)) < 1e-11


def test_caloric_superposition(z1, rng):
    fm, sources = orbit_window(z1, (0,), 5)
    m = 16
    init1, init2 = rng.random(fm.n), rng.random(fm.n)
    d1, d2 = rng.random((m, len(fm.exterior))), rng.random((m, len(fm.exterior)))
    a, b = 0.3, 1.7
    f1 = caloric_solve(fm, sources, init1, d1, T=1.0, m_steps=m)
    f2 = caloric_solve(fm, sources, init2, d2, T=1.0, m_steps=m)
    f3 = caloric_solve(fm, sources, a * init1 + b * init2, a * d1 + b * d2,
                       T=1.0, m_steps=m)
    assert np.max(np.abs(a * f1.values + b * f2.values - f3.values)) < 1e-10


# ---------------------------------------------------------------------------
# harmonic extensions
# ---------------------------------------------------------------------------

def test_harmonic_extension_constant_and_max_principle(z1, rng):
    fm, sources = full_window(z1, (0,), 6)
    h = harmonic_extension(fm, sources, np.ones(len(fm.exterior)),
                           remainder_value=1.0)
    assert np.max(np.abs(h - 1.0)) < 1e-12
    g = rng.random(len(fm.exterior))
    h = harmonic_extension(fm, sources, g, remainder_value=0.3)
    assert h.min() >= -1e-12
    assert h.max() <= max(g.max(), 0.3) + 1e-12
    # residual: Q h + sources [g, 0.3] = 0
    gen = generator(fm)
    res = gen.Q @ h + sources[:, :-1] @ g + sources[:, -1] * 0.3
    assert np.max(np.abs(res)) < 1e-12


@pytest.mark.parametrize("lt", [0.0, 0.3, 5.0, 842.7, 1e4])
def test_poisson_weights_equal_scipy_stats(lt):
    """The uniformization weights equal scipy.stats.poisson's within scipy's
    own error: its log-space pmf is off by up to 4e-11 relative at lt = 1e4
    (mpmath), its sf by up to 1e-13.  K is the least with sf(K) <= tol."""
    pmf, sf = _poisson_cutoff(lt, 1e-12)
    ks = np.arange(len(pmf))
    np.testing.assert_allclose(pmf, stats.poisson.pmf(ks, lt), rtol=1e-10,
                               atol=1e-300)
    np.testing.assert_allclose(sf, stats.poisson.sf(ks, lt), rtol=1e-12,
                               atol=1e-300)
    assert sf[-1] <= 1e-12
    assert len(sf) == 1 or sf[-2] > 1e-12


# (lt, j, pmf(j), sf(j) = P(N > j)) to 30 digits, from mpmath's exp, factorial
# and regularized lower incomplete gamma at the float lt
POISSON_LITERALS = [
    (0.3, 3, 0.00333368199306773006419918651354,
     0.000265811190021739705742529755785),
    (842.7, 842, 0.0137431010345031229830415464032,
     0.500457787434383536309243239179),
    (842.7, 1000, 1.22571584194604338603193589813e-8,
     6.32572152104313647626688756952e-8),
    (1e4, 10000, 0.00398938955896282564867182698206,
     0.497340418780992374734070424318),
    (1e4, 10400, 1.45698127480850319443290125302e-6,
     3.44056569161712956060279412227e-5),
]


@pytest.mark.parametrize("lt, j, pmf_j, sf_j", POISSON_LITERALS)
def test_poisson_table_literals(lt, j, pmf_j, sf_j):
    pmf, sf = _poisson_table(lt, j)
    assert len(pmf) == len(sf) == j + 1
    assert pmf[j] == pytest.approx(pmf_j, rel=4e-15)
    assert sf[j] == pytest.approx(sf_j, rel=4e-15)


# (k, x, ive(k, x)) to 30 digits, from mpmath's besseli times exp(-x)
IVE_LITERALS = [
    (3, 1e-3, 2.08125117139772469699819152582e-11),
    (100, 842.0, 3.63804952745145281861975167855e-5),
    (0, 3.3e7, 6.94469372969587183111148350872e-5),
    (20000, 3.3e7, 1.62018784285593901828799244763e-7),
]


@pytest.mark.parametrize("k, x, value", IVE_LITERALS)
def test_ive_literals(k, x, value):
    w = _ive(k, x)
    assert len(w) == k + 1
    assert w[k] == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize("x", [1e-300, 1e-100, 1e-60, 1e-20])
def test_ive_at_tiny_x_is_the_leading_term(x):
    """Far below 1, ive(k, x) is (x/2)^k / k! e^-x to 4 ulp wherever that is
    a normal double, and no weight is NaN or infinite: the backward
    recurrence's factor 2k/x overflowed there (all NaN at x = 1e-60)."""
    n = 31  # the first rung of a heat row's Chebyshev weights
    w = _ive(n, x)
    assert len(w) == n + 1 and np.all(np.isfinite(w)) and np.all(w >= 0.0)
    exp_minus_x = 1 - Fraction(x) + Fraction(x) ** 2 / 2  # to 1e-60 relative
    normal = 0
    for k in range(n + 1):
        want = float(Fraction(x / 2) ** k / math.factorial(k) * exp_minus_x)
        if want >= np.finfo(float).tiny:
            normal += 1
            assert abs(w[k] - want) <= 4 * math.ulp(want)
        else:
            assert w[k] <= np.finfo(float).tiny
    assert normal >= 2


def test_non_finite_chebyshev_weights_raise(monkeypatch):
    """NaN weights never meet the tail test; they raise NumericalFailure at
    once instead of doubling the series toward TERM_CAP."""
    monkeypatch.setattr(semigroup, "_ive", lambda n, x: np.full(n + 1, np.nan))
    with pytest.raises(NumericalFailure, match="non-finite"):
        _chebyshev_weights(1e-3, 1e-12)


@pytest.mark.parametrize("t", [1e-60, 1e-100, 1e-300])
def test_heat_row_at_tiny_t_is_the_point_mass(z1, t):
    fm = truncate(z1, (0,), 4, REFLECTED)
    hk = heat_kernel(fm, (0,), t)
    assert np.all(np.isfinite(hk.values)) and math.isfinite(hk.eps_poisson)
    assert abs(hk.mass() - 1.0) <= 1e-10
    assert hk.values[fm.slot((0,))] == pytest.approx(1.0, abs=1e-10)


def test_poisson_cutoff_is_tight():
    """At the step sizes of the phi and cex-suppressed Harnack scans (Lam dt
    about 0.1 and 0.2) the cutoff sums the 8-10 terms tol needs, not the
    42-43 of the doubling ladder's first rung."""
    for lt, terms in ((0.1028, 8), (0.2056, 10)):
        pmf, sf = _poisson_cutoff(lt, 1e-12)
        assert len(pmf) == terms
        assert sf[-1] <= 1e-12 < sf[-2]


def test_term_cap_raises_before_allocating(z1):
    """Both series check TERM_CAP on their first cutoff, before an array of
    that many terms exists: Lam t = 3.3e7 needs about 3.3e7 Poisson terms, and
    Lam t = 1e11 about 2.5e6 Chebyshev terms."""
    fm = truncate(z1, (0,), 8, KILLED)
    gen = generator(fm)
    tracemalloc.start()
    try:
        for call in (lambda: _poisson_cutoff(3.3e7, 1e-12),
                     lambda: _chebyshev_weights(1e11, 1e-12),
                     lambda: poisson_mixture(gen, np.eye(fm.n), 3.3e7 / gen.lam),
                     lambda: integrated_action(gen, np.ones(fm.n), 3.3e7 / gen.lam),
                     lambda: expm_action(gen, np.ones(fm.n), 1e11 / gen.lam)):
            with pytest.raises(TruncationBudgetExceeded):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
