import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.linalg import expm

from jumplab.errors import NoExit, TruncationBudgetExceeded
from jumplab.models import (
    KILLED,
    LatticeModel,
    PolynomialKernel,
    REFLECTED,
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
)
from oracles import caloric_solve, full_window, harmonic_extension, orbit_window


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
        hk = heat_kernel(fm, None, t)
        assert np.max(np.abs(hk.values - dense_oracle(fm, t))) < 1e-10


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
    all_pairs = heat_kernel(fm, None, 0.7)
    row = heat_kernel(fm, (2,), 0.7)
    assert np.max(np.abs(row.values - all_pairs.values[fm.index[(2,)]])) < 1e-13


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
    hk = heat_kernel(fm, None, 50.0)
    assert np.max(np.abs(hk.values - dense_oracle(fm, 50.0))) < 1e-9


@pytest.mark.parametrize("x", [(0,), None], ids=["vector", "matrix"])
def test_negative_time_raises(z1, x):
    """A negative t raises in `expm_action`, which every heat action passes
    through, before a series is built from a negative Lam t."""
    fm = truncate(z1, (0,), 4, KILLED)
    V = np.eye(fm.n) if x is None else np.ones(fm.n)
    with pytest.raises(ValueError, match="need t >= 0"):
        expm_action(generator(fm), V, -1e-3)
    with pytest.raises(ValueError, match="need t >= 0"):
        heat_kernel(fm, x, -1e-3)


# ---------------------------------------------------------------------------
# conservation / symmetry / semigroup laws
# ---------------------------------------------------------------------------

def test_conservation_and_symmetry(z1):
    ref = truncate(z1, (0,), 10, REFLECTED)
    kil = truncate(z1, (0,), 10, KILLED)
    for t in (0.1, 1.0, 10.0):
        hr = heat_kernel(ref, None, t)
        mass = hr.values @ ref.mu
        assert np.max(np.abs(mass - 1.0)) < 1e-9
        hk = heat_kernel(kil, None, t)
        assert np.max(hk.values @ kil.mu) <= 1.0 + 1e-9
        for h in (hr, hk):
            assert np.max(np.abs(h.values - h.values.T)) < 2e-10


def test_chapman_kolmogorov(z1):
    fm = truncate(z1, (0,), 8, KILLED)
    t, s = 0.4, 1.1
    pt = heat_kernel(fm, None, t).values
    ps = heat_kernel(fm, None, s).values
    pts = heat_kernel(fm, None, t + s).values
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
    hk = heat_kernel(kil, None, 2.0)
    want = hk.values[kil.index[(0,)]] * kil.mu  # exp(tQ) row
    assert np.max(np.abs(fld.at(32) - want)) < 1e-11


def test_caloric_unit_data_is_exit_probability(z1):
    fm, sources = full_window(z1, (0,), 6)
    ones = np.ones((32, len(fm.exterior)))
    fld = caloric_solve(fm, sources, np.zeros(fm.n), ones, T=2.0, m_steps=32,
                        remainder_data=np.ones(32))
    kil = truncate(z1, (0,), 6, KILLED)
    survival = heat_kernel(kil, None, 2.0).values @ np.diag(kil.mu)
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
                     lambda: expm_action(gen, np.eye(fm.n), 3.3e7 / gen.lam),
                     lambda: integrated_action(gen, np.ones(fm.n), 3.3e7 / gen.lam),
                     lambda: expm_action(gen, np.ones(fm.n), 1e11 / gen.lam)):
            with pytest.raises(TruncationBudgetExceeded):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
