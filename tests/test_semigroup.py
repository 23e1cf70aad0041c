import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from jumplab.errors import InvalidData, NoExit
from jumplab.models import (
    EXTERIOR_TRACKED,
    KILLED,
    LatticeModel,
    PolynomialKernel,
    REFLECTED,
    truncate,
)
from jumplab.semigroup import (
    apply_generator,
    caloric_solve,
    dirichlet_form,
    expected_exit_time,
    expm_action,
    generator,
    harmonic_extension,
    heat_kernel,
    integrated_action,
    killed_heat_kernel,
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


def test_wide_split_long_time(z1):
    # an all-pairs action at lam * t > 64 against the dense oracle
    fm = truncate(z1, (0,), 20, REFLECTED)
    hk = heat_kernel(fm, None, 50.0)
    assert np.max(np.abs(hk.values - dense_oracle(fm, 50.0))) < 1e-9


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
# generator / Dirichlet form properties
# ---------------------------------------------------------------------------

def test_apply_generator_constant(z1):
    fm = truncate(z1, (0,), 5, KILLED)
    out = apply_generator(fm, np.ones(fm.n))
    assert np.max(np.abs(out + fm.kill)) < 1e-14


@settings(max_examples=25)
@given(st.integers(0, 2 ** 31 - 1))
def test_dirichlet_form_nonnegative(seed):
    z1 = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    fm = truncate(z1, (0,), 5, KILLED)
    f = np.random.default_rng(seed).standard_normal(fm.n)
    assert dirichlet_form(fm, f) >= 0.0


def test_dirichlet_form_brute(z1):
    fm = truncate(z1, (0,), 4, KILLED)
    f = np.arange(fm.n, dtype=float) ** 2
    brute = 0.5 * sum((f[i] - f[j]) ** 2 * fm.rates[i, j]
                      for i in range(fm.n) for j in range(fm.n))
    assert dirichlet_form(fm, f) == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------------------
# caloric solves
# ---------------------------------------------------------------------------

def test_caloric_zero_data_is_killed_semigroup(z1):
    fm = truncate(z1, (0,), 6, EXTERIOR_TRACKED)
    init = np.zeros(fm.n)
    init[fm.index[(0,)]] = 1.0
    fld = caloric_solve(fm, init, None, T=2.0, m_steps=32)
    kil = truncate(z1, (0,), 6, KILLED)
    hk = heat_kernel(kil, None, 2.0)
    want = hk.values[kil.index[(0,)]] * kil.mu  # exp(tQ) row
    assert np.max(np.abs(fld.at(32) - want)) < 1e-11


def test_caloric_unit_data_is_exit_probability(z1):
    fm = truncate(z1, (0,), 6, EXTERIOR_TRACKED)
    ones = np.ones((32, len(fm.exterior)))
    fld = caloric_solve(fm, np.zeros(fm.n), ones, T=2.0, m_steps=32,
                        remainder_data=np.ones(32))
    kil = truncate(z1, (0,), 6, KILLED)
    survival = heat_kernel(kil, None, 2.0).values @ np.diag(kil.mu)
    want = 1.0 - survival.sum(axis=1)
    assert np.max(np.abs(fld.at(32) - want)) < 1e-11


def test_caloric_superposition(z1, rng):
    fm = truncate(z1, (0,), 5, EXTERIOR_TRACKED)
    m = 16
    init1, init2 = rng.random(fm.n), rng.random(fm.n)
    d1, d2 = rng.random((m, len(fm.exterior))), rng.random((m, len(fm.exterior)))
    a, b = 0.3, 1.7
    f1 = caloric_solve(fm, init1, d1, T=1.0, m_steps=m)
    f2 = caloric_solve(fm, init2, d2, T=1.0, m_steps=m)
    f3 = caloric_solve(fm, a * init1 + b * init2, a * d1 + b * d2,
                       T=1.0, m_steps=m)
    assert np.max(np.abs(a * f1.values + b * f2.values - f3.values)) < 1e-10


def test_caloric_rejects_negative_data(z1):
    fm = truncate(z1, (0,), 4, EXTERIOR_TRACKED)
    with pytest.raises(InvalidData):
        caloric_solve(fm, -np.ones(fm.n), None, T=1.0, m_steps=4)


# ---------------------------------------------------------------------------
# harmonic extensions
# ---------------------------------------------------------------------------

def test_harmonic_extension_constant_and_max_principle(z1, rng):
    fm = truncate(z1, (0,), 6, EXTERIOR_TRACKED)
    h = harmonic_extension(fm, np.ones(len(fm.exterior)), remainder_value=1.0)
    assert np.max(np.abs(h - 1.0)) < 1e-12
    g = rng.random(len(fm.exterior))
    h = harmonic_extension(fm, g, remainder_value=0.3)
    assert h.min() >= -1e-12
    assert h.max() <= max(g.max(), 0.3) + 1e-12
    # residual: Q h + coupling/mu g + remainder * 0.3 = 0
    gen = generator(fm)
    res = gen.Q @ h + (fm.coupling / fm.mu[:, None]) @ g + fm.remainder_kill * 0.3
    assert np.max(np.abs(res)) < 1e-12
