"""The matrix-free window operator against the dense matrices it replaces."""

import numpy as np
import pytest

from jumplab import conditions as cond
from jumplab.models import (
    EXTERIOR_TRACKED,
    KILLED,
    REFLECTED,
    LadderKernel,
    LatticeModel,
    MuAlternating,
    PolynomialKernel,
    SuppressedPairKernel,
    _pair_rates,
    shell_count,
    shell_counts,
    truncate,
)
from jumplab.semigroup import (
    _poisson_weights,
    apply_generator,
    dirichlet_form,
    expm_action,
    generator,
    heat_kernel,
)

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
    pmf, _ = _poisson_weights(lam * t, tol / float(np.abs(v).max()))
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
    Qf = apply_generator(fm, f)
    assert np.max(np.abs(Qf - gen.Q @ f)) <= 1e-12 * np.abs(gen.Q @ f).max()
    assert np.max(np.abs(gen.apply(f) - gen.P @ f)) <= 1e-13 * np.abs(f).max()
    L = np.diag(fm.rates.sum(axis=1)) - fm.rates
    assert dirichlet_form(fm, f) == pytest.approx(float(f @ L @ f), rel=1e-12)


def test_reflected_heat_row_never_builds_dense_rates():
    model = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    fm = truncate(model, (0,), 512, REFLECTED)
    hk = heat_kernel(fm, (0,), 16.0)
    assert "rates" not in vars(fm)
    assert abs(float(hk.mass()) - 1.0) <= 1e-10


def test_check_hkp_reports_poisson_error(z1):
    rep = cond.check_hkp(z1, 1.0, pairs=[((0,), (4,)), ((0,), (8,))])
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
