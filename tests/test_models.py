import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.special import zeta

from jumplab import harnack as H
from jumplab import models
from jumplab.errors import DistanceUnreachable, DivergentTail, WindowTooLarge
from jumplab.models import (
    KILLED,
    EXTERIOR_TRACKED,
    LadderKernel,
    LatticeModel,
    MuAlternating,
    MuConstant,
    MuTable,
    PolynomialKernel,
    SHELL_HORIZON,
    STATE_CAP,
    SuppressedPairKernel,
    TabulatedKernel,
    TAIL_REL_BOUND,
    _pair_rates,
    hurwitz_zeta,
    model_from_dict,
    radial_profile,
    shell_counts,
    shell_tail_sum,
    truncate,
)
from oracles import full_sources


# ---------------------------------------------------------------------------
# shell geometry
# ---------------------------------------------------------------------------

def brute_shell(d, metric, s):
    count = 0
    for p in itertools.product(range(-s, s + 1), repeat=d):
        dist = max(abs(c) for c in p) if metric == "linf" else sum(abs(c) for c in p)
        count += dist == s
    return count


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("metric", ["linf", "l1"])
@pytest.mark.parametrize("s", [1, 2, 3, 5])
def test_shell_count_brute_force(d, metric, s):
    assert shell_counts(d, metric, s) == brute_shell(d, metric, s)
    assert shell_counts(d, metric, [s, 0]).tolist() == [brute_shell(d, metric, s), 1]


def test_shell_count_closed_forms():
    assert shell_counts(1, "linf", 7) == 2
    assert shell_counts(2, "linf", 7) == 8 * 7
    assert shell_counts(2, "l1", 7) == 4 * 7


def test_tail_sum_matches_long_partial_sum():
    # exact tail minus exact far tail == brute partial sum over 10^7 shells
    start, stop = 4097, 10_000_001
    for d, metric, expo in [(1, "linf", 2.0), (2, "linf", 3.5), (2, "l1", 3.2)]:
        s = np.arange(start, stop, dtype=float)
        if d == 1:
            counts = 2.0
        elif metric == "linf":
            counts = 8.0 * s
        else:
            counts = 4.0 * s
        brute = float(np.sum(counts * s ** (-expo)))
        exact = shell_tail_sum(d, metric, expo, start) - \
            shell_tail_sum(d, metric, expo, stop)
        assert abs(exact - brute) <= 1e-9 * brute


def test_tail_sum_divergent():
    with pytest.raises(DivergentTail):
        shell_tail_sum(2, "linf", 2.0, 10)


@given(st.integers(1, 1000))
def test_tail_sum_monotone_in_start(start):
    a = shell_tail_sum(1, "linf", 2.5, start)
    b = shell_tail_sum(1, "linf", 2.5, start + 1)
    assert 0 < b < a


def test_hurwitz_zeta_equals_scipy():
    """The cephes port gives scipy.special.zeta's bits, on both sides of the
    direct-sum/Euler-Maclaurin split and of the q > 1e8 asymptotic."""
    for s in np.arange(1.5, 5.51, 0.5):
        for q in (1, 2, 9, 10, 17, 65536, 65537, 10 ** 6, 2 * 10 ** 8):
            assert hurwitz_zeta(s, q) == zeta(s, q), (s, q)


# (s, q, zeta(s, q)) to 30 digits, from mpmath's zeta
ZETA_LITERALS = [
    (2.5, 1, 1.34148725725091717975676969335),
    (4.0, 7, 0.00119969976052090756538641259055),
    (3.5, 65537, 3.63790941877030207002332179465e-13),
    (1.5, 10 ** 6, 0.00200000050000012499999999998177),
]


@pytest.mark.parametrize("s, q, value", ZETA_LITERALS)
def test_hurwitz_zeta_literals(s, q, value):
    assert hurwitz_zeta(s, q) == pytest.approx(value, rel=1e-15)


# ---------------------------------------------------------------------------
# balls and distances
# ---------------------------------------------------------------------------

def test_ball_lexicographic_and_sized(z2):
    ball = z2.ball((0, 0), 2)
    assert ball == sorted(ball)
    assert len(ball) == shell_counts(2, "linf", np.arange(3)).sum()
    for d, metric in [(1, "linf"), (2, "l1"), (3, "l1")]:
        m = LatticeModel(d=d, metric=metric, kernel=PolynomialKernel(1.0))
        x0 = (3, -1, 2)[:d]
        box = itertools.product(*(range(c - 3, c + 4) for c in x0))
        assert m.ball(x0, 2.5) == [p for p in box if m.distance(p, x0) <= 2]


def test_ball_cap():
    # 449^2 = 201,601 states, rejected before enumeration
    assert 449 ** 2 > STATE_CAP
    m = LatticeModel(d=2, kernel=PolynomialKernel(1.0))
    with pytest.raises(WindowTooLarge):
        m.ball((0, 0), 224)


def test_explicit_distance_and_unreachable():
    m = LatticeModel(kind="explicit", vertices=("a", "b", "c", "z"),
                     edges=(("a", "b"), ("b", "c")),
                     kernel=PolynomialKernel(1.0))
    assert m.distance("a", "c") == 2
    with pytest.raises(DistanceUnreachable):
        m.distance("a", "z")


def test_explicit_ball_matches_per_vertex_distance():
    """One bounded BFS from the centre gives the same members, in the same
    order, as testing each vertex's distance, on a graph with a cycle, a
    second component and an isolated vertex."""
    m = LatticeModel(kind="explicit", vertices=("d", "a", "g", "c", "f", "b", "e"),
                     edges=(("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                            ("e", "f")),
                     kernel=PolynomialKernel(1.0))
    for x0 in m.vertices:
        for r in (0, 0.5, 1, 1.9, 2, 3, 10):
            expect = []
            for v in m.vertices:
                try:
                    if m.distance(x0, v) <= math.floor(r):
                        expect.append(v)
                except DistanceUnreachable:
                    pass
            assert m.ball(x0, r) == sorted(expect)


@pytest.mark.parametrize("seed", range(6))
def test_explicit_hops_match_scipy_shortest_path(seed):
    """`distance` and `ball` against scipy's unweighted shortest paths, on
    seeded random graphs of two or more components; a pair across
    components raises DistanceUnreachable."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 30))
    # split the vertices into blocks, with no edge between blocks
    cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(1, 4)),
                             replace=False).tolist())
    block = np.searchsorted(cuts, np.arange(n), side="right")
    edges = [(int(u), int(v)) for u, v in itertools.combinations(range(n), 2)
             if block[u] == block[v] and rng.random() < 0.25]
    m = LatticeModel(kind="explicit", vertices=tuple(range(n)),
                     edges=tuple(edges), kernel=PolynomialKernel(1.0))
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    hops = shortest_path(csr_matrix(adj), unweighted=True, directed=False)
    assert np.isinf(hops).any()  # two or more components
    for x in range(n):
        for y in range(n):
            if np.isinf(hops[x, y]):
                with pytest.raises(DistanceUnreachable):
                    m.distance(x, y)
            else:
                assert m.distance(x, y) == hops[x, y]
        for r in (0, 1, 1.5, 2, 3, n):
            assert m.ball(x, r) == np.nonzero(hops[x] <= math.floor(r))[0].tolist()


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_triangle_inequality(a, b, c):
    m = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    x, y, z = (a,), (b,), (c,)
    assert m.distance(x, z) <= m.distance(x, y) + m.distance(y, z)


# ---------------------------------------------------------------------------
# kernels and row sums
# ---------------------------------------------------------------------------

def test_row_sum_closed_forms():
    z1 = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    total, rem = z1.row_sum_all((3,))
    assert abs(total - 2 * zeta(2.0)) < 1e-10
    assert rem < 1e-10

    l1 = LatticeModel(d=2, metric="l1", kernel=PolynomialKernel(1.0))
    total, _ = l1.row_sum_all((0, 0))
    assert abs(total - 4 * zeta(2.0)) < 1e-10

    lad = LatticeModel(d=1, kernel=LadderKernel(alpha=1.5, ranges=(16,)))
    expect = 2 * zeta(2.5) + 2 * math.log(16) * 16.0 ** (-2.5)
    total, _ = lad.row_sum_all((0,))
    assert abs(total - expect) < 1e-10


def test_suppressed_pair_row_sum_and_symmetry():
    base = PolynomialKernel(1.0)
    m = LatticeModel(d=1, kernel=SuppressedPairKernel(base=base,
                                                      x0=(0,), y0=(8,)))
    assert m.J((0,), (8,)) == 0.0
    assert m.J((8,), (0,)) == 0.0
    assert m.J((0,), (7,)) == 7.0 ** -2
    total, _ = m.row_sum_all((0,))
    plain, _ = LatticeModel(d=1, kernel=base).row_sum_all((0,))
    assert abs(total - (plain - 8.0 ** -2)) < 1e-12


def _expo_atoms(d, kernel):
    if isinstance(kernel, PolynomialKernel):
        return d + kernel.alpha, ()
    return 1.0 + kernel.alpha, kernel.ranges


def profile_row_sum(d, metric, kernel, correction=0.0):
    """Reference: the radial profile's J(x, G) and bound, written out in the
    same order of operations (SHELL_HORIZON shells, then the zeta tail)."""
    expo, ranges = _expo_atoms(d, kernel)
    s = np.arange(1, SHELL_HORIZON + 1)
    counts = shell_counts(d, metric, s).astype(float)
    weights = counts * s.astype(float) ** (-expo)
    tail = shell_tail_sum(d, metric, expo, SHELL_HORIZON + 1)
    bound = TAIL_REL_BOUND * (float(weights.sum()) + tail) + 1e-300
    for r in ranges:
        weights[r - 1] += counts[r - 1] * (math.log(r) * r ** (-1.0 - kernel.alpha))
    return float(np.cumsum(weights)[-1] + tail) - correction, bound


def direct_row_sum(d, metric, kernel, correction=0.0, tail_shells=4096):
    """Independent oracle: 4,096 shells summed left to right in Python floats,
    then the zeta tail and the atoms."""
    expo, ranges = _expo_atoms(d, kernel)
    counts = shell_counts(d, metric, np.arange(tail_shells + 1)).tolist()
    atoms = sum(counts[r] * (math.log(r) * r ** (-1.0 - kernel.alpha))
                for r in ranges)
    head = sum(counts[s] * float(s) ** (-expo) for s in range(1, tail_shells + 1))
    tail = shell_tail_sum(d, metric, expo, tail_shells + 1)
    return head + tail + atoms - correction, TAIL_REL_BOUND * (head + tail) + 1e-300


# The two shell sums differ only by rounding (at most 8.1e-15 measured).
DIRECT_REL = 1e-13


def assert_close_to_direct(got, want):
    assert all(abs(g - w) <= DIRECT_REL * w for g, w in zip(got, want))


@pytest.mark.parametrize("d, metric, kernel, x", [
    (1, "linf", PolynomialKernel(1.0), (3,)),
    (2, "linf", PolynomialKernel(0.8), (1, -2)),
    (1, "l1", PolynomialKernel(1.5), (0,)),
    (2, "l1", PolynomialKernel(1.0), (4, 4)),
    (1, "linf", LadderKernel(alpha=1.5, ranges=(16, 64)), (5,)),
    (3, "linf", PolynomialKernel(1.0), (1, 0, -2)),
    (3, "l1", PolynomialKernel(0.8), (0, 0, 0)),
    (4, "linf", PolynomialKernel(1.0), (0, 0, 0, 0)),
    (4, "l1", PolynomialKernel(1.5), (2, -1, 0, 3)),
])
def test_row_sum_all_bitwise_equals_direct_sum(d, metric, kernel, x):
    m = LatticeModel(d=d, metric=metric, kernel=kernel)
    assert m.row_sum_all(x) == profile_row_sum(d, metric, kernel)
    assert m.row_sum_all(x) == profile_row_sum(d, metric, kernel)
    assert_close_to_direct(m.row_sum_all(x), direct_row_sum(d, metric, kernel))


def test_suppressed_row_sum_bitwise_equals_direct_sum():
    base = PolynomialKernel(1.0)
    m = LatticeModel(d=2, kernel=SuppressedPairKernel(base=base, x0=(0, 0),
                                                      y0=(3, 1)))
    pair = 3.0 ** -3.0
    assert m.row_sum_all((0, 0)) == profile_row_sum(2, "linf", base, pair)
    assert m.row_sum_all((3, 1)) == profile_row_sum(2, "linf", base, pair)
    assert m.row_sum_all((1, 1)) == profile_row_sum(2, "linf", base)
    assert_close_to_direct(m.row_sum_all((0, 0)),
                           direct_row_sum(2, "linf", base, pair))
    assert_close_to_direct(m.row_sum_all((1, 1)), direct_row_sum(2, "linf", base))


def test_ladder_range_beyond_horizon_rejected():
    LatticeModel(d=1, kernel=LadderKernel(alpha=1.5, ranges=(SHELL_HORIZON,)))
    with pytest.raises(ValueError, match="shell horizon"):
        LatticeModel(d=1, kernel=LadderKernel(alpha=1.5,
                                              ranges=(16, SHELL_HORIZON + 1)))
    with pytest.raises(ValueError, match="shell horizon"):
        LatticeModel(d=1, kernel=SuppressedPairKernel(
            LadderKernel(alpha=1.5, ranges=(2 * SHELL_HORIZON,)), (0,), (1,)))


@pytest.mark.parametrize("r", [0, -16])
def test_ladder_range_below_one_rejected(r):
    """A range below 1 would index shell -1 of the radial profile and take
    log 0 (range 0), or lose its atom (a negative range)."""
    LatticeModel(d=1, kernel=LadderKernel(alpha=1.5, ranges=(1,)))
    with pytest.raises(ValueError, match=f"ladder range {r} is below 1"):
        LatticeModel(d=1, kernel=LadderKernel(alpha=1.5, ranges=(r, 16)))


@pytest.mark.parametrize("ranges, match", [
    ((16, 16), "ladder range 16 is repeated"),
    ((16, 64, 16), "ladder range 16 is repeated"),
    ((16.5,), "ladder range 16.5 is not an integer"),
    ((16, 64.0), "ladder range 64.0 is not an integer"),
])
def test_ladder_bad_range_rejected(ranges, match):
    """A repeated range would give J one atom and `radial_values` and
    `row_sum_all` two; a fractional one would index no shell."""
    with pytest.raises(ValueError, match=match):
        LatticeModel(d=1, kernel=LadderKernel(alpha=1.5, ranges=ranges))


def test_ladder_dict_keeps_fractional_range():
    """A model dict's 16.5 reaches the model's check instead of becoming 16."""
    d = {"kernel": {"type": "ladder", "alpha": 1.5, "ranges": [16.5]}}
    with pytest.raises(ValueError, match="ladder range 16.5 is not an integer"):
        model_from_dict(d)


_POLY = {"type": "polynomial", "alpha": 1.0}
_GRAPH = {"kind": "explicit", "vertices": [0, 1], "edges": [[0, 1]]}


@pytest.mark.parametrize("d, key", [
    ({"kernel": _POLY, "mu": {"type": "constant", "value": -1}}, "mu 'value'"),
    ({"kernel": _POLY, "mu": {"type": "constant", "value": math.inf}}, "mu 'value'"),
    ({"kernel": _POLY, "mu": {"type": "alternating", "even": 0, "odd": 1}},
     "mu 'even'"),
    ({"kernel": _POLY, "mu": {"type": "alternating", "even": 1, "odd": math.nan}},
     "mu 'odd'"),
    ({**_GRAPH, "kernel": {"type": "tabulated", "entries": [[[0, 1], 1.0]]},
      "mu": {"type": "table", "entries": [[0, 1.0], [1, -2.0]]}}, "mu entry 1"),
    ({**_GRAPH, "kernel": {"type": "tabulated", "entries": [[[0, 1], -1.0]]}},
     "kernel entry \\[0, 1\\]"),
    ({**_GRAPH, "kernel": {"type": "tabulated", "entries": [[[0, 1], math.inf]]}},
     "kernel entry \\[0, 1\\]"),
    ({"kernel": {"type": "polynomial", "alpha": math.nan}}, "kernel 'alpha'"),
    ({"kernel": {"type": "ladder", "alpha": math.inf, "ranges": [16]}},
     "kernel 'alpha'"),
], ids=["mu-negative", "mu-inf", "mu-even-zero", "mu-odd-nan", "mu-table",
        "rate-negative", "rate-inf", "alpha-nan", "ladder-alpha-inf"])
def test_model_dict_values_checked(d, key):
    """A measure that is not finite and positive, a rate that is not finite
    and nonnegative, or a non-finite alpha is a ValueError naming its key,
    not an infinite exit time, a division by zero or a NaN cast later."""
    with pytest.raises(ValueError, match=f"{key}: need a finite"):
        model_from_dict(d)


def test_model_dict_zero_rate_kept():
    """A tabulated rate of 0 is a missing edge's rate, and stays allowed."""
    d = {**_GRAPH, "kernel": {"type": "tabulated", "entries": [[[0, 1], 0]]}}
    assert model_from_dict(d).J(0, 1) == 0.0


RATE_LAW_MODELS = [
    *(LatticeModel(d=d, metric=metric, kernel=PolynomialKernel(alpha))
      for d, metric in ((1, "linf"), (2, "linf"), (2, "l1"))
      for alpha in (0.7, 1.0, 1.5, 1.9)),
    LatticeModel(d=1, kernel=LadderKernel(alpha=1.5, ranges=(16, 64, 256))),
    LatticeModel(d=2, metric="l1", kernel=SuppressedPairKernel(
        base=PolynomialKernel(1.0), x0=(0, 0), y0=(3, 1))),
]


@pytest.mark.parametrize("model", RATE_LAW_MODELS, ids=[
    *(f"Z{d}-{metric}-alpha{alpha}"
      for d, metric in ((1, "linf"), (2, "linf"), (2, "l1"))
      for alpha in (0.7, 1.0, 1.5, 1.9)), "ladder", "pair"])
def test_pair_rate_bitwise_equals_J(model):
    """J(x, y) and `_pair_rates` read one radial law: bitwise equal at every
    distance 1..4,999, the suppressed pair included."""
    x = (0,) * model.d
    ys = [(s,) if model.d == 1 else
          (s, s // 2) if model.metric == "linf" else (s - s // 2, s // 2)
          for s in range(1, 5000)]
    if model.pair is not None:
        ys.append(model.pair[1])
    for y in ys:
        assert model.J(x, y) == _pair_rates(model, [x], [y])[0, 0]


KERNEL_LAW_CASES = [
    (1, "linf", PolynomialKernel(1.0)),
    (1, "l1", PolynomialKernel(1.5)),
    (2, "linf", PolynomialKernel(0.8)),
    (2, "l1", PolynomialKernel(1.0)),
    (1, "linf", LadderKernel(alpha=1.5, ranges=(16, 64, 256))),
]


def explicit_radial_values(d, kernel, dist):
    """Reference: the kernel law at integer distances, 0 at distance 0,
    dispatched on the kernel class.  Powers are numpy's, as in
    `radial_values`: Python's float pow differs from it by an ulp at some
    distances."""
    dist = np.asarray(dist, dtype=float)
    out = np.zeros_like(dist)
    pos = dist > 0
    if isinstance(kernel, PolynomialKernel):
        out[pos] = dist[pos] ** (-(d + kernel.alpha))
        return out
    out[pos] = dist[pos] ** (-(1.0 + kernel.alpha))
    for r in kernel.ranges:
        out[dist == r] += math.log(r) * r ** (-1.0 - kernel.alpha)
    return out


@pytest.mark.parametrize("d, metric, kernel", KERNEL_LAW_CASES)
def test_kernel_law_bitwise_equals_explicit_formulas(d, metric, kernel):
    m = LatticeModel(d=d, metric=metric, kernel=kernel)
    x = (0,) * d
    ys = ([(s,) for s in range(1, 300)] if d == 1 else
          list(itertools.product(range(-12, 13), repeat=2)))
    for y in ys:
        if y != x:
            assert m.J(x, y) == explicit_radial_values(d, kernel,
                                                       [m.distance(x, y)])[0]
    dist = np.arange(300).reshape(3, 100)
    assert np.array_equal(m.radial_values(dist),
                          explicit_radial_values(d, kernel, dist))


def test_row_sum_region_splits():
    """mu_x kill_x on a killed window is J(x, G - W): the certified row sum
    minus a brute-force sum of J(x, z) over the window W, on Z^1 and Z^2,
    linf and l1, alternating mu and a suppressed pair inside the window."""
    cases = [
        (LatticeModel(d=1, kernel=PolynomialKernel(1.0)), (0,), 6),
        (LatticeModel(d=1, metric="l1", kernel=PolynomialKernel(0.5)), (3,), 5),
        (LatticeModel(d=1, kernel=PolynomialKernel(1.0),
                      mu_rule=MuAlternating(1.0, 2.0)), (0,), 6),
        (LatticeModel(d=2, kernel=PolynomialKernel(1.0)), (0, 0), 4),
        (LatticeModel(d=2, metric="l1", kernel=PolynomialKernel(0.8),
                      mu_rule=MuAlternating(1.0, 3.0)), (1, -2), 4),
        (LatticeModel(d=2, kernel=SuppressedPairKernel(
            base=PolynomialKernel(0.8), x0=(0, 0), y0=(3, 1))), (0, 0), 4),
    ]
    for model, x0, r in cases:
        fm = truncate(model, x0, r, KILLED)
        for i, x in enumerate(fm.window):
            want = model.row_sum_all(x)[0] - sum(model.J(x, z) for z in fm.window)
            assert fm.kill[i] * fm.mu[i] == pytest.approx(want, rel=1e-12, abs=0)


@settings(max_examples=30)
@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20))
def test_pair_rates_matches_pointwise(ax, ay, bx, by):
    m = LatticeModel(d=2, kernel=PolynomialKernel(0.8))
    xs, ys = [(ax, ay)], [(bx, by)]
    assert _pair_rates(m, xs, ys)[0, 0] == pytest.approx(m.J(xs[0], ys[0]),
                                                         rel=4e-16, abs=0)


@pytest.mark.parametrize("xs, ys", [
    ([(0, 0), (1, 0)], [(2, 2), (-3, 1)]),    # pair in xs only
    ([(2, 2), (-3, 1)], [(3, 1), (0, 0)]),    # pair in ys only
    ([(0, 0), (3, 1)], [(3, 1), (0, 0)]),     # x0 -> y0 and y0 -> x0
    ([(3, 1), (0, 0)], [(0, 0), (3, 1)]),     # the same, rows swapped
    ([(0, 0)] * 2 + [(3, 1)], [(3, 1), (0, 0), (3, 1)]),
])
def test_pair_rates_suppressed_matches_pointwise(xs, ys):
    m = LatticeModel(d=2, kernel=SuppressedPairKernel(
        base=PolynomialKernel(0.8), x0=(0, 0), y0=(3, 1)))
    A = _pair_rates(m, xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if {x, y} == {(0, 0), (3, 1)}:
                assert A[i, j] == m.J(x, y) == 0.0
            else:
                assert A[i, j] == pytest.approx(m.J(x, y), rel=4e-16, abs=0)


@pytest.mark.parametrize("d, metric", [(1, "linf"), (2, "linf"), (2, "l1"),
                                       (3, "linf"), (3, "l1")])
def test_pair_rates_fold_matches_norm(monkeypatch, d, metric):
    """The per-coordinate distance fold gives the kernel of `norm` of the
    full difference, bitwise, also across block boundaries."""
    m = LatticeModel(d=d, metric=metric, kernel=PolynomialKernel(0.8))
    xs, ys = m.ball((0,) * d, 2), m.ball((1,) * d, 3)
    diff = np.asarray(xs)[:, None, :] - np.asarray(ys)[None, :, :]
    want = m.radial_values(m.norm(diff))
    for chunk in (1, len(ys) + 1, 7 * len(ys), models.PAIR_CHUNK):
        monkeypatch.setattr(models, "PAIR_CHUNK", chunk)
        assert np.array_equal(_pair_rates(m, xs, ys), want)


def test_pair_rates_suppression_positional():
    m = LatticeModel(d=1, kernel=SuppressedPairKernel(
        base=PolynomialKernel(1.0), x0=(0,), y0=(4,)))
    A = _pair_rates(m, [(0,), (1,)], [(4,), (5,)])
    assert A[0, 0] == 0.0
    assert A[0, 1] == m.J((0,), (5,))
    assert A[1, 0] == m.J((1,), (4,))


PATH_ABC = {"kind": "explicit", "vertices": ("a", "b", "c"),
            "edges": (("a", "b"), ("b", "c"))}


@pytest.mark.parametrize("kernel, graph, match", [
    (TabulatedKernel(((((0,), (1,)), 1.0),)), {"d": 1}, "explicit graphs"),
    (SuppressedPairKernel(PolynomialKernel(1.0), (0,), (0,)), {"d": 1},
     "distinct"),
    (SuppressedPairKernel(PolynomialKernel(1.0), (0,), (3,)), {"d": 2},
     "two vertices"),
    (SuppressedPairKernel(PolynomialKernel(1.0), "a", "z"), PATH_ABC,
     "two vertices"),
    (PolynomialKernel(1.0), {"d": 2, "metric": "l2"},
     "unknown lattice metric 'l2'"),
])
def test_kernel_outside_its_domain_rejected(kernel, graph, match):
    with pytest.raises(ValueError, match=match):
        LatticeModel(kernel=kernel, **graph)


def test_suppressed_pair_on_explicit_graph():
    m = LatticeModel(kernel=SuppressedPairKernel(PolynomialKernel(1.0), "a", "c"),
                     **PATH_ABC)
    assert m.J("a", "c") == m.J("c", "a") == 0.0
    assert m.row_sum_all("a") == (m.J("a", "b"), 0.0)


@pytest.mark.parametrize("vertices", [("a", "b", "c"), (0, 1, 2)],
                         ids=["str", "int"])
def test_explicit_suppressed_pair_round_trip(vertices):
    """Vertex labels come back from to_dict, directly or through JSON, as
    they went in, so the digest and the suppressed pair survive."""
    a, b, c = vertices
    m = LatticeModel(kind="explicit", vertices=vertices, edges=((a, b), (b, c)),
                     kernel=SuppressedPairKernel(PolynomialKernel(1.0), a, c))
    for d in (m.to_dict(), json.loads(json.dumps(m.to_dict()))):
        m2 = model_from_dict(d)
        assert m2.kernel == m.kernel
        assert m2.digest() == m.digest()
        assert m2.J(a, c) == 0.0 and m2.J(a, b) == m.J(a, b)


@pytest.mark.parametrize("rule", [
    MuConstant(2.5),
    MuAlternating(even=1.0, odd=3.0),
    MuTable(tuple(((a, b), 1.0 + 0.25 * (a + 2) + 0.5 * (b + 2))
                  for a in range(-2, 3) for b in range(-2, 3))),
])
def test_mu_at_matches_pointwise(rule):
    pts = np.array(list(itertools.product(range(-2, 3), repeat=2))
                   + [[2, -2], [0, 0]], dtype=np.int64)
    got = rule.at(pts)
    assert got.shape == (len(pts),)
    assert got.tolist() == [rule(tuple(p)) for p in pts]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("metric", ["linf", "l1"])
def test_norm_matches_distance(d, metric):
    m = LatticeModel(d=d, metric=metric, kernel=PolynomialKernel(1.0))
    pts = list(itertools.product(range(-3, 4), repeat=d))
    x0 = (1,) * d
    diff = np.array(pts, dtype=np.int64) - np.array(x0)
    assert m.norm(diff).tolist() == [m.distance(p, x0) for p in pts]
    assert m.norm(diff[None]).tolist() == [[m.distance(p, x0) for p in pts]]


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_truncate_kill_consistency(z1):
    """The cone's channels (`harnack._channels`), each orbit summed through
    the maps, and the remainder add up to the kill rate, both for the whole
    annulus and for the first annulus, B(0, 16) less the window."""
    killed = truncate(z1, (0,), 8, KILLED)
    tracked = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    sources = H._channels(tracked, (0,), 16)[1]
    k = len(tracked.exterior)
    near = np.array([abs(w[0]) <= 16 for w in tracked.exterior])
    assert 0 < near.sum() < k
    for c, mask in ((k, np.ones(k, dtype=bool)), (k + 1, near)):
        recon = tracked.annulus_sum(sources[:, :k], mask) + sources[:, c]
        assert np.max(np.abs(recon - killed.kill)) < 1e-14
    assert np.max(np.abs(killed.kill - tracked.kill)) == 0.0


def test_exterior_tracked_empty_annulus(z1):
    """A radius-0 window tracks no exterior vertex: all its kill is remainder."""
    fm = truncate(z1, (0,), 0, EXTERIOR_TRACKED)
    assert fm.exterior == [] and fm.orbits.tolist() == []
    sources = H._channels(fm, (0,), 0)[1]
    assert sources.shape == (1, 2) and np.all(sources[0] == fm.kill[0])
    assert fm.kill[0] == pytest.approx(z1.row_sum_all((0,))[0], rel=1e-15)


def test_exterior_tracked_sources_peak():
    """The doubled annulus of `lab phi --d 2 --R 4`, truncated and given its
    cone's source columns (`harnack._channels`), holds that matrix once:
    tracemalloc's peak over both stays within 1.5 times the matrix plus the
    radial table, built inside the traced span.  The columns of the orbits'
    first vertices equal the whole annulus' bitwise, and both remainders
    (the doubled annulus' and the first annulus') match it within 1e-12
    relative."""
    z2 = LatticeModel(d=2)
    radial_profile.cache_clear()
    tracemalloc.start()
    try:
        fm = truncate(z2, (0, 0), 8, EXTERIOR_TRACKED, 8.0)
        sources = H._channels(fm, (0, 0), 32)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = radial_profile(2, "linf", z2.base_kernel).cum.nbytes
    assert peak <= 1.5 * sources.nbytes + table
    exterior, full = full_sources(z2, (0, 0), 8, 8.0)
    cols = [exterior.index(w) for w in fm.exterior]
    assert np.array_equal(sources[:, :-2], full[:, cols])
    first = full_sources(z2, (0, 0), 8, 4.0)[1][:, -1]
    for got, want in ((sources[:, -2], full[:, -1]), (sources[:, -1], first)):
        assert np.all(np.abs(got - want) <= 1e-12 * want)


def _graph():
    """A path a - b - c - d - e - f with one chord, a rate on every pair
    within two hops."""
    names = "abcdef"
    edges = tuple(zip(names, names[1:])) + (("a", "c"),)
    rates = tuple(((u, v), 1.0 / (1 + i + j)) for i, u in enumerate(names)
                  for j, v in enumerate(names) if i < j <= i + 2)
    return LatticeModel(kind="explicit", vertices=tuple(names), edges=edges,
                        kernel=TabulatedKernel(rates))


def _pair(d, y0):
    return LatticeModel(d=d, kernel=SuppressedPairKernel(
        base=PolynomialKernel(1.0), x0=(0,) * d, y0=y0))


# (model, x0, window radius)
ORBIT_CASES = {
    "z1": (LatticeModel(d=1), (0,), 8),
    "linf-z2": (LatticeModel(d=2), (0, 0), 4),
    "l1-z2": (LatticeModel(d=2, metric="l1", kernel=PolynomialKernel(1.3)),
              (1, -2), 3),
    "z3": (LatticeModel(d=3, kernel=PolynomialKernel(0.8)), (0, 0, 0), 1),
    "ladder": (LatticeModel(d=1, kernel=LadderKernel(1.0, (3, 10))), (0,), 4),
    "pair-z1": (_pair(1, (4,)), (0,), 4),
    "pair-z2": (_pair(2, (2, 0)), (0, 0), 2),
    "alternating-z2": (LatticeModel(d=2, kernel=PolynomialKernel(1.5),
                                    mu_rule=MuAlternating(1.0, 2.0)),
                       (1, 0), 2),
    "graph": (_graph(), "a", 1),
}


@pytest.mark.parametrize("lam_ext", [4.0, 8.0])
@pytest.mark.parametrize("model, x0, r", ORBIT_CASES.values(), ids=ORBIT_CASES)
def test_orbit_channels_expand_to_full_sources(model, x0, r, lam_ext):
    """Each channel is the first vertex of its orbit in the annulus, with its
    orbit size; each map g carries its column (`harnack._channels`) onto
    the whole annulus' column of g c, read at the window slots of g x,
    bitwise; both remainders, with the first annulus the whole one, are the
    whole annulus' within 1e-12 relative, and the slot maps are the maps on
    the window."""
    fm = truncate(model, x0, r, EXTERIOR_TRACKED, lam_ext)
    _, sources, labels = H._channels(fm, x0, lam_ext * r)[:3]
    exterior, full = full_sources(model, x0, r, lam_ext)
    col = {w: i for i, w in enumerate(exterior)}
    if model.kind == "explicit":
        images = [lambda v: v]
    else:
        c = np.asarray(x0)
        images = [lambda v, g=g: tuple(c + g @ (np.asarray(v) - c))
                  for g in model.symmetries(x0)]
    orbits = [{image(w) for image in images} for w in exterior]
    firsts = [i for i, w in enumerate(exterior)
              if min(col[v] for v in orbits[i]) == i]
    assert fm.exterior == [exterior[i] for i in firsts]
    assert labels == [*fm.exterior, "remainder", "remainder"]
    assert fm.orbits.tolist() == [len(orbits[i]) for i in firsts]
    assert fm.orbits.sum() == len(exterior)
    assert len(fm.slot_maps) == len(images)
    for image, slots in zip(images, fm.slot_maps, strict=True):
        assert slots.tolist() == [fm.index[image(v)] for v in fm.window]
        cols = [col[image(w)] for w in fm.exterior]
        assert np.array_equal(full[np.ix_(slots, cols)], sources[:, :-2])
    # the first annulus is the whole annulus here, so both remainders are its
    for rem in (sources[:, -2], sources[:, -1]):
        assert np.all(np.abs(rem - full[:, -1]) <= 1e-12 * full[:, -1])


def test_annulus_over_the_cap_raises_before_the_window():
    """The doubled annulus of a radius-32 window on Z^2 has a ball of 263,169
    points, over STATE_CAP: `truncate` raises WindowTooLarge before it
    builds the window or any array of the ball (tracemalloc peak < 1 MiB)."""
    tracemalloc.start()
    try:
        with pytest.raises(WindowTooLarge, match="263169"):
            truncate(LatticeModel(d=2), (0, 0), 32, EXTERIOR_TRACKED, 8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_truncate_alternating_mu():
    m = LatticeModel(d=1, kernel=PolynomialKernel(1.0),
                     mu_rule=MuAlternating(even=1.0, odd=3.0))
    fm = truncate(m, (0,), 4, KILLED)
    for v, mu in zip(fm.window, fm.mu):
        assert mu == (1.0 if v[0] % 2 == 0 else 3.0)


def test_serialization_round_trip():
    m = LatticeModel(d=2, metric="l1",
                     kernel=SuppressedPairKernel(base=PolynomialKernel(1.3),
                                                 x0=(0, 0), y0=(2, 1)),
                     mu_rule=MuAlternating(1.0, 2.0))
    m2 = model_from_dict(m.to_dict())
    assert m2.digest() == m.digest()
    assert m2.J((0, 0), (2, 1)) == 0.0
    assert m2.J((1, 0), (2, 1)) == m.J((1, 0), (2, 1))

