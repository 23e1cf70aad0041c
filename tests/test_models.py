import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

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
    STATE_CAP,
    SuppressedPairKernel,
    TabulatedKernel,
    TAIL_REL_BOUND,
    _pair_rates,
    model_from_dict,
    shell_count,
    shell_tail_sum,
    truncate,
    validate_constants,
)


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
    assert shell_count(d, metric, s) == brute_shell(d, metric, s)


def test_shell_count_closed_forms():
    assert shell_count(1, "linf", 7) == 2
    assert shell_count(2, "linf", 7) == 8 * 7
    assert shell_count(2, "l1", 7) == 4 * 7


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


# ---------------------------------------------------------------------------
# balls and distances
# ---------------------------------------------------------------------------

def test_ball_lexicographic_and_sized(z2):
    ball = z2.ball((0, 0), 2)
    assert ball == sorted(ball)
    assert len(ball) == sum(shell_count(2, "linf", s) for s in range(3))


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


def direct_row_sum(d, metric, kernel, correction=0.0, tail_shells=4096):
    """Reference: the shell sum `row_sum_all` evaluated on every call before
    it was memoised, in the same order of operations."""
    if isinstance(kernel, PolynomialKernel):
        expo, atoms = d + kernel.alpha, 0.0
    else:
        expo = 1.0 + kernel.alpha
        atoms = sum(shell_count(d, metric, r) * kernel.atom(r)
                    for r in kernel.ranges)
    head = sum(shell_count(d, metric, s) * float(s) ** (-expo)
               for s in range(1, tail_shells + 1))
    tail = shell_tail_sum(d, metric, expo, tail_shells + 1)
    return head + tail + atoms - correction, TAIL_REL_BOUND * (head + tail) + 1e-300


@pytest.mark.parametrize("d, metric, kernel, x", [
    (1, "linf", PolynomialKernel(1.0), (3,)),
    (2, "linf", PolynomialKernel(0.8), (1, -2)),
    (1, "l1", PolynomialKernel(1.5), (0,)),
    (2, "l1", PolynomialKernel(1.0), (4, 4)),
    (1, "linf", LadderKernel(alpha=1.5, ranges=(16, 64)), (5,)),
])
def test_row_sum_all_bitwise_equals_direct_sum(d, metric, kernel, x):
    m = LatticeModel(d=d, metric=metric, kernel=kernel)
    assert m.row_sum_all(x) == direct_row_sum(d, metric, kernel)
    assert m.row_sum_all(x) == direct_row_sum(d, metric, kernel)


def test_suppressed_row_sum_bitwise_equals_direct_sum():
    base = PolynomialKernel(1.0)
    m = LatticeModel(d=2, kernel=SuppressedPairKernel(base=base, x0=(0, 0),
                                                      y0=(3, 1)))
    pair = 3.0 ** -3.0
    assert m.row_sum_all((0, 0)) == direct_row_sum(2, "linf", base, pair)
    assert m.row_sum_all((3, 1)) == direct_row_sum(2, "linf", base, pair)
    assert m.row_sum_all((1, 1)) == direct_row_sum(2, "linf", base)


KERNEL_LAW_CASES = [
    (1, "linf", PolynomialKernel(1.0)),
    (1, "l1", PolynomialKernel(1.5)),
    (2, "linf", PolynomialKernel(0.8)),
    (2, "l1", PolynomialKernel(1.0)),
    (1, "linf", LadderKernel(alpha=1.5, ranges=(16, 64, 256))),
]


def explicit_rate(d, kernel, s):
    """Reference: J at distance s >= 1, dispatched on the kernel class."""
    if isinstance(kernel, PolynomialKernel):
        return float(s) ** (-(d + kernel.alpha))
    v = float(s) ** (-(1.0 + kernel.alpha))
    if s in kernel.ranges:
        v += math.log(s) * s ** (-1.0 - kernel.alpha)
    return v


def explicit_radial_values(d, kernel, dist):
    """Reference: the vectorised form of `explicit_rate`, 0 at distance 0."""
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
            assert m.J(x, y) == explicit_rate(d, kernel, m.distance(x, y))
    dist = np.arange(300).reshape(3, 100)
    assert np.array_equal(m.radial_values(dist),
                          explicit_radial_values(d, kernel, dist))


def test_row_sum_region_splits():
    m = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    total, _ = m.row_sum_all((0,))
    inside = sum(m.J((0,), (k,)) for k in range(-6, 7))
    out, _ = m.row_sum_outside((0,), (0,), 6)
    assert abs(out - (total - inside)) < 1e-12


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
])
def test_kernel_outside_its_domain_rejected(kernel, graph, match):
    with pytest.raises(ValueError, match=match):
        LatticeModel(kernel=kernel, **graph)


def test_suppressed_pair_on_explicit_graph():
    m = LatticeModel(kernel=SuppressedPairKernel(PolynomialKernel(1.0), "a", "c"),
                     **PATH_ABC)
    assert m.J("a", "c") == m.J("c", "a") == 0.0
    assert m.row_sum_all("a") == (m.J("a", "b"), 0.0)


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
    killed = truncate(z1, (0,), 8, KILLED)
    tracked = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    recon = tracked.coupling.sum(axis=1) / tracked.mu + tracked.remainder_kill
    assert np.max(np.abs(recon - killed.kill)) < 1e-14
    assert np.max(np.abs(killed.kill - tracked.kill)) == 0.0


def test_exterior_tracked_empty_annulus(z1):
    """A radius-0 window tracks no exterior vertex: all its kill is remainder."""
    fm = truncate(z1, (0,), 0, EXTERIOR_TRACKED)
    assert fm.exterior == [] and fm.coupling.shape == (1, 0)
    assert fm.remainder_kill[0] == fm.kill[0]
    assert fm.kill[0] == pytest.approx(z1.row_sum_all((0,))[0], rel=1e-15)


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


def test_validate_constants():
    m = LatticeModel(d=1, kernel=PolynomialKernel(1.0), c_j=4.0, c_m=1.0)
    obs = validate_constants(m, [(0,), (5,)])
    assert obs["row_max"] < 4.0
    bad = LatticeModel(d=1, kernel=PolynomialKernel(1.0), c_j=1.0)
    with pytest.raises(ValueError):
        validate_constants(bad, [(0,)])
