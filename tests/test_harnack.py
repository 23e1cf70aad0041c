import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from jumplab import harnack as H
from jumplab import models
from jumplab.errors import NumericalFailure, WindowUnconverged
from jumplab.models import (
    EXTERIOR_TRACKED,
    LadderKernel,
    LatticeModel,
    MuAlternating,
    MuTable,
    PolynomialKernel,
    SuppressedPairKernel,
    TabulatedKernel,
    truncate,
)
from jumplab.semigroup import StepOperators
from oracles import (
    caloric_box_ratio,
    caloric_solve,
    duhamel_generators,
    harmonic_partition_residual,
)


def small_box():
    return H.HarnackBox(x0=(0,), R=4, alpha=1.0, lam=1.0, m_steps=16)


@pytest.fixture
def identity_group(monkeypatch):
    """Every model keeps the identity map alone, so the scans run every
    generator: for step operators or solves injected with no symmetry, and
    for the fan-out reference, whose constant is the max over all of them."""
    monkeypatch.setattr(LatticeModel, "symmetries", identity_only)


def identity_only(model, x0):
    return np.eye(model.d, dtype=np.int64)[None]


def test_box_invariants():
    box = H.HarnackBox(x0=(0,), R=8, alpha=1.5, lam=0.5)
    assert box.T == pytest.approx(0.5 * 8 ** 1.5)
    assert max(box.minus_steps()) < min(box.plus_steps())
    with pytest.raises(ValueError):
        H.HarnackBox(x0=(0,), R=8, alpha=1.0, lam=1.5)
    for m_steps in (30, 0, -4):
        with pytest.raises(ValueError):
            H.HarnackBox(x0=(0,), R=8, alpha=1.0, m_steps=m_steps)
    for R in (0, -2):
        with pytest.raises(ValueError, match="R must be positive"):
            H.HarnackBox(x0=(0,), R=R, alpha=1.0)
        with pytest.raises(ValueError, match="R must be positive"):
            H.ehi_constant(LatticeModel(), (0,), R)


def test_scan_matches_explicit_generators(z1):
    """The streaming scan equals the brute-force max over explicitly solved
    generator fields (initial masses, per-step impulses on every channel)."""
    box = small_box()
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    init_stats, src_stats, half, _ = H._scan_generators(fm, box)
    best, _ = H._collect(fm, box, init_stats, src_stats, half)
    gens = duhamel_generators(fm, box.T, box.m_steps)
    assert len(gens) == fm.n + box.m_steps * len(fm.channels)
    explicit = max(caloric_box_ratio(g, box) for g in gens)
    assert best == pytest.approx(explicit, rel=1e-12)


# Reference: the per-launch fan-out scan that `_scan_generators` and
# `_collect` replace.  Every age's values are shown to every launch step,
# which keeps them all; a generator's sup over Q- (inf over Q+) is the exact
# extreme of what it was shown, and its witness is the first (step, slot)
# within relative EPS of that extreme.

class _BoxStats:
    def __init__(self):
        self.minus, self.plus = [], []

    def see_minus(self, step, vals_half):
        self.minus.append((step, vals_half.copy()))

    def see_plus(self, step, vals_half):
        self.plus.append((step, vals_half.copy()))


def first_near_extreme(seen, col, sign):
    """(extreme, step, slot) of column col over every (step, slot) seen: the
    max for sign = +1, the min for sign = -1, and the first (step, slot) in
    that order within relative EPS of it (an infinite one only if equal)."""
    seen = sorted(seen, key=lambda e: e[0])
    top = max(sign * float(v) for _, vals in seen for v in vals[:, col])
    for step, vals in seen:
        for slot, v in enumerate(vals[:, col]):
            v = sign * float(v)
            if v == top or (math.isfinite(top) and v >= top - H.EPS * abs(top)):
                return sign * top, step, slot


def fanout_scan(fm, box):
    m = box.m_steps
    ops = H.step_operators(fm, box.T / m, fm.sources)
    E = ops.E
    half = fm.ball_slots(box.x0, box.R / 2)
    minus, plus = set(box.minus_steps()), set(box.plus_steps())
    # the half-ball values of E^a W are read as (I[half] E^a) W, the scan's
    # multiplication order
    ages = [np.eye(fm.n)[half]]
    for _ in range(m - 1):
        ages.append(ages[-1] @ E)
    init_stats = _BoxStats()
    U = E @ np.diag(1.0 / fm.mu)
    for j in range(1, m + 1):
        if j in minus:
            init_stats.see_minus(j, ages[j - 1] @ U)
        if j in plus:
            init_stats.see_plus(j, ages[j - 1] @ U)
    src_stats = [_BoxStats() for _ in range(m)]
    for age in range(m):
        vals = ages[age] @ ops.S
        for j in minus:
            if 0 <= j - 1 - age < m:
                src_stats[j - 1 - age].see_minus(j, vals)
        for j in plus:
            if 0 <= j - 1 - age < m:
                src_stats[j - 1 - age].see_plus(j, vals)
    return init_stats, src_stats, half


def fanout_collect(fm, box, init_stats, src_stats, half):
    """Generators one at a time: the constant is the largest ratio, and a
    later generator replaces the witness only when its ratio is larger by
    more than relative EPS."""
    times = np.linspace(0.0, box.T, box.m_steps + 1)
    best, wit_ratio, best_wit = -math.inf, -math.inf, None

    def consider(gen_id, stats, col):
        nonlocal best, wit_ratio, best_wit
        if not stats.minus:
            return
        mm, jm, rm = first_near_extreme(stats.minus, col, 1.0)
        if mm <= 0.0:
            return
        mp, jp, rp = first_near_extreme(stats.plus, col, -1.0)
        ratio = math.inf if mp < H.FLOOR else mm / mp
        best = max(best, ratio)
        if ratio > wit_ratio * (1.0 + H.EPS):
            wit_ratio = ratio
            best_wit = {"generator": gen_id,
                        "minus": (float(times[jm]), fm.window[half[rm]]),
                        "plus": (float(times[jp]), fm.window[half[rp]])}

    for zi, z in enumerate(fm.window):
        consider(("initial", z), init_stats, zi)
    for si in range(box.m_steps):
        for ci, ch in enumerate(fm.channels):
            consider(("source", si, ch), src_stats[si], ci)
    return best, best_wit


SCAN_CASES = {
    "z1": (LatticeModel(d=1, kernel=PolynomialKernel(1.0)), small_box()),
    "suppressed": (LatticeModel(d=1, kernel=SuppressedPairKernel(
        base=PolynomialKernel(1.0), x0=(0,), y0=(3,))), small_box()),
    "l1-z2": (LatticeModel(d=2, metric="l1", kernel=PolynomialKernel(1.0)),
              H.HarnackBox(x0=(0, 0), R=2, alpha=1.0, m_steps=16)),
    "lam-half": (LatticeModel(d=1, kernel=PolynomialKernel(1.5)),
                 H.HarnackBox(x0=(0,), R=4, alpha=1.5, lam=0.5, m_steps=20)),
}


@pytest.mark.parametrize("model, box", SCAN_CASES.values(), ids=SCAN_CASES)
def test_scan_matches_fanout_reference(model, box, identity_group):
    """The per-age scan gives exactly the fan-out scan's constant and witness;
    z1 and lam-half hold mirror-image ties that only rounding noise splits."""
    fm = truncate(model, box.x0, 2 * box.R, EXTERIOR_TRACKED)
    init, src, half, _ = H._scan_generators(fm, box)
    got = H._collect(fm, box, init, src, half)
    want = fanout_collect(fm, box, *fanout_scan(fm, box))
    assert want[1] is not None
    assert got == want


def tie_operators(fm, box, seed, kinds=3):
    """Identity, permutation and dyadic-mixture (and, with kinds=4,
    averaging) step operators with integer sources: values tie across
    half-ball slots, steps and generators, and vanish on some."""
    rng = np.random.default_rng(seed)
    n = fm.n
    perms = [np.eye(n)[rng.permutation(n)] for _ in range(2)]
    E = [np.eye(n), perms[0], (perms[0] + perms[1]) / 2,
         np.full((n, n), 1.0 / n)][seed % kinds]
    S = rng.integers(0, 3, (n, len(fm.exterior))).astype(float)
    remainder = rng.integers(0, 3, n).astype(float)
    return StepOperators(E=E, S=np.column_stack([S, remainder]), err=0.0)


def jittered(ops, amp, seed):
    """ops with every entry moved by up to a relative amp; the noise is drawn
    for E, then the exterior columns of S, then its remainder column."""
    rng = np.random.default_rng(seed)
    n, n_ext = ops.S.shape[0], ops.S.shape[1] - 1
    noise_E = rng.uniform(-1, 1, ops.E.shape)
    noise_S = np.column_stack([rng.uniform(-1, 1, (n, n_ext)),
                               rng.uniform(-1, 1, n)])
    return dataclasses.replace(ops, E=ops.E * (1 + amp * noise_E),
                               S=ops.S * (1 + amp * noise_S))


def scan_with(monkeypatch, fm, box, ops):
    monkeypatch.setattr(H, "step_operators", lambda *args: ops)
    init, src, half, _ = H._scan_generators(fm, box)
    return H._collect(fm, box, init, src, half)


@pytest.mark.parametrize("seed", range(6))
def test_scan_tie_breaks_match_fanout_reference(z1, monkeypatch, seed,
                                                identity_group):
    """On exact ties the per-age scan still picks the reference's generator
    and first-attained witnesses."""
    box = small_box()
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    got = scan_with(monkeypatch, fm, box, tie_operators(fm, box, seed))
    assert got == fanout_collect(fm, box, *fanout_scan(fm, box))


@pytest.mark.parametrize("seed", range(8))
def test_scan_witnesses_ignore_rounding_noise(z1, monkeypatch, seed,
                                              identity_group):
    """Every entry of the tie cases' step operators moved by up to a relative
    1e-14 turns their ties into rounding-noise ties: the witnesses stay
    those of the unmoved case, the constant moves by rounding only, and the
    fan-out reference agrees."""
    box = small_box()
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    ops = tie_operators(fm, box, seed, kinds=4)
    exact = scan_with(monkeypatch, fm, box, ops)
    got = scan_with(monkeypatch, fm, box, jittered(ops, 1e-14, 100 + seed))
    assert got[1] == exact[1]
    assert got[0] == exact[0] or got[0] == pytest.approx(exact[0], rel=1e-12)
    assert got == fanout_collect(fm, box, *fanout_scan(fm, box))


@pytest.mark.parametrize("amp", [1e-12, 2e-12])
@pytest.mark.parametrize("seed", range(16))
def test_scan_matches_fanout_reference_within_eps_band(z1, monkeypatch, amp, seed,
                                                       identity_group):
    """The tie cases' step operators moved by up to a relative 1e-12 or
    2e-12 put ratios and field values about EPS apart, where a generator
    must replace the witness one at a time and a slot must come within EPS
    of the window's extreme, not of its own age's: the scan still gives the
    fan-out reference's constant and witness."""
    box = small_box()
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    ops = tie_operators(fm, box, seed, kinds=4)
    got = scan_with(monkeypatch, fm, box, jittered(ops, amp, 100 + seed))
    assert got == fanout_collect(fm, box, *fanout_scan(fm, box))


@pytest.mark.parametrize("jump, winner", [(1e-14, 0), (1e-11, 5)])
def test_collect_replaces_witness_only_beyond_eps(z1, monkeypatch, jump, winner):
    """Every generator's ratio is 2 except the source launch at step 5,
    larger by `jump`: within EPS the first generator stays the witness,
    beyond it the later one replaces it; the constant is the exact max."""
    box = small_box()
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    init, src, half, _ = H._scan_generators(fm, box)
    init.ratio.fill(2.0)
    src.ratio.fill(2.0)
    src.ratio[5] = 2.0 * (1.0 + jump)
    best, wit = H._collect(fm, box, init, src, half)
    assert best == 2.0 * (1.0 + jump)
    assert wit["generator"] == (("initial", fm.window[0]) if winner == 0 else
                                ("source", 5, fm.exterior[0]))


def full_window_extremes(W, E, half, hi_ages, lo_ages):
    """`_extremes` stepping every window row: E^a W, then its half ball,
    latest age first."""
    hi = np.empty((len(hi_ages), W.shape[1]))
    lo = np.empty((len(lo_ages), W.shape[1]))
    fields = W
    for age in range(max(hi_ages.stop, lo_ages.stop)):
        if age in hi_ages:
            hi[hi_ages.stop - 1 - age] = fields[half].max(axis=0)
        if age in lo_ages:
            lo[lo_ages.stop - 1 - age] = fields[half].min(axis=0)
        fields = E @ fields
    return hi, lo


@pytest.mark.parametrize("model, box", [
    *SCAN_CASES.values(),
    (LatticeModel(d=2, kernel=PolynomialKernel(1.0)),
     H.HarnackBox(x0=(0, 0), R=2, alpha=1.0)),
], ids=[*SCAN_CASES, "linf-z2"])
def test_half_ball_scan_matches_full_window_scan(model, box, monkeypatch):
    """Reducing I[half] E^a W moves the constant of the full-window scan
    (E^a W, then its half ball) by rounding only, and no witness."""
    fm = truncate(model, box.x0, 2 * box.R, EXTERIOR_TRACKED)
    got = H._collect(fm, box, *H._scan_generators(fm, box)[:3])
    monkeypatch.setattr(H, "_extremes", full_window_extremes)
    want = H._collect(fm, box, *H._scan_generators(fm, box)[:3])
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
    assert got[1] == want[1]


def _pair_model(d, y0):
    return LatticeModel(d=d, kernel=SuppressedPairKernel(
        base=PolynomialKernel(1.0), x0=(0,) * d, y0=y0))


# (model, x0, R, order of its symmetry group about x0)
SYMMETRY_CASES = {
    "z1": (LatticeModel(d=1, kernel=PolynomialKernel(1.0)), (0,), 4, 2),
    "ladder": (LatticeModel(d=1, kernel=LadderKernel(1.0, (3, 10))), (0,), 4, 2),
    "linf-z2": (LatticeModel(d=2, kernel=PolynomialKernel(1.0)), (0, 0), 2, 8),
    "l1-z2": (LatticeModel(d=2, metric="l1", kernel=PolynomialKernel(1.0)),
              (0, 0), 2, 8),
    "pair-z1": (_pair_model(1, (4,)), (0,), 4, 1),
    "pair-z2": (_pair_model(2, (2, 0)), (0, 0), 2, 2),
    "alternating-z2": (LatticeModel(d=2, kernel=PolynomialKernel(1.5),
                                    mu_rule=MuAlternating(1.0, 2.0)),
                       (1, 0), 2, 8),
}


def test_symmetry_groups():
    """Signed permutations about x0, the identity first: all of them unless a
    suppressed pair or a `MuTable` measure breaks them; an explicit graph
    keeps the identity alone."""
    for model, x0, _, order in SYMMETRY_CASES.values():
        maps = model.symmetries(x0)
        assert len(maps) == order
        assert np.array_equal(maps[0], np.eye(model.d))
        assert len({g.tobytes() for g in maps}) == order
        assert all(np.array_equal(np.abs(g).sum(axis=0), np.ones(model.d))
                   for g in maps)
    table = MuTable(tuple(((x,), 1.0) for x in range(-3, 4)))
    assert len(LatticeModel(d=1, mu_rule=table).symmetries((0,))) == 1
    graph = LatticeModel(kind="explicit", vertices=("a", "b"),
                         edges=(("a", "b"),),
                         kernel=TabulatedKernel(((("a", "b"), 1.0),)))
    assert len(graph.symmetries("a")) == 1


@pytest.mark.parametrize("model, x0, R, order", SYMMETRY_CASES.values(),
                         ids=SYMMETRY_CASES)
def test_representatives_are_first_orbit_members(model, x0, R, order):
    """`_representatives` keeps, of each orbit of the group on the window and
    the channels, the member that comes first, found one vertex at a time."""
    fm = truncate(model, x0, 2 * R, EXTERIOR_TRACKED)
    maps, c = model.symmetries(x0), np.asarray(x0)

    def firsts(points):
        at = {p: i for i, p in enumerate(points)}
        return [i for i, p in enumerate(points)
                if min(at[tuple(c + g @ (np.asarray(p) - c))] for g in maps) == i]

    slots, cols = H._representatives(fm, x0)
    assert slots.tolist() == firsts(fm.window)
    assert cols.tolist() == firsts(fm.exterior) + [len(fm.exterior)]
    if order > 1:
        assert len(slots) < fm.n and len(cols) < len(fm.channels)


@pytest.mark.parametrize("model, x0, R, order", SYMMETRY_CASES.values(),
                         ids=SYMMETRY_CASES)
def test_step_operators_are_equivariant(model, x0, R, order):
    """Each map of the group permutes window slots and channels, and the
    real E and the exterior columns of S commute with it within 1e-14
    relative at every entry.  The remainder kill rate is a difference of
    FFT row sums, equivariant only to its rounding (up to 5e-14 relative
    here); S, a positive operator on it, moves it by no more than that."""
    fm = truncate(model, x0, 2 * R, EXTERIOR_TRACKED)
    ops = H.step_operators(fm, 1.0 / 16, fm.sources)
    ext = {v: i for i, v in enumerate(fm.exterior)}
    c = np.asarray(x0)

    def moved_by(A, rows, cols):
        return np.abs(A[np.ix_(rows, cols)] - A) / np.abs(A)

    for g in model.symmetries(x0):
        def image(v):
            return tuple(c + g @ (np.asarray(v) - c))

        slot = [fm.index[image(v)] for v in fm.window]
        col = [ext[image(v)] for v in fm.exterior]
        assert np.all(moved_by(ops.E, slot, slot) <= 1e-14)
        assert np.all(moved_by(ops.S[:, :-1], slot, col) <= 1e-14)
        rem = [-1]
        drift = moved_by(fm.sources[:, rem], slot, rem).max()
        assert np.all(moved_by(ops.S[:, rem], slot, rem) <= 1e-14 + drift)


@pytest.mark.parametrize("model, x0, R, order", SYMMETRY_CASES.values(),
                         ids=SYMMETRY_CASES)
def test_reduced_scans_match_unreduced(model, x0, R, order, monkeypatch):
    """One generator per orbit gives the constants of the scan of every
    generator (the group forced to the identity) within 1e-12 relative, and
    the same witnesses."""
    box = H.HarnackBox(x0=x0, R=R, alpha=1.0, m_steps=16)

    def run():
        return H.phi_constant(model, box), H.ehi_constant(model, x0, R)

    reduced = run()
    monkeypatch.setattr(LatticeModel, "symmetries", identity_only)
    for got, want in zip(reduced, run()):
        assert got.constant == pytest.approx(want.constant, rel=1e-12, abs=0.0)
        assert got.witness == want.witness and got.witness is not None
        assert got.family_sizes == want.family_sizes
        assert got.metadata["n_exterior"] == want.metadata["n_exterior"]


def test_ratio_writes_the_floor_rule_over_the_sups():
    """sup / inf, inf where the inf is below FLOOR (also where it is
    positive), -inf where the sup is not positive, written over the sups."""
    hi = np.array([[2.0, 2.0, 2.0, 0.0, -1.0], [3.0, 0.0, 1.0, 5.0, 4.0]])
    lo = np.array([[4.0, 1e-31, 0.0, 1.0, 0.0], [3.0, 0.0, H.FLOOR, 2.0, 1.0]])
    out = H._ratio(hi, lo)
    assert out is hi
    assert np.array_equal(out, [[0.5, np.inf, np.inf, -np.inf, -np.inf],
                                [1.0, -np.inf, 1.0 / H.FLOOR, 2.5, 4.0]])


@pytest.mark.parametrize("cols", [1, 6])
@pytest.mark.parametrize("seed", range(6))
def test_slide_equals_brute_force_windows(cols, seed):
    """The in-place sliding extremes equal x[j:j+w].max(0) and .min(0)
    exactly on every row: windows clipped at the last row (the ones that
    reach age 0), windows one row long, exact ties and infinite entries."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 80))
    x = rng.integers(-3, 4, (rows, cols)).astype(float)
    if seed % 2:
        x += rng.random(x.shape)
    x[rng.random(x.shape) < 0.1] = np.inf
    x[rng.random(x.shape) < 0.1] = -np.inf
    for w in {1, 2, 3, rows, rows + 2, *rng.integers(1, rows + 3, 4).tolist()}:
        for op, reduce in ((np.maximum, np.max), (np.minimum, np.min)):
            want = np.array([reduce(x[j:j + w], axis=0) for j in range(rows)])
            got = x.copy()
            assert H._slide(got, w, op) is got
            assert np.array_equal(got, want)


def test_slide_allocates_no_copy(rng):
    """No pass of the sliding fold copies an overlapping operand."""
    x = rng.random((192, 400))
    tracemalloc.start()
    try:
        H._slide(x, 65, np.minimum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes // 50


def test_scan_memory_below_two_age_arrays(monkeypatch, identity_group):
    """The scan and fold of the doubled `lab phi --d 2 --R 2` window (81
    states, 4,145 channels, 256 steps) peak below 2 m x channels doubles,
    the size of the per-age max and min arrays of all m ages."""
    z2 = LatticeModel(d=2, kernel=PolynomialKernel(1.0))
    box = H.HarnackBox(x0=(0, 0), R=2, alpha=1.0)
    fm = truncate(z2, box.x0, 2 * box.R, EXTERIOR_TRACKED, 2 * H.LAM_EXT)
    assert (fm.n, len(fm.channels), box.m_steps) == (81, 4145, 256)
    ops = H.step_operators(fm, box.T / box.m_steps, fm.sources)
    monkeypatch.setattr(H, "step_operators", lambda *args: ops)
    tracemalloc.start()
    try:
        init, src, half, _ = H._scan_generators(fm, box)
        assert H._collect(fm, box, init, src, half)[1] is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * box.m_steps * len(fm.channels) * 8


def test_phi_searches_witness_ages_once(z1, monkeypatch):
    """One `phi_constant` searches witness ages (`_fold`) once: only for the
    winning generator, not once per launch step, and not for the rerun on
    the doubled annulus, whose witness the report does not carry."""
    calls = []
    fold = H._fold

    def counted(*args):
        calls.append(args)
        return fold(*args)

    monkeypatch.setattr(H, "_fold", counted)
    assert H.phi_constant(z1, small_box()).witness is not None
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(4))
def test_ehi_witnesses_ignore_rounding_noise(z1, monkeypatch, seed,
                                             identity_group):
    """Harmonic generators with exact ties inside columns and across
    channels, then moved by up to a relative 1e-14: the channel, max_at and
    min_at stay the first attained of the exact ties."""
    rng = np.random.default_rng(seed)
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    exact = rng.integers(1, 4, (fm.n, len(fm.exterior) + 1)).astype(float)
    exact[:, 1::2] = exact[:, 0::2][:, :exact[:, 1::2].shape[1]]
    inner = [i for i, v in enumerate(fm.window) if abs(v[0]) <= 4]
    sub = exact[inner]
    ratio = sub.max(axis=0) / sub.min(axis=0)
    c = int(np.flatnonzero(ratio == ratio.max())[0])
    want = {"generator": ("exterior", fm.channels[c]),
            "max_at": fm.window[inner[int(sub[:, c].argmax())]],
            "min_at": fm.window[inner[int(sub[:, c].argmin())]]}
    noise = 1 + 1e-14 * rng.uniform(-1, 1, exact.shape)
    for H_ in (exact, exact * noise):
        monkeypatch.setattr(H, "solve_generator", lambda fm, rhs, H_=H_: H_)
        assert H._ehi_once(z1, (0,), 4, 4.0)[2] == want


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-14, 1.0 - 1e-14])
def test_witnesses_stable_under_row_sum_rounding(monkeypatch, scale):
    """Moving J(x,G) by a relative 1e-14 (rounding noise) moves no witness of
    `lab phi --d 2 --R 2` or `lab ehi --R 8`; mirror-image vertices tie
    there, and the tie rule, not the last bits, picks among them."""
    real = models.radial_profile

    def scaled(*args):
        prof = real(*args)
        return dataclasses.replace(prof, total=prof.total * scale)

    monkeypatch.setattr(models, "radial_profile", scaled)
    z2 = LatticeModel(d=2, kernel=PolynomialKernel(1.0))
    phi = H.phi_constant(z2, H.HarnackBox(x0=(0, 0), R=2, alpha=1.0))
    assert phi.witness == {"generator": ("initial", (-1, -1)),
                           "minus": (0.5, (-1, -1)), "plus": (2.0, (1, 1))}
    z1 = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    ehi = H.ehi_constant(z1, (0,), 8)
    assert ehi.witness == {"generator": ("exterior", (-17,)),
                           "max_at": (-8,), "min_at": (8,)}


def test_mixture_audit(z1, rng):
    """50 random nonnegative mixtures never exceed the computed constant."""
    box = small_box()
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    init_stats, src_stats, half, _ = H._scan_generators(fm, box)
    best, _ = H._collect(fm, box, init_stats, src_stats, half)
    c_p = max(best, 1.0)
    n_ext = len(fm.exterior)
    for _ in range(50):
        fld = caloric_solve(fm, rng.random(fm.n),
                            rng.random((box.m_steps, n_ext)),
                            box.T, box.m_steps,
                            remainder_data=rng.random(box.m_steps))
        assert caloric_box_ratio(fld, box) <= c_p + 1e-8


def test_scale_invariance(z1, rng):
    box = small_box()
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    init = rng.random(fm.n)
    f1 = caloric_solve(fm, init, None, box.T, box.m_steps)
    f2 = caloric_solve(fm, 7.3 * init, None, box.T, box.m_steps)
    assert caloric_box_ratio(f1, box) == pytest.approx(
        caloric_box_ratio(f2, box), rel=1e-12)


def test_single_vertex_ball_finite(z1):
    box = H.HarnackBox(x0=(0,), R=0.4, alpha=1.0, m_steps=16)
    rep = H.phi_constant(z1, box)
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
    c1 = H.phi_constant(m, H.HarnackBox(x0=(0,), R=8, alpha=1.5,
                                        lam=1.0)).constant
    chalf = H.phi_constant(m, H.HarnackBox(x0=(0,), R=8, alpha=1.5,
                                           lam=0.5)).constant
    assert math.isfinite(c1) and math.isfinite(chalf)


def test_ehi_le_phi(z1):
    for R in (8,):
        phi = H.phi_constant(z1, H.HarnackBox(x0=(0,), R=R, alpha=1.0))
        ehi = H.ehi_constant(z1, (0,), R)
        assert ehi.constant <= phi.constant * 1.05


def test_harmonic_partition(z1):
    assert harmonic_partition_residual(z1, (0,), 8) < 1e-12


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
        harmonic_partition_residual(z1, (0,), 4)
    assert len(shapes) == 1 and len(shapes[0]) == 2


def test_ehi_suppressed_within_factor_two():
    base = LatticeModel(d=1, kernel=PolynomialKernel(1.0))
    supp = LatticeModel(d=1, kernel=SuppressedPairKernel(
        base=PolynomialKernel(1.0), x0=(0,), y0=(8,)))
    cb = H.ehi_constant(base, (0,), 8).constant
    cs = H.ehi_constant(supp, (0,), 8).constant
    assert 0.5 <= cs / cb <= 2.0


@pytest.mark.parametrize("c, c2", [(1.0, 1.04), (math.inf, math.inf)])
def test_doubling_check_accepts(c, c2):
    assert H._doubled("C", c, c2, 4.0) == c2


@pytest.mark.parametrize("c, c2", [(1.0, 1.1), (math.inf, 2.0), (2.0, math.inf)])
def test_doubling_check_rejects(c, c2):
    with pytest.raises(WindowUnconverged):
        H._doubled("C", c, c2, 4.0)


@pytest.mark.parametrize("once", ["_phi_once", "_ehi_once"])
def test_constants_always_recomputed_on_doubled_annulus(z1, monkeypatch, once):
    """phi_constant and ehi_constant always rerun on twice the tracked
    annulus: a doubled constant 6 % above the first raises WindowUnconverged,
    and a rerun that agrees is reported as `doubled_constant`."""
    real = getattr(H, once)
    seen = []

    def moved(*args):
        out = real(*args)
        seen.append(args[-1])
        factor = 1.06 if args[-1] == 2 * H.LAM_EXT else 1.0
        return (out[0], factor * out[1], *out[2:])

    monkeypatch.setattr(H, once, moved)
    run = {"_phi_once": lambda: H.phi_constant(z1, small_box()),
           "_ehi_once": lambda: H.ehi_constant(z1, (0,), 4)}[once]
    with pytest.raises(WindowUnconverged):
        run()
    assert seen == [H.LAM_EXT, 2 * H.LAM_EXT]
    monkeypatch.setattr(H, once, real)
    rep = run()
    assert rep.metadata["lam_ext"] == H.LAM_EXT
    assert rep.constant == pytest.approx(rep.metadata["doubled_constant"],
                                         rel=0.05)
