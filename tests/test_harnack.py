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
    channels,
    duhamel_generators,
    full_sources,
    full_window,
    harmonic_partition_residual,
    orbit_window,
    scan_all,
    two_scan_phi,
    two_solve_ehi,
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
    generator fields (initial masses, per-step impulses on every channel of
    the whole annulus)."""
    box = small_box()
    fm, sources = orbit_window(z1, (0,), 8)
    best, _ = H._collect(fm, box, *scan_all(fm, sources, box))
    full, full_src = full_window(z1, (0,), 8)
    gens = duhamel_generators(full, full_src, box.T, box.m_steps)
    assert len(gens) == full.n + box.m_steps * len(channels(full))
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


def fanout_scan(fm, sources, box):
    m = box.m_steps
    ops = H.step_operators(fm, box.T / m, sources)
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
        for ci, ch in enumerate(channels(fm)):
            consider(("source", si, ch), src_stats[si], ci)
    return best, best_wit


def assert_same_scan(got, want):
    """The witness exactly and the constant within 1e-13 relative: the scan
    reads E^(a+1) diag(1/mu) off its age blocks, and the reference takes
    I[half] E^a times E diag(1/mu), so the two round apart by an ulp."""
    assert got[1] == want[1]
    assert got[0] == pytest.approx(want[0], rel=1e-13, abs=0.0)


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
    """The per-age scan gives the fan-out scan's constant (to rounding) and
    exactly its witness; z1 and lam-half hold mirror-image ties that only
    rounding noise splits."""
    fm, sources = orbit_window(model, box.x0, 2 * box.R)
    got = H._collect(fm, box, *scan_all(fm, sources, box))
    want = fanout_collect(fm, box, *fanout_scan(fm, sources, box))
    assert want[1] is not None
    assert_same_scan(got, want)


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


def scan_with(monkeypatch, fm, sources, box, ops):
    monkeypatch.setattr(H, "step_operators", lambda *args: ops)
    return H._collect(fm, box, *scan_all(fm, sources, box))


@pytest.mark.parametrize("seed", range(6))
def test_scan_tie_breaks_match_fanout_reference(z1, monkeypatch, seed,
                                                identity_group):
    """On exact ties the per-age scan still picks the reference's generator
    and first-attained witnesses."""
    box = small_box()
    fm, sources = orbit_window(z1, (0,), 8)
    got = scan_with(monkeypatch, fm, sources, box, tie_operators(fm, box, seed))
    assert got == fanout_collect(fm, box, *fanout_scan(fm, sources, box))


@pytest.mark.parametrize("seed", range(8))
def test_scan_witnesses_ignore_rounding_noise(z1, monkeypatch, seed,
                                              identity_group):
    """Every entry of the tie cases' step operators moved by up to a relative
    1e-14 turns their ties into rounding-noise ties: the witnesses stay
    those of the unmoved case, the constant moves by rounding only, and the
    fan-out reference agrees."""
    box = small_box()
    fm, sources = orbit_window(z1, (0,), 8)
    ops = tie_operators(fm, box, seed, kinds=4)
    exact = scan_with(monkeypatch, fm, sources, box, ops)
    got = scan_with(monkeypatch, fm, sources, box,
                    jittered(ops, 1e-14, 100 + seed))
    assert got[1] == exact[1]
    assert got[0] == exact[0] or got[0] == pytest.approx(exact[0], rel=1e-12)
    assert_same_scan(got, fanout_collect(fm, box,
                                         *fanout_scan(fm, sources, box)))


@pytest.mark.parametrize("amp", [1e-12, 2e-12])
@pytest.mark.parametrize("seed", range(16))
def test_scan_matches_fanout_reference_within_eps_band(z1, monkeypatch, amp, seed,
                                                       identity_group):
    """The tie cases' step operators moved by up to a relative 1e-12 or
    2e-12 put ratios and field values about EPS apart, where a generator
    must replace the witness one at a time and a slot must come within EPS
    of the window's extreme, not of its own age's: the scan still gives the
    fan-out reference's constant (to rounding) and witness."""
    box = small_box()
    fm, sources = orbit_window(z1, (0,), 8)
    ops = tie_operators(fm, box, seed, kinds=4)
    got = scan_with(monkeypatch, fm, sources, box,
                    jittered(ops, amp, 100 + seed))
    assert_same_scan(got, fanout_collect(fm, box,
                                         *fanout_scan(fm, sources, box)))


@pytest.mark.parametrize("jump, winner", [(1e-14, 0), (1e-11, 5)])
def test_collect_replaces_witness_only_beyond_eps(z1, monkeypatch, jump, winner):
    """Every generator's ratio is 2 except the source launch at step 5,
    larger by `jump`: within EPS the first generator stays the witness,
    beyond it the later one replaces it; the constant is the exact max."""
    box = small_box()
    fm, sources = orbit_window(z1, (0,), 8)
    init, src = scan_all(fm, sources, box)
    init.ratio.fill(2.0)
    src.ratio.fill(2.0)
    src.ratio[5] = 2.0 * (1.0 + jump)
    best, wit = H._collect(fm, box, init, src)
    assert best == 2.0 * (1.0 + jump)
    assert wit["generator"] == (("initial", fm.window[0]) if winner == 0 else
                                ("source", 5, fm.exterior[0]))


def full_window_collect(fm, sources, box):
    """(constant, witness) of every generator with its fields stepped on the
    whole window (E^a W, then the half ball), folded by the fan-out rules.
    Only each age's half-ball extremes are kept for the ratios; the winner's
    column is read again for its witness steps and slots."""
    m = box.m_steps
    ops = H.step_operators(fm, box.T / m, sources)
    half = fm.ball_slots(box.x0, box.R / 2)
    minus, plus = list(box.minus_steps()), list(box.plus_steps())
    times = np.linspace(0.0, box.T, m + 1)

    def fields(W, ages):
        out = []
        for _ in range(ages):
            out.append(W[half])
            W = ops.E @ W
        return np.array(out)

    # generator -> (its fields by age, the age grid step j shows)
    init, src = fields(np.diag(1.0 / fm.mu), m + 1), fields(ops.S, m)
    gens = [(init, lambda j: j, [("initial", z) for z in fm.window])]
    gens += [(src, lambda j, si=si: j - 1 - si,
              [("source", si, ch) for ch in channels(fm)])
             for si in range(m) if si < minus[-1]]
    best, wit_ratio, win = -math.inf, -math.inf, None
    for vals, age, ids in gens:
        js = [j for j in minus if age(j) >= 0], [j for j in plus if age(j) >= 0]
        sups = vals[[age(j) for j in js[0]]].max(axis=(0, 1))
        infs = vals[[age(j) for j in js[1]]].min(axis=(0, 1))
        for c, gen in enumerate(ids):
            if not sups[c] > 0.0:
                continue
            ratio = math.inf if infs[c] < H.FLOOR else sups[c] / infs[c]
            best = max(best, ratio)
            if ratio > wit_ratio * (1.0 + H.EPS):
                wit_ratio, win = ratio, (gen, vals[..., c], age, js)
    gen, col, age, js = win
    ends = [first_near_extreme([(j, col[age(j)][:, None]) for j in steps],
                               0, sign)[1:]
            for steps, sign in zip(js, (1.0, -1.0))]
    return best, {"generator": gen,
                  **{k: (float(times[j]), fm.window[half[r]])
                     for k, (j, r) in zip(("minus", "plus"), ends)}}


@pytest.mark.parametrize("model, box", [
    *SCAN_CASES.values(),
    (LatticeModel(d=2, kernel=PolynomialKernel(1.0)),
     H.HarnackBox(x0=(0, 0), R=2, alpha=1.0)),
], ids=[*SCAN_CASES, "linf-z2"])
def test_half_ball_scan_matches_full_window_scan(model, box):
    """Reducing I[half] E^a W, one generator of each orbit, gives the
    constant of the full-window scan of every generator (E^a W, then its
    half ball) to rounding, and its witness."""
    fm, sources = orbit_window(model, box.x0, 2 * box.R)
    got = H._collect(fm, box, *scan_all(fm, sources, box))
    want = full_window_collect(*full_window(model, box.x0, 2 * box.R), box)
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
    """`_representatives` and `truncate`'s channels keep, of each orbit of
    the group on the window and the annulus, the member that comes first,
    found one vertex at a time."""
    fm = truncate(model, x0, 2 * R, EXTERIOR_TRACKED)
    exterior = full_sources(model, x0, 2 * R)[0]
    maps, c = model.symmetries(x0), np.asarray(x0)

    def firsts(points):
        at = {p: i for i, p in enumerate(points)}
        return [i for i, p in enumerate(points)
                if min(at[tuple(c + g @ (np.asarray(p) - c))] for g in maps) == i]

    slots = H._representatives(fm)
    assert slots.tolist() == firsts(fm.window)
    assert fm.exterior == [exterior[i] for i in firsts(exterior)]
    if order > 1:
        assert len(slots) < fm.n and len(fm.exterior) < len(exterior)


@pytest.mark.parametrize("model, x0, R, order", SYMMETRY_CASES.values(),
                         ids=SYMMETRY_CASES)
def test_step_operators_are_equivariant(model, x0, R, order):
    """Each map of the group permutes window slots and channels, and the
    real E and the exterior columns of S commute with it within 1e-14
    relative at every entry.  The remainder kill rate is a difference of
    FFT row sums, equivariant only to its rounding (up to 5e-14 relative
    here); S, a positive operator on it, moves it by no more than that.
    `truncate`'s slot maps are these permutations of the window."""
    fm, sources = full_window(model, x0, 2 * R)
    maps = truncate(model, x0, 2 * R, EXTERIOR_TRACKED).slot_maps
    ops = H.step_operators(fm, 1.0 / 16, sources)
    ext = {v: i for i, v in enumerate(fm.exterior)}
    c = np.asarray(x0)

    def moved_by(A, rows, cols):
        return np.abs(A[np.ix_(rows, cols)] - A) / np.abs(A)

    for g, slots in zip(model.symmetries(x0), maps, strict=True):
        def image(v):
            return tuple(c + g @ (np.asarray(v) - c))

        slot = [fm.index[image(v)] for v in fm.window]
        assert slots.tolist() == slot
        col = [ext[image(v)] for v in fm.exterior]
        assert np.all(moved_by(ops.E, slot, slot) <= 1e-14)
        assert np.all(moved_by(ops.S[:, :-1], slot, col) <= 1e-14)
        rem = [-1]
        drift = moved_by(sources[:, rem], slot, rem).max()
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


ONE_SCAN_CASES = {
    **{k: (model, box) for k, (model, box) in SCAN_CASES.items()},
    **{f"sym-{k}": (model, H.HarnackBox(x0=x0, R=R, alpha=1.0, m_steps=16))
       for k, (model, x0, R, _) in SYMMETRY_CASES.items()},
}


@pytest.mark.parametrize("model, box", ONE_SCAN_CASES.values(),
                         ids=ONE_SCAN_CASES)
def test_one_scan_matches_two_scans(model, box):
    """The constant and doubled constant of one truncation at twice the
    annulus, and one scan or solve of both annuli's channels, equal those of
    a truncation and a scan or solve at each annulus within 1e-12
    relative; the witness, family sizes and annulus size are the same."""
    for got, want in ((H.phi_constant(model, box), two_scan_phi(model, box)),
                      (H.ehi_constant(model, box.x0, box.R),
                       two_solve_ehi(model, box.x0, box.R))):
        for key in ("constant", "doubled_constant"):
            value = getattr(got, key, None) or got.metadata[key]
            assert value == pytest.approx(want[key], rel=1e-12, abs=0.0)
        assert got.witness == want["witness"] and got.witness is not None
        assert got.family_sizes == want["family_sizes"]
        assert got.metadata["n_exterior"] == want["n_exterior"]


@pytest.mark.parametrize("model, x0, R, order", SYMMETRY_CASES.values(),
                         ids=SYMMETRY_CASES)
def test_first_annulus_channels_match_its_own_truncation(model, x0, R, order):
    """`_channels` on the doubled annulus gives, at its `inner` columns, the
    representative channels of a truncation at LAM_EXT: the same labels and
    slots, the tracked columns bitwise, and the remainder (a difference of
    sums taken in another order) within 1e-12 relative, also of the whole
    annulus' remainder; n_inner counts every vertex of the first annulus."""
    fm = truncate(model, x0, 2 * R, EXTERIOR_TRACKED, 2 * H.LAM_EXT)
    slots, sources, labels, inner, n_inner = H._channels(
        fm, x0, H.LAM_EXT * 2 * R)
    assert sources.shape == (fm.n, len(labels)) and labels[-1] == "remainder"
    one = truncate(model, x0, 2 * R, EXTERIOR_TRACKED, H.LAM_EXT)
    # one's channels and the remainder of its whole annulus
    own = H._channels(one, x0, H.LAM_EXT * 2 * R)[1][:, :-1]
    exterior, full = full_sources(model, x0, 2 * R, H.LAM_EXT)
    assert np.array_equal(slots, H._representatives(one))
    assert n_inner == len(exterior)
    assert [labels[i] for i in inner] == channels(one)
    got = sources[:, inner]
    assert np.array_equal(got[:, :-1], own[:, :-1])
    for want in (own[:, -1], full[:, -1]):
        assert np.all(np.abs(got[:, -1] - want) <= 1e-12 * want)


def test_phi_witness_searched_in_first_annulus(z1, monkeypatch):
    """`phi_constant` folds the witness from the first annulus' channels
    alone, in channel order, not from the doubled annulus' outer ones."""
    seen, real = [], H._collect

    def spy(fm, box, init, src):
        seen.append(src.labels)
        return real(fm, box, init, src)

    monkeypatch.setattr(H, "_collect", spy)
    H.phi_constant(z1, small_box())
    one = truncate(z1, (0,), 8, EXTERIOR_TRACKED, H.LAM_EXT)
    assert seen == [channels(one)]


@pytest.mark.parametrize("run, solver", [
    (lambda z1: H.phi_constant(z1, small_box()), "step_operators"),
    (lambda z1: H.ehi_constant(z1, (0,), 4), "solve_generator"),
], ids=["phi", "ehi"])
def test_one_truncation_and_one_operator_build(z1, monkeypatch, run, solver):
    """A constant and its doubling check take one truncation, at twice the
    annulus, and one `step_operators` or `solve_generator` call."""
    calls = []
    for name in ("truncate", solver):
        def counted(*args, name=name, real=getattr(H, name)):
            calls.append((name, args[4] if name == "truncate" else None))
            return real(*args)
        monkeypatch.setattr(H, name, counted)
    run(z1)
    assert calls == [("truncate", 2 * H.LAM_EXT), (solver, None)]


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
def test_age_blocks_match_sequential_steps(z1, block):
    """The age blocks equal I[half] E^a stepped one age at a time bit for
    bit, over 71 ages (so the last block of most sizes is short)."""
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED)
    E = H.step_operators(fm, 0.5, fm.kill[:, None]).E
    half = np.array(fm.ball_slots((0,), 2))
    rows, ages = np.eye(fm.n)[half], 0
    for a0, stack in H._age_blocks(E, half, block, 71):
        assert a0 == ages and len(stack) == min(block, 71 - a0)
        for got in stack:
            assert np.array_equal(got, rows)
            rows, ages = rows @ E, ages + 1
    assert ages == 71


def test_fold_memory_within_two_age_columns():
    """`_fold` walks the winning column one age at a time: on the doubled
    `lab phi --d 2 --R 4` window (289 states, 16,352 channels, 256 steps)
    it peaks below twice the column's half-ball values at every age
    (102.8 kB), with no block of I[half] E^a rows (a tile is 262 kB) and
    none of the window's n x n arrays (an identity alone is 668 kB)."""
    z2 = LatticeModel(d=2, kernel=PolynomialKernel(1.0))
    box = H.HarnackBox(x0=(0, 0), R=4, alpha=1.0)
    fm = truncate(z2, box.x0, 2 * box.R, EXTERIOR_TRACKED, 2 * H.LAM_EXT)
    assert (fm.n, fm.orbits.sum(), box.m_steps) == (289, 16352, 256)
    slots, sources, labels = H._channels(fm, box.x0, 8 * box.R)[:3]
    init, src, _ = H._scan_generators(fm, box, slots, sources, labels)
    h = len(src.half)
    for fam, si in ((init, -1), (src, 3)):
        tracemalloc.start()
        try:
            H._fold(fam, si, 1, box.minus_steps(), box.plus_steps())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * (box.m_steps + 1) * h


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
    fm, sources = orbit_window(z2, box.x0, 2 * box.R, 2 * H.LAM_EXT)
    assert (fm.n, len(channels(fm)), box.m_steps) == (81, 4145, 256)
    ops = H.step_operators(fm, box.T / box.m_steps, sources)
    monkeypatch.setattr(H, "step_operators", lambda *args: ops)
    args = (H._representatives(fm), sources, channels(fm))
    tracemalloc.start()
    try:
        init, src, _ = H._scan_generators(fm, box, *args)
        assert H._collect(fm, box, init, src)[1] is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * box.m_steps * len(channels(fm)) * 8


def test_phi_memory_below_the_whole_annulus_sources():
    """`lab phi --d 2 --R 4` never holds the source matrix of its whole
    doubled annulus (289 x 16,353 doubles, 37.8 MB): its tracemalloc peak
    stays below that matrix's bytes."""
    z2 = LatticeModel(d=2, kernel=PolynomialKernel(1.0))
    box = H.HarnackBox(x0=(0, 0), R=4, alpha=1.0)
    tracemalloc.start()
    try:
        H.phi_constant(z2, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 289 * (16352 + 1)


def test_phi_searches_witness_ages_once(z1, monkeypatch):
    """One `phi_constant` searches witness ages (`_fold`) once: only for the
    winning generator, not once per launch step, and not for the doubled
    annulus, whose witness the report does not carry."""
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
    min_at stay the first attained of the exact ties.  The solve is for the
    doubled annulus' channels, its remainder, then the first annulus'
    remainder; the witness is the first annulus' even where a channel beyond
    it has a larger ratio."""
    rng = np.random.default_rng(seed)
    fm = truncate(z1, (0,), 8, EXTERIOR_TRACKED, 2 * H.LAM_EXT)
    labels = [*fm.exterior, "remainder", "remainder"]
    first = [c for c, w in enumerate(labels[:-2]) if abs(w[0]) <= 32]
    first.append(len(labels) - 1)
    exact = rng.integers(1, 4, (fm.n, len(labels))).astype(float)
    exact[:, 1::2] = exact[:, 0::2][:, :exact[:, 1::2].shape[1]]
    inner = [i for i, v in enumerate(fm.window) if abs(v[0]) <= 4]
    # beyond the first annulus every ratio is 3.06, above the first's
    # largest, 3, but within the 5 % of the doubling check
    outer = np.setdiff1d(np.arange(len(labels)), first)
    exact[:, outer] = 1.0
    exact[inner[0], outer] = 3.06
    sub = exact[np.ix_(inner, first)]
    ratio = sub.max(axis=0) / sub.min(axis=0)
    c = int(np.flatnonzero(ratio == ratio.max())[0])
    want = {"generator": ("exterior", labels[first[c]]),
            "max_at": fm.window[inner[int(sub[:, c].argmax())]],
            "min_at": fm.window[inner[int(sub[:, c].argmin())]]}
    noise = 1 + 1e-14 * rng.uniform(-1, 1, exact.shape)
    for H_ in (exact, exact * noise):
        def solve(fm, rhs, H_=H_):
            assert rhs.shape == H_.shape
            return H_
        monkeypatch.setattr(H, "solve_generator", solve)
        assert H.ehi_constant(z1, (0,), 4).witness == want


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
    fm, sources = orbit_window(z1, (0,), 8)
    best, _ = H._collect(fm, box, *scan_all(fm, sources, box))
    c_p = max(best, 1.0)
    full, full_src = full_window(z1, (0,), 8)
    n_ext = len(full.exterior)
    for _ in range(50):
        fld = caloric_solve(full, full_src, rng.random(full.n),
                            rng.random((box.m_steps, n_ext)),
                            box.T, box.m_steps,
                            remainder_data=rng.random(box.m_steps))
        assert caloric_box_ratio(fld, box) <= c_p + 1e-8


def test_scale_invariance(z1, rng):
    box = small_box()
    fm, sources = orbit_window(z1, (0,), 8)
    init = rng.random(fm.n)
    f1 = caloric_solve(fm, sources, init, None, box.T, box.m_steps)
    f2 = caloric_solve(fm, sources, 7.3 * init, None, box.T, box.m_steps)
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
    assert H._doubled("C", c, c2) == c2


@pytest.mark.parametrize("c, c2", [(1.0, 1.1), (math.inf, 2.0), (2.0, math.inf)])
def test_doubling_check_rejects(c, c2):
    with pytest.raises(WindowUnconverged):
        H._doubled("C", c, c2)


@pytest.mark.parametrize("run, name", [
    (lambda z1: H.phi_constant(z1, small_box()), "C_P"),
    (lambda z1: H.ehi_constant(z1, (0,), 4), "C_EHI"),
], ids=["phi", "ehi"])
def test_constants_always_checked_on_doubled_annulus(z1, monkeypatch, run,
                                                     name):
    """phi_constant and ehi_constant always check the constant against the
    one of twice the tracked annulus: a doubled constant 6 % above it raises
    WindowUnconverged, and one that agrees is reported as
    `doubled_constant`."""
    real = H._doubled
    seen = []

    def moved(name, c, c2):
        seen.append(name)
        return real(name, c, 1.06 * c2)

    monkeypatch.setattr(H, "_doubled", moved)
    with pytest.raises(WindowUnconverged,
                       match=f"LAM_EXT {H.LAM_EXT} -> {2 * H.LAM_EXT}"):
        run(z1)
    assert seen == [name]
    monkeypatch.setattr(H, "_doubled", real)
    rep = run(z1)
    assert rep.metadata["lam_ext"] == H.LAM_EXT
    assert rep.constant == pytest.approx(rep.metadata["doubled_constant"],
                                         rel=0.05)
