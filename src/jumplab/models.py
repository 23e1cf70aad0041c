"""Graphs, metrics, measures, jump kernels, and finite computational windows.

Vertices of integer lattices are tuples of ints.  Explicit graphs may use any
hashable vertex labels; distances there come from BFS.  All infinite kernel
sums on lattices are radial: per-shell counts are polynomials in the shell
radius, so tails are evaluated exactly with Hurwitz zeta functions and carry a
certified remainder bound.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Sequence

import numpy as np
import numpy.fft  # noqa: F401  numpy would load it lazily, inside a run

from .errors import (
    DistanceUnreachable,
    DivergentTail,
    NumericalFailure,
    WindowTooLarge,
)

Vertex = tuple

KILLED = "killed"
REFLECTED = "reflected"
EXTERIOR_TRACKED = "exterior_tracked"

# Relative accuracy attributed to the zeta-based tail evaluation.
TAIL_REL_BOUND = 1e-12
# Largest lattice ball or window, in states, that is enumerated.
STATE_CAP = 200_000
# Largest dense rate matrix, in bytes, that `_pair_rates` allocates; every
# dense build (`rates`, Q, P, the cone's sources, eigh) starts there.
DENSE_BYTES = 1 << 30
# Entries of one block of pair distances in `_pair_rates`.  Blocks this small
# build as fast as blocks of 2^16 entries, and their temporaries stay below
# malloc's mmap threshold, which keeps the peak RSS of small runs lower.
PAIR_CHUNK = 1 << 12
# Shells tabulated term by term before the Hurwitz-zeta tail takes over.
SHELL_HORIZON = 2 ** 16
# Largest jump radius drawn: Z^2 shell counts (8s) and walker distances
# (|x - x0| <= R + s) stay in int64.
JUMP_RADIUS_CAP = 2 ** 59


# ---------------------------------------------------------------------------
# measure rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MuConstant:
    value: float = 1.0

    def __call__(self, x):
        return self.value

    def at(self, points) -> np.ndarray:
        """The measure at each row of an (n, d) array of lattice points."""
        return np.full(len(points), self.value)

    def to_dict(self):
        return {"type": "constant", "value": self.value}


@dataclass(frozen=True)
class MuAlternating:
    """mu depends on the parity of the coordinate sum; exercises C_M != 1."""

    even: float = 1.0
    odd: float = 1.0

    def __call__(self, x):
        return self.even if sum(x) % 2 == 0 else self.odd

    def at(self, points) -> np.ndarray:
        parity = np.asarray(points).sum(axis=1) % 2
        return np.where(parity == 0, self.even, self.odd)

    def to_dict(self):
        return {"type": "alternating", "even": self.even, "odd": self.odd}


@dataclass(frozen=True)
class MuTable:
    table: tuple  # tuple of (vertex, value) pairs, for explicit graphs

    @functools.cached_property
    def _values(self) -> dict:
        return dict(self.table)

    def __call__(self, x):
        return self._values[x]

    def at(self, points) -> np.ndarray:
        return np.array([self(tuple(p)) for p in np.asarray(points).tolist()],
                        dtype=float)

    def to_dict(self):
        return {"type": "table", "entries": self.table}


def _vertex(v):
    """A vertex read back from a model dict: JSON writes a lattice point as a
    list, so a list becomes a tuple again; a label is kept as it is."""
    return tuple(v) if isinstance(v, list) else v


def _reads_only(d: dict, what: str, *keys) -> None:
    """ValueError if d has a key outside `keys`, the keys its reader reads: a
    misspelt key would otherwise be dropped, and its default used unseen."""
    unknown = [k for k in d if k not in keys]
    if unknown:
        raise ValueError(f"unknown {what} key {', '.join(map(repr, unknown))}; "
                         f"expected one of {keys}")


def _number(key: str, value, sign: str = "") -> float:
    """float(value), or ValueError naming `key` unless it is a finite number
    and, for sign "positive" or "nonnegative", of that sign."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    ok = {"": True, "positive": x > 0, "nonnegative": x >= 0}[sign]
    if not (ok and math.isfinite(x)):
        raise ValueError(f"{key}: need a finite {sign or 'real'} number, "
                         f"got {value!r}")
    return x


def mu_rule_from_dict(d):
    t = d.get("type", "constant")
    if t == "constant":
        _reads_only(d, "mu", "type", "value")
        return MuConstant(_number("mu 'value'", d.get("value", 1.0), "positive"))
    if t == "alternating":
        _reads_only(d, "mu", "type", "even", "odd")
        return MuAlternating(*(_number(f"mu {k!r}", d[k], "positive")
                               for k in ("even", "odd")))
    if t == "table":
        _reads_only(d, "mu", "type", "entries")
        return MuTable(tuple((_vertex(v), _number(f"mu entry {v!r}", m, "positive"))
                             for v, m in d["entries"]))
    raise ValueError(f"unknown mu rule {t!r}")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialKernel:
    """J(x,y) = d(x,y)^(-d-alpha) on Z^d, radial in the model metric."""

    alpha: float
    ranges: ClassVar[tuple] = ()  # no atoms

    def exponent(self, d: int) -> float:
        """e with J = s^(-e) at distance s."""
        return d + self.alpha

    def to_dict(self):
        return {"type": "polynomial", "alpha": self.alpha}


@dataclass(frozen=True)
class SuppressedPairKernel:
    """Equal to `base` except jumps between x0 and y0 are suppressed."""

    base: "Kernel"
    x0: Vertex
    y0: Vertex

    def to_dict(self):
        return {"type": "suppressed_pair", "base": self.base.to_dict(),
                "x0": self.x0, "y0": self.y0}


@dataclass(frozen=True)
class LadderKernel:
    """On Z: J0(x,y)=|x-y|^(-1-alpha) plus (log R_i) R_i^(-1-alpha) atoms at |x-y|=R_i."""

    alpha: float
    ranges: tuple

    def exponent(self, d: int) -> float:
        """e with J0 = s^(-e) at distance s (the ladder lives on Z)."""
        return 1.0 + self.alpha

    def atom(self, r):
        return math.log(r) * r ** (-1.0 - self.alpha)

    def to_dict(self):
        return {"type": "ladder", "alpha": self.alpha, "ranges": self.ranges}


@dataclass(frozen=True)
class TabulatedKernel:
    """Symmetric pair -> rate map for explicit graphs."""

    entries: tuple  # tuple of ((u, v), rate)

    @functools.cached_property
    def rate_map(self) -> dict:
        """frozenset({u, v}) -> rate; a later entry for the same pair wins."""
        return {frozenset(pair): r for pair, r in self.entries}

    def to_dict(self):
        return {"type": "tabulated", "entries": self.entries}


Kernel = PolynomialKernel | SuppressedPairKernel | LadderKernel | TabulatedKernel


def kernel_from_dict(d):
    t = d["type"]
    if t == "polynomial":
        _reads_only(d, "kernel", "type", "alpha")
        return PolynomialKernel(_number("kernel 'alpha'", d["alpha"]))
    if t == "suppressed_pair":
        _reads_only(d, "kernel", "type", "base", "x0", "y0")
        return SuppressedPairKernel(kernel_from_dict(d["base"]),
                                    _vertex(d["x0"]), _vertex(d["y0"]))
    if t == "ladder":
        _reads_only(d, "kernel", "type", "alpha", "ranges")
        return LadderKernel(_number("kernel 'alpha'", d["alpha"]),
                            tuple(d["ranges"]))
    if t == "tabulated":
        _reads_only(d, "kernel", "type", "entries")
        return TabulatedKernel(tuple(
            ((_vertex(u), _vertex(v)),
             _number(f"kernel entry {[u, v]!r}", r, "nonnegative"))
            for (u, v), r in d["entries"]))
    raise ValueError(f"unknown kernel type {t!r}")


# ---------------------------------------------------------------------------
# lattice shell geometry
# ---------------------------------------------------------------------------

def shell_counts(d: int, metric: str, s) -> np.ndarray:
    """Lattice points at exact metric distance s from a point, per radius in s:
    int64 while (2 max(s) + 1)^d fits, exact Python integers beyond."""
    s = np.asarray(s, dtype=np.int64)
    if s.size and (2 * int(s.max()) + 1) ** d >= 2 ** 63:
        s = s.astype(object)
    if metric == "linf":
        out = (2 * s + 1) ** d - (2 * s - 1) ** d
    elif metric == "l1":
        out = np.zeros_like(s)
        binom = np.ones_like(s)  # C(s-1, k-1), zero once k > s
        for k in range(1, d + 1):
            if k > 1:
                binom = binom * (s - k + 1) // (k - 1)
            out += 2 ** k * math.comb(d, k) * binom
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return np.where(s == 0, 1, out)


def _shell_poly_coeffs(d: int, metric: str) -> list[Fraction]:
    """Coefficients a_j with shell_counts(s) = sum_j a_j s^j, exact for s >= 1:
    there the count is a polynomial of degree d - 1, interpolated at s = 1..d."""
    xs = range(1, d + 1)
    coeffs = [Fraction(0)] * d
    for xi, yi in zip(xs, shell_counts(d, metric, xs).tolist()):
        poly = [Fraction(yi)]  # yi prod_{k != i} (s - x_k) / (x_i - x_k)
        for xk in xs:
            if xk != xi:
                poly = [(a - xk * b) / (xi - xk)
                        for a, b in zip([0] + poly, poly + [0])]
        coeffs = [c + q for c, q in zip(coeffs, poly)]
    return coeffs


# Euler-Maclaurin coefficients (2k)!/B_2k of the cephes Hurwitz zeta.
_ZETA_EM = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
            -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
            1.1646782814350067249e14, -4.5979787224074726105e15,
            1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


def hurwitz_zeta(x: float, q: float) -> float:
    """sum_{k >= 0} (k + q)^-x for x > 1, q > 0: the cephes `zeta` recipe
    (terms while k < 9 or k + q <= 9, then Euler-Maclaurin), which is
    scipy.special.zeta's."""
    x, q = float(x), float(q)
    if q > 1e8:  # DLMF 25.11.43
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * q ** (1.0 - x)
    s = q ** -x
    a, i, b = q, 0, 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coef in _ZETA_EM:
        a *= x + k
        b /= w
        t = a * b / coef
        s += t
        if abs(t / s) < _MACHEP:
            break
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def shell_tail_sum(d: int, metric: str, exponent: float, start: int) -> float:
    """Exact sum_{s >= start} shell_counts(s) * s^(-exponent) via Hurwitz zeta.

    Requires exponent > d so that every zeta argument exceeds 1.
    """
    if exponent <= d:
        raise DivergentTail(f"tail exponent {exponent} <= dimension {d}")
    total = 0.0
    for j, c in enumerate(_shell_poly_coeffs(d, metric)):
        if c != 0:
            total += float(c) * hurwitz_zeta(exponent - j, start)
    return total


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """The one shell table of a radial lattice kernel: J(x, G) and the jump law.

    `cum` sums the shell weights count(s) J(s), atoms included, over
    s = 1..SHELL_HORIZON; `tail` is the exact Hurwitz-zeta rest, `total` =
    cum[-1] + tail is J(x, G) off any suppressed pair, and `bound` is its
    certified remainder, TAIL_REL_BOUND times the power-law part.
    """

    d: int
    metric: str
    expo: float
    cum: np.ndarray
    tail: float
    total: float
    bound: float

    def radii(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF shell radii for uniforms u in [0, total): a binary
        search of the whole table up to the horizon; beyond it, the least s
        with cumulative weight through s >= u, by doubling and bisection on
        the zeta tail.  This is the reference: the Monte Carlo walker draws
        through a table of buckets and sends here every draw whose bucket's
        two edges do not share one step.

        Raises NumericalFailure for a radius beyond JUMP_RADIUS_CAP: a draw
        lands there with probability about 2 % at tail exponent 1.1 on Z,
        and under 1e-14 at exponent 1.8."""
        def through(s):
            return self.total - shell_tail_sum(self.d, self.metric, self.expo, s + 1)
        r = self.cum.searchsorted(u, side="right") + 1
        if r.size and r.max() > SHELL_HORIZON:
            for i in np.nonzero(r > SHELL_HORIZON)[0]:
                lo, hi = SHELL_HORIZON, 2 * SHELL_HORIZON
                while through(hi) < u[i]:
                    if hi >= JUMP_RADIUS_CAP:
                        raise NumericalFailure(
                            f"a jump radius beyond 2^59 = {JUMP_RADIUS_CAP} was "
                            f"drawn: the kernel's tail exponent {self.expo} on "
                            f"Z^{self.d} is too heavy to sample in int64")
                    lo, hi = hi, 2 * hi
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (lo, mid) if through(mid) >= u[i] else (mid, hi)
                r[i] = hi
        return r.astype(np.int64, copy=False)


@functools.lru_cache(maxsize=8)
def radial_profile(d: int, metric: str, kernel) -> RadialProfile:
    """The `RadialProfile` of a polynomial or ladder kernel on Z^d; a sweep
    over many kernels keeps only the latest eight tables (512 KiB each)."""
    expo = kernel.exponent(d)
    tail = shell_tail_sum(d, metric, expo, SHELL_HORIZON + 1)  # raises if expo <= d
    radii = np.arange(1, SHELL_HORIZON + 1)
    counts = shell_counts(d, metric, radii).astype(float)
    weights = counts * radii.astype(float) ** (-expo)
    bound = TAIL_REL_BOUND * (float(weights.sum()) + tail) + 1e-300
    for r in kernel.ranges:
        weights[r - 1] += counts[r - 1] * kernel.atom(r)
    cum = np.cumsum(weights)
    cum.setflags(write=False)  # one cached table is shared by every caller
    return RadialProfile(d=d, metric=metric, expo=expo, cum=cum, tail=tail,
                         total=float(cum[-1] + tail), bound=bound)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeModel:
    """An infinite lattice Z^d (or a finite explicit graph) with measure and kernel.

    Lattices (of dimension d >= 1) take polynomial and ladder kernels
    (ladders on Z only), explicit graphs also tabulated ones; any of them may
    carry one suppressed pair of distinct vertices.  Other combinations raise
    ValueError on construction.
    """

    kind: str = "lattice"              # "lattice" | "explicit"
    d: int = 1
    metric: str = "linf"               # lattice metric: "linf" | "l1"
    kernel: Kernel = PolynomialKernel(1.0)
    mu_rule: object = MuConstant(1.0)
    vertices: tuple = ()               # explicit graphs only
    edges: tuple = ()                  # explicit graphs only
    _adj: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "explicit":
            adj = {v: [] for v in self.vertices}
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            object.__setattr__(self, "_adj", adj)
        elif self.metric not in ("linf", "l1"):
            raise ValueError(f"unknown lattice metric {self.metric!r}")
        elif self.d < 1:
            raise ValueError(f"lattice dimension d must be at least 1, "
                             f"got {self.d}")
        k = self.kernel
        if isinstance(k, SuppressedPairKernel):
            if k.x0 == k.y0:
                raise ValueError("a suppressed pair needs two distinct vertices")
            if not (len(k.x0) == len(k.y0) == self.d if self.kind == "lattice"
                    else {k.x0, k.y0} <= self._adj.keys()):
                raise ValueError("the suppressed pair is not two vertices of the graph")
        if isinstance(self.base_kernel, LadderKernel):
            if self.d != 1:
                raise ValueError("ladder kernels are defined on Z only")
            ranges = self.base_kernel.ranges
            for r in ranges:
                if not isinstance(r, (int, np.integer)):
                    raise ValueError(f"ladder range {r!r} is not an integer")
                why = ("is repeated" if ranges.count(r) > 1 else
                       "is below 1" if r < 1 else
                       "is beyond the shell horizon" if r > SHELL_HORIZON else None)
                if why:
                    raise ValueError(f"ladder range {r} {why}")
        if self.kind == "lattice" and isinstance(self.base_kernel, TabulatedKernel):
            raise ValueError("tabulated kernels are defined on explicit graphs only")

    @property
    def origin(self):
        """The default centre: 0 on a lattice, the least vertex of a graph."""
        return (0,) * self.d if self.kind == "lattice" else sorted(self.vertices)[0]

    # -- measure ----------------------------------------------------------

    def mu(self, x) -> float:
        return float(self.mu_rule(x))

    # -- metric -----------------------------------------------------------

    def distance(self, x, y) -> int:
        if self.kind == "lattice":
            if self.metric == "linf":
                return max(abs(a - b) for a, b in zip(x, y))
            return sum(abs(a - b) for a, b in zip(x, y))
        if y not in (hops := self._hops(x, math.inf)):
            raise DistanceUnreachable(f"{x!r} and {y!r} are not connected")
        return hops[y]

    def _hops(self, x0, depth: float) -> dict:
        """Explicit graphs: hop distance from x0 of each vertex within depth."""
        seen = {x0: 0}
        q = deque([x0])
        while q:
            u = q.popleft()
            if seen[u] == depth:
                continue
            for w in self._adj[u]:
                if w not in seen:
                    seen[w] = seen[u] + 1
                    q.append(w)
        return seen

    def norm(self, diff: np.ndarray) -> np.ndarray:
        """Lattice length of each integer displacement along the last axis."""
        diff = np.abs(diff)
        return diff.max(axis=-1) if self.metric == "linf" else diff.sum(axis=-1)

    def ball(self, x0, r: float) -> list:
        """Vertices at distance <= floor(r), in deterministic (lexicographic) order."""
        if r < 0:
            raise ValueError("radius must be nonnegative")
        m = int(math.floor(r))
        if self.kind == "explicit":
            return sorted(self._hops(x0, m))
        return list(zip(*self.ball_points(x0, m).T.tolist()))

    def ball_points(self, x0, m: int) -> np.ndarray:
        """The lattice ball of radius m about x0 as an (N, d) int64 array in
        lexicographic order; WindowTooLarge beyond STATE_CAP before any point
        is formed."""
        size = int(shell_counts(self.d, self.metric, np.arange(m + 1)).sum())
        if size > STATE_CAP:
            raise WindowTooLarge(f"ball of {size} vertices exceeds cap {STATE_CAP}")
        off = np.abs(np.arange(-m, m + 1, dtype=np.int32))
        dist = functools.reduce(np.maximum if self.metric == "linf" else np.add,
                                np.ix_(*[off] * self.d))
        # row-major positions of the box, so lexicographic order
        pts = np.stack(np.nonzero(dist <= m), axis=-1)
        return pts + (np.asarray(x0, dtype=np.int64) - m)

    def volume(self, x0, r: float) -> float:
        return float(sum(self.mu(y) for y in self.ball(x0, r)))

    def symmetries(self, x0) -> np.ndarray:
        """(k, d, d) signed permutation matrices G, the identity first, with
        x -> x0 + G (x - x0) an automorphism of the model fixing x0.

        On a lattice every signed coordinate permutation keeps the l-inf and
        l1 norms, so it keeps the radial kernel, every ball about x0 and the
        parity of the coordinate sum (`MuAlternating`); a map stays if it
        also sends the suppressed pair onto itself.  A `MuTable` measure or
        an explicit graph keeps the identity alone."""
        if self.kind == "explicit" or isinstance(self.mu_rule, MuTable):
            return np.eye(self.d, dtype=np.int64)[None]
        eye, c = np.eye(self.d, dtype=np.int64), np.asarray(x0)
        maps = [eye[list(perm)] * np.array(signs)[:, None]
                for perm in itertools.permutations(range(self.d))
                for signs in itertools.product((1, -1), repeat=self.d)]
        p = self.pair
        if p is not None:
            ends = {tuple(p[0]), tuple(p[1])}
            maps = [g for g in maps
                    if {tuple(c + g @ (np.asarray(e) - c)) for e in ends} == ends]
        return np.array(maps)

    # -- kernel -----------------------------------------------------------

    @property
    def base_kernel(self):
        """The kernel with its suppressed pair, if any, restored."""
        k = self.kernel
        return k.base if isinstance(k, SuppressedPairKernel) else k

    @functools.cached_property
    def pair(self) -> tuple | None:
        """(x0, y0, base_rate(x0, y0)) of the suppressed pair, or None."""
        k = self.kernel
        if not isinstance(k, SuppressedPairKernel):
            return None
        return k.x0, k.y0, self.base_rate(k.x0, k.y0)

    def J(self, x, y) -> float:
        p = self.pair
        if x == y or p is not None and {x, y} == {p[0], p[1]}:
            return 0.0
        return self.base_rate(x, y)

    def base_rate(self, x, y) -> float:
        """J(x, y) of `base_kernel`, for x != y."""
        k = self.base_kernel
        if isinstance(k, TabulatedKernel):
            return k.rate_map.get(frozenset((x, y)), 0.0)
        return float(self.radial_values(self.distance(x, y)))

    def radial_values(self, dist: np.ndarray) -> np.ndarray:
        """The one radial law of `base_kernel`: s^(-e), plus the ladder atom at
        each range, per integer distance s > 0, and 0 at s = 0.  `J`,
        `_pair_rates` and the window convolution agree bitwise through it."""
        k = self.base_kernel
        dist = np.asarray(dist, dtype=float)
        out = np.zeros_like(dist)
        pos = dist > 0
        out[pos] = dist[pos] ** (-k.exponent(self.d))
        for r in k.ranges:
            out[dist == r] += k.atom(r)
        return out

    # -- row sums with certified tails --------------------------------------

    def row_sums_all(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """(J(x, G), certified remainder bound) per vertex of xs (an (n, d)
        array on a lattice): the radial profile's total, less the pair rate
        at the ends of the suppressed pair."""
        n = len(xs)
        if self.kind == "explicit":
            return (np.array([sum(self.J(x, y) for y in self.vertices if y != x)
                              for x in xs], dtype=float), np.zeros(n))
        prof = radial_profile(self.d, self.metric, self.base_kernel)
        value = np.full(n, prof.total)
        p = self.pair
        if p is not None:
            pts = np.asarray(xs, dtype=np.int64).reshape(n, self.d)
            for end in p[:2]:
                value[np.all(pts == end, axis=1)] -= p[2]
        return value, np.full(n, prof.bound)

    def row_sum_all(self, x) -> tuple[float, float]:
        """(J(x,G), certified remainder bound): `row_sums_all` at one vertex."""
        value, bound = self.row_sums_all([x])
        return float(value[0]), float(bound[0])

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        d = {"kind": self.kind, "kernel": self.kernel.to_dict(),
             "mu": self.mu_rule.to_dict()}
        if self.kind == "lattice":
            d.update({"d": self.d, "metric": self.metric})
        else:
            d.update({"vertices": self.vertices, "edges": self.edges})
        return d

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:16]


def model_from_dict(d) -> LatticeModel:
    kind = d.get("kind", "lattice")
    kernel = kernel_from_dict(d["kernel"])
    mu = mu_rule_from_dict(d.get("mu", {"type": "constant", "value": 1.0}))
    if kind == "lattice":
        _reads_only(d, "model", "kind", "kernel", "mu", "d", "metric")
        return LatticeModel(kind="lattice", d=int(d.get("d", 1)),
                            metric=d.get("metric", "linf"), kernel=kernel,
                            mu_rule=mu)
    if kind != "explicit":
        raise ValueError(f"unknown model kind {kind!r}")
    _reads_only(d, "model", "kind", "kernel", "mu", "vertices", "edges")
    verts = tuple(map(_vertex, d["vertices"]))
    edges = tuple((_vertex(u), _vertex(v)) for u, v in d["edges"])
    return LatticeModel(kind="explicit", vertices=verts, edges=edges,
                        kernel=kernel, mu_rule=mu)


# ---------------------------------------------------------------------------
# finite windows
# ---------------------------------------------------------------------------

class BoxConvolution:
    """J on a lattice window, applied matrix-free as a circular convolution.

    On Z^d the radial kernel depends only on x - y, so the window's rate
    matrix is a (block-)Toeplitz section of one convolution.  The window lies
    in the box of side 2m+1 around its centre; the kernel on the box's offset
    grid is zero-padded to an FFT length of at least twice the side per axis,
    which keeps the circular product free of wrap-around, and transformed
    once.  A product then costs O(N log N) time and O(N) memory for N padded
    grid points: scatter the vector into the box by flat index, multiply the
    spectra, gather it back.  l1 balls scatter into a masked subset of the
    box.  A suppressed pair with both endpoints in the window is subtracted
    as a rank-2 term, `pair` = (slot of x0, slot of y0, rate), else None.
    `strang` inverts the box's circulant approximation of diag I - J.
    """

    def __init__(self, model: LatticeModel, index: dict, center, m: int):
        d = model.d
        self.model, self.side = model, 2 * m + 1
        self.shape = (_fft_len(2 * self.side),) * d
        self.axes = tuple(range(d))
        self.symbol = np.fft.rfftn(self._kernel(self.shape[0]), axes=self.axes)
        corner = np.asarray(center, dtype=np.int64) - m
        coords = np.asarray(list(index), dtype=np.int64) - corner
        self.flat = np.ravel_multi_index(tuple(coords.T), self.shape)
        p = model.pair
        self.pair = None
        if p is not None and p[0] in index and p[1] in index:
            self.pair = (index[p[0]], index[p[1]], p[2])

    def __call__(self, v: np.ndarray) -> np.ndarray:
        u = np.zeros(math.prod(self.shape))
        u[self.flat] = v
        spec = np.fft.rfftn(u.reshape(self.shape), axes=self.axes) * self.symbol
        out = np.fft.irfftn(spec, s=self.shape, axes=self.axes).reshape(-1)[self.flat]
        if self.pair is not None:
            i, j, rate = self.pair
            out[i] -= rate * v[j]
            out[j] -= rate * v[i]
        return out

    def _kernel(self, size: int) -> np.ndarray:
        """J on the circular grid of `size` points per axis, at the offsets
        min(i, size - i), zero where an offset reaches the box side."""
        offset = np.minimum(np.arange(size), size - np.arange(size))
        grids = np.meshgrid(*([offset] * self.model.d), indexing="ij", sparse=True)
        dist = functools.reduce(
            np.maximum if self.model.metric == "linf" else np.add, grids)
        kern = self.model.radial_values(dist)
        kern[functools.reduce(np.maximum, grids) >= self.side] = 0.0
        return kern

    def strang(self, diag: float):
        """r -> R C^-1 R^T r on the window, R the restriction of the box to
        it, C the Strang circulant of diag I - J on the box (Chan & Ng, SIAM
        Rev. 38 (1996)): its first column is diag, less J at the wrapped
        offsets.  Its eigenvalues, diag - sum_k J(k) e^{i k theta} over the
        box's offsets, are at least diag less the kernel's mass there, so
        with diag = J(x, Z^d) C is positive definite and so is R C^-1 R^T.
        One application is one FFT pair of the box side."""
        axes, shape = self.axes, (self.side,) * self.model.d
        eig = diag - np.fft.rfftn(self._kernel(self.side), axes=axes).real
        box = np.ravel_multi_index(np.unravel_index(self.flat, self.shape), shape)

        def solve(r: np.ndarray) -> np.ndarray:
            u = np.zeros(math.prod(shape))
            u[box] = r
            spec = np.fft.rfftn(u.reshape(shape), axes=axes) / eig
            return np.fft.irfftn(spec, s=shape, axes=axes).reshape(-1)[box]
        return solve


def _fft_len(n: int) -> int:
    """Smallest length >= n with no prime factor above 5 (a fast FFT size)."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@dataclass
class FiniteModel:
    """Truncation of a LatticeModel to a finite vertex window.

    `kill` is the total per-vertex kill rate mu_x^{-1} J(x, G-W); in
    exterior-tracked mode it splits into the source channels of the tracked
    annulus A and a remainder beyond it.  The maps of
    `LatticeModel.symmetries(x0)` permute A and the window and keep J and
    mu, so one channel per orbit of A is enough: `exterior` lists the first
    vertex of each orbit in ball order, `orbits` its orbit size and
    `slot_maps` the window slot of g x for each map g and slot x.  The
    truncation holds only this geometry; the source columns
    mu_x^{-1} J(x, c) and the remainders are built where they are used
    (`harnack._channels`).  An explicit graph or an identity group keeps
    every vertex of A as its own orbit.  Lattice windows carry a
    `BoxConvolution` and never need the dense `rates` for a product; `rates`
    is built on the first read only.
    """

    model: LatticeModel
    window: list
    index: dict
    mu: np.ndarray
    kill: np.ndarray                # per-vertex kill rate (zeros if reflected)
    kill_bound: np.ndarray          # certified tail remainder in `kill`
    mode: str
    exterior: list | None = None        # first vertex of each orbit of A
    orbits: np.ndarray | None = None    # size of each orbit of A
    slot_maps: np.ndarray | None = None  # (maps, n) window slot of g x
    action: BoxConvolution | None = None      # matrix-free J on lattice windows

    @property
    def n(self) -> int:
        return len(self.window)

    @functools.cached_property
    def rates(self) -> np.ndarray:
        """(n, n) symmetric J(x,y) with zero diagonal."""
        rates = _pair_rates(self.model, self.window, self.window)
        np.fill_diagonal(rates, 0.0)
        return rates

    def rates_matvec(self, v: np.ndarray) -> np.ndarray:
        """`rates @ v` for a vector v, without the dense matrix when possible."""
        if self.action is None:
            return self.rates @ v
        return self.action(v)

    @functools.cached_property
    def row_sums(self) -> np.ndarray:
        """J(x, W) for each window vertex x."""
        return self.rates_matvec(np.ones(self.n))

    def ball_slots(self, x0, r) -> list[int]:
        """Slots of the window vertices within distance r of x0."""
        return [i for i, v in enumerate(self.window)
                if self.model.distance(x0, v) <= r]

    def annulus_sum(self, columns: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """sum_b f_b(x) per window slot x, over every vertex b of the orbits
        of the tracked annulus that `mask` selects, given `columns`[:, c] =
        f_c for the first vertex c of each orbit (`exterior`).

        f must be equivariant, f_{g c}(x) = f_c(g^-1 x), as mu^{-1} J(x, c)
        is (J and mu are invariant).  Each orbit is {g c} over the maps g,
        met |stabiliser of c| = |maps| / |orbit| times, so the sum is
        sum_g u[slot of g x] with u = columns @ (|orbit| / |maps|)."""
        weight = np.where(mask, self.orbits / len(self.slot_maps), 0.0)
        return (columns @ weight)[self.slot_maps].sum(axis=0)


def require_dense(rows: int, cols: int) -> None:
    """WindowTooLarge if a rows x cols rate matrix would exceed DENSE_BYTES."""
    nbytes = 8 * rows * cols
    if nbytes > DENSE_BYTES:
        raise WindowTooLarge(f"a {rows} x {cols} rate matrix needs "
                             f"{nbytes} bytes, over the budget of {DENSE_BYTES}")


def _pair_rates(model: LatticeModel, xs: Sequence, ys: Sequence,
                spare: int = 0) -> np.ndarray:
    """Matrix of J(x,y) for x in xs, y in ys (the suppressed pair zeroed),
    then `spare` zero columns.

    WindowTooLarge, before anything is allocated, if it would exceed
    DENSE_BYTES."""
    require_dense(len(xs), len(ys) + spare)
    full = np.zeros((len(xs), len(ys) + spare))
    out = full[:, :len(ys)]
    if model.kind == "explicit":
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i, j] = model.J(x, y)
        return full
    ax = np.asarray(xs, dtype=np.int64).reshape(len(xs), model.d)
    ay = np.asarray(ys, dtype=np.int64).reshape(len(ys), model.d)
    # the distance takes |x_k - y_k| one coordinate at a time, over blocks of
    # about PAIR_CHUNK entries (one row if longer), so no (rows, cols, d)
    # difference is formed
    fold = np.maximum if model.metric == "linf" else np.add
    chunk = max(1, PAIR_CHUNK // max(1, len(ys)))
    for lo in range(0, len(xs), chunk):
        block = ax[lo:lo + chunk]
        dist = np.abs(block[:, None, 0] - ay[None, :, 0])
        for k in range(1, model.d):
            fold(dist, np.abs(block[:, None, k] - ay[None, :, k]), out=dist)
        out[lo:lo + chunk] = model.radial_values(dist)
    p = model.pair
    if p is not None:
        x_at = [np.all(ax == p[e], axis=1) for e in (0, 1)]
        y_at = [np.all(ay == p[e], axis=1) for e in (0, 1)]
        out[np.outer(x_at[0], y_at[1]) | np.outer(x_at[1], y_at[0])] = 0.0
    return full


def _annulus_orbits(model: LatticeModel, x0, r_win: float, r_ext: float):
    """(exterior, sizes, slot_maps) of the annulus B(x0, r_ext) less the
    window B(x0, r_win): the first vertex in ball order of each orbit of
    `model.symmetries(x0)` on it, the size of each orbit, and the (maps, n)
    window slot of g x per map g and window slot x.

    On a lattice the ball stays an integer array.  One lookup grid over its
    box numbers the window first, then the annulus, each in ball order; the
    maps keep both, and a point leads its orbit if no image of it has a
    smaller number.  An explicit graph keeps every vertex as its own orbit."""
    if model.kind == "explicit":
        window = set(model.ball(x0, r_win))
        exterior = [v for v in model.ball(x0, r_ext) if v not in window]
        return (exterior, np.ones(len(exterior), dtype=np.int64),
                np.arange(len(window))[None])
    m, big = int(math.floor(r_win)), int(math.floor(r_ext))
    c = np.asarray(x0, dtype=np.int64)
    rel = model.ball_points(x0, big) - c
    outside = model.norm(rel) > m
    rel = np.concatenate([rel[~outside], rel[outside]])
    n, total = len(rel) - int(outside.sum()), len(rel)
    grid = np.empty((2 * big + 1,) * model.d, dtype=np.int64)
    grid[tuple((rel + big).T)] = np.arange(total)
    maps = model.symmetries(x0)
    slot_maps = np.empty((len(maps), n), dtype=np.int64)
    first = np.arange(total)
    for g, slots in zip(maps, slot_maps):
        image = grid[tuple((rel @ g.T + big).T)]
        slots[:] = image[:n]
        np.minimum(first, image, out=first)
    lead = np.flatnonzero(first[n:] == np.arange(n, total))
    sizes = np.bincount(first[n:] - n, minlength=total - n)[lead]
    return list(map(tuple, (rel[n + lead] + c).tolist())), sizes, slot_maps


def truncate(model: LatticeModel, x0, r_win: float, mode: str,
             lam_ext: float = 4.0) -> FiniteModel:
    """Restrict the model to the window B(x0, r_win) in the requested mode.

    Exterior-tracked mode also records the geometry of the annulus
    B(x0, lam_ext r_win) less the window, one channel per symmetry orbit
    (`FiniteModel`), and builds no source column; its ball is checked
    against STATE_CAP before the window is built."""
    if mode not in (KILLED, REFLECTED, EXTERIOR_TRACKED):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == EXTERIOR_TRACKED:
        exterior, orbit, slot_maps = _annulus_orbits(model, x0, r_win,
                                                     lam_ext * r_win)
    window = model.ball(x0, r_win)
    n = len(window)
    if n > STATE_CAP:
        raise WindowTooLarge(f"{n} states exceeds cap {STATE_CAP}")
    index = {v: i for i, v in enumerate(window)}
    action = None
    if model.kind == "lattice":
        action = BoxConvolution(model, index, x0, int(math.floor(r_win)))
    mu = np.array([model.mu(v) for v in window])
    fm = FiniteModel(model=model, window=window, index=index, mu=mu,
                     kill=np.zeros(n), kill_bound=np.zeros(n), mode=mode,
                     action=action)
    if mode in (KILLED, EXTERIOR_TRACKED):
        totals, bounds = model.row_sums_all(window)
        fm.kill = np.maximum(totals - fm.row_sums, 0.0) / mu
        fm.kill_bound = bounds / mu
    if mode == EXTERIOR_TRACKED:
        fm.exterior, fm.orbits, fm.slot_maps = exterior, orbit, slot_maps
    return fm
