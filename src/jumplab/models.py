"""Graphs, metrics, measures, jump kernels, and finite computational windows.

Vertices of integer lattices are tuples of ints.  Explicit graphs may use any
hashable vertex labels; distances there come from BFS.  All infinite kernel
sums on lattices are radial: per-shell counts are polynomials in the shell
radius, so tails are evaluated exactly with Hurwitz zeta functions and carry a
certified remainder bound.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np
import numpy.fft  # noqa: F401  numpy would load it lazily, inside a run

# CPython's built-in SHA-256, the module hashlib itself falls back to:
# importing hashlib loads OpenSSL's _hashlib (about 3.5 MiB of RSS) for a
# digest of about 100 bytes.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .errors import (
    DistanceUnreachable,
    DivergentTail,
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


def _shell_poly_coeffs(d: int, metric: str) -> tuple[list[int], int]:
    """(c, (d-1)!) with shell_counts(s) = sum_j c_j s^j / (d-1)!, exact for
    s >= 1: there the count is a polynomial of degree d - 1, interpolated at
    s = 1..d.  The Lagrange basis polynomial of node i has the denominator
    prod_{k != i} (i - k) = (-1)^(d-i) (i-1)! (d-i)!, so over (d-1)! it
    takes the integer weight (-1)^(d-i) C(d-1, i-1), and every c_j is an
    integer."""
    coeffs = [0] * d
    ys = shell_counts(d, metric, range(1, d + 1)).tolist()
    for i, yi in enumerate(ys, start=1):
        poly = [yi * (-1) ** (d - i) * math.comb(d - 1, i - 1)]
        for k in range(1, d + 1):  # times (s - k)
            if k != i:
                poly = [a - k * b for a, b in zip([0] + poly, poly + [0])]
        coeffs = [c + q for c, q in zip(coeffs, poly)]
    return coeffs, math.factorial(d - 1)


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
    coeffs, den = _shell_poly_coeffs(d, metric)
    for j, c in enumerate(coeffs):
        if c != 0:  # c / den, one correctly rounded division
            total += c / den * hurwitz_zeta(exponent - j, start)
    return total


@functools.lru_cache(maxsize=64)
def radial_total(d: int, metric: str, kernel) -> tuple[float, float]:
    """(J(x, G), certified remainder bound) of a polynomial or ladder kernel
    on Z^d, off any suppressed pair, in closed form: the power law summed over
    every shell by Hurwitz zeta (`shell_tail_sum` from s = 1), plus
    count(r) atom(r) for each ladder range.  The bound is TAIL_REL_BOUND
    times the power-law part.

    The row sums and the walker's jump law (`TrajectorySampler.total`) read it.
    It is within an ulp of pi^2/3 on Z at alpha = 1; a running sum of the
    SHELL_HORIZON shells can round by up to about 7e-12, above
    TAIL_REL_BOUND, and there lands 1.3e-14 high."""
    power = shell_tail_sum(d, metric, kernel.exponent(d), 1)  # raises if divergent
    total = power
    for r in kernel.ranges:
        total += float(shell_counts(d, metric, [r])[0]) * kernel.atom(r)
    return total, TAIL_REL_BOUND * power + 1e-300


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeModel:
    """An infinite lattice Z^d (or a finite explicit graph) with measure and kernel.

    Lattices (of dimension d >= 1) take polynomial and ladder kernels
    (ladders on Z only), explicit graphs also tabulated ones; any of them may
    carry one suppressed pair of distinct vertices.  Other combinations raise
    ValueError on construction, as does an explicit graph that lists a
    vertex twice, whose labels cannot be ordered, whose edges or tabulated
    kernel name a vertex it does not have, or whose `MuTable` leaves a
    vertex out.
    """

    kind: str = "lattice"              # "lattice" | "explicit"
    d: int = 1
    metric: str = "linf"               # lattice metric: "linf" | "l1"
    kernel: Kernel = PolynomialKernel(1.0)
    mu_rule: object = MuConstant(1.0)
    vertices: tuple = ()               # explicit graphs only
    edges: tuple = ()                  # explicit graphs only
    _adj: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "explicit":
            adj = {v: [] for v in self.vertices}
            if len(adj) < len(self.vertices):
                v = next(v for i, v in enumerate(self.vertices)
                         if v in self.vertices[:i])
                raise ValueError(f"vertex {v!r} is listed twice")
            try:  # `origin` and `ball` sort the labels
                sorted(self.vertices)
            except TypeError:
                raise ValueError(f"vertex labels {list(self.vertices)!r} "
                                 f"cannot be ordered; use labels of one "
                                 f"type") from None
            named = [("edge", e) for e in self.edges]
            if isinstance(self.base_kernel, TabulatedKernel):
                named += [("kernel entry", e)
                          for e, _ in self.base_kernel.entries]
            for what, pair in named:
                for v in pair:
                    if v not in adj:
                        raise ValueError(f"{what} {pair!r} names {v!r}, "
                                         f"which is not a vertex")
            if isinstance(self.mu_rule, MuTable):
                for v in self.vertices:
                    if v not in self.mu_rule._values:
                        raise ValueError(f"the mu table has no entry for "
                                         f"vertex {v!r}")
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
        lexicographic order; WindowTooLarge beyond STATE_CAP before any array
        is formed: the size is (2m+1)^d for l-inf and
        sum_k 2^k C(d,k) C(m,k) for l1, in Python integers."""
        size = ((2 * m + 1) ** self.d if self.metric == "linf" else
                sum(2 ** k * math.comb(self.d, k) * math.comb(m, k)
                    for k in range(self.d + 1)))
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
        `_pair_rates`, the window convolution and the walker's shell table
        agree bitwise through it.  The power is written in place, so 2^16
        distances form no masked copies."""
        k = self.base_kernel
        dist = np.asarray(dist, dtype=float)
        out = np.zeros_like(dist)
        np.power(dist, -k.exponent(self.d), out=out, where=dist > 0)
        for r in k.ranges:
            out[dist == r] += k.atom(r)
        return out

    # -- row sums with certified tails --------------------------------------

    def row_sums_all(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """(J(x, G), certified remainder bound) per vertex of xs (an (n, d)
        array on a lattice): `radial_total`, less the pair rate at the ends
        of the suppressed pair."""
        n = len(xs)
        if self.kind == "explicit":
            return (np.array([sum(self.J(x, y) for y in self.vertices if y != x)
                              for x in xs], dtype=float), np.zeros(n))
        total, bound = radial_total(self.d, self.metric, self.base_kernel)
        value = np.full(n, total)
        p = self.pair
        if p is not None:
            pts = np.asarray(xs, dtype=np.int64).reshape(n, self.d)
            for end in p[:2]:
                value[np.all(pts == end, axis=1)] -= p[2]
        return value, np.full(n, bound)

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
        return sha256(
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
    spectra, gather it back.  The flat indices `flat` come from the window's
    (n, d) integer points; l1 balls scatter into a masked subset of the box.
    The zero-padded box is kept (`pad`): every product writes the same
    `flat` slots, so the rest of it stays zero.  A suppressed pair with both
    endpoints in the window is subtracted as a rank-2 term, `pair` = (slot
    of x0, slot of y0, rate), else None.  `strang` inverts the box's
    circulant approximation of diag I - J.
    """

    def __init__(self, model: LatticeModel, points: np.ndarray, center, m: int):
        d = model.d
        self.model, self.side = model, 2 * m + 1
        self.shape = (_fft_len(2 * self.side),) * d
        self.symbol = _rfft(self._kernel(self.shape[0]))
        self.pad = np.zeros(math.prod(self.shape))
        corner = np.asarray(center, dtype=np.int64) - m
        self.flat = np.ravel_multi_index(tuple((points - corner).T), self.shape)
        p = model.pair
        self.pair = None
        if p is not None:
            ends = [np.flatnonzero((points == e).all(axis=1)) for e in p[:2]]
            if all(e.size for e in ends):
                self.pair = (int(ends[0][0]), int(ends[1][0]), p[2])

    def __call__(self, v: np.ndarray) -> np.ndarray:
        self.pad[self.flat] = v
        spec = _rfft(self.pad.reshape(self.shape))
        spec *= self.symbol
        out = _irfft(spec, self.shape)[self.flat]
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
        One application is one FFT pair of the box side, through a
        zero-padded box the solve keeps as `__call__` keeps `pad`."""
        shape = (self.side,) * self.model.d
        eig = diag - _rfft(self._kernel(self.side)).real
        box = np.ravel_multi_index(np.unravel_index(self.flat, self.shape), shape)
        pad = np.zeros(math.prod(shape))

        def solve(r: np.ndarray) -> np.ndarray:
            pad[box] = r
            spec = _rfft(pad.reshape(shape))
            spec /= eig
            return _irfft(spec, shape)[box]
        return solve


def _rfft(u: np.ndarray) -> np.ndarray:
    """rfftn of u over all its axes: rfft itself on one axis."""
    return np.fft.rfft(u) if u.ndim == 1 else np.fft.rfftn(u)


def _irfft(spec: np.ndarray, shape: tuple) -> np.ndarray:
    """The flat irfftn of spec to the real grid `shape`: irfft on one axis."""
    if len(shape) == 1:
        return np.fft.irfft(spec, shape[0])
    return np.fft.irfftn(spec, s=shape, axes=range(len(shape))).reshape(-1)


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

    A lattice window keeps its vertices as `points`, an (n, d) int64 array
    in ball (lexicographic) order, and builds the list of tuples `window`
    and the dict `index` only when something reads them; `slot` finds a
    vertex without them.  An explicit graph passes its window as `vertices`.
    """

    model: LatticeModel
    mu: np.ndarray
    kill: np.ndarray                # per-vertex kill rate (zeros if reflected)
    kill_bound: np.ndarray          # certified tail remainder in `kill`
    mode: str
    points: np.ndarray | None = None    # (n, d) lattice points, ball order
    vertices: list | None = None        # an explicit graph's window
    exterior: list | None = None        # first vertex of each orbit of A
    orbits: np.ndarray | None = None    # size of each orbit of A
    slot_maps: np.ndarray | None = None  # (maps, n) window slot of g x
    action: BoxConvolution | None = None      # matrix-free J on lattice windows

    @property
    def n(self) -> int:
        return len(self.mu)

    @functools.cached_property
    def window(self) -> list:
        """The window's vertices in ball order, as tuples on a lattice."""
        if self.points is None:
            return self.vertices
        return list(zip(*self.points.T.tolist()))

    @functools.cached_property
    def index(self) -> dict:
        """Vertex -> window slot."""
        return {v: i for i, v in enumerate(self.window)}

    def slot(self, x) -> int:
        """The window slot of the vertex x, KeyError if x is outside the
        window; on a lattice a search of `points`, which builds no index."""
        if self.points is None:
            return self.index[x]
        if len(x) == self.points.shape[1]:
            hit = np.flatnonzero((self.points == x).all(axis=1))
            if hit.size:
                return int(hit[0])
        raise KeyError(x)

    @functools.cached_property
    def rates(self) -> np.ndarray:
        """(n, n) symmetric J(x,y) with zero diagonal."""
        where = self.window if self.points is None else self.points
        rates = _pair_rates(self.model, where, where)
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
    against STATE_CAP before the window is built.  A lattice window takes
    its points from `ball_points` and its measure from `mu_rule.at`."""
    if mode not in (KILLED, REFLECTED, EXTERIOR_TRACKED):
        raise ValueError(f"unknown mode {mode!r}")
    if r_win < 0:
        raise ValueError("radius must be nonnegative")
    exterior = orbit = slot_maps = None
    if mode == EXTERIOR_TRACKED:
        exterior, orbit, slot_maps = _annulus_orbits(model, x0, r_win,
                                                     lam_ext * r_win)
    points = vertices = action = None
    if model.kind == "lattice":
        m = int(math.floor(r_win))
        points = where = model.ball_points(x0, m)  # checks STATE_CAP first
        mu = np.asarray(model.mu_rule.at(points), dtype=float)
        action = BoxConvolution(model, points, x0, m)
    else:
        vertices = where = model.ball(x0, r_win)
        if len(vertices) > STATE_CAP:
            raise WindowTooLarge(f"{len(vertices)} states exceeds cap {STATE_CAP}")
        mu = np.array([model.mu(v) for v in vertices])
    n = len(mu)
    fm = FiniteModel(model=model, mu=mu, kill=np.zeros(n),
                     kill_bound=np.zeros(n), mode=mode, points=points,
                     vertices=vertices, exterior=exterior, orbits=orbit,
                     slot_maps=slot_maps, action=action)
    if mode in (KILLED, EXTERIOR_TRACKED):
        totals, bounds = model.row_sums_all(where)
        fm.kill = np.maximum(totals - fm.row_sums, 0.0) / mu
        fm.kill_bound = bounds / mu
    return fm
