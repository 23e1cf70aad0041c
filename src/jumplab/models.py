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
from typing import ClassVar, Iterable, Sequence

import numpy as np
from scipy.special import zeta as hurwitz_zeta

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
# Shells summed term by term before the Hurwitz-zeta tail takes over.
TAIL_SHELLS = 4096


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
        return {"type": "table", "entries": [[list(v) if isinstance(v, tuple) else v, m]
                                             for v, m in self.table]}


def mu_rule_from_dict(d):
    t = d.get("type", "constant")
    if t == "constant":
        return MuConstant(float(d.get("value", 1.0)))
    if t == "alternating":
        return MuAlternating(float(d["even"]), float(d["odd"]))
    if t == "table":
        return MuTable(tuple((tuple(v) if isinstance(v, list) else v, float(m))
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
                "x0": list(self.x0), "y0": list(self.y0)}


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
        return {"type": "ladder", "alpha": self.alpha, "ranges": list(self.ranges)}


@dataclass(frozen=True)
class TabulatedKernel:
    """Symmetric pair -> rate map for explicit graphs."""

    entries: tuple  # tuple of ((u, v), rate)

    @functools.cached_property
    def rate_map(self) -> dict:
        """frozenset({u, v}) -> rate; a later entry for the same pair wins."""
        return {frozenset(pair): r for pair, r in self.entries}

    def to_dict(self):
        return {"type": "tabulated",
                "entries": [[[list(u) if isinstance(u, tuple) else u,
                              list(v) if isinstance(v, tuple) else v], r]
                            for (u, v), r in self.entries]}


Kernel = PolynomialKernel | SuppressedPairKernel | LadderKernel | TabulatedKernel


def kernel_from_dict(d):
    t = d["type"]
    if t == "polynomial":
        return PolynomialKernel(float(d["alpha"]))
    if t == "suppressed_pair":
        return SuppressedPairKernel(kernel_from_dict(d["base"]),
                                    tuple(d["x0"]), tuple(d["y0"]))
    if t == "ladder":
        return LadderKernel(float(d["alpha"]), tuple(int(r) for r in d["ranges"]))
    if t == "tabulated":
        return TabulatedKernel(tuple(((tuple(u) if isinstance(u, list) else u,
                                       tuple(v) if isinstance(v, list) else v), float(r))
                                     for (u, v), r in d["entries"]))
    raise ValueError(f"unknown kernel type {t!r}")


# ---------------------------------------------------------------------------
# lattice shell geometry
# ---------------------------------------------------------------------------

def shell_count(d: int, metric: str, s: int) -> int:
    """Number of lattice points at exact metric distance s from a point."""
    if s == 0:
        return 1
    if metric == "linf":
        return (2 * s + 1) ** d - (2 * s - 1) ** d
    if metric == "l1":
        total = 0
        for k in range(1, min(d, s) + 1):
            total += 2 ** k * math.comb(d, k) * math.comb(s - 1, k - 1)
        return total
    raise ValueError(f"unknown metric {metric!r}")


def shell_counts(d: int, metric: str, s) -> np.ndarray:
    """`shell_count` over an array of radii, in exact int64 arithmetic."""
    s = np.asarray(s, dtype=np.int64)
    if s.size and (2 * int(s.max()) + 1) ** d >= 2 ** 63:
        raise OverflowError("shell counts exceed int64")
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
    """Coefficients c_j with shell_count(s) = sum_j c_j s^j, exact for s >= 1."""
    if metric == "linf":
        coeffs = [Fraction(0)] * d
        for j in range(d):
            if (d - j) % 2 == 1:
                coeffs[j] = Fraction(2 * math.comb(d, j) * 2 ** j)
        return coeffs
    # l1: sum over k of 2^k C(d,k) C(s-1, k-1); C(s-1,k-1) is a degree k-1
    # polynomial in s with rational coefficients.
    coeffs = [Fraction(0)] * d
    for k in range(1, d + 1):
        # C(s-1, k-1) = prod_{i=1}^{k-1} (s - i) / (k-1)!
        poly = [Fraction(1)]
        for i in range(1, k):
            new = [Fraction(0)] * (len(poly) + 1)
            for p, c in enumerate(poly):
                new[p + 1] += c
                new[p] -= c * i
            poly = new
        fac = Fraction(2 ** k * math.comb(d, k), math.factorial(k - 1))
        for p, c in enumerate(poly):
            coeffs[p] += fac * c
    return coeffs


def shell_tail_sum(d: int, metric: str, exponent: float, start: int) -> float:
    """Exact sum_{s >= start} shell_count(s) * s^(-exponent) via Hurwitz zeta.

    Requires exponent > d so that every zeta argument exceeds 1.
    """
    if exponent <= d:
        raise DivergentTail(f"tail exponent {exponent} <= dimension {d}")
    total = 0.0
    for j, c in enumerate(_shell_poly_coeffs(d, metric)):
        if c != 0:
            total += float(c) * float(hurwitz_zeta(exponent - j, start))
    return total


@functools.cache
def _radial_row_sum(d: int, metric: str, kernel) -> tuple[float, float]:
    """(J(x, G), certified remainder bound) of a radial kernel on Z^d.

    The value is the same at every vertex, so it is memoised per argument
    tuple.  Shells 1..TAIL_SHELLS are summed left to right in Python floats
    and the value is evaluated as head + tail + atoms; callers subtract any
    per-vertex correction afterwards, which keeps every bit of the result.
    """
    expo = kernel.exponent(d)
    atoms = sum(shell_count(d, metric, r) * kernel.atom(r) for r in kernel.ranges)
    if expo <= d:
        raise DivergentTail(f"row sum diverges: exponent {expo} <= d={d}")
    head = sum(shell_count(d, metric, s) * float(s) ** (-expo)
               for s in range(1, TAIL_SHELLS + 1))
    tail = shell_tail_sum(d, metric, expo, TAIL_SHELLS + 1)
    return head + tail + atoms, TAIL_REL_BOUND * (head + tail) + 1e-300


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeModel:
    """An infinite lattice Z^d (or a finite explicit graph) with measure and kernel.

    Lattices take polynomial and ladder kernels (ladders on Z only), explicit
    graphs also tabulated ones; any of them may carry one suppressed pair of
    distinct vertices.  Other combinations raise ValueError on construction.
    """

    kind: str = "lattice"              # "lattice" | "explicit"
    d: int = 1
    metric: str = "linf"               # lattice metric: "linf" | "l1"
    kernel: Kernel = PolynomialKernel(1.0)
    mu_rule: object = MuConstant(1.0)
    c_j: float | None = None
    c_m: float | None = None
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
        k = self.kernel
        if isinstance(k, SuppressedPairKernel):
            if k.x0 == k.y0:
                raise ValueError("a suppressed pair needs two distinct vertices")
            if not (len(k.x0) == len(k.y0) == self.d if self.kind == "lattice"
                    else {k.x0, k.y0} <= self._adj.keys()):
                raise ValueError("the suppressed pair is not two vertices of the graph")
        if isinstance(self.base_kernel, LadderKernel) and self.d != 1:
            raise ValueError("ladder kernels are defined on Z only")
        if self.kind == "lattice" and isinstance(self.base_kernel, TabulatedKernel):
            raise ValueError("tabulated kernels are defined on explicit graphs only")

    # -- measure ----------------------------------------------------------

    def mu(self, x) -> float:
        return float(self.mu_rule(x))

    # -- metric -----------------------------------------------------------

    def distance(self, x, y) -> int:
        if self.kind == "lattice":
            if self.metric == "linf":
                return max(abs(a - b) for a, b in zip(x, y))
            return sum(abs(a - b) for a, b in zip(x, y))
        if x == y:
            return 0
        seen = {x: 0}
        q = deque([x])
        while q:
            u = q.popleft()
            for w in self._adj[u]:
                if w not in seen:
                    seen[w] = seen[u] + 1
                    if w == y:
                        return seen[w]
                    q.append(w)
        raise DistanceUnreachable(f"{x!r} and {y!r} are not connected")

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
            seen = {x0: 0}
            q = deque([x0])
            while q:
                u = q.popleft()
                if seen[u] == m:
                    continue
                for w in self._adj[u]:
                    if w not in seen:
                        seen[w] = seen[u] + 1
                        q.append(w)
            return sorted(seen)
        size = int(shell_counts(self.d, self.metric, np.arange(m + 1)).sum())
        if size > STATE_CAP:
            raise WindowTooLarge(f"ball of {size} vertices exceeds cap {STATE_CAP}")
        pts = itertools.product(*(range(c - m, c + m + 1) for c in x0))
        if self.metric == "linf":
            return [tuple(p) for p in pts]
        return [p for p in pts if self.distance(p, x0) <= m]

    def volume(self, x0, r: float) -> float:
        return float(sum(self.mu(y) for y in self.ball(x0, r)))

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
        if x == y:
            return 0.0
        p = self.pair
        if p is not None and {x, y} == {p[0], p[1]}:
            return 0.0
        return self.base_rate(x, y)

    def base_rate(self, x, y) -> float:
        """J(x, y) of `base_kernel`, for x != y."""
        k = self.base_kernel
        if isinstance(k, TabulatedKernel):
            return k.rate_map.get(frozenset((x, y)), 0.0)
        s = self.distance(x, y)
        v = float(s) ** (-k.exponent(self.d))
        if s in k.ranges:
            v += k.atom(s)
        return v

    def radial_values(self, dist: np.ndarray) -> np.ndarray:
        """Vectorized radial kernel values for an integer distance array (the
        suppressed pair is handled positionally elsewhere)."""
        k = self.base_kernel
        dist = np.asarray(dist, dtype=float)
        out = np.zeros_like(dist)
        pos = dist > 0
        out[pos] = dist[pos] ** (-k.exponent(self.d))
        for r in k.ranges:
            out[dist == r] += k.atom(r)
        return out

    # -- row sums with certified tails --------------------------------------

    def row_sum_all(self, x) -> tuple[float, float]:
        """(J(x,G), certified remainder bound)."""
        if self.kind == "explicit":
            return sum(self.J(x, y) for y in self.vertices if y != x), 0.0
        value, bound = _radial_row_sum(self.d, self.metric, self.base_kernel)
        p = self.pair
        if p is not None and x in p[:2]:
            value -= p[2]
        return value, bound

    def row_sum_outside(self, x, x0, r) -> tuple[float, float]:
        """(J(x, G - B(x0, r)), certified remainder bound)."""
        total, rem = self.row_sum_all(x)
        inside = sum(self.J(x, y) for y in self.ball(x0, r) if y != x)
        return total - inside, rem

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        d = {"kind": self.kind, "kernel": self.kernel.to_dict(),
             "mu": self.mu_rule.to_dict()}
        if self.kind == "lattice":
            d.update({"d": self.d, "metric": self.metric})
        else:
            d.update({"vertices": [list(v) if isinstance(v, tuple) else v
                                   for v in self.vertices],
                      "edges": [[list(u) if isinstance(u, tuple) else u,
                                 list(v) if isinstance(v, tuple) else v]
                                for u, v in self.edges]})
        if self.c_j is not None:
            d["c_j"] = self.c_j
        if self.c_m is not None:
            d["c_m"] = self.c_m
        return d

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:16]


def model_from_dict(d) -> LatticeModel:
    kind = d.get("kind", "lattice")
    kernel = kernel_from_dict(d["kernel"])
    mu = mu_rule_from_dict(d.get("mu", {"type": "constant", "value": 1.0}))
    if kind == "lattice":
        return LatticeModel(kind="lattice", d=int(d.get("d", 1)),
                            metric=d.get("metric", "linf"), kernel=kernel,
                            mu_rule=mu, c_j=d.get("c_j"), c_m=d.get("c_m"))
    verts = tuple(tuple(v) if isinstance(v, list) else v for v in d["vertices"])
    edges = tuple((tuple(u) if isinstance(u, list) else u,
                   tuple(v) if isinstance(v, list) else v) for u, v in d["edges"])
    return LatticeModel(kind="explicit", vertices=verts, edges=edges,
                        kernel=kernel, mu_rule=mu, c_j=d.get("c_j"), c_m=d.get("c_m"))


def validate_constants(model: LatticeModel, probes: Iterable) -> dict:
    """Check mu and row-sum bounds against the declared C_M, C_J on probe vertices."""
    observed = {"mu_min": math.inf, "mu_max": 0.0,
                "row_min": math.inf, "row_max": 0.0}
    for x in probes:
        m = model.mu(x)
        observed["mu_min"] = min(observed["mu_min"], m)
        observed["mu_max"] = max(observed["mu_max"], m)
        row, _ = model.row_sum_all(x)
        observed["row_min"] = min(observed["row_min"], row)
        observed["row_max"] = max(observed["row_max"], row)
    if model.c_m is not None:
        if observed["mu_max"] > model.c_m or observed["mu_min"] < 1.0 / model.c_m:
            raise ValueError("mu violates the declared C_M bound")
    if model.c_j is not None:
        if observed["row_max"] > model.c_j or observed["row_min"] < 1.0 / model.c_j:
            raise ValueError("J(x,G) violates the declared C_J bound")
    return observed


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
    """

    def __init__(self, model: LatticeModel, index: dict, center, m: int):
        d = model.d
        side = 2 * m + 1
        self.shape = (_fft_len(2 * side),) * d
        self.axes = tuple(range(d))
        size = self.shape[0]
        offset = np.minimum(np.arange(size), size - np.arange(size))
        grids = np.meshgrid(*([offset] * d), indexing="ij", sparse=True)
        dist = functools.reduce(np.maximum if model.metric == "linf" else np.add,
                                grids)
        kern = model.radial_values(dist)
        kern[functools.reduce(np.maximum, grids) >= side] = 0.0
        self.symbol = np.fft.rfftn(kern, axes=self.axes)
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
    exterior-tracked mode it splits into explicit couplings to a tagged
    annulus plus a remainder kill.  Lattice windows carry a `BoxConvolution`
    and never need the dense `rates` for a product; `rates` is built on the
    first read only.
    """

    model: LatticeModel
    window: list
    index: dict
    mu: np.ndarray
    kill: np.ndarray                # per-vertex kill rate (zeros if reflected)
    kill_bound: np.ndarray          # certified tail remainder in `kill`
    mode: str
    exterior: list | None = None
    coupling: np.ndarray | None = None       # (n, n_ext) J(x, w)/1 values
    remainder_kill: np.ndarray | None = None  # kill beyond the tracked annulus
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


def _pair_rates(model: LatticeModel, xs: Sequence, ys: Sequence) -> np.ndarray:
    """Matrix of J(x,y) for x in xs, y in ys (the suppressed pair zeroed)."""
    out = np.zeros((len(xs), len(ys)))
    if model.kind == "explicit":
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i, j] = model.J(x, y)
        return out
    ax = np.asarray(xs, dtype=np.int64).reshape(len(xs), model.d)
    ay = np.asarray(ys, dtype=np.int64).reshape(len(ys), model.d)
    chunk = max(1, int(4e6 // max(1, len(ys))))
    for lo in range(0, len(xs), chunk):
        hi = min(lo + chunk, len(xs))
        dist = model.norm(ax[lo:hi, None, :] - ay[None, :, :])
        out[lo:hi] = model.radial_values(dist)
    p = model.pair
    if p is not None:
        x_at = [np.all(ax == p[e], axis=1) for e in (0, 1)]
        y_at = [np.all(ay == p[e], axis=1) for e in (0, 1)]
        out[np.outer(x_at[0], y_at[1]) | np.outer(x_at[1], y_at[0])] = 0.0
    return out


def truncate(model: LatticeModel, x0, r_win: float, mode: str,
             lam_ext: float = 4.0) -> FiniteModel:
    """Restrict the model to the window B(x0, r_win) in the requested mode."""
    if mode not in (KILLED, REFLECTED, EXTERIOR_TRACKED):
        raise ValueError(f"unknown mode {mode!r}")
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
        totals = np.empty(n)
        bounds = np.empty(n)
        for i, v in enumerate(window):
            totals[i], bounds[i] = model.row_sum_all(v)
        fm.kill = np.maximum(totals - fm.row_sums, 0.0) / mu
        fm.kill_bound = bounds / mu
    if mode == EXTERIOR_TRACKED:
        big = model.ball(x0, lam_ext * r_win)
        wset = set(window)
        fm.exterior = [v for v in big if v not in wset]
        fm.coupling = _pair_rates(model, window, fm.exterior)
        tracked = fm.coupling.sum(axis=1) / mu
        fm.remainder_kill = np.maximum(fm.kill - tracked, 0.0)
    return fm
