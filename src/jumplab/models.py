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


# ---------------------------------------------------------------------------
# measure rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MuConstant:
    value: float = 1.0

    def __call__(self, x):
        return self.value

    def to_dict(self):
        return {"type": "constant", "value": self.value}


@dataclass(frozen=True)
class MuAlternating:
    """mu depends on the parity of the coordinate sum; exercises C_M != 1."""

    even: float = 1.0
    odd: float = 1.0

    def __call__(self, x):
        return self.even if sum(x) % 2 == 0 else self.odd

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
def _radial_row_sum(d: int, metric: str, kernel, tail_shells: int) -> tuple[float, float]:
    """(J(x, G), certified remainder bound) of a radial kernel on Z^d.

    The value is the same at every vertex, so it is memoised per argument
    tuple.  Shells 1..tail_shells are summed left to right in Python floats
    and the value is evaluated as head + tail + atoms; callers subtract any
    per-vertex correction afterwards, which keeps every bit of the result.
    """
    expo = kernel.exponent(d)
    atoms = sum(shell_count(d, metric, r) * kernel.atom(r) for r in kernel.ranges)
    if expo <= d:
        raise DivergentTail(f"row sum diverges: exponent {expo} <= d={d}")
    head = sum(shell_count(d, metric, s) * float(s) ** (-expo)
               for s in range(1, tail_shells + 1))
    tail = shell_tail_sum(d, metric, expo, tail_shells + 1)
    return head + tail + atoms, TAIL_REL_BOUND * (head + tail) + 1e-300


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeModel:
    """An infinite lattice Z^d (or a finite explicit graph) with measure and kernel."""

    kind: str = "lattice"              # "lattice" | "explicit"
    d: int = 1
    metric: str = "linf"               # lattice metric: "linf" | "l1"
    kernel: Kernel = PolynomialKernel(1.0)
    mu_rule: object = MuConstant(1.0)
    c_j: float | None = None
    c_m: float | None = None
    vertices: tuple = ()               # explicit graphs only
    edges: tuple = ()                  # explicit graphs only
    state_cap: int = 200_000
    tail_shells: int = 4096
    _adj: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "explicit":
            adj = {v: [] for v in self.vertices}
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            object.__setattr__(self, "_adj", adj)
        if isinstance(self.kernel, LadderKernel) and self.d != 1:
            raise ValueError("ladder kernels are defined on Z only")

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
        size = sum(shell_count(self.d, self.metric, s) for s in range(m + 1))
        if size > self.state_cap:
            raise WindowTooLarge(f"ball of {size} vertices exceeds cap {self.state_cap}")
        if self.metric == "linf":
            pts = itertools.product(*(range(c - m, c + m + 1) for c in x0))
            return [tuple(p) for p in pts]
        pts = itertools.product(*(range(c - m, c + m + 1) for c in x0))
        return [tuple(p) for p in pts
                if sum(abs(a - b) for a, b in zip(p, x0)) <= m]

    def volume(self, x0, r: float) -> float:
        return float(sum(self.mu(y) for y in self.ball(x0, r)))

    # -- kernel -----------------------------------------------------------

    @property
    def base_kernel(self):
        """The kernel with its suppressed pair, if any, restored."""
        k = self.kernel
        return k.base if isinstance(k, SuppressedPairKernel) else k

    def J(self, x, y) -> float:
        if x == y:
            return 0.0
        k = self.kernel
        if isinstance(k, SuppressedPairKernel) and {x, y} == {k.x0, k.y0}:
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
        """Vectorized radial kernel values for an integer distance array (suppression
        and tabulated entries are handled positionally elsewhere)."""
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
        k = self.kernel
        if self.kind == "explicit" or isinstance(k, TabulatedKernel):
            return sum(self.J(x, y) for y in self.vertices if y != x), 0.0
        value, bound = _radial_row_sum(self.d, self.metric, self.base_kernel,
                                       self.tail_shells)
        if isinstance(k, SuppressedPairKernel) and x in (k.x0, k.y0):
            value -= self.base_rate(k.x0, k.y0)
        return value, bound

    def row_sum_region(self, x, region) -> tuple[float, float]:
        """J(x, A) for A one of ("all",), ("outside_ball", x0, r), ("annulus", r_in, r_out).

        Annuli are centered at x and inclusive at both radii.  Exact for finite
        regions; tail-certified otherwise.
        """
        tag = region[0]
        if tag == "all":
            return self.row_sum_all(x)
        if tag == "annulus":
            _, r_in, r_out = region
            vals = [self.J(x, y) for y in self.ball(x, r_out)
                    if r_in <= self.distance(x, y) <= r_out]
            return float(sum(vals)), 0.0
        if tag == "outside_ball":
            _, x0, r = region
            total, rem = self.row_sum_all(x)
            inside = sum(self.J(x, y) for y in self.ball(x0, r) if y != x)
            return total - inside, rem
        raise ValueError(f"unknown region {region!r}")

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

@dataclass
class FiniteModel:
    """Truncation of a LatticeModel to a finite vertex window.

    `kill` is the total per-vertex kill rate mu_x^{-1} J(x, G-W); in
    exterior-tracked mode it splits into explicit couplings to a tagged
    annulus plus a remainder kill.
    """

    model: LatticeModel
    window: list
    index: dict
    mu: np.ndarray
    rates: np.ndarray               # (n, n) symmetric J(x,y), zero diagonal
    kill: np.ndarray                # per-vertex kill rate (zeros if reflected)
    kill_bound: np.ndarray          # certified tail remainder in `kill`
    mode: str
    center: object = None
    radius: float = 0.0
    lam_ext: float = 4.0
    exterior: list | None = None
    coupling: np.ndarray | None = None       # (n, n_ext) J(x, w)/1 values
    remainder_kill: np.ndarray | None = None  # kill beyond the tracked annulus

    @property
    def n(self) -> int:
        return len(self.window)


def _pair_rates(model: LatticeModel, xs: Sequence, ys: Sequence) -> np.ndarray:
    """Matrix of J(x,y) for x in xs, y in ys (positional corrections applied)."""
    k = model.kernel
    if model.kind == "explicit" or isinstance(k, TabulatedKernel):
        out = np.zeros((len(xs), len(ys)))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i, j] = model.J(x, y)
        return out
    ax = np.asarray(xs, dtype=np.int64)
    ay = np.asarray(ys, dtype=np.int64)
    out = np.zeros((len(xs), len(ys)))
    chunk = max(1, int(4e6 // max(1, len(ys))))
    for lo in range(0, len(xs), chunk):
        hi = min(lo + chunk, len(xs))
        diff = np.abs(ax[lo:hi, None, :] - ay[None, :, :])
        dist = diff.max(axis=2) if model.metric == "linf" else diff.sum(axis=2)
        out[lo:hi] = model.radial_values(dist)
    if isinstance(k, SuppressedPairKernel):
        for i, x in enumerate(xs):
            if x == k.x0 or x == k.y0:
                other = k.y0 if x == k.x0 else k.x0
                for j, y in enumerate(ys):
                    if y == other:
                        out[i, j] = 0.0
    return out


def truncate(model: LatticeModel, x0, r_win: float, mode: str,
             lam_ext: float = 4.0) -> FiniteModel:
    """Restrict the model to the window B(x0, r_win) in the requested mode."""
    if mode not in (KILLED, REFLECTED, EXTERIOR_TRACKED):
        raise ValueError(f"unknown mode {mode!r}")
    window = model.ball(x0, r_win)
    n = len(window)
    if n > model.state_cap:
        raise WindowTooLarge(f"{n} states exceeds cap {model.state_cap}")
    index = {v: i for i, v in enumerate(window)}
    mu = np.array([model.mu(v) for v in window])
    rates = _pair_rates(model, window, window)
    np.fill_diagonal(rates, 0.0)

    kill = np.zeros(n)
    kill_bound = np.zeros(n)
    exterior = None
    coupling = None
    remainder_kill = None
    if mode in (KILLED, EXTERIOR_TRACKED):
        inside = rates.sum(axis=1)
        totals = np.empty(n)
        bounds = np.empty(n)
        for i, v in enumerate(window):
            totals[i], bounds[i] = model.row_sum_all(v)
        kill = np.maximum(totals - inside, 0.0) / mu
        kill_bound = bounds / mu
    if mode == EXTERIOR_TRACKED:
        big = model.ball(x0, lam_ext * r_win)
        wset = set(window)
        exterior = [v for v in big if v not in wset]
        coupling = _pair_rates(model, window, exterior)
        tracked = coupling.sum(axis=1) / mu
        remainder_kill = np.maximum(kill - tracked, 0.0)
    return FiniteModel(model=model, window=window, index=index, mu=mu,
                       rates=rates, kill=kill, kill_bound=kill_bound, mode=mode,
                       center=x0, radius=r_win, lam_ext=lam_ext,
                       exterior=exterior, coupling=coupling,
                       remainder_kill=remainder_kill)
