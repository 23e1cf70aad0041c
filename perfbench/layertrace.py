"""Spans around the public entry points of each jumplab module.

`install()` replaces each entry point listed in ENTRY_POINTS with a timing
wrapper, in every jumplab module that bound the name (`harnack.step_operators`
and `conditions.expm_action` as well as `semigroup.step_operators`), so the
program is traced from outside without editing it.  Spans are kept in memory
and turned into per-layer metrics once the run has finished.

A span's self time is its duration minus the durations of the spans opened
directly inside it.  A wrapped function that re-enters itself (the split
steps of `expm_action`) is recorded once, at its outermost call.

Figures named `states`, `dense_mb`, `columns`, `lam_t`, `n_max`,
`trajectories` and `report_bytes` are computed from array sizes and public
arguments or results, not measured: `dense_mb` is 8*n*(n + n_ext) bytes for
each window, and `lam_t` is the sum over outermost `expm_action` calls of
(uniformization rate) * t * (columns of V), the expected number of
single-column matvecs before truncation.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

import jumplab
from jumplab import cli, conditions, harnack, io, models, montecarlo, semigroup

MODULES = (jumplab, models, semigroup, conditions, harnack, montecarlo, io, cli)


def _args(fn, a, kw) -> dict:
    bound = inspect.signature(fn).bind(*a, **kw)
    bound.apply_defaults()
    return bound.arguments


def _truncate(fn, a, kw, fm):
    n_ext = len(fm.exterior) if fm.exterior is not None else 0
    return {"states": fm.n, "dense_bytes": 8 * fm.n * (fm.n + n_ext)}


def _expm_action(fn, a, kw, out):
    args = _args(fn, a, kw)
    V = args["V"]
    cols = V.shape[1] if getattr(V, "ndim", 1) == 2 else 1
    return {"columns": cols, "lam_t": args["gen"].lam * args["t"] * cols}


def _exit_time(fn, a, kw, out):
    return {"n": _args(fn, a, kw)["fm"].n}


def _hit(fn, a, kw, rep):
    return {"trajectories": _args(fn, a, kw)["n"], "truncated": rep.truncated}


def _estimate(fn, a, kw, rep):
    return {"truncated": rep.truncated}


def _bundle(fn, a, kw, out):
    out_dir = _args(fn, a, kw)["out_dir"]
    return {"report_bytes": os.path.getsize(os.path.join(out_dir,
                                                         "report.json"))}


# (module, attribute path) -> counter computed from the call and its result
ENTRY_POINTS = {
    (models, "truncate"): _truncate,
    (models, "LatticeModel.row_sum_all"): None,
    (semigroup, "generator"): None,
    (semigroup, "expm_action"): _expm_action,
    (semigroup, "integrated_action"): None,
    (semigroup, "step_operators"): None,
    (semigroup, "expected_exit_time"): _exit_time,
    (harnack, "phi_constant"): None,
    (harnack, "ehi_constant"): None,
    (montecarlo, "TrajectorySampler.__init__"): None,
    (montecarlo, "hit_before_exit"): _hit,
    (montecarlo, "sample_exit_time"): _estimate,
    (montecarlo, "sample_position_sup"): _estimate,
    (conditions, "check_hkp"): None,
    (conditions, "check_poincare"): None,
    (conditions, "check_exit_time"): None,
    (conditions, "check_jump_bounds"): None,
    (conditions, "check_ujs_ljs_js"): None,
    (io, "write_bundle"): _bundle,
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, counts]
        self.bindings = {}   # span name -> modules whose binding was replaced
        self._stack = []
        self._active = set()

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*a, **kw):
            if name in self._active:
                return fn(*a, **kw)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._active.add(name)
            span[1] = time.perf_counter()
            try:
                out = fn(*a, **kw)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self._active.discard(name)
            if counter is not None:
                span[4] = counter(fn, a, kw, out)
            return out
        return traced

    def metrics(self) -> dict:
        """Per-layer metrics; a layer absent from the run reads 0."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                child[s[3]] += dur[i]
        calls, incl, self_s, sums, n_max = {}, {}, {}, {}, {}
        for i, (name, _, _, _, c) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur[i]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            for k, v in (c or {}).items():
                sums[name, k] = sums.get((name, k), 0) + v
                n_max[name, k] = max(n_max.get((name, k), 0), v)

        def n_calls(name):
            return calls.get(name, 0)

        def secs(name):
            return incl.get(name, 0.0)

        def own(name):
            return self_s.get(name, 0.0)

        def total(name, key):
            return sums.get((name, key), 0)

        hit_s = secs("montecarlo.hit_before_exit")
        trajectories = total("montecarlo.hit_before_exit", "trajectories")
        rsa = "models.LatticeModel.row_sum_all"
        return {
            "models.row_sum_all.calls": n_calls(rsa),
            "models.row_sum_all.s": secs(rsa),
            "models.truncate.calls": n_calls("models.truncate"),
            "models.truncate.s": secs("models.truncate"),
            "models.truncate.states": total("models.truncate", "states"),
            "models.truncate.dense_mb":
                total("models.truncate", "dense_bytes") / 1e6,
            "harnack.phi_constant.calls": n_calls("harnack.phi_constant"),
            "harnack.phi_constant.s": secs("harnack.phi_constant"),
            "harnack.phi_constant.self_s": own("harnack.phi_constant"),
            "harnack.ehi_constant.s": secs("harnack.ehi_constant"),
            "harnack.ehi_constant.self_s": own("harnack.ehi_constant"),
            "semigroup.expm_action.calls": n_calls("semigroup.expm_action"),
            "semigroup.expm_action.s": secs("semigroup.expm_action"),
            "semigroup.expm_action.columns":
                total("semigroup.expm_action", "columns"),
            "semigroup.expm_action.lam_t":
                total("semigroup.expm_action", "lam_t"),
            "semigroup.generator.s": secs("semigroup.generator"),
            "semigroup.integrated_action.s":
                secs("semigroup.integrated_action"),
            "semigroup.step_operators.s": secs("semigroup.step_operators"),
            "semigroup.expected_exit_time.calls":
                n_calls("semigroup.expected_exit_time"),
            "semigroup.expected_exit_time.s":
                secs("semigroup.expected_exit_time"),
            "semigroup.expected_exit_time.n_max":
                n_max.get(("semigroup.expected_exit_time", "n"), 0),
            "montecarlo.TrajectorySampler.init_s":
                secs("montecarlo.TrajectorySampler.__init__"),
            "montecarlo.hit_before_exit.s": hit_s,
            "montecarlo.hit_before_exit.trajectories": trajectories,
            "montecarlo.hit_before_exit.trajectories_per_s":
                trajectories / hit_s if hit_s else 0.0,
            "montecarlo.truncated": sum(
                v for (_, k), v in sums.items() if k == "truncated"),
            "montecarlo.sample_position_sup.s":
                secs("montecarlo.sample_position_sup"),
            "conditions.check_hkp.s": secs("conditions.check_hkp"),
            "conditions.check_poincare.s": secs("conditions.check_poincare"),
            "conditions.check_exit_time.s": secs("conditions.check_exit_time"),
            "conditions.check_jump_bounds.s":
                secs("conditions.check_jump_bounds"),
            "conditions.check_ujs_ljs_js.s": secs("conditions.check_ujs_ljs_js"),
            "conditions.self_s": sum(
                v for n, v in self_s.items() if n.startswith("conditions.")),
            "io.write_bundle.s": secs("io.write_bundle"),
            "io.report_bytes": total("io.write_bundle", "report_bytes"),
        }


def install() -> Tracer:
    """Wrap every entry point at each module that bound it."""
    tracer = Tracer()
    for (module, path), counter in ENTRY_POINTS.items():
        layer = module.__name__.rsplit(".", 1)[-1]
        name = f"{layer}.{path}"
        owner, _, attr = path.rpartition(".")
        if owner:  # a method: patch the class once
            cls = getattr(module, owner)
            fn = getattr(cls, attr)
            setattr(cls, attr, tracer.wrap(name, fn, counter))
            tracer.bindings[name] = [f"{module.__name__}.{owner}"]
            continue
        fn = getattr(module, attr)
        wrapped = tracer.wrap(name, fn, counter)
        tracer.bindings[name] = []
        for mod in MODULES:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapped)
                    tracer.bindings[name].append(f"{mod.__name__}.{key}")
    return tracer
