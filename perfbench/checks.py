"""Correctness checks on the report bundles the benchmark's runs write.

Every check returns None when it passes and a one-line message when it
fails; the caller counts attempts and failures.  References live in
perfbench/reference/<workload>.json (see record_reference.py).
"""

from __future__ import annotations

import json
import math

# Numeric leaves of a deterministic report may move by this much when a change
# legitimately reorders floating-point work: |got - ref| <= ABS_TOL + REL_TOL*|ref|.
REL_TOL = 1e-6
ABS_TOL = 1e-12
# A reflected window conserves mass.
MASS_TOL = 1e-10
# Monte Carlo hit estimates must lie within this many combined standard errors
# of the reference, which pools several seeds.
HIT_SE = 5.0
# Seed-dependent parts of the cex-ladder report: hits are checked statistically,
# the running-sup estimates and every assertion value by --assert-thresholds.
STOCHASTIC = {"cex-ladder": ("hit_before_exit", "position_sup", "assertions")}


def exit_code(rc) -> str | None:
    return None if rc == 0 else f"lab exited with {rc}"


def _mismatch(ref, got, path):
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return f"{path}: keys differ"
        for k in sorted(ref):
            bad = _mismatch(ref[k], got[k], f"{path}/{k}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{path}: list length differs"
        for i, (r, g) in enumerate(zip(ref, got)):
            bad = _mismatch(r, g, f"{path}/{i}")
            if bad:
                return bad
        return None
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if abs(got - ref) <= ABS_TOL + REL_TOL * abs(ref):
            return None
        return f"{path}: {got!r} vs reference {ref!r}"
    if type(ref) is not type(got) or ref != got:
        return f"{path}: {got!r} vs reference {ref!r}"
    return None


def matches_reference(workload: str, report: dict, reference: dict):
    skip = STOCHASTIC.get(workload, ())
    return _mismatch({k: v for k, v in reference.items() if k not in skip},
                     {k: v for k, v in report.items() if k not in skip},
                     workload)


def heat_mass(report: dict):
    mass = report["mass"]
    return None if abs(mass - 1.0) <= MASS_TOL else f"mass {mass!r} != 1"


def ladder_hits(report: dict, reference: dict):
    for r, ref in reference["hit_before_exit"].items():
        got = report["hit_before_exit"][r]
        se = math.hypot(got["se"], ref["se"])
        if abs(got["estimate"] - ref["estimate"]) > HIT_SE * se:
            return (f"hit_before_exit R={r}: {got['estimate']!r} vs "
                    f"reference {ref['estimate']!r} (> {HIT_SE} se)")
    return None


def report_checks(workload: str, report_bytes: bytes, reference: dict) -> list:
    """Checks on one run's report.json; a list of (name, failure or None)."""
    report = json.loads(report_bytes)
    out = [("reference", matches_reference(workload, report, reference))]
    if workload == "heat-reflected":
        out.append(("mass", heat_mass(report)))
    if workload == "cex-ladder":
        out.append(("hits", ladder_hits(report, reference)))
    return out


def identical(a: bytes, b: bytes, what: str):
    return None if a == b else f"report.json differs between {what}"
