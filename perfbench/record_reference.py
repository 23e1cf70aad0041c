"""Record the reference reports that checks.py compares every run against.

    python3 perfbench/record_reference.py

Runs each workload once, untraced, and stores its report.json as
perfbench/reference/<workload>.json.  For cex-ladder the hit estimates are
pooled over seeds 0..LADDER_SEEDS-1 (mean estimate, standard error of that
mean), so the statistical check compares a run against more than one seed.
Re-record only when a change is meant to alter the reports, and say so.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import run

LADDER_SEEDS = 8


def report(name: str, seed: int, work: Path) -> dict:
    out_dir = work / f"{name}-{seed}"
    argv = [a.format(seed=seed) for a in run.WORKLOADS[name]]
    res = run.run_child([], argv, out_dir)
    if res["rc"] != 0:
        raise run.BenchError(f"{name}: lab exited with {res['rc']}")
    return json.loads((out_dir / "report.json").read_text())


def main() -> int:
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.ROOT / ".perfbench"))
    try:
        for name in run.WORKLOADS:
            ref = report(name, 0, work)
            if name == "cex-ladder":
                runs = [ref] + [report(name, s, work)
                                for s in range(1, LADDER_SEEDS)]
                for r, hit in ref["hit_before_exit"].items():
                    hits = [x["hit_before_exit"][r] for x in runs]
                    hit["estimate"] = sum(h["estimate"] for h in hits) / len(hits)
                    hit["se"] = math.sqrt(sum(h["se"] ** 2 for h in hits)) / len(hits)
                    hit["n"] = sum(h["n"] for h in hits)
                    hit["seeds"] = len(hits)
            path = run.HERE / "reference" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(ref, sort_keys=True, indent=2) + "\n")
            print(f"wrote {path.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
