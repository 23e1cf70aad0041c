"""jumplab benchmark: time `lab` experiments end to end, or trace their layers.

    python3 perfbench/run.py --workload cex-suppressed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one table

Run it from anywhere inside a source checkout; it drives `src/jumplab`
directly (PYTHONPATH=src), as the tier-1 test command does.  The load is a
closed loop with one client: each run is a fresh `lab` process started only
after the previous one has exited, so one process runs at a time.  Runs
repeat until --seconds have passed and at least MIN_RUNS have finished;
every figure is the median over the runs.  A workload that takes a seed
(cex-ladder) first runs once, untimed, at the benchmark's --seed; its timed
runs all use TIMED_SEED.

With --trace 0 the last line of standard output reports the end-to-end
metrics (wall_s, setup_s, peak_rss_mb).  With --trace 1 the same untraced
runs are followed by one traced run (layertrace.py) and the last line
reports the per-layer metrics instead.  Every run's report.json is checked
(checks.py); `attempted` and `failed` in the last line count those checks,
so failed/attempted is the checks-failed fraction.

Exits 2 without a result line when the source tree is missing or a run
cannot be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Why each workload is here: see perfbench/README.md.  Only cex-ladder
# consumes the seed.
WORKLOADS = {
    "cex-suppressed": ["cex", "suppressed", "--radii", "8,16",
                       "--assert-thresholds"],
    "cex-ladder": ["cex", "ladder", "--ranges", "16,64,256",
                   "--assert-thresholds", "--seed", "{seed}"],
    "phi-z2": ["phi", "--d", "2", "--R", "2"],
    "heat-reflected": ["heat", "--r-win", "2048", "--t", "256",
                       "--mode", "reflected"],
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# a median of one run would carry that run's noise whole
MIN_RUNS = 2
# set-up is sampled in every run and, when runs are few, by import-only runs
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 160
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
# The lab seed of every timed run of a seeded workload: lab's default, so the
# timed runs all do the same work.  A Monte Carlo run's time depends on its
# seed (the slowest walker sets the number of vectorized steps; single
# cex-ladder runs at seeds 1-8 took 4.6-5.5 s), and a median over seeds that
# change with --seed would carry that spread into every comparison.  The
# benchmark's own seed drives one more run, untimed and checked.
TIMED_SEED = 0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # the Monte Carlo stream count changes the estimates
    env.pop("JUMPLAB_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": model}


def run_child(flags: list, lab_argv: list, out_dir: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *flags, "--", *lab_argv]
    if out_dir is not None:
        cmd += ["--out", str(out_dir)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                           capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{' '.join(lab_argv)}: no result after "
                         f"{CHILD_TIMEOUT_S} s") from e
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(lab_argv)}: measuring process failed "
                         f"({p.returncode}): {p.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if Path(result["jumplab"]).resolve() != SRC / "jumplab":
        raise BenchError(f"imported jumplab from {result['jumplab']}, "
                         f"not from {SRC}")
    return result


def quartiles(values: list) -> list:
    """q1, median, q3 of at least two samples."""
    return statistics.quantiles(values, n=4, method="inclusive")


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name: str, failure):
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{name}: {failure}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    with open(HERE / "reference" / f"{name}.json") as f:
        reference = json.load(f)
    ok = Checks()
    first_report = {}   # lab arguments -> report.json of the first such run

    def measured_run(label, flags: list, lab_seed: int) -> dict:
        lab_argv = [a.format(seed=lab_seed) for a in WORKLOADS[name]]
        out_dir = work / f"{name}-{label}"
        res = run_child(flags, lab_argv, out_dir)
        tag = f"run {label}{' traced' if flags else ''}"
        ok.record(f"{tag} exit", checks.exit_code(res["rc"]))
        if res["rc"] == 0:
            report = (out_dir / "report.json").read_bytes()
            for check, failure in checks.report_checks(
                    name, report, reference):
                ok.record(f"{tag} {check}", failure)
            first = first_report.setdefault(tuple(lab_argv), report)
            if first is not report:
                ok.record(f"{tag} same arguments",
                          checks.identical(first, report,
                                           "two runs with the same arguments"))
        shutil.rmtree(out_dir, ignore_errors=True)
        return res

    setup = []
    if any("{seed}" in a for a in WORKLOADS[name]):
        # untimed run at the benchmark's seed; it also warms up the timed ones
        setup.append(measured_run("seed", [], seed)["setup_s"])
    runs = []
    t0 = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - t0 < seconds:
        runs.append(measured_run(len(runs), [], TIMED_SEED))
    setup += [r["setup_s"] for r in runs]
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_child(["--import-only"], [], None)["setup_s"])

    samples = {"wall_s": [r["wall_s"] for r in runs], "setup_s": setup,
               "peak_rss_mb": [r["peak_rss_mb"] for r in runs]}
    result = {"runs": len(runs), "env": {**machine(), **runs[0]["env"]},
              "samples": samples,
              "metrics": {m: {"value": statistics.median(v),
                              "unit": END_TO_END[m]}
                          for m, v in samples.items()}}
    if trace:
        # same arguments as the timed runs, so the report must be byte-identical
        res = measured_run(len(runs), ["--trace"], TIMED_SEED)
        layers = dict(res["layers"])
        layers["cli.main.cpu_s"] = res["cpu_s"]
        layers["trace.overhead_s"] = (res["wall_s"]
                                      - result["metrics"]["wall_s"]["value"])
        result["bindings"] = res["bindings"]
        spans = ROOT / ".perfbench" / f"spans-{name}.json"
        spans.write_text(json.dumps(res["spans"]) + "\n")
        result["spans"] = str(spans.relative_to(ROOT))
        result["metrics"] = {m: {"value": v, "unit": layer_unit(m)}
                             for m, v in layers.items()}
    result["attempted"] = ok.attempted
    result["failures"] = ok.failures
    return result


def layer_unit(metric: str) -> str:
    tail = metric.rsplit(".", 1)[-1]
    named = {"dense_mb": "MB", "trajectories_per_s": "1/s",
             "report_bytes": "bytes"}
    if tail in named:
        return named[tail]
    return "s" if tail == "s" or tail.endswith("_s") else "count"


def print_result(name: str, res: dict):
    print(f"== {name}: {res['runs']} runs, env {json.dumps(res['env'])}")
    for m, values in res["samples"].items():
        q1, q2, q3 = quartiles(values)
        print(f"   {m:<12} median {q2:.4f} {END_TO_END[m]}  "
              f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
    frac = len(res["failures"]) / res["attempted"]
    print(f"   checks_failed_frac {frac:.4f} of {res['attempted']} checks")
    for failure in res["failures"]:
        print(f"   FAILED {failure}")
    if "bindings" in res:
        print(f"   spans [name, start, end, parent, counts] in {res['spans']}")
        for entry, where in res["bindings"].items():
            print(f"   wrapped {entry} at {', '.join(where)}")
        for m, v in res["metrics"].items():
            print(f"   {m:<48} {v['value']:.6g} {v['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all, as a table)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "jumplab" / "cli.py").is_file():
        print(f"error: no jumplab source tree at {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    # turn SIGTERM into an exception, so the running child is killed and
    # waited for and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
    try:
        results = {n: run_workload(n, args.seed, args.seconds,
                                   bool(args.trace), work) for n in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for n, res in results.items():
        print_result(n, res)
    lines = {n: {"correct": not res["failures"],
                 "attempted": res["attempted"],
                 "failed": len(res["failures"]),
                 "metrics": res["metrics"]} for n, res in results.items()}
    print(json.dumps(lines[args.workload] if args.workload else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
