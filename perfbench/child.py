"""Run one `lab` command in this fresh interpreter and report what it cost.

    python3 perfbench/child.py [--import-only] [--trace] -- <lab arguments>

The parent (`perfbench/run.py`) starts this script with PYTHONPATH pointing
at the source tree.  It times `import jumplab.cli` (set-up), then
`jumplab.cli.main(argv)` (wall), and prints one JSON object as the last line
of standard output.  With --trace the public entry points of every module
are wrapped first (see layertrace.py) and the per-layer figures are added;
the wrapping happens after the set-up timer stops.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv: list[str]) -> int:
    split = argv.index("--")
    flags, lab_argv = set(argv[:split]), argv[split + 1:]
    t0 = time.perf_counter()
    import jumplab.cli as cli
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "jumplab": os.path.dirname(cli.__file__)}
    if "--import-only" not in flags:
        tracer = None
        if "--trace" in flags:
            import layertrace
            tracer = layertrace.install()
        cpu0 = _cpu_s()
        t1 = time.perf_counter()
        try:
            rc = cli.main(lab_argv)
        except SystemExit as e:  # argparse rejects bad arguments this way
            rc = e.code if isinstance(e.code, int) else 2
        out["wall_s"] = time.perf_counter() - t1
        out["cpu_s"] = _cpu_s() - cpu0
        out["rc"] = rc
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
        if tracer is not None:
            out["layers"] = tracer.metrics()
            out["bindings"] = tracer.bindings
            out["spans"] = tracer.spans
        out["env"] = _environment()
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
