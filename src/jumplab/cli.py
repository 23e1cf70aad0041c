"""`lab` command line interface.

Exit codes: 0 (ok), 1 (a configured threshold assertion failed), 2 (error).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

from .errors import LabError
from .io import (CHOICES, PARAMS, ExperimentConfig, jsonable, load_config,
                 run_experiment)


def _ints(s: str) -> list[int]:
    return [int(x) for x in s.split(",") if x]


# experiment -> its command words and help; its flags come from io.PARAMS
COMMANDS = {
    "heat": (("heat",), "heat kernel row dump"),
    "exit-time": (("exit-time",), "expected exit time sweep"),
    "poincare": (("poincare",), "Poincare constant sweep"),
    "phi": (("phi",), "parabolic Harnack constant of a box"),
    "ehi": (("ehi",), "elliptic Harnack constant"),
    "conditions-sweep": (("conditions",), "all-conditions sweep"),
    "cex-suppressed": (("cex", "suppressed"), "suppressed-pair experiment; "
                       "--radii are the pair gaps d(0, y0)"),
    "cex-ladder": (("cex", "ladder"), "ladder-kernel experiment"),
}


def build_parser(argv: list) -> argparse.ArgumentParser:
    """The `lab` parser for the command line `argv`: only the experiment it
    names gets its flags; the others are listed, with their help, but take
    no arguments."""
    ap = argparse.ArgumentParser(prog="lab",
                                 description="jump-process laboratory")
    sub = ap.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("config")
    run.add_argument("--out", dest="out_dir", default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--assert-thresholds", action="store_true")

    cex = None
    for exp, (words, text) in COMMANDS.items():
        if len(words) == 2 and cex is None:
            group = sub.add_parser(words[0], help="headline experiments")
            cex = group.add_subparsers(dest="which", required=True)
        p = (cex if len(words) == 2 else sub).add_parser(
            words[-1], help=text, description=text)
        p.set_defaults(experiment=exp)
        if tuple(argv[:len(words)]) != words:
            continue
        for key, default in PARAMS[exp].items():
            p.add_argument("--" + key.replace("_", "-"), default=default,
                           type=_ints if isinstance(default, list)
                           else type(default), choices=CHOICES.get(key))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", dest="out_dir", default=None,
                       help="bundle output directory")
        p.add_argument("--assert-thresholds", action="store_true",
                       help="exit 1 if any headline assertion fails")
    return ap


def _config_from_args(args) -> ExperimentConfig:
    if args.cmd == "run":
        cfg = load_config(args.config)
        over = {"out_dir": args.out_dir, "seed": args.seed,
                "assert_thresholds": args.assert_thresholds or None}
        # replace() runs __post_init__ again, so an override is checked as
        # the file's own field is
        return dataclasses.replace(
            cfg, **{k: v for k, v in over.items() if v is not None})
    return ExperimentConfig(
        experiment=args.experiment, seed=args.seed, out_dir=args.out_dir,
        params={key: getattr(args, key) for key in PARAMS[args.experiment]},
        assert_thresholds=args.assert_thresholds)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        cfg = _config_from_args(args)
        report, failures = run_experiment(cfg)
    except LabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    if not cfg.out_dir:
        json.dump(jsonable(report), sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    if failures:
        for a in failures:
            print(f"assertion failed: {a['name']}: value {a['value']} vs "
                  f"threshold {a['threshold']}", file=sys.stderr)
        if cfg.assert_thresholds:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
