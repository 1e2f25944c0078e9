"""Command-line front end: ``calibrate --config <path> [...]``."""
from __future__ import annotations

import argparse
import os
import sys

from .pipeline import RunConfig, run_pipeline


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a bad command line is an input error: exit 1, one line, nothing written
        self.exit(1, f"input error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="calibrate",
        description="Calibrate a local-stochastic-volatility leverage surface "
                    "to vanilla quotes by solving the joint forward equation.")
    p.add_argument("--config", required=True, help="path to the run configuration")
    p.add_argument("--output-dir", default=None,
                   help="override paths.output_dir from the config "
                        "(relative to the working directory)")
    p.add_argument("--mode", default=None, metavar="MODE",
                   help="override fp.mode from the config")
    p.add_argument("--verify", action="store_true", default=None,
                   help="force the marginal/repricing verification on")
    p.add_argument("--snapshot-every", default=None, metavar="N",
                   help="write a density snapshot every N steps")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_file(args.config)
    except (OSError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    # the flags replace their config keys; a relative output directory is
    # taken from the working directory, not from the config's, and an empty
    # one stays empty for stage 1 to reject
    out_dir = args.output_dir and os.path.abspath(args.output_dir)
    flags = {"paths.output_dir": out_dir, "fp.mode": args.mode,
             "run.verify": args.verify, "run.snapshot_every": args.snapshot_every}
    for key, val in flags.items():
        if val is not None:
            config.values[key] = str(val)
    return run_pipeline(config)


if __name__ == "__main__":
    sys.exit(main())
