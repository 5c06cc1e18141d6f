"""Command-line front end for the analysis pipeline.

One subcommand per stage plus ``all``.  Stages talk to each other only
through files under ``--out``, so any stage can be rerun on its own once
its inputs exist.  Exit codes: 0 on success, 1 for usage or config
problems, 2 when input data is missing or malformed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__, pipeline
from .series import json_text, write_text

F_TIMINGS = "timings.json"

_STAGE_HELP = {
    "synth": "generate a synthetic station world from config.synth",
    "ingest": "parse station records and pair regions",
    "qc": "apply record-completeness filters",
    "impute": "fill monthly gaps and interpolate daily gaps",
    "indices": "compute annual temperature and heat-wave series",
    "trends": "station and regional Mann-Kendall trends",
    "compare": "median and trend-proportion comparisons per pair",
    "correlate": "rank-correlation matrices against covariates",
    "report": "collect figure tables and the manifest",
    "all": "run every analysis stage in order",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we promised 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise pipeline.ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="megaheat", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"megaheat {__version__}")
    sub = parser.add_subparsers(dest="stage", metavar="STAGE", required=True)
    for name in ("synth",) + pipeline.STAGE_ORDER + ("all",):
        p = sub.add_parser(name, help=_STAGE_HELP[name])
        p.add_argument("--config", metavar="FILE", help="JSON config file (defaults apply)")
        p.add_argument("--seed", type=int, metavar="N", help="override config.seed")
        p.add_argument(
            "--threads", type=int, default=1, metavar="N", help="accepted and unused: stages run serially (default 1)"
        )
        p.add_argument("--out", required=True, metavar="DIR", help="run directory for all artifacts")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise pipeline.ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = pipeline.load_config(args.config if args.config is not None else {})
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        out = Path(args.out)
        names = pipeline.STAGE_ORDER if args.stage == "all" else (args.stage,)
        timings = pipeline.run_stages(out, cfg, names)
        # timing lives beside the report bundle, not inside it, so reruns
        # of the same config stay byte-identical under report/
        write_text(out / F_TIMINGS, json_text(timings, sort_keys=False))
        for name in names:
            print(f"{name}: {timings[name]:.3f}s")
        return 0
    except pipeline.ConfigError as exc:
        print(f"megaheat: error: {exc}", file=sys.stderr)
        return 1
    except pipeline.DataError as exc:
        print(f"megaheat: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the stages turn a failed read into a DataError, so this is a write
        print(f"megaheat: error: cannot write output file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
