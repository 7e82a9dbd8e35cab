"""Command-line entry point: ``bench {generate,run,evaluate,report}``."""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, GenerationError
from .harness import RunConfig, cmd_evaluate, cmd_generate, cmd_report, cmd_run, read_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic benchmark")
    gen.add_argument("--config", default=None, help="generator config JSON (default: full preset)")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--force", action="store_true")
    gen.add_argument("--workers", type=int, default=None)

    run = sub.add_parser("run", help="run methods over a benchmark")
    run.add_argument("--bench", required=True)
    run.add_argument("--methods", required=True, help="comma-separated: screeb,screebtower,mapper,external:<dir>")
    run.add_argument("--out", required=True)
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--level", type=int, default=None, help="tower level to score (default: last)")
    run.add_argument("--config", default=None, help="per-method parameter overrides JSON")

    ev = sub.add_parser("evaluate", help="score run outputs against the benchmark")
    ev.add_argument("--bench", required=True)
    ev.add_argument("--run", required=True)
    ev.add_argument("--out", required=True)

    rep = sub.add_parser("report", help="print the summary table and write stratified CSV")
    rep.add_argument("--results", required=True)
    rep.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(
                args.config, args.n, args.seed, args.out, force=args.force, workers=args.workers
            )
        if args.command == "run":
            cfg = RunConfig(
                bench_dir=args.bench,
                methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
                out_dir=args.out,
                overrides=read_json(args.config) if args.config else {},
                level=args.level,
                workers=args.workers,
            )
            return cmd_run(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(args.bench, args.run, args.out)
        if args.command == "report":
            return cmd_report(args.results, args.out)
    except (ConfigError, GenerationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
