"""Command line front end.

Subcommands:
  gen   generate a gap-model instance and write it to a file
  run   execute a benchmark config grid and emit CSV/JSON reports
  conv  convolve the A vector of one instance file with the B vector of
        another (often the same file) using a chosen engine

Exit codes: 0 success, 1 usage or config error, 2 engine failure,
3 instance generation infeasible.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ENGINE_ALIASES,
    ENGINE_NAMES,
    GenerationInfeasibleError,
    InstanceSpec,
    load_instance,
    run_benchmark,
    run_engine,
    write_instance,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ENGINE = 2
EXIT_INFEASIBLE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparseconv")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--sa", type=int, required=True)
    gen.add_argument("--sb", type=int, required=True)
    gen.add_argument("--vmax", type=int, default=10)
    gen.add_argument("--c2", type=float, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run a benchmark config")
    run.add_argument("--config", required=True)
    run.add_argument("--out-dir", required=True)
    run.add_argument("--jobs", type=int, default=1)

    conv = sub.add_parser("conv", help="convolve two instance files")
    conv.add_argument("--engine", choices=ENGINE_NAMES + tuple(ENGINE_ALIASES), required=True)
    conv.add_argument("--a", required=True, help="instance file supplying the A vector")
    conv.add_argument("--b", required=True, help="instance file supplying the B vector")
    conv.add_argument("--k", type=int, default=None)
    conv.add_argument("--delta", type=float, default=0.1)
    conv.add_argument("--c1", type=float, default=0.5)
    conv.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_gen(args) -> int:
    spec = InstanceSpec(
        n=args.n, s_a=args.sa, s_b=args.sb,
        value_range=(1, args.vmax), c2=args.c2, seed=args.seed,
    )
    inst = write_instance(args.out, spec)
    print(
        f"wrote {args.out}: n={args.n} k_effective={inst.k_effective} "
        f"c1_effective={inst.c1_effective}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    summary = run_benchmark(args.config, args.out_dir, jobs=args.jobs)
    print(
        f"wrote {args.out_dir}/runs.csv and summary.json "
        f"({sum(c['runs'] for c in summary['cells'])} rows)",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_conv(args) -> int:
    inst_a = load_instance(args.a)
    inst_b = load_instance(args.b)
    k = args.k
    if k is None:
        if args.engine in ("approx", "exact"):
            raise ValueError(f"--k is required for engine {args.engine!r}")
        k = 1
    run = run_engine(args.engine, inst_a.a, inst_b.b, k=k, delta=args.delta, c1=args.c1, seed=args.seed)
    # Sparse view on stdout (index value per line); timings to stderr so
    # stdout stays deterministic for a fixed seed.
    items = run.result.sorted_items()
    for idx, val in items:
        print(f"{idx} {val!r}")
    print(
        f"engine={args.engine} n={inst_a.n} entries={len(items)} "
        f"wall_ms={run.wall_ms:.3f} fft_work={run.fft_work_units}",
        file=sys.stderr,
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_conv(args)
    except GenerationInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # engine blew up mid-run
        print(f"engine failure: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    raise SystemExit(main())
