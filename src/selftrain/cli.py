"""Command-line entry point for the benchmark harness.

Exit codes: 0 on success, 2 on a config error, 3 when some runs failed but
the report was still written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (EXIT_CONFIG, ConfigError, cluster_timing, preset_config, read_config,
                    run, sweep_labeled_budget, validate_config)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", nargs="?", help="path to a config JSON file")
    parser.add_argument("--preset", help="use a bundled config instead of a file "
                                         "(blobs-small, blobs-noisy, blobs-timing, mnist-100)")
    parser.add_argument("--seed-override", help="comma-separated seeds replacing the config's")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for independent runs")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--mnist-dir", help="directory holding MNIST IDX files "
                                            "(used by the mnist-100 preset)")


def _resolve_config(args):
    """The config document with the command-line overrides written in, validated once."""
    if args.preset:
        doc = preset_config(args.preset, mnist_dir=getattr(args, "mnist_dir", None))
    elif args.config:
        doc = read_config(args.config)
    else:
        raise ConfigError("$", "give a config file or --preset")
    if args.seed_override:
        try:
            doc["seeds"] = [int(s) for s in args.seed_override.split(",") if s.strip()]
        except ValueError:
            raise ConfigError("$.seeds", f"bad --seed-override {args.seed_override!r}") from None
    if args.out:
        doc["output_dir"] = args.out
    return validate_config(doc)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="selftrain",
                                     description="ST vs IST benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run ST plus IST per clustering method")
    _add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="repeat the comparison over labeled budgets")
    sweep_p.add_argument("--budgets", required=True,
                         help="comma-separated labels-per-class values")
    _add_common(sweep_p)

    ct_p = sub.add_parser("cluster-time", help="time each clustering method")
    _add_common(ct_p)

    val_p = sub.add_parser("validate", help="check a config and exit")
    _add_common(val_p)

    args = parser.parse_args(argv)
    if args.workers < 1:
        print(f"config error: --workers: must be >= 1, got {args.workers}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print("config OK")
        return 0
    if args.command == "run":
        code, doc = run(config, workers=args.workers)
        ok = sum(1 for c in doc["cells"] if c["status"] == "ok")
        print(f"{ok}/{len(doc['cells'])} runs succeeded; report in {config.output_dir}")
        return code
    if args.command == "sweep":
        try:
            budgets = [int(b) for b in args.budgets.split(",") if b.strip()]
        except ValueError:
            print(f"config error: bad --budgets {args.budgets!r}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            code, _ = sweep_labeled_budget(config, budgets, workers=args.workers)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"sweep over budgets {budgets} written to {config.output_dir}")
        return code
    # cluster-time
    code, table = cluster_timing(config)
    print(json.dumps({m: row["median_seconds"] for m, row in table.items()}, indent=2))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
