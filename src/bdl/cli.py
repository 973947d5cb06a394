"""Command-line front end.

Subcommands:

* ``verify --config path [--only a,b] [--seed n] [--out path] [--format json|csv]``
* ``list-checks``
* ``explain <name>``

Exit codes: 0 success, 1 at least one check failed (report still written),
2 invalid configuration or unknown name, 3 internal error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .checks import (bounds_summary, check_names, explain, registry, run_suite,
                     tolerance_key)
from .config import ConfigError, load_config, validate_seed, validate_sizes, validate_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bdl",
                                     description="Verification suite for determinant "
                                                 "representations of spin-chain inner products")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the configured checks")
    verify.add_argument("--config", required=True, help="path to the JSON configuration")
    verify.add_argument("--only", default=None,
                        help="comma-separated checks to run instead of the suite; any that apply")
    verify.add_argument("--seed", type=int, default=None, help="override the config seed")
    verify.add_argument("--out", default=None, help="override the report output path")
    verify.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None,
                        help="override the report format")

    sub.add_parser("list-checks", help="list available checks")

    exp = sub.add_parser("explain", help="describe one check")
    exp.add_argument("name")
    return parser


def _report_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check", "measure", "value", "tolerance", "passed"])
    for rec in report["checks"]:
        for key, val in rec["residuals"].items():
            bound_key = tolerance_key(key, rec["tolerances"])
            tol = rec["tolerances"][bound_key] if bound_key else ""
            writer.writerow([rec["name"], key, f"{val:.6e}", tol, rec["passed"]])
    return buf.getvalue()


def _emit(report: dict, path: str | None, fmt: str) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) if fmt == "json" else _report_csv(report)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-checks":
        for name in check_names():
            models = ", ".join(registry()[name].model_types)
            print(f"{name:20s} [{models}]")
            print(f"    {explain(name)}")
            print(f"    bounds: {bounds_summary(name)}")
        return EXIT_OK

    if args.command == "explain":
        try:
            print(explain(args.name))
        except KeyError:
            print(f"unknown check {args.name!r}; available: {', '.join(check_names())}",
                  file=sys.stderr)
            return EXIT_BAD_CONFIG
        return EXIT_OK

    # verify
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = validate_seed(args.seed)
        if args.only is not None:
            wanted = [s.strip() for s in args.only.split(",") if s.strip()]
            config.suite = validate_suite(config.model, wanted)
            validate_sizes(config.model, config.sizes, config.suite)
        if args.out is not None:
            config.output_path = args.out
        if args.fmt is not None:
            config.output_format = args.fmt
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        report = run_suite(config)
        _emit(report, config.output_path, config.output_format)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if report["suite_passed"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
