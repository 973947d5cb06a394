"""Command-line front end.

Subcommands:

* ``verify --config path [--only a,b] [--seed n] [--out path] [--format json|csv]``
* ``list-checks``
* ``explain <name>``

Exit codes: 0 success, 1 at least one check failed (report still written),
2 invalid configuration, unknown name or unwritable report path, 3 internal
error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from .checks import (bounds_summary, check_names, explain, registry, run_suite,
                     tolerance_key)
from .config import ConfigError, parse_config, read_config

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_INTERNAL = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
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


def _print(text: str) -> None:
    """Print ``text`` to stdout; a reader that has closed its end is no error."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # send the rest to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _report_json(report: dict) -> str:
    """The report as strict JSON: a non-finite worst value is written as null.

    The record's note names those measures; any other non-finite float is an error.
    """
    checks = [{**rec, "residuals": {key: val if math.isfinite(val) else None
                                    for key, val in rec["residuals"].items()}}
              for rec in report["checks"]]
    return json.dumps({**report, "checks": checks}, indent=2, sort_keys=True, allow_nan=False)


def _emit(report: dict, out, fmt: str) -> None:
    """Write the report to the open file ``out``, or to stdout when it is None."""
    text = _report_json(report) if fmt == "json" else _report_csv(report)
    if out is None:
        _print(text)
    else:
        out.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-checks":
        lines = []
        for name in check_names():
            models = ", ".join(registry()[name].model_types)
            lines += [f"{name:20s} [{models}]", f"    {explain(name)}",
                      f"    bounds: {bounds_summary(name)}"]
        _print("\n".join(lines))
        return EXIT_OK

    if args.command == "explain":
        try:
            text = explain(args.name)
        except KeyError:
            print(f"unknown check {args.name!r}; available: {', '.join(check_names())}",
                  file=sys.stderr)
            return EXIT_BAD_CONFIG
        _print(text)
        return EXIT_OK

    # verify: --seed and --only replace the file's values before the one validation,
    # so the report's config block is the configuration that ran
    try:
        raw = read_config(args.config)
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.only is not None:
            raw["suite"] = [s.strip() for s in args.only.split(",") if s.strip()]
        config = parse_config(raw)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    # the report file is opened before the run, so an unwritable path fails before any check
    path = config.output_path if args.out is None else args.out
    try:
        out = open(path, "w") if path else None
    except OSError as exc:
        print(f"cannot write the report to {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        report = run_suite(config)
        _emit(report, out, args.fmt or config.output_format)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if out is not None:
            out.close()
    return EXIT_OK if report["suite_passed"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
