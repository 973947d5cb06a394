"""One fresh process of the benchmark: set up, then verify passes in a loop.

Run by ``run.py``; prints one JSON object on its last stdout line.

    python3 benchmarks/worker.py --root . --workdir .bench_out/x \
        --workload oracle-dense --seed 1 --seconds 10 --trace 0 [--setup-only]

Set-up is the import of ``bdl`` from ``<root>/src``, config generation and
``load_config`` of every config. With ``--setup-only`` the process reports
its set-up time and exits. Otherwise it runs untraced passes, or with
``--trace 1`` pairs of an untraced and a traced pass, as ``more_passes``
allows. Each call goes through ``bdl.cli.main`` and its report is read back
and judged.
"""
from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import score  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# A median over fewer than three passes is a mean, and one slow pass moves it.
MIN_PASSES = 3
# No pass starts that would likely end after this many times ``--seconds``.
MAX_SECONDS_FACTOR = 3


def import_bdl(root: Path):
    """``bdl`` (with its CLI) from the checkout's ``src``, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import bdl.cli
    if not Path(bdl.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bdl imported from {bdl.__file__}, not from {src}")
    return bdl


def expected_checks(path: Path, bdl) -> int:
    """Checks a config asks for, counted without trusting the program to run."""
    raw = json.loads(path.read_text())
    suite = raw.get("suite", "all")
    if isinstance(suite, list):
        return max(1, len(suite))
    model_type = (raw.get("model") or {}).get("type")
    return max(1, len(bdl.checks.applicable_checks(model_type)))


def run_pass(bdl, workload, workdir: Path) -> dict:
    """Every call of one pass, timed around ``bdl.cli.main`` only.

    The reference work is timed before the first call and after each one.
    ``relative`` is the sum over calls of the call's time divided by the mean
    of the two reference times around it: the pass time in units of the
    reference, which a change in the machine's speed moves much less.
    """
    wall = relative = 0.0
    reports, attempted, failed = [], 0, 0
    ref_before = reference.seconds(workload.reference)
    calls, refs = [], [ref_before]
    for i, (path, seed) in enumerate(workload.calls):
        out = workdir / f"report-{i}.json"
        out.unlink(missing_ok=True)
        argv = ["verify", "--config", str(path), "--seed", str(seed), "--out", str(out)]
        t0 = time.perf_counter()
        code = bdl.cli.main(argv)
        call_s = time.perf_counter() - t0
        ref_after = reference.seconds(workload.reference)
        calls.append(call_s)
        refs.append(ref_after)
        wall += call_s
        relative += call_s / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        if code in (0, 1):
            report = json.loads(out.read_text())
            attempted += report["summary"]["total"]
            failed += sum(1 for rec in report["checks"] if not rec["passed"])
        else:
            # invalid config or internal error: every configured check failed
            report = {"exit": code}
            n = expected_checks(path, bdl)
            attempted += n
            failed += n
        reports.append(report)
    return {"wall_s": wall, "relative": relative, "calls": calls, "refs": refs,
            "reports": reports, "attempted": attempted, "failed": failed}


def judge(reports: list[dict]) -> tuple[float, list[str]]:
    """Minimum precision headroom over the reports, and inconsistencies found."""
    dex, problems = [], []
    for report in reports:
        if "checks" not in report:
            continue
        dex += [d for _, _, d in score.headrooms(report)]
        problems += score.inconsistencies(report)
    return (min(dex) if dex else score.FLOOR_DEX), problems


def check_times(reports: list[dict], bdl) -> dict[str, float]:
    out = {f"checks.{name}.s": 0.0 for name in bdl.checks.check_names()}
    for report in reports:
        for rec in report.get("checks", []):
            out[f"checks.{rec['name']}.s"] += rec["wall_time_s"]
    return out


def more_passes(done: int, elapsed: float, seconds: float) -> bool:
    """Whether to start another pass (or traced pair) after ``done`` of them.

    Passes run for ``seconds`` and at least MIN_PASSES of them, but none
    starts that would likely end after MAX_SECONDS_FACTOR times ``seconds``:
    on a slow machine a run stays within its time budget.
    """
    if done and elapsed * (done + 1) / done > MAX_SECONDS_FACTOR * seconds:
        return False
    return done < MIN_PASSES or elapsed < seconds


def all_reference_timings() -> dict[str, float]:
    """Every part of both kinds of reference work, as run-condition metadata."""
    return {f"{kind}.{name}": value for kind in reference.KINDS
            for name, value in reference.timings(kind).items()}


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def metadata(bdl, workload, seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bdl": bdl.__version__,
        "nproc": os.cpu_count(),
        "openblas_threads": blas_threads(),
        "configs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                    for p in workload.configs},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    bdl = import_bdl(args.root)
    workload = workloads.build(args.workload, args.seed, args.root, args.workdir)
    for path in workload.configs:
        bdl.config.load_config(path)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "meta": metadata(bdl, workload, args.seed),
              "reference_before": all_reference_timings()}
    walls, relatives, traced_walls, problems, call_log = [], [], [], [], []
    attempted = failed = 0
    baseline = layers = None
    began = time.perf_counter()
    while more_passes(len(walls), time.perf_counter() - began, args.seconds):
        done = run_pass(bdl, workload, args.workdir)
        walls.append(done["wall_s"])
        relatives.append(done["relative"])
        call_log.append((done["calls"], done["refs"]))
        attempted += done["attempted"]
        failed += done["failed"]
        stripped = [score.strip_wall_times(r) for r in done["reports"]]
        if baseline is None:
            baseline = stripped
            result["min_headroom_dex"], found = judge(done["reports"])
            problems += found
        elif stripped != baseline:
            problems.append("reports differ between passes at the same seed")
        if args.trace:
            with Tracer() as tracer:
                again = run_pass(bdl, workload, args.workdir)
            traced_walls.append(again["wall_s"])
            attempted += again["attempted"]
            failed += again["failed"]
            if [score.strip_wall_times(r) for r in again["reports"]] != stripped:
                problems.append("traced reports differ from untraced ones")
            if layers is None:
                layers = {**tracer.metrics(), **check_times(again["reports"], bdl)}
                tracer.write(args.workdir / "spans.jsonl")

    result["reference_after"] = all_reference_timings()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(walls=walls, relatives=relatives, call_log=call_log, attempted=attempted,
                  failed=failed, problems=problems, peak_rss_mb=peak_rss_mb)
    if args.trace:
        layers["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_walls, walls))
        result.update(traced_walls=traced_walls, layers=layers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
