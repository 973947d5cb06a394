"""Benchmark of `bdl verify`: one workload, one seed, one JSON line of results.

    python3 benchmarks/run.py --workload verify-bundled --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It is a single-process, closed-loop
batch: each ``bdl.cli.main(["verify", ...])`` call starts only after the
previous one returned. The program is imported from ``src/`` of the
checkout; without it the benchmark exits with code 2 and prints no result.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run conditions. Everything the run writes goes to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# set-up probes on each side of the measured worker, to sample two moments
SETUP_PROBES = 5
DEADLINE_S = 170.0


def worker(args, workdir: Path, deadline: float, *extra: str) -> dict:
    """Run one fresh worker process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workdir", str(workdir), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bdl" / "__init__.py").is_file():
        print(f"no bdl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def probe() -> float:
        return worker(args, workdir, deadline, "--setup-only")["setup_s"]

    probe()  # compiles bytecode; not timed
    probes = [probe() for _ in range(SETUP_PROBES)]
    result = worker(args, workdir, deadline)
    probes += [probe() for _ in range(SETUP_PROBES)]

    measured = {
        "wall_ref": statistics.median(result["relatives"]),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": result["peak_rss_mb"],
        "checks.min_headroom_dex": result["min_headroom_dex"],
        **result.get("layers", {}),
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = result["failed"] == 0 and not result["problems"]
    meta = {key: result[key] for key in ("meta", "reference_before", "reference_after",
                                         "walls", "relatives", "min_headroom_dex", "problems")}
    meta.update(setup_probes=probes, traced_walls=result.get("traced_walls"))
    (workdir / "result.json").write_text(json.dumps({**result, "setup_probes": probes},
                                                    indent=1))
    print(json.dumps({"run_conditions": meta}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
