"""Tests of the benchmark itself: exact trace counts, a gate that can fail,
tracing that changes no result, and the residual-to-tolerance mapping.

    python3 -m pytest benchmarks/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bdl  # noqa: E402
import bdl.cli  # noqa: E402
import reference  # noqa: E402
import score  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import more_passes, run_pass  # noqa: E402

BUNDLED = sorted((ROOT / "configs").glob("*.json"))
BASELINE_SEED = 20250808


def one_call(path: Path, seed: int = BASELINE_SEED) -> workloads.Workload:
    return workloads.Workload("test", ((path, seed),))


def write_config(tmp_path: Path, config: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="module")
def bundled_traces(tmp_path_factory):
    """One traced pass over the bundled configs, a fresh tracer per config."""
    workdir = tmp_path_factory.mktemp("bundled")
    traces = {}
    for path in BUNDLED:
        with Tracer() as tracer:
            done = run_pass(bdl, one_call(path), workdir)
        assert done["failed"] == 0
        traces[path.stem] = tracer.metrics()
    return traces


def test_root_solving_baseline_counts_periodic_n2_N4(bundled_traces):
    counts = bundled_traces["periodic_n2_N4"]
    assert counts["oracle.solve_bethe_roots.calls"] == 12
    assert counts["oracle.solve_bethe_roots.distinct"] == 2


def test_root_solving_baseline_counts_verify_bundled(bundled_traces):
    total = {key: sum(t[key] for t in bundled_traces.values())
             for key in ("oracle.solve_bethe_roots.calls", "oracle.solve_bethe_roots.distinct",
                         "oracle.newton_starts")}
    assert total == {"oracle.solve_bethe_roots.calls": 24,
                     "oracle.solve_bethe_roots.distinct": 4,
                     "oracle.newton_starts": 4800}


def test_self_time_never_exceeds_total_time(bundled_traces):
    for counts in bundled_traces.values():
        for key, value in counts.items():
            if key.endswith(".self_s"):
                assert -1e-9 <= value <= counts[key[:-len("self_s")] + "s"] + 1e-9


def test_tracer_wraps_every_binding_and_restores_it():
    original = bdl.oracle.solve_bethe_roots
    assert bdl.checks.solve_bethe_roots is original
    with Tracer():
        assert bdl.oracle.solve_bethe_roots is not original
        assert bdl.checks.solve_bethe_roots is bdl.oracle.solve_bethe_roots
        assert bdl.cli.run_suite is bdl.checks.run_suite
    assert bdl.checks.solve_bethe_roots is original
    assert bdl.oracle.solve_bethe_roots is original


def test_traced_reports_equal_untraced_reports(tmp_path):
    work = one_call(ROOT / "configs" / "periodic_n1_N3.json")
    plain = run_pass(bdl, work, tmp_path)
    with Tracer() as tracer:
        traced = run_pass(bdl, work, tmp_path)
    assert [score.strip_wall_times(r) for r in traced["reports"]] == \
        [score.strip_wall_times(r) for r in plain["reports"]]
    assert tracer.metrics()["oracle.monodromy.calls"] > 0
    runs = {span[5] for span in tracer.spans}
    assert runs == {1}


def test_pass_time_is_divided_by_the_reference_around_each_call(tmp_path):
    work = workloads.Workload("test", tuple((path, 1) for path in BUNDLED[:3]))
    done = run_pass(bdl, work, tmp_path)
    calls, refs = done["calls"], done["refs"]
    assert len(calls) == 3 and len(refs) == 4
    assert done["wall_s"] == pytest.approx(sum(calls))
    assert done["relative"] == pytest.approx(
        sum(t / ((a + b) / 2) for t, a, b in zip(calls, refs, refs[1:])))


def test_every_workload_names_a_kind_of_reference_work(tmp_path):
    for name in workloads.NAMES:
        kind = workloads.build(name, 1, ROOT, tmp_path).reference
        parts = reference.timings(kind)
        assert parts and all(t > 0 for t in parts.values())


def test_one_tolerance_at_1e_30_gives_failed_share(tmp_path):
    config = json.loads((ROOT / "configs" / "degenerate_ytr.json").read_text())
    config["suite"] = "all"
    config["tolerances"] = {"omega_two_paths": 1e-30}
    done = run_pass(bdl, one_call(write_config(tmp_path, config)), tmp_path)
    assert done["attempted"] == 4
    assert done["failed"] == 1


def test_invalid_config_counts_every_check_failed(tmp_path):
    config = workloads.oracle_dense_config(1)
    config["draws"] = 0  # rejected by the config layer: exit 2
    done = run_pass(bdl, one_call(write_config(tmp_path, config), 1), tmp_path)
    assert done["reports"] == [{"exit": 2}]
    assert done["attempted"] == done["failed"] == 3


def test_tolerance_suffix_mapping_on_maba_report(tmp_path):
    out = tmp_path / "maba.json"
    code = bdl.cli.main(["verify", "--config", str(ROOT / "configs" / "maba_s2_N2.json"),
                         "--only", "maba-asymptotics,w-transform", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    for rec in report["checks"]:
        for key in rec["residuals"]:
            assert score.tolerance_for(key, rec["tolerances"]) is not None, key
    asym = next(r for r in report["checks"] if r["name"] == "maba-asymptotics")
    assert score.tolerance_for("eigenvalue_slope_dev", asym["tolerances"]) == 0.35
    assert score.tolerance_for("minor_product_final_err", asym["tolerances"]) == 1e-3
    measures = {(name, key) for name, key, _ in score.headrooms(report)}
    assert ("w-transform", "row_offshell_min") in measures
    assert not any(name == "maba-asymptotics" for name, _ in measures)


def test_headroom_scoring():
    report = {"checks": [{"name": "x", "passed": True,
                          "residuals": {"err": 1e-12, "ray": 0.0, "gap_min": 0.5,
                                        "loose_slope_dev": 0.01},
                          "tolerances": {"err": 1e-8, "ray": 1e-8, "gap_min": 1e-3,
                                         "slope_dev": 0.35}}],
              "summary": {"total": 1, "passed": 1, "failed": 0}}
    dex = {key: round(d, 9) for _, key, d in score.headrooms(report)}
    assert dex == {"err": 4.0, "gap_min": round(2.69897000434, 9)}
    assert score.inconsistencies(report) == []
    report["checks"][0]["residuals"]["err"] = 1e-7
    assert score.inconsistencies(report) == ["x.err passes at -1 dex"]
    report["checks"][0]["residuals"]["err"] = float("nan")
    assert min(d for _, _, d in score.headrooms(report)) == score.FLOOR_DEX


def test_pass_count_rule():
    assert more_passes(0, 0.0, 20)
    assert more_passes(2, 24.0, 20)      # fewer than three passes so far
    assert more_passes(3, 15.0, 20)
    assert not more_passes(3, 21.0, 20)
    assert more_passes(2, 30.0, 20)      # a third pass would end near 45 s
    assert not more_passes(2, 42.0, 20)  # a third pass would end near 63 s


def test_workloads_follow_the_seed(tmp_path):
    first = workloads.build("oracle-dense", 5, ROOT, tmp_path).calls[0][0].read_bytes()
    again = workloads.build("oracle-dense", 5, ROOT, tmp_path).calls[0][0].read_bytes()
    other = workloads.build("oracle-dense", 6, ROOT, tmp_path).calls[0][0].read_bytes()
    assert first == again != other
    bundled = workloads.build("verify-bundled", 9, ROOT, tmp_path)
    assert [p.name for p, _ in bundled.calls] == [p.name for p in BUNDLED]


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "oracle-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
