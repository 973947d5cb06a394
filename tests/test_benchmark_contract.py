"""What the benchmark under ``benchmarks/`` needs from the program.

The benchmark wraps named ``bdl`` functions (``benchmarks/tracer.py``) and
generates its ``oracle-dense`` configs (``benchmarks/workloads.py``); a
renamed function or a failing generated config breaks its runs, so both are
checked here against the program.
"""
import importlib
import json
import sys
from pathlib import Path

import pytest

import bdl
import bdl.cli
from bdl.checks import run_suite
from bdl.config import load_config, parse_config

from conftest import bench_module

ROOT = Path(__file__).resolve().parent.parent


tracer = bench_module("tracer")
workloads = bench_module("workloads")


def _bindings() -> dict:
    """Every attribute of every loaded bdl module, by (module, name)."""
    return {(name, attr): value for name, module in sorted(sys.modules.items())
            if name == "bdl" or name.startswith("bdl.")
            for attr, value in vars(module).items()}


def test_traced_names_resolve():
    for qualname in tracer.SPANNED + tracer.COUNTED:
        layer, attr = qualname.split(".")
        assert callable(getattr(importlib.import_module(f"bdl.{layer}"), attr)), qualname


def test_tracer_install_round_trips_and_counts_root_solving():
    before = _bindings()
    original = bdl.checks.solve_bethe_roots
    with tracer.Tracer() as tr:
        assert bdl.checks.solve_bethe_roots is not original
        report = run_suite(load_config(ROOT / "configs" / "periodic_n1_N3.json"))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert report["suite_passed"]
    counts = tr.metrics()
    # n = 1 on three sites: two fresh eigencurves, one descendant rejected
    assert counts["oracle.solve_bethe_roots.calls"] == 1
    assert (counts["oracle.newton_starts"], counts["oracle.roots_accepted"],
            counts["oracle.roots_unmatched"]) == (2, 2, 1)


@pytest.mark.parametrize("config", sorted(p.name for p in (ROOT / "configs").glob("*.json")))
def test_traced_bundled_config_passes_and_round_trips(config, tmp_path):
    # the benchmark's closed loop: bdl.cli.main under the tracer
    out = tmp_path / "report.json"
    before = _bindings()
    with tracer.Tracer() as tr:
        code = bdl.cli.main(["verify", "--config", str(ROOT / "configs" / config),
                             "--out", str(out)])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    report = json.loads(out.read_text())
    assert code == 0 and report["suite_passed"], [
        r["name"] for r in report["checks"] if not r["passed"]]
    counts = tr.metrics()
    assert counts["cli.main.calls"] == counts["checks.run_suite.calls"] == 1


@pytest.mark.parametrize("seed", [34, 203, 528])
def test_oracle_dense_scalar_products_at_root_accuracy(seed):
    # the smallest inner products of these D = 256 chains amplify a root error
    # of ~1e-11 (max|Y| just under 1e-12) past the 1e-8 tolerance
    raw = workloads.oracle_dense_config(seed)
    raw["suite"] = ["scalar-product-oracle"]
    rec = run_suite(parse_config(raw))["checks"][0]
    assert rec["passed"], rec["residuals"]
