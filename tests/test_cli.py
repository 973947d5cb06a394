"""CLI behaviour: exit codes, registry surface, determinism, report formats."""
import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bdl.checks import (_slope_ok, applicable_checks, check_names, explain, registry,
                        run_suite)
from bdl.cli import main
from bdl.config import ConfigError, load_config, parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "bdl.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# registry surface


def test_registry_has_exactly_thirteen_checks():
    expected = {
        "det-M-zero", "lse-residual", "omega-two-paths", "w-transform",
        "solution-ray", "izergin-oracle", "gaudin-norm", "scalar-product-oracle",
        "maba-oracle", "maba-asymptotics", "appendix-A", "appendix-B",
        "transfer-action",
    }
    assert set(check_names()) == expected
    assert len(check_names()) == 13


def test_explanations_are_distinct_and_descriptive():
    texts = [explain(name) for name in check_names()]
    assert len(set(texts)) == len(texts)
    assert all(len(t) > 30 for t in texts)
    assert "determinant" in explain("det-M-zero").lower()
    assert "complement" in explain("appendix-B").lower()


def test_explain_unknown_name_raises():
    with pytest.raises(KeyError):
        explain("no-such-check")


def test_applicability_by_model_type():
    assert "maba-oracle" not in applicable_checks("periodic-xxx")
    assert "izergin-oracle" not in applicable_checks("maba-xxx")
    assert applicable_checks("degenerate-ytr") == ["det-M-zero", "omega-two-paths",
                                                   "appendix-A", "appendix-B"]


def test_list_checks_command():
    code, out, _ = run_cli("list-checks")
    assert code == 0
    for name in check_names():
        assert name in out


def test_explain_command_exit_codes():
    code, out, _ = run_cli("explain", "det-M-zero")
    assert code == 0 and "determinant" in out.lower()
    code, _, err = run_cli("explain", "bogus")
    assert code == 2 and "unknown check" in err


# ---------------------------------------------------------------------------
# config validation


def base_config():
    return json.loads((CONFIG_DIR / "periodic_n1_N3.json").read_text())


def test_malformed_config_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli("verify", "--config", str(bad))
    assert code == 2
    assert out == ""
    assert "configuration error" in err


def test_unknown_check_rejected():
    raw = base_config()
    raw["suite"] = ["det-M-zero", "nonexistent"]
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_inapplicable_check_rejected():
    raw = base_config()
    raw["suite"] = ["maba-oracle"]
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_unknown_tolerance_rejected():
    # the on-shell threshold is the constant linsys.ONSHELL_TOL, not a tolerance
    for key in ("no_such_tol", "onshell_residual"):
        raw = base_config()
        raw["tolerances"] = {key: 1e-3}
        with pytest.raises(ConfigError):
            parse_config(raw)


def test_missing_twist_rejected():
    raw = base_config()
    raw["model"]["type"] = "maba-xxx"
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_complex_entry_forms():
    raw = base_config()
    raw["model"]["c"] = [0.9, 0.4]
    cfg = parse_config(raw)
    assert cfg.model.spec.c == 0.9 + 0.4j


# ---------------------------------------------------------------------------
# suite runs


def test_degenerate_config_passes(tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli("verify", "--config", str(CONFIG_DIR / "degenerate_ytr.json"),
                         "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["suite_passed"]
    rec = report["checks"][0]
    assert rec["name"] == "det-M-zero"
    assert "rank 0" in rec["note"]


def test_failing_tolerance_gives_exit_one_and_report(tmp_path):
    raw = base_config()
    raw["suite"] = ["omega-two-paths"]
    raw["tolerances"] = {"omega_two_paths": 1e-30}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(raw))
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli("verify", "--config", str(cfg_file), "--out", str(out_file))
    assert code == 1
    report = json.loads(out_file.read_text())
    assert not report["suite_passed"]
    assert report["summary"]["failed"] == 1


def test_only_subset_runs(tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli("verify", "--config", str(CONFIG_DIR / "periodic_n1_N3.json"),
                         "--only", "appendix-A,appendix-B", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert [c["name"] for c in report["checks"]] == ["appendix-A", "appendix-B"]


def test_csv_format(tmp_path):
    out_file = tmp_path / "report.csv"
    code, _, _ = run_cli("verify", "--config", str(CONFIG_DIR / "degenerate_ytr.json"),
                         "--out", str(out_file), "--format", "csv")
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "check,measure,value,tolerance,passed"
    assert any(line.startswith("det-M-zero") for line in lines[1:])
    # measures named <label>_<tolerance key> carry that key's tolerance
    code, _, _ = run_cli("verify", "--config", str(CONFIG_DIR / "maba_s2_N2.json"),
                         "--only", "maba-asymptotics", "--out", str(out_file),
                         "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out_file.read_text().strip().splitlines()[1:]]
    assert len(rows) == 10
    assert all(row[0] == "maba-asymptotics" and row[3] for row in rows)


def test_slope_check_rejects_undecayed_errors():
    assert _slope_ok([1e-3, 1e-4, 1e-5], 0.35) == (True, pytest.approx(0.0, abs=1e-12))
    assert _slope_ok([1e-4, 1e-4, 1e-4], 0.35) == (False, 1.0)
    # one bad step fails even when the mean slope is -1
    ok, dev = _slope_ok([1e-2, 1e-2, 1e-4], 0.35)
    assert not ok and dev == pytest.approx(1.0)


def test_report_deterministic_for_fixed_seed():
    cfg = load_config(CONFIG_DIR / "degenerate_ytr.json")
    cfg.suite = ["det-M-zero", "appendix-A"]
    rep1 = run_suite(cfg)
    rep2 = run_suite(copy.deepcopy(cfg))
    for rep in (rep1, rep2):
        for rec in rep["checks"]:
            rec["wall_time_s"] = 0.0
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_seed_override_changes_digest():
    cfg = load_config(CONFIG_DIR / "degenerate_ytr.json")
    rep1 = run_suite(cfg)
    cfg.seed = cfg.seed + 1
    rep2 = run_suite(cfg)
    assert rep1["checks"][0]["inputs_digest"] != rep2["checks"][0]["inputs_digest"]


def test_main_entry_returns_int():
    assert main(["list-checks"]) == 0


@pytest.mark.slow
def test_bundled_periodic_config_all_green(tmp_path):
    out_file = tmp_path / "report.json"
    import time
    start = time.monotonic()
    code, _, _ = run_cli("verify", "--config", str(CONFIG_DIR / "periodic_n1_N3.json"),
                         "--out", str(out_file))
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 60
    report = json.loads(out_file.read_text())
    assert report["suite_passed"]
    assert report["summary"]["total"] == 11


@pytest.mark.slow
def test_bundled_maba_config_all_green(tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli("verify", "--config", str(CONFIG_DIR / "maba_s2_N2.json"),
                         "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["suite_passed"]
    names = {c["name"] for c in report["checks"]}
    assert "maba-oracle" in names and "maba-asymptotics" in names
