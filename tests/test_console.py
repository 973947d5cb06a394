"""The console end to end: report formats, large, mixed-spin and twisted spin-3/2 chains,
extreme couplings, and reports that do not depend on string hashing.

Each case runs ``cli.main`` in-process, unless it needs an environment of its own: a
pinned BLAS thread count or a hash seed.
"""
import csv
import io
import json

import pytest

from bdl.checks import registry
from bdl.cli import main

from conftest import (BUNDLED, CONFIG_DIR, edited_config, reject_constant, run_cli,
                      verify_report)

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("config_name", BUNDLED)
def test_every_bundled_config_writes_a_csv_report(tmp_path, config_name):
    # its JSON report is read, as strict JSON, by test_bundled_config_all_green
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", str(CONFIG_DIR / f"{config_name}.json"),
                 "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "check,measure,value,tolerance,passed"


def test_the_full_suite_passes_on_mixed_spins(tmp_path):
    # spins [1/2, 1, 1/2, 3/2]: the site sweep's bands run end to end at d = 2, 3 and 4
    code, report = verify_report(tmp_path, edited_config("mixed_spins"))
    assert code == 0
    records = {rec["name"]: rec for rec in report["checks"]}
    assert records["transfer-action"]["note"] == "5 instances", records["transfer-action"]


def test_a_rank_deficient_closure_matrix_fails_solution_ray(twisted_s32_run):
    # a numerical error inside a check fails that check (exit 1), not the run
    code, report = twisted_s32_run
    assert code == 1
    rec = {rec["name"]: rec for rec in json.loads(report)["checks"]}["solution-ray"]
    assert not rec["passed"] and rec["note"].startswith("RankDeficiencyError: "), rec


def test_overflowing_minors_are_null_in_a_strict_json_report(twisted_s32_run):
    # maba-asymptotics' 12x12 minors overflow at the check's large scales, so two worst
    # values are NaN; the JSON report writes them as null and stays strict JSON
    code, report = twisted_s32_run
    assert code == 1
    records = json.loads(report, parse_constant=reject_constant)["checks"]
    rec = {rec["name"]: rec for rec in records}["maba-asymptotics"]
    assert not rec["passed"] and "not finite (null in JSON)" in rec["note"], rec


def test_gaudin_norm_passes_at_twelve_sites(tmp_path):
    code, _ = verify_report(tmp_path, edited_config("periodic_N12"), "--only", "gaudin-norm")
    assert code == 0


def test_the_sparse_site_sweep_runs_at_twelve_sites(tmp_path):
    # B and C products from the vacuum and the transfer matrix on their sectors, D = 4096
    code, report = verify_report(tmp_path, edited_config("periodic_N12"),
                                 "--only", "transfer-action,izergin-oracle")
    assert code == 0
    transfer, izergin = report["checks"]
    assert transfer["note"] == "5 instances", transfer
    assert izergin["note"] == "4 comparisons", izergin


def test_det_m_zero_passes_on_every_root_set_at_twelve_sites(tmp_path):
    # n = 1, 2 and 3, one draw each: 11 + 54 + 154 = 219 instances
    config = edited_config("periodic_N12", sizes={"n": [1, 2, 3]}, draws=1)
    code, report = verify_report(tmp_path, config, "--only", "det-M-zero")
    assert code == 0
    [rec] = report["checks"]
    assert rec["passed"] and rec["note"] == "219 instances", rec


def test_w_transform_csv_measures_follow_the_list_checks_bounds(capsys):
    # the w-transform CSV rows name its bound keys, in the order that list-checks prints them
    assert main(["verify", "--config", str(CONFIG_DIR / "periodic_n1_N3.json"),
                 "--only", "w-transform", "--format", "csv"]) == 0
    measures = [row["measure"] for row in csv.DictReader(io.StringIO(capsys.readouterr().out))]
    assert main(["list-checks"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[0] == "w-transform")
    bounds = lines[at + 2].split("bounds:", 1)[1].split(";")
    keys = [part.split()[0] for part in bounds]
    assert measures == keys, (measures, keys)


@pytest.mark.parametrize("config_name", BUNDLED)
def test_a_report_does_not_depend_on_string_hashing(tmp_path, config_name):
    reports = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}.json"
        code, _, err = run_cli("verify", "--config", str(CONFIG_DIR / f"{config_name}.json"),
                               "--seed", "1", "--out", str(out),
                               env={"PYTHONHASHSEED": hash_seed})
        assert code == 0, err
        report = json.loads(out.read_text())
        for rec in report["checks"]:
            del rec["wall_time_s"]
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1], "report depends on PYTHONHASHSEED"


# finite couplings far outside the bundled range, with the error each one's first root
# solve meets: it fails the checks that read root sets (exit 1), never the run (exit 3)
EXTREME_COUPLINGS = [
    ("periodic_n1_N3", "c", 1e200, "OverflowError"),
    ("periodic_n1_N3", "c", 1e300, "OverflowError"),
    ("periodic_n1_N3", "c", 1e-100, "LinAlgError"),
    ("periodic_n1_N3", "c", 1e-200, "LinAlgError"),
    ("periodic_n1_N3", "c", 1e-300, "LinAlgError"),
    ("periodic_n1_N3", "theta", [0.3, 1e150, 0.12], "LinAlgError"),
    ("maba_s2_N2", "c", 1e100, "OverflowError"),
    ("maba_s2_N2", "c", 1e200, "OverflowError"),
    ("maba_s2_N2", "c", 1e300, "OverflowError"),
    ("maba_s2_N2", "c", 1e-100, "LinAlgError"),
    ("maba_s2_N2", "c", 1e-200, "ZeroDivisionError"),
    ("maba_s2_N2", "c", 1e-300, "ZeroDivisionError"),
]


@pytest.mark.parametrize("config_name, key, value, error", EXTREME_COUPLINGS,
                         ids=[f"{name}-{key}-{value if key == 'c' else value[1]:g}"
                              for name, key, value, _ in EXTREME_COUPLINGS])
@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_a_finite_coupling_never_exits_three(tmp_path, capsys, config_name, key, value, error):
    # numpy's default warnings, as a user's run has them: an overflow warns, not raises
    raw = json.loads((CONFIG_DIR / f"{config_name}.json").read_text())
    raw["model"][key] = value
    code, report = verify_report(tmp_path, raw)
    err = capsys.readouterr().err
    assert code == 1 and "internal error" not in err, err
    records = {rec["name"]: rec for rec in report["checks"]}
    for name, rec in records.items():
        if registry()[name].reads_roots:
            assert not rec["passed"] and rec["note"].startswith(f"{error}: "), rec
    assert all(records[name]["passed"] for name in ("omega-two-paths", "appendix-A",
                                                    "appendix-B"))
