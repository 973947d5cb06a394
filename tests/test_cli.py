"""CLI behaviour: exit codes, registry surface, determinism, report formats."""
import copy
import dataclasses
import json
import os
import time

import numpy as np
import pytest

from bdl import checks, cli, oracle
from bdl.checks import (_slope_dev, applicable_checks, check_names, explain, registry,
                        root_set_sizes, run_suite)
from bdl.cli import main
from bdl.config import DEFAULT_TOLERANCES, ConfigError, load_config, parse_config
from bdl.errors import PoleError, RankDeficiencyError
from bdl.models import PeriodicChainSpec

from conftest import (BUNDLED, CONFIG_DIR, reject_constant, run_cli, run_python,
                      verify_report)


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    # the chain's coefficient form is built by direct convolution; numpy.polynomial
    # would add its import to every run
    code, _, err = run_python(
        "-c", 'import sys, bdl.cli; assert "numpy.polynomial" not in sys.modules')
    assert code == 0, err


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
    # every overridable tolerance is listed with its default
    for key, val in DEFAULT_TOLERANCES.items():
        assert f"{key} ({val:g})" in out
    assert "row_offshell_min > w_row_offshell_min" in out


@pytest.mark.parametrize("command", [
    ["list-checks"], ["explain", "det-M-zero"],
    ["verify", "--config", str(CONFIG_DIR / "periodic_n1_N3.json")]],
    ids=["list-checks", "explain", "verify"])
def test_stdout_into_a_closed_reader_exits_quietly(command):
    # the read end is closed before the CLI writes: every write meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _, err = run_cli(*command, stdout=write_end)
    finally:
        os.close(write_end)
    # the exit code an open reader gets: 0 here, the suite's verdict for verify
    assert code == run_cli(*command)[0] == 0
    assert err == ""


def test_bounds_name_existing_tolerances():
    named = set()
    for cdef in registry().values():
        assert cdef.bounds
        for key, bound in cdef.bounds.items():
            if isinstance(bound, str):
                assert bound in DEFAULT_TOLERANCES, (cdef.name, key)
                named.add(bound)
            else:  # the fixed final-error bound of the asymptotics
                assert (cdef.name, key, bound) == ("maba-asymptotics", "final_err", 1e-3)
    assert named == set(DEFAULT_TOLERANCES)


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


@pytest.mark.parametrize("data, message", [
    (b'{"seed": "\xff"}', "codec can't decode"), (b"[1]", "must hold a JSON object")])
def test_a_file_without_a_json_object_exits_two(tmp_path, capsys, data, message):
    # bytes that are not UTF-8 once ended in a traceback and exit 1
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert main(["verify", "--config", str(bad), "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err


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
    # only the names in DEFAULT_TOLERANCES are tolerances; there is no on-shell threshold
    for key in ("no_such_tol", "onshell_residual"):
        raw = base_config()
        raw["tolerances"] = {key: 1e-3}
        with pytest.raises(ConfigError):
            parse_config(raw)


def _set(raw, path, value):
    *keys, last = path.split(".")
    for key in keys:
        raw = raw.setdefault(key, {})
    raw[last] = value


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("path, value", [
    ("tolerances.lse_residual", True), ("draws", True), ("seed", False),
    ("sizes.n", [True]), ("model.c", True), ("model.c", [1.0, True]),
    ("model.theta", [True, 0.2, -0.4]), ("model.spins", [0.5, True, 0.5]),
    ("model", {"type": "periodic-xxx", "N": True, "c": 1.0, "theta": [0.3], "spins": [0.5]}),
    ("model", {"type": "degenerate-ytr", "n": True}),
    # wrong shapes are configuration errors too, not Python errors
    ("model.theta", 5), ("model.theta", None), ("tolerances", [1]), ("tolerances", "x"),
    # a dict can carry a NaN or an infinity, which is also how Python reads a file's 1e400
    ("tolerances.det_m_zero", NAN), ("model.c", INF), ("model.c", [1.0, NAN]),
    ("model.theta", [0.3, -INF, 0.12]), ("model.spins", [0.5, NAN, 0.5]),
])
def test_json_booleans_are_not_numbers(path, value):
    # Python counts True as the integer 1, and NaN as a float; a config must not
    raw = base_config()
    _set(raw, path, value)
    with pytest.raises(ConfigError):
        parse_config(raw)


@pytest.mark.parametrize("path, value, token", [
    ("tolerances.det_m_zero", NAN, "NaN"), ("tolerances.det_m_zero", INF, "Infinity"),
    ("extra", NAN, "NaN"), ("model.theta", [0.3, NAN, 0.12], "NaN"),
    ("model.theta", [0.3, [-0.45, -INF], 0.12], "-Infinity"), ("model.c", INF, "Infinity"),
])
def test_a_non_finite_token_in_a_config_file_exits_two(tmp_path, capsys, path, value, token):
    # Python's JSON reader takes NaN and Infinity; a config file is strict JSON, and the
    # error names the key that holds the token
    raw = base_config()
    _set(raw, path, value)
    cfg_file = tmp_path / "non_finite.json"
    cfg_file.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(cfg_file)]) == 2
    captured = capsys.readouterr()
    key = path.split(".")[-1]
    assert captured.out == "" and "internal error" not in captured.err
    assert f"{key!r} holds {token}, which is not a JSON number" in captured.err


def _verify_edited(tmp_path, edit):
    raw = base_config()
    edit(raw)
    cfg_file = tmp_path / "edited.json"
    cfg_file.write_text(json.dumps(raw))
    return run_cli("verify", "--config", str(cfg_file))


def test_malformed_shape_exits_two(tmp_path):
    code, out, err = _verify_edited(tmp_path, lambda raw: raw["model"].update(theta=5))
    assert (code, out) == (2, "") and "configuration error" in err and "Traceback" not in err


def test_chain_over_dimension_cap_exits_two(tmp_path):
    # N = 13 spin-1/2 sites: D = 8192 against the config limit of 4096
    code, out, err = _verify_edited(tmp_path, lambda raw: raw["model"].update(
        N=13, theta=[0.1 * k for k in range(13)], spins=[0.5] * 13))
    assert (code, out) == (2, "") and "configuration error" in err
    assert "8192" in err and "4096" in err


def _sized_twist_config(n_sites: int) -> dict:
    raw = json.loads((CONFIG_DIR / "maba_s2_N2.json").read_text())
    raw["model"].update(N=n_sites, theta=[round(-1.1 + 0.2 * k, 6) for k in range(n_sites)],
                        spins=[0.5] * n_sites)
    return raw


def test_twisted_chain_over_its_cap_exits_two(tmp_path):
    # its solve spans the whole space: N = 8 (D = 256) runs in seconds, N = 10 in minutes
    assert parse_config(_sized_twist_config(8)).model.spec.dim == 256
    cfg_file = tmp_path / "twisted_N9.json"
    cfg_file.write_text(json.dumps(_sized_twist_config(9)))
    code, out, err = run_cli("verify", "--config", str(cfg_file))
    assert (code, out) == (2, "") and "configuration error" in err
    assert "512 of a twisted chain exceeds cap 256" in err


ROOT_READERS = ["det-M-zero", "lse-residual", "w-transform", "solution-ray", "gaudin-norm",
                "scalar-product-oracle"]


def test_sizes_without_a_root_set_size_exit_two(tmp_path):
    # N = 3 has root sets at n = 1 only; sizes.n [2] once gave six "failed: 0 instances"
    code, out, err = _verify_edited(tmp_path, lambda raw: raw.update(sizes={"n": [2]}))
    assert (code, out) == (2, "") and "configuration error" in err and "Traceback" not in err
    assert "1..S/2 = 1.5" in err and all(name in err for name in ROOT_READERS)
    for suite, sizes in [(["transfer-action", "appendix-A"], [2]), ("all", [1, 2])]:
        raw = base_config()
        raw.update(suite=suite, sizes={"n": sizes})
        parse_config(raw)
    # --only judges the checks it selects
    raw = base_config()
    raw.update(suite=["transfer-action"], sizes={"n": [2]})
    cfg_file = tmp_path / "no_readers.json"
    cfg_file.write_text(json.dumps(raw))
    code, out, err = run_cli("verify", "--config", str(cfg_file), "--only", "solution-ray")
    assert (code, out) == (2, "") and "solution-ray read" in err


def test_root_set_sizes_are_the_sizes_with_root_sets(tmp_path):
    # one rule with expected_root_sets: spins [1/2, 3/2] have no set at n = 2,
    # one spin-1 site none at n = 1; on spin 1/2 the rule is 1..S/2
    mixed = PeriodicChainSpec(2, 1.3, [0.3, -0.45], [0.5, 1.5])
    assert root_set_sizes(mixed, [1, 2]) == [1]
    assert root_set_sizes(PeriodicChainSpec(1, 1.3, [0.2], [1.0]), [1]) == []
    assert root_set_sizes(PeriodicChainSpec(4, 1.3, [0.3, -0.45, 0.12, 0.7], [0.5] * 4),
                          [0, 1, 2, 3]) == [1, 2]
    # so sizes.n [2] on the mixed chain is a configuration error, not six "0 instances"
    code, out, err = _verify_edited(tmp_path, lambda raw: raw.update(
        model=dict(raw["model"], N=2, theta=[0.3, -0.45], spins=[0.5, 1.5]), sizes={"n": [2]}))
    assert (code, out) == (2, "") and "holds no set size with root sets" in err
    assert all(name in err for name in ROOT_READERS)


@pytest.mark.parametrize("config", ["periodic_n2_N4", "maba_s2_N2"])
def test_reads_roots_marks_the_checks_that_solve(monkeypatch, config):
    cfg = load_config(CONFIG_DIR / f"{config}.json")
    solved = []
    solve = checks.solve_bethe_roots
    monkeypatch.setattr(checks, "solve_bethe_roots",
                        lambda *args, **kwargs: solved.append(name) or solve(*args, **kwargs))
    for name in applicable_checks(cfg.model.type, cfg.model.spec):
        run_suite(dataclasses.replace(cfg, suite=[name]))
    readers = [name for name in applicable_checks(cfg.model.type, cfg.model.spec)
               if registry()[name].reads_roots]
    assert sorted(set(solved)) == sorted(readers)


@pytest.mark.parametrize("config", ["periodic_n1_N3.json", "maba_s2_N2.json"])
def test_chain_without_sites_exits_two(tmp_path, config):
    # accepted once: every periodic check judged 0 instances, the twisted run crashed
    raw = json.loads((CONFIG_DIR / config).read_text())
    raw["model"].update(N=0, theta=[], spins=[])
    cfg_file = tmp_path / "no_sites.json"
    cfg_file.write_text(json.dumps(raw))
    code, out, err = run_cli("verify", "--config", str(cfg_file))
    assert (code, out) == (2, "") and "at least one site" in err and "Traceback" not in err


def test_oversized_chain_rejected_at_any_size():
    # D = 2**64 must not wrap around to a small number and slip under the limit
    raw = base_config()
    raw["model"].update(N=64, theta=[0.03 * k for k in range(64)], spins=[0.5] * 64)
    with pytest.raises(ConfigError, match=str(2 ** 64)):
        parse_config(raw)


def test_empty_suite_exits_two(tmp_path):
    code, out, err = _verify_edited(tmp_path, lambda raw: raw.update(suite=[]))
    assert (code, out) == (2, "") and "names no check" in err


def test_empty_only_exits_two():
    code, out, err = run_cli("verify", "--config", str(CONFIG_DIR / "periodic_n1_N3.json"),
                             "--only", ",")
    assert (code, out) == (2, "") and "names no check" in err


@pytest.mark.parametrize("suite, only", [(["det-M-zero", "lse-residual", "det-M-zero"], None),
                                         ("all", "det-M-zero,det-M-zero")])
def test_a_repeated_check_name_exits_two(tmp_path, capsys, suite, only):
    # a check named twice once ran twice and wrote two identical records
    raw = base_config()
    raw["suite"] = suite
    cfg_file = tmp_path / "repeated.json"
    cfg_file.write_text(json.dumps(raw))
    options = [] if only is None else ["--only", only]
    assert main(["verify", "--config", str(cfg_file), *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: the suite names check 'det-M-zero' twice\n"


def test_a_repeated_set_size_exits_two(tmp_path, capsys):
    # sizes.n [1, 1, 2] once judged n = 1 twice: 16 det-M-zero instances instead of 10
    raw = json.loads((CONFIG_DIR / "periodic_n2_N4.json").read_text())
    raw["sizes"] = {"n": [1, 1, 2]}
    cfg_file = tmp_path / "repeated.json"
    cfg_file.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(cfg_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: sizes.n [1, 1, 2] names n = 1 twice\n"


@pytest.mark.parametrize("where", ["--out in a missing directory", "--out a directory",
                                   "output.path in a missing directory"])
def test_an_unwritable_report_path_exits_two_before_the_run(tmp_path, capsys, monkeypatch,
                                                           where):
    # these once ran the whole suite and then exited 3 on FileNotFoundError or IsADirectoryError
    ran = []
    monkeypatch.setattr(cli, "run_suite", ran.append)
    raw = json.loads((CONFIG_DIR / "degenerate_ytr.json").read_text())
    path = tmp_path if where == "--out a directory" else tmp_path / "missing" / "report.json"
    options = ["--out", str(path)]
    if where.startswith("output.path"):
        raw["output"]["path"] = str(path)
        options = []
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(cfg_file), *options]) == 2
    captured = capsys.readouterr()
    assert (captured.out, ran) == ("", [])
    reason = "Is a directory" if path == tmp_path else "No such file or directory"
    assert captured.err == f"cannot write the report to {path}: {reason}\n"


def test_izergin_oracle_needs_spin_half_sites(tmp_path):
    # a mixed-spin chain runs every other periodic check; asking for izergin is a config error
    raw = base_config()
    raw["model"].update(N=2, theta=[0.3, -0.45], spins=[0.5, 1.0])
    raw["draws"] = 1
    cfg_file = tmp_path / "mixed.json"
    cfg_file.write_text(json.dumps(raw))
    out_file = tmp_path / "report.json"
    code, _, err = run_cli("verify", "--config", str(cfg_file), "--out", str(out_file))
    assert code == 0, err
    names = [c["name"] for c in json.loads(out_file.read_text())["checks"]]
    assert names == [c for c in applicable_checks("periodic-xxx") if c != "izergin-oracle"]
    code, _, err = run_cli("verify", "--config", str(cfg_file), "--only", "izergin-oracle")
    assert code == 2 and "spin-1/2" in err
    raw["suite"] = ["det-M-zero", "izergin-oracle"]
    cfg_file.write_text(json.dumps(raw))
    code, out, err = run_cli("verify", "--config", str(cfg_file))
    assert code == 2 and out == "" and "spin-1/2" in err


def test_negative_seed_exits_two(tmp_path):
    # the config key and the --seed override share one rule
    code, out, err = _verify_edited(tmp_path, lambda raw: raw.update(seed=-5))
    assert (code, out) == (2, "") and "seed" in err and "Traceback" not in err
    code, out, err = run_cli("verify", "--config", str(CONFIG_DIR / "periodic_n1_N3.json"),
                             "--seed", "-1")
    assert (code, out) == (2, "") and "seed" in err and "internal error" not in err


@pytest.mark.parametrize("entry", ["kappa_plus", "kappa_minus"])
def test_twist_without_factor_matrices_exits_two(tmp_path, entry):
    # every maba-xxx check needs the twist's factor matrices, so the config is at fault
    raw = json.loads((CONFIG_DIR / "maba_s2_N2.json").read_text())
    raw["model"]["twist"][entry] = 0
    cfg_file = tmp_path / "diagonal.json"
    cfg_file.write_text(json.dumps(raw))
    code, out, err = run_cli("verify", "--config", str(cfg_file))
    assert (code, out) == (2, "") and "off-diagonal" in err and "internal error" not in err


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
    assert all(row[0] == "maba-asymptotics" for row in rows)
    assert {row[3] for row in rows if row[1].endswith("_slope_dev")} == {"0.35"}
    assert {row[3] for row in rows if row[1].endswith("_final_err")} == {"0.001"}


def test_checks_without_instances_fail():
    # sizes.n = [0] and [4] leave no magnon number these checks can use on N = 3
    for sizes in ([0], [4]):
        raw = base_config()
        raw["suite"] = ["transfer-action", "izergin-oracle"]
        raw["sizes"] = {"n": sizes}
        report = run_suite(parse_config(raw))
        assert not report["suite_passed"]
        assert [(r["passed"], r["note"]) for r in report["checks"]] == [
            (False, "0 instances"), (False, "0 comparisons")]


@pytest.mark.parametrize("error, code", [
    (RankDeficiencyError("rank 2 < expected 3", rank=2, expected=3, gap=1e-3), 1),
    (PoleError("u hit a pole"), 1), (OverflowError("complex exponentiation"), 1),
    (np.linalg.LinAlgError("SVD did not converge"), 1), (RuntimeError("bug"), 3)])
def test_a_numerical_error_in_a_check_fails_its_record(tmp_path, monkeypatch, error, code):
    # a package, arithmetic or linear-algebra error is the check's failure: exit 1,
    # with the other checks judged; any other error exits 3
    def raising(*args, **kwargs):
        raise error
    monkeypatch.setattr(checks, "solve_x", raising)
    out_file = tmp_path / "report.json"
    assert main(["verify", "--config", str(CONFIG_DIR / "periodic_n1_N3.json"),
                 "--only", "det-M-zero,solution-ray", "--out", str(out_file)]) == code
    if code != 1:
        return
    det_m, ray = json.loads(out_file.read_text())["checks"]
    assert det_m["passed"] and not ray["passed"]
    assert ray["note"] == f"{type(error).__name__}: {error}"
    assert ray["residuals"] == ray["tolerances"] == {} and len(ray["inputs_digest"]) == 16


@pytest.mark.parametrize("bad, text", [(float("nan"), "nan"), (float("inf"), "inf")])
def test_a_non_finite_worst_value_is_null_in_a_strict_json_report(tmp_path, monkeypatch, bad,
                                                                  text):
    # the JSON report stays strict JSON: the worst value is null and the note names its
    # measure; the CSV report keeps the float's text, and the check fails either way
    monkeypatch.setattr(checks, "scaled_det_residual", lambda m: [bad] + [0.0] * (len(m) - 1))
    args = ["verify", "--config", str(CONFIG_DIR / "periodic_n1_N3.json"),
            "--only", "det-M-zero,solution-ray"]
    json_out, csv_out = tmp_path / "report.json", tmp_path / "report.csv"
    assert main([*args, "--out", str(json_out)]) == 1
    det_m, ray = json.loads(json_out.read_text(), parse_constant=reject_constant)["checks"]
    assert not det_m["passed"] and det_m["residuals"] == {"scaled_det": None}
    assert det_m["note"].endswith(" instances; not finite (null in JSON): scaled_det")
    assert ray["passed"] and "not finite" not in ray["note"]
    assert main([*args, "--out", str(csv_out), "--format", "csv"]) == 1
    rows = [line.split(",") for line in csv_out.read_text().splitlines()[1:]]
    assert [row[2] for row in rows if row[0] == "det-M-zero"] == [text]


def test_any_other_non_finite_float_is_no_json_report():
    with pytest.raises(ValueError):
        cli._report_json({"checks": [], "seed": float("nan")})


def test_slope_check_rejects_undecayed_errors():
    assert _slope_dev([1e-3, 1e-4, 1e-5]) == pytest.approx(0.0, abs=1e-12)
    assert _slope_dev([1e-4, 1e-4, 1e-4]) == 1.0
    # one bad step counts even when the mean slope is -1
    assert _slope_dev([1e-2, 1e-2, 1e-4]) == pytest.approx(1.0)
    assert _slope_dev([1e-3, 0.0, 1e-5]) == 0.0


@pytest.mark.parametrize("name, distinct", [("periodic_n2_N4", 2), ("maba_s2_N2", 1)])
def test_each_root_set_solved_once_per_run(monkeypatch, name, distinct):
    calls = []
    solve = checks.solve_bethe_roots

    def spy(spec, n, twist=None):
        calls.append(n)
        return solve(spec, n, twist=twist)

    monkeypatch.setattr(checks, "solve_bethe_roots", spy)
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    first = run_suite(cfg)
    assert first["suite_passed"] and len(calls) == len(set(calls)) == distinct
    # the memo dies with the run: a second run solves again
    run_suite(cfg)
    assert len(calls) == 2 * distinct


@pytest.mark.parametrize("name, sizes", [("periodic_n2_N4", 2), ("maba_s2_N2", 1)])
def test_each_eigenstate_built_once_per_run(monkeypatch, name, sizes):
    # one dual-row build per root-set size, shared by every check that pairs against
    # it; gaudin-norm pairs those rows with the root solve's Bethe vectors, no sweep
    events = []

    def spy(event, fn):
        def wrapper(*args, **kwargs):
            events.append(event(*args))
            return fn(*args, **kwargs)
        return wrapper
    built = spy(lambda *args: "dual rows", oracle.dual_bethe_vector)
    monkeypatch.setattr(oracle, "dual_bethe_vector", built)
    monkeypatch.setattr(checks, "dual_bethe_vector", built)
    monkeypatch.setattr(oracle, "_apply", spy(lambda *args: "sweep", oracle._apply))
    monkeypatch.setattr(checks, "_record", spy(lambda ctx, check, *args: check, checks._record))
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    # izergin-oracle pairs drawn sets, not eigenstates, and builds their rows itself
    cfg.suite = [check for check in cfg.suite if check != "izergin-oracle"]
    assert run_suite(cfg)["suite_passed"]
    assert events.count("dual rows") == sizes
    if "gaudin-norm" in cfg.suite:
        end = events.index("gaudin-norm")
        start = max(i for i, event in enumerate(events[:end]) if event in cfg.suite)
        assert events[start + 1:end] == []


def test_twisted_root_shortfall_fails_the_checks_that_read_it(monkeypatch):
    # every transfer eigenvector of a twisted chain gives one set: D = 4 here
    solve = checks.solve_bethe_roots

    def drop_one(spec, n, twist=None):
        res = solve(spec, n, twist=twist)
        return dataclasses.replace(res, roots=res.roots[:-1], residuals=res.residuals[:-1],
                                   vectors=res.vectors[:-1])

    monkeypatch.setattr(checks, "solve_bethe_roots", drop_one)
    report = run_suite(load_config(CONFIG_DIR / "maba_s2_N2.json"))
    assert not report["suite_passed"]
    readers = {"det-M-zero", "lse-residual", "w-transform", "solution-ray", "maba-oracle",
               "maba-asymptotics"}
    assert readers <= {rec["name"] for rec in report["checks"]}
    for rec in report["checks"]:
        reads_roots = rec["name"] in readers
        assert rec["passed"] != reads_roots, rec
        assert ("3 of 4 root sets" in rec["note"]) == reads_roots, rec


def test_root_set_excess_fails_the_checks_that_read_it(monkeypatch):
    # N = 3 spin 1/2 has 2 size-1 sets; the wrapper hands the checks a third
    solve = checks.solve_bethe_roots

    def add_one(spec, n, twist=None):
        res = solve(spec, n, twist=twist)
        return dataclasses.replace(res, roots=res.roots + res.roots[-1:],
                                   residuals=res.residuals + res.residuals[-1:],
                                   vectors=np.concatenate([res.vectors, res.vectors[-1:]]))

    monkeypatch.setattr(checks, "solve_bethe_roots", add_one)
    report = run_suite(load_config(CONFIG_DIR / "periodic_n1_N3.json"))
    assert not report["suite_passed"]
    readers = {"det-M-zero", "lse-residual", "w-transform", "solution-ray", "gaudin-norm",
               "scalar-product-oracle"}
    assert readers <= {rec["name"] for rec in report["checks"]}
    for rec in report["checks"]:
        reads_roots = rec["name"] in readers
        assert rec["passed"] != reads_roots, rec
        assert ("3 root sets found, 2 expected" in rec["note"]) == reads_roots, rec


def test_every_miscounted_set_size_is_named(monkeypatch):
    # N = 4 spin 1/2 has 3 size-1 and 2 size-2 sets; the wrapper drops one of each
    solve = checks.solve_bethe_roots

    def drop_one(spec, n, twist=None):
        res = solve(spec, n, twist=twist)
        return dataclasses.replace(res, roots=res.roots[:-1], residuals=res.residuals[:-1],
                                   vectors=res.vectors[:-1])

    monkeypatch.setattr(checks, "solve_bethe_roots", drop_one)
    report = run_suite(load_config(CONFIG_DIR / "periodic_n2_N4.json"))
    notes = ["only 2 of 3 root sets at n = 1", "only 1 of 2 root sets at n = 2"]
    readers = [rec for rec in report["checks"] if registry()[rec["name"]].reads_roots]
    assert readers and not report["suite_passed"]
    for rec in report["checks"]:
        reads_roots = rec in readers
        assert rec["passed"] != reads_roots, rec
        assert all((note in rec["note"]) == reads_roots for note in notes), rec


def test_report_deterministic_for_fixed_seed():
    cfg = load_config(CONFIG_DIR / "degenerate_ytr.json")
    cfg.suite = ["det-M-zero", "appendix-A"]
    rep1 = run_suite(cfg)
    rep2 = run_suite(copy.deepcopy(cfg))
    for rep in (rep1, rep2):
        for rec in rep["checks"]:
            rec["wall_time_s"] = 0.0
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def _stripped_records(config_name, suite=None, seed=None):
    """The config's records with wall times zeroed; ``suite`` None runs every applicable check,
    ``seed`` None at the config's seed."""
    cfg = load_config(CONFIG_DIR / f"{config_name}.json")
    cfg.suite = suite or applicable_checks(cfg.model.type, cfg.model.spec)
    if seed is not None:
        cfg.seed = seed
    records = run_suite(cfg)["checks"]
    for rec in records:
        rec["wall_time_s"] = 0.0
    return records


@pytest.mark.parametrize("seed", [None, 1])
@pytest.mark.parametrize("config_name", BUNDLED)
def test_a_check_run_alone_matches_its_record_in_the_full_suite(config_name, seed):
    # a run does not depend on which checks are selected, at the config's seed or another
    full = _stripped_records(config_name, seed=seed)
    assert len(full) >= 4
    for rec in full:
        assert _stripped_records(config_name, [rec["name"]], seed) == [rec]


@pytest.mark.parametrize("config_name", BUNDLED)
def test_the_seed_option_reports_as_the_config_seed(tmp_path, config_name):
    # the benchmark's call: --seed 7 gives the report of the config with "seed": 7,
    # its config block included, wall times aside
    path = CONFIG_DIR / f"{config_name}.json"
    code, override = verify_report(tmp_path, path, "--seed", "7")
    assert override["seed"] == override["config"]["seed"] == 7
    assert (code, override) == verify_report(tmp_path, {**json.loads(path.read_text()), "seed": 7})


@pytest.mark.parametrize("config_name", BUNDLED)
def test_the_only_option_reports_as_the_config_suite(tmp_path, config_name):
    # --only a,b gives the report of the config whose suite is [a, b], wall times aside
    path = CONFIG_DIR / f"{config_name}.json"
    suite = ["det-M-zero", "appendix-A"]
    code, override = verify_report(tmp_path, path, "--only", ",".join(suite))
    assert override["config"]["suite"] == [rec["name"] for rec in override["checks"]] == suite
    assert (code, override) == verify_report(tmp_path, {**json.loads(path.read_text()), "suite": suite})


def test_an_override_replaces_the_file_value_before_validation(tmp_path):
    # a bad seed or suite in the file is never read when --seed and --only replace it;
    # --out and --format are not echoed in the config block
    raw = {**base_config(), "seed": -5, "suite": ["bogus"]}
    code, report = verify_report(tmp_path, raw, "--seed", "7", "--only", " appendix-A, ",
                           "--format", "json")
    assert code == 0
    assert report["config"] == {**raw, "seed": 7, "suite": ["appendix-A"]}


def test_seed_override_changes_digest():
    cfg = load_config(CONFIG_DIR / "degenerate_ytr.json")
    rep1 = run_suite(cfg)
    cfg.seed = cfg.seed + 1
    rep2 = run_suite(cfg)
    assert rep1["checks"][0]["inputs_digest"] != rep2["checks"][0]["inputs_digest"]


def test_main_entry_returns_int():
    assert main(["list-checks"]) == 0


def test_main_builds_one_parser_per_process(tmp_path, capsys):
    # list-checks, explain and verify share the cached parser and behave as in a fresh process
    cli._build_parser.cache_clear()
    assert main(["list-checks"]) == 0
    assert capsys.readouterr().out == run_cli("list-checks")[1]
    assert main(["explain", "det-M-zero"]) == 0
    assert capsys.readouterr().out == run_cli("explain", "det-M-zero")[1]
    assert main(["explain", "bogus"]) == 2
    reports = []
    for name in ("first.json", "second.json"):
        assert main(["verify", "--config", str(CONFIG_DIR / "periodic_n1_N3.json"),
                     "--only", "det-M-zero", "--out", str(tmp_path / name)]) == 0
        [rec] = json.loads((tmp_path / name).read_text())["checks"]
        del rec["wall_time_s"]
        reports.append(rec)
    assert reports[0] == reports[1] and reports[0]["passed"]
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


# the checks each bundled config's suite runs
SUITE_SIZES = {"degenerate_ytr": 1, "maba_s2_N2": 10, "periodic_n1_N3": 11, "periodic_n2_N4": 11}


@pytest.mark.slow
@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("config_name", BUNDLED)
def test_bundled_config_all_green(tmp_path, config_name, seed):
    # every bundled config passes at seeds 1 to 5 (exit 0), not only at its own
    options = [] if seed is None else ["--seed", str(seed)]
    start = time.monotonic()
    code, report = verify_report(tmp_path, CONFIG_DIR / f"{config_name}.json", *options)
    elapsed = time.monotonic() - start
    assert code == 0 and report["suite_passed"], report["checks"]
    assert elapsed < 60
    assert report["summary"]["total"] == SUITE_SIZES[config_name]
    if config_name == "maba_s2_N2":
        names = {rec["name"] for rec in report["checks"]}
        assert "maba-oracle" in names and "maba-asymptotics" in names
