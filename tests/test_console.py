"""The console end to end: report formats, large, mixed-spin and twisted spin-3/2 chains,
extreme couplings, configs drawn across the accepted domain, and reports that do not
depend on string hashing.

Each case runs ``cli.main`` in-process, unless it needs an environment of its own: a
pinned BLAS thread count or a hash seed.
"""
import cmath
import csv
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdl.checks import applicable_checks, registry
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


# a number of magnitude 1e-200 .. 1e200, or near 1 half of the time, in one of eight
# directions, as a [re, im] pair
EXTREME = st.builds(lambda exponent, turn: 10.0 ** exponent * cmath.exp(1j * cmath.pi * turn / 4),
                    st.integers(-2, 2) | st.integers(-200, 200),
                    st.integers(0, 7)).map(lambda z: [z.real, z.imag])


@st.composite
def accepted_configs(draw):
    """A periodic or twisted chain of N <= 3 sites of spin 1/2, 1 or 3/2, distinct shifts,
    extreme numbers in every coupling, shift and twist entry, and a random --only subset of
    the checks that apply."""
    model_type = draw(st.sampled_from(["periodic-xxx", "maba-xxx"]))
    n_sites = draw(st.integers(1, 3))
    spins = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=n_sites, max_size=n_sites))
    model = {"type": model_type, "N": n_sites, "c": draw(EXTREME), "spins": spins,
             "theta": draw(st.lists(EXTREME, min_size=n_sites, max_size=n_sites,
                                    unique_by=tuple))}
    if model_type == "maba-xxx":
        model["twist"] = {key: draw(EXTREME) for key in
                          ("kappa", "kappa_tilde", "kappa_plus", "kappa_minus", "rho1")}
    names = [name for name in applicable_checks(model_type)
             if not registry()[name].spin_half_only or set(spins) == {0.5}]
    only = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    raw = {"model": model, "sizes": {"n": draw(st.lists(st.integers(0, 3), min_size=1,
                                                        max_size=3, unique=True))},
           "draws": 1, "seed": draw(st.integers(0, 2**32))}
    return raw, ",".join(only)


# a twist with rho1 near 1e200 leaves every minor NaN; solution-ray once took the spread of
# no ratios and raised ValueError (exit 3)
NAN_MINORS = ({"model": {"type": "maba-xxx", "N": 3, "c": [1.0, 0.0], "spins": [0.5] * 3,
                         "theta": [[-0.0707, -0.0707], [0.00707, -0.00707], [7e-171, -7e-171]],
                         "twist": {"kappa": [-1e-69, 0.0], "kappa_tilde": [-70.7, 70.7],
                                   "kappa_plus": [0.0707, -0.0707],
                                   "kappa_minus": [-7.07e59, -7.07e59],
                                   "rho1": [7.07e199, -7.07e199]}},
               "sizes": {"n": [2]}, "draws": 1, "seed": 46370}, "solution-ray")


@settings(max_examples=100, deadline=None)
@given(case=accepted_configs())
@example(case=NAN_MINORS)
@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_a_config_in_the_accepted_domain_never_exits_three(tmp_path_factory, case):
    # numpy's default warnings, as a user's run has them: an overflow warns, not raises
    raw, only = case
    directory = tmp_path_factory.mktemp("accepted")
    config = directory / "config.json"
    config.write_text(json.dumps(raw))
    code = main(["verify", "--config", str(config), "--only", only,
                 "--out", str(directory / "report.json")])
    assert code in (0, 1, 2), (raw, only)
