"""Negative controls: the chain checks must notice off-shell or perturbed inputs.

Every root of every set is shifted by 1e-6 (1 + 0.5i), which leaves the sets
off-shell by far more than the Newton polish, which ends near rounding.
Checks whose claim needs an eigenstate must then fail; checks whose claim
holds on the whole Y-class (det M = 0, the row reduction, the solution ray)
must still pass.

The two operator checks compare the oracle with a closed form at arbitrary
points: ``transfer-action`` fails when the action coefficients are off by a
relative 1e-6, ``izergin-oracle`` when the partition function sees shifts
moved by 1e-6.  ``w-transform`` fails when one row of Omega is off by a
relative 1e-6, and ``gaudin-norm`` when one entry of the analytic Jacobian
is off by a relative 1e-5 or one Jacobian determinant vanishes.  ``maba-asymptotics`` fails when one root set's
leading minor, or its eigenvalue, is off by a relative 1e-2.
"""
import math

import numpy as np
import pytest

from bdl import checks, determinants, linsys
from bdl.checks import run_suite
from bdl.config import load_config, parse_config
from bdl.models import PeriodicChainSpec

from conftest import ROOT, bench_module

SHIFT = 1e-6 * (1 + 0.5j)
NEED_EIGENSTATES = {"lse-residual", "gaudin-norm", "scalar-product-oracle", "maba-oracle"}
HOLD_OFF_SHELL = {"det-M-zero", "w-transform", "solution-ray"}

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def off_shell_records():
    solved = checks.CheckContext.root_sets

    def shifted(self, n):
        return [tuple(v + SHIFT for v in roots) for roots in solved(self, n)]

    configs = [load_config(path) for path in sorted((ROOT / "configs").glob("*.json"))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks.CheckContext, "root_sets", shifted)
        return [rec for cfg in configs if cfg.model.type != "degenerate-ytr"
                for rec in run_suite(cfg)["checks"]]


def test_off_shell_roots_fail_the_eigenstate_checks(off_shell_records):
    seen = {rec["name"] for rec in off_shell_records}
    assert NEED_EIGENSTATES <= seen
    for rec in off_shell_records:
        if rec["name"] in NEED_EIGENSTATES:
            assert not rec["passed"], rec


def test_class_wide_checks_pass_off_shell(off_shell_records):
    seen = {rec["name"] for rec in off_shell_records}
    assert HOLD_OFF_SHELL <= seen
    for rec in off_shell_records:
        if rec["name"] in HOLD_OFF_SHELL:
            assert rec["passed"], rec


OPERATOR_CHECKS = ["transfer-action", "izergin-oracle"]
PERTURBATION = 1e-6


def _operator_config(name: str):
    if name == "periodic_n2_N4":
        config = load_config(ROOT / "configs" / "periodic_n2_N4.json")
    else:  # the benchmark's N = 8 chain, D = 256
        config = parse_config(bench_module("workloads").oracle_dense_config(1))
    config.suite = list(OPERATOR_CHECKS)
    return config


def _perturb(monkeypatch, target: str) -> None:
    if target == "transfer-action":
        action_table = checks.action_table
        monkeypatch.setattr(checks, "action_table",
                            lambda *args: action_table(*args) * (1 + PERTURBATION))
    else:
        izergin = checks.izergin

        def shifted(spec, vbar, idx):
            theta = [t + PERTURBATION for t in spec.theta]
            return izergin(PeriodicChainSpec(spec.n_sites, spec.c, theta, spec.spins), vbar, idx)
        monkeypatch.setattr(checks, "izergin", shifted)


@pytest.mark.parametrize("target", [None] + OPERATOR_CHECKS)
@pytest.mark.parametrize("name", ["periodic_n2_N4", "oracle_dense_N8"])
def test_operator_checks_fail_only_when_perturbed(name, target, monkeypatch):
    if target is not None:
        _perturb(monkeypatch, target)
    passed = {rec["name"]: rec["passed"] for rec in run_suite(_operator_config(name))["checks"]}
    assert passed == {check: check != target for check in OPERATOR_CHECKS}


# A NaN measurement must fail its check, not vanish from the worst value.

NAN_ORACLE_CHECKS = [("periodic_n1_N3", "scalar-product-oracle"),
                     ("periodic_n1_N3", "izergin-oracle"),
                     ("periodic_n1_N3", "lse-residual"),
                     ("maba_s2_N2", "maba-oracle")]


def _single_check(config_name: str, check: str):
    config = load_config(ROOT / "configs" / f"{config_name}.json")
    config.suite = [check]
    [rec] = run_suite(config)["checks"]
    return rec


@pytest.mark.parametrize("config_name, check", NAN_ORACLE_CHECKS)
def test_one_nan_inner_product_fails_the_check(config_name, check, monkeypatch):
    assert _single_check(config_name, check)["passed"]
    direct = checks.overlaps
    pairings = []

    def second_is_nan(*args):
        # the second pairing, whether it comes alone or in a stacked call
        out = np.array(direct(*args), dtype=complex)
        flat = out.reshape(-1)
        if len(pairings) < 2 <= len(pairings) + flat.size:
            flat[1 - len(pairings)] = complex("nan")
        pairings.extend([None] * flat.size)
        return out
    monkeypatch.setattr(checks, "overlaps", second_is_nan)
    rec = _single_check(config_name, check)
    assert len(pairings) > 2
    assert not rec["passed"]
    assert not all(math.isfinite(v) for v in rec["residuals"].values()), rec


def test_a_nan_in_one_block_fails_the_check_and_instances_are_counted(monkeypatch):
    # det-M-zero judges periodic_n2_N4 in one block per set size (n = 1, 2);
    # _record reduces the joined blocks, so one NaN entry of the second block
    # is the worst value, and the note counts instances, not blocks
    assert _single_check("periodic_n2_N4", "det-M-zero")["passed"]
    residual, blocks = checks.scaled_det_residual, []

    def nan_in_second_block(m):
        out = residual(m)
        blocks.append(len(out))
        if len(blocks) == 2:
            out[1] = np.nan
        return out
    monkeypatch.setattr(checks, "scaled_det_residual", nan_in_second_block)
    rec = _single_check("periodic_n2_N4", "det-M-zero")
    assert len(blocks) == 2 and sum(blocks) > 2
    assert not rec["passed"] and math.isnan(rec["residuals"]["scaled_det"])
    assert rec["note"] == f"{sum(blocks)} instances; not finite (null in JSON): scaled_det"


@pytest.mark.parametrize("check", ["omega-two-paths", "appendix-A", "appendix-B"])
def test_random_class_notes_count_trials_not_set_sizes(check):
    # the trials are judged in one block per set size; the note counts every trial
    rec = _single_check("periodic_n2_N4", check)
    assert rec["passed"] and rec["note"] == f"{checks.RANDOM_TRIALS} random-class trials"


def test_nan_off_shell_row_fails_the_lower_bound(monkeypatch):
    transform = checks.w_transform_check

    def nan_off_shell(*args):
        rep = transform(*args)
        rep["row_offshell_min"] = np.full(np.shape(rep["row_offshell_min"]), np.nan)
        return rep
    monkeypatch.setattr(checks, "w_transform_check", nan_off_shell)
    rec = _single_check("periodic_n1_N3", "w-transform")
    assert not rec["passed"]
    assert math.isnan(rec["residuals"]["row_offshell_min"])
    # the upper-bounded measures still hold: the lower bound alone fails
    assert all(rec["residuals"][key] < rec["tolerances"][key]
               for key in ("det_w", "closed_form", "row_onshell", "ray"))


def test_scaled_omega_row_fails_w_transform(monkeypatch):
    # rows j < n of the transformed matrix must be Omega's rows; one row off
    # by a relative 1e-6 keeps the null ray, so only omega_rows can see it
    assert _single_check("periodic_n2_N4", "w-transform")["passed"]
    omega_columns = linsys.omega_columns

    def first_row_scaled(*args):
        omega = omega_columns(*args).copy()
        omega[..., 0, :] *= 1 + PERTURBATION
        return omega
    monkeypatch.setattr(linsys, "omega_columns", first_row_scaled)
    rec = _single_check("periodic_n2_N4", "w-transform")
    assert not rec["passed"]
    assert rec["residuals"]["omega_rows"] > rec["tolerances"]["omega_rows"]
    assert all(rec["residuals"][key] < rec["tolerances"][key]
               for key in ("det_w", "closed_form", "row_onshell", "ray"))


def test_scaled_jacobian_entry_fails_gaudin_norm(monkeypatch):
    # the contour rule reads Y alone, so it sees one analytic entry off by a
    # relative 1e-5; that entry is the largest of every Jacobian here
    assert _single_check("periodic_n2_N4", "gaudin-norm")["passed"]
    bethe_jacobian = determinants.bethe_jacobian

    def first_entry_scaled(*args):
        jac = bethe_jacobian(*args).copy()
        jac[..., 0, 0] *= 1 + 1e-5
        return jac
    monkeypatch.setattr(determinants, "bethe_jacobian", first_entry_scaled)
    rec = _single_check("periodic_n2_N4", "gaudin-norm")
    assert not rec["passed"]
    assert rec["residuals"]["fd"] > rec["tolerances"]["fd"]


def test_vanishing_jacobian_determinant_fails_gaudin_norm(monkeypatch):
    # the norm formula divides by the determinant: a zero one judges no state
    norm_check, record = checks.gaudin_norm_check, checks._record
    counts = []

    def zero_determinant(*args):
        rep = norm_check(*args)
        rep.determinants[0] = 0.0
        return rep

    def counted(ctx, name, measures, count, note, **kwargs):
        counts.append(count)
        return record(ctx, name, measures, count, note, **kwargs)
    monkeypatch.setattr(checks, "gaudin_norm_check", zero_determinant)
    monkeypatch.setattr(checks, "_record", counted)
    rec = _single_check("periodic_n2_N4", "gaudin-norm")
    assert counts == [0]
    assert not rec["passed"]
    assert rec["note"] == "vanishing Jacobian determinant"


@pytest.mark.parametrize("perturbed", [None, "scaled_minors", "lambda_eval"])
def test_one_root_set_off_fails_maba_asymptotics(perturbed, monkeypatch):
    # one root set's leading minor, or its eigenvalue, off by a relative 1e-2
    # at every scale: its error no longer decays, so the stacked pass fails
    omega_calls = []
    omega_columns = checks.omega_columns

    def counted(*args):
        omega_calls.append(args)
        return omega_columns(*args)
    monkeypatch.setattr(checks, "omega_columns", counted)
    if perturbed is not None:
        original = getattr(checks, perturbed)

        def one_set_scaled(*args):
            out = np.array(original(*args))
            if perturbed == "scaled_minors":  # (sets, scales, S + 1), the leading minor last
                out[1, :, -1] *= 1 + 1e-2
            else:  # (sets, scales)
                out[1] *= 1 + 1e-2
            return out
        monkeypatch.setattr(checks, perturbed, one_set_scaled)
    rec = _single_check("maba_s2_N2", "maba-asymptotics")
    assert len(omega_calls) == 1  # every root set at every scale in one pass
    off = {"scaled_minors": "minor_product", "lambda_eval": "eigenvalue"}.get(perturbed)
    for key, value in rec["residuals"].items():
        bound = rec["tolerances"]["slope_dev" if key.endswith("_slope_dev") else "final_err"]
        assert (value > bound) == (off is not None and key.startswith(off)), (key, value)
    assert rec["passed"] == (perturbed is None)
