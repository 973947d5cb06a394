"""The known float64 failures, one strict xfail per check, on the chain where each fails.

Each test asserts that its check's record passed, so each fails today. A change that mends
one makes its test pass, and the strict marker then fails the run until the marker is
removed and the new value recorded. Each reason gives the value measured on a 2-core
x86-64 VM (numpy 2.4.6, OpenBLAS 0.3.31). No failure is yet attributed to a layer: the
roots, the closed forms or the oracle.

The ledger has not been run with any other numpy or BLAS, such as the older numpy that
Python 3.10 installs. The twisted spin-3/2 chain's root solve depends on the BLAS and on
numpy's complex products (one thread keeps 250 of its 256 root sets, two keep 249), so an
entry there may pass, and its strict marker fail, under another build.
"""
import json

import pytest

from conftest import edited_config, run_cli

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def periodic_N12(tmp_path_factory):
    """Records of the full suite on ``periodic_N12`` at seed 12, one BLAS thread."""
    directory = tmp_path_factory.mktemp("periodic_N12")
    config, out = directory / "periodic_N12.json", directory / "report.json"
    config.write_text(json.dumps(edited_config("periodic_N12", seed=12)))
    run_cli("verify", "--config", str(config), "--out", str(out),
            env={"OPENBLAS_NUM_THREADS": "1"})
    return {rec["name"]: rec for rec in json.loads(out.read_text())["checks"]}


@pytest.fixture(scope="module")
def twisted_s32(twisted_s32_run):
    """Records of the full suite on ``twisted_s32``, one BLAS thread."""
    return {rec["name"]: rec for rec in json.loads(twisted_s32_run[1])["checks"]}


# twisted_s32 keeps 250 of its 256 root sets at one thread, and each check that reads
# them also fails on that count
LEDGER = [
    ("twisted_s32", "det-M-zero", "250 of 256 root sets; scaled_det 6.7e-26 passes"),
    ("twisted_s32", "lse-residual", "system_residual 2.7e-5 > 1e-8"),
    ("twisted_s32", "w-transform",
     "det_w 2.9e-5 > 1e-10, ray 1.6e-5 > 1e-8, row_offshell_min 1.9e-11 < 1e-3"),
    ("twisted_s32", "solution-ray", "RankDeficiencyError: rank 11 < expected 12"),
    ("twisted_s32", "maba-oracle", "rel_err 3.9e-5 > 1e-7"),
    ("twisted_s32", "maba-asymptotics", "minor_product_final_err and _slope_dev null"),
    ("periodic_N12", "lse-residual", "system_residual 1.45e-4 > 1e-8"),
    ("periodic_N12", "scalar-product-oracle", "rel_err 8.8e-7 > 1e-8"),
]


@pytest.mark.parametrize("chain, check", [
    pytest.param(chain, check, id=f"{chain}-{check}", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"{reason}; layer unattributed"))
    for chain, check, reason in LEDGER])
def test_known_failure(request, chain, check):
    rec = request.getfixturevalue(chain)[check]
    assert rec["passed"], rec["note"]
