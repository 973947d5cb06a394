"""Negative controls: the chain checks must notice off-shell root sets.

Every root of every set is shifted by 1e-6 (1 + 0.5i), which leaves the sets
off-shell by far more than the 1e-12 polish.  Checks whose claim needs an
eigenstate must then fail; checks whose claim holds on the whole Y-class
(det M = 0, the row reduction, the solution ray) must still pass.
"""
from pathlib import Path

import pytest

from bdl import checks
from bdl.checks import run_suite
from bdl.config import load_config

ROOT = Path(__file__).resolve().parent.parent
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
