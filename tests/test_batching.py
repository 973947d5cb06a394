"""Stacked Y-class evaluation and the random-class checks built on it.

``omega-two-paths``, ``appendix-A`` and ``appendix-B`` draw 100 random
members of the Y-class each and evaluate all trials of one set size in one
stacked pass.  These tests pin that a stack equals a loop over its members,
that the checks still draw the same inputs, that the group maximum sees every
member, and that the checks call the evaluators per set size, not per trial.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdl import checks, identities, models
from bdl.checks import run_suite
from bdl.config import load_config
from bdl.errors import PoleError
from bdl.identities import identity_a, identity_b
from bdl.linsys import omega_derivative_route
from bdl.models import YModel, alpha_values, omega_columns, random_y_model, y_removed
from bdl.rational import g_table

from conftest import ROOT, draw_points

RANDOM_CLASS = ["omega-two-paths", "appendix-A", "appendix-B"]


def _config(suite, seed=None):
    config = load_config(ROOT / "configs" / "periodic_n1_N3.json")
    config.suite = list(suite)
    if seed is not None:
        config.seed = seed
    return config


def _close(stacked, single):
    scale = max(float(np.max(np.abs(single), initial=0.0)), 1e-300)
    return float(np.max(np.abs(stacked - single), initial=0.0)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# a stack equals a loop over its members


def _stack(seed, size, n):
    rng = np.random.default_rng(seed)
    members = [random_y_model(rng, complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5)), n + 1)
               for _ in range(size)]
    pts = np.array([draw_points(rng, 2 * n + 2) for _ in range(size)])
    idx = rng.integers(0, n + 1, size=(2, size))
    return members, YModel.stack(members), pts, idx


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 5), n=st.integers(0, 4))
def test_stacked_evaluators_equal_a_loop_over_members(seed, size, n):
    members, stack, pts, (j, k) = _stack(seed, size, n)
    vbar, ubar = pts[:, :n], pts[:, n:2 * n + 1]
    assert stack.alpha.shape == (size, n + 2, 4) and stack.n_max == n + 1
    stacked = {
        "alpha": alpha_values(stack, pts),
        "alpha'": alpha_values(stack, pts, derivative=True),
        "removed": y_removed(stack, pts, ubar),
        "omega": omega_columns(stack, vbar, ubar),
        "omega_derivative": omega_derivative_route(stack, vbar, ubar),
        "identity_a": identity_a(stack, pts[:, :n + 1], pts[:, n + 1:], j, k),
    }
    if n:
        stacked["identity_b"] = identity_b(stack, ubar, vbar, j % n, k % n)
    for i, model in enumerate(members):
        single = {
            "alpha": alpha_values(model, pts[i]),
            "alpha'": alpha_values(model, pts[i], derivative=True),
            "removed": y_removed(model, pts[i], ubar[i]),
            "omega": omega_columns(model, vbar[i], ubar[i]),
            "omega_derivative": omega_derivative_route(model, vbar[i], ubar[i]),
            "identity_a": identity_a(model, pts[i, :n + 1], pts[i, n + 1:], j[i], k[i]),
        }
        if n:
            single["identity_b"] = identity_b(model, ubar[i], vbar[i], j[i] % n, k[i] % n)
        for key, value in single.items():
            if key.startswith("identity"):
                rep = stacked[key]
                assert _close(rep.lhs[i], value.lhs) and _close(rep.rhs[i], value.rhs), key
                assert rep.relative_error[i] == pytest.approx(value.relative_error, abs=1e-13)
            else:
                assert _close(stacked[key][i], value), key


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 5), n=st.integers(1, 4),
       data=st.data())
def test_one_coincident_pair_in_a_stack_raises(seed, size, n, data):
    _, stack, pts, _ = _stack(seed, size, n)
    vbar, ubar = pts[:, :n], pts[:, n:2 * n + 1]
    member = data.draw(st.integers(0, size - 1))
    ubar[member, data.draw(st.integers(0, n))] = vbar[member, data.draw(st.integers(0, n - 1))]
    with pytest.raises(PoleError):
        g_table(stack.c, ubar, vbar)
    with pytest.raises(PoleError):
        omega_columns(stack, vbar, ubar)


def test_stack_needs_same_shape_models():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        YModel.stack([random_y_model(rng, 1.1, 2), random_y_model(rng, 1.1, 3)])


# ---------------------------------------------------------------------------
# the checks draw what the per-trial implementation drew


DIGESTS = {
    20250808: {"omega-two-paths": "111f5d99961cba72", "appendix-A": "fba8347aa7df9341",
               "appendix-B": "1ca6a76ea94dfa39"},
    1: {"omega-two-paths": "4edf9d42f9d0298d", "appendix-A": "32f58163d1b989b1",
        "appendix-B": "b56120f6e71a7baa"},
}


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_random_class_draws_are_unchanged(seed):
    report = run_suite(_config(RANDOM_CLASS, seed))
    assert {rec["name"]: rec["inputs_digest"] for rec in report["checks"]} == DIGESTS[seed]
    assert report["suite_passed"]


# ---------------------------------------------------------------------------
# negative controls: the group maximum sees every member

PERTURBATION = 1e-6
MEMBER = 1


def _scaled_once(fn, applies=lambda *args, **kwargs: True):
    """fn, with member MEMBER of its first stacked result scaled by 1 + PERTURBATION."""
    done = []

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if not done and applies(*args, **kwargs):
            done.append(True)
            out = np.array(out)
            out[MEMBER] *= 1 + PERTURBATION
        return out
    return wrapped


def _member_errors(name, monkeypatch):
    """Per-member errors of each stacked group, in call order."""
    groups = []
    if name == "omega-two-paths":
        pending = {}

        def spy_on(route):
            build = getattr(checks, route)

            def spy(model, vbar, ubar):
                pending[route] = out = build(model, vbar, ubar)
                if len(pending) == 2:
                    oa, ob = pending.pop("omega_derivative_route"), pending.pop("build_omega")
                    scale = np.maximum(np.maximum(np.abs(oa), np.abs(ob)), 1e-30)
                    groups.append(np.max(np.abs(oa - ob) / scale, axis=(-2, -1)))
                return out
            monkeypatch.setattr(checks, route, spy)
        spy_on("omega_derivative_route")
        spy_on("build_omega")
    else:
        attr = "identity_a" if name == "appendix-A" else "identity_b"
        identity = getattr(checks, attr)

        def spy(*args):
            rep = identity(*args)
            groups.append(rep.relative_error)
            return rep
        monkeypatch.setattr(checks, attr, spy)
    return groups


def _perturb(name, monkeypatch):
    if name == "omega-two-paths":  # the derivative route only
        monkeypatch.setattr(checks, "omega_derivative_route",
                            _scaled_once(checks.omega_derivative_route))
    elif name == "appendix-A":  # the right-hand side Y(u_k | wbar_j) only
        monkeypatch.setattr(identities, "y_eval", _scaled_once(identities.y_eval))
    else:  # the Omega entries of the left-hand side only
        monkeypatch.setattr(identities, "omega_columns", _scaled_once(identities.omega_columns))


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("name", RANDOM_CLASS)
def test_one_perturbed_member_fails_the_check(name, perturbed, monkeypatch):
    if perturbed:
        _perturb(name, monkeypatch)
    groups = _member_errors(name, monkeypatch)
    rec = run_suite(_config([name]))["checks"][0]
    tol = rec["tolerances"]
    (residual,) = rec["residuals"].values()
    assert len(groups) > 1 and len(groups[0]) > MEMBER
    assert sum(len(errs) for errs in groups) == checks.RANDOM_TRIALS
    if not perturbed:
        assert rec["passed"] and residual < 1e-12
        return
    assert not rec["passed"] and 5e-7 < residual < 2e-6, (residual, tol)
    first = groups[0]
    assert 5e-7 < first[MEMBER] < 2e-6
    others = np.concatenate([np.delete(first, MEMBER)] + groups[1:])
    assert np.max(others) < 1e-12


# ---------------------------------------------------------------------------
# one stacked pass per set size, not one call per trial


@pytest.mark.parametrize("name", RANDOM_CLASS)
def test_random_class_checks_evaluate_per_set_size(name, monkeypatch):
    original = models.alpha_values
    calls = []

    def counted(model, *args, **kwargs):
        calls.append(model.alpha.shape)
        return original(model, *args, **kwargs)
    monkeypatch.setattr(models, "alpha_values", counted)
    assert run_suite(_config([name]))["suite_passed"]
    sizes = {shape[-2] for shape in calls}
    # every call evaluates a stack, at most three calls per set size drawn
    assert all(len(shape) == 3 for shape in calls)
    assert 2 <= len(sizes) <= 5
    assert len(sizes) <= len(calls) <= 3 * len(sizes)
