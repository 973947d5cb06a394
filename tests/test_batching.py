"""Stacked evaluation and the checks built on it.

``omega-two-paths``, ``appendix-A`` and ``appendix-B`` draw 100 random
members of the Y-class each, in one block per set size, and evaluate each
block in one stacked pass.  The chain checks (``det-M-zero``,
``lse-residual``, ``w-transform``, ``solution-ray``,
``scalar-product-oracle``, ``maba-oracle``) stack their root sets and draws
the same way, one block per set size.  These tests pin that a stack equals a
loop over its members, that ``_separated_rows`` draws the points of the
block draw (``tests/draw_reference.py``) and of the one-point-at-a-time draw
bit for bit, from the same stream, that the checks' inputs are pinned by a digest
that covers every drawn input, that the group maximum sees every member, and
that the checks call the evaluators per set size, not per trial or instance.
"""
import dataclasses
import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdl import checks, identities, linsys, models, oracle
from bdl.checks import (POINT_MIN_SEP, POINT_SCALE, RANDOM_TRIALS, CheckContext,
                        _separated_rows, check_izergin_oracle, run_suite)
from bdl.config import load_config
from bdl.errors import PoleError, RankDeficiencyError
from bdl.identities import identity_a, identity_b, rel_error
from bdl.linsys import (action_table, build_m, build_omega, omega_derivative_route,
                        scaled_det_residual, scaled_minors, solve_x, w_transform_check)
from bdl.models import (YModel, alpha_values, lambda_eval, omega_columns, random_y_model,
                        y_removed)
from bdl.rational import g_table

from conftest import ROOT, draw_points
from draw_reference import _take_separated, block_rows

RANDOM_CLASS = ["omega-two-paths", "appendix-A", "appendix-B"]


def _config(suite, seed=None, name="periodic_n1_N3"):
    config = load_config(ROOT / "configs" / f"{name}.json")
    config.suite = list(suite)
    if seed is not None:
        config.seed = seed
    return config


def _close(stacked, single):
    scale = max(float(np.max(np.abs(single), initial=0.0)), 1e-300)
    return float(np.max(np.abs(stacked - single), initial=0.0)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# a stack equals a loop over its members


def stack_models(members) -> YModel:
    """One model whose first axis runs over the given same-shape models."""
    return YModel(c=np.array([m.c for m in members]), alpha=np.stack([m.alpha for m in members]))


def _stack(seed, size, n):
    rng = np.random.default_rng(seed)
    members = [random_y_model(rng, complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5)), n + 1)
               for _ in range(size)]
    pts = np.array([draw_points(rng, 2 * n + 2) for _ in range(size)])
    idx = rng.integers(0, n + 1, size=(2, size))
    return members, stack_models(members), pts, idx


def _solved(sysm):
    """solve_x, or None where M is rank-deficient."""
    try:
        return solve_x(sysm)
    except RankDeficiencyError:
        return None


# measures of size about 1 whose values are rounding noise: compared absolutely
RESIDUALS = {"scaled_det", "residual", "det_w", "closed_form", "row_onshell",
             "row_offshell_min", "omega_rows", "ray"}


def _evaluate(model, pts, n, j, k):
    """Every stacked evaluator on one instance or a stack: vbar, ubar, w_free from pts."""
    vbar, ubar, w_free = pts[..., :n], pts[..., n:2 * n + 1], pts[..., 2 * n + 1]
    sysm = build_m(model, vbar, ubar)
    out = {
        "alpha": alpha_values(model, pts),
        "alpha'": alpha_values(model, pts, derivative=True),
        "removed": y_removed(model, pts, ubar),
        "omega": omega_columns(model, vbar, ubar),
        "omega_derivative": omega_derivative_route(model, vbar, ubar),
        "identity_a": identity_a(model, pts[..., :n + 1], pts[..., n + 1:], j, k),
        "lambda": lambda_eval(model, ubar, vbar),
        "action": action_table(model, ubar),
        "m": sysm.m,
        "minors": scaled_minors(model.c, build_omega(model, vbar, ubar), ubar, vbar),
        "scaled_det": scaled_det_residual(sysm.m),
        **w_transform_check(model, vbar, ubar, w_free),
    }
    if n:
        out["identity_b"] = identity_b(model, ubar, vbar, j % n, k % n)
    return out, sysm, _solved(sysm)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 5), n=st.integers(0, 4))
def test_stacked_evaluators_equal_a_loop_over_members(seed, size, n):
    members, stack, pts, (j, k) = _stack(seed, size, n)
    assert stack.alpha.shape == (size, n + 2, 4) and stack.n_max == n + 1
    stacked, sysm, sol = _evaluate(stack, pts, n, j, k)
    for i, model in enumerate(members):
        single, single_sysm, single_sol = _evaluate(model, pts[i], n, j[i], k[i])
        for key, value in single.items():
            if key.startswith("identity"):
                (lhs, rhs), (lhs_i, rhs_i) = stacked[key], value
                assert _close(lhs[i], lhs_i) and _close(rhs[i], rhs_i), key
                assert rel_error(lhs, rhs)[i] == pytest.approx(rel_error(lhs_i, rhs_i), abs=1e-13)
            elif key in RESIDUALS:
                assert isinstance(value, float), key
                assert abs(stacked[key][i] - value) <= 1e-13, key
            else:
                assert _close(stacked[key][i], value), key
        assert sysm.scale[i] == pytest.approx(single_sysm.scale, rel=1e-13)
        # a stack with one rank-deficient member raises, as that member alone does
        if single_sol is None:
            assert sol is None
        elif sol is not None:
            assert _close(sol.x[i], single_sol.x)
            assert _close(sol.minors[i], single_sol.minors)
            assert abs(sol.residual[i] - single_sol.residual) <= 1e-13


def test_scaled_minors_of_a_stack_are_bit_identical_to_its_members():
    # the products are rounded as scalars, so the stack does not fuse them
    _, stack, pts, _ = _stack(5, 4, 3)
    vbar, ubar = pts[:, :3], pts[:, 3:7]
    omega = omega_columns(stack, vbar, ubar)
    stacked = scaled_minors(stack.c, omega, ubar, vbar)
    for i in range(4):
        assert stacked[i].tolist() == scaled_minors(stack.c[i], omega[i], ubar[i], vbar[i]).tolist()


def test_solve_x_returns_the_scaled_minors_of_omega():
    # the minors solve_x normalizes by are the scaled minors of build_omega, bit for bit
    _, stack, pts, _ = _stack(5, 4, 3)
    vbar, ubar = pts[:, :3], pts[:, 3:7]
    sol = solve_x(build_m(stack, vbar, ubar))
    expected = scaled_minors(stack.c, build_omega(stack, vbar, ubar), ubar, vbar)
    assert np.array_equal(sol.minors, expected)


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


def test_a_coupling_array_draws_a_stack_member_by_member():
    c = np.array([1.1 - 0.2j, 0.7 + 0.1j, 1.3 + 0.4j])
    batched = random_y_model(np.random.default_rng(9), c, 3)
    rng = np.random.default_rng(9)
    members = stack_models([random_y_model(rng, ci, 3) for ci in c])
    assert np.array_equal(batched.alpha, members.alpha) and np.array_equal(batched.c, c)


# ---------------------------------------------------------------------------
# the row loop keeps the law of the block draw and of the one-point-at-a-time draw


def _take_in_order(cand_row, kept_row, count, near=operator.le):
    """The draw law, one candidate at a time."""
    taken = list(kept_row)
    for z in cand_row:
        if len(taken) == count:
            break
        if not any(near(abs(z - w), POINT_MIN_SEP) for w in taken):
            taken.append(z)
    return taken


def _draw_in_order(rng, rows, count, avoid, near=operator.le):
    """The draw of ``_separated_rows``, one candidate at a time, from the same stream."""
    avoid = np.asarray(avoid, dtype=complex)
    want = avoid.shape[-1] + count
    expected = np.broadcast_to(avoid, (rows, avoid.shape[-1])).tolist()
    while short := [r for r in range(rows) if len(expected[r]) < want]:
        parts = rng.uniform(-checks.POINT_SCALE, checks.POINT_SCALE,
                            size=(len(short), checks.CANDIDATES_PER_POINT * count, 2))
        for r, cand in zip(short, parts[..., 0] + 1j * parts[..., 1]):
            expected[r] = _take_in_order(cand, expected[r], want, near)
    return np.array([e[avoid.shape[-1]:] for e in expected], dtype=complex).reshape(rows, count)


def _assert_draws_like_the_references(draw, make_rng, rows, count, avoid):
    """``draw`` gives the block draw's and the in-order draw's points, bit for bit,
    and leaves its generator where they leave theirs."""
    gens = [make_rng() for _ in range(3)]
    points = [f(rng, rows, count, avoid)
              for f, rng in zip([draw, block_rows, _draw_in_order], gens)]
    assert all(p.shape == (rows, count) for p in points)
    assert points[0].tobytes() == points[1].tobytes() == points[2].tobytes()
    after = [rng.uniform(size=4).tobytes() for rng in gens]
    assert after[0] == after[1] == after[2]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5), count=st.integers(1, 6),
       widths=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       box=st.sampled_from([0.4, 1.0, POINT_SCALE]))
def test_block_selection_equals_the_loop_over_candidates(seed, rows, count, widths, box):
    # blocks of candidates in a small box: rows run short and carry on
    rng = np.random.default_rng(seed)
    blocks = [rng.uniform(-box, box, (rows, w)) + 1j * rng.uniform(-box, box, (rows, w))
              for w in widths]
    kept = np.zeros((rows, count), dtype=complex)
    filled = np.zeros(rows, dtype=int)
    expected = [[] for _ in range(rows)]
    for cand in blocks:
        kept, filled = _take_separated(cand, kept, filled)
        expected = [_take_in_order(cand[r], expected[r], count) for r in range(rows)]
        assert filled.tolist() == [len(e) for e in expected]
        for r in range(rows):
            assert kept[r, :filled[r]].tolist() == expected[r]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 300), count=st.integers(1, 6),
       avoid=st.lists(st.complex_numbers(max_magnitude=POINT_SCALE), max_size=4),
       per_row=st.booleans(), box=st.sampled_from([0.8, 1.0, POINT_SCALE]),
       per_point=st.sampled_from([1, 2]))
def test_separated_rows_equal_the_block_draw_and_the_loop_over_candidates(
        seed, rows, count, avoid, per_row, box, per_point):
    # a small box or one candidate per point: rows run short and carry on with the
    # next block; the avoid points are one set for all rows or one per row
    avoid = np.array(avoid, dtype=complex)
    if per_row:
        avoid = avoid[np.random.default_rng(seed).integers(0, len(avoid) or 1,
                                                           size=(rows, len(avoid)))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "POINT_SCALE", box)
        mp.setattr(checks, "CANDIDATES_PER_POINT", per_point)
        _assert_draws_like_the_references(_separated_rows,
                                          functools.partial(np.random.default_rng, seed),
                                          rows, count, avoid)


class _Replay:
    """A generator stand-in whose every ``uniform`` block repeats the given points."""

    def __init__(self, points):
        self.parts = np.stack([np.real(points), np.imag(points)], axis=-1)

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.resize(self.parts, size)


def test_a_filter_that_keeps_a_candidate_at_the_separation_fails():
    # 0 lies exactly POINT_MIN_SEP from the avoid point: the law rejects it
    def keeps_at_the_separation(rng, rows, count, avoid):
        return _draw_in_order(rng, rows, count, avoid, near=operator.lt)
    replay = functools.partial(_Replay, [0, 1, -1, 1j])
    _assert_draws_like_the_references(_separated_rows, replay, 1, 2, [POINT_MIN_SEP])
    with pytest.raises(AssertionError):
        _assert_draws_like_the_references(keeps_at_the_separation, replay, 1, 2, [POINT_MIN_SEP])


def test_a_filter_that_skips_the_avoid_points_fails():
    def skips_the_avoid_points(rng, rows, count, avoid):
        return _separated_rows(rng, rows, count, ())
    grid = np.linspace(-POINT_SCALE, POINT_SCALE, 5)
    avoid = (grid[:, None] + 1j * grid[None, :]).ravel()
    make_rng = functools.partial(np.random.default_rng, 3)
    _assert_draws_like_the_references(_separated_rows, make_rng, 3, 3, avoid)
    with pytest.raises(AssertionError):
        _assert_draws_like_the_references(skips_the_avoid_points, make_rng, 3, 3, avoid)


def test_a_row_that_cannot_fill_raises():
    # MAX_CANDIDATES candidates in order keep about 60 points at POINT_MIN_SEP in the box
    with pytest.raises(RuntimeError):
        _separated_rows(np.random.default_rng(0), 2, 100, ())


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("low, high, picks", [(1, 5, None), (0, 5, 1), (1, 4, 0)])
def test_random_class_trials_are_separated_and_in_range(seed, low, high, picks):
    ctx = CheckContext(_config([]), np.random.default_rng(seed), {})
    groups = ctx.random_class_trials(low, high, lambda n: 2 * n + 2,
                                     picks=None if picks is None else lambda n: n + picks)
    assert sorted(groups) == list(groups) and set(groups) <= set(range(low, high))
    assert sum(len(group[1]) for group in groups.values()) == RANDOM_TRIALS
    labels = ["couplings", "alpha", "points"] + ([] if picks is None else ["picks"])
    assert [label for label, _ in ctx.drawn] == labels * len(groups)
    for n, (model, pts, *jk) in groups.items():
        size = 2 * n + 2
        assert pts.shape == (len(model.c), size)
        assert np.all(np.abs(pts.real) <= POINT_SCALE) and np.all(np.abs(pts.imag) <= POINT_SCALE)
        gaps = np.abs(pts[:, :, None] - pts[:, None, :]) + np.eye(size) * 2 * POINT_MIN_SEP
        assert np.all(gaps > POINT_MIN_SEP)
        assert model.alpha.shape == (len(model.c), n + 2, 4) and model.n_max == n + 1
        assert np.all(np.abs(model.alpha[..., -1].real) >= 0.5)
        if picks is None:
            assert jk == []
        else:
            jk = np.array(jk)
            assert jk.shape == (2, len(model.c)) and np.all((0 <= jk) & (jk < n + picks))


# ---------------------------------------------------------------------------
# the checks' draws are pinned


# izergin-oracle and transfer-action draw points only, through draw_points, and
# read no roots: their digests pin the one-row stream and no LAPACK rounding
PINNED = RANDOM_CLASS + ["izergin-oracle", "transfer-action"]
DIGESTS = {
    20250808: {"omega-two-paths": "9eb7fa00d2828a76", "appendix-A": "7b181f2f66ce6386",
               "appendix-B": "b78e922a98c6986b", "izergin-oracle": "ab571a1fdbf0b6b8",
               "transfer-action": "cb13b442d723202a"},
    1: {"omega-two-paths": "93769970c961d26f", "appendix-A": "8b8b80c78ffc4c68",
        "appendix-B": "7f3c6e311457bd0d", "izergin-oracle": "200ad5e08ed6f030",
        "transfer-action": "692f890897187364"},
}


def _digests(config):
    return {rec["name"]: rec["inputs_digest"] for rec in run_suite(config)["checks"]}


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_random_class_draws_are_pinned(seed):
    report = run_suite(_config(PINNED, seed))
    assert {rec["name"]: rec["inputs_digest"] for rec in report["checks"]} == DIGESTS[seed]
    assert report["suite_passed"]


def test_the_digest_covers_the_drawn_models(monkeypatch):
    # the same points and picks, other coefficients: the inputs differ, so must the digests
    before = _digests(_config(RANDOM_CLASS, 1))
    draw = checks.random_y_model

    def shifted(*args):
        model = draw(*args)
        return dataclasses.replace(model, alpha=model.alpha + 0.25)
    monkeypatch.setattr(checks, "random_y_model", shifted)
    after = _digests(_config(RANDOM_CLASS, 1))
    assert all(after[name] != before[name] for name in RANDOM_CLASS)


class _NextSites(np.random.Generator):
    """A generator whose ``choice(n, ...)`` moves every index to the next of n sites."""

    def choice(self, a, *args, **kwargs):
        return (super().choice(a, *args, **kwargs) + 1) % a


def test_the_digest_covers_the_theta_subset():
    # the same points, another subset of sites
    config = _config(["izergin-oracle"], 1)
    digests = [check_izergin_oracle(CheckContext(config, gen(np.random.PCG64(1)), {}))
               .inputs_digest for gen in (np.random.Generator, _NextSites)]
    assert digests[0] != digests[1]


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
            sides = identity(*args)
            groups.append(rel_error(*sides))
            return sides
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
    original, horner = models.alpha_values, models._horner
    calls, passes = [], []

    def counted(model, *args, **kwargs):
        calls.append(model.alpha.shape)
        return original(model, *args, **kwargs)

    def counted_pass(alpha, *args):
        passes.append(alpha.shape[-2])
        return horner(alpha, *args)
    monkeypatch.setattr(models, "alpha_values", counted)
    monkeypatch.setattr(models, "_horner", counted_pass)
    assert run_suite(_config([name]))["suite_passed"]
    sizes = {shape[-2] for shape in calls}
    # every call evaluates a stack, at most three calls per set size drawn
    assert all(len(shape) == 3 for shape in calls)
    assert 2 <= len(sizes) <= 5
    assert len(sizes) <= len(calls) <= 3 * len(sizes)
    # and the calls of one set size share one Horner pass
    assert sorted(passes) == sorted(sizes)


# ---------------------------------------------------------------------------
# the chain checks: one stacked block per set size, and every instance seen

# check -> (config, the module and function whose first stacked result is
# perturbed, the per-instance measure, the entries one member of that result
# reaches: an overlap member is one root set, with its draws or its n + 1 l)
CHAIN_CHECKS = {
    "det-M-zero": ("periodic_n2_N4", linsys, "action_table", "scaled_det", 1),
    "lse-residual": ("periodic_n2_N4", linsys, "action_table", "system_residual", 1),
    "solution-ray": ("periodic_n2_N4", linsys, "action_table", "system_residual", 1),
    "w-transform": ("periodic_n2_N4", linsys, "action_table", "closed_form", 1),
    "scalar-product-oracle": ("periodic_n2_N4", checks, "row_overlaps", "rel_err", 2),
    "maba-oracle": ("maba_s2_N2", checks, "row_overlaps", "rel_err", 3),
}


def _judged(name, monkeypatch):
    """The check's record and the measures it judged, one entry per instance (or per l)."""
    judged = {}
    record = checks._record

    def spy(ctx, check, measures, *args, **kwargs):
        judged.update({key: np.asarray(values) for key, values in measures.items()})
        return record(ctx, check, measures, *args, **kwargs)
    monkeypatch.setattr(checks, "_record", spy)
    rec = run_suite(_config([name], name=CHAIN_CHECKS[name][0]))["checks"][0]
    return rec, judged


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("name", sorted(CHAIN_CHECKS))
def test_one_perturbed_instance_fails_a_chain_check(name, perturbed, monkeypatch):
    # M's action part, or the oracle's pairings, of one instance scaled by 1 + 1e-6
    _, module, attr, key, per_member = CHAIN_CHECKS[name]
    if perturbed:
        monkeypatch.setattr(module, attr, _scaled_once(getattr(module, attr)))
    rec, judged = _judged(name, monkeypatch)
    tol = rec["tolerances"][key]
    values = judged[key]
    member = np.arange(MEMBER * per_member, (MEMBER + 1) * per_member)
    assert len(values) > len(member) + per_member
    others = np.delete(values, member)
    assert np.max(others) < 1e-2 * tol
    if not perturbed:
        assert rec["passed"] and np.max(values) < 1e-2 * tol
        return
    assert not rec["passed"] and rec["residuals"][key] > tol
    assert np.all(values[member] > tol)


# the counted evaluators each chain check calls per set size; maba-oracle
# reads its vacuum expectations off the dual rows, with no pairing
EVALUATORS = {
    "det-M-zero": ["build_m"],
    "lse-residual": ["build_m", "row_overlaps"],
    "solution-ray": ["build_m", "scaled_minors"],
    "w-transform": ["w_transform_check"],
    "scalar-product-oracle": ["row_overlaps"],
    "maba-oracle": ["row_overlaps"],
}


@pytest.mark.parametrize("name", sorted(CHAIN_CHECKS))
def test_chain_checks_evaluate_per_set_size(name, monkeypatch):
    calls = []

    def counted(module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)
    for module, attr in [(linsys, "build_m"), (checks, "build_m"), (checks, "_separated_rows"),
                         (checks, "row_overlaps"), (checks, "w_transform_check"),
                         (linsys, "scaled_minors"),
                         (checks, "scaled_minors")]:
        counted(module, attr)
    rec = run_suite(_config([name], name=CHAIN_CHECKS[name][0]))["checks"][0]
    sizes = 2 if CHAIN_CHECKS[name][0] == "periodic_n2_N4" else 1
    instances = int(rec["note"].split()[0])
    assert rec["passed"] and instances > 2 * sizes
    # one block draw and one call of each evaluator per set size, never per
    # instance: one W-transform call judges both eigenvalue arguments, and
    # solution-ray reads the minors that solve_x normalized by
    expected = ["_separated_rows"] + EVALUATORS[name]
    assert {attr: calls.count(attr) for attr in set(calls)} == {
        attr: sizes * expected.count(attr) for attr in expected}


def test_izergin_oracle_evaluates_each_set_size_in_one_call(monkeypatch):
    # every draw of a set size is one row of a single stacked izergin call
    shapes = []
    izergin = checks.izergin

    def spy(spec, vbar, idx):
        shapes.append((np.shape(vbar), np.shape(idx)))
        return izergin(spec, vbar, idx)
    monkeypatch.setattr(checks, "izergin", spy)
    config = _config(["izergin-oracle"], 1, name="periodic_n2_N4")
    [rec] = run_suite(config)["checks"]
    assert rec["passed"]
    assert shapes == [((config.draws, n), (config.draws, n)) for n in config.sizes]


@pytest.mark.parametrize("name", ["periodic_n2_N4", "maba_s2_N2"])
def test_root_solve_polishes_each_set_size_in_one_stacked_newton(name, monkeypatch):
    calls = []

    def counted(attr, arg):
        original = getattr(oracle, attr)

        def wrapper(*args, **kwargs):
            calls.append((attr, np.shape(args[arg])))
            return original(*args, **kwargs)
        monkeypatch.setattr(oracle, attr, wrapper)
    counted("chain_y", 2)
    counted("bethe_jacobian", 1)
    config = load_config(ROOT / "configs" / f"{name}.json")
    spec, twist = config.model.spec, config.model.twist
    for n in config.sizes:
        calls.clear()
        sets = oracle.solve_bethe_roots(spec, n, twist).seeds_used
        residuals = [shape for attr, shape in calls if attr == "chain_y"]
        jacobians = [shape for attr, shape in calls if attr == "bethe_jacobian"]
        # the starts' residual, then one Jacobian and one residual at the full
        # step per iteration, each stacked over the live sets; every full step
        # qualifies on these chains, so no set falls back to the ladder
        assert sets > 1 and jacobians and len(residuals) == len(jacobians) + 1
        assert residuals[0] == (sets, 1, n) and jacobians[0] == (sets, n)
        assert residuals[1] == (sets, 1, 1, n)
        assert [shape[1:] for shape in residuals[1:]] == [(1, 1, n)] * len(jacobians)
        assert [shape[0] for shape in residuals[1:]] == [shape[0] for shape in jacobians]
        assert all(shape[-1] == n for shape in jacobians)
