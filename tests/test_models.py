"""Tests for the Y-model layer: generic class, periodic chain, twisted chain."""
import itertools

import numpy as np
import product_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from bdl.determinants import gaudin_matrix_contour
from bdl.errors import PoleError, TwistError
from bdl.identities import identity_a, identity_b
from bdl.linsys import build_m, build_omega, omega_derivative_route, solve_x, w_transform_check
from bdl.models import (PeriodicChainSpec, TwistSpec, YModel, _horner, alpha_values,
                        bethe_jacobian, chain_y, chain_y_model, lambda1, lambda2, lambda_eval,
                        maba_f, random_y_model, y_eval, y_maba, y_periodic, y_removed, ytr_model)
from bdl.oracle import solve_bethe_roots, transfer
from bdl.rational import esp_all, g_prod

from conftest import C_STD, cached_roots, draw_points, make_chain, make_twist


# ---------------------------------------------------------------------------
# generic class


def test_y_eval_empty_set_is_alpha0():
    rng = np.random.default_rng(0)
    model = random_y_model(rng, 1.1, 3)
    z = 0.7 - 0.2j
    assert y_eval(model, z, []) == pytest.approx(npoly.polyval(z, model.alpha[0]))


def test_y_eval_two_independent_routes():
    # per-term evaluation with explicitly computed symmetric polynomials
    rng = np.random.default_rng(1)
    model = random_y_model(rng, 0.9 + 0.4j, 4)
    for _ in range(10):
        vals = draw_points(rng, 4)
        z = complex(rng.normal(), rng.normal())
        sig = esp_all(vals)
        direct = sum(npoly.polyval(z, model.alpha[p]) * sig[p] for p in range(5))
        assert y_eval(model, z, vals) == pytest.approx(direct, rel=1e-12)


def test_y_eval_symmetric_in_set():
    rng = np.random.default_rng(2)
    model = random_y_model(rng, 1.3, 5)
    vals = draw_points(rng, 5)
    z = 0.4 + 0.9j
    ref = y_eval(model, z, vals)
    for _ in range(5):
        perm = list(rng.permutation(5))
        assert y_eval(model, z, [vals[i] for i in perm]) == pytest.approx(ref, rel=1e-12)


def test_y_eval_affine_in_each_element():
    # second finite difference in any one v_j vanishes
    rng = np.random.default_rng(3)
    model = random_y_model(rng, 1.3, 4)
    vals = draw_points(rng, 4)
    z = 1.2 - 0.5j
    h = 0.37
    for j in range(4):
        up = list(vals)
        down = list(vals)
        up[j] += h
        down[j] -= h
        second = y_eval(model, z, up) - 2 * y_eval(model, z, vals) + y_eval(model, z, down)
        assert abs(second) < 1e-12 * max(1.0, abs(y_eval(model, z, vals)))


def test_alpha_derivative_values_match_polyder(chain3, twist_std):
    models = [chain_y_model(chain3, 2), chain_y_model(make_chain(2), 2, twist_std),
              random_y_model(np.random.default_rng(3), 1.1, 3), ytr_model(1.3, 3)]
    zs = np.array([0.4 - 0.3j, -1.2 + 0.8j, 2.5 + 0.1j])
    for model in models:
        values = alpha_values(model, zs, derivative=True)
        assert values.shape == (len(zs), model.n_max + 1)
        for p, alpha in enumerate(model.alpha):
            expected = npoly.polyval(zs, npoly.polyder(alpha))
            assert np.allclose(values[:, p], expected, rtol=1e-13, atol=1e-13)


def test_alpha_rows_padded_from_sequences():
    # ytr_model gives alpha_p of degree n - p; the array pads them with zeros
    model = ytr_model(1.3, 2)
    assert model.alpha.shape == (3, 3)
    assert np.array_equal(model.alpha[2, 1:], [0.0, 0.0])
    z = 0.7 + 0.2j
    assert np.allclose(alpha_values(model, z),
                       [z ** 2 / 1.3 ** 2, -z / 1.3 ** 2, 1 / 1.3 ** 2])


# ---------------------------------------------------------------------------
# one Horner pass per model and point stack


@pytest.fixture
def horner_passes(monkeypatch):
    """(points, shape, derivative) of every Horner pass, recorded by a spy."""
    passes = []

    def spy(alpha, z, derivative):
        passes.append((z.tobytes(), z.shape, derivative))
        return _horner(alpha, z, derivative)
    monkeypatch.setattr("bdl.models._horner", spy)
    return passes


# each closed form, or pair of them, on one stack of three instances at n = 2,
# and the one point stack it reads Y at
TABLE_READERS = {
    "identity_a": (lambda m, w, u, v, j, k: identity_a(m, u, np.column_stack([v, w]), j, k),
                   lambda u, j, k: u[np.arange(3), k][:, None]),
    "identity_b": (lambda m, w, u, v, j, k: identity_b(m, u, v, j, k),
                   lambda u, j, k: u[np.arange(3), j][:, None]),
    "omega_routes": (lambda m, w, u, v, j, k: (omega_derivative_route(m, v, u),
                                               build_omega(m, v, u)),
                     lambda u, j, k: u),
    "build_m": (lambda m, w, u, v, j, k: build_m(m, v, u), lambda u, j, k: u),
    "w_transform_check": (lambda m, w, u, v, j, k: w_transform_check(m, v, u, w),
                          lambda u, j, k: u),
    "solve_x_after_build_m": (lambda m, w, u, v, j, k: solve_x(build_m(m, v, u)),
                              lambda u, j, k: u),
}


@pytest.mark.parametrize("name", sorted(TABLE_READERS))
def test_one_table_per_point_stack(name, horner_passes):
    rng = np.random.default_rng(30)
    model = random_y_model(rng, np.array([1.1, 0.8 + 0.3j, 1.3 - 0.2j]), 3)
    pts = np.array([draw_points(rng, 6) for _ in range(3)])
    w, u, v = pts[:, 0], pts[:, 1:4], pts[:, 4:]
    j, k = np.array([0, 2, 1]), np.array([1, 2, 0])
    run, points = TABLE_READERS[name]
    run(model, w, u, v, j, k)
    expected = points(u, j, k)
    assert horner_passes == [(expected.tobytes(), expected.shape, False)]


def test_a_kept_table_is_never_stale():
    # two models, two point stacks (one also reshaped: same bits, other shape) and
    # both derivative flags, alternated and repeated: every table equals a fresh
    # model's bit for bit and is read-only
    rng = np.random.default_rng(31)
    pair = [random_y_model(rng, 1.1, 3), random_y_model(rng, 0.8 + 0.3j, 3)]
    zs = np.array(draw_points(rng, 4))
    stacks = [zs, zs.reshape(2, 2), np.array(draw_points(rng, 4))]
    combos = list(itertools.product(range(2), range(3), (False, True)))
    fresh = {(m, p, d): alpha_values(YModel(pair[m].c, pair[m].alpha), stacks[p], d)
             for m, p, d in combos}
    # the flag, then the stack, then the model alternates from one call to the next
    order = (combos + sorted(combos, key=lambda c: (c[0], c[2]))
             + sorted(combos, key=lambda c: c[1:]))
    for m, p, d in order:
        for _ in range(2):
            table = alpha_values(pair[m], stacks[p], d)
            assert table.shape == fresh[m, p, d].shape
            assert table.tobytes() == fresh[m, p, d].tobytes()
            assert not table.flags.writeable
    # the points are keyed by their bits, so a stack changed in place is a new stack
    points = np.array(draw_points(rng, 4))
    alpha_values(pair[0], points)
    points[0] += 0.5
    fresh = alpha_values(YModel(pair[0].c, pair[0].alpha), points)
    assert alpha_values(pair[0], points).tobytes() == fresh.tobytes()


def test_model_alpha_is_a_read_only_copy():
    alpha = np.ones((2, 3), dtype=complex)
    model = YModel(1.0, alpha)
    alpha[0, 0] = 2.0
    assert model.alpha[0, 0] == 1.0
    with pytest.raises(ValueError):
        model.alpha[0, 0] = 0.0


finite = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(finite, min_size=1, max_size=5),
       st.lists(finite, min_size=1, max_size=4))
def test_removal_table_matches_explicit_subsets(seed, vals, zs):
    model = random_y_model(np.random.default_rng(seed), 1.1 - 0.2j, len(vals))
    table = y_removed(model, zs, vals)
    assert table.shape == (len(vals), len(zs))
    for j in range(len(vals)):
        rest = vals[:j] + vals[j + 1:]
        for k, z in enumerate(zs):
            ref = y_eval(model, z, rest)
            scale = sum(abs(npoly.polyval(abs(z), np.abs(model.alpha[p]))) * sig
                        for p, sig in enumerate(esp_all(np.abs(rest)).real))
            assert abs(table[j, k] - ref) <= 1e-13 * max(1.0, scale)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(finite, min_size=1, max_size=4))
def test_bethe_jacobian_matches_finite_differences(seed, vals):
    # the contour rule is a finite-difference stencil on a circle, exact for
    # polynomials up to rounding, so the bound sits near rounding; elements
    # may coincide, which neither side minds
    model = random_y_model(np.random.default_rng(seed), 0.9 + 0.3j, len(vals))
    jac = bethe_jacobian(model, vals)
    fd = gaudin_matrix_contour(model, vals)
    assert np.max(np.abs(jac - fd)) <= 1e-12 * max(1.0, float(np.max(np.abs(jac))))


def test_y_eval_rejects_oversized_set():
    model = random_y_model(np.random.default_rng(4), 1.0, 2)
    with pytest.raises(ValueError):
        y_eval(model, 0.0, [1.0, 2.0, 3.0])


def test_ytr_model_eigenvalue_is_one():
    model = ytr_model(1.3, 3)
    rng = np.random.default_rng(5)
    for _ in range(10):
        vals = draw_points(rng, 3)
        z = complex(rng.normal(), rng.normal())
        if min(abs(z - v) for v in vals) < 1e-3:
            continue
        assert lambda_eval(model, z, vals) == pytest.approx(1.0, rel=1e-10)


def test_lambda_eval_empty_set():
    model = random_y_model(np.random.default_rng(6), 1.1, 2)
    z = 0.3 + 0.1j
    assert lambda_eval(model, z, []) == pytest.approx(npoly.polyval(z, model.alpha[0]))


def test_lambda_eval_pole_on_collision():
    model = random_y_model(np.random.default_rng(7), 1.1, 2)
    with pytest.raises(PoleError):
        lambda_eval(model, 0.5, [0.5, 1.0])


def test_lambda_consistency_with_y():
    rng = np.random.default_rng(8)
    model = random_y_model(rng, 0.8 - 0.3j, 3)
    vals = draw_points(rng, 3)
    z = 2.2 + 0.4j
    assert lambda_eval(model, z, vals) == pytest.approx(
        g_prod(model.c, z, vals) * y_eval(model, z, vals), rel=1e-13)


# ---------------------------------------------------------------------------
# periodic chain


def test_y_periodic_empty_set():
    spec = make_chain(3)
    z = 0.9 - 0.1j
    assert y_periodic(spec, z, []) == pytest.approx(lambda1(spec, z) + lambda2(spec, z))


def test_y_periodic_matches_coefficient_model():
    spec = make_chain(3)
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        model = chain_y_model(spec, n)
        for _ in range(5):
            vals = draw_points(rng, n)
            z = complex(rng.normal(), rng.normal())
            a = y_periodic(spec, z, vals)
            b = y_eval(model, z, vals)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@pytest.mark.parametrize("twist", [None, make_twist(0), make_twist(101)])
def test_chain_y_stack_is_within_the_k_factor_bound(twist):
    # one stacked call over (sets, points) against the 40-digit product form at each point
    spec = PeriodicChainSpec(3, 1.3 - 0.2j, [0.3 + 0.1j, -0.45, 0.12], [0.5, 1.0, 1.5])
    rng = np.random.default_rng(31)
    for n in range(spec.magnon_capacity + 1):
        sets = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        zs = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        stacked = chain_y(spec, zs, sets[:, None, :], twist)
        model = chain_y_model(spec, n, twist)
        for i, j in np.ndindex(zs.shape):
            assert ref.chain_y(spec, zs[i, j], sets[i], twist).holds(stacked[i, j])
            assert abs(stacked[i, j] - y_eval(model, zs[i, j], sets[i])) <= 1e-13 * max(
                1.0, abs(stacked[i, j]))
            # negative control: a dropped or repeated factor leaves the bound
            for fault in (ref.DROPPED, ref.REPEATED):
                assert not ref.chain_y(spec, zs[i, j], sets[i], twist, fault).holds(
                    stacked[i, j])


def test_y_periodic_shifted_argument_kills_first_term():
    spec = make_chain(3)
    rng = np.random.default_rng(10)
    vals = draw_points(rng, 2)
    z = vals[0] + spec.c
    expected = lambda2(spec, z) * np.prod([(z - v + spec.c) for v in vals]) / spec.c ** 2
    assert y_periodic(spec, z, vals) == pytest.approx(complex(expected), rel=1e-12)


def test_lambda_vacuum_values_spin_half_and_one():
    spec = PeriodicChainSpec(2, C_STD, [0.25, -0.4], [0.5, 1.0])
    z = 0.6 + 0.2j
    expect1 = (z - 0.25 + C_STD) * (z + 0.4 + 1.5 * C_STD) / C_STD ** 2
    expect2 = (z - 0.25) * (z + 0.4 - 0.5 * C_STD) / C_STD ** 2
    assert lambda1(spec, z) == pytest.approx(expect1)
    assert lambda2(spec, z) == pytest.approx(expect2)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        PeriodicChainSpec(2, 0.0, [0.1, 0.2], [0.5, 0.5])
    with pytest.raises(ValueError):
        PeriodicChainSpec(2, 1.0, [0.1], [0.5, 0.5])
    with pytest.raises(ValueError):
        PeriodicChainSpec(2, 1.0, [0.1, 0.2], [0.5, 0.7])
    with pytest.raises(PoleError):
        PeriodicChainSpec(2, 1.0, [0.1, 0.1], [0.5, 0.5])


# ---------------------------------------------------------------------------
# twisted chain


def test_twist_constraints_hold():
    tw = make_twist(0)
    r1 = (tw.rho1 * tw.rho2 - tw.rho2 * tw.kappa_tilde - tw.rho1 * tw.kappa
          + tw.kappa_plus * tw.kappa_minus)
    scale1 = max(abs(tw.rho1 * tw.rho2), abs(tw.kappa_plus * tw.kappa_minus), 1e-30)
    r2 = tw.mu * (1.0 - tw.rho1 * tw.rho2 / (tw.kappa_plus * tw.kappa_minus)) - 1.0
    assert abs(r1) / scale1 < 1e-12
    assert abs(r2) < 1e-12


def test_twist_rejects_rho1_equal_kappa_tilde():
    with pytest.raises(TwistError):
        TwistSpec(kappa=1.0, kappa_tilde=0.7, kappa_plus=0.3, kappa_minus=0.4, rho1=0.7)


def test_twist_diagonal_limit_reduces_to_two_terms():
    # rho1 = rho2 = 0 requires vanishing off-diagonal product; third term drops
    tw = TwistSpec(kappa=0.8, kappa_tilde=1.2, kappa_plus=0.0, kappa_minus=0.9, rho1=0.0)
    assert tw.rho2 == 0.0
    spec = make_chain(2)
    rng = np.random.default_rng(11)
    vals = draw_points(rng, 2)
    z = 0.77 + 0.31j
    expected = (1.2 * lambda1(spec, z) * np.prod([(z - u - spec.c) for u in vals])
                + 0.8 * lambda2(spec, z) * np.prod([(z - u + spec.c) for u in vals])) / spec.c ** 2
    assert y_maba(spec, tw, z, vals) == pytest.approx(complex(expected), rel=1e-12)
    with pytest.raises(TwistError):
        _ = tw.mu


def test_maba_f_single_site_spin_half():
    spec = PeriodicChainSpec(1, C_STD, [0.3], [0.5])
    z = 1.4 - 0.6j
    assert maba_f(spec, z) == pytest.approx((z - 0.3 + C_STD) * (z - 0.3) / C_STD ** 2)


def test_y_maba_matches_coefficient_model():
    spec = make_chain(2)
    tw = make_twist(0)
    model = chain_y_model(spec, 2, tw)
    rng = np.random.default_rng(12)
    for _ in range(8):
        vals = draw_points(rng, 2)
        z = complex(rng.normal(), rng.normal())
        a = y_maba(spec, tw, z, vals)
        b = y_eval(model, z, vals)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("spins", [(0.5, 0.5, 0.5), (1.0, 0.5), (1.5, 1.0, 0.5)])
def test_periodic_chain_is_the_twist_free_case(spins):
    # K = identity with rho1 = 0: unit weights on the two terms and no f term
    spec = make_chain(len(spins), spins=spins)
    unit = TwistSpec(1, 1, 0, 0, 0)
    rng = np.random.default_rng(15)
    for n in range(1, spec.magnon_capacity + 1):
        zs = draw_points(rng, 4)
        vals = draw_points(rng, n, avoid=zs)
        assert np.array_equal(alpha_values(chain_y_model(spec, n, unit), zs),
                              alpha_values(chain_y_model(spec, n), zs))
        for z in zs:
            assert y_maba(spec, unit, z, vals) == y_periodic(spec, z, vals)


def test_chain_y_model_is_built_once_per_chain_size_and_twist(twist_std):
    spec = make_chain(3)
    model = chain_y_model(spec, 2)
    assert chain_y_model(spec, 2) is model
    assert chain_y_model(spec, 1) is not model and chain_y_model(spec, 2, twist_std) is not model
    fresh = PeriodicChainSpec(spec.n_sites, spec.c, spec.theta, spec.spins)
    assert chain_y_model(fresh, 2) is not model
    assert np.array_equal(chain_y_model(fresh, 2).alpha, model.alpha)
    with pytest.raises(ValueError):  # shared, so read-only
        model.alpha[0, 0] = 0.0


def test_maba_eigenvalue_asymptotics():
    # Lambda(u | v) * (c/u)^N approaches kappa + kappa_tilde with 1/U error
    spec = make_chain(2)
    tw = make_twist(0)
    model = chain_y_model(spec, 2, tw)
    vbar = [0.21 + 0.4j, -0.9 - 0.2j]
    target = tw.kappa + tw.kappa_tilde
    errors = []
    for scale in (1e3, 1e4, 1e5):
        u = complex(scale, 0.3 * scale)
        lam = lambda_eval(model, u, vbar)
        errors.append(abs(lam * (spec.c / u) ** spec.n_sites - target) / abs(target))
    assert errors[0] < 1e-2
    for a, b in zip(errors, errors[1:]):
        assert b < a / 5  # consistent with 1/U decay


# ---------------------------------------------------------------------------
# root residuals


def test_root_residual_onshell_roots_vanish(chain3):
    res = cached_roots(chain3, 1)
    model = chain_y_model(chain3, 1)
    for roots in res.roots:
        assert np.max(np.abs(y_eval(model, roots, roots))) < 1e-10


def test_root_residual_generic_set_nonzero(chain3):
    model = chain_y_model(chain3, 2)
    vals = [0.4 + 0.3j, -0.8 - 0.1j]
    resid = y_eval(model, vals, vals)
    assert np.min(np.abs(resid)) > 1e-3


def test_single_root_matches_diagonalized_eigenvalue():
    spec = make_chain(2)
    res = cached_roots(spec, 1)
    assert len(res.roots) == 1
    v = res.roots[0][0]
    z0 = 0.9 + 0.4j
    lam = g_prod(spec.c, z0, [v]) * y_periodic(spec, z0, [v])
    eigs = np.linalg.eigvals(transfer(spec, z0, np.eye(4)))
    assert np.min(np.abs(eigs - lam)) < 1e-9 * max(1.0, abs(lam))



def test_lax_parts_and_bands_are_built_once_per_spin_and_read_only():
    # a chain's numbers never enter them, so chains with the same site spins share them
    a = PeriodicChainSpec(3, 1.3, [0.3, -0.45, 0.12], [0.5, 1.0, 0.5])
    b = PeriodicChainSpec(2, 0.9 + 0.2j, [0.7, 0.1], [1.0, 0.5])
    assert a._lax_parts[1][1] is b._lax_parts[0][1]
    assert a._lax_bands[0][0] is a._lax_bands[2][0] is b._lax_bands[1][0]
    for arr in (*a._lax_parts[1], *a._lax_bands[1]):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 7.0
