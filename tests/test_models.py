"""Tests for the Y-model layer: generic class, periodic chain, twisted chain."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from bdl.determinants import gaudin_matrix_fd
from bdl.errors import PoleError, TwistError
from bdl.models import (PeriodicChainSpec, TwistSpec, alpha_values, bethe_jacobian,
                        chain_y_model, lambda1, lambda2, lambda_eval, maba_f,
                        random_y_model, y_eval, y_maba, y_periodic, y_removed, ytr_model)
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
    model = random_y_model(np.random.default_rng(seed), 0.9 + 0.3j, len(vals))
    jac = bethe_jacobian(model, vals)
    fd = gaudin_matrix_fd(model, vals)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(jac))))


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

