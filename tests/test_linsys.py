"""Tests for the linear system, its null ray, and the proof machinery."""
import numpy as np
import pytest

from bdl.errors import RankDeficiencyError
from bdl.linsys import (build_m, build_omega, jacobian_form, l_coeff,
                        minor_vector, numerical_rank, omega_columns,
                        omega_minor, ray_distance, scaled_det_residual,
                        solve_x, w_matrix, w_transform_check)
from bdl.models import (bethe_jacobian, maba_y_model, periodic_y_model,
                        random_y_model, y_eval, ytr_model)
from bdl.oracle import bethe_vector, chain_space, transfer
from bdl.rational import delta, g_prod

from conftest import cached_roots, draw_points, make_chain, make_twist


# ---------------------------------------------------------------------------
# action coefficients


def test_l_coeff_diagonal_formula():
    rng = np.random.default_rng(0)
    model = random_y_model(rng, 1.2, 3)
    ubar = draw_points(rng, 3)
    for j in range(3):
        rest = [u for i, u in enumerate(ubar) if i != j]
        expected = g_prod(model.c, ubar[j], rest) * y_eval(model, ubar[j], rest)
        assert l_coeff(model, ubar, j, j) == pytest.approx(expected, rel=1e-13)


def test_l_coeff_row_vanishes_when_complement_is_onshell(chain3):
    # ubar = roots + one free point: removing the free point leaves an on-shell
    # set, so every off-diagonal coefficient in that row vanishes
    res = cached_roots(chain3, 1)
    roots = list(res.roots[0])
    ubar = roots + [0.9 - 0.7j]
    model = periodic_y_model(chain3, 1)
    j_free = len(ubar) - 1
    scale = abs(l_coeff(model, ubar, j_free, j_free))
    for k in range(len(ubar)):
        if k != j_free:
            assert abs(l_coeff(model, ubar, j_free, k)) < 1e-9 * max(1.0, scale)


def test_action_expansion_on_oracle_vectors(chain3):
    # transfer(u_j) applied to the reduced product state expands with the
    # model-layer coefficients (N=3 spin-1/2, set sizes up to 3)
    space = chain_space(chain3)
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        model = periodic_y_model(chain3, n)
        ubar = draw_points(rng, n + 1, avoid=chain3.theta)
        vecs = [bethe_vector(chain3, np.delete(np.asarray(ubar), k), None, space)
                for k in range(n + 1)]
        for j in range(n + 1):
            lhs = transfer(chain3, ubar[j], None, space) @ vecs[j]
            rhs = sum(l_coeff(model, ubar, j, k) * vecs[k] for k in range(n + 1))
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


def test_action_expansion_twisted(twist_std):
    spec = make_chain(2)
    space = chain_space(spec)
    model = maba_y_model(spec, twist_std)
    rng = np.random.default_rng(2)
    ubar = draw_points(rng, 3, avoid=spec.theta)
    vecs = [bethe_vector(spec, np.delete(np.asarray(ubar), k), twist_std, space)
            for k in range(3)]
    for j in range(3):
        lhs = transfer(spec, ubar[j], twist_std, space) @ vecs[j]
        rhs = sum(l_coeff(model, ubar, j, k) * vecs[k] for k in range(3))
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


# ---------------------------------------------------------------------------
# closure matrix


def test_build_m_size_zero_is_scalar_zero():
    model = random_y_model(np.random.default_rng(3), 1.1, 1)
    sysm = build_m(model, [], [0.7 + 0.2j])
    assert sysm.m.shape == (1, 1)
    assert abs(sysm.m[0, 0]) < 1e-13 * sysm.scale


def test_det_m_vanishes_on_physical_instances(chain3):
    res = cached_roots(chain3, 1)
    model = periodic_y_model(chain3, 1)
    rng = np.random.default_rng(4)
    for roots in res.roots:
        for _ in range(3):
            ubar = draw_points(rng, 2, avoid=roots)
            sysm = build_m(model, list(roots), ubar)
            assert sysm.onshell
            assert scaled_det_residual(sysm.m) < 1e-8


def test_det_m_vanishes_for_generic_vbar_too():
    # the determinant identity is a property of the whole model class: it does
    # not rely on the root conditions (those tie X to actual inner products)
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        model = random_y_model(rng, 1.05 - 0.35j, n + 1)
        pts = draw_points(rng, 2 * n + 1)
        sysm = build_m(model, pts[:n], pts[n:])
        assert not sysm.onshell or n == 0
        assert scaled_det_residual(sysm.m) < 1e-10


def test_degenerate_model_collapses_to_zero_matrix():
    model = ytr_model(1.3, 2)
    rng = np.random.default_rng(6)
    pts = draw_points(rng, 5)
    sysm = build_m(model, pts[:2], pts[2:])
    assert np.max(np.abs(sysm.m)) < 1e-13 * sysm.scale
    assert np.max(np.abs(sysm.omega)) < 1e-13 * sysm.scale
    rank, _ = numerical_rank(sysm.m, scale=sysm.scale)
    assert rank == 0


# ---------------------------------------------------------------------------
# Omega


def test_omega_two_routes_agree():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        model = random_y_model(rng, complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5)), n + 1)
        pts = draw_points(rng, 2 * n + 1)
        oa = build_omega(model, pts[:n], pts[n:], route="derivative")
        ob = build_omega(model, pts[:n], pts[n:], route="substitution")
        scale = np.maximum(np.maximum(np.abs(oa), np.abs(ob)), 1e-30)
        assert np.max(np.abs(oa - ob) / scale) < 1e-10


def test_omega_unknown_route():
    model = random_y_model(np.random.default_rng(8), 1.0, 2)
    with pytest.raises(ValueError):
        build_omega(model, [0.1], [0.5, 0.9], route="quadrature")


def test_omega_vanishes_for_degenerate_model():
    model = ytr_model(0.9, 3)
    rng = np.random.default_rng(9)
    pts = draw_points(rng, 7)
    omega = omega_columns(model, pts[:3], pts[3:])
    assert np.max(np.abs(omega)) < 1e-12


def test_omega_minor_size_one():
    omega = np.array([[2.0 + 1.0j, -3.0 + 0.5j]])
    assert omega_minor(omega, 0) == pytest.approx(-3.0 + 0.5j)
    assert omega_minor(omega, 1) == pytest.approx(2.0 + 1.0j)


def test_omega_minor_empty_matrix_is_one():
    assert omega_minor(np.zeros((0, 1), dtype=complex), 0) == 1.0


def test_omega_full_rank_for_random_model():
    rng = np.random.default_rng(10)
    n = 3
    model = random_y_model(rng, 1.2 + 0.3j, n + 1)
    pts = draw_points(rng, 2 * n + 1)
    omega = omega_columns(model, pts[:n], pts[n:])
    rank, _ = numerical_rank(omega)
    assert rank == n
    assert any(abs(omega_minor(omega, ell)) > 1e-8 for ell in range(n + 1))


def test_gaudin_limit_of_omega(chain4):
    # columns evaluated at v + eps approach c * Jacobian with O(eps) error,
    # and one Richardson step improves the estimate
    res = cached_roots(chain4, 2)
    vbar = np.asarray(res.roots[0])
    model = periodic_y_model(chain4, 2)
    target = chain4.c * bethe_jacobian(model, vbar)

    def omega_at(eps):
        return omega_columns(model, vbar, vbar + eps)

    scale = np.max(np.abs(target))
    err3 = np.max(np.abs(omega_at(1e-3) - target)) / scale
    err4 = np.max(np.abs(omega_at(1e-4) - target)) / scale
    assert err4 < err3 / 5  # first-order decay
    richardson = (10 * omega_at(1e-4) - omega_at(1e-3)) / 9
    assert np.max(np.abs(richardson - target)) / scale < err4 / 5


# ---------------------------------------------------------------------------
# null ray


def test_solve_x_residual_and_ratio(chain3):
    res = cached_roots(chain3, 1)
    model = periodic_y_model(chain3, 1)
    rng = np.random.default_rng(11)
    vbar = list(res.roots[0])
    ratios = []
    for _ in range(10):
        ubar = draw_points(rng, 2, avoid=vbar)
        sysm = build_m(model, vbar, ubar)
        sol = solve_x(sysm)
        assert sol.residual < 1e-8
        mv = minor_vector(sysm)
        ratios.extend((sol.x / mv).tolist())
    mean = np.mean(ratios)
    assert np.max(np.abs(np.asarray(ratios) - mean)) / abs(mean) < 1e-8


def test_solve_x_size_zero_convention():
    model = random_y_model(np.random.default_rng(12), 1.0, 1)
    sysm = build_m(model, [], [0.4])
    sol = solve_x(sysm)
    assert sol.x.tolist() == [1.0 + 0.0j]


def test_solve_x_rank_deficiency_reported():
    model = ytr_model(1.3, 2)
    rng = np.random.default_rng(13)
    pts = draw_points(rng, 5)
    sysm = build_m(model, pts[:2], pts[2:])
    with pytest.raises(RankDeficiencyError) as err:
        solve_x(sysm)
    assert err.value.rank == 0
    assert err.value.expected == 2
    assert err.value.gap < 1e-10


def test_nullray_antisymmetry_bookkeeping(chain4):
    # swapping two roots flips both the ordered-pair prefactor and the minor,
    # leaving their product unchanged
    res = cached_roots(chain4, 2)
    vbar = list(res.roots[0])
    model = periodic_y_model(chain4, 2)
    rng = np.random.default_rng(14)
    ubar = draw_points(rng, 3, avoid=vbar)
    c = chain4.c
    omega = omega_columns(model, vbar, ubar)
    omega_swapped = omega_columns(model, vbar[::-1], ubar)
    from bdl.rational import delta_prime
    for ell in range(3):
        a = delta_prime(c, vbar) * omega_minor(omega, ell)
        b = delta_prime(c, vbar[::-1]) * omega_minor(omega_swapped, ell)
        assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# row reduction


def test_w_matrix_determinant_formula():
    rng = np.random.default_rng(15)
    for n in range(0, 5):
        c = complex(rng.uniform(0.7, 1.3), rng.uniform(-0.4, 0.4))
        pts = draw_points(rng, 2 * (n + 1))
        ubar, wbar = pts[:n + 1], pts[n + 1:]
        det_w = np.linalg.det(w_matrix(c, ubar, wbar))
        expected = delta(c, ubar) / delta(c, wbar)
        assert abs(det_w - expected) / abs(expected) < 1e-10


def test_w_transform_full_report(chain3):
    res = cached_roots(chain3, 1)
    vbar = list(res.roots[0])
    model = periodic_y_model(chain3, 1)
    rng = np.random.default_rng(16)
    ubar = draw_points(rng, 2, avoid=vbar)
    w_free = draw_points(rng, 1, avoid=vbar + ubar)[0]
    rep = w_transform_check(model, vbar, ubar, w_free)
    assert rep.det_w_error < 1e-10
    assert rep.closed_form_error < 1e-9
    assert rep.last_row_ratio < 1e-9
    assert rep.omega_row_error < 1e-9
    assert rep.equivalent_ray_distance < 1e-8
    assert rep.lambda_set_matches_pins


def test_w_transform_decoupled_eigenvalue_row_survives(chain3):
    res = cached_roots(chain3, 1)
    vbar = list(res.roots[0])
    model = periodic_y_model(chain3, 1)
    rng = np.random.default_rng(17)
    ubar = draw_points(rng, 2, avoid=vbar)
    w_free = draw_points(rng, 1, avoid=vbar + ubar)[0]
    shifted = [v + 0.15 - 0.1j for v in vbar]
    rep = w_transform_check(model, vbar, ubar, w_free, lambda_set=shifted)
    assert not rep.lambda_set_matches_pins
    assert rep.last_row_ratio > 1e-3


def test_w_transform_generic_class():
    rng = np.random.default_rng(18)
    for n in (1, 2, 3, 4):
        model = random_y_model(rng, 1.1 - 0.25j, n + 1)
        pts = draw_points(rng, 2 * n + 2)
        vbar, ubar, w_free = pts[:n], pts[n:2 * n + 1], pts[-1]
        rep = w_transform_check(model, vbar, ubar, w_free)
        assert rep.det_w_error < 1e-10
        assert rep.closed_form_error < 1e-9
        assert rep.last_row_ratio < 1e-9   # the vanishing row is class-wide
        assert rep.omega_row_error < 1e-9


# ---------------------------------------------------------------------------
# determinant form of the minors


def test_jacobian_form_generic_models():
    rng = np.random.default_rng(19)
    for s in (1, 2, 3):
        model = random_y_model(rng, complex(rng.uniform(0.7, 1.2), rng.uniform(-0.4, 0.4)), s + 1)
        pts = draw_points(rng, 2 * s + 1)
        vbar, ubar = pts[:s], pts[s:]
        for ell in range(s + 1):
            rep = jacobian_form(model, vbar, ubar, ell)
            assert rep.rel_difference < 1e-9


def test_jacobian_form_twisted_instance(twist_std):
    spec = make_chain(2)
    res = cached_roots(spec, 2, twist=twist_std)
    vbar = list(res.roots[0])
    model = maba_y_model(spec, twist_std)
    rng = np.random.default_rng(20)
    ubar = draw_points(rng, 3, avoid=vbar)
    rep = jacobian_form(model, vbar, ubar)
    assert rep.rel_difference < 1e-9


def test_ray_distance_basics():
    a = np.array([1.0, 1.0j])
    assert ray_distance(a, 3.7j * a) < 1e-15
    assert ray_distance(a, np.array([1.0, -1.0j])) > 0.5


def test_rank_profiles_agree_between_m_and_equivalent_system(chain3):
    # the closure matrix and the reduced n x (n+1) system agree on how many
    # singular values are significant
    res = cached_roots(chain3, 1)
    vbar = list(res.roots[0])
    model = periodic_y_model(chain3, 1)
    rng = np.random.default_rng(30)
    ubar = draw_points(rng, 2, avoid=vbar)
    sysm = build_m(model, vbar, ubar)
    equiv = np.zeros((1, 2), dtype=complex)
    for k in range(2):
        equiv[0, k] = g_prod(model.c, ubar[k], [ubar[1 - k]]) * sysm.omega[0, k]
    rank_m, _ = numerical_rank(sysm.m, scale=sysm.scale)
    rank_e, _ = numerical_rank(equiv)
    assert rank_m == rank_e == 1
