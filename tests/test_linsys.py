"""Tests for the linear system, its null ray, and the proof machinery."""
import numpy as np
import product_reference as ref
import pytest

from bdl.checks import registry
from bdl.errors import PoleError, RankDeficiencyError
from bdl.linsys import (action_table, build_m, build_omega, l_coeff,
                        numerical_rank, omega_columns, omega_derivative_route, ray_distance,
                        scaled_det_residual, scaled_minors, solve_x, w_matrix,
                        w_transform_check)
from bdl.models import bethe_jacobian, chain_y_model, random_y_model, y_eval, ytr_model
from bdl.oracle import bethe_vector, transfer
from bdl.rational import delta, g_prod

from conftest import cached_roots, draw_points, make_chain


def minor(omega, ell):
    """Determinant of Omega with column ell removed, one column at a time."""
    return np.linalg.det(np.delete(omega, ell, axis=1))


def cofactor_route(model, vbar, ubar):
    """Delta(ubar_l) Delta'(vbar) minor_l(Omega) for every l, without Omega.

    The determinant of delta_jk Lambda(u_j | vbar) - g(u_j, ubar_j) Y(u_j | ubar_k)
    over j, k != l, times g(u_l, vbar) / g(u_l, ubar_l).  That matrix is -M
    transposed, so each value is a cofactor of M; its second term is the
    complement-set evaluation that plays the role of a derivative of Y lifted
    to the (n+1)-point set.
    """
    u = np.asarray(ubar, dtype=complex)
    n = len(vbar)
    m = build_m(model, vbar, u).m
    out = []
    for ell in range(n + 1):
        others = [i for i in range(n + 1) if i != ell]
        jmat = -m.T[np.ix_(others, others)]
        pref = g_prod(model.c, u[ell], vbar) / g_prod(model.c, u[ell], np.delete(u, ell))
        out.append(pref * (np.linalg.det(jmat) if n else 1.0))
    return np.array(out)


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


def test_array_matrices_match_scalar_loops():
    # per-entry references for the removal-table assembly of M and Omega
    rng = np.random.default_rng(14)
    for n in (1, 2, 3):
        model = random_y_model(rng, 0.9 - 0.3j, n + 1)
        pts = draw_points(rng, 2 * n + 1)
        vbar, ubar = pts[:n], pts[n:]
        sysm = build_m(model, vbar, ubar)
        omega = build_omega(model, vbar, ubar)
        action = action_table(model, ubar)
        for j in range(n + 1):
            lam = g_prod(model.c, ubar[j], vbar) * y_eval(model, ubar[j], vbar)
            for k in range(n + 1):
                expected = l_coeff(model, ubar, j, k) - (lam if j == k else 0.0)
                assert abs(sysm.m[j, k] - expected) <= 1e-12 * sysm.scale
                assert abs(action[j, k] - l_coeff(model, ubar, j, k)) <= 1e-12 * sysm.scale
        for j in range(n):
            for k, uk in enumerate(ubar):
                merged = [uk] + vbar[:j] + vbar[j + 1:]
                expected = model.c / (uk - vbar[j]) * y_eval(model, uk, merged)
                assert omega[j, k] == pytest.approx(expected, rel=1e-12)


def test_l_coeff_row_vanishes_when_complement_is_onshell(chain3):
    # ubar = roots + one free point: removing the free point leaves an on-shell
    # set, so every off-diagonal coefficient in that row vanishes
    res = cached_roots(chain3, 1)
    roots = list(res.roots[0])
    ubar = roots + [0.9 - 0.7j]
    model = chain_y_model(chain3, 1)
    j_free = len(ubar) - 1
    scale = abs(l_coeff(model, ubar, j_free, j_free))
    for k in range(len(ubar)):
        if k != j_free:
            assert abs(l_coeff(model, ubar, j_free, k)) < 1e-9 * max(1.0, scale)


def test_action_expansion_on_oracle_vectors(chain3):
    # transfer(u_j) applied to the reduced product state expands with the
    # model-layer coefficients (N=3 spin-1/2, set sizes up to 3)
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        model = chain_y_model(chain3, n)
        ubar = draw_points(rng, n + 1, avoid=chain3.theta)
        vecs = [bethe_vector(chain3, np.delete(np.asarray(ubar), k))
                for k in range(n + 1)]
        for j in range(n + 1):
            lhs = transfer(chain3, ubar[j], vecs[j])
            rhs = sum(l_coeff(model, ubar, j, k) * vecs[k] for k in range(n + 1))
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


def test_action_expansion_twisted(twist_std):
    spec = make_chain(2)
    model = chain_y_model(spec, 2, twist_std)
    rng = np.random.default_rng(2)
    ubar = draw_points(rng, 3, avoid=spec.theta)
    vecs = [bethe_vector(spec, np.delete(np.asarray(ubar), k), twist_std)
            for k in range(3)]
    for j in range(3):
        lhs = transfer(spec, ubar[j], vecs[j], twist_std)
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
    model = chain_y_model(chain3, 1)
    rng = np.random.default_rng(4)
    for roots in res.roots:
        for _ in range(3):
            ubar = draw_points(rng, 2, avoid=roots)
            assert np.max(np.abs(y_eval(model, roots, roots))) < 1e-10
            sysm = build_m(model, list(roots), ubar)
            assert scaled_det_residual(sysm.m) < 1e-8


def test_det_m_vanishes_for_generic_vbar_too():
    # the determinant identity is a property of the whole model class: it does
    # not rely on the root conditions (those tie X to actual inner products)
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        model = random_y_model(rng, 1.05 - 0.35j, n + 1)
        pts = draw_points(rng, 2 * n + 1)
        assert np.max(np.abs(y_eval(model, pts[:n], pts[:n]))) >= 1e-10
        sysm = build_m(model, pts[:n], pts[n:])
        assert scaled_det_residual(sysm.m) < 1e-10


def test_degenerate_model_collapses_to_zero_matrix():
    model = ytr_model(1.3, 2)
    rng = np.random.default_rng(6)
    pts = draw_points(rng, 5)
    sysm = build_m(model, pts[:2], pts[2:])
    assert np.max(np.abs(sysm.m)) < 1e-13 * sysm.scale
    assert np.max(np.abs(build_omega(model, pts[:2], pts[2:]))) < 1e-13 * sysm.scale
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
        oa = omega_derivative_route(model, pts[:n], pts[n:])
        ob = build_omega(model, pts[:n], pts[n:])
        scale = np.maximum(np.maximum(np.abs(oa), np.abs(ob)), 1e-30)
        assert np.max(np.abs(oa - ob) / scale) < 1e-10


def test_omega_vanishes_for_degenerate_model():
    model = ytr_model(0.9, 3)
    rng = np.random.default_rng(9)
    pts = draw_points(rng, 7)
    omega = omega_columns(model, pts[:3], pts[3:])
    assert np.max(np.abs(omega)) < 1e-12


def test_coincident_points_raise_pole_errors():
    # the array evaluators keep the scalar g / g_prod / require_distinct guards
    model = random_y_model(np.random.default_rng(13), 1.1, 3)
    vbar, ubar = [0.4 + 0.1j, -0.6 + 0.3j], [0.9 - 0.2j, 0.4 + 0.1j, -1.1 + 0.5j]
    for route in (build_omega, omega_derivative_route):
        with pytest.raises(PoleError):
            route(model, vbar, ubar)
    with pytest.raises(PoleError):
        build_m(model, vbar, [0.9 - 0.2j, 0.9 - 0.2j, -1.1 + 0.5j])
    with pytest.raises(PoleError):
        w_matrix(1.1, ubar, [0.2, 0.9 - 0.2j, 1.3j])


def test_omega_minor_size_one():
    # one v-point: Delta of a single u and Delta' of a single v are both 1,
    # so the scaled minors are the two entries, swapped
    omega = np.array([[2.0 + 1.0j, -3.0 + 0.5j]])
    scaled = scaled_minors(1.3 - 0.2j, omega, [0.4, -0.7j], [0.9 + 0.1j])
    assert scaled == pytest.approx([-3.0 + 0.5j, 2.0 + 1.0j], rel=1e-14)


def test_scaled_minors_hand_values():
    # c = 2, ubar = (0, 1, 3), vbar = (5, 4): Delta' = g(5, 4) = 2 and
    # Delta(ubar_l) = g(3, 1), g(3, 0), g(1, 0) = 1, 2/3, 2; the column
    # minors of Omega are 4, 2, -5
    omega = np.array([[1.0, 2.0, 0.0], [3.0, 1.0, 2.0]])
    scaled = scaled_minors(2.0, omega, [0.0, 1.0, 3.0], [5.0, 4.0])
    assert scaled == pytest.approx([8.0, 8.0 / 3.0, -20.0], rel=1e-14)


def test_omega_minor_empty_matrix_is_one():
    assert scaled_minors(1.1, np.zeros((0, 1), dtype=complex), [0.4], []).tolist() == [1.0]


def test_scaled_minors_are_within_the_k_factor_bound():
    # every column removal of one stacked determinant, against 40 digits of the same Omega
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4):
        model = random_y_model(rng, 1.2 - 0.1j, n + 1)
        pts = draw_points(rng, 2 * n + 1)
        vbar, ubar = pts[:n], pts[n:]
        omega = omega_columns(model, vbar, ubar)
        got = scaled_minors(model.c, omega, ubar, vbar)
        want = ref.scaled_minors(model.c, omega, ubar, vbar)
        assert all(w.holds(x) for w, x in zip(want, got, strict=True))
        # negative control: a dropped or repeated factor leaves the bound (at n = 1 the
        # g-pair products are empty, so there is none to drop)
        for fault in (ref.DROPPED, ref.REPEATED) if n > 1 else ():
            bad = ref.scaled_minors(model.c, omega, ubar, vbar, fault)
            assert not any(w.holds(x) for w, x in zip(bad, got))


def test_omega_full_rank_for_random_model():
    rng = np.random.default_rng(10)
    n = 3
    model = random_y_model(rng, 1.2 + 0.3j, n + 1)
    pts = draw_points(rng, 2 * n + 1)
    omega = omega_columns(model, pts[:n], pts[n:])
    rank, _ = numerical_rank(omega)
    assert rank == n
    assert any(abs(minor(omega, ell)) > 1e-8 for ell in range(n + 1))


def test_gaudin_limit_of_omega(chain4):
    # columns evaluated at v + eps approach c * Jacobian with O(eps) error,
    # and one Richardson step improves the estimate
    res = cached_roots(chain4, 2)
    vbar = np.asarray(res.roots[0])
    model = chain_y_model(chain4, 2)
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
    model = chain_y_model(chain3, 1)
    rng = np.random.default_rng(11)
    vbar = list(res.roots[0])
    ratios = []
    for _ in range(10):
        ubar = draw_points(rng, 2, avoid=vbar)
        sysm = build_m(model, vbar, ubar)
        sol = solve_x(sysm)
        assert sol.residual < 1e-8
        omega = build_omega(model, vbar, ubar)
        ratios.extend((sol.x / scaled_minors(model.c, omega, ubar, vbar)).tolist())
    # X is the scaled-minor vector itself, not just a multiple of it
    assert np.max(np.abs(np.asarray(ratios) - 1.0)) < 1e-8


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
    model = chain_y_model(chain4, 2)
    rng = np.random.default_rng(14)
    ubar = draw_points(rng, 3, avoid=vbar)
    c = chain4.c
    a = scaled_minors(c, omega_columns(model, vbar, ubar), ubar, vbar)
    b = scaled_minors(c, omega_columns(model, vbar[::-1], ubar), ubar, vbar[::-1])
    assert b == pytest.approx(a, rel=1e-12)


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
    model = chain_y_model(chain3, 1)
    rng = np.random.default_rng(16)
    ubar = draw_points(rng, 2, avoid=vbar)
    w_free = draw_points(rng, 1, avoid=vbar + ubar)[0]
    rep = w_transform_check(model, vbar, ubar, w_free)
    assert rep["det_w"] < 1e-10
    assert rep["closed_form"] < 1e-9
    assert rep["row_onshell"] < 1e-9
    assert rep["omega_rows"] < 1e-9
    assert rep["ray"] < 1e-8


def test_w_transform_decoupled_eigenvalue_row_survives(chain3):
    res = cached_roots(chain3, 1)
    vbar = list(res.roots[0])
    model = chain_y_model(chain3, 1)
    rng = np.random.default_rng(17)
    ubar = draw_points(rng, 2, avoid=vbar)
    w_free = draw_points(rng, 1, avoid=vbar + ubar)[0]
    rep = w_transform_check(model, vbar, ubar, w_free)
    assert rep["row_offshell_min"] > 1e-3


def test_w_transform_measures_are_the_record_keys(chain3):
    # the check hands the values on under its bounds' keys, in their order
    vbar = list(cached_roots(chain3, 1).roots[0])
    rng = np.random.default_rng(16)
    ubar = draw_points(rng, 2, avoid=vbar)
    w_free = draw_points(rng, 1, avoid=vbar + ubar)[0]
    rep = w_transform_check(chain_y_model(chain3, 1), vbar, ubar, w_free)
    assert list(rep) == list(registry()["w-transform"].bounds)


def test_w_transform_generic_class():
    rng = np.random.default_rng(18)
    for n in (1, 2, 3, 4):
        model = random_y_model(rng, 1.1 - 0.25j, n + 1)
        pts = draw_points(rng, 2 * n + 2)
        vbar, ubar, w_free = pts[:n], pts[n:2 * n + 1], pts[-1]
        rep = w_transform_check(model, vbar, ubar, w_free)
        assert rep["det_w"] < 1e-10
        assert rep["closed_form"] < 1e-9
        assert rep["row_onshell"] < 1e-9   # the vanishing row is class-wide
        assert rep["omega_rows"] < 1e-9


# ---------------------------------------------------------------------------
# determinant form of the minors


def test_jacobian_form_generic_models():
    # the scaled minors of Omega equal the cofactors of M, for every l
    rng = np.random.default_rng(19)
    for s in (1, 2, 3):
        model = random_y_model(rng, complex(rng.uniform(0.7, 1.2), rng.uniform(-0.4, 0.4)), s + 1)
        pts = draw_points(rng, 2 * s + 1)
        vbar, ubar = pts[:s], pts[s:]
        scaled = scaled_minors(model.c, omega_columns(model, vbar, ubar), ubar, vbar)
        assert scaled == pytest.approx(cofactor_route(model, vbar, ubar), rel=1e-9)


def test_jacobian_form_twisted_instance(twist_std):
    spec = make_chain(2)
    res = cached_roots(spec, 2, twist=twist_std)
    vbar = list(res.roots[0])
    model = chain_y_model(spec, 2, twist_std)
    rng = np.random.default_rng(20)
    ubar = draw_points(rng, 3, avoid=vbar)
    scaled = scaled_minors(model.c, omega_columns(model, vbar, ubar), ubar, vbar)
    assert scaled == pytest.approx(cofactor_route(model, vbar, ubar), rel=1e-9)


def test_ray_distance_basics():
    a = np.array([1.0, 1.0j])
    assert ray_distance(a, 3.7j * a) < 1e-15
    assert ray_distance(a, np.array([1.0, -1.0j])) > 0.5
    assert ray_distance(a, np.zeros(2)) == ray_distance(np.zeros(2), a) == 1.0
    # linear in the angle: 1e-6 rad reads 1e-6, where 1 - |cos| would read 5e-13
    angle = 1e-6
    b = np.array([np.cos(angle), np.sin(angle)])
    assert ray_distance(np.array([1.0, 0.0]), b) == pytest.approx(angle, rel=1e-6)
    # never negative, also where rounding makes |cos| exceed 1
    rng = np.random.default_rng(26)
    for _ in range(200):
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert ray_distance(v, (0.3 - 1.7j) * v) >= 0.0


def test_rank_profiles_agree_between_m_and_equivalent_system(chain3):
    # the closure matrix and the reduced n x (n+1) system agree on how many
    # singular values are significant
    res = cached_roots(chain3, 1)
    vbar = list(res.roots[0])
    model = chain_y_model(chain3, 1)
    rng = np.random.default_rng(30)
    ubar = draw_points(rng, 2, avoid=vbar)
    sysm = build_m(model, vbar, ubar)
    omega = build_omega(model, vbar, ubar)
    equiv = np.zeros((1, 2), dtype=complex)
    for k in range(2):
        equiv[0, k] = g_prod(model.c, ubar[k], [ubar[1 - k]]) * omega[0, k]
    rank_m, _ = numerical_rank(sysm.m, scale=sysm.scale)
    rank_e, _ = numerical_rank(equiv)
    assert rank_m == rank_e == 1
