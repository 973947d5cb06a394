"""Tests for the closed-form determinants against hand values and the oracle."""
import numpy as np
import pytest

from bdl.checks import run_suite
from bdl.config import parse_config
from bdl.determinants import (gaudin_matrix_contour, gaudin_norm_check, izergin,
                              izergin_oracle_exponent, maba_scalar_product, phi_factor,
                              scalar_product)
from bdl.errors import BdlError
from bdl.linsys import build_m
from bdl.models import PeriodicChainSpec, bethe_jacobian, chain_y_model, lambda2
from bdl.oracle import bethe_vector, direct_scalar_product, dual_bethe_vector, overlaps
from bdl.rational import delta, delta_prime

from conftest import C_STD, cached_roots, draw_points, make_chain


# ---------------------------------------------------------------------------
# domain-wall determinant


def test_izergin_single_site_hand_value():
    # n = N = 1: the formula telescopes to c^2 for any v
    spec = PeriodicChainSpec(1, C_STD, [0.3], [0.5])
    for v in (0.9 - 0.4j, -1.2 + 0.8j):
        assert izergin(spec, [v], [0]) == pytest.approx(C_STD ** 2, rel=1e-12)


def test_izergin_two_site_hand_value():
    # N = 2, n = 1 with the operator frozen at theta_0:
    # hand expansion gives c^2 (theta_0 - theta_1 + c)(v - theta_1)
    spec = make_chain(2)
    t0, t1 = spec.theta
    v = 0.7 + 0.5j
    expected = C_STD ** 2 * (t0 - t1 + C_STD) * (v - t1)
    assert izergin(spec, [v], [0]) == pytest.approx(expected, rel=1e-12)


def test_izergin_oracle_calibration_and_predictions():
    # fit the exponent rule at n = N = 1, then every larger size is a
    # prediction; generic (non-root) v-sets are valid here
    rng = np.random.default_rng(0)
    spec1 = PeriodicChainSpec(1, C_STD, [0.3], [0.5])
    v = draw_points(rng, 1, avoid=spec1.theta)
    direct = direct_scalar_product(dual_bethe_vector(spec1, v),
                                   bethe_vector(spec1, [spec1.theta[0]]))
    ratio = direct / izergin(spec1, v, [0])
    fitted = round(float(np.log(abs(ratio)) / np.log(abs(C_STD))))
    assert fitted == izergin_oracle_exponent(1, 1) == -2
    assert abs(ratio - C_STD ** fitted) < 1e-10

    for n_sites in (2, 3, 4):
        spec = make_chain(n_sites)
        for n in range(1, min(n_sites, 3) + 1):
            vbar = draw_points(rng, n, avoid=spec.theta)
            idx = list(rng.choice(n_sites, size=n, replace=False))
            closed = izergin(spec, vbar, idx) * spec.c ** izergin_oracle_exponent(n, n_sites)
            direct = direct_scalar_product(
                dual_bethe_vector(spec, vbar),
                bethe_vector(spec, [spec.theta[i] for i in idx]))
            assert abs(closed - direct) / max(abs(closed), abs(direct)) < 1e-8


def test_izergin_symmetric_in_both_sets():
    spec = make_chain(3)
    rng = np.random.default_rng(1)
    vbar = draw_points(rng, 2, avoid=spec.theta)
    ref = izergin(spec, vbar, [0, 2])
    assert izergin(spec, vbar[::-1], [0, 2]) == pytest.approx(ref, rel=1e-10)
    assert izergin(spec, vbar, [2, 0]) == pytest.approx(ref, rel=1e-10)


def test_izergin_rejects_higher_spin():
    spec = PeriodicChainSpec(2, C_STD, [0.3, -0.4], [0.5, 1.0])
    with pytest.raises(BdlError):
        izergin(spec, [0.5], [0])


# ---------------------------------------------------------------------------
# periodic inner products


def test_scalar_product_matches_oracle_generic_draws(chain4):
    rng = np.random.default_rng(2)
    for n in (1, 2):
        for vbar in cached_roots(chain4, n).roots:
            dual = dual_bethe_vector(chain4, vbar)
            for _ in range(3):
                uvals = draw_points(rng, n, avoid=vbar)
                closed = scalar_product(chain4, vbar, uvals)
                direct = direct_scalar_product(dual, bethe_vector(chain4, uvals))
                assert abs(closed - direct) / max(abs(closed), abs(direct)) < 1e-8


@pytest.mark.parametrize("n_sites, n, idx", [(3, 1, [2]), (2, 1, [0]), (4, 2, [1, 3])],
                         ids=["N3-n1", "N2-n1", "N4-n2"])
def test_scalar_product_reduces_to_izergin_point(n_sites, n, idx):
    # with the u-set frozen at inhomogeneities the closed form is the
    # domain-wall determinant in oracle normalization: no further power of c
    spec = make_chain(n_sites)
    vbar = list(cached_roots(spec, n).roots[0])
    closed = scalar_product(spec, vbar, [spec.theta[i] for i in idx])
    reference = izergin(spec, vbar, idx) * spec.c ** izergin_oracle_exponent(n, n_sites)
    assert closed == pytest.approx(reference, rel=1e-10)


def test_scalar_product_degenerates_to_norm(chain4):
    # moving the free set onto the roots reproduces the bilinear norm, with
    # first-order error in the offset and a working Richardson step
    vbar = np.asarray(cached_roots(chain4, 2).roots[0])
    dual = dual_bethe_vector(chain4, vbar)
    norm = direct_scalar_product(dual, bethe_vector(chain4, vbar))

    def closed(eps):
        return scalar_product(chain4, vbar, vbar + eps)

    e3 = abs(closed(1e-3) - norm) / abs(norm)
    e4 = abs(closed(1e-4) - norm) / abs(norm)
    assert e4 < e3 / 5
    rich = (10 * closed(1e-4) - closed(1e-3)) / 9
    assert abs(rich - norm) / abs(norm) < e4 / 5


def test_scalar_product_polynomial_in_each_argument(chain4):
    # the inner product is a polynomial of degree N-1 in each free parameter:
    # a cubic through four samples predicts a fifth exactly
    vbar = list(cached_roots(chain4, 2).roots[0])
    rng = np.random.default_rng(3)
    base = draw_points(rng, 2, avoid=vbar)
    samples = np.linspace(-1.3, 1.4, 5) + 0.37j

    def value(u0):
        return scalar_product(chain4, vbar, [u0, base[1]])

    coeffs = np.polynomial.polynomial.polyfit(samples[:4], [value(u) for u in samples[:4]],
                                              deg=chain4.n_sites - 1)
    predicted = np.polynomial.polynomial.polyval(samples[4], coeffs)
    actual = value(samples[4])
    assert abs(predicted - actual) / abs(actual) < 1e-8


def test_phi_factor_is_vacuum_eigenvalue_product(chain3):
    vbar = [0.4 + 0.2j, -0.9 + 0.1j]
    expected = lambda2(chain3, vbar[0]) * lambda2(chain3, vbar[1])
    assert phi_factor(chain3, vbar) == pytest.approx(expected, rel=1e-13)


def test_stacked_phi_factor_equals_each_set_bit_for_bit(chain3):
    sets = np.random.default_rng(32).normal(size=(40, 3)) * (1 + 0.5j)
    stacked = phi_factor(chain3, sets)
    assert all(stacked[i] == phi_factor(chain3, sets[i]) for i in range(len(sets)))


# ---------------------------------------------------------------------------
# Jacobian determinant and norms


def test_gaudin_matrix_single_root_vs_finite_difference():
    spec = make_chain(2)
    vbar = list(cached_roots(spec, 1).roots[0])
    model = chain_y_model(spec, 1)
    jac = bethe_jacobian(model, vbar)
    fd = gaudin_matrix_contour(model, vbar)
    assert jac.shape == fd.shape == (1, 1)
    assert abs(jac[0, 0] - fd[0, 0]) / abs(jac[0, 0]) < 1e-12


def test_gaudin_norm_constant_across_states(chain4):
    for n in (1, 2):
        states = cached_roots(chain4, n).roots
        rep = gaudin_norm_check(chain4, states)
        assert all(abs(d) > 1e-10 for d in rep.determinants)
        assert rep.spread < 1e-7
        assert rep.fd_error < 1e-12


def test_gaudin_norm_matches_scalar_product_constant(chain4):
    # the per-state ratio equals 1 in this package's conventions: the norm is
    # the closed-form inner product continued to coinciding sets
    states = cached_roots(chain4, 1).roots
    rep = gaudin_norm_check(chain4, states)
    for r in rep.ratios:
        assert abs(r - 1.0) < 1e-8


def test_gaudin_norm_stack_rounds_as_the_scalar_formula(chain4):
    # one stacked pass gives each state the bits of its scalar closed form
    for n in (1, 2):
        states = cached_roots(chain4, n).roots
        model = chain_y_model(chain4, n)
        rep = gaudin_norm_check(chain4, states, model)
        assert rep.ratios.shape == rep.determinants.shape == (len(states),)
        for i, state in enumerate(states):
            det = complex(np.linalg.det(bethe_jacobian(model, state)))
            closed = (phi_factor(chain4, state) * chain4.c ** n * complex(delta(chain4.c, state))
                      * complex(delta_prime(chain4.c, state)) * det)
            [norm] = direct_scalar_product(dual_bethe_vector(chain4, [state]),
                                           bethe_vector(chain4, [state]))
            assert rep.determinants[i] == det
            assert rep.ratios[i] == norm / closed


@pytest.mark.slow
@pytest.mark.parametrize("theta", ["spaced", "random"])
def test_gaudin_norm_passes_at_twelve_sites(theta):
    # here the step error of a central difference (step 1e-6) alone exceeds
    # the 1e-6 fd bound; the contour rule has no step and reads 1.6e-11 and
    # 2.1e-10
    thetas = (np.linspace(-1.1, 1.1, 12) if theta == "spaced"
              else np.random.default_rng(12).uniform(-1.1, 1.1, 12))
    raw = {"model": {"type": "periodic-xxx", "N": 12, "c": C_STD,
                     "theta": [float(t) for t in thetas], "spins": [0.5] * 12},
           "suite": ["gaudin-norm"], "sizes": {"n": [1, 2]}, "draws": 1, "seed": 12}
    [rec] = run_suite(parse_config(raw))["checks"]
    assert rec["passed"], rec
    assert rec["residuals"]["fd"] < 1e-9


# ---------------------------------------------------------------------------
# twisted chain


@pytest.mark.parametrize("n_sites", [1, 2])
def test_maba_scalar_products_match_oracle(n_sites, twist_std):
    spec = make_chain(n_sites)
    s_total = spec.magnon_capacity
    res = cached_roots(spec, s_total, twist=twist_std)
    rng = np.random.default_rng(4)
    for vbar in res.roots:
        ubar = draw_points(rng, s_total + 1, avoid=vbar)
        results = maba_scalar_product(spec, twist_std, vbar, ubar)
        dual = dual_bethe_vector(spec, vbar, twist_std)
        for ell in range(s_total + 1):
            others = np.delete(np.asarray(ubar), ell)
            direct = direct_scalar_product(dual, bethe_vector(spec, others, twist_std))
            rel = abs(results[ell] - direct) / max(abs(direct), abs(results[ell]))
            assert rel < 1e-7


def test_maba_solution_solves_linear_system(twist_std):
    spec = make_chain(2)
    s_total = spec.magnon_capacity
    vbar = list(cached_roots(spec, s_total, twist=twist_std).roots[0])
    rng = np.random.default_rng(5)
    ubar = draw_points(rng, s_total + 1, avoid=vbar)
    model = chain_y_model(spec, s_total, twist_std)
    sysm = build_m(model, vbar, ubar)
    x = maba_scalar_product(spec, twist_std, vbar, ubar)
    assert np.max(np.abs(sysm.m @ x)) / np.linalg.norm(x) < 1e-8


def test_maba_large_argument_consistency(twist_std):
    # scaled last inner product approaches the expectation-value prefactor
    # times the growth constant, with 1/U error decay
    spec = make_chain(2)
    s_total = spec.magnon_capacity
    vbar = list(cached_roots(spec, s_total, twist=twist_std).roots[0])
    ev = overlaps(spec, vbar, [], twist_std)
    target = ((twist_std.mu / twist_std.kappa_minus) * (twist_std.rho1 + twist_std.rho2)) ** s_total * ev
    dual = dual_bethe_vector(spec, vbar, twist_std)
    errors = []
    for scale in (1e3, 1e4, 1e5):
        uvals = [scale * (j + 1) for j in range(s_total)]
        direct = direct_scalar_product(dual, bethe_vector(spec, uvals, twist_std))
        scaled = direct * np.prod([(spec.c / u) ** spec.n_sites for u in uvals])
        errors.append(abs(scaled - target) / abs(target))
    assert errors[-1] < 1e-4
    for a, b in zip(errors, errors[1:]):
        assert b < a / 5


def test_maba_input_sizes_validated(twist_std):
    spec = make_chain(2)
    with pytest.raises(ValueError):
        maba_scalar_product(spec, twist_std, [0.1], [0.2, 0.3, 0.4])
    with pytest.raises(ValueError):
        maba_scalar_product(spec, twist_std, [0.1, 0.5], [0.2, 0.3])


def test_scalar_product_oracle_complex_coupling():
    # complex c exposes any missed power or phase in the conventions
    spec = PeriodicChainSpec(3, 0.9 + 0.45j, [0.3, -0.45, 0.12], [0.5] * 3)
    from bdl.oracle import solve_bethe_roots
    res = solve_bethe_roots(spec, 1)
    assert len(res.roots) == 2
    for vbar in res.roots:
        closed = scalar_product(spec, list(vbar), [0.7 - 0.2j])
        direct = direct_scalar_product(dual_bethe_vector(spec, vbar),
                                       bethe_vector(spec, [0.7 - 0.2j]))
        assert abs(closed - direct) / abs(direct) < 1e-10


def test_scalar_product_oracle_higher_spin():
    # the determinant representation and its normalization are not tied to
    # spin-1/2: mixed (1/2, 1) at one magnon and all-spin-1 at two magnons
    from bdl.oracle import expected_root_sets, solve_bethe_roots
    for spins, n in ([(0.5, 1.0), 1], [(1.0, 1.0), 2]):
        spec = PeriodicChainSpec(2, C_STD, [0.3, -0.45], spins)
        expect = expected_root_sets(spec, n)
        res = solve_bethe_roots(spec, n)
        assert len(res.roots) == expect
        uvals = [0.7 - 0.2j, -0.9 + 0.6j][:n]
        for vbar in res.roots:
            closed = scalar_product(spec, list(vbar), uvals)
            direct = direct_scalar_product(dual_bethe_vector(spec, vbar),
                                           bethe_vector(spec, uvals))
            assert abs(closed - direct) / abs(direct) < 1e-10


def test_maba_scalar_product_higher_spin(twist_std):
    # one spin-1 site: S = 2, all three states recovered, every removal index
    spec = PeriodicChainSpec(1, C_STD, [0.3], [1.0])
    from bdl.oracle import solve_bethe_roots
    res = solve_bethe_roots(spec, 2, twist=twist_std)
    assert len(res.roots) == 3
    rng = np.random.default_rng(6)
    for vbar in res.roots:
        ubar = draw_points(rng, 3, avoid=vbar)
        xs = maba_scalar_product(spec, twist_std, list(vbar), ubar)
        dual = dual_bethe_vector(spec, vbar, twist_std)
        for ell in range(3):
            others = np.delete(np.asarray(ubar), ell)
            direct = direct_scalar_product(dual, bethe_vector(spec, others, twist_std))
            assert abs(xs[ell] - direct) / abs(direct) < 1e-10
