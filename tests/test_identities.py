"""Tests for the rational summation identities and their residue bookkeeping."""
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from bdl.identities import ERROR_FLOOR, identity_a, identity_b, rel_error, row_error
from bdl.models import YModel, alpha_values, random_y_model, y_removed
from bdl.rational import _vals, esp_all, g, g_prod

from conftest import draw_points


# ---------------------------------------------------------------------------
# the inner rational sums and their residue decompositions


def g_sum_a(c: complex, ubar, wbar, j: int, t: complex) -> tuple[complex, complex]:
    """The inner rational sum of identity A and its closed form at probe t."""
    u = _vals(ubar)
    w = _vals(wbar)
    lhs = 0.0 + 0.0j
    for ell in range(len(u)):
        lhs += (g(c, u[ell], w[j]) / (t + u[ell])
                * g_prod(c, u[ell], np.delete(u, ell)) / g_prod(c, u[ell], w))
    rhs = 1.0 / (t + w[j])
    for mu in range(len(u)):
        rhs *= (t + w[mu]) / (t + u[mu])
    return complex(lhs), complex(rhs)


def residue_sum_a(c: complex, ubar, wbar, j: int, t: complex) -> tuple[list[complex], float]:
    """All finite-pole residues of the identity-A contour integrand.

    The integrand g(z, w_j) g(z, ubar) / ((t + z) g(z, wbar)) decays as
    z**-2 at infinity, so the residues must sum to zero; returns them and the
    magnitude of their sum relative to the largest term.
    """
    u = _vals(ubar)
    w = _vals(wbar)
    res: list[complex] = []
    for ell in range(len(u)):
        # the ell-th factor of g(z, ubar) contributes residue c at z = u_ell
        val = (g(c, u[ell], w[j]) / (t + u[ell])
               * c * g_prod(c, u[ell], np.delete(u, ell)) / g_prod(c, u[ell], w))
        res.append(val / c)
    z = -t
    res.append(complex(g(c, z, w[j]) * g_prod(c, z, u) / g_prod(c, z, w) / c))
    total = np.sum(res)
    scale = max(max(abs(r) for r in res), ERROR_FLOOR)
    return res, float(abs(total) / scale)


def complement_y(model: YModel, t: complex, ubar, k: int) -> complex:
    """Y(t | ubar_k): the complement-set evaluation.

    Equals c times the partial derivative in u_k of the degree-lifted
    polynomial ``lifted_y``, which is how it plays the role of a derivative
    term in the closed form of identity B.
    """
    return complex(y_removed(model, [t], ubar)[k, 0])


def lifted_y(model: YModel, t: complex, ubar) -> complex:
    """(1/c) sum_p alpha_p(t) sigma_{p+1}(ubar) over the full (S+1)-point set."""
    sig = esp_all(ubar)[1:]
    m = min(model.n_max + 1, len(sig))
    return complex(alpha_values(model, t)[:m] @ sig[:m]) / model.c


def complement_y_fd(model: YModel, t: complex, ubar, k: int, step: float = 1e-6) -> complex:
    """c * central finite difference of lifted_y in u_k; cross-check oracle."""
    u = _vals(ubar)
    bump = np.zeros(len(u), dtype=complex)
    bump[k] = step
    return model.c * (lifted_y(model, t, u + bump) - lifted_y(model, t, u - bump)) / (2 * step)


def g_sum_b(c: complex, ubar, vbar, j: int, k: int, w: complex) -> tuple[complex, complex]:
    """The inner rational sum of identity B and its closed form at probe w."""
    u = _vals(ubar)
    v = _vals(vbar)
    lhs = 0.0 + 0.0j
    for ell in range(len(v)):
        numer = 1.0 + 0.0j
        for vv in np.delete(v, ell):
            numer *= g(c, vv, v[ell])
        denom = 1.0 + 0.0j
        for uu in u:
            denom *= g(c, uu, v[ell])
        lhs += (g(c, u[j], v[ell]) * g(c, u[k], v[ell]) * numer / denom
                * (w + u[j]) / (w + v[ell]))
    rhs = 1.0 + 0.0j
    for uu in u:
        rhs *= (w + uu)
    rhs /= (w + u[k])
    for vv in v:
        rhs /= (w + vv)
    if j == k:
        rhs -= g_prod(c, u[j], v) / g_prod(c, u[j], np.delete(u, j))
    return complex(lhs), complex(rhs)


def residue_sum_b(c: complex, ubar, vbar, j: int, k: int, w: complex) -> tuple[list[complex], float]:
    """All finite-pole residues of the identity-B contour integrand.

    The integrand is g(u_j, z) g(u_k, z) g(vbar, z) / g(ubar, z) * (w+u_j)/(w+z);
    it decays as z**-2, so the finite residues sum to zero.  The poles sit at
    the v-points, at z = -w, and (on the diagonal j = k only) at z = u_j where
    a single numerator zero cancels one of the two g-factors.
    """
    u = _vals(ubar)
    v = _vals(vbar)

    def u_over_v(z: complex) -> complex:
        out = 1.0 / c
        for uu in u:
            out *= (uu - z)
        for vv in v:
            out /= (vv - z)
        return out

    res: list[complex] = []
    for ell in range(len(v)):
        rest = 1.0 / c
        for uu in u:
            rest *= (uu - v[ell])
        for vv in np.delete(v, ell):
            rest /= (vv - v[ell])
        val = -g(c, u[j], v[ell]) * g(c, u[k], v[ell]) * rest * (w + u[j]) / (w + v[ell])
        res.append(val / c)
    if j == k:
        val = -c
        for uu in np.delete(u, j):
            val *= (uu - u[j])
        for vv in v:
            val /= (vv - u[j])
        res.append(complex(val / c))
    z = -w
    res.append(complex(g(c, u[j], z) * g(c, u[k], z) * u_over_v(z) * (w + u[j]) / c))
    total = np.sum(res)
    scale = max(max(abs(r) for r in res), ERROR_FLOOR)
    return res, float(abs(total) / scale)


# ---------------------------------------------------------------------------
# tests


def _model_and_points(rng, n_max, total):
    c = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5))
    model = random_y_model(rng, c, n_max)
    return model, draw_points(rng, total)


def test_identity_a_hand_expansion_single_pair():
    # size-one sets: both sides reduce to alpha_0(u_k) + alpha_1(u_k) w_2
    rng = np.random.default_rng(0)
    model, pts = _model_and_points(rng, 2, 4)
    u1, u2, w1, w2 = pts
    lhs, rhs = identity_a(model, [u1, u2], [w1, w2], 0, 0)
    byhand = npoly.polyval(u1, model.alpha[0]) + npoly.polyval(u1, model.alpha[1]) * w2
    assert lhs == pytest.approx(byhand, rel=1e-11)
    assert rhs == pytest.approx(byhand, rel=1e-13)
    assert rel_error(lhs, rhs) < 1e-11


def test_identity_a_empty_edge():
    rng = np.random.default_rng(1)
    model, pts = _model_and_points(rng, 1, 2)
    lhs, rhs = identity_a(model, [pts[0]], [pts[1]], 0, 0)
    assert lhs == pytest.approx(npoly.polyval(pts[0], model.alpha[0]), rel=1e-12)
    assert rel_error(lhs, rhs) < 1e-12


def test_identity_a_random_class_sweep():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(0, 5))
        model, pts = _model_and_points(rng, n + 1, 2 * (n + 1))
        ubar, wbar = pts[:n + 1], pts[n + 1:]
        j = int(rng.integers(0, n + 1))
        k = int(rng.integers(0, n + 1))
        assert rel_error(*identity_a(model, ubar, wbar, j, k)) < 1e-10


def test_g_sum_a_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(0, 5))
        c = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5))
        pts = draw_points(rng, 2 * (n + 1))
        t = complex(rng.uniform(1.5, 2.5), rng.uniform(0.5, 1.5))
        lhs, rhs = g_sum_a(c, pts[:n + 1], pts[n + 1:], int(rng.integers(0, n + 1)), t)
        assert rel_error(lhs, rhs) < 1e-11


def test_residue_sum_a_cancels():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(0, 4))
        c = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5))
        pts = draw_points(rng, 2 * (n + 1))
        t = complex(rng.uniform(1.5, 2.5), rng.uniform(0.5, 1.5))
        _, total = residue_sum_a(c, pts[:n + 1], pts[n + 1:], int(rng.integers(0, n + 1)), t)
        assert total < 1e-10


def test_identity_b_hand_expansion_diagonal():
    # S = 1, j = k = 0: the sum telescopes to
    # (u2 - v)(alpha_0 + alpha_1 u1) / (u1 - v)
    rng = np.random.default_rng(5)
    model, pts = _model_and_points(rng, 2, 3)
    u1, u2, v = pts
    lhs, rhs = identity_b(model, [u1, u2], [v], 0, 0)
    byhand = ((u2 - v) * (npoly.polyval(u1, model.alpha[0]) + npoly.polyval(u1, model.alpha[1]) * u1)
              / (u1 - v))
    assert lhs == pytest.approx(byhand, rel=1e-11)
    assert rel_error(lhs, rhs) < 1e-11


def test_identity_b_hand_expansion_offdiagonal():
    # S = 1, j = 0, k = 1: the sum reduces to the set-one evaluation at u1
    rng = np.random.default_rng(6)
    model, pts = _model_and_points(rng, 2, 3)
    u1, u2, v = pts
    lhs, rhs = identity_b(model, [u1, u2], [v], 0, 1)
    byhand = npoly.polyval(u1, model.alpha[0]) + npoly.polyval(u1, model.alpha[1]) * u1
    assert lhs == pytest.approx(byhand, rel=1e-11)
    assert rel_error(lhs, rhs) < 1e-11


def test_identity_b_random_class_sweep():
    rng = np.random.default_rng(7)
    for _ in range(40):
        s = int(rng.integers(1, 4))
        model, pts = _model_and_points(rng, s + 1, 2 * s + 1)
        ubar, vbar = pts[:s + 1], pts[s + 1:]
        j = int(rng.integers(0, s))
        k = int(rng.integers(0, s))
        assert rel_error(*identity_b(model, ubar, vbar, j, k)) < 1e-9


def test_g_sum_b_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(20):
        s = int(rng.integers(1, 4))
        c = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5))
        pts = draw_points(rng, 2 * s + 1)
        w = complex(rng.uniform(1.5, 2.5), rng.uniform(0.5, 1.5))
        j = int(rng.integers(0, s))
        k = int(rng.integers(0, s))
        lhs, rhs = g_sum_b(c, pts[:s + 1], pts[s + 1:], j, k, w)
        assert rel_error(lhs, rhs) < 1e-10


def test_residue_sum_b_cancels():
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = int(rng.integers(1, 4))
        c = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5))
        pts = draw_points(rng, 2 * s + 1)
        w = complex(rng.uniform(1.5, 2.5), rng.uniform(0.5, 1.5))
        j = int(rng.integers(0, s))
        k = int(rng.integers(0, s))
        _, total = residue_sum_b(c, pts[:s + 1], pts[s + 1:], j, k, w)
        assert total < 1e-10


def test_complement_term_is_lifted_derivative():
    # the complement-set evaluation equals c * d/du_k of the lifted polynomial,
    # checked against central finite differences
    rng = np.random.default_rng(10)
    for _ in range(10):
        s = int(rng.integers(1, 4))
        model, pts = _model_and_points(rng, s + 1, s + 2)
        ubar, t = pts[:s + 1], pts[s + 1]
        for k in range(s + 1):
            analytic = complement_y(model, t, ubar, k)
            fd = complement_y_fd(model, t, ubar, k)
            assert abs(analytic - fd) < 1e-6 * max(1.0, abs(analytic))


def test_lifted_polynomial_sum_rule():
    # summing c * d/du_k over all k recovers the first-slot expansion:
    # sum_k Y(t | ubar_k) = sum_p alpha_p(t) (S + 1 - p) sigma_p(ubar)
    rng = np.random.default_rng(11)
    s = 3
    model, pts = _model_and_points(rng, s + 1, s + 2)
    ubar, t = pts[:s + 1], pts[s + 1]
    total = sum(complement_y(model, t, ubar, k) for k in range(s + 1))
    sig = esp_all(ubar)
    expected = sum(npoly.polyval(t, model.alpha[p]) * (s + 1 - p) * sig[p] for p in range(s + 2)
                   if p <= model.n_max)
    assert abs(total - expected) < 1e-10 * max(1.0, abs(expected))


def test_rel_error_floor_behavior():
    assert rel_error(0.0, 0.0) == 0.0
    assert rel_error(1e-40, 0.0) < 1e-9  # floored, not blown up
    assert rel_error(2.0, 1.0) == pytest.approx(0.5)


def test_row_error_is_the_row_maximum_over_the_row_scale():
    rng = np.random.default_rng(5)
    lhs = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    rhs = lhs * (1 + 1e-9 * rng.normal(size=(4, 6)))
    lhs[1] = rhs[1] = 0  # a zero row meets the 1e-300 floor: 0, not nan
    rhs[2] = 0
    errs = row_error(lhs, rhs)
    assert errs.shape == (4,) and errs[1] == 0.0 and errs[2] == 1.0
    for row in (0, 3):
        scale = max(np.max(np.abs(lhs[row])), np.max(np.abs(rhs[row])))
        assert errs[row] == np.max(np.abs(lhs[row] - rhs[row])) / scale
    assert row_error(np.full(3, 1e-301), np.zeros(3)) == pytest.approx(0.1)
