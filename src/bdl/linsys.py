"""The homogeneous linear system for scalar products and its solution theory.

Pairing a dual eigenstate with the family of product states obtained by
dropping one element of an (n+1)-point set gives n+1 numbers X_l.  Acting with
the transfer matrix and expanding both ways shows M X = 0 with

    M[j, k] = L[j, k] - delta_jk Lambda(u_j | vbar),
    L[j, k] = g(u_k, ubar_k) * Y(u_k | ubar_j).

det M vanishes identically on the whole Y-class; when the numerical rank is n
the null ray is the signed-minor vector of the n x (n+1) matrix

    Omega[j, k] = g(u_k, v_j) * Y(u_k | {u_k} union vbar_j),

which is simultaneously (c / g(u_k, vbar)) d Lambda(u_k | vbar) / d v_j.  This
module builds the matrices, exposes both Omega routes, extracts the null ray,
and implements the row-reduction machinery (W-transform) and the equivalent
determinant form of the minors as executable checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficiencyError
from .models import (YModel, bethe_residual, lambda_eval, y_eval,
                     y_v_derivative)
from .rational import _vals, delta, delta_prime, g, g_prod, require_distinct

ONSHELL_TOL = 1e-10


# ---------------------------------------------------------------------------
# matrix construction


def l_coeff(model: YModel, ubar, j: int, k: int) -> complex:
    """Action coefficient L[j, k] = g(u_k, ubar_k) * Y(u_k | ubar_j); 0-based."""
    arr = _vals(ubar)
    require_distinct(arr, "u parameters")
    rest_k = np.delete(arr, k)
    rest_j = np.delete(arr, j)
    return g_prod(model.c, arr[k], rest_k) * y_eval(model, arr[k], rest_j)


def omega_columns(model: YModel, vbar, us) -> np.ndarray:
    """Omega entries for an arbitrary list of column arguments.

    Column k depends only on us[k]; the full system matrix is the special case
    us = ubar with n+1 entries.
    """
    v = _vals(vbar)
    u = _vals(us)
    n = len(v)
    out = np.zeros((n, len(u)), dtype=complex)
    for j in range(n):
        rest = np.delete(v, j)
        for k, uk in enumerate(u):
            merged = np.concatenate(([uk], rest))
            out[j, k] = g(model.c, uk, v[j]) * y_eval(model, uk, merged)
    return out


def omega_derivative_route(model: YModel, vbar, us) -> np.ndarray:
    """Omega via (c / g(u_k, vbar)) * d Lambda(u_k | vbar) / d v_j.

    The derivative of Lambda = g * Y is taken by the product rule with the
    exact symmetric-polynomial derivative; independent of ``omega_columns``.
    """
    v = _vals(vbar)
    u = _vals(us)
    c = model.c
    n = len(v)
    out = np.zeros((n, len(u)), dtype=complex)
    for k, uk in enumerate(u):
        gv = g_prod(c, uk, v)
        yv = y_eval(model, uk, v)
        for j in range(n):
            # d/dv_j of g(u, vbar) = g(u, vbar) * g(u, v_j) / c
            dlam = gv * (g(c, uk, v[j]) / c * yv + y_v_derivative(model, uk, v, j))
            out[j, k] = c / gv * dlam
    return out


def build_omega(model: YModel, vbar, ubar, route: str = "substitution") -> np.ndarray:
    """The n x (n+1) system matrix Omega by either evaluation route."""
    if route == "substitution":
        return omega_columns(model, vbar, ubar)
    if route == "derivative":
        return omega_derivative_route(model, vbar, ubar)
    raise ValueError(f"unknown Omega route {route!r}")


@dataclass
class SystemMatrices:
    """Closure matrix M, the minor matrix Omega, and their inputs.

    ``scale`` is the largest magnitude among the action coefficients and the
    eigenvalues that were subtracted to form M; residuals and rank decisions
    are judged against it so that a matrix that cancels to zero (the
    degenerate family) is recognized as rank-deficient rather than treated as
    a full-rank noise matrix.
    """

    m: np.ndarray
    omega: np.ndarray
    vbar: tuple[complex, ...]
    ubar: tuple[complex, ...]
    model: YModel
    onshell_residual: float
    scale: float

    @property
    def onshell(self) -> bool:
        return self.onshell_residual < ONSHELL_TOL


def build_m(model: YModel, vbar, ubar) -> SystemMatrices:
    """Assemble M[j, k] = L[j, k] - delta_jk Lambda(u_j | vbar) and Omega.

    ``onshell_residual`` records how well vbar satisfies the root system; the
    flag matters for interpreting X as inner products, not for det M = 0.
    """
    v = _vals(vbar)
    u = _vals(ubar)
    require_distinct(u, "u parameters")
    n = len(v)
    if len(u) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} u-parameters, got {len(u)}")
    m = np.zeros((n + 1, n + 1), dtype=complex)
    scale = 0.0
    for j in range(n + 1):
        lam = lambda_eval(model, u[j], v) if n else model.alpha_at(0, u[j])
        scale = max(scale, abs(lam))
        for k in range(n + 1):
            m[j, k] = l_coeff(model, u, j, k)
            scale = max(scale, abs(m[j, k]))
            if j == k:
                m[j, k] -= lam
    omega = omega_columns(model, vbar, ubar)
    resid = float(np.max(np.abs(bethe_residual(model, v)))) if n else 0.0
    return SystemMatrices(m=m, omega=omega, vbar=tuple(v), ubar=tuple(u),
                          model=model, onshell_residual=resid, scale=max(scale, 1e-300))


# ---------------------------------------------------------------------------
# determinants, rank, minors


def scaled_det_residual(mat: np.ndarray) -> float:
    """|det| normalized by the product of row norms (0 for a zero row)."""
    if mat.size == 0:
        return 0.0
    row_norms = np.linalg.norm(mat, axis=1)
    if np.any(row_norms == 0.0):
        return 0.0
    return float(abs(np.linalg.det(mat)) / np.prod(row_norms))


def numerical_rank(mat: np.ndarray, rtol: float = 1e-8,
                   scale: float | None = None) -> tuple[int, np.ndarray]:
    """(rank, singular values) with threshold rtol * sigma_max.

    When ``scale`` is given the threshold is rtol * scale instead, which is
    the right notion when the matrix is a difference of O(scale) pieces that
    may cancel entirely.
    """
    if mat.size == 0:
        return 0, np.zeros(0)
    sv = np.linalg.svd(mat, compute_uv=False)
    ref = scale if scale is not None else sv[0]
    if ref == 0.0:
        return 0, sv
    return int(np.sum(sv > rtol * ref)), sv


def omega_minor(omega: np.ndarray, ell: int) -> complex:
    """Determinant of Omega with column ell removed (0-based); 0x0 -> 1."""
    reduced = np.delete(omega, ell, axis=1)
    if reduced.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(reduced))


# ---------------------------------------------------------------------------
# null-ray extraction


@dataclass
class SolutionVector:
    """Null ray of M, normalized on the index with the largest minor."""

    x: np.ndarray
    normalization_index: int
    residual: float
    singular_values: np.ndarray


def solve_x(sys: SystemMatrices, rank_rtol: float = 1e-8) -> SolutionVector:
    """Extract X with M X = 0, scaled so X_m = Delta(ubar_m) Delta'(vbar) Omega_m.

    The normalization index m maximizes |minor| for stability.  Raises
    RankDeficiencyError when the numerical rank of M falls below n, reporting
    the singular-value gap that triggered the decision.
    """
    n = len(sys.vbar)
    if n == 0:
        return SolutionVector(x=np.array([1.0 + 0.0j]), normalization_index=0,
                              residual=0.0, singular_values=np.zeros(1))
    rank, sv = numerical_rank(sys.m, rank_rtol, scale=sys.scale)
    if rank < n:
        gap = float(sv[rank] / sys.scale) if rank < len(sv) else 0.0
        raise RankDeficiencyError(
            f"rank {rank} < expected {n}; normalized singular values "
            f"{np.array2string(sv / (sv[0] or 1.0), precision=2)}",
            rank=rank, expected=n, gap=gap)
    _, _, vh = np.linalg.svd(sys.m)
    null = vh[-1].conj()
    minors = np.array([omega_minor(sys.omega, ell) for ell in range(n + 1)])
    m_idx = int(np.argmax(np.abs(minors)))
    c = sys.model.c
    target = delta(c, np.delete(np.asarray(sys.ubar), m_idx)) * delta_prime(c, sys.vbar) * minors[m_idx]
    if null[m_idx] == 0:
        raise RankDeficiencyError("null vector vanishes at the normalization index",
                                  rank=rank, expected=n, gap=0.0)
    x = null * (target / null[m_idx])
    resid = float(np.max(np.abs(sys.m @ x)) / max(np.linalg.norm(x), 1e-300))
    return SolutionVector(x=x, normalization_index=m_idx, residual=resid, singular_values=sv)


def minor_vector(sys: SystemMatrices) -> np.ndarray:
    """The candidate null ray (Delta(ubar_l) * minor_l)_l, unnormalized."""
    n = len(sys.vbar)
    u = np.asarray(sys.ubar)
    return np.array([delta(sys.model.c, np.delete(u, ell)) * omega_minor(sys.omega, ell)
                     for ell in range(n + 1)])


def ray_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - |<a, b>| / (|a||b|): zero iff the vectors are parallel rays."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0
    return float(1.0 - abs(np.vdot(a, b)) / (na * nb))


# ---------------------------------------------------------------------------
# row-reduction machinery


def w_matrix(c: complex, ubar, wbar) -> np.ndarray:
    """W[j, k] = g(u_k, w_j) * g(u_k, ubar_k) / g(u_k, wbar)."""
    u = _vals(ubar)
    w = _vals(wbar)
    m = len(u)
    out = np.zeros((m, m), dtype=complex)
    for k in range(m):
        col = g_prod(c, u[k], np.delete(u, k)) / g_prod(c, u[k], w)
        for j in range(m):
            out[j, k] = g(c, u[k], w[j]) * col
    return out


@dataclass
class WTransformReport:
    """Numerical outcome of the row-reduction checks."""

    det_w_error: float
    closed_form_error: float
    last_row_ratio: float
    omega_row_error: float
    equivalent_ray_distance: float
    lambda_set_matches_pins: bool


def w_transform_check(model: YModel, vbar, ubar, w_free: complex,
                      lambda_set=None) -> WTransformReport:
    """Run the full battery of row-reduction identities.

    ``wbar`` is vbar extended by the free point ``w_free``.  The eigenvalue
    argument defaults to vbar; passing a different n-point ``lambda_set``
    decouples the eigenvalue from the pinned rows, in which case the last
    transformed row is generically nonzero (the contrapositive of the
    vanishing-row statement).  M depends on the eigenvalue argument only, so
    it is ``build_m`` of that set.
    """
    v = _vals(vbar)
    u = _vals(ubar)
    lam_set = v if lambda_set is None else _vals(lambda_set)
    n = len(v)
    c = model.c
    wbar = np.concatenate((v, [complex(w_free)]))
    require_distinct(wbar, "w parameters")

    w = w_matrix(c, u, wbar)
    det_w = np.linalg.det(w)
    det_ratio = delta(c, u) / delta(c, wbar)
    det_w_error = abs(det_w - det_ratio) / max(abs(det_w), abs(det_ratio))

    # closure matrix with the (possibly decoupled) eigenvalue argument
    m = build_m(model, lam_set, u).m
    m_tilde = w @ m

    # closed form of the transformed matrix
    closed = np.zeros_like(m_tilde)
    for j in range(n + 1):
        for k in range(n + 1):
            gk = g_prod(c, u[k], np.delete(u, k))
            lam = lambda_eval(model, u[k], lam_set) if len(lam_set) else model.alpha_at(0, u[k])
            closed[j, k] = gk * (y_eval(model, u[k], np.delete(wbar, j))
                                 - g(c, u[k], wbar[j]) / g_prod(c, u[k], wbar) * lam)
    scale = np.max(np.abs(m_tilde)) or 1.0
    closed_form_error = float(np.max(np.abs(m_tilde - closed)) / scale)

    last_row_ratio = float(np.linalg.norm(m_tilde[n]) / (np.linalg.norm(m_tilde) or 1.0))

    omega = omega_columns(model, v, u)
    row_err = 0.0
    for j in range(n):
        for k in range(n + 1):
            pred = g_prod(c, u[k], np.delete(u, k)) / g(c, complex(w_free), v[j]) * omega[j, k]
            row_err = max(row_err, abs(m_tilde[j, k] - pred) / scale)

    # equivalent n x (n+1) system shares the null ray of M
    equiv = np.zeros((n, n + 1), dtype=complex)
    for j in range(n):
        for k in range(n + 1):
            equiv[j, k] = g_prod(c, u[k], np.delete(u, k)) * omega[j, k]
    _, _, vh_m = np.linalg.svd(m)
    _, _, vh_e = np.linalg.svd(equiv)
    ray_dist = ray_distance(vh_m[-1].conj(), vh_e[-1].conj())

    matches = bool(np.all(np.abs(lam_set - v) < 1e-12))
    return WTransformReport(det_w_error=float(det_w_error),
                            closed_form_error=closed_form_error,
                            last_row_ratio=last_row_ratio,
                            omega_row_error=float(row_err),
                            equivalent_ray_distance=ray_dist,
                            lambda_set_matches_pins=matches)


# ---------------------------------------------------------------------------
# equivalent determinant form of the minors


@dataclass
class JacobianFormReport:
    minor_route: complex
    determinant_route: complex
    rel_difference: float


def jacobian_form(model: YModel, vbar, ubar, ell: int | None = None) -> JacobianFormReport:
    """Evaluate Delta(ubar_ell) Delta'(vbar) * minor_ell two independent ways.

    Route one is the literal scaled minor of Omega.  Route two is the
    determinant of delta_jk Lambda(u_j | vbar) - g(u_j, ubar_j) Y(u_j | ubar_k)
    over j, k != ell, carrying the prefactor g(u_ell, vbar) / g(u_ell, ubar_ell);
    the second term of the matrix is the complement-set evaluation that plays
    the role of a derivative of Y lifted to the (n+1)-point set.
    """
    v = _vals(vbar)
    u = _vals(ubar)
    n = len(v)
    if len(u) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} u-parameters, got {len(u)}")
    if ell is None:
        ell = n
    c = model.c
    others = [i for i in range(n + 1) if i != ell]

    omega = omega_columns(model, v, u)
    route_minor = delta(c, np.delete(u, ell)) * delta_prime(c, v) * omega_minor(omega, ell)

    jmat = np.zeros((n, n), dtype=complex)
    for a, j in enumerate(others):
        lam = lambda_eval(model, u[j], v) if n else model.alpha_at(0, u[j])
        gj = g_prod(c, u[j], np.delete(u, j))
        for b, k in enumerate(others):
            jmat[a, b] = -gj * y_eval(model, u[j], np.delete(u, k))
            if j == k:
                jmat[a, b] += lam
    pref = g_prod(c, u[ell], v) / g_prod(c, u[ell], np.delete(u, ell))
    route_det = pref * (np.linalg.det(jmat) if n else 1.0)

    rel = abs(route_minor - route_det) / max(abs(route_minor), abs(route_det), 1e-30)
    return JacobianFormReport(minor_route=complex(route_minor),
                              determinant_route=complex(route_det),
                              rel_difference=float(rel))
