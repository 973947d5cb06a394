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
module builds the matrices, exposes both Omega routes, evaluates the scaled
minors Delta(ubar_l) Delta'(vbar) minor_l(Omega) that the closed-form inner
products are made of, extracts the null ray, and implements the row-reduction
machinery (W-transform) as an executable check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficiencyError
from .models import YModel, lambda_eval, omega_columns, y_eval, y_removed
from .rational import (_removals, _vals, delta, delta_prime, g_prod, g_rest, g_table,
                       require_distinct)

# singular values below RANK_RTOL times the reference scale count as zero
RANK_RTOL = 1e-8


# ---------------------------------------------------------------------------
# matrix construction


def l_coeff(model: YModel, ubar, j: int, k: int) -> complex:
    """Action coefficient L[j, k] = g(u_k, ubar_k) * Y(u_k | ubar_j); 0-based."""
    arr = _vals(ubar)
    require_distinct(arr, "u parameters")
    rest_k = np.delete(arr, k)
    rest_j = np.delete(arr, j)
    return g_prod(model.c, arr[k], rest_k) * y_eval(model, arr[k], rest_j)


def action_table(model: YModel, ubar) -> np.ndarray:
    """All action coefficients L[j, k] = g(u_k, ubar_k) * Y(u_k | ubar_j) at once."""
    u = _vals(ubar)
    return y_removed(model, u, u) * g_rest(model.c, u)


def omega_derivative_route(model: YModel, vbar, us) -> np.ndarray:
    """Omega via (c / g(u_k, vbar)) * d Lambda(u_k | vbar) / d v_j.

    The derivative of Lambda = g * Y is taken by the product rule with the
    exact symmetric-polynomial derivative, which leaves g(u_k, v_j) Y(u_k | vbar)
    + c dY(u_k | vbar) / dv_j; independent of ``omega_columns``.  Broadcasts
    over the model's batch axes like the evaluators it is built from.
    """
    c = model.c
    return (g_table(c, us, vbar) * y_eval(model, us, vbar)[..., None, :]
            + np.asarray(c)[..., None, None] * y_removed(model, us, vbar, shift=1))


def build_omega(model: YModel, vbar, ubar) -> np.ndarray:
    """The n x (n+1) system matrix Omega by substitution (``omega_columns``)."""
    return omega_columns(model, vbar, ubar)


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
    scale: float


def build_m(model: YModel, vbar, ubar) -> SystemMatrices:
    """Assemble M[j, k] = L[j, k] - delta_jk Lambda(u_j | vbar) and Omega.

    det M = 0 holds for any vbar; whether vbar is on-shell matters only for
    reading X as inner products.
    """
    v = _vals(vbar)
    u = _vals(ubar)
    require_distinct(u, "u parameters")
    n = len(v)
    if len(u) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} u-parameters, got {len(u)}")
    lam = lambda_eval(model, u, v)
    action = action_table(model, u)
    m = action - np.diag(lam)
    scale = max(float(np.max(np.abs(action))), float(np.max(np.abs(lam))))
    omega = omega_columns(model, vbar, ubar)
    return SystemMatrices(m=m, omega=omega, vbar=tuple(v), ubar=tuple(u),
                          model=model, scale=max(scale, 1e-300))


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


def numerical_rank(mat: np.ndarray, scale: float | None = None) -> tuple[int, np.ndarray]:
    """(rank, singular values) with threshold RANK_RTOL * sigma_max.

    When ``scale`` is given the threshold is RANK_RTOL * scale instead, which is
    the right notion when the matrix is a difference of O(scale) pieces that
    may cancel entirely.
    """
    if mat.size == 0:
        return 0, np.zeros(0)
    sv = np.linalg.svd(mat, compute_uv=False)
    ref = scale if scale is not None else sv[0]
    if ref == 0.0:
        return 0, sv
    return int(np.sum(sv > RANK_RTOL * ref)), sv


def scaled_minors(c: complex, omega: np.ndarray, ubar, vbar) -> np.ndarray:
    """Delta(ubar_l) * Delta'(vbar) * minor_l(Omega) for every l (0-based).

    The minors are one stacked determinant over the column removals of the
    n x (n+1) matrix Omega.  The products are taken one l at a time: numpy's
    array multiply may fuse operations and round differently from the scalar
    expression.
    """
    minors = np.linalg.det(np.swapaxes(_removals(np.asarray(omega)), -3, -2))
    dp = delta_prime(c, vbar)
    return np.array([delta(c, rest) * dp * minor
                     for rest, minor in zip(_removals(_vals(ubar)), minors)])


# ---------------------------------------------------------------------------
# null-ray extraction


@dataclass
class SolutionVector:
    """Null ray of M, normalized on the index with the largest scaled minor."""

    x: np.ndarray
    residual: float


def solve_x(sys: SystemMatrices) -> SolutionVector:
    """Extract X with M X = 0, scaled so X_m = Delta(ubar_m) Delta'(vbar) minor_m(Omega).

    The normalization index m maximizes that scaled minor in modulus.  Raises
    RankDeficiencyError when the numerical rank of M falls below n, reporting
    the singular-value gap that triggered the decision.
    """
    n = len(sys.vbar)
    if n == 0:
        return SolutionVector(x=np.array([1.0 + 0.0j]), residual=0.0)
    rank, sv = numerical_rank(sys.m, scale=sys.scale)
    if rank < n:
        gap = float(sv[rank] / sys.scale) if rank < len(sv) else 0.0
        raise RankDeficiencyError(
            f"rank {rank} < expected {n}; normalized singular values "
            f"{np.array2string(sv / (sv[0] or 1.0), precision=2)}",
            rank=rank, expected=n, gap=gap)
    _, _, vh = np.linalg.svd(sys.m)
    null = vh[-1].conj()
    scaled = scaled_minors(sys.model.c, sys.omega, sys.ubar, sys.vbar)
    m_idx = int(np.argmax(np.abs(scaled)))
    if null[m_idx] == 0:
        raise RankDeficiencyError("null vector vanishes at the normalization index",
                                  rank=rank, expected=n, gap=0.0)
    x = null * (scaled[m_idx] / null[m_idx])
    resid = float(np.max(np.abs(sys.m @ x)) / max(np.linalg.norm(x), 1e-300))
    return SolutionVector(x=x, residual=resid)


def ray_distance(a: np.ndarray, b: np.ndarray) -> float:
    """|b - proj_a b| / |b|, the sine of the angle between the rays of a and b.

    Linear in the angle and never negative; 1.0 when either vector is zero.
    """
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0
    a_hat, b_hat = a / na, b / nb
    return float(np.linalg.norm(b_hat - a_hat * np.vdot(a_hat, b_hat)))


# ---------------------------------------------------------------------------
# row-reduction machinery


def w_matrix(c: complex, ubar, wbar) -> np.ndarray:
    """W[j, k] = g(u_k, w_j) * g(u_k, ubar_k) / g(u_k, wbar)."""
    u = _vals(ubar)
    w = _vals(wbar)
    g_uw = g_table(c, u, w)
    return g_uw * g_rest(c, u) / np.prod(g_uw, axis=0)


@dataclass
class WTransformReport:
    """Numerical outcome of the row-reduction checks."""

    det_w_error: float
    closed_form_error: float
    last_row_ratio: float
    omega_row_error: float
    equivalent_ray_distance: float


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
    gk = g_rest(c, u)
    lam = lambda_eval(model, u, lam_set)
    closed = gk * y_removed(model, u, wbar) - w * lam
    scale = np.max(np.abs(m_tilde)) or 1.0
    closed_form_error = float(np.max(np.abs(m_tilde - closed)) / scale)

    last_row_ratio = float(np.linalg.norm(m_tilde[n]) / (np.linalg.norm(m_tilde) or 1.0))

    # rows j < n of the transformed matrix are multiples of Omega's rows, and
    # the equivalent n x (n+1) system shares the null ray of M
    equiv = gk * omega_columns(model, v, u)
    row_err = float(np.max(np.abs(m_tilde[:n] - equiv / g_table(c, [w_free], v)),
                           initial=0.0) / scale)
    _, _, vh_m = np.linalg.svd(m)
    _, _, vh_e = np.linalg.svd(equiv)
    ray_dist = ray_distance(vh_m[-1].conj(), vh_e[-1].conj())

    return WTransformReport(det_w_error=float(det_w_error),
                            closed_form_error=closed_form_error,
                            last_row_ratio=last_row_ratio,
                            omega_row_error=row_err,
                            equivalent_ray_distance=ray_dist)
