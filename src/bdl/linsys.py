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
machinery (W-transform) as an executable check.  Each object is built once,
where it is read: ``solve_x`` builds Omega and returns its scaled minors.

Everything from ``action_table`` on takes stacks: point sets carry leading
batch axes (a set runs along the last axis), and a stack of instances is
built, reduced and judged in one pass.  A single instance gives floats where
a stack gives arrays.

Its arrays hold a few entries, so, as everywhere ``bdl verify`` runs
(``tests/test_per_call_path.py`` guards it), it reduces and gathers with
ufuncs and ndarray methods, not numpy's Python-level wrappers: ``_norm``
is the sum of squares that ``np.linalg.norm`` takes for these arguments,
``_pick`` gathers the normalization index, and the boolean diagonal of
``_closure`` is built once per size.  Every result keeps its bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RankDeficiencyError
from .identities import _pick, rel_error
from .models import YModel, lambda_eval, omega_columns, y_eval, y_removed
from .rational import (_removals, _vals, delta, delta_prime, g_prod, g_rest, g_table,
                       require_distinct)

# singular values below RANK_RTOL times the reference scale count as zero
RANK_RTOL = 1e-8
# the W-transform's decoupled eigenvalue argument is vbar + OFFSHELL_SHIFT
OFFSHELL_SHIFT = 0.1 + 0.07j


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
    return y_removed(model, u, u) * g_rest(model.c, u)[..., None, :]


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


def _scalar(value: np.ndarray):
    """A float for a single instance (a 0-d array or numpy scalar), the array for a stack."""
    return float(value) if value.ndim == 0 else value


@lru_cache(maxsize=None)
def _diagonal(n: int) -> np.ndarray:
    """The read-only n x n boolean identity, built once per n."""
    mask = np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _norm(x: np.ndarray, axis=-1, keepdims: bool = False) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis, keepdims=keepdims)``: the 2-norm, or Frobenius over two axes.

    The same reduction that ``norm`` runs for these arguments, sqrt of the
    sum of (conj(x) x).real, without its argument handling.
    """
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis, keepdims=keepdims))


@dataclass
class SystemMatrices:
    """Closure matrix M and its inputs; Omega is built where it is read.

    ``scale`` is the largest magnitude among the action coefficients and the
    eigenvalues that were subtracted to form M; residuals and rank decisions
    are judged against it so that a matrix that cancels to zero (the
    degenerate family) is recognized as rank-deficient rather than treated as
    a full-rank noise matrix.  A stack has one scale per instance.
    """

    m: np.ndarray
    vbar: np.ndarray
    ubar: np.ndarray
    model: YModel
    scale: float | np.ndarray


def _system_points(vbar, ubar) -> tuple[np.ndarray, np.ndarray]:
    """vbar and ubar as arrays, ubar checked to hold n + 1 distinct points."""
    v, u = _vals(vbar), _vals(ubar)
    require_distinct(u, "u parameters")
    if u.shape[-1] != v.shape[-1] + 1:
        raise ValueError(f"need n+1 = {v.shape[-1] + 1} u-parameters, got {u.shape[-1]}")
    return v, u


def _closure(action: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """M = L - diag(Lambda): the action table with the eigenvalues off its diagonal."""
    return np.where(_diagonal(lam.shape[-1]), action - lam[..., None, :], action)


def build_m(model: YModel, vbar, ubar) -> SystemMatrices:
    """Assemble M[j, k] = L[j, k] - delta_jk Lambda(u_j | vbar).

    det M = 0 holds for any vbar; whether vbar is on-shell matters only for
    reading X as inner products.
    """
    v, u = _system_points(vbar, ubar)
    lam = lambda_eval(model, u, v)
    action = action_table(model, u)
    scale = np.maximum(np.abs(action).max(axis=(-2, -1)), np.abs(lam).max(axis=-1))
    return SystemMatrices(m=_closure(action, lam), vbar=v, ubar=u, model=model,
                          scale=_scalar(np.maximum(scale, 1e-300)))


# ---------------------------------------------------------------------------
# determinants, rank, minors


def scaled_det_residual(mat: np.ndarray) -> float | np.ndarray:
    """|det| normalized by the product of row norms (0 for a zero row)."""
    if mat.shape[-1] == 0:
        return _scalar(np.zeros(mat.shape[:-2]))
    row_norms = _norm(mat)
    zero_row = (row_norms == 0.0).any(axis=-1)
    norms = np.where(zero_row[..., None], 1.0, row_norms).prod(axis=-1)
    return _scalar(np.where(zero_row, 0.0, np.abs(np.linalg.det(mat)) / norms))


def _rank(sv: np.ndarray, scale=None):
    """The rank rule of ``numerical_rank`` on singular values ``sv`` (descending, last axis)."""
    ref = np.asarray(scale if scale is not None else sv[..., 0])
    rank = np.where(ref == 0.0, 0, (sv > RANK_RTOL * ref[..., None]).sum(axis=-1))
    return int(rank) if rank.ndim == 0 else rank


def numerical_rank(mat: np.ndarray, scale=None) -> tuple[int, np.ndarray]:
    """(rank, singular values) with threshold RANK_RTOL * sigma_max.

    When ``scale`` is given the threshold is RANK_RTOL * scale instead, which is
    the right notion when the matrix is a difference of O(scale) pieces that
    may cancel entirely.  A stack gives one rank per instance.
    """
    if mat.size == 0:
        return 0, np.zeros(0)
    sv = np.linalg.svd(mat, compute_uv=False)
    return _rank(sv, scale), sv


def scaled_minors(c: complex, omega: np.ndarray, ubar, vbar) -> np.ndarray:
    """Delta(ubar_l) * Delta'(vbar) * minor_l(Omega) for every l (0-based).

    The minors are one stacked determinant over the column removals of the
    n x (n+1) matrix Omega.  The products are numpy's complex products, so
    a member of a stack may differ from a call on it alone in the last bits.
    """
    minors = np.linalg.det(_removals(np.asarray(omega)).swapaxes(-3, -2))
    rest = delta(np.asarray(c)[..., None], _removals(_vals(ubar)))
    return rest * np.asarray(delta_prime(c, vbar))[..., None] * minors


# ---------------------------------------------------------------------------
# null-ray extraction


@dataclass
class SolutionVector:
    """Null ray ``x`` of M, normalized on the largest of the scaled ``minors`` of Omega."""

    x: np.ndarray
    minors: np.ndarray
    residual: float | np.ndarray


def system_residual(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """max |M x| / max(|x|, 1e-300) per instance of a stack: how far x is from M x = 0."""
    return (np.abs(np.matmul(m, x[..., None])[..., 0]).max(axis=-1)
            / np.maximum(_norm(x), 1e-300))


def solve_x(sys: SystemMatrices) -> SolutionVector:
    """Extract X with M X = 0, scaled so X_m = Delta(ubar_m) Delta'(vbar) minor_m(Omega).

    Omega is built here (``build_omega``); the normalization index m maximizes
    the scaled minor in modulus.  Raises RankDeficiencyError when the numerical
    rank of M (the rule of ``numerical_rank``) falls below n, reporting the
    singular-value gap of the first such instance of a stack.  The rank and
    the null ray come from one SVD of M.
    """
    n = sys.vbar.shape[-1]
    batch = sys.m.shape[:-2]
    if n == 0:
        ones = np.ones(batch + (1,), dtype=complex)
        return SolutionVector(x=ones, minors=ones.copy(), residual=_scalar(np.zeros(batch)))
    _, sv, vh = np.linalg.svd(sys.m)
    ranks = np.asarray(_rank(sv, sys.scale)).ravel()
    short = (ranks < n).nonzero()[0]
    if len(short):
        first = short[0]
        rank = int(ranks[first])
        sv = sv.reshape(-1, n + 1)[first]
        scales = np.empty(batch)
        scales[...] = sys.scale
        scale = float(scales.ravel()[first])
        gap = float(sv[rank] / scale) if rank < len(sv) else 0.0
        raise RankDeficiencyError(
            f"rank {rank} < expected {n}; normalized singular values "
            f"{np.array2string(sv / (sv[0] or 1.0), precision=2)}",
            rank=rank, expected=n, gap=gap)
    null = vh[..., -1, :].conj()
    omega = build_omega(sys.model, sys.vbar, sys.ubar)
    scaled = scaled_minors(sys.model.c, omega, sys.ubar, sys.vbar)
    m_idx = np.abs(scaled).argmax(axis=-1)
    pivot = _pick(null, m_idx)[..., None]
    if (pivot == 0).any():
        raise RankDeficiencyError("null vector vanishes at the normalization index",
                                  rank=n, expected=n, gap=0.0)
    x = null * (_pick(scaled, m_idx)[..., None] / pivot)
    return SolutionVector(x=x, minors=scaled, residual=_scalar(system_residual(sys.m, x)))


def ray_distance(a: np.ndarray, b: np.ndarray) -> float:
    """|b - proj_a b| / |b|, the sine of the angle between the rays of a and b.

    Linear in the angle and never negative; 1.0 when either vector is zero.
    Stacks of vectors give one distance per pair.
    """
    na = _norm(a, keepdims=True)
    nb = _norm(b, keepdims=True)
    null = (na == 0.0) | (nb == 0.0)
    a_hat = a / np.where(null, 1.0, na)
    b_hat = b / np.where(null, 1.0, nb)
    overlap = (a_hat.conj() * b_hat).sum(axis=-1, keepdims=True)
    dist = _norm(b_hat - a_hat * overlap)
    return _scalar(np.where(null[..., 0], 1.0, dist))


# ---------------------------------------------------------------------------
# row-reduction machinery


def w_matrix(c: complex, ubar, wbar) -> np.ndarray:
    """W[j, k] = g(u_k, w_j) * g(u_k, ubar_k) / g(u_k, wbar)."""
    u, w = _vals(ubar), _vals(wbar)
    g_uw = g_table(c, u, w)
    return g_uw * g_rest(c, u)[..., None, :] / g_uw.prod(axis=-2)[..., None, :]


def _last_row_ratio(m_tilde: np.ndarray) -> np.ndarray:
    """|last row| / |matrix| in the Frobenius norm (0 for a zero matrix)."""
    norm = _norm(m_tilde, axis=(-2, -1))
    return _norm(m_tilde[..., -1, :]) / np.where(norm == 0.0, 1.0, norm)


def w_transform_check(model: YModel, vbar, ubar, w_free) -> dict[str, float | np.ndarray]:
    """Run the full battery of row-reduction identities.

    ``wbar`` is vbar extended by the free point ``w_free`` (one per instance
    of a stack).  Returns the six measures of the ``w-transform`` record, in
    its bounds' order:

    * ``det_w``: ``rel_error`` of det W against Delta(ubar) / Delta(wbar);
    * ``closed_form``: W M against its closed form, relative to max |W M|;
    * ``omega_rows``: rows j < n of W M against Omega's rows, on that scale;
    * ``row_onshell``: the last row of W M over the whole, which vanishes
      with the eigenvalue argument vbar;
    * ``ray``: ``ray_distance`` between the null rays of M and of the
      equivalent n x (n+1) system;
    * ``row_offshell_min``: the same last-row ratio with the decoupled
      argument vbar + OFFSHELL_SHIFT, generically nonzero (the contrapositive
      of the vanishing-row statement).

    M depends on the eigenvalue argument only through its diagonal, so both
    closure matrices share one action table, and the closed form is judged at
    vbar.  Each value is a float for one instance, an array over a stack.
    """
    v, u = _system_points(vbar, ubar)
    w_free = _vals(w_free)[..., None]
    c = model.c
    wbar = np.empty(v.shape[:-1] + (v.shape[-1] + 1,), dtype=complex)
    wbar[..., :-1], wbar[..., -1:] = v, w_free
    require_distinct(wbar, "w parameters")

    w = w_matrix(c, u, wbar)
    det_w = rel_error(np.linalg.det(w), delta(c, u) / delta(c, wbar))

    action = action_table(model, u)
    lam = lambda_eval(model, u, v)
    m = _closure(action, lam)
    m_tilde = w @ m
    m_tilde_off = w @ _closure(action, lambda_eval(model, u, v + OFFSHELL_SHIFT))

    # closed form of the transformed matrix
    gk = g_rest(c, u)[..., None, :]
    closed = gk * y_removed(model, u, wbar) - w * lam[..., None, :]
    scale = np.abs(m_tilde).max(axis=(-2, -1))
    scale = np.where(scale == 0.0, 1.0, scale)
    closed_form = np.abs(m_tilde - closed).max(axis=(-2, -1)) / scale

    # rows j < n of the transformed matrix are multiples of Omega's rows, and
    # the equivalent n x (n+1) system shares the null ray of M
    equiv = gk * omega_columns(model, v, u)
    omega_rows = np.abs(m_tilde[..., :-1, :] - equiv / g_table(c, w_free, v)).max(
        axis=(-2, -1), initial=0.0) / scale
    _, _, vh_m = np.linalg.svd(m)
    _, _, vh_e = np.linalg.svd(equiv)
    ray = ray_distance(vh_m[..., -1, :].conj(), vh_e[..., -1, :].conj())

    return {"det_w": det_w, "closed_form": _scalar(closed_form),
            "omega_rows": _scalar(omega_rows), "row_onshell": _scalar(_last_row_ratio(m_tilde)),
            "ray": ray, "row_offshell_min": _scalar(_last_row_ratio(m_tilde_off))}
