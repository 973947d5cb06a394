"""Executable rational summation identities.

Both identities are proved by residue bookkeeping for a large-circle contour
integral that vanishes; the module evaluates the sums directly and compares
them with the closed forms.  No numerical integration is performed anywhere;
the residue decompositions themselves are checked term by term in the test
suite.

``identity_a`` and ``identity_b`` return the pair (lhs, rhs) of the two
sides, which ``rel_error`` judges.  Both broadcast over a stacked model: the
point sets carry the same leading batch axes, ``j``, ``k`` are integers or
arrays of one index per instance, and each side is an array over the stack.
``row_error`` judges a stack of vectors row by row (``transfer-action``).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .models import YModel, omega_columns, y_eval, y_removed
from .rational import _removals, _vals, g_rest, g_table

ERROR_FLOOR = 1e-30


def rel_error(lhs, rhs):
    """|lhs - rhs| / max(|lhs|, |rhs|, ERROR_FLOOR), elementwise; a float for scalars."""
    err = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), ERROR_FLOOR)
    return float(err) if err.ndim == 0 else err


def row_error(lhs, rhs):
    """max |lhs - rhs| / max(max |lhs|, max |rhs|, 1e-300) over the last axis, one per row."""
    scale = np.maximum(np.abs(lhs).max(axis=-1), np.abs(rhs).max(axis=-1))
    return np.abs(lhs - rhs).max(axis=-1) / np.maximum(scale, 1e-300)


def ratio_spread(ratios) -> float:
    """max |r - mean| / max(|mean|, ERROR_FLOOR) over the ratios: 0 when they are one constant.

    No ratio at all (every minor of a state not finite) shows no constant: NaN.
    """
    ratios = np.asarray(ratios)
    if not ratios.size:
        return math.nan
    mean = ratios.mean()
    return np.abs(ratios - mean).max() / max(abs(mean), ERROR_FLOOR)


@lru_cache(maxsize=None)
def _grid(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The open grid ``np.indices(shape, sparse=True)``, read-only, built once per shape."""
    axes = []
    for i, size in enumerate(shape):
        axis = np.arange(size).reshape((1,) * i + (size,) + (1,) * (len(shape) - i - 1))
        axis.flags.writeable = False
        axes.append(axis)
    return tuple(axes)


def _pick(arr: np.ndarray, idx, axis: int = -1) -> np.ndarray:
    """arr[..., idx] along ``axis``, with idx an integer or one index per instance."""
    idx = np.asarray(idx)
    return arr[(*_grid(arr.shape[:idx.ndim]), ..., idx) + (slice(None),) * (-1 - axis)]


# ---------------------------------------------------------------------------
# identity A: sum over removal subsets of the u-set


def identity_a(model: YModel, ubar, wbar, j, k) -> tuple[np.ndarray, np.ndarray]:
    """sum_l g(u_l, ubar_l) Y(u_k | ubar_l) g(u_l, w_j) / g(u_l, wbar)
    equals Y(u_k | wbar_j)."""
    u = _vals(ubar)
    w = _vals(wbar)
    c = model.c
    g_uw = g_table(c, u, w)
    weights = g_rest(c, u) * _pick(g_uw, j, axis=-2) / g_uw.prod(axis=-2)
    u_k = _pick(u, k)[..., None]
    lhs = (weights[..., None, :] @ y_removed(model, u_k, u))[..., 0, 0]
    rhs = y_eval(model, u_k, _pick(_removals(w), j, axis=-2))[..., 0]
    return lhs, rhs


# ---------------------------------------------------------------------------
# identity B: sum over single v-removals against the (S+1)-point u-set


def identity_b(model: YModel, ubar, vbar, j, k) -> tuple[np.ndarray, np.ndarray]:
    """sum_l g(u_j, v_l) Y(u_j | {u_j} + vbar_l) g(u_k, v_l) g(vbar_l, v_l) / g(ubar, v_l)
    equals Y(u_j | ubar_k) - delta_jk Lambda(u_j | vbar) / g(u_j, ubar_j).

    The first two factors of each term are the Omega entry of column u_j.  The
    diagonal sign and the complement-set form of the second term are the
    residue-derived versions; the tests pin them against hand expansions and
    finite differences.
    """
    u = _vals(ubar)
    v = _vals(vbar)
    c = model.c
    n = v.shape[-1]
    u_j = _pick(u, j)[..., None]
    g_uv = g_table(c, u, v)
    # g(vbar_l, v_l) = (-1)^(n-1) g(v_l, vbar_l)
    terms = (omega_columns(model, v, u_j)[..., 0] * _pick(g_uv, k) * (-1) ** (n - 1)
             * g_rest(c, v) / g_uv.prod(axis=-1))
    lhs = terms.sum(axis=-1)
    lam = _pick(g_uv, j).prod(axis=-1) * y_eval(model, u_j, v)[..., 0]
    rhs = (_pick(y_removed(model, u_j, u)[..., 0], k)
           - np.where(np.equal(j, k), lam / _pick(g_rest(c, u), j), 0.0))
    return lhs, rhs
