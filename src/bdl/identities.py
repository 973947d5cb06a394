"""Executable rational summation identities.

Both identities are proved by residue bookkeeping for a large-circle contour
integral that vanishes; the module evaluates the sums directly and compares
them with the closed forms, and also exposes the residue decompositions
themselves so the bookkeeping (sum of all finite residues equals zero) can be
tested term by term.  No numerical integration is performed anywhere.

``identity_a`` and ``identity_b`` broadcast over a stacked model: the point
sets carry the same leading batch axes, and ``j``, ``k`` are integers or
arrays of one index per instance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import YModel, alpha_values, omega_columns, y_eval, y_removed
from .rational import _removals, _vals, esp_all, g, g_prod, g_rest, g_table

ERROR_FLOOR = 1e-30


def rel_error(lhs, rhs, floor: float = ERROR_FLOOR):
    """|lhs - rhs| / max(|lhs|, |rhs|, floor), elementwise; a float for scalars."""
    err = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), floor)
    return float(err) if np.ndim(err) == 0 else err


@dataclass
class IdentityReport:
    """Both sides and their relative error; arrays over a stacked model."""

    identity_id: str
    lhs: complex
    rhs: complex
    relative_error: float

    @classmethod
    def of(cls, identity_id: str, lhs, rhs) -> "IdentityReport":
        if np.ndim(lhs) == 0:
            lhs, rhs = complex(lhs), complex(rhs)
        return cls(identity_id, lhs, rhs, rel_error(lhs, rhs))


def _pick(arr: np.ndarray, idx, axis: int = -1) -> np.ndarray:
    """arr[..., idx] along ``axis``, with idx an integer or one index per instance."""
    idx = np.asarray(idx)
    idx = idx.reshape(idx.shape + (1,) * (arr.ndim - idx.ndim))
    return np.take_along_axis(arr, idx, axis=axis).squeeze(axis)


# ---------------------------------------------------------------------------
# identity A: sum over removal subsets of the u-set


def identity_a(model: YModel, ubar, wbar, j, k) -> IdentityReport:
    """sum_l g(u_l, ubar_l) Y(u_k | ubar_l) g(u_l, w_j) / g(u_l, wbar)
    equals Y(u_k | wbar_j)."""
    u = _vals(ubar)
    w = _vals(wbar)
    c = model.c
    g_uw = g_table(c, u, w)
    weights = g_rest(c, u) * _pick(g_uw, j, axis=-2) / np.prod(g_uw, axis=-2)
    u_k = _pick(u, k)[..., None]
    lhs = (weights[..., None, :] @ y_removed(model, u_k, u))[..., 0, 0]
    rhs = y_eval(model, u_k, _pick(_removals(w), j, axis=-2))[..., 0]
    return IdentityReport.of("removal-sum", lhs, rhs)


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


# ---------------------------------------------------------------------------
# identity B: sum over single v-removals against the (S+1)-point u-set


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


def identity_b(model: YModel, ubar, vbar, j, k) -> IdentityReport:
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
             * g_rest(c, v) / np.prod(g_uv, axis=-1))
    lhs = np.sum(terms, axis=-1)
    lam = np.prod(_pick(g_uv, j), axis=-1) * y_eval(model, u_j, v)[..., 0]
    rhs = (_pick(y_removed(model, u_j, u)[..., 0], k)
           - np.where(np.equal(j, k), lam / _pick(g_rest(c, u), j), 0.0))
    return IdentityReport.of("pole-sum", lhs, rhs)


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
