"""Rational building blocks: the two-point function g, set products, the
ordered pair products Delta / Delta', and elementary symmetric polynomials.

All functions are pure.  ``g``, ``g_table``, ``g_prod``, ``g_rest``,
``esp_all`` and ``esp_removed`` take leading batch axes: a set runs along the
last axis of its array, and the coupling ``c`` broadcasts against the batch
axes, so a stack of instances is evaluated in one pass and a single instance
is the case without batch axes.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import PoleError


def _vals(values) -> np.ndarray:
    """Coerce any sequence, or a stack of them, into a complex array."""
    return np.asarray(values, dtype=complex)


def separation_tol(u, v):
    """Distance below which u and v count as coincident (relative, floor 1)."""
    return 1e-9 * np.maximum(np.maximum(np.abs(u), np.abs(v)), 1.0)


def g(c, u, v):
    """g(u, v) = c / (u - v), elementwise over broadcast arrays.

    Raises PoleError if any pair comes within ``separation_tol`` of a pole.
    """
    diff = np.subtract(u, v)
    gap = np.abs(diff)
    near = gap < separation_tol(u, v)
    if near.any():
        raise PoleError(f"g pole: |u - v| = {np.min(gap, where=near, initial=np.inf):.3e} "
                        "below tolerance")
    return c / diff


def g_table(c, zs, values) -> np.ndarray:
    """G[..., j, k] = g(z_k, v_j) as a (..., len(values), len(zs)) array."""
    z = _vals(zs)
    v = _vals(values)
    return g(np.asarray(c)[..., None, None], z[..., None, :], v[..., :, None])


def g_prod(c, u, values):
    """Product of g(u, v_i) over the set (last axis); the empty set gives 1."""
    return np.prod(g(np.asarray(c)[..., None], np.asarray(u)[..., None], _vals(values)), axis=-1)


@lru_cache(maxsize=None)
def _removal_index(n: int) -> np.ndarray:
    """Read-only (n, n - 1) index array whose row j lists 0 .. n-1 without j."""
    index = np.array([[k for k in range(n) if k != j] for j in range(n)], dtype=np.intp)
    index = index.reshape(n, max(n - 1, 0))
    index.flags.writeable = False
    return index


def _removals(arr: np.ndarray) -> np.ndarray:
    """R[..., j, :] = the set with element j taken out, for every j."""
    return arr[..., _removal_index(arr.shape[-1])]


def g_rest(c, values) -> np.ndarray:
    """g(v_k, set \\ v_k) for each element k of the set."""
    arr = _vals(values)
    return g_prod(np.asarray(c)[..., None], arr, _removals(arr))


@lru_cache(maxsize=None)
def _pairs(n: int, lower: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays of the ordered pairs j > k (or j < k) of n items, row by row."""
    j, k = np.tril_indices(n, -1) if lower else np.triu_indices(n, 1)
    j.flags.writeable = k.flags.writeable = False
    return j, k


def delta(c: complex, values) -> complex:
    """Product of g(v_j, v_k) over ordered pairs j > k; empty/singleton -> 1."""
    arr = _vals(values)
    j, k = _pairs(len(arr), lower=True)
    return np.prod(g(c, arr[j], arr[k]))


def delta_prime(c: complex, values) -> complex:
    """Product of g(v_j, v_k) over ordered pairs j < k; empty/singleton -> 1."""
    arr = _vals(values)
    j, k = _pairs(len(arr), lower=False)
    return np.prod(g(c, arr[j], arr[k]))


def esp_all(values) -> np.ndarray:
    """All elementary symmetric polynomials sigma_0 .. sigma_n of the set.

    Built by incrementally multiplying out prod_i (t + v_i) and reading off
    coefficients, which reproduces the defining recurrence exactly and avoids
    any numerical differentiation.
    """
    arr = _vals(values)
    n = arr.shape[-1]
    sig = np.zeros(arr.shape[:-1] + (n + 1,), dtype=complex)
    sig[..., 0] = 1.0
    for i in range(n):
        sig[..., 1:] = sig[..., 1:] + arr[..., i:i + 1] * sig[..., :-1]
    return sig


def esp_removed(values) -> np.ndarray:
    """Table T[..., j, p] = sigma_p(set \\ v_j), p = 0 .. n-1, of all one-element removals.

    Row j runs the recurrence of ``esp_all`` on the set with element j taken
    out, all rows at once.
    """
    arr = _vals(values)
    return esp_all(_removals(arr))[..., :arr.shape[-1]]


def require_distinct(values, what: str = "parameters") -> None:
    """Raise PoleError unless all values are pairwise farther apart than ``separation_tol``."""
    arr = _vals(values)
    a, b = _pairs(len(arr), lower=True)
    gap = np.abs(arr[a] - arr[b])
    close = gap <= separation_tol(arr[a], arr[b])
    if close.any():
        first = np.argmax(close)
        raise PoleError(f"coincident {what}: elements {b[first]} and {a[first]} "
                        f"separated by {gap[first]:.3e}")
