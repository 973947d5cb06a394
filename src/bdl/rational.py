"""Rational building blocks: the two-point function g, set products, the
ordered pair products Delta / Delta', and elementary symmetric polynomials.

All functions are pure and operate on plain complex scalars or sequences of
them.
"""
from __future__ import annotations

from typing import Union

import numpy as np

from .errors import PoleError

ComplexLike = Union[complex, float, int]


def _vals(values) -> np.ndarray:
    """Coerce any sequence into a 1-d complex array."""
    return np.asarray(list(values), dtype=complex)


def separation_tol(u: ComplexLike, v: ComplexLike) -> float:
    """Distance below which u and v count as coincident (relative, floor 1)."""
    return 1e-9 * max(1.0, abs(u), abs(v))


def g(c: complex, u: ComplexLike, v: ComplexLike) -> complex:
    """g(u, v) = c / (u - v); raises PoleError near u = v."""
    if abs(u - v) < separation_tol(u, v):
        raise PoleError(f"g pole: |u - v| = {abs(u - v):.3e} below tolerance")
    return c / (u - v)


def g_prod(c: complex, u: ComplexLike, values) -> complex:
    """Product of g(u, v_i) over the set; the empty set gives 1."""
    out = 1.0 + 0.0j
    for v in _vals(values):
        out *= g(c, u, v)
    return out


def g_table(c: complex, zs, values) -> np.ndarray:
    """G[j, k] = g(z_k, v_j) as a (len(values), len(zs)) array."""
    z = _vals(zs)
    v = _vals(values)
    return np.array([[g(c, zk, vj) for zk in z] for vj in v], dtype=complex).reshape(len(v), len(z))


def g_rest(c: complex, values) -> np.ndarray:
    """g(v_k, set \\ v_k) for each element k of the set."""
    arr = _vals(values)
    return np.array([g_prod(c, v, np.delete(arr, k)) for k, v in enumerate(arr)], dtype=complex)


def delta(c: complex, values) -> complex:
    """Product of g(v_j, v_k) over ordered pairs j > k; empty/singleton -> 1."""
    arr = _vals(values)
    out = 1.0 + 0.0j
    for j in range(len(arr)):
        for k in range(j):
            out *= g(c, arr[j], arr[k])
    return out


def delta_prime(c: complex, values) -> complex:
    """Product of g(v_j, v_k) over ordered pairs j < k; empty/singleton -> 1."""
    arr = _vals(values)
    out = 1.0 + 0.0j
    for j in range(len(arr)):
        for k in range(j + 1, len(arr)):
            out *= g(c, arr[j], arr[k])
    return out


def esp_all(values) -> np.ndarray:
    """All elementary symmetric polynomials sigma_0 .. sigma_n of the set.

    Built by incrementally multiplying out prod_i (t + v_i) and reading off
    coefficients, which reproduces the defining recurrence exactly and avoids
    any numerical differentiation.
    """
    arr = _vals(values)
    sig = np.zeros(len(arr) + 1, dtype=complex)
    sig[0] = 1.0
    for v in arr:
        sig[1:] = sig[1:] + v * sig[:-1]
    return sig


def esp_removed(values) -> np.ndarray:
    """Table T[..., j, p] = sigma_p(set \\ v_j), p = 0 .. n-1, of all one-element removals.

    The set runs along the last axis of ``values``, so a stack of sets gives a
    stack of tables.  Row j runs the recurrence of ``esp_all`` on the set with
    element j taken out, all rows at once.
    """
    arr = np.asarray(values, dtype=complex)
    n = arr.shape[-1]
    lead = arr.shape[:-1]
    full = np.broadcast_to(arr[..., None, :], lead + (n, n))
    rest = full[..., ~np.eye(n, dtype=bool)].reshape(lead + (n, max(n - 1, 0)))
    sig = np.zeros(lead + (n, n), dtype=complex)
    sig[..., :1] = 1.0
    for i in range(n - 1):
        sig[..., 1:] = sig[..., 1:] + rest[..., i:i + 1] * sig[..., :-1]
    return sig


def require_distinct(values, what: str = "parameters", tol: float | None = None) -> None:
    """Raise PoleError unless all values are pairwise separated."""
    arr = _vals(values)
    for a in range(len(arr)):
        for b in range(a):
            t = separation_tol(arr[a], arr[b]) if tol is None else tol
            if abs(arr[a] - arr[b]) <= t:
                raise PoleError(f"coincident {what}: elements {b} and {a} separated by {abs(arr[a]-arr[b]):.3e}")
