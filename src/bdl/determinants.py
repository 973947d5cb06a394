"""Closed-form determinant representations and their oracle calibrations.

Four formulas live here:

* the domain-wall partition determinant (inner product of a dual product
  state with creation operators frozen at a subset of the inhomogeneities);
* the root-system Jacobian ("Gaudin") matrix, its contour-rule cross-check,
  and the norm it encodes;
* the determinant representation of on-shell/off-shell inner products for the
  periodic chain;
* the analogous representation for the broken-symmetry twisted chain, whose
  scalar prefactor is taken from the oracle.

Conventions: all monodromy entries are normalized per site by 1/c.  Relative
to that normalization the domain-wall determinant carries c**(-2 n N), and
the periodic inner-product formula carries prod_j lambda2(v_j) and no further
power of c: with the u-set frozen at inhomogeneities it equals the
domain-wall determinant times c**(-2 n N), which the test suite asserts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BdlError
from .linsys import omega_columns, scaled_minors
from .models import (PeriodicChainSpec, TwistSpec, YModel, bethe_jacobian, chain_y_model,
                     lambda2, y_eval)
from .oracle import (bethe_vector, direct_scalar_product, dual_bethe_vector,
                     vacuum_nu21_expectation)
from .rational import _vals, delta, delta_prime, require_distinct, scalar_mul


# ---------------------------------------------------------------------------
# domain-wall determinant


def spin_half_chain(spec: PeriodicChainSpec) -> bool:
    """Whether every site has spin 1/2, as the domain-wall determinant needs."""
    return all(abs(s - 0.5) <= 1e-12 for s in spec.spins)


def izergin(spec: PeriodicChainSpec, vbar, theta_indices) -> complex:
    """Domain-wall partition determinant for spin-1/2 chains.

    ``theta_indices`` selects the n inhomogeneities (0-based, distinct) at
    which the creation operators are frozen.  The value equals the direct
    inner product times c**(2 n N) in this package's normalization.
    """
    if not spin_half_chain(spec):
        raise BdlError("the domain-wall determinant applies to spin-1/2 chains")
    v = _vals(vbar)
    n = len(v)
    idx = list(theta_indices)
    if len(set(idx)) != len(idx):
        raise ValueError("theta subset indices must be distinct")
    if len(idx) != n:
        raise ValueError("need as many theta indices as v parameters")
    c = spec.c
    th = np.array([spec.theta[i] for i in idx], dtype=complex)
    require_distinct(np.concatenate((v, np.asarray(spec.theta))), "v and theta parameters")

    pref = c ** (2 * n - n * n) * delta(c, th) * delta_prime(c, v)
    p_sites = 1.0 + 0.0j
    for a in range(spec.n_sites):
        for mu in range(n):
            p_sites *= (th[mu] - spec.theta[a] + c) * (v[mu] - spec.theta[a])
    p_shift = 1.0 + 0.0j
    for nu in range(n):
        for mu in range(n):
            p_shift *= (v[mu] - th[nu] + c)
    if n == 0:
        return complex(pref * p_sites * p_shift)
    core = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            core[j, k] = 1.0 / ((v[j] - th[k]) * (v[j] - th[k] + c))
    return complex(pref * p_sites * p_shift * np.linalg.det(core))


def izergin_oracle_exponent(n: int, n_sites: int) -> int:
    """Power of c relating the determinant to the normalized-oracle pairing."""
    return -2 * n * n_sites


# ---------------------------------------------------------------------------
# periodic inner products


def phi_factor(spec: PeriodicChainSpec, vbar) -> complex:
    """The symmetric scale Phi(vbar) = prod_j lambda2(v_j); one per set of a stack.

    One ``lambda2`` call gives every factor, multiplied in set order as
    scalars would be.
    """
    factors = lambda2(spec, vbar)
    out = np.ones(factors.shape[:-1], dtype=complex)
    for j in range(factors.shape[-1]):
        out = scalar_mul(out, factors[..., j])
    return complex(out) if out.ndim == 0 else out


def scalar_product(spec: PeriodicChainSpec, vbar, uvals, model: YModel | None = None):
    """Closed form of the inner product of the vbar-eigenstate with the
    product state over ``uvals`` (the n-point set with one element of the
    (n+1)-set removed; the removed element never enters).

        X = Phi(vbar) * Delta(uvals) * Delta'(vbar) * det(Omega columns at uvals)

    Requires vbar on-shell for the value to equal the oracle pairing.
    ``model`` is the chain's Y-model at n = len(vbar), built when not given.
    Stacks of sets (leading axes) give an array of products.
    """
    v = _vals(vbar)
    u = _vals(uvals)
    n = v.shape[-1]
    if u.shape[-1] != n:
        raise ValueError("the reduced u-set must have the same size as vbar")
    if model is None:
        model = chain_y_model(spec, n)
    omega = omega_columns(model, v, u)
    det = np.linalg.det(omega) if n else 1.0
    out = phi_factor(spec, v) * delta(spec.c, u) * delta_prime(spec.c, v) * det
    return complex(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# root-system Jacobian and norms


def gaudin_matrix_contour(model: YModel, sets) -> np.ndarray:
    """J[..., j, k] = dY(v_k | v)/dv_j from Y alone, the cross-check of ``bethe_jacobian``.

    Y(v_k | v) with v_j moved by t is a polynomial in t of degree at most
    deg(alpha) + 1, so the trapezoidal contour rule on K = deg(alpha) + 2
    points of radius 0.05 max(1, max|v|) is exact up to rounding (Lyness and
    Moler, SIAM J. Numer. Anal. 4 (1967) 202).  All K n^2 points are one
    ``y_eval`` call; a stack of sets (..., n) gives (..., n, n).
    """
    v = _vals(sets)
    k_pts = model.alpha.shape[-1] + 1
    nodes = np.exp(2j * np.pi * np.arange(k_pts) / k_pts)
    radius = 0.05 * np.maximum(np.abs(v).max(axis=-1), 1.0)
    # row (m, j) is the set with v_j moved by r w^m; its element k is entry (j, k)'s point
    steps = radius[..., None, None, None] * nodes[:, None, None] * np.eye(v.shape[-1])
    shifted = v[..., None, None, :] + steps
    values = y_eval(model, shifted, shifted)
    return np.einsum("...mjk,m->...jk", values, nodes.conj()) / (k_pts * radius[..., None, None])


@dataclass
class GaudinNormReport:
    ratios: np.ndarray
    spread: float
    fd_error: float
    determinants: np.ndarray


def gaudin_norm_check(spec: PeriodicChainSpec, states,
                      model: YModel | None = None) -> GaudinNormReport:
    """Compare oracle norms with the Jacobian determinant over a set of states.

    For each on-shell vbar the oracle bilinear norm should equal

        Phi(vbar) * c**n * Delta(vbar) Delta'(vbar) * det(Jacobian),

    so the reported per-state ratios are all the same constant; the spread is
    the acceptance figure.  ``fd_error`` is the worst entrywise deviation of
    the analytic Jacobian from ``gaudin_matrix_contour`` over the states.
    The states share one size n; ``model`` is the chain's Y-model at n, built
    when not given.  The states are one stacked pass, each rounding as alone.
    """
    sets = _vals(states).reshape(len(states), -1)
    n = sets.shape[-1]
    if model is None:
        model = chain_y_model(spec, n)
    norms = direct_scalar_product(dual_bethe_vector(spec, sets), bethe_vector(spec, sets))
    jac = bethe_jacobian(model, sets)
    dev = np.abs(jac - gaudin_matrix_contour(model, sets)).max(axis=(-2, -1))
    scale = np.maximum(np.abs(jac).max(axis=(-2, -1)), 1e-30)
    dets = np.linalg.det(jac)
    closed = phi_factor(spec, sets)
    for factor in (spec.c ** n, delta(spec.c, sets), delta_prime(spec.c, sets), dets):
        closed = scalar_mul(closed, factor)
    ratios = norms / closed
    mean = np.mean(ratios)
    spread = float(np.max(np.abs(ratios - mean)) / max(abs(mean), 1e-30))
    return GaudinNormReport(ratios=ratios, spread=spread, fd_error=float(np.max(dev / scale)),
                            determinants=dets)


# ---------------------------------------------------------------------------
# twisted chain


def maba_scalar_product(spec: PeriodicChainSpec, twist: TwistSpec, vbar, ubar,
                        model: YModel | None = None) -> np.ndarray:
    """All S+1 inner products of the twisted chain from the determinant form.

        X_l = (mu / kappa_minus)**S * <0| prod nu21(v_j) |0>
              * Delta(ubar_l) * Delta'(vbar) * minor_l(Omega)

    The vacuum expectation prefactor is computed by the oracle; its own
    closed determinant form is documented elsewhere and intentionally not
    implemented here.  ``model`` is the twisted chain's Y-model at S, built
    when not given.  Stacks of sets (leading axes) give one row of S+1
    products per instance.
    """
    v = _vals(vbar)
    u = _vals(ubar)
    s_total = spec.magnon_capacity
    if v.shape[-1] != s_total:
        raise ValueError(f"vbar must have S = {s_total} elements")
    if u.shape[-1] != s_total + 1:
        raise ValueError(f"ubar must have S+1 = {s_total + 1} elements")
    if model is None:
        model = chain_y_model(spec, s_total, twist)
    omega = omega_columns(model, v, u)
    prefactor = (twist.mu / twist.kappa_minus) ** s_total * vacuum_nu21_expectation(spec, twist, v)
    return np.asarray(prefactor)[..., None] * scaled_minors(spec.c, omega, u, v)
