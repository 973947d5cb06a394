"""Closed-form determinant representations: the closed side of every oracle check.

Four formulas live here:

* the domain-wall partition determinant (inner product of a dual product
  state with creation operators frozen at a subset of the inhomogeneities);
* the root-system Jacobian ("Gaudin") matrix, its contour-rule cross-check,
  and the norm it encodes;
* the determinant representation of on-shell/off-shell inner products for the
  periodic chain;
* the analogous representation for the broken-symmetry twisted chain.

Nothing here calls the oracle: the oracle values a formula is set against or
scaled by (the norms of ``gaudin_norm_check``, the vacuum expectation
<0| prod nu21(v_j) |0> of ``maba_scalar_product``) are arguments, which the
checks read off the run's eigenstates: each state's dual row paired with its
Bethe vector, and the row's vacuum entry.  Every formula takes stacks of sets.

Conventions: all monodromy entries are normalized per site by 1/c.  Relative
to that normalization the domain-wall determinant carries c**(-2 n N), and
the periodic inner-product formula carries prod_j lambda2(v_j) and no further
power of c: with the u-set frozen at inhomogeneities it equals the
domain-wall determinant times c**(-2 n N), which the test suite asserts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BdlError, PoleError
from .identities import ratio_spread
from .linsys import omega_columns, scaled_minors
from .models import (PeriodicChainSpec, TwistSpec, YModel, bethe_jacobian, chain_y_model,
                     lambda2, y_eval)
from .rational import (_vals, delta, delta_prime, require_distinct, scalar_mul, scalar_prod,
                       separation_tol)


# ---------------------------------------------------------------------------
# domain-wall determinant


def spin_half_chain(spec: PeriodicChainSpec) -> bool:
    """Whether every site has spin 1/2, as the domain-wall determinant needs."""
    return all(abs(s - 0.5) <= 1e-12 for s in spec.spins)


def izergin(spec: PeriodicChainSpec, vbar, theta_indices):
    """Domain-wall partition determinant for spin-1/2 chains; one per row of a stack.

    ``vbar`` is a set (n,) or a stack (..., n), and ``theta_indices`` the
    matching rows (..., n) of the inhomogeneities (0-based indices, distinct
    within a row) at which the creation operators are frozen.  With t those
    inhomogeneities,

        Z = c**(2n - n^2) Delta(t) Delta'(vbar)
            * prod_{a, mu} (t_mu - theta_a + c) (v_mu - theta_a)
            * prod_{nu, mu} (v_mu - t_nu + c) * det[1 / ((v_j - t_k) (v_j - t_k + c))],

    which equals the direct inner product times c**(2 n N) in this package's
    normalization.  Every product is rounded as the scalar product, in the
    written order (``scalar_mul``), so a row of a stack has the bits of a
    call on that row alone.  A single set gives a complex, a stack an array.

    At v_mu = t_nu - c the shift product vanishes and the determinant's entry
    is infinite.  That singularity is removable, but like ``g`` and
    ``lambda_eval`` the formula raises PoleError, naming the pair, wherever
    some row has a v_mu within ``separation_tol`` of some t_nu - c.
    """
    if not spin_half_chain(spec):
        raise BdlError("the domain-wall determinant applies to spin-1/2 chains")
    v = _vals(vbar)
    idx = np.asarray(theta_indices, dtype=int)
    if not (idx == np.asarray(theta_indices)).all() or ((idx < 0) | (idx >= spec.n_sites)).any():
        raise ValueError(f"theta subset indices must be integers in 0..{spec.n_sites - 1}")
    n = v.shape[-1]
    ordered = idx.copy()
    ordered.sort(axis=-1)
    if (ordered[..., 1:] == ordered[..., :-1]).any():
        raise ValueError("theta subset indices must be distinct")
    if idx.shape[-1] != n:
        raise ValueError("need as many theta indices as v parameters")
    c, theta = spec.c, spec._theta
    th = theta[idx]
    points = np.empty(v.shape[:-1] + (n + spec.n_sites,), dtype=complex)  # v, then every theta
    points[..., :n], points[..., n:] = v, theta
    require_distinct(points, "v and theta parameters")
    # the two site products, indexed [..., a, mu] and [..., nu, mu]
    sites = scalar_mul(th[..., None, :] - theta[:, None] + c, v[..., None, :] - theta[:, None])
    shift = v[..., None, :] - th[..., :, None] + c
    near = np.abs(shift) < separation_tol(v[..., None, :], th[..., :, None] - c)
    if near.any():
        *row, nu, mu = np.argwhere(near)[0]
        site = np.broadcast_to(idx, near.shape[:-1])[(*row, nu)]
        where = f" in row {tuple(int(r) for r in row)}" if row else ""
        raise PoleError(f"izergin pole: v[{mu}] within tolerance of theta[{site}] - c{where}")
    gap = v[..., :, None] - th[..., None, :]
    out = scalar_mul(c ** (2 * n - n * n), delta(c, th), delta_prime(c, v),
                     scalar_prod(sites.reshape(sites.shape[:-2] + (-1,))),
                     scalar_prod(shift.reshape(shift.shape[:-2] + (-1,))),
                     np.linalg.det(1.0 / scalar_mul(gap, gap + c)))
    return complex(out) if out.ndim == 0 else out


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
    out = scalar_prod(lambda2(spec, vbar))
    return complex(out) if out.ndim == 0 else out


def scalar_product(spec: PeriodicChainSpec, vbar, uvals):
    """Closed form of the inner product of the vbar-eigenstate with the
    product state over ``uvals`` (the n-point set with one element of the
    (n+1)-set removed; the removed element never enters).

        X = Phi(vbar) * Delta(uvals) * Delta'(vbar) * det(Omega columns at uvals)

    Requires vbar on-shell for the value to equal the oracle pairing.  Omega
    is built from the chain's Y-model at n = len(vbar) (``chain_y_model``).
    Stacks of sets (leading axes) give an array of products.
    """
    v, u = _vals(vbar), _vals(uvals)
    n = v.shape[-1]
    if u.shape[-1] != n:
        raise ValueError("the reduced u-set must have the same size as vbar")
    omega = omega_columns(chain_y_model(spec, n), v, u)
    det = np.linalg.det(omega) if n else 1.0
    out = phi_factor(spec, v) * delta(spec.c, u) * delta_prime(spec.c, v) * det
    return complex(out) if out.ndim == 0 else out


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


def gaudin_norm_check(spec: PeriodicChainSpec, states, norms) -> GaudinNormReport:
    """Compare the states' bilinear ``norms`` with the Jacobian determinant.

    ``norms`` holds <vbar|vbar> for each state, as the oracle pairs them.  For
    each on-shell vbar it should equal

        Phi(vbar) * c**n * Delta(vbar) Delta'(vbar) * det(Jacobian),

    so the reported per-state ratios are all the same constant; their spread
    (``ratio_spread``) is the acceptance figure.  ``fd_error`` is the worst
    entrywise deviation of the analytic Jacobian from
    ``gaudin_matrix_contour`` over the states.  The states share one size n
    and are judged with the chain's Y-model at n (``chain_y_model``), in one
    stacked pass, each rounding as alone.
    """
    sets = _vals(states).reshape(len(states), -1)
    n = sets.shape[-1]
    model = chain_y_model(spec, n)
    jac = bethe_jacobian(model, sets)
    dev = np.abs(jac - gaudin_matrix_contour(model, sets)).max(axis=(-2, -1))
    scale = np.maximum(np.abs(jac).max(axis=(-2, -1)), 1e-30)
    dets = np.linalg.det(jac)
    closed = scalar_mul(phi_factor(spec, sets), spec.c ** n, delta(spec.c, sets),
                        delta_prime(spec.c, sets), dets)
    ratios = norms / closed
    return GaudinNormReport(ratios=ratios, spread=float(ratio_spread(ratios)),
                            fd_error=float((dev / scale).max()), determinants=dets)


# ---------------------------------------------------------------------------
# twisted chain


def maba_scalar_product(spec: PeriodicChainSpec, twist: TwistSpec, vbar, ubar,
                        vacuum) -> np.ndarray:
    """All S+1 inner products of the twisted chain from the determinant form.

        X_l = (mu / kappa_minus)**S * <0| prod nu21(v_j) |0>
              * Delta(ubar_l) * Delta'(vbar) * minor_l(Omega)

    ``vacuum`` is the vacuum expectation <0| prod nu21(v_j) |0>, one per
    instance, as the oracle pairs it.  Its own closed determinant form
    (Belliard and Crampe, SIGMA 9 (2013) 072) is not implemented here.
    Omega is built from the twisted chain's Y-model at S (``chain_y_model``).
    Stacks of sets (leading axes) give one row of S+1 products per instance.
    """
    v, u = _vals(vbar), _vals(ubar)
    s_total = spec.magnon_capacity
    if v.shape[-1] != s_total:
        raise ValueError(f"vbar must have S = {s_total} elements")
    if u.shape[-1] != s_total + 1:
        raise ValueError(f"ubar must have S+1 = {s_total + 1} elements")
    omega = omega_columns(chain_y_model(spec, s_total, twist), v, u)
    prefactor = np.asarray((twist.mu / twist.kappa_minus) ** s_total * vacuum)
    return prefactor[..., None] * scaled_minors(spec.c, omega, u, v)
