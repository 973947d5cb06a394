"""Closed-form determinant representations and their oracle calibrations.

Four formulas live here:

* the domain-wall partition determinant (inner product of a dual product
  state with creation operators frozen at a subset of the inhomogeneities);
* the root-system Jacobian ("Gaudin") matrix and the norm it encodes;
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
from .rational import _vals, delta, delta_prime, require_distinct

FD_STEP = 1e-6  # central-difference step of gaudin_matrix_fd


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
    """The symmetric scale Phi(vbar) = prod_j lambda2(v_j)."""
    out = 1.0 + 0.0j
    for vj in _vals(vbar):
        out *= lambda2(spec, vj)
    return complex(out)


def scalar_product(spec: PeriodicChainSpec, vbar, uvals) -> complex:
    """Closed form of the inner product of the vbar-eigenstate with the
    product state over ``uvals`` (the n-point set with one element of the
    (n+1)-set removed; the removed element never enters).

        X = Phi(vbar) * Delta(uvals) * Delta'(vbar) * det(Omega columns at uvals)

    Requires vbar on-shell for the value to equal the oracle pairing.
    """
    v = _vals(vbar)
    u = _vals(uvals)
    n = len(v)
    if len(u) != n:
        raise ValueError("the reduced u-set must have the same size as vbar")
    omega = omega_columns(chain_y_model(spec, n), v, u)
    det = np.linalg.det(omega) if n else 1.0
    return complex(phi_factor(spec, v) * delta(spec.c, u) * delta_prime(spec.c, v) * det)


# ---------------------------------------------------------------------------
# root-system Jacobian and norms


def gaudin_matrix_fd(model: YModel, vbar) -> np.ndarray:
    """Central finite-difference Jacobian (step FD_STEP), the independent cross-check."""
    v = _vals(vbar)
    n = len(v)
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        bump = np.zeros(n, dtype=complex)
        bump[j] = FD_STEP
        for k in range(n):
            vk_p = (v + bump)[k]
            vk_m = (v - bump)[k]
            out[j, k] = (y_eval(model, vk_p, v + bump)
                         - y_eval(model, vk_m, v - bump)) / (2 * FD_STEP)
    return out


@dataclass
class GaudinNormReport:
    ratios: list[complex]
    spread: float
    fd_error: float
    determinants: list[complex]


def gaudin_norm_check(spec: PeriodicChainSpec, states) -> GaudinNormReport:
    """Compare oracle norms with the Jacobian determinant over a set of states.

    For each on-shell vbar the oracle bilinear norm should equal

        Phi(vbar) * c**n * Delta(vbar) Delta'(vbar) * det(Jacobian),

    so the reported per-state ratios are all the same constant; the spread is
    the acceptance figure.  ``fd_error`` is the worst entrywise deviation of
    the analytic Jacobian from central differences over the sampled states.
    """
    ratios: list[complex] = []
    dets: list[complex] = []
    fd_err = 0.0
    for vbar in states:
        v = _vals(vbar)
        n = len(v)
        model = chain_y_model(spec, n)
        jac = bethe_jacobian(model, v)
        fd = gaudin_matrix_fd(model, v)
        scale = max(float(np.max(np.abs(jac))), 1e-30)
        fd_err = max(fd_err, float(np.max(np.abs(jac - fd)) / scale))
        det = complex(np.linalg.det(jac))
        dets.append(det)
        norm = direct_scalar_product(dual_bethe_vector(spec, v), bethe_vector(spec, v))
        closed = phi_factor(spec, v) * spec.c ** n * delta(spec.c, v) * delta_prime(spec.c, v) * det
        ratios.append(complex(norm / closed))
    mean = np.mean(ratios)
    spread = float(np.max(np.abs(np.asarray(ratios) - mean)) / max(abs(mean), 1e-30))
    return GaudinNormReport(ratios=ratios, spread=spread, fd_error=fd_err, determinants=dets)


# ---------------------------------------------------------------------------
# twisted chain


def maba_scalar_product(spec: PeriodicChainSpec, twist: TwistSpec, vbar, ubar) -> np.ndarray:
    """All S+1 inner products of the twisted chain from the determinant form.

        X_l = (mu / kappa_minus)**S * <0| prod nu21(v_j) |0>
              * Delta(ubar_l) * Delta'(vbar) * minor_l(Omega)

    The vacuum expectation prefactor is computed by the oracle; its own
    closed determinant form is documented elsewhere and intentionally not
    implemented here.
    """
    v = _vals(vbar)
    u = _vals(ubar)
    s_total = spec.magnon_capacity
    if len(v) != s_total:
        raise ValueError(f"vbar must have S = {s_total} elements")
    if len(u) != s_total + 1:
        raise ValueError(f"ubar must have S+1 = {s_total + 1} elements")
    omega = omega_columns(chain_y_model(spec, s_total, twist), v, u)
    prefactor = (twist.mu / twist.kappa_minus) ** s_total * vacuum_nu21_expectation(spec, twist, v)
    return prefactor * scaled_minors(spec.c, omega, u, v)
