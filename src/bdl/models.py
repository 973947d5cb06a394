"""Transfer-eigenvalue models.

The eigenvalue of the commuting family factorizes as

    Lambda(z | vbar) = g(z, vbar) * Y(z | vbar),

where Y is symmetric in the parameter set vbar and affine in each element, so

    Y(z | vbar) = sum_p alpha_p(z) * sigma_p(vbar)

with free coefficient functions alpha_p.  A ``YModel`` stores the alpha_p as
rows of one polynomial coefficient array (exactly differentiable, exact
asymptotics); every Y-class sum, including those over one-element removals,
is evaluated from it by ``alpha_values`` and ``y_removed``.  A model may carry
leading batch axes, and the evaluators broadcast over them, so a stack of
same-shape models is evaluated in one pass.
``chain_y_model`` gives the Y of the periodic inhomogeneous chain and, with a
non-diagonal boundary twist breaking the U(1) symmetry, of the twisted chain;
``ytr_model`` gives the degenerate Y = 1/g, whose linear system collapses to
rank zero.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from math import isclose, prod

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import PoleError, TwistError
from .rational import _vals, esp_all, esp_removed, g_prod, g_table, require_distinct

RANDOM_DEGREE = 3  # polynomial degree of each alpha_p of random_y_model


# ---------------------------------------------------------------------------
# generic Y-model


@dataclass(frozen=True)
class YModel:
    """Y-function given by coefficient polynomials alpha_0 .. alpha_{n_max}.

    Built from one ascending-order coefficient sequence per alpha_p; ``alpha``
    holds them as rows of one zero-padded (n_max + 1, degree + 1) array.  The
    model supports parameter sets of size up to n_max.  An ``alpha`` array of
    shape (..., n_max + 1, degree + 1) is a stack of models; ``c`` then
    broadcasts against the leading (batch) axes.
    """

    c: complex
    alpha: np.ndarray

    def __post_init__(self):
        if (np.asarray(self.c) == 0).any():
            raise ValueError("coupling constant c must be nonzero")
        if isinstance(self.alpha, np.ndarray) and self.alpha.ndim >= 2:
            table = self.alpha.astype(complex)
        else:
            rows = [np.asarray(a, dtype=complex) for a in self.alpha]
            table = np.zeros((len(rows), max(len(r) for r in rows)), dtype=complex)
            for p, row in enumerate(rows):
                table[p, :len(row)] = row
        object.__setattr__(self, "alpha", table)

    @classmethod
    def stack(cls, models) -> "YModel":
        """One model whose first axis runs over the given same-shape models."""
        return cls(c=np.array([m.c for m in models]),
                   alpha=np.stack([m.alpha for m in models]))

    @property
    def n_max(self) -> int:
        return self.alpha.shape[-2] - 1


def alpha_values(model: YModel, zs, derivative: bool = False) -> np.ndarray:
    """alpha_p(z_k), or alpha_p'(z_k), as a (..., len(zs), n_max + 1) array.

    One Horner pass over the whole coefficient array, in the operation order of
    ``numpy.polynomial.polynomial.polyval``; a scalar z gives one row.  The
    points run along the last axis of ``zs``; its leading axes broadcast
    against the model's batch axes.
    """
    alpha = model.alpha
    if derivative:
        alpha = alpha[..., 1:] * np.arange(1, alpha.shape[-1])
    z = _vals(zs)
    points = z.ndim > 0
    if points:
        alpha, z = alpha[..., None, :], z[..., None, :]
    out = np.zeros(np.broadcast_shapes(alpha.shape[:-1], z.shape), dtype=complex)
    for d in range(alpha.shape[-1] - 1, -1, -1):
        out = alpha[..., d] + out * z
    return np.swapaxes(out, -1, -2) if points else out


def y_eval(model: YModel, z, values):
    """Y(z | values) = sum_p alpha_p(z) sigma_p(values); an array of z gives an array."""
    arr = _vals(values)
    n = arr.shape[-1]
    if n > model.n_max:
        raise ValueError(f"parameter set of size {n} exceeds model n_max = {model.n_max}")
    out = (alpha_values(model, z)[..., :n + 1] @ esp_all(arr)[..., :, None])[..., 0]
    return complex(out) if out.ndim == 0 else out


def y_removed(model: YModel, zs, values, shift: int = 0) -> np.ndarray:
    """Table R[..., j, k] = Y(z_k | values \\ v_j) over all one-element removals.

    With ``shift = 1`` the alpha rows move up by one, which gives the set-slot
    derivative d Y(z_k | values) / d v_j by the split sigma_p(v) = v_j
    sigma_{p-1}(v \\ v_j) + sigma_p(v \\ v_j).
    """
    n = _vals(values).shape[-1]
    return esp_removed(values) @ np.swapaxes(alpha_values(model, zs)[..., shift:shift + n], -1, -2)


def omega_columns(model: YModel, vbar, us) -> np.ndarray:
    """Omega[..., j, k] = g(u_k, v_j) Y(u_k | {u_k} + vbar_j) for any list of u_k.

    Column k depends only on us[k]; the system matrix Omega of ``linsys`` is
    the special case us = ubar with n+1 entries.  Rows 1..n of the removal
    table of the merged set {u_k} + vbar are the sets {u_k} + vbar_j.
    """
    v = _vals(vbar)
    u = _vals(us)
    n = v.shape[-1]
    lead = np.broadcast_shapes(u.shape[:-1], v.shape[:-1])
    merged = np.concatenate([np.broadcast_to(u[..., None], lead + u.shape[-1:] + (1,)),
                             np.broadcast_to(v[..., None, :], lead + u.shape[-1:] + (n,))],
                            axis=-1)
    alpha = alpha_values(model, u)[..., :n + 1]
    merged_y = np.einsum("...kjp,...kp->...jk", esp_removed(merged)[..., 1:, :], alpha)
    return g_table(model.c, u, v) * merged_y


def bethe_jacobian(model: YModel, values) -> np.ndarray:
    """Total Jacobian J[j, k] = d/dv_j of the root-system map v -> Y(v_k | v).

    The diagonal carries both the spectral-slot and the set-slot derivative.
    """
    arr = _vals(values)
    dz = alpha_values(model, arr, derivative=True)[:, :len(arr) + 1] @ esp_all(arr)
    return y_removed(model, arr, arr, shift=1) + np.diag(dz)


def lambda_eval(model: YModel, z: complex, values) -> complex:
    """Lambda(z | values) = g(z, values) * Y(z | values); poles are not lifted.

    A collision of z with a set element raises PoleError even where the
    on-shell combination would be finite; callers that need the cancelled
    form must evaluate Y and the non-colliding g-factors themselves.
    """
    return g_prod(model.c, z, values) * y_eval(model, z, values)


def random_y_model(rng: np.random.Generator, c: complex, n_max: int) -> YModel:
    """Random member of the Y-class with polynomial alpha_p of degree RANDOM_DEGREE.

    One draw fills, row by row, the real and then the imaginary parts.
    """
    parts = rng.uniform(-1.0, 1.0, size=(n_max + 1, 2, RANDOM_DEGREE + 1))
    alpha = parts[:, 0] + 1j * parts[:, 1]
    # keep the leading coefficient away from zero so degrees are stable
    lead = alpha[:, -1].real
    alpha[:, -1] += 0.5 * (1 + 1j) * np.where(lead == 0, 1.0, np.sign(lead))
    return YModel(c=c, alpha=alpha)


def ytr_model(c: complex, n: int) -> YModel:
    """Degenerate model Y(z | v) = 1/g(z, v): alpha_p(z) = (-1)^p z^{n-p} / c^n.

    Its eigenvalue is identically 1 and its linear system has rank zero.
    """
    alpha = []
    for p in range(n + 1):
        coeffs = np.zeros(n - p + 1, dtype=complex)
        coeffs[n - p] = (-1) ** p / c ** n
        alpha.append(coeffs)
    return YModel(c=c, alpha=tuple(alpha))


# ---------------------------------------------------------------------------
# chain data


def _half_integer(s: float) -> bool:
    return isclose(2 * s, round(2 * s)) and round(2 * s) >= 1


@dataclass(frozen=True)
class PeriodicChainSpec:
    """Inhomogeneous chain data: site count, coupling, shifts, site spins."""

    n_sites: int
    c: complex
    theta: tuple[complex, ...]
    spins: tuple[float, ...]

    def __init__(self, n_sites, c, theta, spins):
        object.__setattr__(self, "n_sites", int(n_sites))
        object.__setattr__(self, "c", complex(c))
        object.__setattr__(self, "theta", tuple(complex(t) for t in theta))
        object.__setattr__(self, "spins", tuple(float(s) for s in spins))
        if self.c == 0:
            raise ValueError("coupling constant c must be nonzero")
        if len(self.theta) != self.n_sites or len(self.spins) != self.n_sites:
            raise ValueError("theta and spins must both have one entry per site")
        for s in self.spins:
            if not _half_integer(s):
                raise ValueError(f"site spin {s} is not a positive half-integer")
        require_distinct(self.theta, "inhomogeneities")

    @property
    def magnon_capacity(self) -> int:
        """S = sum_i 2 s_i, the maximal number of creation operators."""
        return int(round(sum(2 * s for s in self.spins)))

    @property
    def dim(self) -> int:
        """D = prod_i (2 s_i + 1), the dimension of the chain's state space."""
        return prod(int(round(2 * s)) + 1 for s in self.spins)

    @functools.cached_property
    def _linear_factors(self) -> dict[str, list[tuple[complex, complex]]]:
        """The pairs (theta_i, a) of the factors (z - theta_i + a) of lambda1, lambda2 and f.

        Computed once per chain: the product forms are the Newton residual of
        the root solver, evaluated once per root and step.
        """
        c, sites = self.c, list(zip(self.theta, self.spins))
        return {"lambda1": [(t, c * (s + 0.5)) for t, s in sites],
                "lambda2": [(t, -(c * (s - 0.5))) for t, s in sites],
                "f": [(t, c * (s - k + 0.5)) for t, s in sites
                      for k in range(int(round(2 * s)) + 1)]}


@dataclass(frozen=True)
class TwistSpec:
    """Non-diagonal twist entries plus the free splitting parameter rho1.

    rho2 is derived from the bilinear constraint

        rho1 rho2 - rho2 kappa_tilde - rho1 kappa + kappa_plus kappa_minus = 0,

    and mu = 1 / (1 - rho1 rho2 / (kappa_plus kappa_minus)).  A purely
    diagonal twist (kappa_plus * kappa_minus = 0 with rho1 = 0) is accepted
    for eigenvalue work, but has no mu and no factor matrices.
    """

    kappa: complex
    kappa_tilde: complex
    kappa_plus: complex
    kappa_minus: complex
    rho1: complex

    def __init__(self, kappa, kappa_tilde, kappa_plus, kappa_minus, rho1):
        object.__setattr__(self, "kappa", complex(kappa))
        object.__setattr__(self, "kappa_tilde", complex(kappa_tilde))
        object.__setattr__(self, "kappa_plus", complex(kappa_plus))
        object.__setattr__(self, "kappa_minus", complex(kappa_minus))
        object.__setattr__(self, "rho1", complex(rho1))
        if abs(self.rho1 - self.kappa_tilde) < 1e-12:
            raise TwistError("rho1 = kappa_tilde leaves rho2 undetermined")

    @property
    def rho2(self) -> complex:
        return (self.rho1 * self.kappa - self.kappa_plus * self.kappa_minus) / (self.rho1 - self.kappa_tilde)

    @property
    def mu(self) -> complex:
        kk = self.kappa_plus * self.kappa_minus
        if kk == 0:
            raise TwistError("mu undefined for kappa_plus * kappa_minus = 0")
        denom = 1.0 - self.rho1 * self.rho2 / kk
        if abs(denom) < 1e-12:
            raise TwistError("mu diverges: rho1 rho2 approaches kappa_plus kappa_minus")
        return 1.0 / denom


def k_matrix(twist: TwistSpec) -> np.ndarray:
    """The constant 2x2 twist matrix."""
    return np.array([[twist.kappa_tilde, twist.kappa_plus],
                     [twist.kappa_minus, twist.kappa]], dtype=complex)


def twist_factors(twist: TwistSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor matrices (A, B, D) with K = B D A; needs kappa_plus, kappa_minus != 0."""
    if twist.kappa_plus == 0 or twist.kappa_minus == 0:
        raise TwistError("factor matrices need nonzero off-diagonal twist entries")
    sq = np.sqrt(twist.mu)
    a = sq * np.array([[1.0, twist.rho2 / twist.kappa_minus],
                       [twist.rho1 / twist.kappa_plus, 1.0]], dtype=complex)
    b = sq * np.array([[1.0, twist.rho1 / twist.kappa_minus],
                       [twist.rho2 / twist.kappa_plus, 1.0]], dtype=complex)
    d = np.diag([twist.kappa_tilde - twist.rho1, twist.kappa - twist.rho2]).astype(complex)
    return a, b, d


# ---------------------------------------------------------------------------
# chain Y-function


def _product(spec: PeriodicChainSpec, name: str, z: complex) -> complex:
    """Product form prod_i (z - theta_i + a) / c^k of the k factors of ``name``."""
    factors = spec._linear_factors[name]
    out = 1.0 + 0.0j
    for t, a in factors:
        out *= (z - t + a)
    return out / spec.c ** len(factors)


def _poly(spec: PeriodicChainSpec, name: str) -> np.ndarray:
    """Coefficient form of the same polynomial, from its roots theta_i - a."""
    factors = spec._linear_factors[name]
    return npoly.polyfromroots([t - a for t, a in factors]) / spec.c ** len(factors)


def lambda1(spec: PeriodicChainSpec, z: complex) -> complex:
    """Vacuum eigenvalue of the diagonal monodromy entry A."""
    return _product(spec, "lambda1", z)


def lambda2(spec: PeriodicChainSpec, z: complex) -> complex:
    """Vacuum eigenvalue of the diagonal monodromy entry D."""
    return _product(spec, "lambda2", z)


def maba_f(spec: PeriodicChainSpec, z: complex) -> complex:
    """The set-independent third term of the twisted Y-function."""
    return _product(spec, "f", z)


def y_periodic(spec: PeriodicChainSpec, z: complex, values) -> complex:
    """Two-term Y of the periodic chain, evaluated in product form."""
    arr = _vals(values)
    c = spec.c
    p_minus = np.prod([(z - v - c) for v in arr]) if len(arr) else 1.0
    p_plus = np.prod([(z - v + c) for v in arr]) if len(arr) else 1.0
    scale = c ** len(arr)
    return complex(lambda1(spec, z) * p_minus / scale + lambda2(spec, z) * p_plus / scale)


def y_maba(spec: PeriodicChainSpec, twist: TwistSpec, z: complex, values) -> complex:
    """Three-term Y of the twisted chain, evaluated in product form.

    The two set-dependent products carry the same per-factor 1/c normalization
    as the periodic model; that normalization is what makes the large-argument
    growth of the eigenvalue come out as (z/c)^N (kappa + kappa_tilde) and the
    whole family consistent with the vacuum eigenvalues.
    """
    arr = _vals(values)
    c = spec.c
    p_minus = np.prod([(z - u - c) for u in arr]) if len(arr) else 1.0
    p_plus = np.prod([(z - u + c) for u in arr]) if len(arr) else 1.0
    scale = c ** len(arr)
    return complex(
        (twist.kappa_tilde - twist.rho1) * lambda1(spec, z) * p_minus / scale
        + (twist.kappa - twist.rho2) * lambda2(spec, z) * p_plus / scale
        + (twist.rho1 + twist.rho2) * maba_f(spec, z)
    )


def chain_y_model(spec: PeriodicChainSpec, n: int, twist: TwistSpec | None = None) -> YModel:
    """Coefficient-list form of the chain's Y at parameter-set size n.

    The periodic Y is lambda1(z) prod_j (z - v_j - c) / c^n + lambda2(z)
    prod_j (z - v_j + c) / c^n.  A twist weights the two terms by
    kappa_tilde - rho1 and kappa - rho2 and adds (rho1 + rho2) f(z) to alpha_0.
    """
    c = spec.c
    l1, l2 = _poly(spec, "lambda1"), _poly(spec, "lambda2")
    if twist is not None:
        l1, l2 = l1 * (twist.kappa_tilde - twist.rho1), l2 * (twist.kappa - twist.rho2)
    alpha = []
    for p in range(n + 1):
        shift_minus = npoly.polypow(np.array([-c, 1.0], dtype=complex), n - p)
        shift_plus = npoly.polypow(np.array([c, 1.0], dtype=complex), n - p)
        coeffs = npoly.polymul(l1, shift_minus) + npoly.polymul(l2, shift_plus)
        alpha.append((-1) ** p / c ** n * coeffs)
    if twist is not None:
        alpha[0] = npoly.polyadd(alpha[0], (twist.rho1 + twist.rho2) * _poly(spec, "f"))
    return YModel(c=c, alpha=tuple(alpha))
