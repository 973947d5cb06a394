"""Per-factor product loops and ``numpy.polynomial`` builds, kept as references.

``bdl.rational.scalar_prod`` carries the real and imaginary planes through
one loop, and ``bdl.models`` builds the chain's coefficient form with
``np.convolve``.  The functions here are the forms they replaced: one
``scalar_mul`` per factor, and ``polyfromroots`` / ``polypow`` /
``polymul`` / ``polyadd``.  They read the chain's factor tables from the
spec, so both forms multiply the same numbers.
"""
import numpy as np
from numpy.polynomial import polynomial as npoly

from bdl.models import PeriodicChainSpec, TwistSpec, YModel
from bdl.rational import _pairs, _vals, esp_all, esp_removed, g, scalar_mul


def scalar_prod(values, from_first: bool = False) -> np.ndarray:
    """Product over the last axis, one ``scalar_mul`` per factor, from 1 or the first factor."""
    arr = _vals(values)
    out = np.ones(arr.shape[:-1], dtype=complex)
    for j in range(arr.shape[-1]):
        out = arr[..., 0] if from_first and j == 0 else scalar_mul(out, arr[..., j])
    return out


def pair_product(c, values, lower: bool):
    """Delta (``lower``) or Delta': the first pair's g, then one ``scalar_mul`` per pair."""
    arr = _vals(values)
    j, k = _pairs(arr.shape[-1], lower)
    terms = g(np.asarray(c)[..., None], arr[..., j], arr[..., k])
    out = np.ones(terms.shape[:-1], dtype=complex)
    for p in range(len(j)):
        out = terms[..., 0] if p == 0 else scalar_mul(out, terms[..., p])
    return out if out.ndim else out[()]


def vacuum_products(spec: PeriodicChainSpec, name: str, z) -> np.ndarray:
    """prod_i (z - theta_i + a_i) / c^N per row of ``spec._linear_factors[name]``."""
    theta, shift = spec._linear_factors[name]
    z = _vals(z)
    rows = shift[(...,) + (None,) * z.ndim]
    out = np.ones((len(shift),) + z.shape, dtype=complex)
    for k in range(len(theta)):
        out = scalar_mul(out, z - theta[k] + rows[:, k])
    return out / spec.c ** len(theta)


def chain_y(spec: PeriodicChainSpec, z, values, twist: TwistSpec | None = None) -> np.ndarray:
    """The chain's Y in product form, one ``scalar_mul`` per factor of p_-/+."""
    z, v = _vals(z), _vals(values)
    c = spec.c
    shape = np.broadcast_shapes(z.shape, v.shape[:-1])
    z = z.reshape((1,) * (len(shape) - z.ndim) + z.shape)
    terms = vacuum_products(spec, "lambda", z)
    if twist is not None:
        weights = np.array([twist.kappa_tilde - twist.rho1, twist.kappa - twist.rho2])
        terms = scalar_mul(weights[(...,) + (None,) * z.ndim], terms)
    shift = np.array([-c, c])[(...,) + (None,) * len(shape)]
    p = np.ones((2,) + shape, dtype=complex)
    for j in range(v.shape[-1]):
        p = scalar_mul(p, z - v[..., j] + shift)
    terms = scalar_mul(terms, p) / c ** v.shape[-1]
    y = terms[0] + terms[1]
    if twist is not None:
        y = y + scalar_mul(twist.rho1 + twist.rho2, vacuum_products(spec, "f", z)[0])
    return y


def _poly(spec: PeriodicChainSpec, row: int, name: str = "lambda") -> np.ndarray:
    theta, shift = spec._linear_factors[name]
    return npoly.polyfromroots(theta - shift[row]) / spec.c ** len(theta)


def chain_y_alpha(spec: PeriodicChainSpec, n: int, twist: TwistSpec | None = None) -> np.ndarray:
    """The coefficient table of ``chain_y_model(spec, n, twist)``, built by ``numpy.polynomial``."""
    c = spec.c
    l1, l2 = _poly(spec, 0), _poly(spec, 1)
    if twist is not None:
        l1, l2 = l1 * (twist.kappa_tilde - twist.rho1), l2 * (twist.kappa - twist.rho2)
    alpha = []
    for p in range(n + 1):
        shift_minus = npoly.polypow(np.array([-c, 1.0], dtype=complex), n - p)
        shift_plus = npoly.polypow(np.array([c, 1.0], dtype=complex), n - p)
        coeffs = npoly.polymul(l1, shift_minus) + npoly.polymul(l2, shift_plus)
        alpha.append((-1) ** p / c ** n * coeffs)
    if twist is not None:
        alpha[0] = npoly.polyadd(alpha[0], (twist.rho1 + twist.rho2) * _poly(spec, 0, "f"))
    return YModel(c=c, alpha=tuple(alpha)).alpha


def horner(alpha: np.ndarray, z: np.ndarray, derivative: bool) -> np.ndarray:
    """One Horner table of the alpha_p, or of their derivatives, in a pass of its own."""
    if derivative:
        alpha = alpha[..., 1:] * np.arange(1, alpha.shape[-1])
    points = z.ndim > 0
    if points:
        alpha, z = alpha[..., None, :], z[..., None, :]
    out = np.zeros(np.broadcast(alpha[..., :1], z[..., None]).shape[:-1], dtype=complex)
    for d in range(alpha.shape[-1] - 1, -1, -1):
        out = alpha[..., d] + out * z
    return out.swapaxes(-1, -2) if points else out


def bethe_jacobian(model: YModel, values) -> np.ndarray:
    """``models.bethe_jacobian`` with one Horner pass for the derivatives and one for the values."""
    arr = _vals(values)
    n = arr.shape[-1]
    dz = (horner(model.alpha, arr, True)[..., :n + 1] @ esp_all(arr)[..., None])[..., 0]
    jac = esp_removed(arr) @ horner(model.alpha, arr, False)[..., 1:1 + n].swapaxes(-1, -2)
    jac[..., np.arange(n), np.arange(n)] += dz
    return jac
