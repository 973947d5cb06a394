"""40-digit references for the closed forms' products, and the ``numpy.polynomial`` builds.

The closed forms multiply with numpy's own complex products, whose rounding
depends on the CPU (a fused multiply-add or not) and on how a stack is laid
out.  So they are judged against an evaluation of the same expression, on
the same float64 inputs, at 40 digits (mpmath).  ``Bounded`` carries beside
each 40-digit value a bound on the error of any float64 evaluation of that
expression, following Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., ch. 3:

* a float64 input is exact;
* one complex operation rounds its result x with |fl(x) - x| <= ETA |x|
  (plus TINY for gradual underflow), and ETA = sqrt(2) gamma_7 is the
  largest of Lemma 3.5's bounds, the quotient's; the product's is
  sqrt(2) gamma_2, or 2u with a fused multiply-add (Jeannerod, Kornerup,
  Louvet and Muller, Math. Comp. 86 (2017) 881), and a sum's u;
* errors of the operands propagate exactly as their first and second
  order terms.

A k-factor product of inputs is so bounded by ((1 + ETA)**(k - 1) - 1)
times its modulus, Lemma 3.1's form, in any order of the factors.  The
reference functions take the product of a list of factors as ``prod``; a
negative control passes a faulty one, ``DROPPED`` or ``REPEATED``.

``chain_y_alpha`` and ``bethe_jacobian`` are the ``numpy.polynomial``
build and the two-pass Horner form that ``bdl.models`` replaced.  All
functions read the chain's factor tables from the spec, so both sides
multiply the same numbers.
"""
import itertools
from functools import reduce
from operator import mul

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly

from bdl.models import PeriodicChainSpec, TwistSpec, YModel
from bdl.rational import _pairs, _vals, esp_all, esp_removed

MP = mpmath.MPContext()
MP.dps = 40
U = 2.0 ** -53  # unit roundoff of float64
ETA = MP.sqrt(2) * 7 * U / (1 - 7 * U)
TINY = MP.mpf(2) ** -1022  # absolute error of one operation that underflows


def gamma(k: int):
    """Higham's gamma_k = k eps / (1 - k eps), with eps = ETA: k rounded operations."""
    return k * ETA / (1 - k * ETA)


class Bounded:
    """A 40-digit value and a bound on the error of its float64 evaluation."""

    __slots__ = ("value", "err")

    def __init__(self, value, err=0):
        self.value, self.err = MP.mpc(value), MP.mpf(err)

    @staticmethod
    def _rounded(value, err) -> "Bounded":
        return Bounded(value, err + ETA * (abs(value) + err) + TINY)

    def __add__(self, other):
        other = _bounded(other)
        return self._rounded(self.value + other.value, self.err + other.err)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_bounded(other)

    def __rsub__(self, other):
        return _bounded(other) + -self

    def __neg__(self):
        return Bounded(-self.value, self.err)

    def __mul__(self, other):
        other = _bounded(other)
        err = (abs(self.value) * other.err + abs(other.value) * self.err
               + self.err * other.err)
        return self._rounded(self.value * other.value, err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _bounded(other)
        den = abs(other.value)
        if den <= other.err:
            raise ValueError("the divisor's error bound reaches zero")
        err = (abs(self.value) * other.err + den * self.err) / (den * (den - other.err))
        return self._rounded(self.value / other.value, err)

    def __rtruediv__(self, other):
        return _bounded(other) / self

    def __pow__(self, k: int):
        """An integer power; any multiplication chain for it keeps the bound of k - 1 products."""
        if k < 0:
            return 1 / self ** -k
        return product([self] * k)

    def holds(self, got) -> bool:
        """Whether the float64 value ``got`` lies within the bound of this value."""
        return abs(MP.mpc(complex(got)) - self.value) <= self.err


def _bounded(x) -> Bounded:
    return x if isinstance(x, Bounded) else Bounded(complex(x))


def product(factors) -> Bounded:
    """The factors multiplied in list order; the empty product is 1."""
    return reduce(mul, factors) if factors else Bounded(1)


def DROPPED(factors):
    """A faulty ``prod``: every product loses its first factor."""
    return product(factors[1:])


def REPEATED(factors):
    """A faulty ``prod``: every product takes its first factor twice."""
    return product(factors + factors[:1])


def holds_everywhere(got, want) -> bool:
    """``Bounded.holds`` for each entry of a stack; ``want`` maps each index to its reference."""
    got = np.asarray(got)
    return all(want[i].holds(got[i]) for i in np.ndindex(got.shape))


def g(c, u, v) -> Bounded:
    return _bounded(c) / (_bounded(u) - v)


def pair_product(c, values, lower: bool, prod=product) -> Bounded:
    """Delta (``lower``) or Delta' of one set: g over its ordered pairs, in pair order."""
    j, k = _pairs(len(values), lower)
    return prod([g(c, values[a], values[b]) for a, b in zip(j, k)])


def vacuum_products(spec: PeriodicChainSpec, name: str, z, prod=product) -> list[Bounded]:
    """prod_i (z - theta_i + a_i) / c^N at one point z, per row of ``spec._linear_factors[name]``."""
    theta, shift = spec._linear_factors[name]
    z = _bounded(z)
    return [prod([z - t + a for t, a in zip(theta, row)]) / _bounded(spec.c) ** len(theta)
            for row in shift]


def chain_y(spec: PeriodicChainSpec, z, values, twist: TwistSpec | None = None,
            prod=product) -> Bounded:
    """The chain's Y in product form at one point z and one set, as ``models.chain_y`` writes it."""
    z, c = _bounded(z), _bounded(spec.c)
    terms = vacuum_products(spec, "lambda", z, prod)
    if twist is not None:
        terms = [(_bounded(twist.kappa_tilde) - twist.rho1) * terms[0],
                 (_bounded(twist.kappa) - twist.rho2) * terms[1]]
    p = [prod([z - v + shift for v in values]) for shift in (-c, c)]
    y = terms[0] * p[0] / c ** len(values) + terms[1] * p[1] / c ** len(values)
    if twist is not None:
        y = y + (_bounded(twist.rho1) + twist.rho2) * vacuum_products(spec, "f", z, prod)[0]
    return y


def det(rows) -> Bounded:
    """The determinant of a small matrix of Bounded entries, as numpy's ``det`` forms it.

    numpy factors PA = LU with partial pivoting and returns
    sign * exp(sum log|u_ii|).  The factors are exact for A + dA with
    |dA| <= gamma_3n |L||U| (Higham, Thm 9.3, with ETA for u; |L||U| is
    taken from the 40-digit factors).  Each Leibniz term of
    det(A + F) - det(A) is at most the matching term of
    per(|A| + |F|) - per(|A|), per the permanent, with |F| the entries'
    own errors plus |dA|; the sign and exp-log step add
    gamma_2n (1 + sum |log|u_ii||) of the result.
    """
    n = len(rows)
    if n == 0:
        return Bounded(1)
    a = MP.matrix([[x.value for x in row] for row in rows])
    lower, upper = _lu(a)
    absolute = [[abs(a[i, j]) for j in range(n)] for i in range(n)]
    backward = [[gamma(3 * n) * sum(abs(lower[i, k]) * abs(upper[k, j]) for k in range(n))
                 + rows[i][j].err for j in range(n)] for i in range(n)]
    perturbed = _permanent([[x + d for x, d in zip(r, e)] for r, e in zip(absolute, backward)])
    logs = sum(abs(MP.log(abs(upper[i, i]))) for i in range(n))
    err = perturbed - _permanent(absolute) + gamma(2 * n) * (1 + logs) * perturbed
    return Bounded(MP.det(a), err)


def _lu(a):
    """L and U of PA = LU, pivoting on the largest |re| + |im| as LAPACK's izamax does."""
    n = a.rows
    lower, upper = MP.eye(n), a.copy()
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(MP.re(upper[i, k])) + abs(MP.im(upper[i, k])))
        for j in range(n):
            upper[k, j], upper[pivot, j] = upper[pivot, j], upper[k, j]
        for j in range(k):
            lower[k, j], lower[pivot, j] = lower[pivot, j], lower[k, j]
        for i in range(k + 1, n):
            lower[i, k] = upper[i, k] / upper[k, k]
            for j in range(k, n):
                upper[i, j] -= lower[i, k] * upper[k, j]
    return lower, upper


def _permanent(rows):
    n = len(rows)
    return sum(MP.fprod(rows[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


def izergin(spec: PeriodicChainSpec, vbar, theta_indices, prod=product) -> Bounded:
    """The domain-wall determinant of one set, as ``determinants.izergin`` writes it."""
    c, n = _bounded(spec.c), len(vbar)
    v = [_bounded(x) for x in vbar]
    th = [spec._theta[i] for i in theta_indices]
    sites = [(_bounded(t) - a + c) * (x - a) for a in spec._theta for t, x in zip(th, v)]
    shift = [x - t + c for t in th for x in v]
    gaps = [[x - t for t in th] for x in v]
    core = det([[1 / (gap * (gap + c)) for gap in row] for row in gaps])
    return (c ** (2 * n - n * n) * pair_product(spec.c, th, True, prod)
            * pair_product(spec.c, v, False, prod) * prod(sites) * prod(shift) * core)


def scaled_minors(c, omega, ubar, vbar, prod=product) -> list[Bounded]:
    """Delta(ubar_l) Delta'(vbar) minor_l(Omega) for each l, as ``linsys.scaled_minors`` writes it."""
    omega = [[Bounded(x) for x in row] for row in np.asarray(omega, dtype=complex)]
    ubar, vbar = list(_vals(ubar)), list(_vals(vbar))
    dprime = pair_product(c, vbar, False, prod)
    return [pair_product(c, ubar[:l] + ubar[l + 1:], True, prod) * dprime
            * det([row[:l] + row[l + 1:] for row in omega]) for l in range(len(ubar))]


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
