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
same-shape models is evaluated in one pass.  A model's ``alpha`` is read-only,
and it keeps the last table ``alpha_values`` computed, so the several Y-class
sums that one closed form reads at one stack of points share one Horner pass.
``chain_y_model`` gives the Y of the periodic inhomogeneous chain and, with a
non-diagonal boundary twist breaking the U(1) symmetry, of the twisted chain;
``ytr_model`` gives the degenerate Y = 1/g, whose linear system collapses to
rank zero.  The chain's Y also has one product-form evaluator, ``chain_y``,
over stacks of sets; it is the root solver's residual, and ``lambda1``,
``lambda2``, ``maba_f``, ``y_periodic`` and ``y_maba`` are views of it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import isclose, prod

import numpy as np

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
    broadcasts against the leading (batch) axes.  ``alpha`` is a read-only
    copy, so the table ``alpha_values`` keeps cannot go stale.
    """

    c: complex
    alpha: np.ndarray
    # (key, tables) of the last Horner pass of ``alpha_values``
    _last_table: tuple = field(default=(None, ()), init=False, repr=False, compare=False)

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
        table.flags.writeable = False
        object.__setattr__(self, "alpha", table)

    @property
    def n_max(self) -> int:
        return self.alpha.shape[-2] - 1


def alpha_values(model: YModel, zs, derivative: bool = False) -> np.ndarray:
    """alpha_p(z_k), or alpha_p'(z_k), as a read-only (..., len(zs), n_max + 1) array.

    A scalar z gives one row.  The points run along the last axis of ``zs``;
    its leading axes broadcast against the model's batch axes.  The model
    keeps the tables of its last Horner pass, keyed by the points' bits and
    shape, so reading it again at the same points costs no pass; a pass for
    the derivatives also gives the values.
    """
    z = _vals(zs)
    key = (z.tobytes(), z.shape)
    last_key, tables = model._last_table
    if key != last_key or len(tables) <= derivative:
        tables = _horner(model.alpha, z, derivative)
        object.__setattr__(model, "_last_table", (key, tables))
    return tables[derivative]


def _horner(alpha: np.ndarray, z: np.ndarray, derivative: bool) -> tuple[np.ndarray, ...]:
    """One Horner pass over the whole coefficient array, for ``alpha_values``.

    Gives the read-only values table, and with ``derivative`` the derivatives'
    table after it.  The operation order is that of
    ``numpy.polynomial.polynomial.polyval``; the derivative rows ride in the
    same pass, padded with a top zero, which only adds exact zeros.
    """
    rows = alpha.shape[-2]
    if derivative:
        slopes = np.zeros(alpha.shape, dtype=alpha.dtype)
        slopes[..., :-1] = alpha[..., 1:] * np.arange(1, alpha.shape[-1])
        alpha = np.concatenate([alpha, slopes], axis=-2)
    points = z.ndim > 0
    if points:
        alpha, z = alpha[..., None, :], z[..., None, :]
    out = np.zeros(np.broadcast(alpha[..., :1], z[..., None]).shape[:-1], dtype=complex)
    for d in range(alpha.shape[-1] - 1, -1, -1):
        out = alpha[..., d] + out * z
    out = out.swapaxes(-1, -2) if points else out
    tables = (out[..., :rows], out[..., rows:]) if derivative else (out,)
    for table in tables:
        table.flags.writeable = False
    return tables


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
    return esp_removed(values) @ alpha_values(model, zs)[..., shift:shift + n].swapaxes(-1, -2)


def omega_columns(model: YModel, vbar, us) -> np.ndarray:
    """Omega[..., j, k] = g(u_k, v_j) Y(u_k | {u_k} + vbar_j) for any list of u_k.

    Column k depends only on us[k]; the system matrix Omega of ``linsys`` is
    the special case us = ubar with n+1 entries.  Rows 1..n of the removal
    table of the merged set {u_k} + vbar are the sets {u_k} + vbar_j.
    """
    v = _vals(vbar)
    u = _vals(us)
    n = v.shape[-1]
    merged = np.empty(np.broadcast(u[..., None], v[..., None, :]).shape[:-1] + (n + 1,),
                      dtype=complex)
    merged[..., 0] = u
    merged[..., 1:] = v[..., None, :]
    alpha = alpha_values(model, u)[..., :n + 1]
    merged_y = np.einsum("...kjp,...kp->...jk", esp_removed(merged)[..., 1:, :], alpha)
    return g_table(model.c, u, v) * merged_y


def bethe_jacobian(model: YModel, values) -> np.ndarray:
    """Total Jacobian J[..., j, k] = d/dv_j of the root-system map v -> Y(v_k | v).

    The diagonal carries both the spectral-slot and the set-slot derivative.
    A stack of sets (..., n) gives a stack of Jacobians (..., n, n).  The
    values and the derivatives of the alpha_p come from one Horner pass.
    """
    arr = _vals(values)
    n = arr.shape[-1]
    dz = (alpha_values(model, arr, derivative=True)[..., :n + 1] @ esp_all(arr)[..., None])[..., 0]
    jac = y_removed(model, arr, arr, shift=1)
    jac[..., np.arange(n), np.arange(n)] += dz
    return jac


def lambda_eval(model: YModel, z, values):
    """Lambda(z | values) = g(z, values) * Y(z | values); poles are not lifted.

    An array of z (points on its last axis) gives one Lambda per point, and
    leading axes of z and values broadcast as stacked instances.  A collision
    of z with a set element raises PoleError even where the on-shell
    combination would be finite; callers that need the cancelled form must
    evaluate Y and the non-colliding g-factors themselves.
    """
    c, z, arr = np.asarray(model.c), _vals(z), _vals(values)
    if z.ndim > 0:
        c, arr = c[..., None], arr[..., None, :]
    return g_prod(c, z, arr) * y_eval(model, z, values)


def random_y_model(rng: np.random.Generator, c: complex | np.ndarray, n_max: int) -> YModel:
    """Random member of the Y-class with polynomial alpha_p of degree RANDOM_DEGREE.

    One draw fills, row by row, the real and then the imaginary parts.  An
    array ``c`` gives a stack of models with its shape as the batch shape,
    one draw filling them member by member.
    """
    parts = rng.uniform(-1.0, 1.0, size=np.asarray(c).shape + (n_max + 1, 2, RANDOM_DEGREE + 1))
    alpha = parts[..., 0, :] + 1j * parts[..., 1, :]
    # keep the leading coefficient away from zero so degrees are stable: a
    # zero one moves as a positive one would
    sign = np.sign(alpha[..., -1].real)
    sign[sign == 0] = 1.0
    alpha[..., -1] += 0.5 * (1 + 1j) * sign
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


@functools.lru_cache(maxsize=None)
def spin_matrices(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sz, S+, S-) for spin s, basis ordered by descending magnetization.

    Index 0 is the highest-weight state, so the local vacuum is always the
    first basis vector.  The arrays are cached and read-only.
    """
    d = int(round(2 * s)) + 1
    m = s - np.arange(d)
    sz = np.diag(m).astype(complex)
    sp = np.zeros((d, d), dtype=complex)
    for i in range(1, d):
        mm = m[i]
        sp[i - 1, i] = np.sqrt(s * (s + 1) - mm * (mm + 1))
    sm = sp.T.copy()
    for mat in (sz, sp, sm):
        mat.flags.writeable = False
    return sz, sp, sm


@functools.lru_cache(maxsize=None)
def _site_lax(s: float) -> tuple:
    """((E, F), (diag, lo, hi)) of a spin-s site, read-only; see ``PeriodicChainSpec``."""
    sz, sp, sm = spin_matrices(s)
    eye, zero = np.eye(len(sz), dtype=complex), np.zeros_like(sz)
    e, f = np.array([[eye, zero], [zero, eye]]), np.array([[sz, sm], [sp, -sz]])
    diag = np.stack([np.diagonal(f[0, 0]), np.diagonal(f[1, 1])], axis=-1).real
    lo, hi = np.diagonal(f[0, 1], -1).real, np.diagonal(f[1, 0], 1).real
    bands = (diag[:, :, None, None], lo[:, None, None], hi[:, None, None])
    for arr in (e, f, *bands):
        arr.flags.writeable = False
    return (e, f), bands


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
        if self.n_sites < 1:
            raise ValueError(f"a chain needs at least one site, got N = {self.n_sites}")
        if len(self.theta) != self.n_sites or len(self.spins) != self.n_sites:
            raise ValueError("theta and spins must both have one entry per site")
        for s in self.spins:
            if not _half_integer(s):
                raise ValueError(f"site spin {s} is not a positive half-integer")
        require_distinct(self.theta, "inhomogeneities")

    @functools.cached_property
    def magnon_capacity(self) -> int:
        """S = sum_i 2 s_i, the maximal number of creation operators."""
        return int(round(sum(2 * s for s in self.spins)))

    @functools.cached_property
    def dim(self) -> int:
        """D = prod_i (2 s_i + 1), the dimension of the chain's state space."""
        return prod(int(round(2 * s)) + 1 for s in self.spins)

    @functools.cached_property
    def _theta(self) -> np.ndarray:
        """theta as a read-only complex array, built once per chain."""
        theta = np.array(self.theta)
        theta.flags.writeable = False
        return theta

    @functools.cached_property
    def _linear_factors(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """(theta, a) of the factors (z - theta_i + a_i) of the vacuum products.

        "lambda" holds lambda1 and lambda2 as the two rows of ``a`` over one
        row ``theta``, so one product takes both; "f" has one row.  Computed
        once per chain: the product forms are the Newton residual of the root
        solver.
        """
        c, sites = self.c, list(zip(self.theta, self.spins))
        lam = [[c * (s + 0.5) for s in self.spins], [-(c * (s - 0.5)) for s in self.spins]]
        f_sites = [(t, s - k + 0.5) for t, s in sites for k in range(int(round(2 * s)) + 1)]
        return {"lambda": (self._theta, np.array(lam)),
                "f": (np.array([t for t, _ in f_sites]), np.array([[c * m for _, m in f_sites]]))}

    @functools.cached_property
    def _lax_parts(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per site, the parts (E, F) of the Lax operator (u - theta + c/2)/c E + F.

        Both are 2x2 auxiliary blocks of d x d site matrices, shape (2, 2, d, d):
        E is the identity and F = (Sz, S-; S+, -Sz).  The trace-form blocks of
        the oracle read them.  Read-only, built once per process for each spin.
        """
        return tuple(_site_lax(s)[0] for s in self.spins)

    @functools.cached_property
    def _lax_bands(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per site, the nonzero entries of F in ``_lax_parts`` as (diag, lo, hi).

        diag[s, a] = F[a, a][s, s], lo[s] = F[0, 1][s + 1, s] (the S- band) and
        hi[s] = F[1, 0][s, s + 1] (the S+ band), all real, shaped (d, 2, 1, 1) and
        (d - 1, 1, 1) to broadcast over a sweep's state.  Every site sweep of
        the oracle reads them.  Read-only, built once per process for each spin.
        """
        return tuple(_site_lax(s)[1] for s in self.spins)

    @functools.cached_property
    def _flat_bands(self) -> np.ndarray:
        """``_lax_bands`` flattened: each site's diag, lo and hi in turn.

        The sparse site sweep of the oracle gathers its coefficients from it.
        Read-only, built once per chain.
        """
        flat = np.concatenate([x for bands in self._lax_bands for x in bands], axis=None)
        flat.flags.writeable = False
        return flat

    @functools.cached_property
    def _magnons(self) -> np.ndarray:
        """Magnon number of each basis state in kron order (site 0 slowest), read-only.

        Site digit k holds k magnons.  A periodic transfer matrix conserves the
        total, so the root solver diagonalizes one weight sector at a time and
        ``_sector_sizes`` counts sectors; the oracle's site sweep reads the
        charges of its input from it.  Computed once per chain.
        """
        magnons = np.zeros(1, dtype=int)
        for s in self.spins:
            magnons = (magnons[:, None] + np.arange(int(round(2 * s)) + 1)).ravel()
        magnons.flags.writeable = False
        return magnons

    @functools.cached_property
    def _sector_sizes(self) -> dict[int, int]:
        """Basis states per magnon number 0 .. S, counted once (``expected_root_sets``)."""
        return dict(enumerate(np.bincount(self._magnons).tolist()))

    @functools.cached_property
    def _y_models(self) -> dict:
        """``chain_y_model`` results keyed by (n, twist), filled on first request."""
        return {}


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
    d = np.array([[twist.kappa_tilde - twist.rho1, 0], [0, twist.kappa - twist.rho2]],
                 dtype=complex)
    return a, b, d


# ---------------------------------------------------------------------------
# chain Y-function


def _vacuum_products(spec: PeriodicChainSpec, name: str, z) -> np.ndarray:
    """prod_i (z - theta_i + a_i) / c^k for each row of ``spec._linear_factors[name]``.

    Shape (rows, *z.shape).  The factors are multiplied in site order, all
    rows and points in one numpy product.
    """
    theta, shift = spec._linear_factors[name]
    z = _vals(z)
    rows = shift[(slice(None),) + (None,) * z.ndim]
    return (z[..., None] - theta + rows).prod(axis=-1) / spec.c ** len(theta)


def chain_y(spec: PeriodicChainSpec, z, values, twist: TwistSpec | None = None) -> np.ndarray:
    """Y(z | values) of the chain in product form, the one evaluator of it.

    Periodic: lambda1(z) p_-(z) / c^n + lambda2(z) p_+(z) / c^n with
    p_-/+(z) = prod_j (z - v_j -/+ c).  A twist weights the two terms by
    kappa_tilde - rho1 and kappa - rho2 and adds (rho1 + rho2) f(z).  The set
    runs along the last axis of ``values``; ``z`` broadcasts against its
    leading axes.  lambda1/lambda2 and p_-/p_+ are stacked on one leading
    axis, so one numpy product takes both terms' factors; the expanded form
    (``chain_y_model``) is far less accurate near a root.  numpy's complex
    products round as the CPU and the arrays' layout dispatch them, so a
    stack member may differ from a call on it alone in the last bits; the
    same inputs on the same machine give the same bits.
    """
    z, v = _vals(z), _vals(values)
    c = spec.c
    shape = np.broadcast(z[..., None], v).shape[:-1]
    z = z.reshape((1,) * (len(shape) - z.ndim) + z.shape)
    terms = _vacuum_products(spec, "lambda", z)
    if twist is not None:
        weights = np.array([twist.kappa_tilde - twist.rho1, twist.kappa - twist.rho2])
        terms = weights[(...,) + (None,) * z.ndim] * terms
    shift = np.array([-c, c])[(slice(None),) + (None,) * (len(shape) + 1)]
    p = (z[..., None] - v + shift).prod(axis=-1)
    terms = terms * p / c ** v.shape[-1]
    y = terms[0] + terms[1]
    if twist is not None:
        y = y + (twist.rho1 + twist.rho2) * _vacuum_products(spec, "f", z)[0]
    return y


def _complex(value: np.ndarray):
    """A complex for a single point, the array for a stack."""
    return complex(value) if value.ndim == 0 else value


def lambda1(spec: PeriodicChainSpec, z):
    """Vacuum eigenvalue of the diagonal monodromy entry A."""
    return _complex(_vacuum_products(spec, "lambda", z)[0])


def lambda2(spec: PeriodicChainSpec, z):
    """Vacuum eigenvalue of the diagonal monodromy entry D."""
    return _complex(_vacuum_products(spec, "lambda", z)[1])


def maba_f(spec: PeriodicChainSpec, z):
    """The set-independent third term of the twisted Y-function."""
    return _complex(_vacuum_products(spec, "f", z)[0])


def y_periodic(spec: PeriodicChainSpec, z, values):
    """Two-term Y of the periodic chain: ``chain_y`` without a twist."""
    return _complex(chain_y(spec, z, values))


def y_maba(spec: PeriodicChainSpec, twist: TwistSpec, z, values):
    """Three-term Y of the twisted chain: ``chain_y`` with the twist.

    The two set-dependent products carry the same per-factor 1/c normalization
    as the periodic model; that normalization is what makes the large-argument
    growth of the eigenvalue come out as (z/c)^N (kappa + kappa_tilde) and the
    whole family consistent with the vacuum eigenvalues.
    """
    return _complex(chain_y(spec, z, values, twist))


def _poly(spec: PeriodicChainSpec, row: int, name: str = "lambda") -> np.ndarray:
    """Coefficient form of one vacuum product, from its roots theta_i - a_i.

    The factors (z - r) of the sorted roots are multiplied as a pairwise
    tree, in the order of ``numpy.polynomial.polynomial.polyfromroots``.
    """
    theta, shift = spec._linear_factors[name]
    factors = [np.array([-r, 1]) for r in np.sort(theta - shift[row])]
    while len(factors) > 1:
        half, odd = divmod(len(factors), 2)
        tree = [np.convolve(factors[i], factors[i + half]) for i in range(half)]
        if odd:
            tree[0] = np.convolve(tree[0], factors[-1])
        factors = tree
    return factors[0] / spec.c ** len(theta)


def chain_y_model(spec: PeriodicChainSpec, n: int, twist: TwistSpec | None = None) -> YModel:
    """Coefficient-list form of the chain's Y at parameter-set size n.

    The periodic Y is lambda1(z) prod_j (z - v_j - c) / c^n + lambda2(z)
    prod_j (z - v_j + c) / c^n.  A twist weights the two terms by
    kappa_tilde - rho1 and kappa - rho2 and adds (rho1 + rho2) f(z) to alpha_0.
    Built once per chain, n and twist and kept on the chain, so the root
    solver and the checks share it.
    """
    model = spec._y_models.get((n, twist))
    if model is not None:
        return model
    c = spec.c
    l1, l2 = _poly(spec, 0), _poly(spec, 1)
    if twist is not None:
        l1, l2 = l1 * (twist.kappa_tilde - twist.rho1), l2 * (twist.kappa - twist.rho2)
    # (z -/+ c)^k for k = 0 .. n, each power one factor times the one before
    minus, plus = [np.ones(1, dtype=complex)], [np.ones(1, dtype=complex)]
    for k in range(n):
        minus.append(np.convolve(minus[-1], [-c, 1.0]) if k else np.array([-c, 1.0]))
        plus.append(np.convolve(plus[-1], [c, 1.0]) if k else np.array([c, 1.0]))
    alpha = [(-1) ** p / c ** n * (np.convolve(l1, minus[n - p]) + np.convolve(l2, plus[n - p]))
             for p in range(n + 1)]
    if twist is not None:
        # the shorter series is added into the longer, as ``polyadd`` does
        f = (twist.rho1 + twist.rho2) * _poly(spec, 0, "f")
        short, alpha[0] = sorted((alpha[0], f), key=len)
        alpha[0][:len(short)] += short
    model = spec._y_models[n, twist] = YModel(c=c, alpha=tuple(alpha))
    return model
