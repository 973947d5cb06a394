"""Brute-force ground truth on small chains.

Everything here is dense linear algebra on the explicit tensor-product space.
Basis states are kron products of site states with site 0 the slowest index;
every full-space matrix, vector and weight below uses that order.  Each site
contributes a Lax operator, a 2x2 auxiliary block of site-local spin matrices,
and the monodromy is built from them by Kronecker recursion, one site at a
time.  On top sit transfer matrices (periodic trace or twisted trace),
product-state vectors built from the off-diagonal monodromy entries, bilinear
pairings, and a multi-start Newton solver for root systems whose output is
cross-validated against dense diagonalization.

The pairing used throughout is bilinear (transpose, no conjugation): dual
vectors are rows acting from the left, matching the left-eigenvector role the
dual states play.  Spectral parameters are generally complex, so a Hermitian
pairing would be the wrong object.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, PoleError
from .models import (PeriodicChainSpec, TwistSpec, bethe_jacobian, k_matrix,
                     maba_y_model, periodic_y_model, twist_factors, y_maba,
                     y_periodic)
from .rational import _vals, g_prod

DEFAULT_DIM_CAP = 4096
ENV_DIM_CAP = "BDL_MAX_DIM"


def dimension_cap() -> int:
    """Dense-operator size limit; override with the BDL_MAX_DIM variable."""
    raw = os.environ.get(ENV_DIM_CAP)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise DimensionCapError(f"{ENV_DIM_CAP} must be an integer, got {raw!r}") from exc


def spin_matrices(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sz, S+, S-) for spin s, basis ordered by descending magnetization.

    Index 0 is the highest-weight state, so the local vacuum is always the
    first basis vector.
    """
    d = int(round(2 * s)) + 1
    m = s - np.arange(d)
    sz = np.diag(m).astype(complex)
    sp = np.zeros((d, d), dtype=complex)
    for i in range(1, d):
        mm = m[i]
        sp[i - 1, i] = np.sqrt(s * (s + 1) - mm * (mm + 1))
    sm = sp.T.copy()
    return sz, sp, sm


@dataclass(frozen=True)
class HilbertSpace:
    """Tensor product of the site spaces."""

    site_dims: tuple[int, ...]

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.site_dims))

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.total_dim, dtype=complex)
        v[0] = 1.0
        return v


def chain_space(spec: PeriodicChainSpec) -> HilbertSpace:
    dims = tuple(int(round(2 * s)) + 1 for s in spec.spins)
    space = HilbertSpace(dims)
    cap = dimension_cap()
    if space.total_dim > cap:
        raise DimensionCapError(f"total dimension {space.total_dim} exceeds cap {cap}")
    return space


@dataclass
class Monodromy:
    """Entries of the 2x2 auxiliary-space monodromy at one spectral point."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray


def lax(spec: PeriodicChainSpec, site: int, u: complex) -> np.ndarray:
    """Site Lax operator: a 2x2 auxiliary block of d x d site matrices, shape (2, 2, d, d).

    The block is ((u - theta + c/2) Id + c Sz, c S-; c S+, (u - theta + c/2) Id - c Sz) / c,
    normalized so the vacuum eigenvalues of the assembled diagonal entries are
    exactly the lambda1/lambda2 products of the model layer.
    """
    c = spec.c
    sz, sp, sm = spin_matrices(spec.spins[site])
    eye = np.eye(len(sz), dtype=complex)
    shift = (u - spec.theta[site] + c / 2)
    return np.array([[(shift * eye + c * sz) / c, sm],
                     [sp, (shift * eye - c * sz) / c]])


def monodromy(spec: PeriodicChainSpec, u: complex,
              space: HilbertSpace | None = None) -> Monodromy:
    """Ordered product L_{N-1}(u) ... L_0(u) of Lax blocks.

    Site k is the fastest kron index of sites 0..k, so multiplying by its Lax
    block from the left is T_ab <- sum_c kron(T_cb, L_ac).
    """
    if space is None:
        chain_space(spec)  # enforces the dimension cap
    t = np.eye(2, dtype=complex).reshape(2, 2, 1, 1)
    for site in range(spec.n_sites):
        l = lax(spec, site, u)
        m, d = t.shape[2], l.shape[2]
        t = np.einsum("cbij,ackl->abikjl", t, l).reshape(2, 2, m * d, m * d)
    return Monodromy(a=t[0, 0], b=t[0, 1], c=t[1, 0], d=t[1, 1])


@dataclass
class ModifiedMonodromy:
    """Entries nu_ij of the similarity-transformed monodromy A T(u) B."""

    nu11: np.ndarray
    nu12: np.ndarray
    nu21: np.ndarray
    nu22: np.ndarray


def modified_monodromy(spec: PeriodicChainSpec, twist: TwistSpec, u: complex,
                       space: HilbertSpace | None = None) -> ModifiedMonodromy:
    space = space or chain_space(spec)
    mono = monodromy(spec, u, space)
    a_mat, b_mat, _ = twist_factors(twist)
    t = np.array([[mono.a, mono.b], [mono.c, mono.d]])
    nu = np.einsum("ix,xyrs,yj->ijrs", a_mat, t, b_mat)
    return ModifiedMonodromy(nu11=nu[0, 0], nu12=nu[0, 1], nu21=nu[1, 0], nu22=nu[1, 1])


def transfer(spec: PeriodicChainSpec, u: complex, twist: TwistSpec | None = None,
             space: HilbertSpace | None = None) -> np.ndarray:
    """A + D for the periodic chain, or the twisted trace tr(K T(u))."""
    space = space or chain_space(spec)
    mono = monodromy(spec, u, space)
    if twist is None:
        return mono.a + mono.d
    k = k_matrix(twist)
    return k[0, 0] * mono.a + k[0, 1] * mono.c + k[1, 0] * mono.b + k[1, 1] * mono.d


def bethe_vector(spec: PeriodicChainSpec, uset, twist: TwistSpec | None = None,
                 space: HilbertSpace | None = None) -> np.ndarray:
    """Product state built from B(u) (periodic) or nu12(u) (twisted) on the vacuum."""
    space = space or chain_space(spec)
    vec = space.vacuum()
    for u in _vals(uset):
        op = monodromy(spec, u, space).b if twist is None else modified_monodromy(spec, twist, u, space).nu12
        vec = op @ vec
    return vec


def _dual_operators(spec: PeriodicChainSpec, vset, twist: TwistSpec | None,
                    space: HilbertSpace) -> list[np.ndarray]:
    """C(v) (periodic) or nu21(v) (twisted) for each v of the set, in order.

    Each entry is copied out of its monodromy: a view would keep all four
    D x D blocks alive while the list is held.
    """
    return [(monodromy(spec, v, space).c if twist is None
             else modified_monodromy(spec, twist, v, space).nu21).copy() for v in _vals(vset)]


def _dual_row(space: HilbertSpace, ops: list[np.ndarray]) -> np.ndarray:
    row = space.vacuum().copy()
    for op in ops:
        row = row @ op
    return row


def dual_bethe_vector(spec: PeriodicChainSpec, vset, twist: TwistSpec | None = None,
                      space: HilbertSpace | None = None) -> np.ndarray:
    """Dual product state: vacuum row times C(v) / nu21(v) factors."""
    space = space or chain_space(spec)
    return _dual_row(space, _dual_operators(spec, vset, twist, space))


def direct_scalar_product(dual_row: np.ndarray, vec: np.ndarray) -> complex:
    """Bilinear pairing of a dual row with a column vector (no conjugation)."""
    if dual_row.shape != vec.shape:
        raise ValueError(f"dimension mismatch: {dual_row.shape} vs {vec.shape}")
    return complex(dual_row @ vec)


def vacuum_nu21_expectation(spec: PeriodicChainSpec, twist: TwistSpec, vset,
                            space: HilbertSpace | None = None) -> complex:
    """<0| prod nu21(v_j) |0>, the prefactor expectation of the twisted formula."""
    space = space or chain_space(spec)
    return direct_scalar_product(dual_bethe_vector(spec, vset, twist, space), space.vacuum())


# ---------------------------------------------------------------------------
# root solving


@dataclass
class BetheRootResult:
    """Validated root sets plus whatever converged but failed validation."""

    roots: list[tuple[complex, ...]]
    residuals: list[float]
    unmatched: list[tuple[complex, ...]]
    seeds_used: int = 0
    expected: int | None = None

    @property
    def complete(self) -> bool:
        return self.expected is None or len(self.roots) >= self.expected


def _canonical(us: np.ndarray) -> tuple[complex, ...]:
    return tuple(sorted((complex(u) for u in us), key=lambda z: (z.real, z.imag)))


def _same_set(a, b, tol: float) -> bool:
    """Multiset comparison with tolerance; ordering near ties is unstable, so
    elements are greedily matched instead of compared positionally."""
    if len(a) != len(b):
        return False
    remaining = list(b)
    for x in a:
        hit = None
        for i, y in enumerate(remaining):
            if abs(x - y) <= tol * max(1.0, abs(x)):
                hit = i
                break
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def _newton(residual_fn, jacobian_fn, start: np.ndarray, iters: int, tol: float):
    us = start.astype(complex)
    fv = residual_fn(us)
    for _ in range(iters):
        if np.max(np.abs(fv)) < tol:
            return us, fv
        jac = jacobian_fn(us)
        try:
            step = np.linalg.solve(jac, -fv)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        base = np.max(np.abs(fv))
        for _ in range(25):
            trial = us + lam * step
            fv_trial = residual_fn(trial)
            if np.max(np.abs(fv_trial)) < base:
                us, fv = trial, fv_trial
                break
            lam *= 0.5
        else:
            return None
    if np.max(np.abs(fv)) < tol:
        return us, fv
    return None


def solve_bethe_roots(spec: PeriodicChainSpec, n: int, twist: TwistSpec | None = None, *,
                      seed: int = 0, n_seeds: int = 200, max_rounds: int = 4,
                      residual_tol: float = 1e-12, expect: int | None = None,
                      validate: bool = True) -> BetheRootResult:
    """Multi-start damped Newton on the square system Y(u_j | u) = 0.

    Converged sets are deduplicated as multisets, and (when ``validate``) kept
    only if their eigenvalue curve matches the dense transfer spectrum and the
    dual product vector they generate is not numerically null.  Sets that
    converge but fail validation are reported, not discarded silently.

    Each round spends up to ``n_seeds`` starts.  With ``expect`` given, the
    search stops as soon as that many sets are accepted, and further rounds
    run only while fewer are; starts are drawn in a fixed order, so the
    accepted sets are the leading ones of the unstopped search.
    """
    rng = np.random.default_rng(seed)
    space = chain_space(spec) if validate else None
    if n == 0:
        # the reference state is always an eigenstate; nothing to solve
        return BetheRootResult(roots=[()], residuals=[0.0], unmatched=[],
                               seeds_used=0, expected=expect)
    if twist is None:
        model = periodic_y_model(spec, n)
        def res(us): return np.array([y_periodic(spec, u, us) for u in us])
    else:
        if n != spec.magnon_capacity:
            raise ValueError("twisted root systems are square only at n = magnon capacity")
        model = maba_y_model(spec, twist)
        def res(us): return np.array([y_maba(spec, twist, u, us) for u in us])

    def jac(us):
        return bethe_jacobian(model, us).T

    radius = 3 * max(abs(t) for t in spec.theta) + 3 * abs(spec.c)

    z_probe = None
    evals = None
    if validate:
        z_probe = complex(0.5 + radius * 0.17, 0.39 + 0.11 * radius)
        evals = np.linalg.eigvals(transfer(spec, z_probe, twist, space))

    accepted: list[tuple[complex, ...]] = []
    resids: list[float] = []
    unmatched: list[tuple[complex, ...]] = []
    seeds_used = 0
    for _ in range(max_rounds):
        for _ in range(n_seeds):
            seeds_used += 1
            start = np.array([radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                              for _ in range(n)])
            out = _newton(res, jac, start, iters=80, tol=residual_tol)
            if out is None:
                continue
            us, fv = out
            if not np.all(np.isfinite(us)):
                continue
            if n > 1:
                sep = min(abs(us[i] - us[j]) for i in range(n) for j in range(i))
                if sep < 1e-6 * max(1.0, np.max(np.abs(us))):
                    continue
            cand = _canonical(us)
            if any(_same_set(cand, known, 1e-7) for known in accepted + unmatched):
                continue
            if validate:
                try:
                    lam = g_prod(spec.c, z_probe, us) * (
                        y_periodic(spec, z_probe, us) if twist is None
                        else y_maba(spec, twist, z_probe, us))
                except PoleError:
                    unmatched.append(cand)  # root collides with the probe point
                    continue
                eig_ok = np.min(np.abs(evals - lam)) < 1e-8 * max(1.0, abs(lam))
                ops = _dual_operators(spec, us, twist, space)
                ref = np.prod([np.linalg.norm(op, 2) for op in ops]) or 1.0
                vec_ok = np.linalg.norm(_dual_row(space, ops)) > 1e-8 * ref
                if not (eig_ok and vec_ok):
                    unmatched.append(cand)
                    continue
            accepted.append(cand)
            resids.append(float(np.max(np.abs(fv))))
            if expect is not None and len(accepted) >= expect:
                break
        if expect is None or len(accepted) >= expect:
            break
    return BetheRootResult(roots=accepted, residuals=resids, unmatched=unmatched,
                           seeds_used=seeds_used, expected=expect)


# ---------------------------------------------------------------------------
# sector bookkeeping


def _basis_weights(spec: PeriodicChainSpec) -> np.ndarray:
    """Magnon number of each basis state, in the kron order of the monodromy."""
    weights = np.zeros(1, dtype=int)
    for s in spec.spins:
        weights = (weights[:, None] + np.arange(int(round(2 * s)) + 1)).ravel()
    return weights


def sector_weight_count(spec: PeriodicChainSpec, n: int) -> int:
    """Dimension of the weight space with n magnons."""
    return int(np.count_nonzero(_basis_weights(spec) == n))


def fresh_eigencurve_count(spec: PeriodicChainSpec, n: int, z_probe: complex = 0.613 + 0.274j) -> int:
    """Number of transfer eigenvalues in weight sector n that are new there.

    The rational chain is weight-conserving, so the transfer matrix block-
    diagonalizes over magnon sectors; eigenvalues already present in sector
    n - 1 belong to multiplets reachable with fewer parameters.  The count of
    genuinely new eigenvalues equals the number of distinct-finite-root sets
    the solver should return.
    """
    space = chain_space(spec)
    tmat = transfer(spec, z_probe, None, space)
    weights = _basis_weights(spec)
    idx_n = np.flatnonzero(weights == n)
    eig_n = np.linalg.eigvals(tmat[np.ix_(idx_n, idx_n)])
    if n == 0:
        return len(eig_n)
    idx_prev = np.flatnonzero(weights == n - 1)
    if len(idx_prev) == 0:
        return len(eig_n)
    eig_prev = np.linalg.eigvals(tmat[np.ix_(idx_prev, idx_prev)])
    scale = max(1.0, float(np.max(np.abs(eig_n))))
    fresh = 0
    prev = list(eig_prev)
    for lam in eig_n:
        hit = None
        for i, mu in enumerate(prev):
            if abs(lam - mu) < 1e-7 * scale:
                hit = i
                break
        if hit is None:
            fresh += 1
        else:
            prev.pop(hit)
    return fresh
