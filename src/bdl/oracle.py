"""Brute-force ground truth on small chains.

Basis states are kron products of site states with site 0 the slowest index;
every full-space vector, matrix and weight below uses that order.  Each site
contributes a Lax operator, a 2x2 auxiliary block of site-local spin
matrices, so the monodromy is a bond-dimension-2 MPO in the auxiliary space.
The operators the checks need (B, C, nu12, nu21 and the periodic or twisted
transfer matrix) are applied to vectors one site at a time, in O(N D) work
with no D x D array: product-state vectors, dual rows, the transfer action
and the transfer blocks of the root solver, which are built column by column
on one weight sector.  Root sets are read off each transfer eigenvector by
the linear T-Q relation, polished by Newton, and kept when their Bethe
vector lies along that eigenvector.

Two things stay dense: the explicit monodromy blocks (``monodromy``,
``modified_monodromy``), built by Kronecker recursion for the nu12 growth
check of ``maba-asymptotics`` and as a cross-check, and the transfer block
of a twisted chain, which spans the whole space because nothing is
conserved there.

The pairing used throughout is bilinear (transpose, no conjugation): dual
vectors are rows acting from the left, matching the left-eigenvector role the
dual states play.  Spectral parameters are generally complex, so a Hermitian
pairing would be the wrong object.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linsys import ray_distance
from .models import (PeriodicChainSpec, TwistSpec, alpha_values, bethe_jacobian,
                     chain_y_model, k_matrix, twist_factors, y_maba, y_periodic)
from .rational import _vals


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


def _vacuum(spec: PeriodicChainSpec) -> np.ndarray:
    """The all-highest-weight basis state, the first of the kron basis."""
    vec = np.zeros(spec.dim, dtype=complex)
    vec[0] = 1.0
    return vec


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


def monodromy(spec: PeriodicChainSpec, u: complex) -> Monodromy:
    """Ordered product L_{N-1}(u) ... L_0(u) of Lax blocks.

    Site k is the fastest kron index of sites 0..k, so multiplying by its Lax
    block from the left is T_ab <- sum_c kron(T_cb, L_ac).
    """
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


def modified_monodromy(spec: PeriodicChainSpec, twist: TwistSpec, u: complex) -> ModifiedMonodromy:
    mono = monodromy(spec, u)
    a_mat, b_mat, _ = twist_factors(twist)
    t = np.array([[mono.a, mono.b], [mono.c, mono.d]])
    nu = np.einsum("ix,xyrs,yj->ijrs", a_mat, t, b_mat)
    return ModifiedMonodromy(nu11=nu[0, 0], nu12=nu[0, 1], nu21=nu[1, 0], nu22=nu[1, 1])


def _weight(op: str, twist: TwistSpec | None) -> np.ndarray:
    """The 2x2 weight w with sum_ab w[a, b] T_ab the named operator.

    ``op`` is "B" (B, or nu12 when twisted), "C" (C, or nu21) or "T" (the
    transfer matrix: A + D, or tr(K T) = sum_ab K[b, a] T_ab).
    """
    if op == "T":
        return np.eye(2, dtype=complex) if twist is None else k_matrix(twist).T
    i, j = (0, 1) if op == "B" else (1, 0)
    if twist is None:
        weight = np.zeros((2, 2), dtype=complex)
        weight[i, j] = 1.0
        return weight
    a_mat, b_mat, _ = twist_factors(twist)
    return np.outer(a_mat[i, :], b_mat[:, j])


def _apply(spec: PeriodicChainSpec, u: complex, vecs: np.ndarray, weight: np.ndarray,
           transpose: bool = False) -> np.ndarray:
    """sum_ab weight[a, b] T_ab(u) applied to ``vecs`` of shape (D,) or (D, k).

    One sweep per nonzero weight row a starts from the auxiliary vector
    weight[a, :] and keeps auxiliary component a at the end.  The auxiliary
    leg sits between the processed and the unprocessed site legs, so site k
    is one batched matmul with the (2d x 2d) matrix M[(s', a'), (a, s)] =
    L_k[a', a][s', s], which also moves the leg past the site.  With
    ``transpose`` each site matrix is transposed, giving the row action
    vecs^T O as a column.
    """
    rows = np.flatnonzero(np.any(weight != 0, axis=1))
    cols = vecs.reshape(len(vecs), -1)
    state = weight[rows][:, :, None, None] * cols  # (rows, aux, D, k)
    left, right = len(rows), cols.size
    for site in range(spec.n_sites):
        l = lax(spec, site, u)
        d = l.shape[2]
        mat = l.transpose((3, 0, 1, 2) if transpose else (2, 0, 1, 3)).reshape(2 * d, 2 * d)
        right //= d
        state = np.matmul(mat, state.reshape(left, 2 * d, right))
        left *= d
    state = state.reshape(len(rows), len(vecs), 2, cols.shape[1])
    return state[np.arange(len(rows)), :, rows].sum(axis=0).reshape(vecs.shape)


def transfer(spec: PeriodicChainSpec, u: complex, vecs: np.ndarray,
             twist: TwistSpec | None = None) -> np.ndarray:
    """T(u) applied to ``vecs`` (shape (D,) or (D, k)): A + D, or tr(K T(u)) when twisted."""
    if len(vecs) != spec.dim:
        raise ValueError(f"dimension mismatch: {len(vecs)} rows for D = {spec.dim}")
    return _apply(spec, u, vecs, _weight("T", twist))


def bethe_vector(spec: PeriodicChainSpec, uset, twist: TwistSpec | None = None) -> np.ndarray:
    """Product state built from B(u) (periodic) or nu12(u) (twisted) on the vacuum."""
    vec = _vacuum(spec)
    weight = _weight("B", twist)
    for u in _vals(uset):
        vec = _apply(spec, u, vec, weight)
    return vec


def dual_bethe_vector(spec: PeriodicChainSpec, vset, twist: TwistSpec | None = None) -> np.ndarray:
    """Dual product state: vacuum row times C(v) / nu21(v) factors."""
    row = _vacuum(spec)
    weight = _weight("C", twist)
    for v in _vals(vset):
        row = _apply(spec, v, row, weight, transpose=True)
    return row


def direct_scalar_product(dual_row: np.ndarray, vec: np.ndarray) -> complex:
    """Bilinear pairing of a dual row with a column vector (no conjugation)."""
    if dual_row.shape != vec.shape:
        raise ValueError(f"dimension mismatch: {dual_row.shape} vs {vec.shape}")
    return complex(dual_row @ vec)


def vacuum_nu21_expectation(spec: PeriodicChainSpec, twist: TwistSpec, vset) -> complex:
    """<0| prod nu21(v_j) |0>, the prefactor expectation of the twisted formula."""
    return direct_scalar_product(dual_bethe_vector(spec, vset, twist), _vacuum(spec))


# ---------------------------------------------------------------------------
# root solving

CONSISTENCY_TOL = 1e-8    # scaled T-Q least-squares residual of a consistent eigenvector
ALIGNMENT_TOL = 1e-6      # ray distance from a kept set's Bethe vector to its eigenvector


@dataclass
class BetheRootResult:
    """Validated root sets, one per consistent eigenvector, in canonical order.

    ``unmatched`` holds the Q-roots of each transfer eigenvector that gave no
    set (the T-Q-inconsistent ones, such as symmetry descendants), so its
    length is the rejected count.  ``seeds_used`` counts Newton polishes, one
    per consistent eigenvector.
    """

    roots: list[tuple[complex, ...]]
    residuals: list[float]
    unmatched: list[tuple[complex, ...]]
    seeds_used: int = 0


def _canonical_key(z: complex) -> tuple[float, float]:
    return (round(z.real, 9), round(z.imag, 9))


def _canonical(us: np.ndarray) -> tuple[complex, ...]:
    return tuple(sorted((complex(u) for u in us), key=_canonical_key))


def _newton(residual_fn, jacobian_fn, start: np.ndarray):
    """Damped Newton for as long as max |Y| falls; the last iterate and its residual.

    No absolute bound: the float64 floor of max |Y| grows with the chain, and
    whether the roots are good enough is judged by their Bethe vector.
    """
    us = start.astype(complex)
    fv = residual_fn(us)
    for _ in range(80):
        base = np.max(np.abs(fv))
        try:
            step = np.linalg.solve(jacobian_fn(us), -fv)
        except np.linalg.LinAlgError:
            break
        for lam in 0.5 ** np.arange(25):
            trial = us + lam * step
            if np.array_equal(trial, us):
                return us, fv  # shorter steps round to the same iterate
            fv_trial = residual_fn(trial)
            if np.max(np.abs(fv_trial)) < base:
                us, fv = trial, fv_trial
                break
        else:
            break
    return us, fv


def _aligned(spec: PeriodicChainSpec, twist: TwistSpec | None, us: np.ndarray,
             eigvec: np.ndarray, sector: np.ndarray) -> bool:
    """Finite, distinct roots whose Bethe vector lies along ``eigvec``.

    ``eigvec`` is the transfer eigenvector on the basis states ``sector`` that
    the roots were read from.  A null Bethe vector reads 1; an off-shell or
    foreign one reads far above ALIGNMENT_TOL.
    """
    n = len(us)
    if not np.all(np.isfinite(us)):
        return False
    if n > 1:
        sep = min(abs(us[i] - us[j]) for i in range(n) for j in range(i))
        if sep < 1e-6 * max(1.0, np.max(np.abs(us))):
            return False
    return ray_distance(eigvec, bethe_vector(spec, us, twist)[sector]) < ALIGNMENT_TOL


def _tq_roots(zs: np.ndarray, c_alpha: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, float]:
    """Roots of Q and the scaled residual of the T-Q system at one eigenvector.

    ``c_alpha[k, p]`` is c^n alpha_p(z_k).  Row k is sum_p sigma_p [(-1)^p
    z_k^(n-p) Lambda(z_k) - c^n alpha_p(z_k)] = 0 with sigma_0 = 1, each row
    scaled by its largest entry; least squares gives sigma_1..sigma_n, and
    Q(z) = prod (z - v_j) = sum_p (-1)^p sigma_p z^(n-p).
    """
    n = c_alpha.shape[1] - 1
    p = np.arange(n + 1)
    signs = (-1.0) ** p
    rows = signs * zs[:, None] ** (n - p) * lam[:, None] - c_alpha
    rows /= np.max(np.abs(rows), axis=1, keepdims=True)
    sigma = np.linalg.lstsq(rows[:, 1:], -rows[:, 0], rcond=None)[0]
    resid = float(np.max(np.abs(rows[:, 1:] @ sigma + rows[:, 0])))
    return np.roots(np.concatenate([[1.0], signs[1:] * sigma])), resid


def solve_bethe_roots(spec: PeriodicChainSpec, n: int,
                      twist: TwistSpec | None = None) -> BetheRootResult:
    """Size-n root sets read off the transfer spectrum by the linear T-Q relation.

    With Y affine in each parameter, Lambda(z) prod_j (z - v_j) = c^n sum_p
    alpha_p(z) sigma_p(vbar) is linear in sigma_1..sigma_n.  The transfer block
    (weight sector n for periodic chains, the full space for twisted ones) is
    diagonalized once at a probe point; each eigenvector's Lambda is read as
    Rayleigh quotients at n + 3 points, and the least-squares sigma gives Q.
    A consistent eigenvector (residual at most CONSISTENCY_TOL) gives one set:
    Q's roots, polished by Newton and kept if their Bethe vector lies along
    that eigenvector.
    """
    if n == 0:
        # the reference state is always an eigenstate; nothing to solve
        return BetheRootResult(roots=[()], residuals=[0.0], unmatched=[])
    if twist is not None and n != spec.magnon_capacity:
        raise ValueError("twisted root systems are square only at n = magnon capacity")
    model = chain_y_model(spec, n, twist)

    def res(us):
        return np.array([y_periodic(spec, u, us) if twist is None else y_maba(spec, twist, u, us)
                         for u in us])

    def jac(us):
        return bethe_jacobian(model, us).T

    sector = (np.flatnonzero(_basis_weights(spec) == n) if twist is None
              else np.arange(spec.dim))
    if len(sector) == 0:
        return BetheRootResult(roots=[], residuals=[], unmatched=[])

    def block(z):
        return _sector_block(spec, sector, z, twist)

    radius = 3 * max(abs(t) for t in spec.theta) + 3 * abs(spec.c)
    z_probe = complex(0.5 + radius * 0.17, 0.39 + 0.11 * radius)
    vecs = np.linalg.eig(block(z_probe))[1]  # unit columns
    zs = radius * np.exp(2j * np.pi * (np.arange(n + 3) + 0.5) / (n + 3))
    lams = np.array([np.einsum("ie,ij,je->e", vecs.conj(), block(z), vecs) for z in zs])
    c_alpha = model.c ** n * alpha_values(model, zs)

    found: list[tuple[tuple[complex, ...], float]] = []
    unmatched: list[tuple[complex, ...]] = []
    polishes = 0
    for lam, eigvec in zip(lams.T, vecs.T):
        q_roots, consistency = _tq_roots(zs, c_alpha, lam)
        if consistency <= CONSISTENCY_TOL:
            polishes += 1
            us, fv = _newton(res, jac, q_roots)
            if _aligned(spec, twist, us, eigvec, sector):
                found.append((_canonical(us), float(np.max(np.abs(fv)))))
                continue
        unmatched.append(_canonical(q_roots))
    found.sort(key=lambda item: [_canonical_key(z) for z in item[0]])
    return BetheRootResult(roots=[r for r, _ in found], residuals=[r for _, r in found],
                           unmatched=unmatched, seeds_used=polishes)


# ---------------------------------------------------------------------------
# sector bookkeeping


def _basis_weights(spec: PeriodicChainSpec) -> np.ndarray:
    """Magnon number of each basis state, in the kron order of the monodromy."""
    weights = np.zeros(1, dtype=int)
    for s in spec.spins:
        weights = (weights[:, None] + np.arange(int(round(2 * s)) + 1)).ravel()
    return weights


def _sector_block(spec: PeriodicChainSpec, sector: np.ndarray, z: complex,
                  twist: TwistSpec | None = None) -> np.ndarray:
    """Transfer block on the basis states ``sector``, built by applying T(z) to their unit columns."""
    cols = np.zeros((spec.dim, len(sector)), dtype=complex)
    cols[sector, np.arange(len(sector))] = 1.0
    return transfer(spec, z, cols, twist)[sector]


def fresh_eigencurve_count(spec: PeriodicChainSpec, n: int) -> int:
    """Number of transfer eigenvalues in weight sector n that are new there.

    The rational chain is weight-conserving, so the transfer matrix block-
    diagonalizes over magnon sectors; eigenvalues already present in sector
    n - 1 belong to multiplets reachable with fewer parameters.  The count of
    genuinely new eigenvalues equals the number of distinct-finite-root sets
    the solver should return.
    """
    z_probe = 0.613 + 0.274j
    weights = _basis_weights(spec)
    idx_n = np.flatnonzero(weights == n)
    if len(idx_n) == 0:
        return 0
    eig_n = np.linalg.eigvals(_sector_block(spec, idx_n, z_probe))
    if n == 0:
        return len(eig_n)
    idx_prev = np.flatnonzero(weights == n - 1)
    if len(idx_prev) == 0:
        return len(eig_n)
    eig_prev = np.linalg.eigvals(_sector_block(spec, idx_prev, z_probe))
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
