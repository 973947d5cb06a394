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
the linear T-Q relation, polished together by one stacked Newton, and kept
when their Bethe vector lies along that eigenvector.  The dense monodromy
entries (``monodromy``, ``modified_monodromy``) are the same sweep applied to
the identity; the transfer block of a twisted chain spans the whole space
because nothing is conserved there.

The pairing used throughout is bilinear (transpose, no conjugation): dual
vectors are rows acting from the left, matching the left-eigenvector role the
dual states play.  Spectral parameters are generally complex, so a Hermitian
pairing would be the wrong object.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linsys import ray_distance
from .models import (PeriodicChainSpec, TwistSpec, YModel, alpha_values, bethe_jacobian,
                     chain_y, chain_y_model, k_matrix, twist_factors)
from .rational import _vals


# vector entries swept at once when a stack of product states is built, and
# the entries of the factor arrays of one block of the Newton line search
SWEEP_ENTRIES = 2**20


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
    exactly the lambda1/lambda2 products of the model layer.  It is affine in
    u: (u - theta + c/2)/c E + F with the parts of ``spec._lax_parts``.
    """
    e, f = spec._lax_parts[site]
    return _lax_weight(spec, site, u) * e + f


def _lax_weight(spec: PeriodicChainSpec, site: int, u):
    """(u - theta + c/2)/c, the weight of E in the Lax operator of ``site``."""
    return (u - spec.theta[site] + spec.c / 2) / spec.c


def monodromy(spec: PeriodicChainSpec, u: complex) -> Monodromy:
    """The entries T_ab(u) of L_{N-1}(u) ... L_0(u) as dense D x D matrices."""
    return Monodromy(*_dense_entries(spec, u, None))


@dataclass
class ModifiedMonodromy:
    """Entries nu_ij of the similarity-transformed monodromy A T(u) B."""

    nu11: np.ndarray
    nu12: np.ndarray
    nu21: np.ndarray
    nu22: np.ndarray


def modified_monodromy(spec: PeriodicChainSpec, twist: TwistSpec, u: complex) -> ModifiedMonodromy:
    """The entries nu_ij(u) of A T(u) B as dense D x D matrices."""
    return ModifiedMonodromy(*_dense_entries(spec, u, twist))


def _dense_entries(spec: PeriodicChainSpec, u: complex,
                   twist: TwistSpec | None) -> list[np.ndarray]:
    """T_00, T_01, T_10, T_11 (nu_ij when twisted), each one sweep of the identity."""
    eye = np.eye(spec.dim, dtype=complex)
    return [_apply(spec, u, eye, _weight((i, j), twist)) for i in range(2) for j in range(2)]


def _weight(op: str | tuple[int, int], twist: TwistSpec | None) -> np.ndarray:
    """The 2x2 weight w with sum_ab w[a, b] T_ab the named operator.

    ``op`` is "T" (the transfer matrix: A + D, or tr(K T) = sum_ab K[b, a] T_ab),
    an entry (i, j) (T_ij, or nu_ij = (A T B)_ij when twisted), "B" for (0, 1)
    or "C" for (1, 0).
    """
    if op == "T":
        return np.eye(2, dtype=complex) if twist is None else k_matrix(twist).T
    i, j = {"B": (0, 1), "C": (1, 0)}.get(op, op)
    if twist is None:
        weight = np.zeros((2, 2), dtype=complex)
        weight[i, j] = 1.0
        return weight
    a_mat, b_mat, _ = twist_factors(twist)
    return np.outer(a_mat[i, :], b_mat[:, j])


def _apply(spec: PeriodicChainSpec, u, vecs: np.ndarray, weight: np.ndarray,
           transpose: bool = False) -> np.ndarray:
    """sum_ab weight[a, b] T_ab(u) applied to ``vecs`` of shape (D,) or (D, k).

    One sweep per nonzero weight row a starts from the auxiliary vector
    weight[a, :] and keeps auxiliary component a at the end.  The auxiliary
    leg sits between the processed and the unprocessed site legs, so site k
    is one batched matmul with the (2d x 2d) matrix M[(s', a'), (a, s)] =
    L_k[a', a][s', s], which also moves the leg past the site.  With
    ``transpose`` each site matrix is transposed, giving the row action
    vecs^T O as a column.

    ``u`` is one spectral parameter, or an array of one per column of
    ``vecs``.  M is affine in u, w E + F: a scalar u takes one matmul per
    site.  E only swaps the two legs, so a column of u takes the matmul with
    F off E's support and adds the leg swap scaled by w + F on it, one
    factor per column: each entry w + F is rounded once, as in the matmul.
    """
    rows = np.flatnonzero(np.any(weight != 0, axis=1))
    cols = vecs.reshape(len(vecs), -1)
    width = cols.shape[1]
    per_column = np.ndim(u) > 0
    state = weight[rows][:, :, None, None] * cols  # (rows, aux, D, k)
    left, right = len(rows), cols.size
    order = (3, 0, 1, 2) if transpose else (2, 0, 1, 3)
    for site, (e, f) in enumerate(spec._lax_parts):
        d = f.shape[2]
        right //= d
        state = state.reshape(left, 2 * d, right)
        w = _lax_weight(spec, site, u)
        if per_column:
            on_e = e != 0
            factor = w + f[on_e].reshape(d, 2, 1, 1, order="F")  # [s, a] = w + F[a, a][s, s]
            swapped = state.reshape(left, 2, d, right // width, width).swapaxes(1, 2) * factor
            off_e = np.where(on_e, 0, f).transpose(order).reshape(2 * d, 2 * d)
            state = np.matmul(off_e, state)
            state += swapped.reshape(left, 2 * d, right)
        else:
            state = np.matmul((w * e + f).transpose(order).reshape(2 * d, 2 * d), state)
        left *= d
    state = state.reshape(len(rows), len(vecs), 2, width)
    return state[np.arange(len(rows)), :, rows].sum(axis=0).reshape(vecs.shape)


def transfer(spec: PeriodicChainSpec, u, vecs: np.ndarray,
             twist: TwistSpec | None = None) -> np.ndarray:
    """T(u) applied to ``vecs`` (shape (D,) or (D, k)): A + D, or tr(K T(u)) when twisted.

    ``u`` is one point, or one per column of ``vecs``.
    """
    if len(vecs) != spec.dim:
        raise ValueError(f"dimension mismatch: {len(vecs)} rows for D = {spec.dim}")
    return _apply(spec, u, vecs, _weight("T", twist))


def _product_states(spec: PeriodicChainSpec, sets, op: str, twist: TwistSpec | None,
                    transpose: bool) -> np.ndarray:
    """The operator ``op`` at every element of each set, applied to the vacuum.

    ``sets`` is one set (n,) or a stack (..., n); the result is (D,) or
    (..., D).  A stack takes one sweep per slot, each column at its own
    point, over blocks of at most SWEEP_ENTRIES vector entries: a sweep's
    temporaries are several times its state, so the block bounds the memory
    that a large stack adds to its result.
    """
    u = _vals(sets)
    weight = _weight(op, twist)
    if u.ndim == 1:
        vec = _vacuum(spec)
        for z in u:
            vec = _apply(spec, z, vec, weight, transpose)
        return vec
    flat = u.reshape(-1, u.shape[-1])
    out = np.empty((len(flat), spec.dim), dtype=complex)
    step = max(1, SWEEP_ENTRIES // spec.dim)
    for start in range(0, len(flat), step):
        block = flat[start:start + step]
        vecs = np.repeat(_vacuum(spec)[:, None], len(block), axis=1)
        for slot in block.T:
            vecs = _apply(spec, slot, vecs, weight, transpose)
        out[start:start + step] = vecs.T
    return out.reshape(u.shape[:-1] + (spec.dim,))


def bethe_vector(spec: PeriodicChainSpec, uset, twist: TwistSpec | None = None) -> np.ndarray:
    """Product state built from B(u) (periodic) or nu12(u) (twisted) on the vacuum.

    A stack of sets (..., n) gives a stack of vectors (..., D).
    """
    return _product_states(spec, uset, "B", twist, transpose=False)


def dual_bethe_vector(spec: PeriodicChainSpec, vset, twist: TwistSpec | None = None) -> np.ndarray:
    """Dual product state: vacuum row times C(v) / nu21(v) factors.

    A stack of sets (..., n) gives a stack of rows (..., D).
    """
    return _product_states(spec, vset, "C", twist, transpose=True)


def direct_scalar_product(dual_row: np.ndarray, vec: np.ndarray):
    """Bilinear pairing of a dual row with a column vector (no conjugation).

    Stacks pair along the last axis and their leading axes broadcast, giving
    an array of pairings; a single row and vector give a complex.
    """
    if dual_row.shape[-1] != vec.shape[-1]:
        raise ValueError(f"dimension mismatch: {dual_row.shape} vs {vec.shape}")
    out = np.matmul(dual_row[..., None, :], vec[..., :, None])[..., 0, 0]
    return complex(out) if out.ndim == 0 else out


def vacuum_nu21_expectation(spec: PeriodicChainSpec, twist: TwistSpec, vset) -> complex:
    """<0| prod nu21(v_j) |0>, the prefactor expectation of the twisted formula; one per set of a stack."""
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


def _solve_each(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """jac[i] x[i] = rhs[i] for a stack; a singular member's x is NaN.

    One batched solve; only when a member is singular is each solved alone,
    so that the others keep their step.
    """
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i, (a, b) in enumerate(zip(jac, rhs)):
            try:
                out[i] = np.linalg.solve(a, b[:, None])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return out


def _newton(residual_fn, jacobian_fn, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on a stack of sets (sets, n); the last iterates and their residuals.

    Each set keeps the law it would follow alone.  Of the line-search rungs
    1, 1/2, .., 2^-24 of its Newton step it takes the first that lowers its
    max |Y|, and stops instead when a rung that rounds to its iterate comes
    first, when no rung does either, or when its Jacobian is singular; a
    set stops after 80 steps at most.  One iteration is one stacked
    Jacobian, one batched solve and one residual over the whole ladder,
    (sets, 25, n), taken in blocks of sets that keep its factor arrays
    (2 x sets x 25 x n x n entries) within SWEEP_ENTRIES.  No absolute bound:
    the float64 floor of max |Y| grows with the chain, and whether the roots
    are good enough is judged by their Bethe vector.
    """
    us = starts.astype(complex)
    fv = residual_fn(us)
    n = us.shape[-1]
    rungs = 0.5 ** np.arange(25)
    step_sets = max(1, SWEEP_ENTRIES // (2 * len(rungs) * n * n))
    live = np.arange(len(us))
    for _ in range(80):
        if not len(live):
            break
        base = np.max(np.abs(fv[live]), axis=-1)
        step = _solve_each(jacobian_fn(us[live]), -fv[live])
        trials = us[live, None, :] + rungs[:, None] * step[:, None, :]
        fv_trials = np.concatenate([residual_fn(trials[i:i + step_sets])
                                    for i in range(0, len(live), step_sets)])
        rounds = np.all(trials == us[live, None, :], axis=-1)
        lowers = np.max(np.abs(fv_trials), axis=-1) < base[:, None]
        hit = rounds | lowers
        rung = np.argmax(hit, axis=-1)
        moves = hit.any(axis=-1) & ~rounds[np.arange(len(live)), rung]
        live, rung = live[moves], rung[moves]
        us[live] = trials[moves, rung]
        fv[live] = fv_trials[moves, rung]
    return us, fv


def _root_system(spec: PeriodicChainSpec, model: YModel, twist: TwistSpec | None):
    """The map v -> Y(v_k | v) over stacks of sets (sets, n) and its transposed Jacobian.

    The residual is the product form ``chain_y``; the Jacobian is the
    coefficient form of ``model``, the chain's Y-model at n.
    """
    def residual(us):
        return chain_y(spec, us, us[..., None, :], twist)

    def jacobian(us):
        return np.swapaxes(bethe_jacobian(model, us), -1, -2)
    return residual, jacobian


def _radius(spec: PeriodicChainSpec) -> float:
    """Radius of the circle on which the T-Q system is sampled."""
    return 3 * max(abs(t) for t in spec.theta) + 3 * abs(spec.c)


def _aligned(spec: PeriodicChainSpec, twist: TwistSpec | None, us: np.ndarray,
             eigvecs: np.ndarray, sector: np.ndarray) -> np.ndarray:
    """Per set of a stack (sets, n): finite, distinct roots, Bethe vector along its eigenvector.

    ``eigvecs[i]`` is the transfer eigenvector on the basis states ``sector``
    that set i was read from.  A null Bethe vector reads 1; an off-shell or
    foreign one reads far above ALIGNMENT_TOL.  A root beyond
    ``_radius(spec) / sqrt(eps)`` counts as infinite: no eigenvector has a
    root there, but in a one-dimensional sector every Bethe vector lies along
    the eigenvector, so the ray test alone would keep it.  The Bethe vectors
    of the sets that pass the first two tests are one stacked sweep.
    """
    n = us.shape[-1]
    ok = np.all(np.abs(us) <= _radius(spec) / np.sqrt(np.finfo(float).eps), axis=-1)
    if n > 1:
        j, k = np.tril_indices(n, -1)
        sep = np.min(np.abs(us[:, j] - us[:, k]), axis=-1)
        ok &= ~(sep < 1e-6 * np.maximum(1.0, np.max(np.abs(us), axis=-1)))
    keep = np.flatnonzero(ok)
    if len(keep):
        vecs = bethe_vector(spec, us[keep], twist)[:, sector]
        ok[keep] = ray_distance(eigvecs[keep], vecs) < ALIGNMENT_TOL
    return ok


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
    that eigenvector.  All consistent eigenvectors' sets are polished in one
    stacked Newton and judged from one stacked Bethe-vector sweep.
    """
    if n == 0:
        # the reference state is always an eigenstate; nothing to solve
        return BetheRootResult(roots=[()], residuals=[0.0], unmatched=[])
    if twist is not None and n != spec.magnon_capacity:
        raise ValueError("twisted root systems are square only at n = magnon capacity")
    model = chain_y_model(spec, n, twist)
    sector = (np.flatnonzero(_basis_weights(spec) == n) if twist is None
              else np.arange(spec.dim))
    if len(sector) == 0:
        return BetheRootResult(roots=[], residuals=[], unmatched=[])

    def block(z):
        return _sector_block(spec, sector, z, twist)

    radius = _radius(spec)
    z_probe = complex(0.5 + radius * 0.17, 0.39 + 0.11 * radius)
    vecs = np.linalg.eig(block(z_probe))[1]  # unit columns
    zs = radius * np.exp(2j * np.pi * (np.arange(n + 3) + 0.5) / (n + 3))
    lams = np.array([np.einsum("ie,ie->e", vecs.conj(), block(z) @ vecs) for z in zs])
    c_alpha = model.c ** n * alpha_values(model, zs)

    q_roots, consistency = zip(*(_tq_roots(zs, c_alpha, lam) for lam in lams.T))
    polished = np.flatnonzero(np.array(consistency) <= CONSISTENCY_TOL)
    kept = np.zeros(len(q_roots), dtype=bool)
    found: list[tuple[tuple[complex, ...], float]] = []
    if len(polished):
        starts = np.array([q_roots[e] for e in polished])
        us, fv = _newton(*_root_system(spec, model, twist), starts)
        aligned = _aligned(spec, twist, us, vecs.T[polished], sector)
        kept[polished[aligned]] = True
        found = [(_canonical(u), float(np.max(np.abs(f))))
                 for u, f in zip(us[aligned], fv[aligned])]
    unmatched = [_canonical(q) for q, k in zip(q_roots, kept) if not k]
    found.sort(key=lambda item: [_canonical_key(z) for z in item[0]])
    return BetheRootResult(roots=[r for r, _ in found], residuals=[r for _, r in found],
                           unmatched=unmatched, seeds_used=len(polished))


# ---------------------------------------------------------------------------
# sector bookkeeping


def _basis_weights(spec: PeriodicChainSpec) -> np.ndarray:
    """Magnon number of each basis state, in the kron order of the sweep.

    A periodic transfer matrix conserves it, so the root solver diagonalizes
    one weight sector at a time, and ``expected_root_sets`` counts sectors.
    """
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


def expected_root_sets(spec: PeriodicChainSpec, n: int, twist: TwistSpec | None = None) -> int:
    """How many size-n root sets the solver must return.

    Each transfer eigenvector of a twisted chain gives one set, so D.  A
    periodic chain is su(2)-symmetric and a size-n set builds the highest-
    weight state of a multiplet.  For n <= S/2, sector n holds one state of
    every multiplet whose highest weight has at most n magnons, so the count
    is dim(sector n) - dim(sector n - 1); past S/2 that is at most 0 and no
    set exists.
    """
    if twist is not None:
        return spec.dim
    weights = _basis_weights(spec)
    return max(int(np.sum(weights == n)) - int(np.sum(weights == n - 1)), 0)
