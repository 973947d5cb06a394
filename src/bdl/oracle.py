"""Brute-force ground truth on small chains.

Basis states are kron products of site states with site 0 the slowest index;
every full-space vector, matrix and weight below uses that order.  Each site
contributes a Lax operator, a 2x2 auxiliary block of site-local spin
matrices, so the monodromy is a bond-dimension-2 MPO in the auxiliary space.
The operators the checks need (B, C, nu12, nu21 and the periodic or twisted
transfer matrix) are applied to vectors one site at a time, in O(N D) work
with no D x D array: product-state vectors, dual rows and the transfer
action.  A site step (``_apply``) is banded: the Lax operator's identity part
only moves the auxiliary leg past the site, and the rest is its diagonal and
the S- and S+ bands, so a step is one scaled leg swap and two band updates,
with no matmul, on one path whether u is one point or one per column.  Every
term keeps the charge (magnons of the processed sites) + (magnons of the rest)
+ (auxiliary index), on twisted chains too, where the twist enters only
through the weight rows.  So a sweep from the vacuum or from a few weight
sectors reaches few entries; per-site index tables of those entries, cached
per process, let it sweep them alone, and a sweep that reaches half of them
or more stays banded over all of D.
Matrix blocks are built in trace form instead (``_lax_blocks``): an entry
between two basis states is a product of the 2x2 Lax matrices of their site
digits, so a block on k states costs about k^2 per point and never touches
D.  The root solver's transfer blocks live on one weight sector (the whole
space for a twisted chain, which conserves nothing); the dense entries
(``monodromy``'s four, ``modified_monodromy``'s nu12) are each one
full-basis pass.
Root sets are read off each transfer eigenvector by the linear T-Q
relation, polished together by one stacked Newton, and kept when their
Bethe vector lies along that eigenvector.

The loops that run once per site, per Newton iteration or per sweep, like
everything else ``bdl verify`` runs, call ndarray methods and ufuncs
(``x.max(axis=-1)``, ``x.take(i, axis=-1)``, ``mask.nonzero()[0]``), not
numpy's Python-level wrappers (``np.max``, ``np.take``, ``np.flatnonzero``,
``np.diff``): their arrays hold a few entries, so the wrapper would cost
more than the operation.  Both forms run the same reduction or gather on
the same operands, so results keep their bits.

The pairing used throughout is bilinear (transpose, no conjugation): dual
vectors are rows acting from the left, matching the left-eigenvector role the
dual states play.  Spectral parameters are generally complex, so a Hermitian
pairing would be the wrong object.  ``row_overlaps`` is the one inner product
of the checks: it pairs built dual rows with product states, and
``overlaps`` builds the rows first.  A single set is a stack of one, so
shapes never change rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linsys import ray_distance
from .models import (PeriodicChainSpec, TwistSpec, YModel, alpha_values, bethe_jacobian,
                     chain_y, chain_y_model, k_matrix, twist_factors)
from .rational import _pairs, _vals


# vector entries swept at once when a stack of product states is built, the
# entries of the factor arrays of one block of the Newton line search, and the
# 2x2 products held for one slab of rows at one chunk of points by ``_lax_blocks``
SWEEP_ENTRIES = 2**20

# the periodic transfer weight, and the empty Lax product of ``_lax_blocks``
# broadcast over points and pairs; both read-only
_IDENTITY = np.eye(2, dtype=complex)
_EMPTY_PRODUCT = np.eye(2)[:, :, None, None]
_IDENTITY.flags.writeable = _EMPTY_PRODUCT.flags.writeable = False


@dataclass
class Monodromy:
    """Entries of the 2x2 auxiliary-space monodromy at one spectral point."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray


def _lax_weight(spec: PeriodicChainSpec, site, u):
    """(u - theta + c/2)/c, the weight of E in the Lax operator of ``site`` (an index or a slice)."""
    return (u - spec._theta[site] + spec.c / 2) / spec.c


def monodromy(spec: PeriodicChainSpec, u) -> Monodromy:
    """The entries T_ab(u) of L_{N-1}(u) ... L_0(u) as dense D x D matrices.

    ``u`` is one point, or an array of points that leads each entry's axes.
    """
    u = np.asarray(u)
    weights = np.array([_weight((i, j), None) for i in range(2) for j in range(2)])
    blocks = _lax_blocks(spec, np.arange(spec.dim), u.ravel(), weights)
    return Monodromy(*blocks.reshape((4,) + u.shape + blocks.shape[-2:]))


def modified_monodromy(spec: PeriodicChainSpec, twist: TwistSpec, u) -> np.ndarray:
    """nu12(u) = (A T(u) B)_12, the twisted creation operator, as a dense D x D matrix.

    ``u`` is one point, giving (D, D), or an array of points, giving
    u.shape + (D, D): one full-basis pass serves every point, and each
    point's matrix equals its own call's bit for bit.
    """
    u = np.asarray(u)
    blocks = _lax_blocks(spec, np.arange(spec.dim), u.ravel(), _weight((0, 1), twist))
    return blocks.reshape(u.shape + blocks.shape[-2:])


def _weight(op: str | tuple[int, int], twist: TwistSpec | None) -> np.ndarray:
    """The 2x2 weight w with sum_ab w[a, b] T_ab the named operator.

    ``op`` is "T" (the transfer matrix: A + D, or tr(K T) = sum_ab K[b, a] T_ab),
    an entry (i, j) (T_ij, or nu_ij = (A T B)_ij when twisted), "B" for (0, 1)
    or "C" for (1, 0).
    """
    if op == "T":
        return _IDENTITY if twist is None else k_matrix(twist).T
    i, j = {"B": (0, 1), "C": (1, 0)}.get(op, op)
    if twist is None:
        weight = np.zeros((2, 2), dtype=complex)
        weight[i, j] = 1.0
        return weight
    a_mat, b_mat, _ = twist_factors(twist)
    return a_mat[i, :, None] * b_mat[None, :, j]  # the outer product


# a sweep whose reachable entries are at least this share of the entries that
# the banded step sweeps runs that step on all of D; below it, only the
# reachable entries are swept
DENSE_SHARE = 0.5


@dataclass(frozen=True)
class _SweepTables:
    """Where one sweep's reachable entries sit and how each site step maps them.

    ``share`` is the reachable entries' share of the entries the banded step
    sweeps, summed over sites; at DENSE_SHARE or above the sweep is banded and
    the tables hold nothing else.  Otherwise:

    - ``start``: each reachable input entry's index into the flat weight rows
      and into the input vector;
    - ``steps``: per site (take, n, lo, hi).  Term i of the site is input
      entry take[i] times coefficient codes[lo + i]; its first n terms are
      the site's output entries (the scaled swap) and the rest are the band
      terms, added to its first len(take) - n output entries;
    - ``codes`` index the chain's flat bands (``spec._flat_bands``: diag, S-
      and S+ of each site in turn), and ``code_sites`` gives, per term, the
      site whose w is added to its band entry (N for an S- or S+ entry,
      which adds a zero);
    - ``exit``: the output entries that keep their row's auxiliary index, their
      flat (row, state) index among ``states``, and the basis states they fill.
    """

    share: float
    start: tuple[np.ndarray, np.ndarray] = ()
    steps: tuple[tuple[np.ndarray, int, int, int], ...] = ()
    codes: np.ndarray | None = None
    code_sites: np.ndarray | None = None
    exit: tuple[np.ndarray, np.ndarray, np.ndarray] = ()


# process-wide: the tables depend only on the site dimensions, the weight's
# nonzero pattern, ``transpose`` and the input's charges, not on a chain's numbers
_TABLES: dict[tuple, _SweepTables] = {}


def _sweep_tables(spec: PeriodicChainSpec, pattern: np.ndarray, transpose: bool,
                  cols: np.ndarray) -> _SweepTables:
    """The tables of a sweep of weight pattern ``pattern`` on ``cols``, built on first use."""
    charges = tuple(np.bincount(spec._magnons[cols.any(axis=1)]).nonzero()[0].tolist())
    key = (spec.spins, pattern.tobytes(), transpose, charges)
    tables = _TABLES.get(key)
    if tables is None:
        tables = _TABLES[key] = _build_tables(spec, pattern, transpose, charges)
    return tables


def _build_tables(spec: PeriodicChainSpec, pattern: np.ndarray, transpose: bool,
                  charges: tuple[int, ...]) -> _SweepTables:
    """``_SweepTables`` of the sweeps whose input holds magnon numbers ``charges``.

    Before site m the state is (rows, prefix, aux, suffix) and an entry's
    charge is prefix magnons + suffix magnons + a (minus a with
    ``transpose``); each Lax term keeps it, so row r's entries are reachable
    iff their charge is an input magnon number plus the share of an auxiliary
    index b with pattern[r, b].
    """
    magnons, dims = spec._magnons, [len(diag) for diag, _, _ in spec._lax_bands]
    rows = np.flatnonzero(pattern.any(axis=1))
    aux = np.array([0, -1] if transpose else [0, 1])
    reachable = np.zeros((len(rows), spec.magnon_capacity + 3), dtype=bool)  # charge + 1 per row
    for i, r in enumerate(rows):
        reachable[i, np.add.outer(np.array(charges, dtype=int), aux[pattern[r]]) + 1] = True
    suffixes = spec.dim // np.cumprod([1] + dims)  # basis states of sites m.. per boundary m
    # the reachable entries before each site and after the last, as flat indices
    live = [np.flatnonzero(reachable[:, magnons[::t, None, None] + aux[:, None] + magnons[:t] + 1])
            for t in suffixes]
    size = len(rows) * 2 * spec.dim
    share = sum(map(len, live[1:])) / max(1, len(dims) * size)
    if share >= DENSE_SHARE:
        return _SweepTables(share)
    # each site's (diag, lo, hi) in the flat bands, and the site whose w each entry takes
    offsets = np.cumsum([0] + [4 * d - 2 for d in dims])
    sites = np.concatenate([[m] * (2 * d) + [len(dims)] * (2 * d - 2) for m, d in enumerate(dims)])
    steps, codes, left, terms = [], [], len(rows), 0
    for m, (d, suffix) in enumerate(zip(dims, suffixes[1:])):
        pos = np.full(size, -1)
        pos[live[m]] = np.arange(len(live[m]))
        p, s, a, rest = np.unravel_index(live[m + 1], (left, d, 2, suffix))
        shift = np.where(a == 0, -1, 1) * (-1 if transpose else 1)
        banded = (s + shift >= 0) & (s + shift < d)
        order = np.concatenate([np.flatnonzero(banded), np.flatnonzero(~banded)])
        live[m + 1] = live[m + 1][order]  # the outputs a band term reaches come first
        p, s, a, rest, shift = p[order], s[order], a[order], rest[order], shift[order]
        nb = banded.sum()
        swap = pos[np.ravel_multi_index((p, a, s, rest), (left, 2, d, suffix))]
        band = pos[np.ravel_multi_index((p[:nb], 1 - a[:nb], s[:nb] + shift[:nb], rest[:nb]),
                                        (left, 2, d, suffix))]
        codes += [offsets[m] + 2 * s + a,
                  offsets[m] + 2 * d + a[:nb] * (d - 1) + np.minimum(s, s + shift)[:nb]]
        steps.append((np.concatenate([swap, band]), len(swap), terms, terms + len(swap) + nb))
        terms += len(swap) + nb
        left *= d
    r, j, a = np.unravel_index(live[-1], (len(rows), spec.dim, 2))
    keep = np.flatnonzero(a == rows[r])
    states = np.flatnonzero(np.bincount(j[keep], minlength=1))
    codes = np.concatenate(codes)
    tables = _SweepTables(share, (live[0] // spec.dim, live[0] % spec.dim), tuple(steps),
                          codes, sites[codes],
                          (keep, r[keep] * len(states) + np.searchsorted(states, j[keep]), states))
    for arr in (*tables.start, tables.codes, tables.code_sites, *tables.exit,
                *(take for take, _, _, _ in steps)):
        arr.flags.writeable = False
    return tables


def _apply(spec: PeriodicChainSpec, u, vecs: np.ndarray, weight: np.ndarray,
           transpose: bool = False) -> np.ndarray:
    """sum_ab weight[a, b] T_ab(u) applied to ``vecs`` of shape (D,) or (D, k).

    One sweep per nonzero weight row a starts from the auxiliary vector
    weight[a, :] and keeps auxiliary component a at the end.  The auxiliary
    leg sits between the processed and the unprocessed site legs, and site k
    maps state[(a, s)] to out[(s', a')] = sum L_k[a', a][s', s] state[(a, s)],
    which also moves the leg past the site.  L_k = w E + F with E the
    identity, so E is the leg swap; F is diagonal on E's support and
    elsewhere holds the S- band (a' = 0, s' = s + 1) and the S+ band (a' = 1,
    s' = s - 1) of ``spec._lax_bands``.  A site is one swap scaled by
    w + diag and two band updates, with no matmul.  With ``transpose`` each
    site block is transposed, which swaps the two bands' shifts and gives the
    row action vecs^T O as a column.

    Every term keeps the charge prefix magnons + suffix magnons + a (minus a
    with ``transpose``), on twisted chains too: the twist enters only through
    the weight rows.  So only the entries whose charge an input entry carries
    can be nonzero, and ``_sweep_tables`` lists them per site, once per
    process for each pattern and input charge set.  When they are under
    DENSE_SHARE of the swept entries the sweep runs on them alone: per site
    one gather of its scaled-swap and band terms, one product with their
    coefficients and one band update.  The coefficients are gathered once per
    sweep, from the chain's bands flattened once per chain
    (``spec._flat_bands``).  Otherwise the sweep is banded over all of D.
    Both paths form the same products and leave by the same sum over rows,
    which also turns every zero into +0, so they agree bit for bit.

    ``u`` is one spectral parameter, or an array of one per column of
    ``vecs``; a scalar broadcasts as a column, so both take one path.  An
    output entry is one scaled swap entry plus at most one band term, each
    product rounded once: a site matmul rounds a row with those two nonzeros
    the same unless it fuses multiply-adds, and the band coefficients are real.
    """
    pattern = weight != 0
    rows = pattern.any(axis=1).nonzero()[0]
    cols = vecs.reshape(len(vecs), -1)
    width = cols.shape[1]
    ws = _lax_weight(spec, slice(None), np.asarray(u)[..., None])  # (..., N), every site
    tables = _sweep_tables(spec, pattern, transpose, cols)
    if tables.codes is not None:
        w = np.zeros((spec.n_sites + 1, ws.size // spec.n_sites), dtype=ws.dtype)
        w[:-1] = ws.T.reshape(spec.n_sites, -1)  # (N, k or 1); row N adds zero to an S-/S+ entry
        coefs = spec._flat_bands[tables.codes, None] + w[tables.code_sites]  # (terms, k or 1)
        state = weight[rows].ravel()[tables.start[0], None] * cols[tables.start[1]]
        for take, n, lo, hi in tables.steps:
            terms = state[take] * coefs[lo:hi]
            state = terms[:n]
            state[:len(take) - n] += terms[n:]
        keep, at, states = tables.exit
        kept = np.zeros((len(rows) * len(states), width), dtype=state.dtype)
        kept[at] = state[keep]
        out = np.zeros((len(vecs), width), dtype=state.dtype)
        out[states] = kept.reshape(len(rows), len(states), width).sum(axis=0)
        return out.reshape(vecs.shape)
    state = weight[rows][:, :, None, None] * cols  # (rows, aux, D, k)
    left, right = len(rows), len(vecs)
    for site, (diag, lo, hi) in enumerate(spec._lax_bands):
        d = len(diag)
        right //= d
        state = state.reshape(left, 2, d, right, width)
        out = state.swapaxes(1, 2) * (ws[..., site] + diag)  # (left, d, 2, right, width)
        if transpose:
            out[:, :-1, 0] += lo * state[:, 1, 1:]
            out[:, 1:, 1] += hi * state[:, 0, :-1]
        else:
            out[:, 1:, 0] += lo * state[:, 1, :-1]
            out[:, :-1, 1] += hi * state[:, 0, 1:]
        state = out
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


def _lax_blocks(spec: PeriodicChainSpec, sector: np.ndarray, zs,
                weights: np.ndarray) -> np.ndarray:
    """sum_ab weights[..., a, b] T_ab(z) on the sorted basis states ``sector``: (..., Z, k, k).

    Between basis states j' and j, site m's Lax operator is the 2x2 auxiliary
    matrix L_m(z)[:, :, s'_m, s_m] of their site digits, so entry (j', j) is
    the trace form sum_ab w[a, b] (L_{N-1} .. L_0)[a, b], a product of 2x2
    matrices.  It is built site by site on the pairs of distinct digit
    prefixes of the row and column states; each prefix extends its parent
    (the prefix one site shorter) by one digit, so a level is one gather of
    the parent pairs' products and one 2x2 product.  The rows are taken in
    slabs and the points ``zs`` in chunks so that the products of one slab
    at one chunk hold at most SWEEP_ENTRIES entries (one row at one point
    when that holds more); only the result is k x k.  When one slab holds
    every row, its prefixes are the columns' and are built once.
    """
    zs = np.asarray(zs, dtype=complex)
    dims = [f.shape[2] for _, f in spec._lax_parts]
    # tails[m]: basis states per prefix of length m
    tails = [math.prod(dims[m:]) for m in range(len(dims) + 1)]

    def prefixes(states):
        # per site: each distinct prefix's parent index and last digit, and the parents' count
        levels, parents = [], np.zeros(1, dtype=int)
        for m, d in enumerate(dims):
            codes = states // tails[m + 1]
            first = np.empty(len(codes), dtype=bool)  # sorted: keep each run's first
            first[:1] = True
            np.not_equal(codes[1:], codes[:-1], out=first[1:])
            codes = codes[first]
            levels.append((parents.searchsorted(codes // d), codes % d, len(parents)))
            parents = codes
        return levels

    k = len(sector)
    slab = min(k, max(1, SWEEP_ENTRIES // (4 * k)))  # block rows built at once
    chunk = max(1, SWEEP_ENTRIES // (4 * k * slab))  # points built at once
    cols = prefixes(sector)
    out = np.empty(weights.shape[:-2] + (len(zs), k, k), dtype=complex)
    for row in range(0, k, slab):
        slab_rows = cols if slab == k else prefixes(sector[row:row + slab])  # one slab: every row
        levels = [(pr[:, None] * width + pc, dr[:, None] * d + dc) for (pr, dr, _), (pc, dc, width), d
                  in zip(slab_rows, cols, dims)]
        for start in range(0, len(zs), chunk):
            z = zs[start:start + chunk, None]
            ws = _lax_weight(spec, slice(None), z)  # (points, N), every site
            prod = _EMPTY_PRODUCT
            for m, ((e, f), (pairs, digits)) in enumerate(zip(spec._lax_parts, levels)):
                lax_m = ws[:, m, None, None] * e[:, :, None] + f[:, :, None]
                lax_m = lax_m.reshape(2, 2, len(z), -1).take(digits, axis=-1)
                prod = prod.reshape(prod.shape[:3] + (-1,)).take(pairs, axis=-1)
                prod = lax_m[:, 0, None] * prod[0] + lax_m[:, 1, None] * prod[1]
            out[..., start:start + chunk, row:row + slab, :] = np.tensordot(
                weights, prod, axes=([-2, -1], [0, 1]))
    return out


def _product_blocks(spec: PeriodicChainSpec, sets, op: str, twist: TwistSpec | None,
                    transpose: bool):
    """Yield (rows, vecs): ``op`` at each set's elements on the vacuum, (D, k) per block.

    A stack (..., n) is taken as flat rows, a single set as a stack of one.
    A block, the slice ``rows``, is one sweep per slot with a point per column
    and at most SWEEP_ENTRIES vector entries, which bounds its temporaries.
    """
    u = _vals(sets)
    flat = u.reshape(math.prod(u.shape[:-1]), u.shape[-1])
    weight = _weight(op, twist)
    step = max(1, SWEEP_ENTRIES // spec.dim)
    for start in range(0, len(flat), step):
        block = flat[start:start + step]
        vecs = np.zeros((spec.dim, len(block)), dtype=complex)
        vecs[0] = 1.0  # the vacuum in every column
        for slot in block.T:
            vecs = _apply(spec, slot, vecs, weight, transpose)
        yield slice(start, start + step), vecs


def _product_states(spec: PeriodicChainSpec, sets, op: str, twist: TwistSpec | None,
                    transpose: bool) -> np.ndarray:
    """``op`` at every element of each set, on the vacuum: (D,) or (..., D)."""
    sets = _vals(sets)
    shape = sets.shape[:-1]
    out = np.empty((math.prod(shape), spec.dim), dtype=complex)
    for rows, vecs in _product_blocks(spec, sets, op, twist, transpose):
        out[rows] = vecs.T
    return out.reshape(shape + (spec.dim,))


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


def overlaps(spec: PeriodicChainSpec, vsets, usets, twist: TwistSpec | None = None) -> np.ndarray:
    """<0| prod_j C(v_j) prod_k B(u_k) |0> (nu21 and nu12 when twisted) for each pair of sets.

    The leading axes of ``vsets`` (..., n) and ``usets`` (..., m) broadcast
    into the shape of the result; the empty u-set pairs with the vacuum.
    Each dual row is built once, by one ``dual_bethe_vector`` call, and
    paired by ``row_overlaps``.
    """
    return row_overlaps(spec, dual_bethe_vector(spec, vsets, twist), usets, twist)


def row_overlaps(spec: PeriodicChainSpec, duals: np.ndarray, usets,
                 twist: TwistSpec | None = None) -> np.ndarray:
    """<dual| prod_k B(u_k) |0> (nu12 when twisted) for each pair of a built dual row and a set.

    The leading axes of ``duals`` (..., D) and ``usets`` (..., m) broadcast
    into the shape of the result; the empty u-set pairs with the vacuum.
    Each block of ``_product_blocks`` is paired with its dual rows when
    built, as contiguous rows (a transposed view rounds differently), and
    only the overlaps are kept.
    """
    u = _vals(usets)
    shape = np.broadcast(duals[..., :0], u[..., :0]).shape[:-1]
    flat = duals.reshape(-1, spec.dim)
    row = np.empty(shape, dtype=int)  # the dual row of each pair
    row[...] = np.arange(len(flat)).reshape(duals.shape[:-1])
    row = row.ravel()
    out = np.empty(len(row), dtype=complex)
    usets = np.empty(shape + u.shape[-1:], dtype=complex)
    usets[...] = u
    for rows, vecs in _product_blocks(spec, usets, "B", twist, transpose=False):
        out[rows] = direct_scalar_product(flat[row[rows]], np.ascontiguousarray(vecs.T))
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# root solving

CONSISTENCY_TOL = 1e-8    # scaled T-Q least-squares residual of a consistent eigenvector
ALIGNMENT_TOL = 1e-6      # ray distance from a kept set's Bethe vector to its eigenvector
FLOOR_ULPS = 8            # a Newton move this many ulps of each root or less is rounding


@dataclass
class BetheRootResult:
    """Validated root sets, one per consistent eigenvector, in canonical order.

    ``unmatched`` holds the Q-roots of each transfer eigenvector that gave no
    set (the T-Q-inconsistent ones, such as symmetry descendants), so its
    length is the rejected count.  ``seeds_used`` counts Newton polishes, one
    per consistent eigenvector.  ``vectors`` (sets, D) holds each set's Bethe
    vector, in ``roots`` order: the vector its alignment test built, which
    the checks pair with the set's dual row for its norm.
    """

    roots: list[tuple[complex, ...]]
    residuals: list[float]
    unmatched: list[tuple[complex, ...]]
    vectors: np.ndarray
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


def _line_search(residual_fn, us: np.ndarray, fv: np.ndarray, step: np.ndarray,
                 rungs: np.ndarray):
    """Each set's first qualifying rung of ``us + rung * step`` among ``rungs``.

    A rung qualifies when it lowers the set's max |Y| or moves no root by more
    than FLOOR_ULPS ulps.  Returns, per set, whether one qualified, whether
    the set moves (it qualified and lowers max |Y|), whether it stops at its
    floor, and the rung's iterate and residual.  The residuals are taken in
    blocks of sets that keep their factor arrays (2 x sets x rungs x n x n
    entries) within SWEEP_ENTRIES.
    """
    n = us.shape[-1]
    block = max(1, SWEEP_ENTRIES // (2 * len(rungs) * n * n))
    # a float rung times a complex step is a complex product, which can turn a
    # -0 part into +0 even at rung 1, so the full step is multiplied too
    trials = us[:, None, :] + rungs[:, None] * step[:, None, :]
    fv_trials = (residual_fn(trials) if len(us) <= block else
                 np.concatenate([residual_fn(trials[i:i + block]) for i in range(0, len(us), block)]))
    ulps = FLOOR_ULPS * np.spacing(np.abs(us[:, None, :]))
    floor = (np.abs(trials - us[:, None, :]) <= ulps).all(axis=-1)
    lowers = np.abs(fv_trials).max(axis=-1) < np.abs(fv).max(axis=-1)[:, None]
    hit = floor | lowers
    taken = np.arange(len(us)), hit.argmax(axis=-1)
    hit = hit.any(axis=-1)
    return hit, hit & lowers[taken], floor[taken], trials[taken], fv_trials[taken]


def _newton(residual_fn, jacobian_fn, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on a stack of sets (sets, n); the last iterates and their residuals.

    Each set keeps the law it would follow alone.  Of the line-search rungs
    1, 1/2, .., 2^-24 of its Newton step it takes the first that lowers its
    max |Y|.  It stops at its rounding floor, when a rung that moves no root
    by more than FLOOR_ULPS ulps comes first: it takes that rung if it lowers
    max |Y| and stays put otherwise.  It also stops when no rung qualifies or
    its Jacobian is singular, and after 80 steps at most.  One iteration is
    one stacked Jacobian, one batched solve and one residual at the full step
    of every live set, (sets, 1, n); only the sets whose full step does not
    qualify are searched down the whole ladder, (misses, 25, n).  The
    residual is elementwise over its stack, so a set's iterates do not depend
    on which other sets share a call.  No absolute bound: the float64 floor
    of max |Y| grows with the chain, and whether the roots are good enough is
    judged by their Bethe vector.
    """
    us = starts.astype(complex)
    fv = residual_fn(us)
    rungs = 0.5 ** np.arange(25)
    live = np.arange(len(us))
    for _ in range(80):
        if not len(live):
            break
        u_live, f_live = us[live], fv[live]
        step = _solve_each(jacobian_fn(u_live), -f_live)
        hit, moves, floor, trial, fv_trial = _line_search(residual_fn, u_live, f_live, step,
                                                          rungs[:1])
        miss = (~hit).nonzero()[0]
        if len(miss):
            (_, moves[miss], floor[miss], trial[miss],
             fv_trial[miss]) = _line_search(residual_fn, u_live[miss], f_live[miss], step[miss],
                                            rungs)
        us[live[moves]] = trial[moves]
        fv[live[moves]] = fv_trial[moves]
        live = live[moves & ~floor]
    return us, fv


def _root_system(spec: PeriodicChainSpec, model: YModel, twist: TwistSpec | None):
    """The map v -> Y(v_k | v) over stacks of sets (sets, n) and its transposed Jacobian.

    The residual is the product form ``chain_y``; the Jacobian is the
    coefficient form of ``model``, the chain's Y-model at n.
    """
    def residual(us):
        return chain_y(spec, us, us[..., None, :], twist)

    def jacobian(us):
        return bethe_jacobian(model, us).swapaxes(-1, -2)
    return residual, jacobian


def _radius(spec: PeriodicChainSpec) -> float:
    """Radius of the circle on which the T-Q system is sampled."""
    return 3 * max(abs(t) for t in spec.theta) + 3 * abs(spec.c)


def _aligned(spec: PeriodicChainSpec, twist: TwistSpec | None, us: np.ndarray,
             eigvecs: np.ndarray, sector: np.ndarray) -> tuple[np.ndarray, list, np.ndarray]:
    """Per set of a stack (sets, n): finite, distinct roots, Bethe vector along its eigenvector.

    Also returns, for each set that passes, its roots in canonical order and
    its Bethe vector on the full space (passed, D).

    ``eigvecs[i]`` is the transfer eigenvector on the basis states ``sector``
    that set i was read from.  A null Bethe vector reads 1; an off-shell or
    foreign one reads far above ALIGNMENT_TOL.  A root beyond
    ``_radius(spec) / sqrt(eps)`` counts as infinite: no eigenvector has a
    root there, but in a one-dimensional sector every Bethe vector lies along
    the eigenvector, so the ray test alone would keep it.  The Bethe vectors
    of the sets that pass the first two tests are one stacked sweep, each
    built from its roots in canonical order, the order of the result that the
    checks build from.  Any order gives the same vector, but near a string its
    float64 cancellation depends on the order, and the order in which the
    solver reads the roots lost the most.
    """
    n = us.shape[-1]
    size = np.abs(us)
    ok = (size <= _radius(spec) / np.sqrt(np.finfo(float).eps)).all(axis=-1)
    if n > 1:
        j, k = _pairs(n, lower=True)
        sep = np.abs(us[:, j] - us[:, k]).min(axis=-1)
        ok &= ~(sep < 1e-6 * np.maximum(1.0, size.max(axis=-1)))
    keep = ok.nonzero()[0]
    canonical = [_canonical(u) for u in us[keep]]
    vecs = np.zeros((0, spec.dim), dtype=complex)
    if len(keep):
        vecs = bethe_vector(spec, np.array(canonical), twist)
        ok[keep] = ray_distance(eigvecs[keep], vecs[:, sector]) < ALIGNMENT_TOL
    aligned = ok[keep]
    return ok, [roots for roots, kept in zip(canonical, aligned) if kept], vecs[aligned]


def _tq_roots(zs: np.ndarray, c_alpha: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of Q (E, n) and the scaled T-Q residuals (E,) of eigenvalue curves ``lams`` (E, Z).

    ``c_alpha[k, p]`` is c^n alpha_p(z_k).  Row k is sum_p sigma_p [(-1)^p
    z_k^(n-p) Lambda(z_k) - c^n alpha_p(z_k)] = 0 with sigma_0 = 1, each row
    scaled by its largest entry; least squares gives sigma_1..sigma_n, and
    Q(z) = prod (z - v_j) = sum_p (-1)^p sigma_p z^(n-p).  Every curve is one
    member of a batched pseudo-inverse (lstsq's default cutoff) and of one
    stacked eigvals of companion matrices.
    """
    n = c_alpha.shape[1] - 1
    p = np.arange(n + 1)
    signs = (-1.0) ** p
    rows = signs * zs[:, None] ** (n - p) * lams[..., None] - c_alpha
    rows /= np.abs(rows).max(axis=-1, keepdims=True)
    pinv = np.linalg.pinv(rows[..., 1:], rcond=np.finfo(float).eps * max(len(zs), n))
    sigma = (pinv @ -rows[..., 0, None])[..., 0]
    resid = np.abs((rows[..., 1:] @ sigma[..., None])[..., 0] + rows[..., 0]).max(axis=-1)
    companion = np.zeros((len(lams), n, n), dtype=complex)
    companion[:, 0] = -signs[1:] * sigma
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    return np.linalg.eigvals(companion), resid


def solve_bethe_roots(spec: PeriodicChainSpec, n: int,
                      twist: TwistSpec | None = None) -> BetheRootResult:
    """Size-n root sets read off the transfer spectrum by the linear T-Q relation.

    With Y affine in each parameter, Lambda(z) prod_j (z - v_j) = c^n sum_p
    alpha_p(z) sigma_p(vbar) is linear in sigma_1..sigma_n.  The transfer
    blocks (weight sector n for periodic chains, the full space for twisted
    ones) at a probe point and at n + 3 points on a circle are one
    ``_lax_blocks`` pass.  The probe block is diagonalized; every
    eigenvector's Lambda is read as Rayleigh quotients from one stacked
    product, and one batched ``_tq_roots`` gives each Q.  A consistent
    eigenvector (residual at most CONSISTENCY_TOL) gives one set: Q's roots,
    polished by Newton and kept if their Bethe vector lies along that
    eigenvector.  All consistent eigenvectors' sets are polished in one
    stacked Newton and judged from one stacked Bethe-vector sweep, whose
    vectors of the kept sets the result keeps.
    """
    if n == 0:
        # the reference state is always an eigenstate; nothing to solve
        return BetheRootResult(roots=[()], residuals=[0.0], unmatched=[],
                               vectors=np.eye(1, spec.dim, dtype=complex))
    if twist is not None and n != spec.magnon_capacity:
        raise ValueError("twisted root systems are square only at n = magnon capacity")
    model = chain_y_model(spec, n, twist)
    sector = (spec._magnons == n).nonzero()[0] if twist is None else np.arange(spec.dim)
    if len(sector) == 0:
        return BetheRootResult(roots=[], residuals=[], unmatched=[],
                               vectors=np.zeros((0, spec.dim), dtype=complex))

    radius = _radius(spec)
    z_probe = complex(0.5 + radius * 0.17, 0.39 + 0.11 * radius)
    zs = radius * np.exp(2j * np.pi * (np.arange(n + 3) + 0.5) / (n + 3))
    blocks = _lax_blocks(spec, sector, np.concatenate([[z_probe], zs]), _weight("T", twist))
    vecs = np.linalg.eig(blocks[0])[1]  # unit columns
    lams = np.einsum("ie,zie->ez", vecs.conj(), blocks[1:] @ vecs)
    q_roots, consistency = _tq_roots(zs, model.c ** n * alpha_values(model, zs), lams)
    polished = (consistency <= CONSISTENCY_TOL).nonzero()[0]
    kept = np.zeros(len(q_roots), dtype=bool)
    roots, residuals, bethe = [], [], np.zeros((0, spec.dim), dtype=complex)
    if len(polished):
        us, fv = _newton(*_root_system(spec, model, twist), q_roots[polished])
        aligned, roots, bethe = _aligned(spec, twist, us, vecs.T[polished], sector)
        kept[polished[aligned]] = True
        residuals = [float(np.abs(f).max()) for f in fv[aligned]]
    unmatched = [_canonical(q) for q, k in zip(q_roots, kept) if not k]
    order = sorted(range(len(roots)), key=lambda i: [_canonical_key(z) for z in roots[i]])
    return BetheRootResult(roots=[roots[i] for i in order], residuals=[residuals[i] for i in order],
                           unmatched=unmatched, vectors=bethe[order], seeds_used=len(polished))


# ---------------------------------------------------------------------------
# sector bookkeeping


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
    sizes = spec._sector_sizes
    return max(sizes.get(n, 0) - sizes.get(n - 1, 0), 0)
