"""Scalar references for the oracle: the site Lax operator, the vacuum, and a sweep.

``lax`` is one site's Lax operator as a dense block and ``vacuum`` the
reference state; the oracle itself reads the Lax parts and bands of its site
table (``oracle._sites``) and builds no operator block.  ``matmul_apply`` is the dense site-matmul
sweep, kept as a bit-for-bit reference for ``oracle._apply``: each site is
one batched matmul with the (2d x 2d) matrix M[(s', a'), (a, s)] =
L_k[a', a][s', s] built from the site table's parts; a column of u takes F off
E's support by matmul and adds the leg swap scaled by w + F on it.
"""
import numpy as np

from bdl.oracle import _lax_weight, _sites


def lax(spec, site, u):
    """Site Lax operator: a 2x2 auxiliary block of d x d site matrices, shape (2, 2, d, d).

    The block is ((u - theta + c/2) Id + c Sz, c S-; c S+, (u - theta + c/2) Id - c Sz) / c,
    normalized so the vacuum eigenvalues of the assembled diagonal entries are
    exactly the lambda1/lambda2 products of the model layer.  It is affine in
    u: (u - theta + c/2)/c E + F with the parts of the oracle's site table.
    It reads the table through its own import, so a test that patches
    ``oracle._sites`` leaves the reference as it is.
    """
    e, f = _sites(spec.spins).parts[site]
    return _lax_weight(spec, site, u) * e + f


def vacuum(spec):
    """The all-highest-weight basis state, the first of the kron basis."""
    vec = np.zeros(spec.dim, dtype=complex)
    vec[0] = 1.0
    return vec


def matmul_apply(spec, u, vecs, weight, transpose=False):
    """sum_ab weight[a, b] T_ab(u) on ``vecs`` (D,) or (D, k), one site matmul at a time."""
    rows = np.flatnonzero(np.any(weight != 0, axis=1))
    cols = vecs.reshape(len(vecs), -1)
    width = cols.shape[1]
    per_column = np.ndim(u) > 0
    state = weight[rows][:, :, None, None] * cols  # (rows, aux, D, k)
    left, right = len(rows), cols.size
    order = (3, 0, 1, 2) if transpose else (2, 0, 1, 3)
    for site, (e, f) in enumerate(_sites(spec.spins).parts):
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
