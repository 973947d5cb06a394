"""Tests for the spin-chain oracle: site sweeps against dense references."""
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdl import oracle
from bdl.checks import run_suite
from bdl.config import load_config, parse_config
from bdl.errors import ConfigError
from bdl.models import (PeriodicChainSpec, chain_y_model, k_matrix, lambda1, lambda2,
                        spin_matrices, twist_factors, y_maba, y_periodic)
from bdl.linsys import l_coeff
from bdl.oracle import (_aligned, _apply, _canonical, _canonical_key, _lax_blocks, _newton,
                        _root_system, _weight, bethe_vector, direct_scalar_product,
                        dual_bethe_vector, expected_root_sets, modified_monodromy, monodromy,
                        overlaps, solve_bethe_roots, transfer)
from bdl.rational import _removals, g_prod

from conftest import C_STD, ROOT, THETAS, cached_roots, draw_points, make_chain, make_twist
from sweep_reference import lax, matmul_apply, vacuum


def op_norm(a):
    return np.linalg.norm(a, 2)


def sector_weight_count(spec, n: int) -> int:
    """Dimension of the weight space with n magnons."""
    return int(np.count_nonzero(spec._magnons == n))


# ---------------------------------------------------------------------------
# local structure


def test_spin_half_matrices():
    sz, sp, sm = spin_matrices(0.5)
    assert np.allclose(sz, [[0.5, 0], [0, -0.5]])
    assert np.allclose(sp, [[0, 1], [0, 0]])
    assert np.allclose(sm, [[0, 0], [1, 0]])


def test_spin_matrices_are_cached_and_read_only():
    assert spin_matrices(1.5) is spin_matrices(1.5)
    with pytest.raises(ValueError):
        spin_matrices(1.5)[1][0, 1] = 0.0


def test_spin_one_ladder_algebra():
    sz, sp, sm = spin_matrices(1.0)
    assert np.allclose(sp @ sm - sm @ sp, 2 * sz)
    assert np.allclose(sz @ sp - sp @ sz, sp)


def test_lax_spin_half_is_shifted_permutation():
    # single spin-1/2 site: the 4x4 auxiliary (x) site operator equals
    # ((u - theta) Id + c P) / c with P the swap matrix
    spec = PeriodicChainSpec(1, C_STD, [0.3], [0.5])
    u = 0.8 - 0.45j
    blocks = lax(spec, 0, u)
    four = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            four[2 * a:2 * a + 2, 2 * b:2 * b + 2] = blocks[a][b]
    perm = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    expected = ((u - 0.3) * np.eye(4) + C_STD * perm) / C_STD
    assert np.allclose(four, expected, atol=1e-13)


def test_lax_highest_weight_entries():
    spec = PeriodicChainSpec(1, C_STD, [0.2], [1.5])
    u = 1.1 + 0.25j
    blocks = lax(spec, 0, u)
    vac = vacuum(spec)
    a_val = (u - 0.2 + C_STD * (1.5 + 0.5)) / C_STD
    d_val = (u - 0.2 - C_STD * (1.5 - 0.5)) / C_STD
    assert np.allclose(blocks[0][0] @ vac, a_val * vac)
    assert np.allclose(blocks[1][1] @ vac, d_val * vac)


def test_vacuum_eigenvalues_mixed_spins():
    spec = PeriodicChainSpec(3, C_STD, [0.3, -0.4, 0.15], [0.5, 1.0, 0.5])
    vac = vacuum(spec)
    for u in (0.7 - 0.2j, -0.35 + 0.6j):
        mono = monodromy(spec, u)
        assert np.max(np.abs(mono.a @ vac - lambda1(spec, u) * vac)) < 1e-12 * abs(lambda1(spec, u))
        assert np.max(np.abs(mono.d @ vac - lambda2(spec, u) * vac)) < 1e-12 * abs(lambda2(spec, u))
        assert np.max(np.abs(mono.c @ vac)) < 1e-14


def test_creation_operators_commute(chain3):
    b1 = monodromy(chain3, 0.4 + 0.2j).b
    b2 = monodromy(chain3, -0.8 + 0.5j).b
    assert op_norm(b1 @ b2 - b2 @ b1) < 1e-10 * op_norm(b1) * op_norm(b2)


def test_transfer_matrices_commute(chain3, twist_std):
    eye = np.eye(chain3.dim)
    for tw in (None, twist_std):
        t1 = transfer(chain3, 0.9 - 0.3j, eye, tw)
        t2 = transfer(chain3, -0.2 + 0.7j, eye, tw)
        assert op_norm(t1 @ t2 - t2 @ t1) < 1e-10 * op_norm(t1) * op_norm(t2)


# ---------------------------------------------------------------------------
# explicit-kron reference: every site operator lifted to the full space


MIXED_CHAINS = [PeriodicChainSpec(n, C_STD, [0.3, -0.45, 0.12, 0.7][:n],
                                  [[0.5, 1.0, 1.5][k % 3] for k in range(n)])
                for n in range(1, 5)]


def embed(dims, site, op):
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        out = np.kron(out, op if k == site else np.eye(d, dtype=complex))
    return out


def reference_monodromy(spec, u):
    """L_{N-1} ... L_0 as products of D x D matrices, site 0 the slowest kron index."""
    dims = [int(round(2 * s)) + 1 for s in spec.spins]
    dim = int(np.prod(dims))
    t = [[np.eye(dim, dtype=complex), np.zeros((dim, dim))],
         [np.zeros((dim, dim)), np.eye(dim, dtype=complex)]]
    for site in range(spec.n_sites):
        l = [[embed(dims, site, blk) for blk in row] for row in lax(spec, site, u)]
        t = [[l[a][0] @ t[0][b] + l[a][1] @ t[1][b] for b in range(2)] for a in range(2)]
    return t


def rel_diff(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("spec", MIXED_CHAINS + [make_chain(2)],
                         ids=["mixed1", "mixed2", "mixed3", "mixed4", "half2"])
def test_monodromy_matches_explicit_kron_reference(spec, twist_std):
    for u in (0.7 - 0.2j, -1.35 + 0.6j):
        ref = reference_monodromy(spec, u)
        mono = monodromy(spec, u)
        for got, want in zip((mono.a, mono.b, mono.c, mono.d), (x for row in ref for x in row)):
            assert rel_diff(got, want) < 1e-13
        a_mat, b_mat, _ = twist_factors(twist_std)
        nu = modified_monodromy(spec, twist_std, u)
        for (i, j), got in zip([(0, 0), (0, 1), (1, 0), (1, 1)],
                               (nu.nu11, nu.nu12, nu.nu21, nu.nu22)):
            want = sum(a_mat[i, x] * ref[x][y] * b_mat[y, j] for x in range(2) for y in range(2))
            assert rel_diff(got, want) < 1e-13


def reference_operators(spec, u, twist):
    """B, C and the transfer matrix (nu12, nu21 and tr(K T) when twisted) from the reference."""
    ref = reference_monodromy(spec, u)
    if twist is None:
        return {"B": ref[0][1], "C": ref[1][0], "T": ref[0][0] + ref[1][1]}
    a_mat, b_mat, _ = twist_factors(twist)
    k = k_matrix(twist)
    def nu(i, j):
        return sum(a_mat[i, x] * ref[x][y] * b_mat[y, j] for x in range(2) for y in range(2))
    return {"B": nu(0, 1), "C": nu(1, 0),
            "T": sum(k[a, b] * ref[b][a] for a in range(2) for b in range(2))}


def assert_sweep_matches_reference(spec, twist, reference_spec=None):
    """B, C and T by ``_apply`` on ``spec`` against the explicit-kron operators of the reference."""
    ref = reference_spec or spec
    dim = spec.dim
    rng = np.random.default_rng(31)
    for u in (0.7 - 0.2j, -1.35 + 0.6j):
        for op, dense in reference_operators(ref, u, twist).items():
            weight = _weight(op, twist)
            for transpose in (False, True):
                mat = dense.T if transpose else dense
                for shape in ((dim,), (dim, 3)):
                    vecs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                    got = _apply(spec, u, vecs, weight, transpose)
                    assert got.shape == shape
                    assert rel_diff(got, mat @ vecs) < 1e-13, (op, transpose, shape)


@pytest.mark.parametrize("twisted", [False, True], ids=["periodic", "twisted"])
@pytest.mark.parametrize("spec", MIXED_CHAINS + [make_chain(2)],
                         ids=["mixed1", "mixed2", "mixed3", "mixed4", "half2"])
def test_sweep_matches_explicit_kron_reference(spec, twisted, twist_std):
    assert_sweep_matches_reference(spec, twist_std if twisted else None)


@pytest.mark.parametrize("band", [1, 2], ids=["S-", "S+"])
@pytest.mark.parametrize("site", range(4))
@pytest.mark.parametrize("twisted", [False, True], ids=["periodic", "twisted"])
def test_a_perturbed_band_fails_the_kron_reference(twisted, site, band, twist_std):
    # one site's S- or S+ band scaled by 1 + 1e-12; the reference reads the unperturbed lax
    spec = MIXED_CHAINS[3]
    perturbed = PeriodicChainSpec(spec.n_sites, spec.c, spec.theta, spec.spins)
    bands = [list(parts) for parts in spec._lax_bands]
    bands[site][band] = bands[site][band] * (1 + 1e-12)
    perturbed.__dict__["_lax_bands"] = tuple(tuple(parts) for parts in bands)
    with pytest.raises(AssertionError):
        assert_sweep_matches_reference(perturbed, twist_std if twisted else None, spec)


COLUMN_POINTS = np.array([0.7 - 0.2j, -1.35 + 0.6j, 0.25 + 1.1j])


@pytest.mark.parametrize("twisted", [False, True], ids=["periodic", "twisted"])
@pytest.mark.parametrize("spec", MIXED_CHAINS + [make_chain(2)],
                         ids=["mixed1", "mixed2", "mixed3", "mixed4", "half2"])
def test_sweep_with_one_point_per_column_matches_single_point_sweeps(spec, twisted, twist_std):
    # a column of u: each site's leg swap scaled by one w + diag per column, plus the S+- bands
    twist = twist_std if twisted else None
    rng = np.random.default_rng(17)
    vecs = rng.normal(size=(spec.dim, 3)) + 1j * rng.normal(size=(spec.dim, 3))
    dense = [reference_operators(spec, u, twist) for u in COLUMN_POINTS]
    for op in ("B", "C", "T"):
        weight = _weight(op, twist)
        for transpose in (False, True):
            got = _apply(spec, COLUMN_POINTS, vecs, weight, transpose)
            assert got.shape == vecs.shape
            for k, u in enumerate(COLUMN_POINTS):
                single = _apply(spec, u, vecs[:, k], weight, transpose)
                mat = dense[k][op].T if transpose else dense[k][op]
                assert rel_diff(got[:, k], single) < 1e-13, (op, transpose, k)
                assert rel_diff(got[:, k], mat @ vecs[:, k]) < 1e-13, (op, transpose, k)


def supported_vectors(spec, support: str, width: int, seed: int) -> np.ndarray:
    """Random (D, width) vectors that vanish off ``support``.

    "vacuum" keeps basis state 0, "sector" one weight sector, "rows" a random
    subset of basis states and "all" every state.
    """
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(spec.dim, width)) + 1j * rng.normal(size=(spec.dim, width))
    keep = {"vacuum": np.arange(spec.dim) == 0,
            "sector": spec._magnons == rng.integers(spec.magnon_capacity + 1),
            "rows": rng.uniform(size=spec.dim) < rng.uniform(0.05, 0.6),
            "all": np.ones(spec.dim, dtype=bool)}[support]
    vecs[~keep] = 0
    return vecs


SUPPORTS = ["vacuum", "sector", "rows", "all"]


@settings(max_examples=60, deadline=None)
@given(spins=st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=1, max_size=4),
       tw_seed=st.one_of(st.none(), st.integers(0, 500)),
       op=st.sampled_from(["B", "C", "T"]), transpose=st.booleans(),
       points=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=3),
       support=st.sampled_from(SUPPORTS), seed=st.integers(0, 2**16))
def test_banded_sweep_equals_the_matmul_sweep_bit_for_bit(spins, tw_seed, op, transpose, points,
                                                          support, seed):
    # a column of u rounds as the matmul reference's; a scalar u as a column of it.  The
    # reference's scalar path is one BLAS gemm, which may fuse multiply-adds, so it is
    # pinned to rounding only.  The input's support picks the reachable entries, and with
    # them the sparse or the banded step, so both are held to the reference
    spec = PeriodicChainSpec(len(spins), C_STD, THETAS[len(spins)], spins)
    weight = _weight(op, None if tw_seed is None else make_twist(tw_seed))
    u = np.array(points)
    vecs = supported_vectors(spec, support, len(u), seed)
    got = _apply(spec, u, vecs, weight, transpose)
    assert got.tobytes() == matmul_apply(spec, u, vecs, weight, transpose).tobytes()
    scalar = _apply(spec, points[0], vecs, weight, transpose)
    column = _apply(spec, np.full(len(u), points[0]), vecs, weight, transpose)
    assert scalar.tobytes() == column.tobytes()
    reference = matmul_apply(spec, points[0], vecs, weight, transpose)
    assert np.linalg.norm(scalar - reference) <= 1e-14 * np.linalg.norm(reference)


@settings(max_examples=30, deadline=None)
@given(spins=st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=1, max_size=4),
       tw_seed=st.one_of(st.none(), st.integers(0, 500)),
       op=st.sampled_from(["B", "C", "T"]), transpose=st.booleans(),
       support=st.sampled_from(SUPPORTS), seed=st.integers(0, 2**16))
def test_sparse_and_banded_steps_agree_bit_for_bit(spins, tw_seed, op, transpose, support, seed):
    # the same sweep with every input forced onto each path
    spec = PeriodicChainSpec(len(spins), C_STD, THETAS[len(spins)], spins)
    weight = _weight(op, None if tw_seed is None else make_twist(tw_seed))
    vecs = supported_vectors(spec, support, 2, seed)
    u = np.array([0.7 - 0.2j, -1.35 + 0.6j])
    got = {}
    for share in (0.0, 1.01):  # every sweep banded, every sweep sparse
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "DENSE_SHARE", share)
            patch.setattr(oracle, "_TABLES", {})
            got[share] = [_apply(spec, x, vecs, weight, transpose).tobytes() for x in (u, u[0])]
            assert all((t.codes is None) == (share == 0.0) for t in oracle._TABLES.values())
    assert got[0.0] == got[1.01]


def test_sweeps_at_4096_states_equal_the_matmul_sweep_bit_for_bit():
    # a two-slot B product from the vacuum and T on a sector-2 vector, at D = 4096, each on
    # few reachable entries; T's point is a column so that the reference does not use gemm
    spec = long_chain(12, "spaced")
    slots = np.array([[0.3 - 0.4j, -0.2 + 0.1j, 1.1 + 0.3j], [-0.7 + 0.2j, 0.5 - 0.6j, 0.2j]])
    weight = _weight("B", None)
    got = ref = np.repeat(vacuum(spec)[:, None], slots.shape[1], axis=1)
    for slot in slots:
        got = _apply(spec, slot, got, weight)
        ref = matmul_apply(spec, slot, ref, weight)
        assert got.tobytes() == ref.tobytes()
    assert np.all(got[spec._magnons != 2] == 0) and np.all(got[spec._magnons == 2] != 0)
    sector2 = got[:, :1]
    u = np.array([0.45 + 0.35j])
    transferred = _apply(spec, u, sector2, _weight("T", None))
    assert transferred.tobytes() == matmul_apply(spec, u, sector2, _weight("T", None)).tobytes()
    pattern = _weight("T", None) != 0
    assert oracle._sweep_tables(spec, pattern, False, sector2).share < oracle.DENSE_SHARE


def sector_inputs(spec, charges, width=2, seed=8):
    """Random vectors on the weight sectors ``charges``."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(spec.dim, width)) + 1j * rng.normal(size=(spec.dim, width))
    vecs[~np.isin(spec._magnons, charges)] = 0
    return vecs


def assert_sparse_sweep_matches_reference(spec, twist, charges, reference_spec=None):
    """B, C and T by ``_apply`` on sectors ``charges``, on the sparse path, against the kron reference."""
    vecs = sector_inputs(spec, charges)
    for u in (0.7 - 0.2j, -1.35 + 0.6j):
        for op, dense in reference_operators(reference_spec or spec, u, twist).items():
            weight = _weight(op, twist)
            for transpose in (False, True):
                tables = oracle._sweep_tables(spec, weight != 0, transpose, vecs)
                assert tables.codes is not None, ("banded", op, transpose, tables.share)
                mat = dense.T if transpose else dense
                assert rel_diff(_apply(spec, u, vecs, weight, transpose), mat @ vecs) < 1e-13, (
                    op, transpose)


SPARSE_CHAIN = PeriodicChainSpec(4, C_STD, [0.3, -0.45, 0.12, 0.7], [0.5, 1.0, 0.5, 1.5])


@pytest.mark.parametrize("twisted", [False, True], ids=["periodic", "twisted"])
def test_sparse_sweep_matches_explicit_kron_reference(twisted, twist_std):
    assert_sparse_sweep_matches_reference(SPARSE_CHAIN, twist_std if twisted else None, [1, 2])


@pytest.mark.parametrize("dropped", [1, 2])
@pytest.mark.parametrize("twisted", [False, True], ids=["periodic", "twisted"])
def test_a_table_missing_a_reachable_charge_fails_the_kron_reference(twisted, dropped, twist_std,
                                                                     monkeypatch):
    # the tables of every sweep on sectors {1, 2} replaced by the tables of the input charges
    # without one of them
    twist = twist_std if twisted else None
    monkeypatch.setattr(oracle, "_TABLES", {})
    vecs = sector_inputs(SPARSE_CHAIN, [1, 2])
    for op in ("B", "C", "T"):
        pattern = _weight(op, twist) != 0
        for transpose in (False, True):
            oracle._sweep_tables(SPARSE_CHAIN, pattern, transpose, vecs)
            [key] = [k for k in oracle._TABLES if k[1:3] == (pattern.tobytes(), transpose)]
            oracle._TABLES[key] = oracle._build_tables(SPARSE_CHAIN, pattern, transpose,
                                                       tuple(c for c in key[3] if c != dropped))
    with pytest.raises(AssertionError) as failed:
        assert_sparse_sweep_matches_reference(SPARSE_CHAIN, twist, [1, 2])
    assert "banded" not in str(failed.value)


@pytest.mark.parametrize("band", [1, 2], ids=["S-", "S+"])
@pytest.mark.parametrize("site", range(4))
@pytest.mark.parametrize("twisted", [False, True], ids=["periodic", "twisted"])
def test_a_band_perturbed_after_the_tables_are_cached_fails_the_kron_reference(twisted, site, band,
                                                                               twist_std):
    # the tables are shared by every chain of these sites and hold no numbers: a second chain
    # whose band is scaled by 1 + 1e-12 before its first sweep reuses them, and the scaling shows
    twist = twist_std if twisted else None
    assert_sparse_sweep_matches_reference(SPARSE_CHAIN, twist, [1, 2])
    vecs = sector_inputs(SPARSE_CHAIN, [1, 2])
    tables = oracle._sweep_tables(SPARSE_CHAIN, _weight("B", twist) != 0, False, vecs)
    spec = PeriodicChainSpec(4, C_STD, SPARSE_CHAIN.theta, SPARSE_CHAIN.spins)
    bands = [list(parts) for parts in spec._lax_bands]
    bands[site][band] = bands[site][band] * (1 + 1e-12)
    spec.__dict__["_lax_bands"] = tuple(tuple(parts) for parts in bands)
    assert oracle._sweep_tables(spec, _weight("B", twist) != 0, False, vecs) is tables
    with pytest.raises(AssertionError) as failed:
        assert_sparse_sweep_matches_reference(spec, twist, [1, 2], SPARSE_CHAIN)
    assert "banded" not in str(failed.value)


@pytest.mark.parametrize("op", ["B", "C", "T"])
def test_a_zero_input_reaches_no_entry(op, twist_std):
    # no input charge, no reachable entry: the sparse sweep returns +0 everywhere, as the reference
    spec = MIXED_CHAINS[2]
    zeros = np.zeros((spec.dim, 2), dtype=complex)
    for twist in (None, twist_std):
        weight = _weight(op, twist)
        assert oracle._sweep_tables(spec, weight != 0, False, zeros).share == 0
        got = _apply(spec, COLUMN_POINTS[:2], zeros, weight)
        assert got.tobytes() == matmul_apply(spec, COLUMN_POINTS[:2], zeros, weight).tobytes()
        assert got.tobytes() == zeros.tobytes()


def test_sweep_tables_are_shared_read_only_and_built_on_first_use():
    # one set of tables per (sites, pattern, transpose, input charges), whatever the chain's numbers
    a = PeriodicChainSpec(3, C_STD, [0.3, -0.45, 0.12], [0.5, 1.0, 1.5])
    b = PeriodicChainSpec(3, 0.7, [1.3, 0.45, -0.2], [0.5, 1.0, 1.5])
    pattern = _weight("B", None) != 0
    vac = vacuum(a)[:, None]
    tables = oracle._sweep_tables(a, pattern, False, vac)
    assert oracle._sweep_tables(b, pattern, False, 3 * vac) is tables
    assert oracle._sweep_tables(a, pattern, True, vac) is not tables
    assert oracle._sweep_tables(a, pattern, False, sector_inputs(a, [1])) is not tables
    with pytest.raises(ValueError):
        tables.codes[0] = 1
    with pytest.raises(ValueError):
        tables.steps[0][0][0] = 1
    # the full space is past DENSE_SHARE: that sweep is banded and holds no tables
    full = oracle._sweep_tables(a, pattern, False, np.ones((a.dim, 1)))
    assert full.share >= oracle.DENSE_SHARE and full.codes is None
    code = ("import bdl.checks, bdl.cli, bdl.oracle as o; assert not o._TABLES; "
            "o.bethe_vector(o.PeriodicChainSpec(2, 1.3, [0, 1], [0.5, 0.5]), [0.1]); assert o._TABLES")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_sweep_tables_hold_only_index_structure(twist_std, monkeypatch):
    # the tables are shared across chains, so no chain's numbers may live in them: past the
    # share, every array and count of every entry is an integer
    monkeypatch.setattr(oracle, "_TABLES", {})
    for twist in (None, twist_std):
        assert_sparse_sweep_matches_reference(SPARSE_CHAIN, twist, [1, 2])
    oracle.bethe_vector(MIXED_CHAINS[2], [0.1, -0.3])
    assert any(tables.codes is not None for tables in oracle._TABLES.values())
    for tables in oracle._TABLES.values():
        for name in (f.name for f in fields(tables) if f.name != "share"):
            for leaf in _leaves(getattr(tables, name)):
                assert leaf is None or np.asarray(leaf).dtype.kind in "iu", (name, leaf)


@pytest.mark.parametrize("blocks", [False, True], ids=["one-block", "four-sets-a-block"])
@pytest.mark.parametrize("twisted", [False, True], ids=["periodic", "twisted"])
def test_stacked_product_states_equal_a_loop_over_sets(twisted, blocks, twist_std, monkeypatch):
    twist = twist_std if twisted else None
    spec = MIXED_CHAINS[2]
    if blocks:  # the six sets are swept as blocks of four and two
        monkeypatch.setattr(oracle, "SWEEP_ENTRIES", 4 * spec.dim + 1)
    sets = np.random.default_rng(4).normal(size=(2, 3, 2)) + 0.3j
    for build in (bethe_vector, dual_bethe_vector):
        stacked = build(spec, sets, twist)
        assert stacked.shape == (2, 3, spec.dim)
        for i, j in np.ndindex(2, 3):
            assert rel_diff(stacked[i, j], build(spec, sets[i, j], twist)) < 1e-13
    pairs = direct_scalar_product(dual_bethe_vector(spec, sets, twist), bethe_vector(spec, sets, twist))
    assert pairs.shape == (2, 3)
    assert pairs[1, 2] == pytest.approx(direct_scalar_product(
        dual_bethe_vector(spec, sets[1, 2], twist), bethe_vector(spec, sets[1, 2], twist)), rel=1e-13)


@pytest.mark.parametrize("twisted", [False, True], ids=["periodic", "twisted"])
def test_a_single_set_is_a_stack_of_one(twisted, twist_std):
    # one shape law: a set (n,) is built as the stack (1, n), bit for bit
    twist = twist_std if twisted else None
    spec = make_chain(4)
    sets = [list(r) for n in (1, 2) for r in cached_roots(spec, n).roots]
    sets += list(np.random.default_rng(6).normal(size=(3, 2)) + 0.2j)
    for build in (bethe_vector, dual_bethe_vector):
        for uset in sets:
            assert build(spec, uset, twist).tobytes() == build(spec, [uset], twist)[0].tobytes()


@pytest.mark.parametrize("twisted", [False, True], ids=["periodic", "twisted"])
def test_overlaps_equal_build_then_pair(twisted, twist_std, monkeypatch):
    # over many blocks, broadcast axes and the empty u-set, bit for bit
    twist = twist_std if twisted else None
    spec = MIXED_CHAINS[2]
    monkeypatch.setattr(oracle, "SWEEP_ENTRIES", 3 * spec.dim + 1)  # blocks of three sets
    rng = np.random.default_rng(5)
    vsets = rng.normal(size=(4, 1, 2)) + 0.3j
    for usets in (rng.normal(size=(5, 2)) - 0.2j, rng.normal(size=(4, 5, 1)) + 0.1j,
                  np.zeros(0)):
        got = overlaps(spec, vsets, usets, twist)
        shape = np.broadcast_shapes(vsets.shape[:-1], usets.shape[:-1])
        assert got.shape == shape
        dual = dual_bethe_vector(spec, np.broadcast_to(vsets, shape + vsets.shape[-1:]), twist)
        vecs = bethe_vector(spec, np.broadcast_to(usets, shape + usets.shape[-1:]), twist)
        assert got.tobytes() == direct_scalar_product(dual, vecs).tobytes()
    assert np.all(overlaps(spec, vsets, [], twist) == dual[..., 0])


def test_overlaps_keep_only_the_products(monkeypatch):
    # 960 removal vectors paired with 40 dual rows in blocks of 16: build-then-
    # pair holds every vector (it peaked at 1.3 times their size), the pairing
    # under half of it
    spec = long_chain(8, "spaced")
    monkeypatch.setattr(oracle, "SWEEP_ENTRIES", 16 * spec.dim)
    rng = np.random.default_rng(3)
    vbar = rng.normal(size=(40, 3)) + 0.4j
    removals = _removals(rng.normal(size=(40, 6, 4)) - 0.3j)
    tracemalloc.start()
    try:
        got = overlaps(spec, vbar[:, None, None], removals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (40, 6, 4)
    assert peak < 0.5 * got.size * spec.dim * 16
    assert got[7, 2].tobytes() == direct_scalar_product(
        dual_bethe_vector(spec, vbar[7]), bethe_vector(spec, removals[7, 2])).tobytes()


def test_a_sweep_reads_the_chain_lax_parts_and_never_calls_lax():
    # the sweep reads the band parts of F, computed once per chain, and they are F exactly
    spec = PeriodicChainSpec(4, C_STD, MIXED_CHAINS[3].theta, MIXED_CHAINS[3].spins)
    assert "_lax_bands" not in spec.__dict__  # filled on first use
    assert spec._lax_bands is spec._lax_bands
    for site in range(spec.n_sites):
        e, f = spec._lax_parts[site]
        u = 0.4 - 0.9j
        shift = u - spec.theta[site] + spec.c / 2
        assert np.allclose(lax(spec, site, u), shift / spec.c * e + f, rtol=0, atol=1e-15)
        diag, lo, hi = spec._lax_bands[site]
        banded = np.zeros_like(f)
        for a in range(2):
            banded[a, a] = np.diag(diag[:, a, 0, 0])
        banded[0, 1], banded[1, 0] = np.diag(lo.ravel(), -1), np.diag(hi.ravel(), 1)
        assert np.array_equal(banded, f)
        assert np.array_equal(e, np.eye(2)[:, :, None, None] * np.eye(len(diag)))
    # the dense block is a test reference only: the oracle has none to call
    assert not hasattr(oracle, "lax")


@settings(max_examples=25, deadline=None)
@given(spins=st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=1, max_size=4),
       tw_seed=st.one_of(st.none(), st.integers(0, 500)),
       points=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=3, max_size=3))
def test_sweep_transfers_commute_and_b_products_are_symmetric(spins, tw_seed, points):
    spec = PeriodicChainSpec(len(spins), C_STD, THETAS[len(spins)], spins)
    twist = None if tw_seed is None else make_twist(tw_seed)
    vecs = np.random.default_rng(len(spins)).normal(size=(spec.dim, 2))
    u1, u2, u3 = points
    dense = [reference_operators(spec, u, twist) for u in points]
    t12 = transfer(spec, u1, transfer(spec, u2, vecs, twist), twist)
    t21 = transfer(spec, u2, transfer(spec, u1, vecs, twist), twist)
    scale = np.linalg.norm(dense[0]["T"]) * np.linalg.norm(dense[1]["T"])
    assert np.linalg.norm(t12 - t21) <= 1e-12 * scale * np.linalg.norm(vecs)
    scale = np.prod([np.linalg.norm(ops["B"]) for ops in dense])
    forward = bethe_vector(spec, points, twist)
    for order in ([u3, u1, u2], [u2, u3, u1]):
        assert np.linalg.norm(bethe_vector(spec, order, twist) - forward) <= 1e-12 * scale


@pytest.mark.parametrize("spec", MIXED_CHAINS, ids=["mixed1", "mixed2", "mixed3", "mixed4"])
def test_basis_weights_follow_monodromy_order(spec):
    # A and D conserve the magnon number, B adds one and C removes one; computed once per chain
    w = spec._magnons
    assert w is spec._magnons and not w.flags.writeable
    step = w[:, None] - w[None, :]
    mono = monodromy(spec, 0.4 + 0.3j)
    for op, shift in ((mono.a, 0), (mono.d, 0), (mono.b, 1), (mono.c, -1)):
        assert np.all(op[step != shift] == 0)
        assert np.any(op[step == shift] != 0)


# ---------------------------------------------------------------------------
# twisted structure


def test_twist_factorization_reproduces_k(twist_std):
    a, b, d = twist_factors(twist_std)
    assert np.max(np.abs(b @ d @ a - k_matrix(twist_std))) < 1e-12


def test_twisted_transfer_two_routes(twist_std):
    spec = make_chain(2)
    u = 0.3 + 0.1j
    direct = transfer(spec, u, np.eye(spec.dim), twist_std)
    nu = modified_monodromy(spec, twist_std, u)
    _, _, d = twist_factors(twist_std)
    via_factors = d[0, 0] * nu.nu11 + d[1, 1] * nu.nu22
    assert np.max(np.abs(direct - via_factors)) < 1e-12 * op_norm(direct)


def test_nu12_large_argument_limit(twist_std):
    spec = make_chain(2)
    target = (twist_std.mu / twist_std.kappa_minus) * (twist_std.rho1 + twist_std.rho2) \
        * np.eye(spec.dim)
    errors = []
    for scale in (1e3, 1e4, 1e5):
        nu12 = modified_monodromy(spec, twist_std, complex(scale)).nu12
        errors.append(op_norm(nu12 * (spec.c / scale) ** spec.n_sites - target) / op_norm(target))
    assert errors[-1] < 1e-4
    for a, b in zip(errors, errors[1:]):
        assert b < a / 5


@pytest.mark.parametrize("spec", [make_chain(2), MIXED_CHAINS[2]], ids=["half2", "mixed3"])
def test_a_stack_of_points_equals_the_per_point_calls_bit_for_bit(spec, twist_std):
    # maba-asymptotics reads nu12 at its three scales from one stacked call
    points = np.array([[1e3, 1e4, 1e5], [0.7 - 0.2j, -1.35 + 0.6j, 2.0]])
    for entries in (lambda u: modified_monodromy(spec, twist_std, u), lambda u: monodromy(spec, u)):
        stacked = entries(points)
        for field in fields(stacked):
            got = getattr(stacked, field.name)
            assert got.shape == points.shape + (spec.dim, spec.dim)
            for index, u in np.ndenumerate(points):
                assert got[index].tobytes() == getattr(entries(u), field.name).tobytes()


def assert_bethe_eigenvectors(spec, n, twist, rng):
    """Every set's Bethe vector is a transfer eigenvector with the model's Lambda.

    Independent of the solver, which reads Lambda off the spectrum at other
    points and never forms a Bethe vector.
    """
    for roots in cached_roots(spec, n, twist).roots:
        vec = bethe_vector(spec, roots, twist)
        for z in draw_points(rng, 3, avoid=roots):
            y = y_periodic(spec, z, roots) if twist is None else y_maba(spec, twist, z, roots)
            lam = g_prod(spec.c, z, roots) * y
            resid = np.linalg.norm(transfer(spec, z, vec, twist) - lam * vec)
            assert resid < 1e-8 * np.linalg.norm(vec) * max(1.0, abs(lam)), (spec, twist, roots)


def test_twisted_eigenvalues_match_model_at_roots():
    rng = np.random.default_rng(23)
    for n_sites in (1, 2, 3):
        for tw_seed in (0, 101):
            assert_bethe_eigenvectors(make_chain(n_sites), n_sites, make_twist(tw_seed), rng)


# ---------------------------------------------------------------------------
# vectors and pairings


def test_bethe_vector_empty_is_vacuum(chain3):
    assert np.allclose(bethe_vector(chain3, []), vacuum(chain3))


def test_bethe_vector_order_independent(chain3):
    us = [0.4 + 0.2j, -0.7 + 0.5j, 1.1 - 0.3j]
    v1 = bethe_vector(chain3, us)
    v2 = bethe_vector(chain3, us[::-1])
    assert np.max(np.abs(v1 - v2)) < 1e-10 * np.linalg.norm(v1)


def test_dual_vector_order_independent_twisted(twist_std):
    spec = make_chain(2)
    vs = [0.4 + 0.2j, -0.7 + 0.5j]
    d1 = dual_bethe_vector(spec, vs, twist_std)
    d2 = dual_bethe_vector(spec, vs[::-1], twist_std)
    assert np.max(np.abs(d1 - d2)) < 1e-10 * np.linalg.norm(d1)


def test_vacuum_pairing_is_one(chain3):
    vac = vacuum(chain3)
    assert direct_scalar_product(vac, vac) == 1.0


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        direct_scalar_product(np.zeros(4), np.zeros(8))


def test_onshell_vector_is_eigenvector():
    rng = np.random.default_rng(21)
    for n_sites in (2, 3, 4):
        for n in range(1, n_sites // 2 + 1):
            assert_bethe_eigenvectors(make_chain(n_sites), n, None, rng)


def test_expectation_value_identity(chain3):
    # pairing of the eigen-row with the transfer action on the reduced product
    # state, computed leftward (eigenvalue times inner product) and rightward
    # (action-coefficient expansion)
    res = cached_roots(chain3, 1)
    vbar = list(res.roots[0])
    rng = np.random.default_rng(22)
    ubar = draw_points(rng, 2, avoid=vbar + list(chain3.theta))
    model = chain_y_model(chain3, 1)
    dual = dual_bethe_vector(chain3, vbar)
    vecs = [bethe_vector(chain3, [u for i, u in enumerate(ubar) if i != k])
            for k in range(2)]
    for j in range(2):
        left = (g_prod(chain3.c, ubar[j], vbar) * y_periodic(chain3, ubar[j], vbar)
                * direct_scalar_product(dual, vecs[j]))
        right = sum(l_coeff(model, ubar, j, k) * direct_scalar_product(dual, vecs[k])
                    for k in range(2))
        assert abs(left - right) < 1e-9 * max(abs(left), abs(right))


# ---------------------------------------------------------------------------
# root solving


MIXED_SPIN_CHAINS = [PeriodicChainSpec(3, C_STD, [0.3, -0.45, 0.12], [1.0, 1.0, 0.5]),
                     PeriodicChainSpec(2, C_STD, [0.3, -0.45], [1.5, 1.0])]


def _complete(spec, n, twist, expected):
    """``expected`` sets, canonically ordered; every other eigenvector is rejected."""
    res = cached_roots(spec, n, twist)
    assert len(res.roots) == expected, (spec, n, twist)
    block = sector_weight_count(spec, n) if twist is None else spec.dim
    assert len(res.roots) + len(res.unmatched) == block
    assert res.seeds_used == expected  # one Newton polish per consistent eigenvector
    assert all(r < 1e-12 for r in res.residuals)
    keys = [[_canonical_key(z) for z in roots] for roots in res.roots]
    assert all(k == sorted(k) for k in keys) and keys == sorted(keys)


COUNT_CASES = [(make_chain(n_sites), n) for n_sites, n in [(2, 1), (3, 1), (4, 1), (4, 2)]]
COUNT_CASES += [(spec, n) for spec in MIXED_SPIN_CHAINS for n in (1, 2)]
COUNT_CASES += [(make_chain(2), 3)]  # an empty sector: no eigenvectors, no sets


def test_root_counts_match_fresh_eigencurves():
    for spec, n in COUNT_CASES:
        _complete(spec, n, None, expected_root_sets(spec, n))
    assert expected_root_sets(make_chain(2), 3) == 0


def fresh_eigencurve_count(spec, n: int) -> int:
    """Number of transfer eigenvalues in weight sector n that are new there.

    The rational chain is weight-conserving, so the transfer matrix block-
    diagonalizes over magnon sectors; eigenvalues already present in sector
    n - 1 belong to multiplets reachable with fewer parameters.  Measured on
    the spectrum, independent of the dimension count of ``expected_root_sets``.
    """
    z_probe = 0.613 + 0.274j
    weights = spec._magnons

    def eigvals(sector):
        return np.linalg.eigvals(_lax_blocks(spec, sector, [z_probe], _weight("T", None))[0])
    idx_n = np.flatnonzero(weights == n)
    if len(idx_n) == 0:
        return 0
    eig_n = eigvals(idx_n)
    idx_prev = np.flatnonzero(weights == n - 1)
    if len(idx_prev) == 0:
        return len(eig_n)
    eig_prev = list(eigvals(idx_prev))
    scale = max(1.0, float(np.max(np.abs(eig_n))))
    fresh = 0
    for lam in eig_n:
        hit = next((i for i, mu in enumerate(eig_prev) if abs(lam - mu) < 1e-7 * scale), None)
        if hit is None:
            fresh += 1
        else:
            eig_prev.pop(hit)
    return fresh


ONE_SPIN_ONE_SITE = PeriodicChainSpec(1, C_STD, [0.3], [1.0])


def test_counted_root_sets_match_the_measured_spectrum():
    # the count reads sector dimensions; the measurement matches eigenvalues
    cases = COUNT_CASES + [(spec, n) for spec in MIXED_SPIN_CHAINS for n in (0, 3)]
    cases += [(ONE_SPIN_ONE_SITE, n) for n in (0, 1, 2)]
    for spec, n in cases:
        assert expected_root_sets(spec, n) == fresh_eigencurve_count(spec, n), (spec, n)
    assert expected_root_sets(ONE_SPIN_ONE_SITE, 1) == 0


def test_sector_sizes_count_the_basis_states_per_magnon_number():
    # expected_root_sets reads these counts, kept once per chain
    for spec in [make_chain(3), *MIXED_SPIN_CHAINS, ONE_SPIN_ONE_SITE]:
        capacity = spec.magnon_capacity
        assert spec._sector_sizes == {n: sector_weight_count(spec, n) for n in range(capacity + 1)}
        assert [expected_root_sets(spec, n) for n in (-1, capacity + 1, capacity + 2)] == [0, 0, 0]


def test_size_zero_solve_returns_the_empty_set():
    # the reference state is an eigenstate with no parameters: nothing is solved
    res = solve_bethe_roots(make_chain(3), 0)
    assert res.roots == [()] and res.residuals == [0.0] and res.unmatched == []
    assert res.seeds_used == 0


def test_twisted_solve_needs_the_magnon_capacity():
    spec = make_chain(2)
    with pytest.raises(ValueError, match="magnon capacity"):
        solve_bethe_roots(spec, 1, twist=make_twist(0))


def test_one_spin_one_site_has_no_size_one_set():
    # its sectors 0 and 1 hold one state each; the T-Q fit puts a root near
    # infinity, and in a one-dimensional sector the ray test cannot refuse it
    spec = PeriodicChainSpec(1, C_STD, [0.2], [1.0])
    res = cached_roots(spec, 1)
    assert len(res.roots) == expected_root_sets(spec, 1) == 0
    assert len(res.unmatched) == 1 and abs(res.unmatched[0][0]) > 1e12


def test_twisted_root_count_is_full_dimension():
    for n_sites in (1, 2, 3):
        for tw_seed in (0, 101):
            spec, twist = make_chain(n_sites), make_twist(tw_seed)
            expected = expected_root_sets(spec, n_sites, twist)
            assert expected == 2 ** n_sites
            _complete(spec, n_sites, twist, expected)


def long_chain(n_sites: int, theta: str) -> PeriodicChainSpec:
    """Spin-1/2 chain with theta evenly spaced in [-1.1, 1.1] or drawn at seed 12."""
    thetas = (np.linspace(-1.1, 1.1, n_sites) if theta == "spaced"
              else np.random.default_rng(12).uniform(-1.1, 1.1, n_sites))
    return PeriodicChainSpec(n_sites, C_STD, [float(t) for t in thetas], [0.5] * n_sites)


@pytest.mark.slow
@pytest.mark.parametrize("n_sites, n, theta", [
    (12, 1, "spaced"), (12, 2, "spaced"), (12, 1, "random"), (12, 2, "random"),
    (13, 1, "spaced"), (13, 1, "random"), (14, 1, "spaced"), (14, 1, "random")])
def test_long_chain_root_sets_are_complete(n_sites, n, theta):
    # Newton ends at the float64 floor of max|Y|, up to ~1e-11 at N = 14;
    # every set must still be kept
    spec = long_chain(n_sites, theta)
    assert len(cached_roots(spec, n).roots) == expected_root_sets(spec, n)
    assert_bethe_eigenvectors(spec, n, None, np.random.default_rng(24))


@pytest.mark.parametrize("n_sites, n, twisted", [(6, 6, True), (10, 4, False)],
                         ids=["twisted-N6", "periodic-N10-n4"])
def test_near_string_sets_are_kept(n_sites, n, twisted):
    # their Bethe vectors cancel in float64; built from the roots in canonical
    # order each lies along its eigenvector, while in the order the solver
    # reads the roots 63 of 64 and 85 of 90 do
    spec = long_chain(n_sites, "spaced")
    twist = MABA_S2_N2.twist if twisted else None
    assert len(cached_roots(spec, n, twist).roots) == expected_root_sets(spec, n, twist)


def test_spurious_roots_are_reported_not_returned():
    res = cached_roots(make_chain(3), 2)  # no fresh eigencurves at this size
    assert len(res.roots) == 0 and res.seeds_used == 0
    assert len(res.unmatched) == 3  # every sector eigenvector fails the T-Q consistency


def _sector_vector(spec, roots):
    """The Bethe vector of ``roots`` on its weight sector, as the solver compares it."""
    sector = np.flatnonzero(spec._magnons == len(roots))
    return bethe_vector(spec, roots)[sector], sector


def test_guard_rejects_a_null_bethe_vector(chain3):
    # N + 1 creation operators on a spin-1/2 chain leave no state
    points = np.array([0.4 + 0.2j, -0.7 + 0.5j, 1.1 - 0.3j, -0.2 - 0.6j])
    assert not np.any(bethe_vector(chain3, points))
    everything = np.arange(chain3.dim)
    ray = np.random.default_rng(25).normal(size=len(everything))
    assert _aligned(chain3, None, points[None], ray[None], everything)[0].tolist() == [False]
    for n in (1, 2, 3):
        vec, sector = _sector_vector(chain3, points[:n])
        ok, roots = _aligned(chain3, None, points[None, :n], vec[None], sector)
        assert ok.tolist() == [True] and roots == [_canonical(points[:n])]


def test_guard_rejects_off_shell_and_foreign_sets():
    # one stack: each member is judged against the same eigenvector on its own
    spec = make_chain(4)
    sets = [np.array(r) for r in cached_roots(spec, 2).roots]
    assert len(sets) >= 2
    vec, sector = _sector_vector(spec, sets[0])  # an eigenvector of the sector block
    stack = np.array([sets[0], sets[0] + 1e-3 * np.array([1, -1j]), sets[1],
                      sets[0][[0, 0]]])  # the last has a repeated root
    verdicts, roots = _aligned(spec, None, stack, np.repeat(vec[None], len(stack), axis=0),
                               sector)
    assert verdicts.tolist() == [True, False, False, False]
    assert roots == [_canonical(sets[0])]


def _newton_on(spec, n, starts, twist=None):
    return _newton(*_root_system(spec, chain_y_model(spec, n, twist), twist), starts)


def test_newton_keeps_polishing_below_the_bound():
    # a start already at max|Y| ~ 1e-12 still gets its roots to ~1e-16
    spec = make_chain(4)
    roots = np.array(cached_roots(spec, 2).roots[0])
    res, _ = _root_system(spec, chain_y_model(spec, 2), None)
    start = roots + 1e-12 * np.array([1, -1j])
    assert 1e-13 < np.max(np.abs(res(start))) < 1e-12
    us, fv = _newton_on(spec, 2, start[None])
    assert np.max(np.abs(fv)) < 1e-16 and np.max(np.abs(us - roots)) < 1e-14


def _perturbed_starts(spec, n, twist, scale, seed):
    roots = np.array(cached_roots(spec, n, twist).roots)
    rng = np.random.default_rng(seed)
    return roots + scale * (rng.normal(size=roots.shape) + 1j * rng.normal(size=roots.shape))


@pytest.mark.parametrize("n_sites, n, twist", [(4, 1, None), (4, 2, None), (3, 3, make_twist(0))])
def test_stacked_newton_members_equal_stacks_of_one(n_sites, n, twist, monkeypatch):
    # starts at several distances, so members stop after different numbers of steps
    spec = make_chain(n_sites)
    starts = np.concatenate([_perturbed_starts(spec, n, twist, scale, seed)
                             for seed, scale in enumerate((1e-2, 1e-6, 1e-12, 0.0))])
    us, fv = _newton_on(spec, n, starts, twist)
    for start, u, f in zip(starts, us, fv):
        u1, f1 = _newton_on(spec, n, start[None], twist)
        assert u1[0].tobytes() == u.tobytes() and f1[0].tobytes() == f.tobytes()
    assert np.max(np.abs(fv)) < 1e-12
    # a line search taken in blocks of one set gives the same iterates
    monkeypatch.setattr(oracle, "SWEEP_ENTRIES", 1)
    blocked = _newton_on(spec, n, starts, twist)
    assert blocked[0].tobytes() == us.tobytes() and blocked[1].tobytes() == fv.tobytes()


MABA_S2_N2 = load_config(ROOT / "configs" / "maba_s2_N2.json").model


@pytest.mark.parametrize("spec, n, twist", [(make_chain(4), 1, None), (make_chain(4), 2, None),
                                            (MABA_S2_N2.spec, 2, MABA_S2_N2.twist)],
                         ids=["half4-n1", "half4-n2", "maba_s2_N2"])
def test_a_set_started_at_its_polished_roots_takes_one_jacobian(spec, n, twist):
    # its first move is within FLOOR_ULPS of the roots, so it stops there
    res, jac = _root_system(spec, chain_y_model(spec, n, twist), twist)
    for roots in cached_roots(spec, n, twist).roots:
        calls = []
        us, _ = _newton(res, lambda u: calls.append(u) or jac(u), np.array([roots]))
        assert len(calls) == 1 and np.max(np.abs(us[0] - roots)) < 1e-14


def test_a_singular_or_nan_member_stops_alone():
    spec = make_chain(4)
    starts = _perturbed_starts(spec, 2, None, 1e-3, 7)
    starts = np.concatenate([starts, [[np.nan, 0.2], starts[0] + 1e-4]])
    res, jac = _root_system(spec, chain_y_model(spec, 2), None)
    marker = starts[-1].copy()

    def singular_at_marker(us):
        out = jac(us)
        out[np.all(us == marker, axis=-1)] = 0.0  # only while that member has not moved
        return out
    us, fv = _newton(res, singular_at_marker, starts)
    assert us[-1].tobytes() == marker.tobytes() and fv[-1].tobytes() == res(marker).tobytes()
    assert np.isnan(us[-2, 0]) and us[-2, 1] == 0.2 and np.all(np.isnan(fv[-2]))
    alone, alone_fv = _newton(res, jac, starts[:-2])
    assert us[:-2].tobytes() == alone.tobytes() and fv[:-2].tobytes() == alone_fv.tobytes()
    assert np.max(np.abs(fv[:-2])) < 1e-13


def test_sector_weight_count():
    spec = make_chain(4)
    assert [sector_weight_count(spec, n) for n in range(5)] == [1, 4, 6, 4, 1]
    mixed = PeriodicChainSpec(2, C_STD, [0.3, -0.4], [0.5, 1.0])
    assert [sector_weight_count(mixed, n) for n in range(4)] == [1, 2, 2, 1]


def test_operators_take_any_chain_size():
    # D = 8192 is above the config limit, but the library operators have none
    spec = long_chain(13, "spaced")
    assert spec.dim == 2 ** 13
    vec = bethe_vector(spec, [0.4 - 0.2j])
    assert vec.shape == (8192,)
    assert transfer(spec, 0.3 + 0.1j, vec).shape == (8192,)


def _sized_config(name: str, n_sites: int) -> dict:
    raw = json.loads((ROOT / "configs" / name).read_text())
    raw["model"].update(N=n_sites, theta=[0.1 * k for k in range(n_sites)],
                        spins=[0.5] * n_sites)
    return raw


def test_dimension_cap_env_override(monkeypatch):
    # the retired BDL_MAX_DIM variable moves no limit, in either direction
    monkeypatch.setenv("BDL_MAX_DIM", "8")
    spec = make_chain(4)  # D = 16
    assert transfer(spec, 0.3 + 0.1j, np.ones(16)).shape == (16,)
    assert bethe_vector(spec, [0.4 - 0.2j]).shape == (16,)
    assert parse_config(_sized_config("periodic_n2_N4.json", 4)).model.spec.dim == 16
    monkeypatch.setenv("BDL_MAX_DIM", str(2 ** 20))
    with pytest.raises(ConfigError, match="8192 exceeds cap 4096"):
        parse_config(_sized_config("periodic_n2_N4.json", 13))


def test_dimension_cap_applies_to_every_operator():
    # no operator checks D; the caps guard every model type where its config
    # enters: D = 4096, and D = 256 for a twisted chain, whose solve spans the whole space
    assert parse_config(_sized_config("periodic_n2_N4.json", 12)).model.spec.dim == 4096
    assert parse_config(_sized_config("maba_s2_N2.json", 8)).model.spec.dim == 256
    for config in ("periodic_n2_N4.json", "maba_s2_N2.json"):
        with pytest.raises(ConfigError, match="8192 exceeds cap 4096"):
            parse_config(_sized_config(config, 13))
    with pytest.raises(ConfigError, match="512 of a twisted chain exceeds cap 256"):
        parse_config(_sized_config("maba_s2_N2.json", 9))


def test_dim_is_the_product_of_site_dimensions():
    assert make_chain(4).dim == 16
    assert PeriodicChainSpec(3, C_STD, [0.3, -0.4, 0.15], [0.5, 1.0, 1.5]).dim == 2 * 3 * 4
    # exact at any size, where a fixed-width product would overflow
    assert long_chain(64, "spaced").dim == 2 ** 64


# ---------------------------------------------------------------------------
# transfer blocks in trace form

BLOCK_POINTS = np.array([0.7 - 0.2j, -1.35 + 0.6j, 2.1 + 0.05j])
BLOCK_TOL = 1e-14  # relative; the two routes agree to about 4e-16
HALF8 = PeriodicChainSpec(8, C_STD, [float(t) for t in np.linspace(-1.1, 1.1, 8)], [0.5] * 8)
MIXED_BLOCK_CHAIN = PeriodicChainSpec(4, C_STD, [0.3, -0.45, 0.12, 0.7], [0.5, 1.0, 0.5, 1.5])


def block_deviation(spec, sector, twist, reference_spec=None):
    """Largest |_lax_blocks - T(z) on unit columns| over BLOCK_POINTS, relative to the block."""
    ref = reference_spec or spec
    cols = np.zeros((ref.dim, len(sector)), dtype=complex)
    cols[sector, np.arange(len(sector))] = 1.0
    want = np.array([transfer(ref, z, cols, twist)[sector] for z in BLOCK_POINTS])
    got = _lax_blocks(spec, sector, BLOCK_POINTS, _weight("T", twist))
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("spec, n", [(HALF8, 1), (HALF8, 2)]
                         + [(MIXED_BLOCK_CHAIN, n) for n in range(8)],
                         ids=["half8-n1", "half8-n2"] + [f"mixed-n{n}" for n in range(8)])
def test_trace_blocks_match_transfer_columns_on_a_sector(spec, n):
    sector = np.flatnonzero(spec._magnons == n)
    assert len(sector) and block_deviation(spec, sector, None) < BLOCK_TOL


@pytest.mark.parametrize("n_sites", [2, 4])
def test_trace_blocks_match_transfer_columns_on_the_twisted_space(n_sites, twist_std):
    spec = make_chain(n_sites)
    assert block_deviation(spec, np.arange(spec.dim), twist_std) < BLOCK_TOL


@pytest.mark.parametrize("site", [0, 3, 7])
def test_a_perturbed_lax_entry_fails_the_block_comparison(site):
    # one entry of one site's F scaled by 1 + 1e-12 moves the blocks by ~1e-13
    perturbed = PeriodicChainSpec(8, C_STD, HALF8.theta, HALF8.spins)
    parts = list(HALF8._lax_parts)
    e, f = parts[site]
    f = f.copy()
    f[0, 0, 0, 0] *= 1 + 1e-12
    parts[site] = (e, f)
    perturbed.__dict__["_lax_parts"] = tuple(parts)
    sector = np.flatnonzero(HALF8._magnons == 2)
    assert block_deviation(perturbed, sector, None, reference_spec=HALF8) > BLOCK_TOL


@pytest.mark.parametrize("twisted", [False, True], ids=["sector", "twisted-space"])
def test_trace_blocks_built_in_row_slabs_equal_one_pass(twisted, twist_std, monkeypatch):
    # 28 rows taken five at a time (the last slab short); 256 taken one at a time
    twist = twist_std if twisted else None
    sector = np.arange(HALF8.dim) if twisted else np.flatnonzero(HALF8._magnons == 2)
    whole = _lax_blocks(HALF8, sector, BLOCK_POINTS, _weight("T", twist))
    monkeypatch.setattr(oracle, "SWEEP_ENTRIES", 4 * len(sector) * (1 if twisted else 5))
    slabs = _lax_blocks(HALF8, sector, BLOCK_POINTS, _weight("T", twist))
    assert np.max(np.abs(slabs - whole)) <= 1e-15 * np.max(np.abs(whole))


def test_dense_entries_hold_one_slab_of_products_besides_the_result(twist_std, monkeypatch):
    # D = 256 in slabs of four rows: the four entries take 4 MB, and the peak
    # was 1.10 times that; one pass at once peaked at 5.3 times
    monkeypatch.setattr(oracle, "SWEEP_ENTRIES", 4 * HALF8.dim * 4)
    tracemalloc.start()
    try:
        nu = modified_monodromy(HALF8, twist_std, 0.4 - 0.3j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries = 4 * HALF8.dim ** 2 * 16
    assert peak < 1.25 * entries
    cols = np.eye(HALF8.dim, dtype=complex)[:, :5]
    assert rel_diff(nu.nu12[:, :5], _apply(HALF8, 0.4 - 0.3j, cols, _weight((0, 1), twist_std))) < 1e-13


# ---------------------------------------------------------------------------
# no dense blocks on periodic chains


def test_twelve_sites_run_without_dense_blocks():
    # D = 4096, the config limit; one dense D x D block alone would take 268 MB
    raw = {"model": {"type": "periodic-xxx", "N": 12, "c": C_STD,
                     "theta": [round(-1.1 + 0.2 * k, 6) for k in range(12)], "spins": [0.5] * 12},
           "suite": ["lse-residual", "transfer-action", "scalar-product-oracle", "izergin-oracle"],
           "sizes": {"n": [1]}, "draws": 1, "seed": 12}
    tracemalloc.start()
    try:
        report = run_suite(parse_config(raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["suite_passed"], [r for r in report["checks"] if not r["passed"]]
    assert peak < 32e6


@pytest.mark.parametrize("config", ["periodic_n1_N3.json", "periodic_n2_N4.json"])
def test_periodic_configs_never_build_a_monodromy(config, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return monodromy(*args, **kwargs)
    monkeypatch.setattr(oracle, "monodromy", spy)
    report = run_suite(load_config(ROOT / "configs" / config))
    assert report["suite_passed"] and calls == []
