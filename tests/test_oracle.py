"""Tests for the spin-chain oracle: site sweeps against dense references."""
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdl import oracle
from bdl.checks import run_suite
from bdl.config import load_config, parse_config
from bdl.errors import ConfigError
from bdl.models import (PeriodicChainSpec, bethe_jacobian, chain_y_model, k_matrix, lambda1,
                        lambda2, twist_factors, y_maba, y_periodic)
from bdl.linsys import l_coeff
from bdl.oracle import (_aligned, _apply, _basis_weights, _canonical_key, _newton, _vacuum,
                        _weight, bethe_vector, direct_scalar_product, dual_bethe_vector,
                        fresh_eigencurve_count, lax, modified_monodromy, monodromy,
                        spin_matrices, transfer)
from bdl.rational import g_prod

from conftest import C_STD, ROOT, THETAS, cached_roots, draw_points, make_chain, make_twist


def op_norm(a):
    return np.linalg.norm(a, 2)


def sector_weight_count(spec, n: int) -> int:
    """Dimension of the weight space with n magnons."""
    return int(np.count_nonzero(_basis_weights(spec) == n))


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
    vac = _vacuum(spec)
    a_val = (u - 0.2 + C_STD * (1.5 + 0.5)) / C_STD
    d_val = (u - 0.2 - C_STD * (1.5 - 0.5)) / C_STD
    assert np.allclose(blocks[0][0] @ vac, a_val * vac)
    assert np.allclose(blocks[1][1] @ vac, d_val * vac)


def test_vacuum_eigenvalues_mixed_spins():
    spec = PeriodicChainSpec(3, C_STD, [0.3, -0.4, 0.15], [0.5, 1.0, 0.5])
    vac = _vacuum(spec)
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


@pytest.mark.parametrize("twisted", [False, True], ids=["periodic", "twisted"])
@pytest.mark.parametrize("spec", MIXED_CHAINS + [make_chain(2)],
                         ids=["mixed1", "mixed2", "mixed3", "mixed4", "half2"])
def test_sweep_matches_explicit_kron_reference(spec, twisted, twist_std):
    twist = twist_std if twisted else None
    dim = spec.dim
    rng = np.random.default_rng(31)
    for u in (0.7 - 0.2j, -1.35 + 0.6j):
        for op, dense in reference_operators(spec, u, twist).items():
            weight = _weight(op, twist)
            for transpose in (False, True):
                mat = dense.T if transpose else dense
                for shape in ((dim,), (dim, 3)):
                    vecs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                    got = _apply(spec, u, vecs, weight, transpose)
                    assert got.shape == shape
                    assert rel_diff(got, mat @ vecs) < 1e-13, (op, transpose, shape)


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
    # A and D conserve the magnon number, B adds one and C removes one
    w = _basis_weights(spec)
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
    assert np.allclose(bethe_vector(chain3, []), _vacuum(chain3))


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
    vac = _vacuum(chain3)
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


def test_root_counts_match_fresh_eigencurves():
    cases = [(make_chain(n_sites), n) for n_sites, n in [(2, 1), (3, 1), (4, 1), (4, 2)]]
    cases += [(spec, n) for spec in MIXED_SPIN_CHAINS for n in (1, 2)]
    cases += [(make_chain(2), 3)]  # an empty sector: no eigenvectors, no sets
    for spec, n in cases:
        _complete(spec, n, None, fresh_eigencurve_count(spec, n))
    assert fresh_eigencurve_count(make_chain(2), 3) == 0


def test_twisted_root_count_is_full_dimension():
    for n_sites in (1, 2, 3):
        for tw_seed in (0, 101):
            _complete(make_chain(n_sites), n_sites, make_twist(tw_seed), 2 ** n_sites)


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
    assert len(cached_roots(spec, n).roots) == fresh_eigencurve_count(spec, n)
    assert_bethe_eigenvectors(spec, n, None, np.random.default_rng(24))


def test_spurious_roots_are_reported_not_returned():
    res = cached_roots(make_chain(3), 2)  # no fresh eigencurves at this size
    assert len(res.roots) == 0 and res.seeds_used == 0
    assert len(res.unmatched) == 3  # every sector eigenvector fails the T-Q consistency


def _sector_vector(spec, roots):
    """The Bethe vector of ``roots`` on its weight sector, as the solver compares it."""
    sector = np.flatnonzero(_basis_weights(spec) == len(roots))
    return bethe_vector(spec, roots)[sector], sector


def test_guard_rejects_a_null_bethe_vector(chain3):
    # N + 1 creation operators on a spin-1/2 chain leave no state
    points = np.array([0.4 + 0.2j, -0.7 + 0.5j, 1.1 - 0.3j, -0.2 - 0.6j])
    assert not np.any(bethe_vector(chain3, points))
    everything = np.arange(chain3.dim)
    ray = np.random.default_rng(25).normal(size=len(everything))
    assert not _aligned(chain3, None, points, ray, everything)
    for n in (1, 2, 3):
        vec, sector = _sector_vector(chain3, points[:n])
        assert _aligned(chain3, None, points[:n], vec, sector)


def test_guard_rejects_off_shell_and_foreign_sets():
    spec = make_chain(4)
    sets = [np.array(r) for r in cached_roots(spec, 2).roots]
    assert len(sets) >= 2
    vec, sector = _sector_vector(spec, sets[0])  # an eigenvector of the sector block
    assert _aligned(spec, None, sets[0], vec, sector)
    assert not _aligned(spec, None, sets[0] + 1e-3 * np.array([1, -1j]), vec, sector)
    assert not _aligned(spec, None, sets[1], vec, sector)
    assert not _aligned(spec, None, sets[0][[0, 0]], vec, sector)  # repeated root


def test_newton_keeps_polishing_below_the_bound():
    # a start already at max|Y| ~ 1e-12 still gets its roots to ~1e-16
    spec = make_chain(4)
    model = chain_y_model(spec, 2)
    roots = np.array(cached_roots(spec, 2).roots[0])
    def res(us): return np.array([y_periodic(spec, u, us) for u in us])
    def jac(us): return bethe_jacobian(model, us).T
    start = roots + 1e-12 * np.array([1, -1j])
    assert 1e-13 < np.max(np.abs(res(start))) < 1e-12
    us, fv = _newton(res, jac, start)
    assert np.max(np.abs(fv)) < 1e-16 and np.max(np.abs(us - roots)) < 1e-14


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
    # no operator checks D; the one cap guards every model type where its config enters
    for config in ("periodic_n2_N4.json", "maba_s2_N2.json"):
        assert parse_config(_sized_config(config, 12)).model.spec.dim == 4096
        with pytest.raises(ConfigError, match="8192 exceeds cap 4096"):
            parse_config(_sized_config(config, 13))


def test_dim_is_the_product_of_site_dimensions():
    assert make_chain(4).dim == 16
    assert PeriodicChainSpec(3, C_STD, [0.3, -0.4, 0.15], [0.5, 1.0, 1.5]).dim == 2 * 3 * 4
    # exact at any size, where a fixed-width product would overflow
    assert long_chain(64, "spaced").dim == 2 ** 64


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
