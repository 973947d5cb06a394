"""Unit tests for the rational primitives."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdl.errors import PoleError
from bdl.rational import (delta, delta_prime, esp_all, esp_removed, g, g_prod, g_rest,
                          require_distinct)


def test_g_spot_values():
    assert g(2, 3, 1) == pytest.approx(1.0)
    assert g(1, 0, 1) == pytest.approx(-1.0)
    assert g(1 + 0j, 1j, -1j) == pytest.approx(-0.5j)


def test_g_pole_raises():
    with pytest.raises(PoleError):
        g(1.0, 0.5, 0.5)
    with pytest.raises(PoleError):
        g(1.0, 1e6, 1e6 + 1e-5)  # relative tolerance scales with magnitude


def test_g_antisymmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = complex(rng.normal(), rng.normal()) or 1.0
        u = complex(rng.normal(), rng.normal())
        v = complex(rng.normal(), rng.normal())
        if abs(u - v) < 1e-3:
            continue
        assert g(c, u, v) == pytest.approx(-g(c, v, u))


def test_g_prod_empty_is_one():
    assert g_prod(1.7, 0.3, []) == 1.0


def test_g_prod_single_and_pair():
    assert g_prod(2.0, 3.0, [1.0]) == pytest.approx(g(2.0, 3.0, 1.0))
    assert g_prod(1.0, 2.0, [0.0, 1.0]) == pytest.approx(0.5)


def test_g_prod_equals_product_of_singletons():
    rng = np.random.default_rng(1)
    c = 0.8 + 0.4j
    u = 2.1 - 0.3j
    vals = [complex(rng.normal(), rng.normal()) for _ in range(5)]
    expected = np.prod([g(c, u, v) for v in vals])
    assert g_prod(c, u, vals) == pytest.approx(expected)


def test_delta_spot_values():
    assert delta(1.0, [0.5]) == 1.0
    assert delta_prime(1.0, []) == 1.0
    assert delta(1.0, [0.0, 1.0]) == pytest.approx(1.0)       # g(1, 0)
    assert delta_prime(1.0, [0.0, 1.0]) == pytest.approx(-1.0)  # g(0, 1)
    assert delta(1.0, [0.0, 1.0]) * delta_prime(1.0, [0.0, 1.0]) == pytest.approx(-1.0)


def test_delta_product_permutation_invariant():
    rng = np.random.default_rng(2)
    c = 1.1 - 0.6j
    vals = [complex(rng.normal(), rng.normal()) for _ in range(5)]
    ref = delta(c, vals) * delta_prime(c, vals)
    for _ in range(5):
        perm = list(rng.permutation(5))
        shuffled = [vals[i] for i in perm]
        assert delta(c, shuffled) * delta_prime(c, shuffled) == pytest.approx(ref)


def test_delta_swap_flips_both_factors():
    c = 1.3
    vals = [0.2 + 0.1j, -0.7 + 0.4j, 1.1 - 0.2j]
    swapped = [vals[1], vals[0], vals[2]]
    assert delta(c, swapped) == pytest.approx(-delta(c, vals))
    assert delta_prime(c, swapped) == pytest.approx(-delta_prime(c, vals))


def test_delta_pole_on_coincident_elements():
    with pytest.raises(PoleError):
        delta(1.0, [0.5, 0.5])


def test_pair_products_follow_the_ordered_pair_loop():
    # one vectorised g per product, multiplied in the order of the pair loop
    rng = np.random.default_rng(3)
    c = 0.9 + 0.2j
    for n in range(6):
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        lower = upper = 1.0 + 0.0j
        for j in range(n):
            for k in range(n):
                if k < j:
                    lower *= g(c, vals[j], vals[k])
                elif k > j:
                    upper *= g(c, vals[j], vals[k])
        assert delta(c, vals) == lower and delta_prime(c, vals) == upper


def test_require_distinct_names_the_first_close_pair():
    with pytest.raises(PoleError, match="elements 1 and 3"):
        require_distinct([0.0, 1.0, 2.0, 1.0, 0.0])
    require_distinct([0.0, 1e-3], tol=1e-4)
    with pytest.raises(PoleError, match="elements 0 and 1"):
        require_distinct([0.0, 1e-3], tol=1e-2)
    require_distinct([])


def test_esp_spot_values():
    assert np.allclose(esp_all([9.0, 4.0, 7.0])[0], 1.0)
    assert np.allclose(esp_all([2.0, 3.0]), [1.0, 5.0, 6.0])
    assert np.allclose(esp_all([]), [1.0])
    # row j: the set without element j
    assert np.allclose(esp_removed([2.0, 3.0, 5.0]), [[1.0, 8.0, 15.0],
                                                      [1.0, 7.0, 10.0],
                                                      [1.0, 5.0, 6.0]])
    # a stack of sets gives a stack of tables
    stack = [[2.0, 3.0, 5.0], [1.0j, -4.0, 0.5]]
    assert np.array_equal(esp_removed(stack), [esp_removed(row) for row in stack])


def test_esp_all_matches_polynomial_coefficients():
    # prod (t + v_i) expanded: coefficients of t^{n-p} are sigma_p
    rng = np.random.default_rng(3)
    vals = [complex(rng.normal(), rng.normal()) for _ in range(4)]
    coeffs = np.polynomial.polynomial.polyfromroots([-v for v in vals])
    sig = esp_all(vals)
    for p in range(5):
        assert sig[p] == pytest.approx(coeffs[4 - p])


def test_esp_symmetric_under_permutation():
    rng = np.random.default_rng(4)
    vals = [complex(rng.normal(), rng.normal()) for _ in range(6)]
    ref = esp_all(vals)
    for _ in range(5):
        perm = list(rng.permutation(6))
        shuffled = [vals[i] for i in perm]
        assert np.allclose(esp_all(shuffled), ref, rtol=1e-12)


def _split(vals):
    """(first, second) tables with sigma_p(set) = v_j first[j, p] + second[j, p], p = 0 .. n."""
    table = esp_removed(vals)
    zero = np.zeros((len(vals), 1), dtype=complex)
    return np.hstack([zero, table]), np.hstack([table, zero])


def test_esp_split_spot_values():
    # element index 0 holds the value 2
    first, second = _split([2.0, 3.0])
    assert np.allclose(first[0], [0.0, 1.0, 3.0])
    assert np.allclose(second[0], [1.0, 3.0, 0.0])
    assert np.allclose(2.0 * first[0] + second[0], esp_all([2.0, 3.0]))


finite = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite, min_size=1, max_size=6))
def test_esp_split_identity_random_sets(vals):
    vals = np.asarray(vals, dtype=complex)
    first, second = _split(vals)
    total = vals[:, None] * first + second
    # each sigma_p is a sum of products of at most six factors of size <= 2
    scale = esp_all(np.abs(vals)).real
    assert np.all(np.abs(total - esp_all(vals)) <= 1e-13 * np.maximum(1.0, scale))


def test_esp_split_first_is_partial_derivative():
    rng = np.random.default_rng(6)
    vals = [complex(rng.normal(), rng.normal()) for _ in range(4)]
    first, _ = _split(vals)
    h = 1e-6
    for j in range(4):
        bumped_p = list(vals)
        bumped_m = list(vals)
        bumped_p[j] += h
        bumped_m[j] -= h
        fd = (esp_all(bumped_p) - esp_all(bumped_m)) / (2 * h)
        assert np.all(np.abs(first[j] - fd) < 1e-6 * np.maximum(1.0, np.abs(first[j])))


def test_esp_removed_edge_sizes():
    assert esp_removed([]).shape == (0, 0)
    assert np.array_equal(esp_removed([4.0]), [[1.0]])


def test_g_rest_matches_g_prod():
    vals = [0.3 + 0.1j, -0.7 + 0.4j, 1.2 - 0.5j]
    expected = [g_prod(1.3, v, [w for w in vals if w != v]) for v in vals]
    assert np.allclose(g_rest(1.3, vals), expected)
    with pytest.raises(PoleError):
        g_rest(1.3, [0.5, 0.5])
