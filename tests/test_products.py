"""The closed forms' products against 40 digits, and the direct-convolution build bit for bit.

Stacked products (numpy's own ``prod`` and ``*``) must lie within the
forward-error bound of ``product_reference.Bounded`` around a 40-digit
evaluation of the same float64 inputs, and a dropped or repeated factor
must leave it.  ``models.chain_y_model`` builds its coefficients with
``np.convolve`` and must give exactly the bits of the ``numpy.polynomial``
build.  The chains' numbers are drawn either from a dyadic grid, on which
many factors (z - theta_i + a_i) and (z - v_j -/+ c) come out exactly zero,
or as general floats.
"""
import numpy as np
import product_reference as ref
import pytest
from conftest import make_twist
from hypothesis import given, settings
from hypothesis import strategies as st

from bdl.errors import PoleError
from bdl.models import (PeriodicChainSpec, bethe_jacobian, chain_y, chain_y_model, lambda1,
                        lambda2, maba_f, random_y_model)
from bdl.rational import _pairs, delta, delta_prime, separation_tol

GRID = [k / 4 for k in range(-8, 9)]
PARTS = st.one_of(st.sampled_from(GRID + [-0.0]), st.floats(-3, 3, allow_subnormal=False))
COMPLEX = st.builds(complex, PARTS, st.one_of(st.just(0.0), st.just(-0.0), PARTS))
COUPLINGS = st.sampled_from([1.3, -1.3, 0.5, -0.75, 0.5 + 0.25j, -1 + 0.5j, 0.8 - 1.1j])


def bits(value) -> bytes:
    return np.asarray(value, dtype=complex).tobytes()


def arrays(draw, shape) -> np.ndarray:
    return np.array(draw(st.lists(COMPLEX, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))).reshape(shape)


@st.composite
def chains(draw):
    """(spec, twist or None, n): spins 1/2, 1 and 3/2 on one to three sites, n = 0 .. S."""
    sites = draw(st.integers(1, 3))
    spins = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=sites, max_size=sites))
    if draw(st.booleans()):
        theta = draw(st.lists(st.sampled_from(GRID), min_size=sites, max_size=sites, unique=True))
    else:
        theta = draw(st.lists(st.floats(-1.5, 1.5), min_size=sites, max_size=sites,
                              unique_by=lambda t: round(t, 6)))
    spec = PeriodicChainSpec(sites, draw(COUPLINGS), theta, spins)
    twist = draw(st.sampled_from([None, make_twist(0), make_twist(1), make_twist(2)]))
    return spec, twist, draw(st.integers(0, spec.magnon_capacity))


STACKS = st.sampled_from([(), (1,), (3,), (2, 3)])


def vacuum_references(spec, z, prod=ref.product):
    """lambda1, lambda2 and maba_f with the 40-digit reference of each entry of ``z``."""
    rows = {i: ref.vacuum_products(spec, "lambda", z[i], prod) for i in np.ndindex(z.shape)}
    f = {i: ref.vacuum_products(spec, "f", z[i], prod)[0] for i in np.ndindex(z.shape)}
    return [(lambda1, {i: r[0] for i, r in rows.items()}),
            (lambda2, {i: r[1] for i, r in rows.items()}), (maba_f, f)]


@settings(max_examples=80, deadline=None)
@given(shape=STACKS, n=st.integers(0, 6), data=st.data())
def test_a_stacked_product_is_within_the_k_factor_bound(shape, n, data):
    # numpy's product over the last axis, as the closed forms take every set product
    values = arrays(data.draw, shape + (n,))
    got = values.prod(axis=-1)
    assert got.shape == shape
    assert ref.holds_everywhere(got, {i: ref.product([ref.Bounded(x) for x in values[i]])
                                      for i in np.ndindex(shape)})


@settings(max_examples=80, deadline=None)
@given(c=COUPLINGS, shape=STACKS, n=st.integers(0, 5), real=st.booleans(), data=st.data())
def test_delta_and_delta_prime_are_within_the_k_factor_bound(c, shape, n, real, data):
    values = arrays(data.draw, shape + (n,))
    values = values.real + 0j if real else values
    for new, lower in ((delta, True), (delta_prime, False)):
        try:
            got = new(c, values)
        except PoleError:
            # only where some pair of some set lies within g's pole tolerance
            j, k = _pairs(n, lower)
            a, b = values[..., j], values[..., k]
            assert (np.abs(a - b) < separation_tol(a, b)).any()
            continue
        assert ref.holds_everywhere(got, {i: ref.pair_product(c, values[i], lower)
                                          for i in np.ndindex(shape)})


@settings(max_examples=80, deadline=None)
@given(chain=chains(), shape=STACKS, data=st.data())
def test_chain_products_are_within_the_k_factor_bound(chain, shape, data):
    spec, twist, n = chain
    # points on the grid meet theta_i - a_i and v_j +/- c, so some factors are zero
    z = arrays(data.draw, shape)
    values = arrays(data.draw, shape + (n,))
    for new, want in vacuum_references(spec, z):
        assert ref.holds_everywhere(new(spec, z), want)
    assert ref.holds_everywhere(chain_y(spec, z, values, twist), {
        i: ref.chain_y(spec, z[i], values[i], twist) for i in np.ndindex(shape)})
    # a single point against a stack of sets
    point = z.ravel()[:1].reshape(())
    assert ref.holds_everywhere(chain_y(spec, point, values, twist), {
        i: ref.chain_y(spec, point, values[i], twist) for i in np.ndindex(shape)})


@pytest.mark.parametrize("fault", [ref.DROPPED, ref.REPEATED])
def test_a_dropped_or_repeated_factor_leaves_the_bound(fault):
    # the negative control of the three tests above, on general floats
    spec = PeriodicChainSpec(3, 1.3 - 0.2j, [0.3, -0.45, 0.12], [0.5, 1.0, 1.5])
    rng = np.random.default_rng(8)
    values = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    z, sets = values[:, 0], values[:, 1:]
    for i in range(3):
        assert not fault([ref.Bounded(x) for x in sets[i]]).holds(sets.prod(axis=-1)[i])
        for new, lower in ((delta, True), (delta_prime, False)):
            assert not ref.pair_product(1.3, sets[i], lower, fault).holds(new(1.3, sets)[i])
    for new, want in vacuum_references(spec, z, fault):
        assert not any(want[i].holds(new(spec, z)[i]) for i in want)
    for twist in (None, make_twist(0)):
        got = chain_y(spec, z, sets, twist)
        assert not any(ref.chain_y(spec, z[i], sets[i], twist, fault).holds(got[i])
                       for i in range(3))


@settings(max_examples=80, deadline=None)
@given(chain=chains())
def test_chain_y_model_is_the_numpy_polynomial_build(chain):
    spec, twist, n = chain
    alpha = chain_y_model(spec, n, twist).alpha
    want = ref.chain_y_alpha(spec, n, twist)
    assert alpha.shape == want.shape and alpha.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from([(), (3,), (2, 2)]),
       stacked_model=st.booleans(), n_max=st.integers(1, 5), data=st.data())
def test_bethe_jacobian_is_two_horner_passes(seed, batch, stacked_model, n_max, data):
    # one pass gives the values and the derivatives together, with the bits of two passes
    rng = np.random.default_rng(seed)
    c = np.full(batch, 1.3 - 0.2j) if stacked_model else 1.3 - 0.2j
    model = random_y_model(rng, c, n_max)
    n = data.draw(st.integers(0, n_max))
    values = arrays(data.draw, batch + (n,))
    got = bethe_jacobian(model, values)
    assert bits(got) == bits(ref.bethe_jacobian(model, values))


@pytest.mark.parametrize("spins", [[0.5] * 4, [0.5, 1.0, 0.5, 1.5], [1.5, 1.5]])
@pytest.mark.parametrize("twisted", [False, True])
def test_chain_jacobian_is_two_horner_passes(spins, twisted):
    spec = PeriodicChainSpec(len(spins), 1.3, [0.3, -0.45, 0.12, 0.7][:len(spins)], spins)
    twist = make_twist(0) if twisted else None
    rng = np.random.default_rng(len(spins))
    for n in range(spec.magnon_capacity + 1):
        model = chain_y_model(spec, n, twist)
        values = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        assert bits(bethe_jacobian(model, values)) == bits(ref.bethe_jacobian(model, values))


@pytest.mark.parametrize("twisted", [False, True])
def test_exact_zero_factors_give_exact_zeros(twisted):
    # z = theta_0 - c (s_0 + 1/2) zeroes lambda1's first factor, v_0 = z - c a factor of p_-
    # and v_1 = z + c one of p_+; on these dyadic numbers the zeros are exact
    spec = PeriodicChainSpec(2, 0.5, [0.25, -0.5], [0.5, 1.0])
    twist = make_twist(0) if twisted else None
    z = np.array([-0.25, 0.25, -0.25 + 0.5j])
    values = np.array([[-0.75, 0.25], [0.5, 1.0], [-0.75 + 0.5j, -0.5]])
    assert lambda1(spec, z)[0] == 0
    assert (chain_y(spec, z, values[:, :1]) == 0).any()
    for new, want in vacuum_references(spec, z):
        assert ref.holds_everywhere(new(spec, z), want)
    for n in range(3):
        assert ref.holds_everywhere(chain_y(spec, z, values[:, :n], twist), {
            (i,): ref.chain_y(spec, z[i], values[i, :n], twist) for i in range(3)})
