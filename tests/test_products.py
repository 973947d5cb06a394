"""The planar product loop and the direct-convolution build, bit for bit.

``rational.scalar_prod`` carries float planes through one loop, and
``models.chain_y_model`` builds its coefficients with ``np.convolve``; both
must give exactly the bits of the per-factor ``scalar_mul`` loops and the
``numpy.polynomial`` build that ``product_reference`` keeps.  The chains'
numbers are drawn either from a dyadic grid, on which many factors
(z - theta_i + a_i) and (z - v_j -/+ c) come out exactly zero, or as general
floats.
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
from bdl.rational import delta, delta_prime, scalar_prod

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


@settings(max_examples=80, deadline=None)
@given(shape=STACKS, n=st.integers(0, 6), from_first=st.booleans(), data=st.data())
def test_scalar_prod_is_the_per_factor_loop(shape, n, from_first, data):
    values = arrays(data.draw, shape + (n,))
    got = scalar_prod(values, from_first=from_first)
    assert got.shape == shape and bits(got) == bits(ref.scalar_prod(values, from_first))


@settings(max_examples=80, deadline=None)
@given(c=COUPLINGS, shape=STACKS, n=st.integers(0, 5), real=st.booleans(), data=st.data())
def test_delta_and_delta_prime_are_the_per_pair_loops(c, shape, n, real, data):
    values = arrays(data.draw, shape + (n,))
    values = values.real + 0j if real else values
    for new, lower in ((delta, True), (delta_prime, False)):
        try:
            want = ref.pair_product(c, values, lower)
        except PoleError:
            with pytest.raises(PoleError):
                new(c, values)
            continue
        assert bits(new(c, values)) == bits(want)


@settings(max_examples=80, deadline=None)
@given(chain=chains(), shape=STACKS, data=st.data())
def test_chain_products_are_the_per_factor_loops(chain, shape, data):
    spec, twist, n = chain
    # points on the grid meet theta_i - a_i and v_j +/- c, so some factors are zero
    z = arrays(data.draw, shape)
    values = arrays(data.draw, shape + (n,))
    for new, row, name in ((lambda1, 0, "lambda"), (lambda2, 1, "lambda"), (maba_f, 0, "f")):
        assert bits(new(spec, z)) == bits(ref.vacuum_products(spec, name, z)[row])
    assert bits(chain_y(spec, z, values, twist)) == bits(ref.chain_y(spec, z, values, twist))
    # a single point against a stack of sets
    assert bits(chain_y(spec, z.ravel()[:1].reshape(()), values, twist)) == bits(
        ref.chain_y(spec, z.ravel()[:1].reshape(()), values, twist))


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
def test_exact_zero_factors_keep_the_loops_bits(twisted):
    # z = theta_0 - c (s_0 + 1/2) zeroes lambda1's first factor, v_0 = z - c a factor of p_-
    # and v_1 = z + c one of p_+; the sign of every zero must match the loops'
    spec = PeriodicChainSpec(2, 0.5, [0.25, -0.5], [0.5, 1.0])
    twist = make_twist(0) if twisted else None
    z = np.array([-0.25, 0.25, -0.25 + 0.5j])
    values = np.array([[-0.75, 0.25], [0.5, 1.0], [-0.75 + 0.5j, -0.5]])
    assert (ref.vacuum_products(spec, "lambda", z)[0] == 0).any()
    assert (ref.chain_y(spec, z, values[:, :1]) == 0).any()
    for new, row, name in ((lambda1, 0, "lambda"), (lambda2, 1, "lambda"), (maba_f, 0, "f")):
        assert bits(new(spec, z)) == bits(ref.vacuum_products(spec, name, z)[row])
    for n in range(3):
        assert bits(chain_y(spec, z, values[:, :n], twist)) == bits(
            ref.chain_y(spec, z, values[:, :n], twist))
