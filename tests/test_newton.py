"""The lazy line search of ``oracle._newton``, bit for bit against the full ladder.

``_newton`` evaluates each live set's full step first and searches the whole
ladder only for the sets whose full step does not qualify; ``newton_reference``
keeps the form that searched every rung of every set.  Both must give the
same iterates and residuals, bit for bit, on periodic and twisted chains of
spins 1/2, 1 and 3/2, from starts at up to 1e-1 from the roots (far enough
that some full steps miss), with a NaN start and a singular Jacobian mixed in.
"""
import newton_reference as ref
import numpy as np
import pytest
from conftest import C_STD, cached_roots, make_chain, make_twist
from hypothesis import given, settings
from hypothesis import strategies as st

from bdl import oracle
from bdl.models import PeriodicChainSpec, chain_y_model

CHAINS = {
    "half4-n1": (make_chain(4), 1, None),
    "half4-n2": (make_chain(4), 2, None),
    "mixed3-n2": (PeriodicChainSpec(3, C_STD, [0.3, -0.45, 0.12], [1.0, 1.5, 0.5]), 2, None),
    "three-halves2-n3": (PeriodicChainSpec(2, C_STD, [0.3, -0.45], [1.5, 1.5]), 3, None),
    "twisted-half3": (make_chain(3), 3, make_twist(0)),
    "twisted-one2": (PeriodicChainSpec(2, C_STD, [0.3, -0.45], [1.0, 1.0]), 4, make_twist(1)),
    "twisted-mixed2": (PeriodicChainSpec(2, C_STD, [0.3, -0.45], [0.5, 1.5]), 4, make_twist(2)),
}
SCALES = st.one_of(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1e-1]), st.floats(0.0, 0.1))


def assert_matches_reference(name, scales, seed, nan_start=False, singular=False):
    """``_newton`` and the full-ladder reference from the same starts give the same bits."""
    spec, n, twist = CHAINS[name]
    roots = np.array(cached_roots(spec, n, twist).roots)
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=roots.shape) + 1j * rng.normal(size=roots.shape)
    starts = roots + np.resize(scales, len(roots))[:, None] * noise
    if nan_start:
        starts = np.concatenate([starts, np.where(np.arange(n) == 0, np.nan, starts[:1])])
    res, jac = oracle._root_system(spec, chain_y_model(spec, n, twist), twist)
    marker = starts[0] + 1e-3
    if singular:
        starts = np.concatenate([starts, marker[None]])

    def jacobian(us):
        out = jac(us)
        out[np.all(us == marker, axis=-1)] = 0.0  # only while that set has not moved
        return out
    us, fv = oracle._newton(res, jacobian, starts)
    ref_us, ref_fv = ref.newton(res, jacobian, starts)
    assert us.tobytes() == ref_us.tobytes() and fv.tobytes() == ref_fv.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CHAINS)), scales=st.lists(SCALES, min_size=1, max_size=4),
       seed=st.integers(0, 2**16), nan_start=st.booleans(), singular=st.booleans())
def test_the_lazy_search_is_the_full_ladder(name, scales, seed, nan_start, singular):
    assert_matches_reference(name, scales, seed, nan_start, singular)


def test_the_lazy_search_in_blocks_of_one_set_is_the_full_ladder(monkeypatch):
    # both take their residuals one set at a time
    monkeypatch.setattr(oracle, "SWEEP_ENTRIES", 1)
    for name in CHAINS:
        assert_matches_reference(name, [1e-1, 1e-2], 3, nan_start=True, singular=True)


def test_a_search_that_only_takes_the_full_step_is_not_the_full_ladder(monkeypatch):
    # negative control: with no ladder for the sets whose full step misses, the
    # iterates differ from the reference on starts 1e-1 from the roots
    search = oracle._line_search
    monkeypatch.setattr(oracle, "_line_search",
                        lambda res, us, fv, step, rungs: search(res, us, fv, step, rungs[:1]))
    for name in ("half4-n2", "twisted-one2"):
        with pytest.raises(AssertionError):
            assert_matches_reference(name, [1e-1], 1)
