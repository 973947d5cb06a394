"""What ``bdl verify`` runs calls no Python-level numpy wrapper from a ``bdl`` frame.

Its arrays hold a few entries, so a wrapper such as ``np.max`` or
``np.indices`` costs more than the ufunc or ndarray method it dispatches to.
The guard runs one warm ``run_suite`` of each bundled config and of the
benchmark's dense-oracle config under ``sys.setprofile`` and records each
call into a function of numpy's package whose direct caller is a frame of
``bdl``.  A call into GUARDED fails it; so does a call into any other
Python-level function that is neither a dispatch stub of a C function nor
listed in ALLOWED with its reason.  numpy.random's compiled code calls
numpy's Python functions too (the seeding of ``default_rng``, ``np.prod``
of the size of ``integers`` and ``choice``) and, having no frame, would
show bdl's frame as their caller; the traced passes therefore draw through
``_Generator``, whose frames stand between.  Names that start with an
underscore are numpy's internals: an ndarray method's Python body
(``_amax``) or a dispatcher's argument helper (``_max_dispatcher``).
Functions are matched by name and by numpy's package path, so the guard
holds on numpy 1.x (whose dispatch runs a shim frame per call) and 2.x.
"""
import json
import os
import sys

import numpy as np
import pytest

import bdl
from bdl import oracle
from bdl.checks import run_suite
from bdl.config import parse_config

from conftest import ROOT, bench_module

# "amax" and "amin" are np.max's and np.min's function names on numpy 1.x
GUARDED = {"diff", "broadcast_to", "flatnonzero", "take", "any", "all", "max", "amax", "prod",
           "min", "amin", "sum", "mean", "indices", "argmax"}
# the Python-level numpy functions a warm pass still calls, and why
ALLOWED = {
    "det": "linalg: LAPACK behind argument checks, with no ufunc or method form",
    "svd": "linalg: LAPACK behind argument checks, with no ufunc or method form",
    "solve": "linalg: LAPACK behind argument checks, with no ufunc or method form",
    "eig": "linalg: LAPACK behind argument checks, with no ufunc or method form",
    "eigvals": "linalg: LAPACK behind argument checks, with no ufunc or method form",
    "pinv": "linalg: an SVD and its cutoff, with no ufunc or method form",
    "norm": "linalg: maba-asymptotics' spectral norms, four per run",
    "einsum": "the contraction of omega_columns and the Rayleigh quotients; its kernel is private",
    "tensordot": "the weight contraction of _lax_blocks, once per chunk of points",
    "eye": "constants of a check's size, once per maba-asymptotics run or contour rule call",
}
NUMPY_DIR = os.path.dirname(np.__file__)
BDL_DIR = os.path.dirname(bdl.__file__)
SHIM = "<__array_function__ internals>"  # numpy 1.x's dispatch frame, named as the function
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
ORACLE_FRAMES = (oracle._apply, oracle._sweep_tables, oracle._line_search, oracle._newton)


def _stub(code) -> bool:
    """A dispatch stub of a C function (``where``, ``concatenate``), which returns its arguments."""
    return os.path.basename(code.co_filename) == "multiarray.py"


class _Generator:
    """A numpy Generator whose methods are called from a frame of this file."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            return method(*args, **kwargs)
        return call


def numpy_calls(run, from_frame) -> tuple[list, set]:
    """(caller, function, code) of each call ``run()`` makes into numpy's Python functions.

    Only calls whose direct caller is a frame that ``from_frame`` accepts
    count.  Also returns the code objects of every frame that ran.
    """
    calls, ran = [], set()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        ran.add(code)
        if code.co_name.startswith("_") or not (code.co_filename.startswith(NUMPY_DIR)
                                                or code.co_filename == SHIM):
            return
        caller = frame.f_back
        while caller is not None and caller.f_code.co_filename == SHIM:
            caller = caller.f_back
        if caller is not None and from_frame(caller.f_code):
            calls.append((caller.f_code.co_name, code.co_name, code))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls, ran


def _bdl_frame(code) -> bool:
    return code.co_filename.startswith(BDL_DIR)


def _config(name: str):
    if name == "oracle_dense":
        return parse_config(bench_module("workloads").oracle_dense_config(34))
    return parse_config(json.loads((ROOT / "configs" / f"{name}.json").read_text()))


def _disallowed(calls) -> list:
    return [(caller, name) for caller, name, code in calls
            if name in GUARDED or not (_stub(code) or name in ALLOWED)]


@pytest.fixture(scope="module")
def traced():
    """name -> (calls, frames that ran) of one warm ``run_suite`` of each traced config."""
    out, default_rng = {}, np.random.default_rng
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", lambda seed: _Generator(default_rng(seed)))
        for name in CONFIGS + ["oracle_dense"]:
            config = _config(name)
            run_suite(config)  # warm: sweep tables, cached chain properties, Y-models
            out[name] = numpy_calls(lambda: run_suite(config), _bdl_frame)
    return out


@pytest.mark.parametrize("name", CONFIGS + ["oracle_dense"])
def test_a_warm_verify_calls_no_numpy_wrapper_from_a_bdl_frame(traced, name):
    calls, _ = traced[name]
    assert _disallowed(calls) == []


def test_the_traced_passes_run_every_module_and_every_allowance(traced):
    ran = set().union(*(frames for _, frames in traced.values()))
    modules = {os.path.basename(code.co_filename) for code in ran if _bdl_frame(code)}
    assert {"checks.py", "determinants.py", "identities.py", "linsys.py", "models.py",
            "oracle.py", "rational.py"} <= modules
    # the oracle's per-call loops ran, so the empty lists above cover them
    blocks = oracle._lax_blocks.__code__
    [prefixes] = [c for c in blocks.co_consts if getattr(c, "co_name", None) == "prefixes"]
    assert {f.__code__ for f in ORACLE_FRAMES} | {blocks, prefixes} <= ran
    # every allowance is still used, so none outlives its call
    called = {name for calls, _ in traced.values() for _, name, _ in calls}
    assert set(ALLOWED) <= called


def test_the_guard_sees_a_wrapper_called_from_a_watched_frame():
    def prefixes(codes):
        return codes[np.diff(codes, prepend=-1) > 0]

    calls, ran = numpy_calls(lambda: prefixes(np.array([0, 0, 1, 2, 2])),
                             lambda code: code is prefixes.__code__)
    assert ("prefixes", "diff") in [(caller, name) for caller, name, _ in calls]
    assert _disallowed(calls) and prefixes.__code__ in ran


@pytest.mark.parametrize("wrapped", [False, True])
def test_the_guard_leaves_numpy_random_its_own_calls(wrapped):
    rng = np.random.default_rng(1)
    rng = _Generator(rng) if wrapped else rng

    def draw():
        rng.integers(0, 5, size=3)  # calls np.prod on its size from compiled code
        return np.prod(rng.uniform(size=2))

    calls, _ = numpy_calls(draw, lambda code: code is draw.__code__)
    prods = [(caller, name) for caller, name, _ in calls if name == "prod"]
    assert prods == [("draw", "prod")] * (1 if wrapped else 2)
