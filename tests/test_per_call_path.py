"""The per-call loops of the oracle and ``scalar_prod`` call no Python-level numpy wrapper.

Their arrays hold a few entries, so a wrapper such as ``np.diff`` or
``np.max`` costs more than the ufunc or ndarray method it dispatches to.  The
guard runs one warm ``run_suite`` under ``sys.setprofile`` and records each
call into one of the listed numpy functions whose direct caller is a guarded
frame.  Functions are matched by name and by numpy's package path, so the
guard holds on numpy 1.x (whose dispatch runs a shim frame per call) and 2.x.
"""
import os
import sys

import numpy as np

from bdl import oracle, rational
from bdl.checks import run_suite
from bdl.config import parse_config

from conftest import bench_module

# "amax" is np.max's function name on numpy 1.x
WRAPPERS = {"diff", "broadcast_to", "flatnonzero", "take", "any", "all", "max", "amax", "prod"}
NUMPY_DIR = os.path.dirname(np.__file__)
SHIM = "<__array_function__ internals>"  # numpy 1.x's dispatch frame, named as the function


def guarded_codes() -> set:
    """Code objects of the sweeps, the trace-form blocks with ``prefixes``, Newton and ``scalar_prod``."""
    blocks = oracle._lax_blocks.__code__
    [prefixes] = [c for c in blocks.co_consts if getattr(c, "co_name", None) == "prefixes"]
    funcs = (oracle._apply, oracle._sweep_tables, oracle._line_search, oracle._newton,
             rational.scalar_prod)
    return {f.__code__ for f in funcs} | {blocks, prefixes}


def wrapper_calls(run, guarded: set) -> tuple[list, set]:
    """The (caller, wrapper) name of each call ``run()`` makes from ``guarded`` into WRAPPERS.

    Also returns the guarded code objects that ran.
    """
    calls, ran = [], set()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in guarded:
            ran.add(code)
        if code.co_name not in WRAPPERS or not (code.co_filename.startswith(NUMPY_DIR)
                                                or code.co_filename == SHIM):
            return
        caller = frame.f_back
        while caller is not None and caller.f_code.co_filename == SHIM:
            caller = caller.f_back
        if caller is not None and caller.f_code in guarded:
            calls.append((caller.f_code.co_name, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls, ran


def test_the_oracle_per_call_loops_call_no_numpy_wrapper():
    config = parse_config(bench_module("workloads").oracle_dense_config(34))
    run_suite(config)  # warm: sweep tables, cached chain properties, Y-models
    guarded = guarded_codes()
    calls, ran = wrapper_calls(lambda: run_suite(config), guarded)
    assert calls == []
    assert ran == guarded  # every guarded frame ran, so the empty list means something


def test_the_guard_sees_a_wrapper_called_from_a_guarded_frame():
    def prefixes(codes):
        return codes[np.diff(codes, prepend=-1) > 0]

    calls, ran = wrapper_calls(lambda: prefixes(np.array([0, 0, 1, 2, 2])), {prefixes.__code__})
    assert ("prefixes", "diff") in calls and ran == {prefixes.__code__}
