"""Shared chains, twists and a session-scoped root cache for the tests."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from bdl.models import PeriodicChainSpec, TwistSpec
from bdl.oracle import solve_bethe_roots

C_STD = 1.3
ROOT = Path(__file__).resolve().parent.parent


def bench_module(name: str):
    """A module of ``benchmarks/``, loaded once by file path."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, ROOT / "benchmarks" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules[key]

THETAS = {
    1: [0.3],
    2: [0.3, -0.45],
    3: [0.3, -0.45, 0.12],
    4: [0.3, -0.45, 0.12, 0.7],
}


def make_chain(n_sites: int, c: complex = C_STD, shift: complex = 0.0,
               spins=None) -> PeriodicChainSpec:
    theta = [t + shift for t in THETAS[n_sites]]
    spins = spins or [0.5] * n_sites
    return PeriodicChainSpec(n_sites=n_sites, c=c, theta=theta, spins=spins)


def make_twist(seed: int = 0) -> TwistSpec:
    if seed == 0:
        return TwistSpec(kappa=0.9 - 0.3j, kappa_tilde=1.4 + 0.2j,
                         kappa_plus=0.6 + 0.5j, kappa_minus=-0.8 + 0.35j,
                         rho1=0.45 + 0.25j)
    rng = np.random.default_rng(seed)

    def draw():
        return complex(rng.uniform(0.5, 1.5) * (1 if rng.uniform() < 0.5 else -1),
                       rng.uniform(-0.8, 0.8))
    while True:
        tw = None
        try:
            tw = TwistSpec(kappa=draw(), kappa_tilde=draw(), kappa_plus=draw(),
                           kappa_minus=draw(), rho1=draw())
            _ = tw.mu
        except Exception:
            continue
        if abs(tw.rho1 + tw.rho2) > 0.2 and abs(tw.mu) < 20:
            return tw


def draw_points(rng: np.random.Generator, count: int, scale: float = 1.6,
                min_sep: float = 0.35, avoid=()) -> list[complex]:
    avoid = [complex(a) for a in avoid]
    pts: list[complex] = []
    while len(pts) < count:
        z = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        if all(abs(z - w) > min_sep for w in pts + avoid):
            pts.append(z)
    return pts


_ROOT_CACHE: dict = {}


def cached_roots(spec: PeriodicChainSpec, n: int, twist: TwistSpec | None = None):
    key = (spec, n, twist)
    if key not in _ROOT_CACHE:
        _ROOT_CACHE[key] = solve_bethe_roots(spec, n, twist=twist)
    return _ROOT_CACHE[key]


@pytest.fixture(scope="session")
def chain3():
    return make_chain(3)


@pytest.fixture(scope="session")
def chain4():
    return make_chain(4)


@pytest.fixture(scope="session")
def twist_std():
    return make_twist(0)
