"""Shared chains, twists, a session-scoped root cache and the one subprocess helper."""
from __future__ import annotations

import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bdl.cli import main
from bdl.models import PeriodicChainSpec, TwistSpec
from bdl.oracle import solve_bethe_roots

C_STD = 1.3
ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
BUNDLED = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


def bench_module(name: str):
    """A module of ``benchmarks/``, loaded once by file path."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, ROOT / "benchmarks" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules[key]


def run_python(*args, env=None, stdout=subprocess.PIPE):
    """Exit code, stdout and stderr of ``python *args`` in a subprocess.

    The subprocess imports bdl from this checkout, installed or not; ``env`` adds to the
    inherited environment, and ``stdout`` may name a file descriptor instead of a pipe.
    """
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env={**os.environ, "PYTHONPATH": path, **(env or {})})
    return proc.returncode, proc.stdout, proc.stderr


run_cli = functools.partial(run_python, "-m", "bdl.cli")

# chains edited from a bundled config: (that config, the model fields replaced)
EDITED_CHAINS = {
    # spin 3/2 with broken U(1): D = 256, and n = 2sN = 12 magnons at the top
    "twisted_s32": ("maba_s2_N2", {"N": 4, "theta": [-0.056, 0.71, 0.723, 0.753],
                                   "spins": [1.5] * 4}),
    # spin 1/2 at D = 4096, theta evenly spaced in [-1.1, 1.1]
    "periodic_N12": ("periodic_n2_N4", {"N": 12,
                                        "theta": [round(-1.1 + 0.2 * k, 6) for k in range(12)],
                                        "spins": [0.5] * 12}),
    # the site sweep's bands at d = 2, 3 and 4
    "mixed_spins": ("periodic_n2_N4", {"spins": [0.5, 1.0, 0.5, 1.5]}),
}


def edited_config(chain: str, **top) -> dict:
    """The config of ``chain``, with the ``top`` keys replaced."""
    base, model = EDITED_CHAINS[chain]
    raw = json.loads((CONFIG_DIR / f"{base}.json").read_text())
    raw["model"].update(model)
    return {**raw, **top}


def reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def verify_report(tmp_path, config, *options):
    """Exit code and strict-JSON report of in-process ``verify`` on ``config``, a path or a
    dict; wall times zeroed."""
    if isinstance(config, dict):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(config))
        config = path
    out = tmp_path / "report.json"
    code = main(["verify", "--config", str(config), *options, "--out", str(out)])
    report = json.loads(out.read_text(), parse_constant=reject_constant)
    for rec in report["checks"]:
        rec["wall_time_s"] = 0.0
    return code, report


@pytest.fixture(scope="session")
def twisted_s32_run(tmp_path_factory):
    """Exit code and JSON report text of the full suite on ``twisted_s32``, one BLAS thread.

    Its root solve depends on the thread count and on how numpy rounds its complex
    products (with or without a fused multiply-add): on an x86-64 VM with OpenBLAS
    0.3.31, one thread keeps 250 of 256 sets, two keep 249.  solution-ray meets a
    rank-deficient closure matrix only with the 250, so the pin is the count that keeps
    them.
    """
    directory = tmp_path_factory.mktemp("twisted_s32")
    config, out = directory / "twisted_s32.json", directory / "report.json"
    config.write_text(json.dumps(edited_config("twisted_s32")))
    code, _, _ = run_cli("verify", "--config", str(config), "--out", str(out),
                         env={"OPENBLAS_NUM_THREADS": "1"})
    return code, out.read_text()


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
