"""The benchmark's workloads: which configs one pass verifies, made from a seed.

A pass is a list of calls ``(config_path, seed)``; each becomes one
``bdl verify --config <path> --seed <seed>``. Generated configs are written
into the run directory, so the program sees nothing but the files it is
given. The same seed always gives the same files.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Why each was chosen is recorded in BENCHMARK.json and README.md.
NAMES = ("verify-bundled", "oracle-dense")
ORACLE_SITES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[tuple[Path, int], ...]
    # the kind of reference work (see reference.py) most like a pass
    reference: str = "interpreter"

    @property
    def configs(self) -> list[Path]:
        return sorted({path for path, _ in self.calls})


def oracle_dense_config(seed: int) -> dict:
    """Spin-1/2 periodic chain at D = 2**8 with separated real shifts."""
    rng = random.Random(seed)
    theta: list[float] = []
    while len(theta) < ORACLE_SITES:
        t = round(rng.uniform(-1.0, 1.0), 6)
        if all(abs(t - s) > 0.15 for s in theta):
            theta.append(t)
    return {
        "model": {"type": "periodic-xxx", "N": ORACLE_SITES, "c": 1.3,
                  "theta": theta, "spins": [0.5] * ORACLE_SITES},
        "suite": ["izergin-oracle", "transfer-action", "scalar-product-oracle"],
        "sizes": {"n": [1]},
        "draws": 1,
        "seed": seed,
        "output": {"format": "json"},
    }


def _write(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """The workload ``name`` at ``seed``; generated configs go to ``workdir``."""
    if name == "verify-bundled":
        bundled = sorted((root / "configs").glob("*.json"))
        return Workload(name, tuple((p, seed) for p in bundled))
    if name == "oracle-dense":
        path = _write(workdir / "oracle_dense.json", oracle_dense_config(seed))
        return Workload(name, ((path, seed),), reference="dense")
    raise KeyError(name)

