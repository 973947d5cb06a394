"""Experiment configuration: JSON parsing, validation, defaults.

Complex numbers in config files are either plain numbers or two-element
``[re, im]`` arrays.  Every tolerance has a default; the seed fully
determines all random draws of a run.  Config files are strict JSON: a
``NaN`` or ``Infinity`` token is a configuration error, not a float.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .models import PeriodicChainSpec, TwistSpec, twist_factors

# largest state-space dimension D a config may ask for
MAX_DIM = 4096
# largest D of a twisted (maba-xxx) chain: its root solve spans the whole
# space, and past N = 8 spin-1/2 sites a run takes minutes (README)
MAX_TWISTED_DIM = 256

DEFAULT_TOLERANCES: dict[str, float] = {
    "det_m_zero": 1e-8,
    "lse_residual": 1e-8,
    "transfer_action": 1e-9,
    "omega_two_paths": 1e-10,
    "w_det": 1e-10,
    "w_closed_form": 1e-9,
    "w_row_onshell": 1e-9,
    "w_row_offshell_min": 1e-3,
    "w_ray": 1e-8,
    "solution_ray": 1e-8,
    "izergin_oracle": 1e-8,
    "gaudin_spread": 1e-7,
    "gaudin_fd": 1e-6,
    "scalar_product_oracle": 1e-8,
    "maba_oracle": 1e-7,
    "appendix_a": 1e-9,
    "appendix_b": 1e-9,
    "asymptotic_slope": 0.35,
}

MODEL_TYPES = ("periodic-xxx", "maba-xxx", "degenerate-ytr")


def _is_number(value) -> bool:
    """A finite JSON number; booleans are excluded although Python counts them as ints."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < math.inf


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_complex(value, where: str) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")


@dataclass
class ModelConfig:
    type: str
    spec: PeriodicChainSpec | None = None
    twist: TwistSpec | None = None
    degenerate_n: int = 2
    degenerate_c: complex = 1.0


@dataclass
class ExperimentConfig:
    model: ModelConfig
    suite: list[str]
    sizes: list[int]
    draws: int
    seed: int
    tolerances: dict[str, float]
    output_path: str | None
    output_format: str
    raw: dict = field(default_factory=dict)

    def tol(self, name: str) -> float:
        return self.tolerances[name]


def _parse_model(raw: dict) -> ModelConfig:
    if not isinstance(raw, dict):
        raise ConfigError("model block must be an object")
    mtype = raw.get("type")
    if mtype not in MODEL_TYPES:
        raise ConfigError(f"model.type must be one of {MODEL_TYPES}, got {mtype!r}")
    if mtype == "degenerate-ytr":
        n = raw.get("n", 2)
        if not _is_int(n) or n < 0:
            raise ConfigError("degenerate model: n must be a non-negative integer")
        c = _as_complex(raw.get("c", 1.0), "model.c")
        if c == 0:
            raise ConfigError("model.c must be nonzero")
        return ModelConfig(type=mtype, degenerate_n=n, degenerate_c=c)

    for key in ("N", "c", "theta", "spins"):
        if key not in raw:
            raise ConfigError(f"model block is missing {key!r}")
    if not isinstance(raw["theta"], list):
        raise ConfigError("model.theta must be a list")
    theta = [_as_complex(t, "model.theta") for t in raw["theta"]]
    if not _is_int(raw["N"]):
        raise ConfigError("model.N must be an integer")
    spins = raw["spins"]
    if not isinstance(spins, list) or not all(map(_is_number, spins)):
        raise ConfigError("model.spins must be a list of numbers")
    try:
        spec = PeriodicChainSpec(n_sites=raw["N"], c=_as_complex(raw["c"], "model.c"),
                                 theta=theta, spins=spins)
    except Exception as exc:
        raise ConfigError(f"invalid chain data: {exc}") from exc
    if spec.dim > MAX_DIM:
        raise ConfigError(f"model: total dimension {spec.dim} exceeds cap {MAX_DIM}")

    twist = None
    if mtype == "maba-xxx":
        if spec.dim > MAX_TWISTED_DIM:
            raise ConfigError(f"model: total dimension {spec.dim} of a twisted chain exceeds "
                              f"cap {MAX_TWISTED_DIM}")
        tw = raw.get("twist")
        if not isinstance(tw, dict):
            raise ConfigError("maba model needs a twist block")
        try:
            twist = TwistSpec(
                kappa=_as_complex(tw["kappa"], "twist.kappa"),
                kappa_tilde=_as_complex(tw["kappa_tilde"], "twist.kappa_tilde"),
                kappa_plus=_as_complex(tw["kappa_plus"], "twist.kappa_plus"),
                kappa_minus=_as_complex(tw["kappa_minus"], "twist.kappa_minus"),
                rho1=_as_complex(tw["rho1"], "twist.rho1"),
            )
            # every maba-xxx check needs the factor matrices, and with them mu
            twist_factors(twist)
        except KeyError as exc:
            raise ConfigError(f"twist block is missing {exc.args[0]!r}") from exc
        except Exception as exc:
            raise ConfigError(f"invalid twist data: {exc}") from exc
    return ModelConfig(type=mtype, spec=spec, twist=twist)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a configuration dictionary; raises ConfigError on any defect."""
    # local import to avoid a cycle
    from .checks import applicable_checks, inapplicable_reason, registry, root_set_sizes

    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    model = _parse_model(raw.get("model", {}))

    suite = raw.get("suite", "all")
    if suite == "all":
        suite = applicable_checks(model.type, model.spec)
    else:
        if not isinstance(suite, list) or not all(isinstance(s, str) for s in suite):
            raise ConfigError("suite must be \"all\" or a list of check names")
        if not suite:
            raise ConfigError("the suite names no check")
        for i, name in enumerate(suite):
            if name not in registry():
                raise ConfigError(f"unknown check {name!r}")
            if name in suite[:i]:
                raise ConfigError(f"the suite names check {name!r} twice")
            reason = inapplicable_reason(name, model.type, model.spec)
            if reason is not None:
                raise ConfigError(f"check {name!r} {reason}")

    sizes_raw = raw.get("sizes", {})
    if not isinstance(sizes_raw, dict):
        raise ConfigError("sizes must be an object")
    sizes = sizes_raw.get("n", [1])
    if not isinstance(sizes, list) or not all(_is_int(x) and x >= 0 for x in sizes):
        raise ConfigError("sizes.n must be a list of non-negative integers")
    for i, n in enumerate(sizes):
        if n in sizes[:i]:
            raise ConfigError(f"sizes.n {sizes} names n = {n} twice")
    # a periodic chain's root-reading checks need a configured size that has root sets
    if model.type == "periodic-xxx" and not root_set_sizes(model.spec, sizes):
        readers = [name for name in suite if registry()[name].reads_roots]
        if readers:
            raise ConfigError(f"sizes.n {sizes} holds no set size with root sets (a size in 1..S/2 "
                              f"= {model.spec.magnon_capacity / 2:g} with expected_root_sets > 0), "
                              f"and {', '.join(readers)} read root sets of the configured sizes")

    draws = raw.get("draws", 3)
    if not _is_int(draws) or draws < 1:
        raise ConfigError("draws must be a positive integer")

    seed = raw.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")

    tolerances_raw = raw.get("tolerances") or {}
    if not isinstance(tolerances_raw, dict):
        raise ConfigError("tolerances must be an object")
    tolerances = dict(DEFAULT_TOLERANCES)
    for key, val in tolerances_raw.items():
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance {key!r}")
        if not _is_number(val) or val <= 0:
            raise ConfigError(f"tolerance {key!r} must be a positive number")
        tolerances[key] = float(val)

    output = raw.get("output") or {}
    if not isinstance(output, dict):
        raise ConfigError("output must be an object")
    output_path = output.get("path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output.path must be a string")
    output_format = output.get("format", "json")
    if output_format not in ("json", "csv"):
        raise ConfigError("output.format must be 'json' or 'csv'")

    return ExperimentConfig(model=model, suite=suite, sizes=sizes, draws=draws,
                            seed=seed, tolerances=tolerances,
                            output_path=output_path, output_format=output_format,
                            raw=raw)


class _Constant(str):
    """A NaN or Infinity token, which Python's JSON reader accepts and JSON does not."""


def _strict_object(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object; a NaN or Infinity token among its values names its key."""
    for key, value in pairs:
        values = [value]
        while values:
            item = values.pop()
            if isinstance(item, _Constant):
                raise ConfigError(f"{key!r} holds {item}, which is not a JSON number")
            if isinstance(item, list):
                values += item
    return dict(pairs)


def read_config(path: str | Path) -> dict:
    """The JSON object of a config file, decoded as strict JSON; not yet validated."""
    try:
        raw = json.loads(Path(path).read_text(), parse_constant=_Constant,
                         object_pairs_hook=_strict_object)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(read_config(path))
