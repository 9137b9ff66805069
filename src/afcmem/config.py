"""INI-style configuration with embedded defaults.

Every tunable lives in a flat [section] key = value file. Unknown
sections or keys are rejected rather than ignored, so a typo cannot
silently fall back to a default. The merged configuration has a
canonical text rendering whose sha256 prefix is stamped into every
output file, which is what makes re-runs auditable.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import fields
from typing import Any, Mapping

from .errors import ConfigError
from .memory import MemoryParams, StorageSchedule
from .montecarlo import ExperimentConfig
from .polarization import STATE_LABELS, standard_state
from .refdata import ETA_M_BENCH, ETA_T_MEAN, F_C_MEAN, F_T_MEAN, MU1_ERR, MU1_MEAN

# Defaults; each key's type tag (float int bool str floatlist strlist) is
# taken from its default's type. The working-point values come from the
# dataclasses and from refdata, so each is stated once.
_EXPERIMENT = {f.name: f.default for f in fields(ExperimentConfig)}

_SCHEMA: dict[str, dict[str, Any]] = {
    "memory": {f.name: f.default for f in fields(MemoryParams)},
    "schedule": {f.name: f.default for f in fields(StorageSchedule)},
    # bin_width 0 means "derive from the schedule" (a fifth of a mode)
    "detection": {k: _EXPERIMENT[k] or 0.0 for k in (
        "detector_efficiency", "dark_rate", "transmission_to_detector", "bin_width")},
    "simulate": {
        "input_state": "D",
        "mu_per_mode": (_EXPERIMENT["mu_per_mode"],),
        "trials": _EXPERIMENT["trials"],
    },
    "predict": {
        "mu_min": 0.1,
        "mu_max": 10.0,
        "n_points": 100,
        "mu1": MU1_MEAN,
        "mu1_err": MU1_ERR,
        "f_c": F_C_MEAN,
    },
    "tomography": {
        "trials": 200_000,
        "resamples": 200,
        "input_labels": ("H", "V", "D", "R"),
        "project": True,
        "mu": 1.4,
        "counts_file": "",
    },
    "bounds": {
        "mu_min": 0.5,
        "mu_max": 10.0,
        "n_points": 20,
        "eta_m": ETA_M_BENCH,
        "f_t": F_T_MEAN,
        "eta_t": ETA_T_MEAN,
        "grid_points": 50,
        "refine_rounds": 2,
        "matching": "exp",
        "k_sigma": 1.0,
    },
    "reproduce": {
        "trials": 300_000,
        "resamples": 120,
        "bound_points": 12,
    },
}


def _tag(default) -> str:
    if isinstance(default, tuple):
        return "floatlist" if all(isinstance(v, float) for v in default) else "strlist"
    return type(default).__name__


def _parse_value(tag: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if tag == "float":
            return _finite(float(raw))
        if tag == "int":
            # an integer literal, as --trials takes it; a detour through
            # float would turn 2**53 + 1 into 2**53
            value = int(raw)
            if abs(value) >= 2 ** 63:
                raise ValueError("outside the 64-bit integer range")
            return value
        if tag == "bool":
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError("not a boolean")
        if tag == "str":
            return raw
        if tag in ("floatlist", "strlist"):
            items = tuple(tok.strip() for tok in raw.split(","))
            if "" in items:
                raise ValueError("empty list item")
            return tuple(_finite(float(tok)) for tok in items) if tag == "floatlist" else items
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {tag}: {exc}") from None
    raise AssertionError(f"unknown schema tag {tag}")


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _render_value(tag: str, value) -> str:
    if tag == "bool":
        return "true" if value else "false"
    if tag in ("floatlist", "strlist"):
        return ", ".join(repr(v) if tag == "floatlist" else str(v) for v in value)
    if tag == "float":
        return repr(float(value))
    return str(value)


def default_config() -> dict[str, dict[str, Any]]:
    return {sec: dict(keys) for sec, keys in _SCHEMA.items()}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, dict[str, Any]]:
    """Merge an INI document over the defaults; unknown names are errors."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None
    cfg = default_config()
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{source}: unknown section [{section}]")
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{source}: unknown key {key!r} in [{section}]")
            tag = _tag(_SCHEMA[section][key])
            cfg[section][key] = _parse_value(tag, raw, f"{source} [{section}] {key}")
    return cfg


def load_config(path: str | None) -> dict[str, dict[str, Any]]:
    if path is None:
        return default_config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=path)


def canonical_text(cfg: Mapping[str, Mapping[str, Any]]) -> str:
    """Deterministic rendering in schema order; parses back to itself."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, default in keys.items():
            lines.append(f"{key} = {_render_value(_tag(default), cfg[section][key])}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: Mapping[str, Mapping[str, Any]]) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:12]


def detection_kwargs(cfg: Mapping[str, Mapping[str, Any]]) -> dict[str, Any]:
    """[detection] as ExperimentConfig keyword arguments, a 0 bin_width as None."""
    det = cfg["detection"]
    return {**det, "bin_width": det["bin_width"] or None}


def build_experiment_config(cfg: Mapping[str, Mapping[str, Any]], *, input_state: str | None = None,
                            mu_per_mode=None, trials: int | None = None) -> ExperimentConfig:
    sim = cfg["simulate"]
    label = sim["input_state"] if input_state is None else input_state
    if label not in STATE_LABELS:
        raise ConfigError(f"input_state must be one of {STATE_LABELS}, got {label!r}")
    mus = sim["mu_per_mode"] if mu_per_mode is None else mu_per_mode
    if isinstance(mus, (tuple, list)) and len(mus) == 1:
        mus = mus[0]
    return ExperimentConfig(
        input_state=standard_state(label),
        mu_per_mode=mus,
        schedule=StorageSchedule(**cfg["schedule"]),
        params=MemoryParams(**cfg["memory"]),
        trials=sim["trials"] if trials is None else int(trials),
        **detection_kwargs(cfg),
    )
