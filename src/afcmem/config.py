"""INI-style configuration with embedded defaults.

Every tunable lives in a flat [section] key = value file. Unknown
sections or keys are rejected rather than ignored, so a typo cannot
silently fall back to a default, and a key that sizes a computation
must lie in its accepted range (_LIMITS). The merged configuration has a
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
from .refdata import ETA_M_BENCH, ETA_T_MEAN, F_C_MEAN, F_T_MEAN, MU1_ERR, MU1_MEAN, MU_SCAN

# Defaults; each key's type tag (float int bool str floatlist strlist) is
# taken from its default's type. The working-point values come from the
# dataclasses and from refdata, so each is stated once.
_EXPERIMENT = {f.name: f.default for f in fields(ExperimentConfig)}

_SCHEMA: dict[str, dict[str, Any]] = {
    "memory": {f.name: f.default for f in fields(MemoryParams)},
    "schedule": {f.name: f.default for f in fields(StorageSchedule)},
    "detection": {k: _EXPERIMENT[k] for k in (
        "detector_efficiency", "dark_rate", "transmission_to_detector", "bin_width")},
    "simulate": {
        "input_state": _EXPERIMENT["input_state"],
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


# Accepted ranges of the keys that size a computation, checked when a
# config file is loaded, before anything is allocated or written. Each
# bound-search level evaluates grid_points^3 candidates, and there are
# refine_rounds + 1 levels. The bootstrap fits all of its resamples in
# one batch, about 1.5 kB of arrays per resample (15 MB at 10,000). A
# bound-curve point ([bounds] n_points, [reproduce] bound_points) costs
# one plain, one threshold and one transmitted bound, about 3 ms at the
# default grid on a 2-core Xeon, so 1,000 points take about 3 s. A
# [predict] point costs about 45 us and 60 B of CSV there, so 100,000
# points take about 5 s and 18 MB. A mu grid needs its two end points.
_LIMITS: dict[tuple[str, str], tuple[int, int]] = {
    ("bounds", "grid_points"): (2, 256),
    ("bounds", "refine_rounds"): (0, 16),
    ("bounds", "n_points"): (2, 1_000),
    ("reproduce", "bound_points"): (1, 1_000),
    ("predict", "n_points"): (2, 100_000),
    ("tomography", "resamples"): (100, 10_000),
    ("reproduce", "resamples"): (100, 10_000),
}

# Work budget of one command's transmitted-bound search, in candidates:
# (mu points + the four working points) x (refine_rounds + 1) levels x
# grid_points^3. Over the 24 mu of a default bounds run, a candidate costs
# 0.8-1.8 ns at grid_points = 256 and 6-12 ns at the default 50 on a 2-core
# Xeon, so the budget is 1 to 15 s of search. It admits every
# key of _LIMITS at its limit with the others at their defaults (the largest,
# grid_points = 256 under bounds, is 24 x 3 x 256^3 = 1.21e9 candidates), and
# it rejects keys that multiply: n_points = 1000 with grid_points = 256 and
# refine_rounds = 16 is 2.9e11, about 2.5 hours (8.6-9.4 s a mu there, or
# 30-33 ns a candidate: the deep levels are flat, and few cells are skipped).
_BOUND_CANDIDATES = 1_250_000_000


def check_bound_budget(points: int, source: str, bounds: Mapping[str, Any]) -> int:
    """Candidates of a transmitted-bound search over points mu (set by source) and the
    working points under the [bounds] section; ConfigError when they exceed the budget."""
    count = (points + len(MU_SCAN)) * (bounds["refine_rounds"] + 1) * bounds["grid_points"] ** 3
    if count > _BOUND_CANDIDATES:
        raise ConfigError(f"bound search of {count:.3g} candidates exceeds the budget of "
                          f"{_BOUND_CANDIDATES:.3g}: lower {source}, [bounds] grid_points "
                          f"or [bounds] refine_rounds")
    return count


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
    cfg = parse_config_text(text, source=path)
    for (section, key), (lo, hi) in _LIMITS.items():
        if not lo <= cfg[section][key] <= hi:
            raise ConfigError(f"{path}: [{section}] {key} = {cfg[section][key]} is outside "
                              f"the accepted range [{lo}, {hi}]")
    return cfg


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
