"""Scenario files: YAML schema, validation, overrides, and shipped presets.

A scenario file has sections `vehicle`, `gains`, `fdi`, `sim`,
`trajectory`, and `faults`. Any section left out falls back to the
packaged defaults (see presets/defaults.yaml, which doubles as the schema
reference). Validation failures raise ScenarioError with the offending
key path in the message.
"""

from __future__ import annotations

import copy
import functools
import importlib.resources
import math
import re
from numbers import Real
from pathlib import Path

import numpy as np
import yaml

from .controller import ControllerGains
from .fdi import FdiConfig
from .simulation import FaultSchedule, Scenario
from .trajectory import Segment, TrajectoryPlan
from .vehicle import ThrusterBank, ThrusterGeometry, VehicleParams


class ScenarioError(ValueError):
    """Scenario file failed schema or invariant validation."""


def _presets_dir():
    return importlib.resources.files("rovftc") / "presets"


def list_presets() -> list[str]:
    names = [p.name[:-5] for p in _presets_dir().iterdir()
             if p.name.endswith(".yaml") and p.name != "defaults.yaml"]
    return sorted(names)


def preset_path(name: str) -> Path:
    p = _presets_dir() / f"{name}.yaml"
    if not p.is_file():
        raise ScenarioError(f"unknown preset {name!r}; available: "
                            f"{', '.join(list_presets())}")
    return Path(str(p))


def resolve_scenario_path(ref: str) -> Path:
    """A scenario reference is either a file path or a preset name."""
    p = Path(ref)
    if p.is_file():
        return p
    if "/" not in ref and not ref.endswith(".yaml"):
        return preset_path(ref)
    raise ScenarioError(f"scenario file not found: {ref}")


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The one YAML loader: libyaml's safe loader where PyYAML has it, with
    YAML 1.2 floats, so that a plain `1e-2` is a number and `"1e-2"` is not."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"), "-+.0123456789")


@functools.cache
def _parsed_defaults() -> dict:
    with (_presets_dir() / "defaults.yaml").open() as fh:
        return yaml.load(fh, Loader=_Loader)


def _defaults() -> dict:
    """defaults.yaml, parsed once per process; a deep copy for each
    caller, since merged configurations share its nested lists."""
    return copy.deepcopy(_parsed_defaults())


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


#: the fields each segment mode takes, besides `mode` itself
_SEGMENT_FIELDS = {"straight": ("duration", "speed", "heading"),
                   "turn": ("duration", "speed", "yaw_rate"),
                   "hold": ("duration",)}


def _mapping(raw, path: str, allowed=None) -> dict:
    """`raw` as a mapping; with `allowed`, every key must be one of them,
    so a misspelt key fails instead of leaving its default in force."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {raw!r}")
    if allowed is not None:
        unknown = [key for key in raw if key not in allowed]
        if unknown:
            raise ScenarioError(f"{path}: unknown keys {unknown}; allowed: "
                                f"{', '.join(allowed)}")
    return raw


def _list(raw, path: str) -> list:
    """`raw` as a list; null stands for an empty one."""
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ScenarioError(f"{path}: expected a list, got {raw!r}")
    return raw


def _number(raw, path: str) -> float:
    """A finite float. NaN would pass every `<=` range check further in
    and then turn comparisons such as saturation silently false; a YAML
    boolean (`true`, `yes`, `on`) would run as 1.0; a quoted number such
    as `"0.5"` is most likely a mistake in the file."""
    if isinstance(raw, bool) or not isinstance(raw, Real):
        raise ScenarioError(f"{path}: expected a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError as exc:  # an int beyond the float range
        raise ScenarioError(f"{path}: must be finite, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: must be finite, got {raw!r}")
    return value


def _file_name(raw) -> str:
    """The scenario name, which names its output files in --out: a
    non-empty string that is one path component, so that no name can
    write outside --out."""
    if (not isinstance(raw, str) or raw in ("", ".", "..")
            or any(ch in raw for ch in "/\\\0")):
        raise ScenarioError("name: expected one file name (no '/', '\\' "
                            f"or NUL; not '.' or '..'), got {raw!r}")
    return raw


def _count(raw, path: str) -> int:
    """A whole number; integral floats such as 3.0 are accepted, booleans
    are not."""
    value = None if isinstance(raw, bool) else _number(raw, path)
    if value is None or value != int(value):
        raise ScenarioError(f"{path}: expected a whole number, got {raw!r}")
    return int(value)


def _array(raw, path: str) -> np.ndarray:
    """A scalar or (nested) list, each entry read by `_number`."""
    entries = np.asarray(raw, dtype=object)
    return np.array([_number(x, path) for x in entries.flat]).reshape(entries.shape)


def _section(raw, path: str, schema: dict) -> dict:
    """Every key of the section `raw`, read by the type of its value in
    `schema` (the section of defaults.yaml): an int as a whole number, a
    list as a finite array, anything else as a finite float. Shapes are
    left to the model classes, which own them."""
    out = {}
    for key, val in _mapping(raw, path, schema).items():
        default = schema[key]
        read = (_count if isinstance(default, int) else
                _array if isinstance(default, list) else _number)
        out[key] = read(val, f"{path}.{key}")
    return out


def _built(where: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`, with a model invariant's ValueError
    reported as a ScenarioError under `where`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Merge each `a.b=v` over `config` as `{a: {b: v}}`; a non-mapping on
    the path is an error, unknown keys are left to the schema reader."""
    for item in overrides:
        if "=" not in item:
            raise ScenarioError(f"override {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        try:
            value = yaml.load(raw, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"override {key!r}: {raw!r} is not valid YAML") from exc
        parts, node = key.strip().split("."), config
        for i, part in enumerate(parts):
            node = _mapping(node, ".".join(parts[:i]) or "scenario").get(part, {})
        for part in reversed(parts):
            value = {part: value}
        config = _merge(config, value)
    return config


def scenario_from_dict(config: dict, name: str = "scenario") -> Scenario:
    name = _file_name(name)
    defaults = _defaults()
    cfg = _merge(defaults, _mapping(config, "scenario", defaults))
    veh, g, fdi_cfg, sim = (_section(cfg[key], key, defaults[key])
                            for key in ("vehicle", "gains", "fdi", "sim"))
    traj = _mapping(cfg["trajectory"], "trajectory", defaults["trajectory"])

    fdi = _built("fdi", FdiConfig, **fdi_cfg)
    params = _built("vehicle", VehicleParams, veh["inertia"],
                    veh["lin_damping"], veh["quad_damping"], veh["B"])
    geom = _built("vehicle geometry", ThrusterGeometry, veh["alpha"], veh["l"])
    bank = _built("vehicle thrusters", ThrusterBank, veh["K"],
                  u_max=veh["u_max"], w_min=fdi.w_min)
    gains = _built("gains", ControllerGains, **g)

    segments = []
    for i, seg in enumerate(_list(traj["segments"], "trajectory.segments")):
        path = f"trajectory.segments[{i}]"
        mode = _mapping(seg, path).get("mode")
        fields = _SEGMENT_FIELDS.get(mode)
        if fields is None:
            raise ScenarioError(f"{path}: unknown mode {mode!r}")
        _mapping(seg, path, ("mode", *fields))
        segments.append(_built(path, Segment, mode, **{
            key: _number(seg.get(key), f"{path}.{key}") for key in fields}))
    plan = _built("trajectory", TrajectoryPlan,
                  _array(traj["initial_pose"], "trajectory.initial_pose"),
                  segments)

    events = [_mapping(ev, f"faults[{i}]", ("time", "thruster", "weight"))
              for i, ev in enumerate(_list(cfg.get("faults"), "faults"))]
    schedule = _built("faults", FaultSchedule, [
        (_number(ev.get("time"), f"faults[{i}].time"),
         _count(ev.get("thruster"), f"faults[{i}].thruster"),
         _number(ev.get("weight"), f"faults[{i}].weight"))
        for i, ev in enumerate(events)], settle_time=sim.pop("settle_time"))

    return _built("sim", Scenario, name=name, params=params, geometry=geom,
                  bank=bank, gains=gains, fdi=fdi, plan=plan,
                  schedule=schedule, **sim)


def load_scenario(ref: str, overrides: list[str] | None = None) -> Scenario:
    """Load and validate a scenario file or preset name; a file that
    cannot be read or decoded is a ScenarioError too."""
    path = resolve_scenario_path(str(ref))
    try:
        with open(path, "rb") as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: YAML parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    name = raw.pop("name", path.stem)
    return scenario_from_dict(apply_overrides(raw, overrides or []), name=name)


def validate_scenario(ref: str, overrides: list[str] | None = None) -> list[str]:
    """Full schema and invariant check. Returns a list of violation
    messages (empty when the scenario is valid)."""
    try:
        load_scenario(ref, overrides)
    except ScenarioError as exc:
        return [str(exc)]
    return []
