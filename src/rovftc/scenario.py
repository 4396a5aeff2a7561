"""Scenario files: YAML schema, validation, overrides, and shipped presets.

A scenario file has sections `vehicle`, `gains`, `fdi`, `sim`,
`trajectory`, and `faults`. Any section left out falls back to the
packaged defaults (see presets/defaults.yaml, which doubles as the schema
reference). Validation failures raise ScenarioError with the offending
key path in the message.
"""

from __future__ import annotations

import importlib.resources
import math
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


def _defaults() -> dict:
    with (_presets_dir() / "defaults.yaml").open() as fh:
        return yaml.safe_load(fh)


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
    boolean (`true`, `yes`, `on`) would run as 1.0."""
    if isinstance(raw, bool):
        raise ScenarioError(f"{path}: expected a number, got {raw!r}")
    try:
        value = float(raw)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: must be finite, got {raw!r}")
    return value


def _count(raw, path: str) -> int:
    """A whole number; integral floats such as 3.0 are accepted, booleans
    are not."""
    value = None if isinstance(raw, bool) else _number(raw, path)
    if value is None or value != int(value):
        raise ScenarioError(f"{path}: expected a whole number, got {raw!r}")
    return int(value)


def _array(raw, path: str) -> np.ndarray:
    try:
        entries = np.asarray(raw, dtype=object)
        arr = entries.astype(float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: expected numbers, got {raw!r}") from exc
    if any(isinstance(x, bool) for x in entries.flat):
        raise ScenarioError(f"{path}: expected numbers, got {raw!r}")
    if not np.isfinite(arr).all():
        raise ScenarioError(f"{path}: entries must be finite, got {raw!r}")
    return arr


def _matrix3(raw, path: str) -> np.ndarray:
    arr = _array(raw, path)
    if arr.shape == (3,):
        return np.diag(arr)
    if arr.shape == (3, 3):
        return arr
    raise ScenarioError(f"{path}: expected 3 diagonal entries or a 3x3 matrix")


def _vector(raw, n: int, path: str) -> np.ndarray:
    arr = _array(raw, path)
    if arr.shape != (n,):
        raise ScenarioError(f"{path}: expected {n} entries")
    return arr


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Apply repeatable `section.key=value` overrides. The key must
    already exist in the merged configuration."""
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in config.items()}
    for item in overrides:
        if "=" not in item:
            raise ScenarioError(f"override {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        parts = key.strip().split(".")
        node = out
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):
                raise ScenarioError(f"override {key!r}: unknown section {part!r}")
            node = node[part]
        leaf = parts[-1]
        if leaf not in node:
            raise ScenarioError(f"override {key!r}: no such config key")
        try:
            node[leaf] = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"override {key!r}: {raw!r} is not valid YAML") from exc
    return out


def scenario_from_dict(config: dict, name: str = "scenario") -> Scenario:
    defaults = _defaults()
    unknown = sorted(set(_mapping(config, "scenario")) - set(defaults))
    if unknown:
        raise ScenarioError(f"unknown sections {unknown}; allowed: "
                            f"{', '.join(defaults)}")
    cfg = _merge(defaults, config)
    veh, g, fdi_cfg, sim, traj = (
        _mapping(cfg[key], key, defaults[key])
        for key in ("vehicle", "gains", "fdi", "sim", "trajectory"))

    try:
        params = VehicleParams(
            inertia=_matrix3(veh["inertia"], "vehicle.inertia"),
            lin_damping=_matrix3(veh["lin_damping"], "vehicle.lin_damping"),
            quad_damping=_vector(veh["quad_damping"], 3, "vehicle.quad_damping"),
            B=_matrix3(veh["B"], "vehicle.B"),
        )
    except ValueError as exc:
        raise ScenarioError(f"vehicle: {exc}") from exc

    try:
        fdi = FdiConfig(**{
            key: (_count if key == "n_consec" else _number)(val, f"fdi.{key}")
            for key, val in fdi_cfg.items()})
    except ValueError as exc:
        raise ScenarioError(f"fdi: {exc}") from exc

    try:
        geom = ThrusterGeometry(alpha=_number(veh["alpha"], "vehicle.alpha"),
                                l=_number(veh["l"], "vehicle.l"))
    except ValueError as exc:
        raise ScenarioError(f"vehicle geometry: {exc}") from exc

    try:
        bank = ThrusterBank(K=_vector(veh["K"], 4, "vehicle.K"),
                            u_max=_number(veh["u_max"], "vehicle.u_max"),
                            w_min=fdi.w_min)
    except ValueError as exc:
        raise ScenarioError(f"vehicle thrusters: {exc}") from exc

    try:
        gains = ControllerGains(
            gamma1=_vector(g["gamma1"], 3, "gains.gamma1"),
            gamma2=_vector(g["gamma2"], 3, "gains.gamma2"),
            a1=_vector(g["a1"], 3, "gains.a1"),
            a2=_vector(g["a2"], 3, "gains.a2"),
        )
    except ValueError as exc:
        raise ScenarioError(f"gains: {exc}") from exc

    segments = []
    for i, seg in enumerate(_list(traj["segments"], "trajectory.segments")):
        path = f"trajectory.segments[{i}]"
        mode = _mapping(seg, path).get("mode")
        fields = _SEGMENT_FIELDS.get(mode)
        if fields is None:
            raise ScenarioError(f"{path}: unknown mode {mode!r}")
        _mapping(seg, path, ("mode", *fields))
        try:
            segments.append(Segment(mode, **{
                key: _number(seg[key], f"{path}.{key}") for key in fields}))
        except KeyError as exc:
            raise ScenarioError(f"{path}: missing field {exc}") from exc
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
    try:
        plan = TrajectoryPlan(_vector(traj["initial_pose"], 3,
                                      "trajectory.initial_pose"), segments)
    except ValueError as exc:
        raise ScenarioError(f"trajectory: {exc}") from exc

    events = [_mapping(ev, f"faults[{i}]", ("time", "thruster", "weight"))
              for i, ev in enumerate(_list(cfg.get("faults"), "faults"))]
    try:
        schedule = FaultSchedule(
            events=[(_number(ev["time"], f"faults[{i}].time"),
                     _count(ev["thruster"], f"faults[{i}].thruster"),
                     _number(ev["weight"], f"faults[{i}].weight"))
                    for i, ev in enumerate(events)],
            settle_time=_number(sim["settle_time"], "sim.settle_time"),
        )
    except KeyError as exc:
        raise ScenarioError(f"faults: each event needs time/thruster/weight "
                            f"({exc})") from exc
    except ValueError as exc:
        raise ScenarioError(f"faults: {exc}") from exc

    try:
        return Scenario(
            name=name,
            params=params, geometry=geom, bank=bank, gains=gains, fdi=fdi,
            plan=plan, schedule=schedule,
            dt=_number(sim["dt"], "sim.dt"),
            duration=_number(sim["duration"], "sim.duration"),
            decimation=_count(sim["decimation"], "sim.decimation"),
            initial_state=_vector(sim["initial_state"], 6, "sim.initial_state"),
        )
    except ValueError as exc:
        raise ScenarioError(f"sim: {exc}") from exc


def load_scenario(ref: str, overrides: list[str] | None = None) -> Scenario:
    """Load and validate a scenario file or preset name."""
    path = resolve_scenario_path(str(ref))
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"{path}: YAML parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    name = raw.pop("name", path.stem)
    if overrides:
        raw = apply_overrides(_merge(_defaults(), raw), list(overrides))
    return scenario_from_dict(raw, name=name)


def load_validated(ref: str, overrides: list[str] | None = None):
    """`load_scenario` that reports instead of raising: returns
    (scenario, []) when valid, else (None, violation messages)."""
    try:
        return load_scenario(ref, overrides), []
    except ScenarioError as exc:
        return None, [str(exc)]
    except OSError as exc:
        return None, [f"cannot read scenario: {exc}"]


def validate_scenario(ref: str, overrides: list[str] | None = None) -> list[str]:
    """Full schema and invariant check. Returns a list of violation
    messages (empty when the scenario is valid)."""
    return load_validated(ref, overrides)[1]
