"""Run configuration: strict JSON schema, validation, and resolution.

Configs are plain JSON objects.  The table _KEYS is the schema: one row per
leaf key gives its dotted path, the test its JSON value must pass, the
error message when it fails, the RunConfig (or FieldSettings, HelixParams)
attribute it sets and the cast on the way.  Sections are the path prefixes,
and every other key is rejected to catch typos.  No key accepts null, and
integer keys accept JSON integers only.  A key left out takes the
dataclass default.  The few rules that span keys follow the table in
parse_config.  All problems are collected and reported together rather
than failing at the first one.  A parsed config keeps the original dict,
so the config hash is stable.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .geometry import EmitterGeometry, HelixParams, build_helix, load_geometry_file

MODES = ("dynamics", "bands", "zak", "field", "check")
_NORMALIZE_MODES = ("none", "global", "per_map")


@dataclass(frozen=True)
class FieldSettings:
    times: tuple[float, ...] = ()
    plane_axis: str = "x"
    plane_offset: Optional[float] = None     # None: 10x the max transverse radius
    n_u: int = 101
    n_v: int = 201
    u_span: Optional[float] = None           # None: 6x the max transverse radius
    z_pad: float = 1.2
    normalize: str = "none"


@dataclass(frozen=True)
class RunConfig:
    mode: str
    raw: dict
    label: str = ""
    helix: Optional[HelixParams] = None
    geometry_file: Optional[str] = None
    hermitian_only: bool = False
    site: Optional[int] = None
    p_up: Optional[float] = None
    t_max: Optional[float] = None
    n_times: int = 200
    tau: Optional[float] = None
    snapshot_times: tuple[float, ...] = ()
    helicity_deadband: float = 1e-6
    bloch_n_k: int = 401
    bloch_m_cut: int = 2000
    zak_n_k: int = 400
    zak_biorthogonal: bool = False
    field: Optional[FieldSettings] = None

    def build_geometry(self) -> EmitterGeometry:
        if self.helix is not None:
            return build_helix(self.helix)
        return load_geometry_file(self.geometry_file)


def config_sha256(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def time_tag(t) -> str:
    """A time as it appears in output file names: snapshot_t<tag>.csv, field_t<tag>_up.csv."""
    return f"{float(t):g}"


def _reject_shared_tags(times, key, errs) -> None:
    """Two times with one tag would write one file under two manifest entries."""
    tags = [time_tag(t) for t in times]
    shared = sorted({tag for tag in tags if tags.count(tag) > 1})
    if shared:
        errs.append(f"{key}: times must differ in their output file names "
                    f"(t{{t:g}}); shared: {', '.join('t' + tag for tag in shared)}")


def _is_number(x) -> bool:
    try:
        return not isinstance(x, bool) and math.isfinite(x)
    except (TypeError, OverflowError):   # not a number, or an int beyond float range
        return False


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _positive(x) -> bool:
    return _is_number(x) and x > 0


def _int_from(lo: int) -> Callable[[object], bool]:
    return lambda x: _is_int(x) and x >= lo


def _times(x) -> bool:
    return isinstance(x, list) and all(_is_number(t) and t >= 0 for t in x)


def _floats(ts) -> tuple[float, ...]:
    return tuple(float(t) for t in ts)


class _Key(NamedTuple):
    path: str                              # dotted path in the JSON config
    valid: Callable[[object], bool]        # test on the JSON value
    message: str                           # error after "<path>: "; {!r} is the value
    attr: str                              # RunConfig attribute, or helix.<a> / field.<a>
    cast: Callable = lambda x: x
    required: bool = False                 # required whenever its section is present


_KEYS = (
    _Key("mode", lambda x: x in MODES, f"must be one of {list(MODES)}, got {{!r}}",
         "mode", required=True),
    _Key("label", lambda x: isinstance(x, str), "must be a string", "label"),
    _Key("geometry.helix.radius", _positive, "radius must be positive",
         "helix.radius", float, required=True),
    _Key("geometry.helix.pitch", _positive, "pitch must be positive",
         "helix.pitch", float, required=True),
    _Key("geometry.helix.sites_per_turn", _int_from(1), "must be an integer >= 1",
         "helix.sites_per_turn", required=True),
    _Key("geometry.helix.turns", _int_from(1), "must be an integer >= 1",
         "helix.turns", required=True),
    _Key("geometry.helix.handedness", lambda x: _is_int(x) and x in (1, -1),
         "must be +1 or -1", "helix.handedness"),
    _Key("geometry.file", lambda x: isinstance(x, str), "must be a path string",
         "geometry_file"),
    _Key("hermitian_only", lambda x: isinstance(x, bool), "must be true or false",
         "hermitian_only"),
    _Key("initial_state.site", _int_from(0), "must be a non-negative integer",
         "site", required=True),
    _Key("initial_state.p_up", lambda x: _is_number(x) and 0.0 <= x <= 1.0,
         "must lie in the range [0, 1]", "p_up", float, required=True),
    _Key("times.t_max", _positive, "must be a positive number", "t_max", float),
    _Key("times.n_times", _int_from(2), "must be an integer >= 2", "n_times"),
    _Key("tau", _positive, "must be a positive number", "tau", float),
    _Key("snapshot_times", _times, "must be a list of times >= 0",
         "snapshot_times", _floats),
    _Key("helicity_deadband", _positive, "must be a positive number",
         "helicity_deadband", float),
    _Key("bloch.n_k", _int_from(3), "must be an integer >= 3", "bloch_n_k"),
    _Key("bloch.m_cut", _int_from(1), "must be an integer >= 1", "bloch_m_cut"),
    _Key("zak.n_k", _int_from(50), "must be an integer >= 50", "zak_n_k"),
    _Key("zak.biorthogonal", lambda x: isinstance(x, bool), "must be true or false",
         "zak_biorthogonal"),
    _Key("field.times", lambda x: _times(x) and len(x) > 0,
         "must be a non-empty list of times >= 0", "field.times", _floats),
    _Key("field.plane_axis", lambda x: x in ("x", "y", "z"), "must be 'x', 'y' or 'z'",
         "field.plane_axis"),
    _Key("field.plane_offset", _is_number, "must be a number", "field.plane_offset", float),
    _Key("field.n_u", _int_from(2), "must be an integer >= 2", "field.n_u"),
    _Key("field.n_v", _int_from(2), "must be an integer >= 2", "field.n_v"),
    _Key("field.u_span", _positive, "must be a positive number", "field.u_span", float),
    _Key("field.z_pad", _positive, "must be a positive number", "field.z_pad", float),
    _Key("field.normalize", lambda x: x in _NORMALIZE_MODES,
         f"must be one of {list(_NORMALIZE_MODES)}", "field.normalize"),
)

# section path -> the names allowed in it; parents come before their children
_CHILDREN: dict[str, set[str]] = {}
for _key in _KEYS:
    _parts = _key.path.split(".")
    for _i, _name in enumerate(_parts):
        _CHILDREN.setdefault(".".join(_parts[:_i]), set()).add(_name)


def parse_config(raw, base_dir=".") -> tuple[Optional[RunConfig], list[str]]:
    """Validate and resolve a config dict; returns (config, errors).

    A relative geometry.file is resolved against base_dir.
    """
    if not isinstance(raw, dict):
        return None, ["config root must be a JSON object"]
    errs: list[str] = []
    sections = {"": raw}
    for path in list(_CHILDREN)[1:]:         # the root comes first
        parent, _, name = path.rpartition(".")
        if name in sections.get(parent, {}):
            if isinstance(sections[parent][name], dict):
                sections[path] = sections[parent][name]
            else:
                errs.append(f"{path}: must be an object")
    for path, section in sections.items():
        for name in sorted(set(section) - _CHILDREN[path]):
            errs.append(f"{path}.{name}: unknown key (strict schema)" if path
                        else f"{name}: unknown key (strict schema)")

    found = {"": {}, "helix": {}, "field": {}}    # attributes by the object they set
    for key in _KEYS:
        parent, _, name = key.path.rpartition(".")
        section = sections.get(parent)
        if section is None:
            continue
        if name not in section:
            if key.required:
                errs.append(f"{key.path}: required")
        elif key.valid(section[name]):
            owner, _, attr = key.attr.rpartition(".")
            found[owner][attr] = key.cast(section[name])
        else:
            errs.append(f"{key.path}: {key.message.format(section[name])}")
    kw, helix, fs = found[""], found["helix"], found["field"]

    geom = sections.get("geometry")
    if "geometry" not in raw:
        errs.append("geometry: required")
    elif geom is not None and ("helix" in geom) == ("file" in geom):
        errs.append("geometry: exactly one of 'helix' or 'file' is required")
    if "site" in kw and "sites_per_turn" in helix and "turns" in helix:
        n_sites = helix["sites_per_turn"] * helix["turns"]
        if kw["site"] >= n_sites:
            errs.append(f"initial_state.site: site {kw['site']} out of range for "
                        f"{n_sites} emitters")
    for path, times in (("snapshot_times", kw.get("snapshot_times")),
                        ("field.times", fs.get("times"))):
        if times is not None:
            _reject_shared_tags(times, path, errs)

    mode = kw.get("mode")
    if mode in ("dynamics", "field") and "initial_state" not in raw:
        errs.append(f"initial_state: required for {mode} mode")
    if mode == "dynamics" and "t_max" not in sections.get("times", {}) and "tau" not in raw:
        errs.append("dynamics mode needs times.t_max or tau (t_max defaults to 2*tau)")
    if mode == "field" and "times" not in sections.get("field", {}):
        errs.append("field.times: required for field mode")
    if mode in ("bands", "zak") and geom is not None and "helix" not in geom:
        errs.append(f"geometry.helix: {mode} mode requires an inline helix "
                    "(infinite-lattice modes have no point-set analogue)")
    if errs:
        return None, errs

    if "t_max" not in kw and "tau" in kw:
        kw["t_max"] = 2.0 * kw["tau"]
    if "geometry_file" in kw:
        kw["geometry_file"] = str(Path(base_dir) / kw["geometry_file"])
    if "geometry.helix" in sections:
        kw["helix"] = HelixParams(**helix)
    if "field" in sections:
        kw["field"] = FieldSettings(**fs)
    return RunConfig(raw=copy.deepcopy(raw), **kw), []


def load_config(path) -> tuple[Optional[RunConfig], list[str]]:
    """Load and parse a config file; JSON errors are returned, not raised.

    A relative geometry.file is resolved against the config's directory,
    and a geometry file that does not exist is reported as a config error.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        return None, [f"cannot read config: {exc}"]
    except ValueError as exc:                # JSONDecodeError, int digit limit
        return None, [f"config is not valid JSON: {exc}"]
    cfg, errs = parse_config(raw, base_dir=Path(path).parent)
    if cfg is not None and cfg.geometry_file is not None \
            and not Path(cfg.geometry_file).is_file():
        return None, [f"geometry.file: not found: {cfg.geometry_file}"]
    return cfg, errs
