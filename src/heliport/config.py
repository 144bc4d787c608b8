"""Run configuration: strict JSON schema, validation, and resolution.

Configs are plain JSON objects.  Validation is strict (unknown keys are
rejected to catch typos) and exhaustive: all problems are collected and
reported together rather than failing at the first one.  A parsed config
keeps the original dict, so serialization round-trips unchanged and the
config hash is stable.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .geometry import EmitterGeometry, HelixParams, build_helix, load_geometry_file

MODES = ("dynamics", "bands", "zak", "field", "check")

DEFAULT_N_TIMES = 200
DEFAULT_BLOCH_N_K = 401
DEFAULT_BLOCH_M_CUT = 2000
DEFAULT_ZAK_N_K = 400
DEFAULT_DEADBAND = 1e-6

_TOP_KEYS = {"mode", "label", "geometry", "hermitian_only", "initial_state",
             "times", "tau", "snapshot_times", "helicity_deadband", "bloch",
             "zak", "field"}
_HELIX_KEYS = {"radius", "pitch", "sites_per_turn", "turns", "handedness"}
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
    n_times: int = DEFAULT_N_TIMES
    tau: Optional[float] = None
    snapshot_times: tuple[float, ...] = ()
    helicity_deadband: float = DEFAULT_DEADBAND
    bloch_n_k: int = DEFAULT_BLOCH_N_K
    bloch_m_cut: int = DEFAULT_BLOCH_M_CUT
    zak_n_k: int = DEFAULT_ZAK_N_K
    zak_biorthogonal: bool = False
    field: Optional[FieldSettings] = field(default=None)

    def to_dict(self) -> dict:
        return copy.deepcopy(self.raw)

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
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _reject_unknown(d: dict, allowed: set, path: str, errs: list[str]):
    for key in sorted(set(d) - allowed):
        errs.append(f"{path}{key}: unknown key (strict schema)")


def _validate_helix(d, errs) -> None:
    if not isinstance(d, dict):
        errs.append("geometry.helix: must be an object")
        return
    _reject_unknown(d, _HELIX_KEYS, "geometry.helix.", errs)
    for key in ("radius", "pitch"):
        if key not in d:
            errs.append(f"geometry.helix.{key}: required")
        elif not _is_number(d[key]) or d[key] <= 0:
            errs.append(f"geometry.helix.{key}: {key} must be positive")
    for key in ("sites_per_turn", "turns"):
        if key not in d:
            errs.append(f"geometry.helix.{key}: required")
        elif not _is_int(d[key]) or d[key] < 1:
            errs.append(f"geometry.helix.{key}: must be an integer >= 1")
    if "handedness" in d and d["handedness"] not in (1, -1):
        errs.append("geometry.helix.handedness: must be +1 or -1")


def _validate_geometry(raw, errs) -> None:
    geom = raw.get("geometry")
    if geom is None:
        errs.append("geometry: required")
        return
    if not isinstance(geom, dict):
        errs.append("geometry: must be an object")
        return
    _reject_unknown(geom, {"helix", "file"}, "geometry.", errs)
    has_helix = "helix" in geom
    has_file = "file" in geom
    if has_helix == has_file:
        errs.append("geometry: exactly one of 'helix' or 'file' is required")
    if has_helix:
        _validate_helix(geom["helix"], errs)
    if has_file and not isinstance(geom.get("file"), str):
        errs.append("geometry.file: must be a path string")


def _validate_initial_state(raw, errs, n_sites: Optional[int]) -> None:
    ini = raw.get("initial_state")
    if ini is None:
        return
    if not isinstance(ini, dict):
        errs.append("initial_state: must be an object")
        return
    _reject_unknown(ini, {"site", "p_up"}, "initial_state.", errs)
    if "site" not in ini:
        errs.append("initial_state.site: required")
    elif not _is_int(ini["site"]) or ini["site"] < 0:
        errs.append("initial_state.site: must be a non-negative integer")
    elif n_sites is not None and ini["site"] >= n_sites:
        errs.append(f"initial_state.site: site {ini['site']} out of range for "
                    f"{n_sites} emitters")
    if "p_up" not in ini:
        errs.append("initial_state.p_up: required")
    elif not _is_number(ini["p_up"]) or not 0.0 <= ini["p_up"] <= 1.0:
        errs.append("initial_state.p_up: must lie in the range [0, 1]")


def _validate_times(raw, errs) -> None:
    times = raw.get("times")
    if times is None:
        return
    if not isinstance(times, dict):
        errs.append("times: must be an object")
        return
    _reject_unknown(times, {"t_max", "n_times"}, "times.", errs)
    if "t_max" in times and (not _is_number(times["t_max"]) or times["t_max"] <= 0):
        errs.append("times.t_max: must be a positive number")
    if "n_times" in times and (not _is_int(times["n_times"]) or times["n_times"] < 2):
        errs.append("times.n_times: must be an integer >= 2")


def _validate_bloch(raw, errs) -> None:
    bl = raw.get("bloch")
    if bl is None:
        return
    if not isinstance(bl, dict):
        errs.append("bloch: must be an object")
        return
    _reject_unknown(bl, {"n_k", "m_cut"}, "bloch.", errs)
    if "n_k" in bl and (not _is_int(bl["n_k"]) or bl["n_k"] < 3):
        errs.append("bloch.n_k: must be an integer >= 3")
    if "m_cut" in bl and (not _is_int(bl["m_cut"]) or bl["m_cut"] < 1):
        errs.append("bloch.m_cut: must be an integer >= 1")


def _validate_zak(raw, errs) -> None:
    zk = raw.get("zak")
    if zk is None:
        return
    if not isinstance(zk, dict):
        errs.append("zak: must be an object")
        return
    _reject_unknown(zk, {"n_k", "biorthogonal"}, "zak.", errs)
    if "n_k" in zk and (not _is_int(zk["n_k"]) or zk["n_k"] < 50):
        errs.append("zak.n_k: must be an integer >= 50")
    if "biorthogonal" in zk and not isinstance(zk["biorthogonal"], bool):
        errs.append("zak.biorthogonal: must be true or false")


def _validate_field(raw, errs) -> None:
    fl = raw.get("field")
    if fl is None:
        return
    if not isinstance(fl, dict):
        errs.append("field: must be an object")
        return
    allowed = {"times", "plane_axis", "plane_offset", "n_u", "n_v", "u_span",
               "z_pad", "normalize"}
    _reject_unknown(fl, allowed, "field.", errs)
    times = fl.get("times")
    if times is not None:
        if (not isinstance(times, list) or not times
                or not all(_is_number(t) and t >= 0 for t in times)):
            errs.append("field.times: must be a non-empty list of times >= 0")
        else:
            _reject_shared_tags(times, "field.times", errs)
    if "plane_axis" in fl and fl["plane_axis"] not in ("x", "y", "z"):
        errs.append("field.plane_axis: must be 'x', 'y' or 'z'")
    if "plane_offset" in fl and not _is_number(fl["plane_offset"]):
        errs.append("field.plane_offset: must be a number")
    for key in ("n_u", "n_v"):
        if key in fl and (not _is_int(fl[key]) or fl[key] < 2):
            errs.append(f"field.{key}: must be an integer >= 2")
    for key in ("u_span", "z_pad"):
        if key in fl and (not _is_number(fl[key]) or fl[key] <= 0):
            errs.append(f"field.{key}: must be a positive number")
    if "normalize" in fl and fl["normalize"] not in _NORMALIZE_MODES:
        errs.append(f"field.normalize: must be one of {list(_NORMALIZE_MODES)}")


def validate_config_dict(raw) -> list[str]:
    """All validation errors for a config dict (empty list = valid)."""
    if not isinstance(raw, dict):
        return ["config root must be a JSON object"]
    errs: list[str] = []
    _reject_unknown(raw, _TOP_KEYS, "", errs)

    mode = raw.get("mode")
    if mode is None:
        errs.append("mode: required")
    elif mode not in MODES:
        errs.append(f"mode: must be one of {list(MODES)}, got {mode!r}")

    _validate_geometry(raw, errs)

    n_sites = None
    helix = isinstance(raw.get("geometry"), dict) and raw["geometry"].get("helix")
    if isinstance(helix, dict) and _is_int(helix.get("sites_per_turn")) \
            and _is_int(helix.get("turns")):
        n_sites = helix["sites_per_turn"] * helix["turns"]

    if "label" in raw and not isinstance(raw["label"], str):
        errs.append("label: must be a string")
    if "hermitian_only" in raw and not isinstance(raw["hermitian_only"], bool):
        errs.append("hermitian_only: must be true or false")
    if "tau" in raw and (not _is_number(raw["tau"]) or raw["tau"] <= 0):
        errs.append("tau: must be a positive number")
    if "snapshot_times" in raw:
        st = raw["snapshot_times"]
        if not isinstance(st, list) or not all(_is_number(t) and t >= 0 for t in st):
            errs.append("snapshot_times: must be a list of times >= 0")
        else:
            _reject_shared_tags(st, "snapshot_times", errs)
    if "helicity_deadband" in raw and (not _is_number(raw["helicity_deadband"])
                                       or raw["helicity_deadband"] <= 0):
        errs.append("helicity_deadband: must be a positive number")

    _validate_initial_state(raw, errs, n_sites)
    _validate_times(raw, errs)
    _validate_bloch(raw, errs)
    _validate_zak(raw, errs)
    _validate_field(raw, errs)

    # mode-specific requirements
    if mode == "dynamics":
        if "initial_state" not in raw:
            errs.append("initial_state: required for dynamics mode")
        times = raw.get("times") if isinstance(raw.get("times"), dict) else {}
        if "t_max" not in times and "tau" not in raw:
            errs.append("dynamics mode needs times.t_max or tau (t_max defaults to 2*tau)")
    elif mode == "field":
        if "initial_state" not in raw:
            errs.append("initial_state: required for field mode")
        fl = raw.get("field")
        if not isinstance(fl, dict) or "times" not in fl:
            errs.append("field.times: required for field mode")
    elif mode in ("bands", "zak"):
        geom = raw.get("geometry")
        if isinstance(geom, dict) and "helix" not in geom:
            errs.append(f"geometry.helix: {mode} mode requires an inline helix "
                        "(infinite-lattice modes have no point-set analogue)")
    return errs


def parse_config(raw, base_dir=".") -> tuple[Optional[RunConfig], list[str]]:
    """Validate and resolve a config dict; returns (config, errors).

    A relative geometry.file is resolved against base_dir.
    """
    errs = validate_config_dict(raw)
    if errs:
        return None, errs

    helix = None
    geometry_file = None
    geom = raw["geometry"]
    if "helix" in geom:
        h = geom["helix"]
        helix = HelixParams(
            radius=float(h["radius"]),
            pitch=float(h["pitch"]),
            sites_per_turn=int(h["sites_per_turn"]),
            turns=int(h["turns"]),
            handedness=int(h.get("handedness", 1)),
        )
    else:
        geometry_file = str(Path(base_dir) / geom["file"])

    ini = raw.get("initial_state") or {}
    times = raw.get("times") or {}
    tau = raw.get("tau")
    t_max = times.get("t_max")
    if t_max is None and tau is not None:
        t_max = 2.0 * tau
    bl = raw.get("bloch") or {}
    zk = raw.get("zak") or {}

    field_settings = None
    fl = raw.get("field")
    if fl is not None:
        casts = {"times": lambda ts: tuple(float(t) for t in ts),
                 "n_u": int, "n_v": int, "z_pad": float}
        field_settings = FieldSettings(**{key: casts.get(key, lambda x: x)(val)
                                          for key, val in fl.items()})

    cfg = RunConfig(
        mode=raw["mode"],
        raw=copy.deepcopy(raw),
        label=raw.get("label", ""),
        helix=helix,
        geometry_file=geometry_file,
        hermitian_only=raw.get("hermitian_only", False),
        site=int(ini["site"]) if "site" in ini else None,
        p_up=float(ini["p_up"]) if "p_up" in ini else None,
        t_max=float(t_max) if t_max is not None else None,
        n_times=int(times.get("n_times", DEFAULT_N_TIMES)),
        tau=float(tau) if tau is not None else None,
        snapshot_times=tuple(float(t) for t in raw.get("snapshot_times", [])),
        helicity_deadband=float(raw.get("helicity_deadband", DEFAULT_DEADBAND)),
        bloch_n_k=int(bl.get("n_k", DEFAULT_BLOCH_N_K)),
        bloch_m_cut=int(bl.get("m_cut", DEFAULT_BLOCH_M_CUT)),
        zak_n_k=int(zk.get("n_k", DEFAULT_ZAK_N_K)),
        zak_biorthogonal=bool(zk.get("biorthogonal", False)),
        field=field_settings,
    )
    return cfg, []


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
    except json.JSONDecodeError as exc:
        return None, [f"config is not valid JSON: {exc}"]
    cfg, errs = parse_config(raw, base_dir=Path(path).parent)
    if cfg is not None and cfg.geometry_file is not None \
            and not Path(cfg.geometry_file).is_file():
        return None, [f"geometry.file: not found: {cfg.geometry_file}"]
    return cfg, errs
