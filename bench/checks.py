"""Output check behind `runs_failed`.

A CLI run passes only when it exited 0 (checked by the caller) and

* manifest.json exists and lists outputs that all exist, including the
  mode's main product;
* every column the output schema promises finite is finite: `eta` may be
  nan inside the helicity dead-band, and a field map may hold nan only at
  its masked near-field points (as many as field_meta.json reports);
* its values agree with the reference recorded for the same workload and
  variant (reference.json, written by record_reference.py):
  - quantized Zak phases, band groups and helicity signs exactly;
  - dynamics populations and field `norm_max` to RTOL of the column's
    largest magnitude;
  - sorted band energies to BAND_ATOL, only away from the |k| = k0 edge
    and only on every 10th k, because the lattice-sum truncation m_cut
    moves them there (m_cut 2000 -> 8000 moves off-edge energies by at
    most 4e-3 Gamma_0, and edge values by up to 5.6 Gamma_0).

`extract` reads one output directory into the plain values that `compare`
checks; a reference is an `extract` of a run of the parent code.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-8
BAND_ATOL = 2e-2            # units of Gamma_0
EDGE_WINDOW = 0.05          # |(|k| - k0)| <= EDGE_WINDOW * k0 is not compared
ETA_MARGIN = 1e-4           # |Sz * v| a helicity sign must clear to be compared
K0 = 2.0 * math.pi          # light-cone wavenumber in units of 1/lambda_0
SAMPLES = 20                # rows kept per compared column

MAIN_OUTPUT = {"dynamics": "timeseries.csv", "bands": "bands.csv",
               "zak": "zak.json", "field": "field_meta.json",
               "check": "check_report.json"}


class CheckError(Exception):
    """An output that breaks its schema."""


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckError(f"{path.name}: empty file")
    try:
        return rows[0], [[float(x) for x in row] for row in rows[1:]]
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def _column(path, header, rows, name, finite=True) -> list[float]:
    if name not in header:
        raise CheckError(f"{path.name}: missing column {name!r}")
    i = header.index(name)
    col = [row[i] for row in rows]
    if finite:
        bad = sum(not math.isfinite(x) for x in col)
        if bad:
            raise CheckError(f"{path.name}: {bad} non-finite value(s) in {name!r}")
    return col


def _sample(values: list) -> list:
    step = max(1, len(values) // SAMPLES)
    return values[::step]


def _finite_json(name: str, value) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckError(f"{name}: not a finite number ({value!r})")
    return float(value)


def _dynamics(out: Path, outputs: list[str]) -> dict:
    path = out / "timeseries.csv"
    header, rows = _read_csv(path)
    t = _column(path, header, rows, "t")
    cols = {c: _column(path, header, rows, c)
            for c in ("trace", "P_up", "P_down", "Sz", "z_com")}
    eta = _column(path, header, rows, "eta", finite=False)
    if any(not math.isnan(e) and e not in (1.0, -1.0) for e in eta):
        raise CheckError("timeseries.csv: eta outside {+1, -1, nan}")
    if len(t) < 2:
        raise CheckError("timeseries.csv: fewer than two rows")
    z, sz = cols["z_com"], cols["Sz"]
    margin = []
    for i in range(len(t)):
        lo, hi = max(i - 1, 0), min(i + 1, len(t) - 1)
        v = (z[hi] - z[lo]) / (t[hi] - t[lo])
        margin.append(abs(sz[i] * v))
    snaps = {}
    for name in sorted(n for n in outputs if n.startswith("snapshot_")):
        spath = out / name
        sh, srows = _read_csv(spath)
        _column(spath, sh, srows, "z")
        snaps[name] = {c: _sample(_column(spath, sh, srows, c))
                       for c in ("p_up", "p_down")}
    return {
        "rows": len(t),
        "columns": {c: _sample(cols[c]) for c in ("trace", "P_up", "P_down")},
        "eta": [0.0 if math.isnan(e) else e for e in eta],
        "eta_margin": margin,
        "snapshots": snaps,
    }


def _bands(out: Path, _outputs) -> dict:
    path = out / "bands.csv"
    header, rows = _read_csv(path)
    k = _column(path, header, rows, "k")
    energy = _column(path, header, rows, "energy")
    for c in ("gamma", "sz", "v"):
        _column(path, header, rows, c)
    by_k: dict[float, list[float]] = {}
    for kk, e in zip(k, energy):
        by_k.setdefault(kk, []).append(e)
    ks = sorted(by_k)
    kept = [[i, sorted(by_k[kk])] for i, kk in enumerate(ks)
            if i % 10 == 0 and abs(abs(kk) - K0) > EDGE_WINDOW * K0]
    return {"n_k": len(ks), "n_bands": len(by_k[ks[0]]), "energies": kept}


def _zak(out: Path, _outputs) -> dict:
    records = json.loads((out / "zak.json").read_text())
    groups = []
    for rec in records:
        for key in ("residual", "gap_width", "min_overlap_det"):
            _finite_json(f"zak.json {key}", rec.get(key))
        phase = _finite_json("zak.json zak_phase", rec.get("zak_phase"))
        groups.append([rec["band_group"], rec["bands"],
                       round(phase / math.pi) % 2, rec["ill_defined"]])
    if not groups:
        raise CheckError("zak.json: no band groups")
    return {"groups": groups}


def _field(out: Path, _outputs) -> dict:
    meta = json.loads((out / "field_meta.json").read_text())
    n_points = meta["plane"]["n_u"] * meta["plane"]["n_v"]
    frames = []
    for frame in meta["frames"]:
        for spin in ("up", "down"):
            path = out / frame["files"][spin]
            header, rows = _read_csv(path)
            if len(rows) != n_points:
                raise CheckError(f"{path.name}: {len(rows)} rows, expected {n_points}")
            _column(path, header, rows, header[0])
            _column(path, header, rows, header[1])
            inten = _column(path, header, rows, "intensity", finite=False)
            if any(math.isinf(x) for x in inten):
                raise CheckError(f"{path.name}: infinite intensity")
            n_nan = sum(math.isnan(x) for x in inten)
            if n_nan != frame["n_masked"]:
                raise CheckError(f"{path.name}: {n_nan} nan intensities but "
                                 f"{frame['n_masked']} masked points")
        norm = [_finite_json(f"norm_max {s}", frame["norm_max"][s]) for s in ("up", "down")]
        frames.append([frame["time"], frame["n_masked"], norm])
    return {"frames": frames}


def _check(out: Path, _outputs) -> dict:
    report = json.loads((out / "check_report.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if report["n_failed"] or failed:
        raise CheckError(f"check_report.json: failed checks {failed}")
    return {"checks": [c["name"] for c in report["checks"]]}


_EXTRACT = {"dynamics": _dynamics, "bands": _bands, "zak": _zak,
            "field": _field, "check": _check}


def extract(mode: str, out: Path) -> dict:
    """Values of one run's outputs; raises CheckError on a schema breach."""
    out = Path(out)
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        raise CheckError(f"manifest.json: {exc}") from None
    outputs = manifest.get("outputs")
    if not isinstance(outputs, list) or MAIN_OUTPUT[mode] not in outputs:
        raise CheckError(f"manifest.json does not list {MAIN_OUTPUT[mode]}")
    missing = [n for n in outputs if not (out / n).is_file()]
    if missing:
        raise CheckError(f"manifest.json lists missing outputs {missing}")
    try:
        return _EXTRACT[mode](out, outputs)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckError(f"{mode} outputs: {type(exc).__name__}: {exc}") from None


def _close(name: str, obs: list, ref: list, problems: list[str]) -> None:
    if len(obs) != len(ref):
        problems.append(f"{name}: {len(obs)} values, reference has {len(ref)}")
        return
    scale = max((abs(r) for r in ref), default=0.0)
    worst = max((abs(o - r) for o, r in zip(obs, ref)), default=0.0)
    if worst > RTOL * scale:
        problems.append(f"{name}: differs from reference by {worst:.3e} "
                        f"(limit {RTOL * scale:.3e})")


def compare(mode: str, obs: dict, ref: dict) -> list[str]:
    """Differences between a run's values and its reference, as messages."""
    problems: list[str] = []
    if mode == "dynamics":
        if obs["rows"] != ref["rows"]:
            return [f"timeseries.csv: {obs['rows']} rows, reference {ref['rows']}"]
        for c, values in ref["columns"].items():
            _close(f"timeseries.csv {c}", obs["columns"][c], values, problems)
        flips = [i for i, (o, r, m) in enumerate(zip(obs["eta"], ref["eta"], ref["eta_margin"]))
                 if m > ETA_MARGIN and o != r]
        if flips:
            problems.append(f"timeseries.csv: helicity sign differs at rows {flips[:5]}")
        if sorted(obs["snapshots"]) != sorted(ref["snapshots"]):
            problems.append(f"snapshots {sorted(obs['snapshots'])}, "
                            f"reference {sorted(ref['snapshots'])}")
        else:
            for name, cols in ref["snapshots"].items():
                for c, values in cols.items():
                    _close(f"{name} {c}", obs["snapshots"][name][c], values, problems)
    elif mode == "bands":
        if (obs["n_k"], obs["n_bands"]) != (ref["n_k"], ref["n_bands"]):
            return [f"bands.csv: shape {obs['n_k']}x{obs['n_bands']}, "
                    f"reference {ref['n_k']}x{ref['n_bands']}"]
        for (i, o), (j, r) in zip(obs["energies"], ref["energies"]):
            worst = max(abs(a - b) for a, b in zip(o, r))
            if i != j or worst > BAND_ATOL:
                problems.append(f"bands.csv: energies at k index {j} differ by {worst:.3e}")
                break
    elif mode == "zak":
        if obs["groups"] != ref["groups"]:
            problems.append(f"zak.json: [group, bands, phase/pi mod 2, ill_defined] "
                            f"{obs['groups']}, reference {ref['groups']}")
    elif mode == "field":
        if [f[:2] for f in obs["frames"]] != [f[:2] for f in ref["frames"]]:
            return [f"field_meta.json: frames (time, n_masked) "
                    f"{[f[:2] for f in obs['frames']]}, reference {[f[:2] for f in ref['frames']]}"]
        for o, r in zip(obs["frames"], ref["frames"]):
            _close(f"norm_max at t={r[0]}", o[2], r[2], problems)
    elif obs != ref:
        problems.append(f"{mode} outputs differ from reference: {obs} vs {ref}")
    return problems


def check_run(mode: str, out: Path, ref: dict | None) -> list[str]:
    """Every reason the outputs in `out` fail; empty when the run passes."""
    try:
        obs = extract(mode, out)
    except CheckError as exc:
        return [str(exc)]
    if ref is None:
        return ["no reference recorded for this run"]
    return compare(mode, obs, ref)
