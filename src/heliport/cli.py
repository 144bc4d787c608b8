"""Command-line entry point.

Usage: heliport <mode> --config <path> [--out <dir>] [--threads <n>]
[--dump-matrices], where <mode> is one of run / dynamics / bands / zak /
field / check.  `run` executes whatever mode the config declares; the named
subcommands additionally require the config to match.

Thread pinning must happen before numpy is imported, so the BLAS thread
variables are set from --threads (or the HELIPORT_THREADS environment
variable) right after argument parsing; all engine imports live inside the
runner functions, and each runner imports only the modules it calls.

Exit codes: 0 success (and --help), 1 usage/configuration error (argparse
errors and a --threads or HELIPORT_THREADS value that is not a positive
integer included), 2 numerical failure or failed self-checks.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

THREADS_ENV = "HELIPORT_THREADS"
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
_MODES = ("run", "dynamics", "bands", "zak", "field", "check")


def _thread_count(spec: str) -> int:
    """A --threads or HELIPORT_THREADS value: a positive integer."""
    try:
        n = int(spec)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {spec!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heliport",
        description="Chiral photon transport in dipole-coupled emitter helices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _MODES:
        p = sub.add_parser(name, help=f"{name} mode" if name != "run"
                           else "run the mode declared in the config")
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", default=None,
                       help="output directory (default: <config stem>_out)")
        p.add_argument("--threads", type=_thread_count, default=None,
                       help="BLAS/OpenMP thread count (also HELIPORT_THREADS)")
        p.add_argument("--dump-matrices", action="store_true",
                       help="also write the J and Gamma coupling matrices")
    return parser


def _resolve_config_path(raw: str) -> Path:
    """Literal path first; fall back to the packaged config directory."""
    path = Path(raw)
    if path.is_file():
        return path
    if path.parent == Path("."):
        name = path.name if path.suffix == ".json" else path.name + ".json"
        packaged = Path(__file__).parent / "configs" / name
        if packaged.is_file():
            return packaged
    return path


def _fail(messages, code: int) -> int:
    for msg in messages:
        print(f"error: {msg}", file=sys.stderr)
    return code


def _finite_or_none(x: float) -> float | None:
    """JSON-safe diagnostic: non-finite values are written as null."""
    return x if x < float("inf") else None


def _launch(cfg, geom):
    """(H_eff, launch state, Propagator, the propagator's manifest keys)."""
    from . import dynamics, hamiltonian

    h = hamiltonian.effective(hamiltonian.assemble(geom), cfg.hermitian_only)
    state = dynamics.initial_state(geom.n_sites, cfg.site, cfg.p_up)
    prop = dynamics.Propagator(h)
    keys = {
        "propagator_fallback": prop.use_stepper,
        "propagator_condition": _finite_or_none(prop.condition),
        "propagator_blocks": len(prop.blocks),
        "c2_residual": _finite_or_none(prop.c2_residual),
    }
    return h, state, prop, keys


def _require_finite(tables, exempt=()) -> None:
    """Raise FloatingPointError naming the file and column of the first
    non-finite value; tables maps file name -> (header, columns)."""
    import numpy as np

    for name, (header, columns) in tables.items():
        for col, values in zip(header, columns):
            if col not in exempt and not np.isfinite(values).all():
                raise FloatingPointError(f"{name}: non-finite values in column '{col}'")


def _run_dynamics(cfg, geom, out_dir: Path):
    import numpy as np

    from . import dynamics, output
    from .config import time_tag

    h, state, prop, prop_keys = _launch(cfg, geom)
    times = np.linspace(0.0, cfg.t_max, cfg.n_times)
    series = dynamics.evolve(state, h, geom, times, deadband=cfg.helicity_deadband,
                             propagator=prop)
    tables = {"timeseries.csv": (
        ["t", "trace", "P_up", "P_down", "Sz", "z_com", "eta"],
        [series.times, series.trace, series.p_up, series.p_down,
         series.sz, series.z_com, series.eta])}
    snapshots = dynamics.populations(prop, state, cfg.snapshot_times)
    for t, per_site in zip(cfg.snapshot_times, snapshots):
        tables[f"snapshot_t{time_tag(t)}.csv"] = (
            ["site", "z", "p_up", "p_down"],
            [np.arange(geom.n_sites), geom.z, per_site[:, 0], per_site[:, 1]])
    # eta is nan inside the helicity deadband by design
    _require_finite(tables, exempt=("eta",))
    for name, (header, columns) in tables.items():
        output.write_csv(out_dir / name, header, columns)

    diagnostics = {
        **prop_keys,
        "arrival_time": dynamics.arrival_time(series, geom),
        "final_trace": float(series.trace[-1]),
        "helicity_defined_fraction": float(np.mean(~np.isnan(series.eta))),
    }
    return list(tables), diagnostics, 0


def _run_bands(cfg, _geom, out_dir: Path):
    import numpy as np

    from . import bloch, output

    grid = bloch.brillouin_grid(cfg.helix.pitch, cfg.bloch_n_k)
    bands = bloch.band_structure(cfg.helix, grid, m_cut=cfg.bloch_m_cut,
                                 hermitian_only=cfg.hermitian_only)
    n_k, n_b = bands.energies.shape
    output.write_csv(out_dir / "bands.csv",
                     ["k", "band", "energy", "gamma", "sz", "v", "in_light_cone"],
                     [np.repeat(bands.k, n_b), np.tile(np.arange(n_b), n_k),
                      bands.energies.ravel(), bands.gammas.ravel(), bands.sz.ravel(),
                      bands.velocities.ravel(),
                      np.repeat(bands.in_light_cone.astype(int), n_b)])
    diagnostics = {
        "m_cut": bands.m_cut,
        "coupling_convergence": _finite_or_none(bands.convergence),
        "continuation_ambiguous_points": int(np.count_nonzero(bands.continuation_ambiguous)),
        "min_gamma": float(bands.gammas.min()),
        "max_gamma": float(bands.gammas.max()),
    }
    return ["bands.csv"], diagnostics, 0


def _run_zak(cfg, _geom, out_dir: Path):
    from . import bloch, output, topology

    grid = topology.wilson_grid(cfg.helix.pitch, cfg.zak_n_k)
    sweep = bloch.eigen_sweep(cfg.helix, grid, m_cut=cfg.bloch_m_cut, hermitian_only=True)
    gap = topology.detect_gap(sweep)
    if gap.gapped:
        groups = [("lower", gap.lower_bands), ("upper", gap.upper_bands)]
    else:
        groups = [("all", gap.lower_bands)]

    # the gap stays on the coherent sweep; biorthogonal frames need the full H(k)
    frames = (bloch.eigen_sweep(cfg.helix, grid, m_cut=cfg.bloch_m_cut)
              if cfg.zak_biorthogonal else sweep)
    results = topology.zak_phases(frames, [subset for _, subset in groups],
                                  biorthogonal=cfg.zak_biorthogonal)
    records, ill = [], []
    for (group_name, _), res in zip(groups, results):
        records.append({
            "n_sites_per_turn": cfg.helix.sites_per_turn,
            "band_group": group_name,
            "bands": list(res.band_subset),
            "n_k": res.n_k,
            "zak_phase": res.phase,
            "residual": res.residual,
            "gap_width": gap.width,
            "min_overlap_det": res.min_overlap_det,
            "ill_defined": res.ill_defined,
            "biorthogonal": res.biorthogonal,
        })
        if res.ill_defined:
            ill.append(group_name)
    output.write_json(out_dir / "zak.json", records)
    diagnostics = {
        "m_cut": sweep.m_cut,
        "coupling_convergence": _finite_or_none(sweep.convergence),
        "gap_width": gap.width,
        "band_groups": [name for name, _ in groups],
        "ill_defined_groups": ill,
    }
    return ["zak.json"], diagnostics, 0


def _field_preflight(fs) -> None:
    """Refuse a field plane whose arrays alone would exceed physical memory."""
    n_points = fs.n_u * fs.n_v
    # bytes per plane point: its coordinates (3 floats), the raw and scaled
    # maps of both spins at every time, the u/v CSV columns and write_csv's
    # three columns of Python floats (about 32 bytes each)
    need = n_points * (3 * 8 + 2 * 2 * len(fs.times) * 8 + 2 * 8 + 3 * 32)
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > phys:
        raise ValueError(f"field.n_u x field.n_v = {fs.n_u} x {fs.n_v} needs about "
                         f"{need / 2**30:.3g} GiB for the maps, more than the "
                         f"{phys / 2**30:.3g} GiB of physical memory")


def _run_field(cfg, geom, out_dir: Path):
    fs = cfg.field
    _field_preflight(fs)

    import numpy as np

    from . import field, output
    from .config import time_tag

    _, state, prop, prop_keys = _launch(cfg, geom)
    plane = field.default_plane(geom, axis=fs.plane_axis, offset=fs.plane_offset,
                                n_u=fs.n_u, n_v=fs.n_v, u_span=fs.u_span,
                                z_pad=fs.z_pad)
    times = np.array(fs.times, dtype=float)
    amps = [prop.propagate(a0, times) for a0 in state.amplitudes]
    fmaps = field.intensity_maps(state.weights, amps, geom, plane, times,
                                 normalize=fs.normalize)

    names = [{spin: f"field_t{time_tag(t)}_{spin}.csv" for spin in ("up", "down")}
             for t in fs.times]
    for fmap, frame_names in zip(fmaps, names):
        for spin, grid in (("up", fmap.i_up), ("down", fmap.i_down)):
            # masked near-field points are nan by design; any other is a failure
            if np.count_nonzero(~np.isfinite(grid)) > fmap.n_masked:
                raise FloatingPointError(f"{frame_names[spin]}: non-finite intensity "
                                         "outside the near-field mask")

    ax_u, ax_v = plane.axis_labels
    n_u, n_v = len(plane.u), len(plane.v)
    u_col, v_col = np.repeat(plane.u, n_v), np.tile(plane.v, n_u)
    outputs, frames = [], []
    for fmap, frame_names in zip(fmaps, names):
        for spin, grid in (("up", fmap.i_up), ("down", fmap.i_down)):
            output.write_csv(out_dir / frame_names[spin], [ax_u, ax_v, "intensity"],
                             [u_col, v_col, grid.ravel()])
            outputs.append(frame_names[spin])
        frames.append({
            "time": fmap.time,
            "files": frame_names,
            "norm_max": fmap.norm_max,
            "n_masked": fmap.n_masked,
        })

    meta = {
        "plane": {
            "normal_axis": plane.normal_axis,
            "offset": plane.offset,
            "axes": [ax_u, ax_v],
            f"{ax_u}_range": [float(plane.u[0]), float(plane.u[-1])],
            f"{ax_v}_range": [float(plane.v[0]), float(plane.v[-1])],
            "n_u": n_u,
            "n_v": n_v,
        },
        "normalize": cfg.field.normalize,
        "frames": frames,
    }
    output.write_json(out_dir / "field_meta.json", meta)
    outputs.append("field_meta.json")
    diagnostics = {
        **prop_keys,
        "n_masked_near_field": frames[0]["n_masked"] if frames else 0,
    }
    return outputs, diagnostics, 0


def _run_check(cfg, _geom, out_dir: Path):
    from . import output, selfcheck

    n_fail, report = selfcheck.run_checks(cfg)
    output.write_json(out_dir / "check_report.json",
                      {"n_failed": n_fail, "checks": report})
    diagnostics = {
        "n_checks": len(report),
        "n_failed": n_fail,
        "failed": [r["name"] for r in report if not r["passed"]],
    }
    if n_fail:
        print(f"error: {n_fail} self-check(s) failed", file=sys.stderr)
    return ["check_report.json"], diagnostics, 2 if n_fail else 0


_RUNNERS = {"dynamics": _run_dynamics, "bands": _run_bands, "zak": _run_zak,
            "field": _run_field, "check": _run_check}


def _dump_matrices(geom, out_dir: Path):
    import numpy as np

    from . import hamiltonian, output

    coup = hamiltonian.assemble(geom)
    idx = np.arange(coup.j.shape[0])
    rows, cols = np.repeat(idx, len(idx)), np.tile(idx, len(idx))
    for name, matrix in (("J.csv", coup.j), ("Gamma.csv", coup.gamma)):
        output.write_csv(out_dir / name, ["row", "col", "re", "im"],
                         [rows, cols, matrix.real.ravel(), matrix.imag.ravel()])
    return ["J.csv", "Gamma.csv"]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
        return 1 if exc.code else 0
    threads = args.threads
    if threads is None and THREADS_ENV in os.environ:
        try:
            threads = _thread_count(os.environ[THREADS_ENV])
        except argparse.ArgumentTypeError as exc:
            return _fail([f"{THREADS_ENV}: {exc}"], 1)
    if threads is not None:
        for var in _BLAS_VARS:
            os.environ[var] = str(threads)

    # engine imports only after the thread environment is pinned
    from .config import config_sha256, load_config

    cfg_path = _resolve_config_path(args.config)
    if not cfg_path.is_file():
        return _fail([f"config file not found: {args.config}"], 1)
    cfg, errors = load_config(cfg_path)
    if errors:
        return _fail(errors, 1)
    if args.command != "run" and args.command != cfg.mode:
        return _fail([f"config declares mode '{cfg.mode}' but the "
                      f"'{args.command}' subcommand was invoked"], 1)

    out_dir = Path(args.out) if args.out else Path(f"{cfg_path.stem}_out")
    out_dir.mkdir(parents=True, exist_ok=True)

    import numpy as np
    import scipy

    try:
        geom = cfg.build_geometry()
        outputs, diagnostics, exit_code = _RUNNERS[cfg.mode](cfg, geom, out_dir)
        if args.dump_matrices:
            outputs.extend(_dump_matrices(geom, out_dir))
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError) as exc:
        return _fail([f"numerical failure: {exc}"], 2)
    except ValueError as exc:
        return _fail([str(exc)], 1)

    from . import __version__
    from .output import write_json

    write_json(out_dir / "manifest.json", {
        "tool": "heliport",
        "version": __version__,
        "mode": cfg.mode,
        "label": cfg.label,
        "config": cfg_path.name,
        "config_sha256": config_sha256(cfg.raw),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "threads": threads,
        "outputs": outputs,
        "diagnostics": diagnostics,
    })
    print(f"{cfg.mode}: wrote {len(outputs)} file(s) to {out_dir}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
