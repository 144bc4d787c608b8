"""Command-line entry point.

Usage: heliport <mode> --config <path> [--out <dir>] [--threads <n>]
[--dump-matrices], where <mode> is one of run / dynamics / bands / zak /
field / check.  `run` executes whatever mode the config declares; the named
subcommands additionally require the config to match.

Threads are pinned before numpy is imported: the BLAS thread variables are
set from --threads (or HELIPORT_THREADS) right after argument parsing, and
each runner imports only the engine modules it calls.

Runners return (products, diagnostics, exit code) and write nothing; main
alone checks every product for non-finite numbers, then creates the output
directory and writes the products: the CSV tables one at a time
(output.write_tables), then the JSON documents, manifest.json last (a
stale one is removed first), so a directory without a manifest is
incomplete.  The dynamics and field runners take their propagator, and the
path-choice model's seconds, from dynamics.launch, which chooses its path.

Exit codes: 0 success (and --help), 1 usage/configuration error (argparse
errors, a --threads or HELIPORT_THREADS value that is not a positive
integer, and an unwritable output directory included), 2 numerical failure
(a non-finite product included), a MemoryError before the first write, or
failed self-checks.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

THREADS_ENV = "HELIPORT_THREADS"
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


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


def _propagator_keys(prop, modelled) -> dict:
    """The manifest keys of a launched propagator, read after propagation:
    its path, the products with H it made, the path-choice model's seconds
    of each path and, when a spectral build ran, its conditioning."""
    keys = {
        "propagator_path": prop.path,
        "propagator_matvecs": prop.matvecs,
        "propagator_modelled_s": {path: _finite_or_none(float(s))
                                  for path, s in modelled.items()},
    }
    if prop.condition is not None:
        keys["propagator_condition"] = _finite_or_none(prop.condition)
    return keys


# CSV columns that are nan by design: eta inside the helicity deadband, and
# intensity inside the near-field mask (the field runner counts those)
_NAN_COLUMNS = ("eta", "intensity")


def _require_finite(products) -> None:
    """Raise FloatingPointError naming the first product with a non-finite
    number; products maps a .csv name to (header, columns), any other name
    to a JSON document.  Object columns hold output.cells text, which
    output.cells refused to make from a non-finite value."""
    import json

    import numpy as np

    for name, product in products.items():
        if name.endswith(".csv"):
            for col, values in zip(*product):
                if values.dtype == object:
                    continue
                bad = np.isinf(values) if col in _NAN_COLUMNS else ~np.isfinite(values)
                if bad.any():
                    raise FloatingPointError(f"{name}: non-finite values in column '{col}'")
        else:
            try:
                json.dumps(product, allow_nan=False)
            except ValueError as exc:
                raise FloatingPointError(f"{name}: {exc}") from None


def _run_dynamics(cfg, geom):
    import numpy as np

    from . import dynamics
    from .config import time_tag
    from .output import cells

    # one propagation: the series times, then the snapshot times
    times = np.linspace(0.0, cfg.t_max, cfg.n_times)
    grid = np.concatenate([times, cfg.snapshot_times])
    state = dynamics.initial_state(geom.n_sites, cfg.site, cfg.p_up)
    prop, modelled = dynamics.launch(geom, cfg.hermitian_only, grid)
    series = dynamics.evolve(prop, state, geom, times, deadband=cfg.helicity_deadband,
                             snapshot_times=cfg.snapshot_times)
    products = {"timeseries.csv": (
        ["t", "trace", "P_up", "P_down", "Sz", "z_com", "eta"],
        [series.times, series.trace, series.p_up, series.p_down,
         series.sz, series.z_com, series.eta])}
    # every snapshot repeats the same site and z cells, formatted once
    site, z = cells(np.arange(geom.n_sites)), cells(geom.z)
    for t, snapshot in zip(cfg.snapshot_times, series.snapshots):
        products[f"snapshot_t{time_tag(t)}.csv"] = (
            ["site", "z", "p_up", "p_down"], [site, z, snapshot[:, 0], snapshot[:, 1]])
    diagnostics = {
        **_propagator_keys(prop, modelled),
        "arrival_time": dynamics.arrival_time(series),
        "final_trace": float(series.trace[-1]),
        "helicity_defined_fraction": float(np.mean(~np.isnan(series.eta))),
    }
    return products, diagnostics, 0


def _run_bands(cfg, _geom):
    import numpy as np

    from . import bloch

    grid = bloch.brillouin_grid(cfg.helix.pitch, cfg.bloch_n_k)
    bands = bloch.band_structure(cfg.helix, grid, m_cut=cfg.bloch_m_cut,
                                 hermitian_only=cfg.hermitian_only)
    n_k, n_b = bands.energies.shape
    products = {"bands.csv": (
        ["k", "band", "energy", "gamma", "sz", "v", "in_light_cone"],
        [np.repeat(bands.k, n_b), np.tile(np.arange(n_b), n_k),
         bands.energies.ravel(), bands.gammas.ravel(), bands.sz.ravel(),
         bands.velocities.ravel(), np.repeat(bands.in_light_cone.astype(int), n_b)])}
    diagnostics = {
        "m_cut": bands.m_cut, "coupling_convergence": _finite_or_none(bands.convergence),
        "continuation_ambiguous_points": int(np.count_nonzero(bands.continuation_ambiguous)),
        "continuation_ambiguous_k": bands.k[bands.continuation_ambiguous].tolist(),
        "min_gamma": float(bands.gammas.min()), "max_gamma": float(bands.gammas.max()),
    }
    return products, diagnostics, 0


def _run_zak(cfg, _geom):
    from . import bloch, topology

    grid = topology.wilson_grid(cfg.helix.pitch, cfg.zak_n_k)
    bands = bloch.band_structure(cfg.helix, grid, m_cut=cfg.bloch_m_cut, hermitian_only=True)
    gap = topology.detect_gap(bands)
    if gap.gapped:
        groups = [("lower", gap.lower_bands), ("upper", gap.upper_bands)]
    else:
        groups = [("all", gap.lower_bands)]

    # the gap stays on the coherent sweep; biorthogonal frames need the full H(k)
    frames = (bloch.band_structure(cfg.helix, grid, m_cut=cfg.bloch_m_cut)
              if cfg.zak_biorthogonal else bands)
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
    diagnostics = {
        "m_cut": bands.m_cut,
        "coupling_convergence": _finite_or_none(bands.convergence),
        "gap_width": gap.width,
        "band_groups": [name for name, _ in groups],
        "ill_defined_groups": ill,
    }
    return {"zak.json": records}, diagnostics, 0


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _host() -> dict:
    """The machine behind a run's bytes: the CPUs it may use, the BLAS
    thread variables, physical memory and numpy's enabled SIMD targets
    (the field maps take numpy's dispatched tan, whose last bits differ
    between targets)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    cpus = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else range(os.cpu_count() or 1))
    return {
        "nproc": len(cpus),
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_VARS},
        "physical_memory_bytes": _physical_memory(),
        "numpy_simd": [*umath.__cpu_baseline__, *(t for t in umath.__cpu_dispatch__
                                                  if umath.__cpu_features__.get(t))],
    }


def _field_preflight(fs) -> None:
    """Refuse a field plane whose arrays alone would exceed physical memory."""
    from .output import BLOCK_ROWS

    n_points = fs.n_u * fs.n_v
    # bytes per plane point: its coordinates (3 floats), the raw and scaled
    # maps of both spins at every time and the u/v CSV columns (one pointer
    # to an axis cell each); the CSV writer adds one formatted block of the
    # table it is writing (under 120 bytes a cell), whatever the plane size
    need = (n_points * (3 * 8 + 2 * 2 * len(fs.times) * 8 + 2 * 8)
            + BLOCK_ROWS * 3 * 120)
    phys = _physical_memory()
    if need > phys:
        raise ValueError(f"field.n_u x field.n_v = {fs.n_u} x {fs.n_v} needs about "
                         f"{need / 2**30:.3g} GiB for the maps, more than the "
                         f"{phys / 2**30:.3g} GiB of physical memory")


def _run_field(cfg, geom):
    fs = cfg.field
    _field_preflight(fs)

    import numpy as np

    from . import dynamics, field
    from .config import time_tag
    from .output import cells

    times = np.array(fs.times, dtype=float)
    state = dynamics.initial_state(geom.n_sites, cfg.site, cfg.p_up)
    prop, modelled = dynamics.launch(geom, cfg.hermitian_only, times)
    plane = field.default_plane(geom, axis=fs.plane_axis, offset=fs.plane_offset,
                                n_u=fs.n_u, n_v=fs.n_v, u_span=fs.u_span,
                                z_pad=fs.z_pad)
    amps = prop.propagate(np.array(state.amplitudes), times)
    fmaps = field.intensity_maps(state.weights, amps, geom, plane, times,
                                 normalize=fs.normalize)

    ax_u, ax_v = plane.axis_labels
    n_u, n_v = len(plane.u), len(plane.v)
    u_col, v_col = np.repeat(cells(plane.u), n_v), np.tile(cells(plane.v), n_u)
    products, frames = {}, []
    for t, fmap in zip(fs.times, fmaps):
        files = {}
        for spin, grid in (("up", fmap.i_up), ("down", fmap.i_down)):
            name = files[spin] = f"field_t{time_tag(t)}_{spin}.csv"
            # masked near-field points are nan by design; any other is a failure
            if np.count_nonzero(~np.isfinite(grid)) > fmap.n_masked:
                raise FloatingPointError(f"{name}: non-finite intensity "
                                         "outside the near-field mask")
            products[name] = ([ax_u, ax_v, "intensity"], [u_col, v_col, grid.ravel()])
        frames.append({
            "time": fmap.time,
            "files": files,
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
    products["field_meta.json"] = meta
    diagnostics = {
        **_propagator_keys(prop, modelled),
        "n_masked_near_field": frames[0]["n_masked"] if frames else 0,
    }
    return products, diagnostics, 0


def _run_check(cfg, _geom):
    from . import selfcheck

    n_fail, report = selfcheck.run_checks(cfg)
    diagnostics = {
        "n_checks": len(report),
        "n_failed": n_fail,
        "failed": [r["name"] for r in report if not r["passed"]],
    }
    if n_fail:
        print(f"error: {n_fail} self-check(s) failed", file=sys.stderr)
    products = {"check_report.json": {"n_failed": n_fail, "checks": report}}
    return products, diagnostics, 2 if n_fail else 0


_RUNNERS = {"dynamics": _run_dynamics, "bands": _run_bands, "zak": _run_zak,
            "field": _run_field, "check": _run_check}
_MODES = ("run", *_RUNNERS)


def _dump_matrices(geom):
    import numpy as np

    from . import hamiltonian
    from .output import cells

    coup = hamiltonian.assemble(geom)
    n = coup.j.shape[0]
    idx = cells(np.arange(n))
    rows, cols = np.repeat(idx, n), np.tile(idx, n)
    return {name: (["row", "col", "re", "im"],
                   [rows, cols, matrix.real.ravel(), matrix.imag.ravel()])
            for name, matrix in (("J.csv", coup.j), ("Gamma.csv", coup.gamma))}


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

    import numpy as np

    try:
        geom = cfg.build_geometry()
        products, diagnostics, exit_code = _RUNNERS[cfg.mode](cfg, geom)
        if args.dump_matrices:
            products.update(_dump_matrices(geom))
        _require_finite(products)
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError) as exc:
        return _fail([f"numerical failure: {exc}"], 2)
    except MemoryError as exc:
        return _fail([f"out of memory: {exc}"], 2)
    except ValueError as exc:
        return _fail([str(exc)], 1)

    from . import __version__
    from .output import write_json, write_tables

    out_dir = Path(args.out) if args.out else Path(f"{cfg_path.stem}_out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # the manifest marks a complete directory, so it goes first and comes last
        (out_dir / "manifest.json").unlink(missing_ok=True)
        write_tables((out_dir / name, *product) for name, product in products.items()
                     if name.endswith(".csv"))
        for name, product in products.items():
            if not name.endswith(".csv"):
                write_json(out_dir / name, product)
        write_json(out_dir / "manifest.json", {
            "tool": "heliport",
            "version": __version__,
            "mode": cfg.mode,
            "label": cfg.label,
            "config": cfg_path.name,
            "config_sha256": config_sha256(cfg.raw),
            "numpy_version": np.__version__,
            "threads": threads,
            "host": _host(),
            "outputs": list(products),
            "diagnostics": diagnostics,
        })
    except OSError as exc:
        return _fail([f"cannot write outputs: {exc}"], 1)
    print(f"{cfg.mode}: wrote {len(products)} file(s) to {out_dir}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
