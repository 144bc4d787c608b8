import copy
import dataclasses
import importlib
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heliport import cli
from heliport.config import config_sha256, load_config, parse_config

HELIX = {"radius": 0.05, "pitch": 0.175, "sites_per_turn": 3, "turns": 2,
         "handedness": 1}


def dynamics_dict(**over):
    d = {
        "mode": "dynamics",
        "geometry": {"helix": dict(HELIX)},
        "initial_state": {"site": 0, "p_up": 0.5},
        "times": {"t_max": 2.0, "n_times": 20},
        "snapshot_times": [1.0],
    }
    d.update(over)
    return d


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# ---------------------------------------------------------------- validation

def test_valid_config_passes():
    assert parse_config(dynamics_dict())[1] == []


def test_unknown_keys_rejected_everywhere():
    bad = dynamics_dict()
    bad["geometry"]["helix"]["pich"] = 0.2
    bad["extra"] = 1
    errs = parse_config(bad)[1]
    assert any("geometry.helix.pich" in e and "unknown key" in e for e in errs)
    assert any(e.startswith("extra") for e in errs)


def test_all_errors_collected_at_once():
    bad = dynamics_dict()
    bad["geometry"]["helix"]["radius"] = -1.0
    bad["initial_state"]["p_up"] = 1.5
    bad["mode"] = "explode"
    errs = parse_config(bad)[1]
    assert len(errs) >= 3
    assert any("radius" in e for e in errs)
    assert any("p_up" in e and "[0, 1]" in e for e in errs)
    assert any(e.startswith("mode") for e in errs)


def test_site_checked_against_helix_size():
    bad = dynamics_dict(initial_state={"site": 6, "p_up": 0.5})
    errs = parse_config(bad)[1]
    assert any("out of range" in e for e in errs)


def test_dynamics_needs_a_time_scale():
    bad = dynamics_dict()
    del bad["times"]
    assert any("t_max" in e for e in parse_config(bad)[1])
    ok = dynamics_dict(tau=1.3)
    del ok["times"]
    assert parse_config(ok)[1] == []
    cfg, errs = parse_config(ok)
    assert errs == []
    assert cfg.t_max == pytest.approx(2.6)  # defaults to twice the transit time


def test_parse_defaults():
    cfg, errs = parse_config(dynamics_dict())
    assert errs == []
    assert cfg.bloch_n_k == 401 and cfg.bloch_m_cut == 2000
    assert cfg.zak_n_k == 400
    assert cfg.helicity_deadband == pytest.approx(1e-6)
    assert cfg.snapshot_times == (1.0,)
    assert cfg.helix.n_sites == 6


def test_roundtrip_and_hash_stability():
    raw = dynamics_dict()
    cfg, _ = parse_config(raw)
    assert cfg.raw == raw
    reordered = json.loads(json.dumps(raw, sort_keys=True))
    assert config_sha256(raw) == config_sha256(reordered)
    assert config_sha256(raw) != config_sha256(dynamics_dict(tau=9.9))


def test_config_sha256_is_hashlib_sha256_of_the_canonical_json():
    import hashlib

    names = sorted(path.stem for path in cli._resolve_config_path("check").parent.glob("*.json"))
    assert len(names) == 16
    for name in names:
        cfg, errs = load_config(cli._resolve_config_path(name))
        assert errs == []
        canon = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":")).encode()
        assert config_sha256(cfg.raw) == hashlib.sha256(canon).hexdigest(), name


def test_load_config_reports_json_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    cfg, errs = load_config(path)
    assert cfg is None and errs


# ----------------------------------------------------------------------- CLI

def run_cli(args):
    return cli.main([str(a) for a in args])


def test_cli_dynamics_end_to_end(tmp_path):
    cfg = write_config(tmp_path, dynamics_dict())
    out = tmp_path / "out"
    assert run_cli(["dynamics", "--config", cfg, "--out", out]) == 0

    ts = (out / "timeseries.csv").read_text().splitlines()
    assert ts[0] == "t,trace,P_up,P_down,Sz,z_com,eta"
    assert len(ts) == 21
    snap = (out / "snapshot_t1.csv").read_text().splitlines()
    assert snap[0] == "site,z,p_up,p_down"
    assert len(snap) == 7

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "heliport"
    assert manifest["mode"] == "dynamics"
    assert manifest["config_sha256"] == config_sha256(dynamics_dict())
    assert "timeseries.csv" in manifest["outputs"]
    assert "numpy_version" in manifest and "scipy_version" not in manifest
    host = manifest["host"]
    assert set(host) == {"nproc", "blas_threads", "physical_memory_bytes", "numpy_simd"}
    assert host["nproc"] >= 1 and host["physical_memory_bytes"] > 0
    assert set(host["blas_threads"]) == set(cli._BLAS_VARS)
    assert all(isinstance(target, str) for target in host["numpy_simd"])


def test_cli_snapshot_matches_the_evolve_row_at_its_time(tmp_path):
    from heliport import dynamics, hamiltonian
    from heliport.geometry import HelixParams, build_helix

    cfg = write_config(tmp_path, dynamics_dict(times={"t_max": 2.0, "n_times": 21}))
    out = tmp_path / "out"
    assert run_cli(["dynamics", "--config", cfg, "--out", out]) == 0
    snap = np.loadtxt(out / "snapshot_t1.csv", delimiter=",", skiprows=1)
    geom = build_helix(HelixParams(**HELIX))
    prop = dynamics.dense_propagator(hamiltonian.effective(hamiltonian.assemble(geom)))
    state, times = dynamics.initial_state(geom.n_sites, 0, 0.5), np.linspace(0.0, 2.0, 21)
    series = dynamics.evolve(prop, state, geom, times, snapshot_times=[1.0])
    assert series.times[10] == 1.0
    per_site = dynamics.populations(prop, state, times)
    assert np.allclose(snap[:, 2:], per_site[10], rtol=1e-12, atol=1e-15)
    assert np.allclose(snap[:, 2:], series.snapshots[0], rtol=1e-12, atol=1e-15)


def test_cli_dynamics_non_finite_output_exits_2_and_writes_nothing(tmp_path, capsys):
    # a single emitter decays as e^{-t}; by t = 800 the trace underflows to 0
    # and the centre of mass becomes 0/0
    cfg = write_config(tmp_path, dynamics_dict(
        geometry={"helix": dict(HELIX, sites_per_turn=1, turns=1)},
        initial_state={"site": 0, "p_up": 1.0},
        times={"t_max": 1000.0, "n_times": 11}))
    out = tmp_path / "out"
    assert run_cli(["dynamics", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "timeseries.csv" in err and "z_com" in err
    assert not out.exists()


def test_cli_outputs_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, dynamics_dict())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "--config", cfg, "--out", out1]) == 0
    assert run_cli(["run", "--config", cfg, "--out", out2]) == 0
    for name in ("timeseries.csv", "snapshot_t1.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_dump_matrices(tmp_path):
    cfg = write_config(tmp_path, dynamics_dict())
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out, "--dump-matrices"]) == 0
    for name in ("J.csv", "Gamma.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 1 + 12 * 12


def test_cli_subcommand_must_match_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, dynamics_dict())
    assert run_cli(["bands", "--config", cfg, "--out", tmp_path / "x"]) == 1
    assert "mode" in capsys.readouterr().err


def test_cli_rejects_invalid_config(tmp_path, capsys):
    bad = dynamics_dict()
    bad["geometry"]["helix"]["pich"] = 1.0
    cfg = write_config(tmp_path, bad)
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "x"]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_cli_missing_config(tmp_path, capsys):
    assert run_cli(["run", "--config", tmp_path / "nope.json"]) == 1
    assert "not found" in capsys.readouterr().err


def test_cli_resolves_packaged_config(tmp_path):
    out = tmp_path / "zak1"
    assert run_cli(["run", "--config", "fig4_N1", "--out", out]) == 0
    records = json.loads((out / "zak.json").read_text())
    assert len(records) == 1
    rec = records[0]
    for key in ("n_sites_per_turn", "band_group", "n_k", "zak_phase",
                "residual", "gap_width"):
        assert key in rec
    assert rec["band_group"] == "all"
    assert abs(rec["zak_phase"]) < 1e-6


def test_cli_bands_and_field_outputs(tmp_path):
    bands_cfg = write_config(tmp_path, {
        "mode": "bands",
        "geometry": {"helix": dict(HELIX)},
        "bloch": {"n_k": 21, "m_cut": 100},
    }, "bands.json")
    out_b = tmp_path / "bands_out"
    assert run_cli(["bands", "--config", bands_cfg, "--out", out_b]) == 0
    lines = (out_b / "bands.csv").read_text().splitlines()
    assert lines[0] == "k,band,energy,gamma,sz,v,in_light_cone"
    assert len(lines) == 1 + 21 * 6

    field_cfg = write_config(tmp_path, {
        "mode": "field",
        "geometry": {"helix": dict(HELIX)},
        "initial_state": {"site": 0, "p_up": 0.5},
        "field": {"times": [0.5], "n_u": 7, "n_v": 9},
    }, "field.json")
    out_f = tmp_path / "field_out"
    assert run_cli(["field", "--config", field_cfg, "--out", out_f]) == 0
    up = (out_f / "field_t0.5_up.csv").read_text().splitlines()
    assert up[0] == "y,z,intensity"
    assert len(up) == 1 + 7 * 9
    assert (out_f / "field_t0.5_down.csv").exists()
    meta = json.loads((out_f / "field_meta.json").read_text())
    assert meta["plane"]["normal_axis"] == "x"
    assert meta["frames"][0]["time"] == 0.5


def test_cli_field_csvs_hold_their_own_polarization(tmp_path):
    field_cfg = write_config(tmp_path, {
        "mode": "field",
        "geometry": {"helix": dict(HELIX)},
        "initial_state": {"site": 0, "p_up": 1.0},
        "field": {"times": [0.5], "n_u": 7, "n_v": 9, "normalize": "none"},
    }, "field.json")
    out = tmp_path / "field_out"
    assert run_cli(["field", "--config", field_cfg, "--out", out]) == 0
    frame = json.loads((out / "field_meta.json").read_text())["frames"][0]
    for spin in ("up", "down"):
        data = np.genfromtxt(out / frame["files"][spin], delimiter=",",
                             skip_header=1)
        assert np.nanmax(data[:, 2]) == pytest.approx(frame["norm_max"][spin],
                                                      rel=1e-12)
    assert frame["norm_max"]["up"] != pytest.approx(frame["norm_max"]["down"])
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["propagator_condition"] >= 1.0


def field_run_dict(**field_over):
    return {"mode": "field", "geometry": {"helix": dict(HELIX, turns=20)},
            "initial_state": {"site": 0, "p_up": 0.5},
            "field": dict({"times": [0.5, 1.0, 2.0], "n_u": 41, "n_v": 51}, **field_over)}


def test_cli_field_builds_kernel_once_per_chunk(tmp_path, monkeypatch):
    from heliport import dynamics, field

    kernel_calls, propagate_calls, buffers = [], [], set()
    kernel, propagate = field._field_kernel, dynamics.Propagator.propagate

    def counted_kernel(positions, pts, k):
        assert k.shape == (6, len(pts), len(positions))
        kernel_calls.append(len(pts))
        buffers.add(k.__array_interface__["data"][0])
        return kernel(positions, pts, k)

    def counted_propagate(self, a0, times):
        propagate_calls.append(len(times))
        return propagate(self, a0, times)

    monkeypatch.setattr(field, "_field_kernel", counted_kernel)
    monkeypatch.setattr(dynamics.Propagator, "propagate", counted_propagate)
    cfg = write_config(tmp_path, field_run_dict())
    assert run_cli(["field", "--config", cfg, "--out", tmp_path / "out"]) == 0
    chunk = field._chunk_points(60)
    assert chunk < 41 * 51                      # the plane spans several chunks
    assert len(kernel_calls) == -(-41 * 51 // chunk)
    assert sum(kernel_calls) == 41 * 51
    assert len(buffers) == 1                    # every chunk fills the same kernel buffer
    assert propagate_calls == [3]               # all branches and times at once


def test_cli_field_nan_intensity_exits_2_and_names_file(tmp_path, monkeypatch, capsys):
    from heliport import dynamics

    propagate = dynamics.Propagator.propagate

    def nan_propagate(self, a0, times):
        amps = propagate(self, a0, times)
        amps[-1, 2] = np.nan                    # last time, site 1, spin up
        return amps

    monkeypatch.setattr(dynamics.Propagator, "propagate", nan_propagate)
    cfg = write_config(tmp_path, field_run_dict(n_u=7, n_v=9))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["field", "--config", cfg, "--out", out]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "field_t2_up.csv" in err and "near-field mask" in err
    assert not (out / "manifest.json").exists()


def test_cli_field_oversized_plane_refused_before_allocation(tmp_path, capsys):
    import time

    cfg = write_config(tmp_path, field_run_dict(n_u=10**6, n_v=10**6))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert run_cli(["field", "--config", cfg, "--out", out]) == 1
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert "field.n_u" in err and "field.n_v" in err and "MemoryError" not in err
    assert not (out / "manifest.json").exists()


def test_cli_check_mode_passes(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "check",
        "geometry": {"helix": dict(HELIX)},
        "bloch": {"n_k": 21, "m_cut": 120},
    }, "check.json")
    out = tmp_path / "check_out"
    assert run_cli(["check", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["n_failed"] == 0
    assert len(report["checks"]) >= 14


@pytest.mark.parametrize("sites_per_turn, turns", [(1, 1), (2, 2)])
def test_cli_check_passes_on_one_and_two_sites_per_turn(tmp_path, sites_per_turn, turns):
    # a straight chain is spin-degenerate at every k, and two sites per turn
    # pair degenerate folds at the invariant points
    helix = dict(HELIX, sites_per_turn=sites_per_turn, turns=turns)
    cfg = write_config(tmp_path, {"mode": "check", "geometry": {"helix": helix},
                                  "bloch": {"n_k": 81, "m_cut": 1000}}, "check.json")
    out = tmp_path / "check_out"
    assert run_cli(["check", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["n_failed"] == 0
    assert [c["passed"] for c in report["checks"]] == [True] * 15


def test_cli_check_failure_exits_2(tmp_path, monkeypatch):
    from heliport import selfcheck

    def always_fails(cfg, rng):
        raise selfcheck.CheckFailure("forced failure")

    monkeypatch.setattr(selfcheck, "CHECKS", [("forced", always_fails)])
    cfg = write_config(tmp_path, {
        "mode": "check",
        "geometry": {"helix": dict(HELIX)},
    }, "check.json")
    assert run_cli(["check", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_cli_memory_error_exits_2_without_a_manifest(tmp_path, monkeypatch, capsys):
    def exhausted(cfg, geom):
        raise MemoryError("Unable to allocate 64.0 TiB")     # nothing is allocated

    monkeypatch.setitem(cli._RUNNERS, "dynamics", exhausted)
    out = tmp_path / "out"
    assert run_cli(["dynamics", "--config", write_config(tmp_path, dynamics_dict()),
                    "--out", out]) == 2
    assert "out of memory: Unable to allocate 64.0 TiB" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_cli_subcommands_are_the_config_modes():
    from heliport import config

    assert set(cli._RUNNERS) == set(config.MODES)
    assert cli._MODES == ("run", *config.MODES)


def test_cli_threads_flag_pins_blas_env(tmp_path, monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cfg = write_config(tmp_path, dynamics_dict())
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "o",
                    "--threads", "1"]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "1"
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["threads"] == 1


# ------------------------------------------------- geometry paths and planes

def write_helix_geometry(path):
    from heliport.geometry import HelixParams, build_helix

    geom = build_helix(HelixParams(**HELIX))
    path.write_text(json.dumps({"positions": geom.positions.tolist(),
                                "label": "six-site helix"}))


def test_cli_relative_geometry_file_resolves_from_config_dir(tmp_path, monkeypatch):
    cfg_dir, elsewhere = tmp_path / "cfg", tmp_path / "elsewhere"
    cfg_dir.mkdir()
    elsewhere.mkdir()
    write_helix_geometry(cfg_dir / "geom.json")
    from_file = dynamics_dict(geometry={"file": "geom.json"})
    cfg = write_config(cfg_dir, from_file)
    inline = write_config(tmp_path, dynamics_dict(), "inline.json")
    monkeypatch.chdir(elsewhere)
    assert run_cli(["dynamics", "--config", cfg, "--out", tmp_path / "f"]) == 0
    assert run_cli(["dynamics", "--config", inline, "--out", tmp_path / "h"]) == 0
    for name in ("timeseries.csv", "snapshot_t1.csv"):
        assert (tmp_path / "f" / name).read_bytes() == (tmp_path / "h" / name).read_bytes()


def test_cli_check_with_relative_geometry_file(tmp_path, monkeypatch):
    cfg_dir, elsewhere = tmp_path / "cfg", tmp_path / "elsewhere"
    cfg_dir.mkdir()
    elsewhere.mkdir()
    write_helix_geometry(cfg_dir / "geom.json")
    cfg = write_config(cfg_dir, {"mode": "check", "geometry": {"file": "geom.json"}})
    monkeypatch.chdir(elsewhere)
    out = tmp_path / "check_out"
    assert run_cli(["check", "--config", cfg, "--out", out]) == 0
    assert json.loads((out / "check_report.json").read_text())["n_failed"] == 0


def field_meta_for_axis(tmp_path, axis):
    cfg = write_config(tmp_path, {
        "mode": "field",
        "geometry": {"helix": dict(HELIX)},
        "initial_state": {"site": 0, "p_up": 0.5},
        "field": {"times": [0.5], "n_u": 5, "n_v": 7, "plane_axis": axis},
    }, f"field_{axis}.json")
    out = tmp_path / f"field_{axis}"
    assert run_cli(["field", "--config", cfg, "--out", out]) == 0
    return json.loads((out / "field_meta.json").read_text())["plane"]


def test_cli_field_plane_axis_y_spans_x_and_z(tmp_path):
    plane = field_meta_for_axis(tmp_path, "y")
    assert plane["normal_axis"] == "y" and plane["axes"] == ["x", "z"]
    assert plane["offset"] == pytest.approx(0.5)             # 10 x radius
    assert plane["x_range"] == pytest.approx([-0.15, 0.15])  # 6 x radius
    z_top = 5 * HELIX["pitch"] / 3
    half = 0.5 * 1.2 * z_top                                 # z_pad x the z extent
    assert plane["z_range"] == pytest.approx([0.5 * z_top - half, 0.5 * z_top + half])
    assert (plane["n_u"], plane["n_v"]) == (5, 7)


def test_cli_field_plane_axis_z_is_transverse_on_both_axes(tmp_path):
    plane = field_meta_for_axis(tmp_path, "z")
    assert plane["normal_axis"] == "z" and plane["axes"] == ["x", "y"]
    assert plane["offset"] == pytest.approx(0.5)
    assert plane["x_range"] == pytest.approx([-0.15, 0.15])
    assert plane["y_range"] == pytest.approx([-0.15, 0.15])


# ------------------------------------------------------- non-finite numbers

NON_FINITE_PLACES = {
    "times.t_max": lambda d, x: d["times"].update(t_max=x),
    "tau": lambda d, x: d.update(tau=x),
    "helicity_deadband": lambda d, x: d.update(helicity_deadband=x),
    "geometry.helix.radius": lambda d, x: d["geometry"]["helix"].update(radius=x),
    "snapshot_times": lambda d, x: d.update(snapshot_times=[1.0, x]),
    "field.times": lambda d, x: d.update(field={"times": [0.5, x]}),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 10**400],
                         ids=["nan", "inf", "-inf", "int-beyond-float"])
@pytest.mark.parametrize("key", list(NON_FINITE_PLACES))
def test_parse_config_rejects_non_finite_numbers(key, bad):
    raw = dynamics_dict()
    NON_FINITE_PLACES[key](raw, bad)
    cfg, errs = parse_config(raw)
    assert cfg is None
    assert any(e.startswith(key) for e in errs), errs


def test_cli_integer_literal_beyond_digit_limit_exits_1(tmp_path, capsys):
    # json.load raises a plain ValueError for an int of more than 4300 digits
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dynamics_dict(tau=1.0)).replace('"tau": 1.0',
                                                              '"tau": ' + "9" * 5000))
    out = tmp_path / "o"
    assert run_cli(["run", "--config", path, "--out", out]) == 1
    assert "config is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_infinite_t_max(tmp_path, capsys):
    cfg = write_config(tmp_path, dynamics_dict(times={"t_max": float("inf")}))
    out = tmp_path / "o"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    assert "times.t_max" in capsys.readouterr().err
    assert not (out / "timeseries.csv").exists()


def test_cli_rejects_tau_whose_default_t_max_overflows(tmp_path, capsys):
    cfg = write_config(tmp_path, dynamics_dict(tau=1e308, times={"n_times": 20}))
    out = tmp_path / "o"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    assert "error: tau:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_huge_t_max_exits_2_with_only_the_error_line(tmp_path, capsys):
    cfg = write_config(tmp_path, dynamics_dict(times={"t_max": 1e300}))
    out = tmp_path / "o"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "time 1e+300" in err[0], err
    assert not out.exists()


def test_cli_huge_t_max_of_a_coherent_run_exits_2(tmp_path, capsys):
    # no phase E*t keeps a digit at t = 1e300; the populations would look finite
    cfg = write_config(tmp_path, dynamics_dict(hermitian_only=True,
                                               times={"t_max": 1e300}))
    out = tmp_path / "o"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 2
    assert "numerical failure: time 1e+300" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------ geometry file errors

def test_cli_missing_geometry_file_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dynamics_dict(geometry={"file": "absent.json"}))
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "geometry.file: not found:" in err
    assert str(tmp_path / "absent.json") in err


def test_cli_malformed_geometry_file_names_the_file(tmp_path, capsys):
    (tmp_path / "broken_geom.json").write_text("{not json")
    cfg = write_config(tmp_path, dynamics_dict(geometry={"file": "broken_geom.json"}))
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert "broken_geom.json" in capsys.readouterr().err


@pytest.mark.parametrize("coordinate", ["NaN", "Infinity"])
def test_cli_non_finite_geometry_file_names_the_file(tmp_path, capsys, coordinate):
    (tmp_path / "odd_geom.json").write_text(
        f'{{"positions": [[{coordinate}, 0, 0], [0, 0, 0.1]]}}')
    cfg = write_config(tmp_path, dynamics_dict(geometry={"file": "odd_geom.json"}))
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "odd_geom.json" in err and "finite" in err


@pytest.mark.parametrize("positions", [
    '[["1", "0", "0"], ["0", "0", "0.1"]]',
    '[[true, false, false], [0, 0, 0.1]]',
    '[[null, 0, 0], [0, 0, 0.1]]',
    '[[1%s, 0, 0], [0, 0, 0.1]]' % ("0" * 400),
    '{"a": 1}',
    '[{"x": 1}]',
    '[[0, 0], [0, 0, 0.1]]',
    '[]',
], ids=["strings", "booleans", "null", "huge_integer", "object", "list_of_objects",
        "pair", "empty"])
def test_cli_geometry_file_takes_json_numbers_only(tmp_path, capsys, positions):
    (tmp_path / "odd_geom.json").write_text(f'{{"positions": {positions}}}')
    cfg = write_config(tmp_path, dynamics_dict(geometry={"file": "odd_geom.json"}))
    out = tmp_path / "o"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "odd_geom.json" in err[0], err
    assert not out.exists()


def test_cli_zak_sums_the_lattice_once(tmp_path, monkeypatch):
    from heliport import bloch
    calls = {"chain_table": 0, "_fourier_sum": 0, "band_structure": 0}
    for name in calls:
        inner = getattr(bloch, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(bloch, name, counted)
    cfg = write_config(tmp_path, {"mode": "zak", "geometry": {"helix": dict(HELIX)},
                                  "bloch": {"n_k": 61, "m_cut": 100},
                                  "zak": {"n_k": 60}})
    assert run_cli(["zak", "--config", cfg, "--out", tmp_path / "o"]) == 0
    # one pass gives h(q) and the convergence estimate
    assert calls == {"chain_table": 1, "_fourier_sum": 1, "band_structure": 1}


def test_cli_check_sums_the_lattice_twice(tmp_path, monkeypatch):
    from heliport import bloch
    calls = {"chain_table": 0, "_fourier_sum": 0}
    for name in calls:
        inner = getattr(bloch, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(bloch, name, counted)
    cfg = write_config(tmp_path, {"mode": "check", "geometry": {"helix": dict(HELIX)},
                                  "bloch": {"n_k": 21, "m_cut": 120}}, "check.json")
    assert run_cli(["check", "--config", cfg, "--out", tmp_path / "o"]) == 0
    # one full sweep for the k-reversal symmetries, one coherent Wilson-grid
    # sweep for the frame orthonormality and the all-band loop
    assert calls == {"chain_table": 2, "_fourier_sum": 2}


def test_cli_zak_gap_matches_the_closed_band_grid(tmp_path):
    from heliport.bloch import band_structure, brillouin_grid
    from heliport.geometry import HelixParams
    from heliport.topology import detect_gap

    out = tmp_path / "n3"
    assert run_cli(["run", "--config", "fig4_N3", "--out", out]) == 0
    bands = band_structure(HelixParams(0.05, 0.175, 3, 1, 1),
                           brillouin_grid(0.175, 401), m_cut=2000, hermitian_only=True)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["gap_width"] == detect_gap(bands).width
    assert manifest["diagnostics"]["coupling_convergence"] == bands.convergence


# ------------------------------------------------------------ usage errors

@pytest.mark.parametrize("args", [
    ["explode", "--config", "fig4_N1"],
    ["run"],
    ["run", "--config", "fig4_N1", "--threads", "abc"],
    ["run", "--config", "fig4_N1", "--threads", "0"],
    ["run", "--config", "fig4_N1", "--threads", "-1"],
    ["run", "--config", "fig4_N1", "--threads=-1"],
], ids=["unknown-subcommand", "missing-config", "threads-abc", "threads-0",
        "threads-minus-1", "threads-eq-minus-1"])
def test_cli_usage_errors_exit_1(tmp_path, capsys, args):
    out = tmp_path / "o"
    assert run_cli(args + ["--out", out]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_cli_bad_threads_env_exits_1(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv(cli.THREADS_ENV, value)
    out = tmp_path / "o"
    assert run_cli(["run", "--config", "fig4_N1", "--out", out]) == 1
    assert f"error: {cli.THREADS_ENV}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [["--help"], ["run", "--help"]])
def test_cli_help_exits_0(capsys, args):
    assert run_cli(args) == 0
    assert "usage:" in capsys.readouterr().out


# --------------------------------------------------- strict JSON manifests

def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("mode, extra", [
    ("bands", {"bloch": {"n_k": 21, "m_cut": 1}}),
    ("zak", {"bloch": {"m_cut": 1}, "zak": {"n_k": 60}}),
], ids=["bands", "zak"])
def test_cli_non_finite_convergence_is_null(tmp_path, mode, extra):
    # one site per turn at m_cut 1 sums d = -1..1: no half window to compare
    helix = dict(HELIX, sites_per_turn=1)
    cfg = write_config(tmp_path, {"mode": mode, "geometry": {"helix": helix},
                                  **extra})
    out = tmp_path / "o"
    assert run_cli([mode, "--config", cfg, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=_reject_constant)
    assert manifest["diagnostics"]["coupling_convergence"] is None


# ------------------------------------------------- output file name clashes

TIMED_FILES = {
    "snapshot_times": lambda d, ts: d.update(snapshot_times=ts),
    "field.times": lambda d, ts: d.update(field={"times": ts}),
}


@pytest.mark.parametrize("key", list(TIMED_FILES))
@pytest.mark.parametrize("times, tag", [([1, 1.0000001], "t1"), ([0.5, 2, 0.5], "t0.5")],
                         ids=["g-format", "equal"])
def test_times_sharing_a_file_name_are_rejected(key, times, tag):
    raw = dynamics_dict()
    TIMED_FILES[key](raw, times)
    errs = parse_config(raw)[1]
    assert any(e.startswith(key) and tag in e for e in errs), errs


@pytest.mark.parametrize("key", list(TIMED_FILES))
def test_cli_times_sharing_a_file_name_exit_1(tmp_path, capsys, key):
    raw = dynamics_dict()
    TIMED_FILES[key](raw, [1, 1.0000001])
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------- numpy only at run time

NO_SCIPY = """\
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())
import numpy as np

from heliport import cli, dynamics
from heliport.geometry import HelixParams, build_helix
from heliport.hamiltonian import assemble, effective

paths = sys.argv[1:]
for path in paths:
    assert cli.main(["run", "--config", path, "--out", path + "_out"]) == 0
assert cli.main(["run", "--config", paths[0], "--out", paths[0] + "_dump",
                 "--dump-matrices"]) == 0
dynamics.COND_LIMIT = 0.0
geom = build_helix(HelixParams(0.05, 0.175, 3, 2, 1))
prop = dynamics.dense_propagator(effective(assemble(geom)))
assert isinstance(prop.product, dynamics.DenseProduct)
a0 = dynamics.initial_state(geom.n_sites, 0, 1.0).amplitudes[0]
assert np.isfinite(prop.propagate(a0, [0.0, 0.3, 7.9])).all()
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_runs_every_mode_and_the_fallback_without_scipy(tmp_path, fresh_python):
    configs = {
        "dynamics": dynamics_dict(),
        "field": {"mode": "field", "geometry": {"helix": dict(HELIX)},
                  "initial_state": {"site": 0, "p_up": 0.5},
                  "field": {"times": [0.5], "n_u": 5, "n_v": 7}},
        "zak": {"mode": "zak", "geometry": {"helix": dict(HELIX)},
                "bloch": {"m_cut": 100}, "zak": {"n_k": 60}},
        "bands": {"mode": "bands", "geometry": {"helix": dict(HELIX)},
                  "bloch": {"n_k": 21, "m_cut": 100}},
        "check": {"mode": "check", "geometry": {"helix": dict(HELIX)},
                  "bloch": {"n_k": 21, "m_cut": 120}},
    }
    paths = [write_config(tmp_path, raw, f"{mode}.json") for mode, raw in configs.items()]
    assert fresh_python(NO_SCIPY, *paths).splitlines()[-1] == "[]"


NO_OPENSSL = """\
import sys

from heliport import cli

for path in sys.argv[1:]:
    assert cli.main(["run", "--config", path, "--out", path + "_out"]) == 0
print("_hashlib" in sys.modules, "hashlib" in sys.modules)
"""


def test_cli_dynamics_field_bands_zak_leave_openssl_unloaded(tmp_path, fresh_python):
    # the manifest digest comes from CPython's built-in SHA-256, so no run
    # but check (numpy.random imports hmac) maps OpenSSL's libcrypto
    configs = {
        "dynamics": dynamics_dict(),
        "field": {"mode": "field", "geometry": {"helix": dict(HELIX)},
                  "initial_state": {"site": 0, "p_up": 0.5},
                  "field": {"times": [0.5], "n_u": 5, "n_v": 7}},
        "zak": {"mode": "zak", "geometry": {"helix": dict(HELIX)},
                "bloch": {"m_cut": 100}, "zak": {"n_k": 60}},
        "bands": {"mode": "bands", "geometry": {"helix": dict(HELIX)},
                  "bloch": {"n_k": 21, "m_cut": 100}},
    }
    paths = [write_config(tmp_path, raw, f"{mode}.json") for mode, raw in configs.items()]
    assert fresh_python(NO_OPENSSL, *paths).splitlines()[-1] == "False False"


# ------------------------------------------- one guard and one writer for all

def _nan_gamma(bands):
    bands.gammas[3, 1] = np.nan
    return bands


def _nan_coupling(coup):
    coup.gamma[0, 1] = np.nan
    return coup


def _nan_residual(results):
    return [dataclasses.replace(res, residual=float("nan")) for res in results]


BANDS_RUN = {"mode": "bands", "geometry": {"helix": dict(HELIX)},
             "bloch": {"n_k": 21, "m_cut": 100}}
ZAK_RUN = {"mode": "zak", "geometry": {"helix": dict(HELIX)},
           "bloch": {"m_cut": 100}, "zak": {"n_k": 60}}
# product -> (module, function whose result is spoiled, spoiler, config, flags)
NAN_PRODUCTS = {
    "bands.csv": ("bloch", "band_structure", _nan_gamma, BANDS_RUN, []),
    "Gamma.csv": ("hamiltonian", "assemble", _nan_coupling, BANDS_RUN,
                  ["--dump-matrices"]),
    "zak.json": ("topology", "zak_phases", _nan_residual, ZAK_RUN, []),
}


@pytest.mark.parametrize("name", list(NAN_PRODUCTS))
def test_cli_non_finite_product_exits_2_names_it_and_writes_nothing(
        tmp_path, monkeypatch, capsys, name):
    module, func, spoil, raw, flags = NAN_PRODUCTS[name]
    mod = importlib.import_module(f"heliport.{module}")
    inner = getattr(mod, func)
    monkeypatch.setattr(mod, func, lambda *a, **kw: spoil(inner(*a, **kw)))
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert run_cli(["run", "--config", cfg, "--out", out, *flags]) == 2
    assert f"numerical failure: {name}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_out_naming_a_file_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, dynamics_dict())
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    assert "error: cannot write outputs:" in capsys.readouterr().err
    assert out.read_text() == "not a directory"


def test_snapshots_and_matrix_dumps_share_their_index_columns():
    # an index axis is formatted once (output.cells), and every file holds
    # the same cells
    from heliport import cli

    cfg, errs = parse_config(dynamics_dict(snapshot_times=[0.5, 1.0]))
    assert errs == []
    geom = cfg.build_geometry()
    products, _, _ = cli._run_dynamics(cfg, geom)
    first, second = (products[n][1] for n in ("snapshot_t0.5.csv", "snapshot_t1.csv"))
    assert first[0] is second[0] and first[1] is second[1]         # site, z
    assert first[0].dtype == first[1].dtype == object
    dumps = cli._dump_matrices(geom)
    j, gamma = (dumps[n][1] for n in ("J.csv", "Gamma.csv"))
    assert j[0] is gamma[0] and j[1] is gamma[1]                   # row, col
    assert j[0].dtype == j[1].dtype == object


def test_cli_non_finite_axis_cell_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # a field plane's in-plane axis is formatted once into cells; a nan
    # there fails the run before any file is written
    from heliport import field

    inner = field.default_plane

    def spoiled(*args, **kwargs):
        plane = inner(*args, **kwargs)
        return dataclasses.replace(plane, u=np.append(plane.u[:-1], np.nan))

    monkeypatch.setattr(field, "default_plane", spoiled)
    cfg = write_config(tmp_path, field_run_dict(times=[0.5], n_u=4, n_v=5))
    out = tmp_path / "o"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 2
    assert "numerical failure: non-finite value in a table axis" in capsys.readouterr().err
    assert not out.exists()


def test_cli_failed_write_leaves_no_manifest(tmp_path, monkeypatch, capsys):
    from heliport import output

    cfg = write_config(tmp_path, dynamics_dict())
    out = tmp_path / "o"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    assert (out / "manifest.json").exists()
    opened = []

    class FullDisk:
        """A file whose writes fail as on a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, _text):
            raise OSError(28, "No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def second_file_fails(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        opened.append(path)
        return FullDisk(fh) if len(opened) == 2 else fh

    monkeypatch.setattr(output, "open", second_file_fails, raising=False)
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    assert "error: cannot write outputs:" in capsys.readouterr().err
    assert opened == [out / "timeseries.csv", out / "snapshot_t1.csv"]
    assert not (out / "manifest.json").exists()


# ------------------------------------------------------------- config fuzzing

def maximal_config(geometry):
    """A valid field config that sets every leaf key the schema knows."""
    return {
        "mode": "field",
        "label": "every key set",
        "geometry": geometry,
        "hermitian_only": False,
        "initial_state": {"site": 1, "p_up": 0.5},
        "times": {"t_max": 2.0, "n_times": 20},
        "tau": 1.0,
        "snapshot_times": [0.5, 1.0],
        "helicity_deadband": 1e-6,
        "bloch": {"n_k": 21, "m_cut": 100},
        "zak": {"n_k": 60, "biorthogonal": False},
        "field": {"times": [0.5, 1.0], "plane_axis": "x", "plane_offset": 0.5,
                  "n_u": 5, "n_v": 7, "u_span": 0.3, "z_pad": 1.2,
                  "normalize": "global"},
    }


MAXIMAL = [maximal_config({"helix": dict(HELIX)}),
           maximal_config({"file": "geometry.json"})]


def value_places(node, place=()):
    """Every (key or index) path below node, sections and list items included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for name, child in items:
        yield place + (name,)
        yield from value_places(child, place + (name,))


PLACES = sorted({(i, place) for i, raw in enumerate(MAXIMAL)
                 for place in value_places(raw)}, key=str)
JSON_VALUES = [None, True, "x", [], {}, -1, 0.5, 1e300]


# 1000 examples exhaust the 568 (place, value) pairs
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(where=st.sampled_from(PLACES), value=st.sampled_from(JSON_VALUES))
def test_parse_config_accepts_a_value_or_names_its_key(where, value):
    which, place = where
    raw = copy.deepcopy(MAXIMAL[which])
    parent = raw
    for name in place[:-1]:
        parent = parent[name]
    parent[place[-1]] = value
    key = ".".join(name for name in place if isinstance(name, str))
    cfg, errs = parse_config(raw)
    assert (cfg is None) == bool(errs)
    assert all(e.startswith(key) for e in errs), (key, value, errs)


@pytest.mark.parametrize("key, edit", [
    ("field.times", lambda d: d.update(mode="field", field={"times": None})),
    ("initial_state", lambda d: d.update(initial_state=None)),
    ("geometry.helix.handedness", lambda d: d["geometry"]["helix"].update(handedness=True)),
], ids=["field-times-null", "initial-state-null", "handedness-true"])
def test_cli_null_or_boolean_value_exits_1(tmp_path, capsys, key, edit):
    raw = dynamics_dict()
    edit(raw)
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    assert f"error: {key}:" in capsys.readouterr().err
    assert not out.exists()
