"""heliport benchmark: end-to-end CLI metrics and a traced per-layer run.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Every run is `python -m heliport.cli run --config <cfg> --out <dir>
--threads 1` with PYTHONPATH=<repo>/src and the BLAS thread variables set
to 1, one process at a time: a closed loop with a single client.  On a
2-core host, two BLAS threads made the 600-site run ~1.15x faster for ~1.9x
the CPU, which measures the scheduler more than the program, so every
workload is single-threaded.  Each run's outputs are checked (checks.py).

--trace 0 prints the end-to-end metrics.  A pass is one run of each of the
workload's configs; passes repeat while the next one is expected to end
within --seconds (at least one pass), and wall_s, cpu_s and peak_rss_mb are
medians over passes.  setup_s comes from fresh-interpreter probes
(child.py setup), SETUP_REPEATS per mode before the window, the median per
mode summed over one pass's runs.  On a shared 2-vCPU host the same work
ran up to 25% slower for tens of seconds at a time, so the bounds in
BENCHMARK.json are wide.

--trace 1 runs one untraced pass, then one pass in which every CLI run is a
traced child (child.py) that wraps the layer functions and calls
heliport.cli.main in-process.  It prints the per-layer metrics of the
traced pass and trace.overhead_s, the traced pass's wall time minus the
untraced one's.

The last line of stdout is one JSON object: correct, attempted (CLI runs),
failed (runs that exited non-zero or failed the output check) and metrics.
A full record, with the host and provenance block, goes to
bench/_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import child

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGED = SRC / "heliport" / "configs"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"

BUDGET_S = 170.0        # one workload must end within 180 s, whatever happens
SETUP_REPEATS = 3       # setup probes per mode; their median is used
GEOMETRY = {"radius": 0.05, "pitch": 0.175}

# ROADMAP Baseline, CLI wall time with --threads 1, seconds.
BASELINE_S = {"check": 1.07, "fig2_left_bottom": 0.77, "figS2_hermitian": 0.77,
              "fig3a_bands": 1.45, "fig4_N3": 1.20, "fig4_N6": 1.74,
              "fig3b_field_ttau": 1.55}
# The packaged configs at the time the benchmark was defined, in sorted
# order; fixed so that adding or removing a config changes no workload.
PAPER_CONFIGS = ("check", "fig2_left_bottom", "fig2_left_top", "fig2_right_bottom",
                 "fig2_right_top", "fig3a_bands", "fig3b_field_t1", "fig3b_field_ttau",
                 "fig4_N1", "fig4_N2", "fig4_N3", "fig4_N4", "fig4_N5", "fig4_N6",
                 "figS1_polarized", "figS2_hermitian")
PAPER_TINY = ("check", "fig2_left_bottom", "fig4_N1")

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _helix(sites_per_turn, turns, handedness):
    return {"helix": dict(GEOMETRY, sites_per_turn=sites_per_turn, turns=turns,
                          handedness=handedness)}


# Generated workloads: (handedness, launch end, tiny) -> config.  The seed
# picks handedness and launch end; the mirror images do identical work.
def _dynamics_n600(hand, end, tiny):
    turns = 4 if tiny else 200
    return {"mode": "dynamics",
            "label": f"{3 * turns}-site dynamics, unpolarized launch at the {end} site",
            "geometry": _helix(3, turns, hand),
            "initial_state": {"site": 0 if end == "first" else 3 * turns - 1, "p_up": 0.5},
            "tau": 7.9,
            "times": {"t_max": 15.8, "n_times": 200},
            "snapshot_times": [7.9]}


def _zak_nt6_k2001(hand, _end, tiny):
    n_k, m_cut = (101, 100) if tiny else (2001, 2000)
    return {"mode": "zak",
            "label": f"N_t=6 Zak phases, bloch n_k={n_k}, zak n_k={n_k - 1}",
            "geometry": _helix(6, 1, hand),
            "bloch": {"n_k": n_k, "m_cut": m_cut},
            "zak": {"n_k": n_k - 1}}


def _field_201x3(hand, end, tiny):
    n, times = (11, [1.0]) if tiny else (201, [1.0, 4.0, 7.9])
    return {"mode": "field",
            "label": f"fig3b geometry, {n}x{n} x-plane at {len(times)} time(s)",
            "geometry": _helix(3, 20, hand),
            "initial_state": {"site": 0 if end == "first" else 59, "p_up": 0.5},
            "field": {"times": times, "plane_axis": "x", "plane_offset": 0.5,
                      "n_u": n, "n_v": n, "u_span": 0.3, "z_pad": 1.2,
                      "normalize": "global"}}


GENERATED = {"dynamics_n600": _dynamics_n600, "zak_nt6_k2001": _zak_nt6_k2001,
             "field_201x3": _field_201x3}
WORKLOADS = ("paper_figs",) + tuple(GENERATED)
VARIANTS = [(hand, end) for hand in (1, -1) for end in ("first", "last")]


class Run:
    """One CLI invocation of a workload."""

    def __init__(self, stem: str, config: Path, ref_key: str):
        self.stem, self.config, self.ref_key = stem, config, ref_key
        self.mode = json.loads(config.read_text())["mode"]


class BenchError(Exception):
    """The benchmark itself cannot run."""


def variant_name(hand: int, end: str) -> str:
    return f"hand{hand:+d}_{end}"


def ref_key(workload: str, tiny: bool, hand: int, end: str) -> str:
    return f"{workload}{'.tiny' if tiny else ''}/{variant_name(hand, end)}"


def generated_run(workload: str, hand: int, end: str, tiny: bool) -> Run:
    """Write the generated config under bench/_work and describe its run."""
    stem = f"{workload}{'_tiny' if tiny else ''}_{variant_name(hand, end)}"
    path = WORK / "configs" / f"{stem}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(GENERATED[workload](hand, end, tiny), indent=2) + "\n")
    return Run(stem, path, ref_key(workload, tiny, hand, end))


def plan(workload: str, seed: int, tiny: bool) -> tuple[str, list[Run]]:
    """(variant, runs) of one pass of the workload for this seed."""
    if workload == "paper_figs":
        return "packaged", [Run(stem, PACKAGED / f"{stem}.json", f"paper_figs/{stem}")
                            for stem in (PAPER_TINY if tiny else PAPER_CONFIGS)]
    rng = random.Random(seed)
    hand, end = rng.choice((1, -1)), rng.choice(("first", "last"))
    return variant_name(hand, end), [generated_run(workload, hand, end, tiny)]


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in child.BLAS_VARS})
    return env


def spawn(argv, deadline: float, capture: bool = False, stderr_path=None):
    """Run argv to completion; (wall_s, cpu_s, maxrss_mb, exit code, stdout).

    The child is killed at `deadline` (time.monotonic()).
    """
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stderr=err,
                                stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = proc.stdout.read().decode() if capture else ""
        if capture:
            proc.stdout.close()
    finally:
        if stderr_path:
            err.close()
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, out)


def run_cli(run: Run, refs: dict, deadline: float, traced: bool = False) -> dict:
    """One CLI run (traced in-process by child.py if `traced`), checked."""
    out = WORK / "out" / run.stem
    shutil.rmtree(out, ignore_errors=True)
    logs = WORK / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    cli_args = ["run", "--config", str(run.config), "--out", str(out), "--threads", "1"]
    spans = WORK / "spans" / f"{run.stem}.json"
    if traced:
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "child.py"), "trace", str(spans),
                repr(time.monotonic())] + cli_args
    else:
        argv = [sys.executable, "-m", "heliport.cli"] + cli_args
    wall, cpu, rss, code, _ = spawn(argv, deadline, stderr_path=logs / f"{run.stem}.err")
    if code != 0:
        problems = [f"exit code {code} (stderr in {logs / (run.stem + '.err')})"]
    else:
        problems = checks.check_run(run.mode, out, refs.get(run.ref_key))
    rec = {"stem": run.stem, "mode": run.mode, "wall_s": wall, "cpu_s": cpu,
           "rss_mb": rss, "exit_code": code, "problems": problems}
    if traced:
        try:
            rec["trace"] = json.loads(spans.read_text())
        except (OSError, ValueError) as exc:
            rec["problems"] = problems + [f"no trace: {exc}"]
    return rec


def measure_setup(runs: list[Run], deadline: float) -> tuple[float, dict, dict]:
    """setup_s summed over one pass's runs, per-mode probe samples, child env."""
    first: dict[str, Path] = {}
    for run in runs:
        first.setdefault(run.mode, run.config)

    def probe(mode, config):
        argv = [sys.executable, str(BENCH / "child.py"), "setup", mode, str(config),
                repr(time.monotonic())]
        *_, code, out = spawn(argv, deadline, capture=True)
        if code != 0:
            raise BenchError(f"setup probe for {mode} failed with exit code {code}")
        return json.loads(out.splitlines()[-1])

    samples = {mode: [] for mode in first}
    env = {}
    for _ in range(SETUP_REPEATS):
        for mode, config in first.items():
            rec = probe(mode, config)
            samples[mode].append(rec["setup_s"])
            env = rec["env"]
    per_mode = {mode: statistics.median(s) for mode, s in samples.items()}
    return sum(per_mode[run.mode] for run in runs), samples, env


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_block() -> dict:
    with open("/proc/loadavg") as fh:
        load = fh.read().split()[:3]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "phys_mem_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "loadavg_start": [float(x) for x in load],
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _span_metrics(traced: list[dict]) -> dict:
    """Per-layer metrics of one traced pass (see layer_metric_names)."""
    calls, inclusive, self_s, work, max_work = {}, {}, {}, {}, {}
    cli_self = out_s = out_bytes = out_files = 0.0
    per_config = {}
    for rec in traced:
        per_config[rec["stem"]] = rec["wall_s"]
        doc = rec.get("trace")
        if doc is None:
            continue
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        top = 0.0
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                top += end - start
        root_start, root_end = doc["root"]
        cli_self += (root_end - root_start) - top
        for i, (name, start, end, parent, w) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - covered[i]
            work[name] = work.get(name, 0) + w
            max_work[name] = max(max_work.get(name, 0), w)
            if name == "output.write" and (parent < 0 or spans[parent][0] != name):
                out_s += dur
                out_bytes += w
                out_files += 1

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return inclusive.get(name, 0.0)

    m = {"cli.self_s": cli_self}
    m.update({f"cli.{stem}_s": per_config.get(stem, 0.0) for stem in PAPER_CONFIGS})
    m.update({
        "greens.coupling_blocks_s": t("greens.coupling_blocks"),
        "greens.coupling_blocks_pairs": work.get("greens.coupling_blocks", 0),
        "greens.green_tensor_s": t("greens.green_tensor"),
        "greens.green_tensor_calls": c("greens.green_tensor"),
        "greens.green_tensor_pairs": work.get("greens.green_tensor", 0),
        "hamiltonian.assemble_s": t("hamiltonian.assemble"),
        "hamiltonian.assemble_rss_mb": max_work.get("hamiltonian.assemble", 0.0),
        "dynamics.propagator_builds": c("dynamics.propagator_init"),
        "dynamics.propagator_init_s": t("dynamics.propagator_init"),
        "dynamics.propagate_s": t("dynamics.propagate"),
        "dynamics.evolve_s": t("dynamics.evolve"),
        "dynamics.rk4_fallbacks": work.get("dynamics.propagator_init", 0),
    })
    for f in ("eig", "eigh", "inv", "cond"):
        m[f"linalg.{f}_calls"] = c(f"linalg.{f}")
        m[f"linalg.{f}_s"] = t(f"linalg.{f}")
    m["linalg.det_calls"] = c("linalg.det")
    m.update({
        "bloch.cell_couplings_calls": c("bloch.cell_couplings"),
        "bloch.cell_couplings_s": t("bloch.cell_couplings"),
        "bloch.fourier_sum_calls": c("bloch.fourier_sum"),
        "bloch.fourier_sum_s": t("bloch.fourier_sum"),
        "bloch.lattice_terms": work.get("bloch.fourier_sum", 0),
        "bloch.convergence_s": t("bloch.convergence"),
        "bloch.band_structure_s": self_s.get("bloch.band_structure", 0.0),
        "bloch.assignment_calls": c("bloch.linear_sum_assignment"),
        "bloch.assignment_s": t("bloch.linear_sum_assignment"),
        "topology.zak_phase_s": t("topology.zak_phase"),
        "topology.wilson_loop_s": t("topology.wilson_loop"),
        "topology.detect_gap_s": t("topology.detect_gap"),
        "field.intensity_map_s": self_s.get("field.intensity_map", 0.0),
        "field.points": work.get("field.intensity_map", 0),
        "output.write_s": out_s,
        "output.bytes": int(out_bytes),
        "output.files": int(out_files),
        "selfcheck.run_checks_s": t("selfcheck.run_checks"),
    })
    return m


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in print order."""
    names = list(_span_metrics([])) + ["trace.overhead_s"]
    units = {"_s": "s", "_mb": "MB", "bytes": "B"}
    return [(n, next((u for suf, u in units.items() if n.endswith(suf)), "count"))
            for n in names]


def _baseline_table(per_config: dict) -> dict:
    return {stem: {"measured_s": per_config[stem], "baseline_s": base,
                   "factor": per_config[stem] / base}
            for stem, base in BASELINE_S.items() if stem in per_config}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run one workload; the full result record (metrics under "metrics")."""
    deadline = time.monotonic() + BUDGET_S
    host = host_block()
    refs = json.loads(REFERENCE.read_text())
    variant, runs = plan(workload, seed, tiny)
    result = {"workload": workload, "seed": seed, "variant": variant, "tiny": tiny,
              "trace": int(trace), "seconds": seconds, "host": host,
              "configs": [r.stem for r in runs]}
    if trace:
        untraced = [run_cli(r, refs, deadline) for r in runs]
        traced = [run_cli(r, refs, deadline, traced=True) for r in runs]
        records = untraced + traced
        metrics = _span_metrics(traced)
        metrics["trace.overhead_s"] = (sum(r["wall_s"] for r in traced)
                                       - sum(r["wall_s"] for r in untraced))
        samples = {name: 1 for name in metrics}
        host["child_env"] = next((r["trace"]["env"] for r in traced if "trace" in r), None)
        result["absent_wrappers"] = sorted({a for r in traced
                                            for a in r.get("trace", {}).get("absent", ())})
        per_config = {r["stem"]: r["wall_s"] for r in traced}
    else:
        setup_s, setup_samples, host["child_env"] = measure_setup(runs, deadline)
        passes = []
        start = time.monotonic()
        while True:
            passes.append([run_cli(r, refs, deadline) for r in runs])
            elapsed = time.monotonic() - start
            per_pass = elapsed / len(passes)
            if elapsed + per_pass > seconds or time.monotonic() + 1.5 * per_pass > deadline:
                break
        records = [r for p in passes for r in p]
        metrics = {
            "wall_s": statistics.median(sum(r["wall_s"] for r in p) for p in passes),
            "cpu_s": statistics.median(sum(r["cpu_s"] for r in p) for p in passes),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p) for p in passes),
        }
        samples = {"wall_s": len(passes), "cpu_s": len(passes), "peak_rss_mb": len(passes),
                   "setup_s": sum(len(s) for s in setup_samples.values())}
        result["setup_samples_s"] = setup_samples
        per_config = {r.stem: statistics.median(rec["wall_s"] for rec in records
                                                if rec["stem"] == r.stem) for r in runs}
    failed = [r for r in records if r["problems"]]
    result.update({
        "metrics": metrics, "samples": samples,
        "attempted": len(records), "failed": len(failed),
        "runs": [{k: v for k, v in r.items() if k != "trace"} for r in records],
    })
    if workload == "paper_figs":
        result["baseline_comparison"] = _baseline_table(per_config)
    return result


def report(result: dict) -> None:
    """Human-readable lines for one workload (stdout; failures to stderr)."""
    print(f"heliport benchmark: workload={result['workload']} seed={result['seed']} "
          f"variant={result['variant']} trace={result['trace']}"
          f"{' tiny' if result['tiny'] else ''}")
    print("host: " + json.dumps(result["host"], sort_keys=True))
    units = dict(END_TO_END + layer_metric_names())
    for name, value in result["metrics"].items():
        n = result["samples"][name]
        what = ("probes, median per mode" if name == "setup_s"
                else "traced pass" if result["trace"] else "passes, median")
        print(f"  {name:<34} {value:>14.6g} {units[name]:<5}  n={n} {what}")
    print(f"  {'runs_failed':<34} {result['failed']:>14d} count  of {result['attempted']} runs")
    for stem, row in result.get("baseline_comparison", {}).items():
        print(f"  vs ROADMAP baseline {stem:<20} {row['measured_s']:.3f} s / "
              f"{row['baseline_s']:.2f} s = {row['factor']:.2f}x")
    if result.get("absent_wrappers"):
        print(f"  absent (not traced): {', '.join(result['absent_wrappers'])}")
    for r in result["runs"]:
        for p in r["problems"]:
            print(f"FAILED {r['stem']}: {p}", file=sys.stderr)


def summary_line(results: list[dict]) -> str:
    one = len(results) == 1
    metrics = {}
    units = dict(END_TO_END + layer_metric_names())
    for res in results:
        for name, value in res["metrics"].items():
            key = name if one else f"{res['workload']}.{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heliport" / "cli.py").is_file():
        print(f"error: no heliport sources under {SRC}", file=sys.stderr)
        return 2
    results = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            res = measure(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        path = WORK / "results" / f"{workload}_seed{args.seed}_trace{args.trace}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
        report(res)
        results.append(res)
    print(summary_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
