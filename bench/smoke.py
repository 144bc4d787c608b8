"""Smoke test of the benchmark; exits non-zero on the first failure.

    python3 bench/smoke.py

Runs every workload at a tiny size through the same code path as
run.py, untraced and traced, and checks that

* every end-to-end and per-layer metric named in BENCHMARK.json is emitted,
  and no other, and runs_failed is 0;
* the output check fires on a NaN-filled timeseries.csv copy, on a flipped
  Zak phase, and on a run with `times.t_max: Infinity`.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
import time

import checks
import run as bench


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke FAILED: {what}")
    print(f"ok  {what}")


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    refs = json.loads(bench.REFERENCE.read_text())
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            res = bench.measure(workload, seed=1, seconds=0, trace=bool(trace), tiny=True)
            line = json.loads(bench.summary_line([res]))
            expect(set(line["metrics"]) == want[trace],
                   f"{workload} trace={trace}: metrics match BENCHMARK.json")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in line["metrics"].values()),
                   f"{workload} trace={trace}: every metric is a finite number")
            expect(line["failed"] == 0 and line["attempted"] >= 1 and line["correct"],
                   f"{workload} trace={trace}: runs_failed == 0 of {line['attempted']}")

    scratch = bench.WORK / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)

    # NaN-filled copy of a passing dynamics output
    _, (dyn,) = bench.plan("dynamics_n600", 1, tiny=True)
    nan_dir = scratch / "nan"
    shutil.copytree(bench.WORK / "out" / dyn.stem, nan_dir)
    expect(not checks.check_run("dynamics", nan_dir, refs[dyn.ref_key]),
           "unmodified dynamics copy passes the check")
    path = nan_dir / "timeseries.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0]] + [["nan"] * len(r) for r in rows[1:]])
    expect(bool(checks.check_run("dynamics", nan_dir, refs[dyn.ref_key])),
           "check fires on a NaN-filled timeseries.csv")

    # flipped Zak phase
    _, (zak,) = bench.plan("zak_nt6_k2001", 1, tiny=True)
    zak_dir = scratch / "zak"
    shutil.copytree(bench.WORK / "out" / zak.stem, zak_dir)
    records = json.loads((zak_dir / "zak.json").read_text())
    records[0]["zak_phase"] = math.pi if abs(records[0]["zak_phase"]) < 1 else 0.0
    (zak_dir / "zak.json").write_text(json.dumps(records))
    expect(bool(checks.check_run("zak", zak_dir, refs[zak.ref_key])),
           "check fires on a flipped Zak phase")

    # a run that exits 0 while writing non-finite populations must count as failed
    cfg = json.loads(dyn.config.read_text())
    cfg["times"]["t_max"] = math.inf
    inf_cfg = scratch / "t_max_infinity.json"
    inf_cfg.write_text(json.dumps(cfg))
    inf_run = bench.Run("t_max_infinity", inf_cfg, dyn.ref_key)
    rec = bench.run_cli(inf_run, refs, time.monotonic() + 120)
    expect(bool(rec["problems"]),
           f"t_max Infinity run (exit code {rec['exit_code']}) counts as failed: "
           f"{rec['problems'][:1]}")
    print("smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
