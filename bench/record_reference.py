"""Record the reference values the output check compares against.

    python3 bench/record_reference.py

Runs every packaged config and every variant (handedness x launch end) of
each generated workload, at full and at tiny size, once through the CLI and
writes their checked values (checks.extract) to bench/reference.json.
Record references on the code a benchmark baseline is taken from; a change
that moves outputs on purpose says so where it re-records them.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import checks
import run as bench


def record(runs, refs: dict) -> None:
    for r in runs:
        out = bench.WORK / "out" / r.stem
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, "-m", "heliport.cli", "run", "--config", str(r.config),
                "--out", str(out), "--threads", "1"]
        wall, *_, code, _ = bench.spawn(argv, time.monotonic() + 600)
        if code != 0:
            raise SystemExit(f"{r.stem}: exit code {code}")
        refs[r.ref_key] = checks.extract(r.mode, out)
        print(f"{r.ref_key}: {wall:.2f} s", flush=True)


def main() -> int:
    refs = {}
    runs = []
    for tiny in (True, False):
        runs += bench.plan("paper_figs", 0, tiny)[1]
        for workload in bench.GENERATED:
            runs += [bench.generated_run(workload, h, e, tiny) for h, e in bench.VARIANTS]
    unique = {r.ref_key: r for r in runs}
    record(unique.values(), refs)
    bench.REFERENCE.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
