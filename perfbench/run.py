"""Benchmark entry point for ``wallcross``.

Run from the repository root:

    python3 perfbench/run.py --workload scatter --seed 1 --seconds 12 --trace 0

Each run starts fresh worker processes (``worker.py``), one at a time.
With ``--trace 0``: several that only set up; then measuring workers, each
running one cold and one warm pass, until their passes add up to about
``--seconds``; and again several that only set up.  Peak memory is each
measuring worker's own ``ru_maxrss``, read with ``os.wait4``.  With
``--trace 1``: one worker that runs traced and untraced passes, and writes
the spans of its last traced pass to ``perfbench/out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.

The program is imported from ``src/``; without it the run fails with exit
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("scatter", "refined", "verify", "series")
SEEDED = ("series",)
# Workers that only set up, half at the start of a run and half at the end,
# so that the median set-up time spans the run.
SETUP_PROBES = 8
# A worker still running this long after the run started is killed, so the
# run ends inside its 180 s limit.
RUN_DEADLINE_S = 170.0


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker; returns its JSON result and its peak RSS in MiB."""
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE)
    fd = proc.stdout.fileno()
    chunks = []
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.kill()
                raise RuntimeError(f"worker {' '.join(args)} ran past the deadline")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                data = os.read(fd, 1 << 16)
                if not data:
                    break
                chunks.append(data)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = b"".join(chunks).decode().splitlines()
    return json.loads(lines[-1]), usage.ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wallcross" / "__init__.py").is_file():
        print("error: run from the repository root; src/wallcross not found", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.workload not in SEEDED:
        print(f"{args.workload}: fixed inputs; --seed {args.seed} does not apply")

    try:
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            trace_out = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            result, _ = spawn([*common, "--mode", "trace", "--seconds", str(args.seconds),
                               "--trace-out", str(trace_out)], deadline)
            attempted, failed = result["attempted"], result["failed"]
            values = result["layers"]
            wanted = spec["per_layer"]
        else:
            def probe() -> float:
                return spawn([*common, "--mode", "setup"], deadline)[0]["setup_s"]

            setups = [probe() for _ in range(SETUP_PROBES // 2)]
            # Samples taken across the whole run, each worker a fresh
            # interpreter, vary less than the same number taken back to back.
            runs, rss = [], []
            measured = last = 0.0
            while not runs or measured + last / 2 < args.seconds:
                if time.monotonic() + 2 * last > deadline:
                    break
                result, rss_mib = spawn([*common, "--mode", "measure"], deadline)
                runs.append(result)
                rss.append(rss_mib)
                last = result["cold_s"] + result["wall_s"]
                measured += last
            setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            values = {
                name: median([r[name] for r in runs]) for name in ("wall_s", "cpu_s", "cold_s")
            }
            values["setup_s"] = median(setups + [r["setup_s"] for r in runs])
            values["peak_rss_mib"] = median(rss)
            wanted = spec["end_to_end"]
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
