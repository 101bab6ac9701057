"""One fresh interpreter of a benchmark run.

Started by ``run.py`` with the repository root as working directory.  Every
mode first times set-up: importing ``wallcross`` and ``wallcross.cli``,
loading the packaged fixtures and building the workload's inputs.  Then:

- ``setup`` stops there;
- ``measure`` runs two passes: the cold pass, the first in this
  interpreter, and one warm pass;
- ``trace`` runs the cold pass, then pairs of one traced and one untraced
  pass until about ``--seconds`` of them have run.

Passes run one after another in this single thread.  Each output is
checked after its pass, outside the timed window.  The result is one JSON
line on stdout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import workloads  # noqa: E402
from wallcross import invariants  # noqa: E402

# No further traced pair starts once this many seconds have passed since
# the worker started, so that the run ends well inside its time limit.
PASS_CUTOFF_S = 120.0


def timed_pass(wl, inputs, expected, tally, tracer=None):
    """Run and check one pass.

    Returns (wall seconds, cpu seconds, output, perf_counter at the start).
    """
    if tracer is not None:
        tracer.install()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        output = wl.run(inputs)
    except Exception:
        output = None
    t1 = time.perf_counter()
    c1 = time.process_time()
    if tracer is not None:
        tracer.uninstall()
    wl.check(output, expected, tally)
    return t1 - t0, c1 - c0, output, t0


def _trace_passes(wl, inputs, expected, tally, seconds, trace_out, seed) -> dict:
    """Traced and untraced passes in pairs until about ``seconds`` have run,
    and at least one pair; returns the per-layer metrics."""
    from statistics import median

    from tracer import Tracer

    traced, plain, summaries = [], [], []
    while not traced or (sum(traced) + sum(plain) + (traced[-1] + plain[-1]) / 2 < seconds
                         and time.perf_counter() - T0 + traced[-1] + plain[-1] < PASS_CUTOFF_S):
        # alternate which pass of a pair runs first
        for with_trace in (True, False) if len(traced) % 2 == 0 else (False, True):
            if with_trace:
                tracer = Tracer()
                wall, _, output, start = timed_pass(wl, inputs, expected, tally, tracer)
                traced.append(wall)
                summaries.append(tracer.summary())
            else:
                plain.append(timed_pass(wl, inputs, expected, tally)[0])
    layers = dict.fromkeys(workloads.OUTPUT_METRICS, 0)
    for name, calls in summaries[-1][0].items():
        layers[f"{name}.calls"] = calls
        layers[f"{name}.self_s"] = median([s[1][name] for s in summaries])
    layers["trace.coverage"] = median([s[2] / w for s, w in zip(summaries, traced)])
    layers["trace.overhead"] = median(traced) / median(plain)
    layers.update(wl.layer_outputs(output))
    if trace_out:
        with open(trace_out, "w") as fh:
            json.dump({"workload": wl.name, "seed": seed, "pass_s": traced[-1],
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": tracer.spans(start)}, fh)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    invariants.load_p2_table()
    inputs = wl.build(args.seed)
    result = {"setup_s": time.perf_counter() - T0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    expected = wl.expect(inputs)
    tally = workloads.Tally()
    result["cold_s"] = timed_pass(wl, inputs, expected, tally)[0]

    if args.mode == "measure":
        result["wall_s"], result["cpu_s"], _, _ = timed_pass(wl, inputs, expected, tally)
    elif args.mode == "trace":
        result["layers"] = _trace_passes(wl, inputs, expected, tally, args.seconds,
                                         args.trace_out, args.seed)

    result.update(attempted=tally.attempted, failed=tally.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
