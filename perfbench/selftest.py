"""Tests of the benchmark itself: checker, tracer and input generator.

Run from the repository root:

    python3 perfbench/selftest.py

The file is not named ``test_*.py`` so that the repository's own pytest
run does not collect it.
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from wallcross import algebra, cli, qtorus, scattering  # noqa: E402


def _failed(wl, output, expected) -> tuple[int, int]:
    tally = workloads.Tally()
    wl.check(output, expected, tally)
    return tally.attempted, tally.failed


def _golden_text(name: str) -> str:
    return (workloads.GOLDEN_DIR / name).read_text()


def _verify_stdout(passed: int) -> str:
    lines = [f"PASS check/{i}: 1 == 1  [anchor]" for i in range(passed)]
    return "\n".join(lines + [f"suite all: {passed}/{passed} passed"]) + "\n"


class CheckerTest(unittest.TestCase):
    def test_goldens_pass_every_check(self):
        for wl, text in ((workloads.Scatter(), _golden_text("scatter_m3_order20.json")),
                         (workloads.Refined(), _golden_text("refined_m3_dmax4.json")),
                         (workloads.Verify(), _verify_stdout(229))):
            attempted, failed = _failed(wl, (0, text), wl.expect(None))
            self.assertGreater(attempted, 0, wl.name)
            self.assertEqual(failed, 0, wl.name)

    def test_perturbed_scatter_ray_fails(self):
        wl = workloads.Scatter()
        doc = json.loads(_golden_text("scatter_m3_order20.json"))
        ray = next(r for r in doc["rays"] if r["direction"] == [2, 1])
        ray["wall_function"]["1"] = str(Fraction(ray["wall_function"]["1"]) + 1)
        _, failed = _failed(wl, (0, json.dumps(doc)), wl.expect(None))
        self.assertGreater(failed, 0)

    def test_perturbed_refined_omega_fails(self):
        wl = workloads.Refined()
        doc = json.loads(_golden_text("refined_m3_dmax4.json"))
        doc[2]["omega"]["0"] = str(int(doc[2]["omega"]["0"]) + 1)
        _, failed = _failed(wl, (0, json.dumps(doc)), wl.expect(None))
        self.assertGreater(failed, 0)

    def test_wrong_verify_check_count_fails(self):
        wl = workloads.Verify()
        _, failed = _failed(wl, (0, _verify_stdout(228)), wl.expect(None))
        self.assertGreater(failed, 0)

    def test_nonzero_exit_fails(self):
        wl = workloads.Refined()
        _, failed = _failed(wl, (1, _golden_text("refined_m3_dmax4.json")), wl.expect(None))
        self.assertEqual(failed, 1)

    def test_raised_pass_fails_every_check(self):
        for wl in (workloads.Scatter(), workloads.Verify(), workloads.Series()):
            inputs = workloads.series_inputs(1, cycles=1) if wl.seeded else wl.build(1)
            expected = wl.expect(inputs)
            broken = copy.copy(wl)
            broken.run = lambda _inputs: 1 // 0
            tally = workloads.Tally()
            worker.timed_pass(broken, inputs, expected, tally)
            self.assertGreater(tally.attempted, 0, wl.name)
            self.assertEqual(tally.failed, tally.attempted, wl.name)


def _package_bindings() -> dict:
    holders = [algebra, algebra.LaurentPoly, algebra.RationalFunc, algebra.GradedSeries,
               qtorus, qtorus.QTorusElement, scattering, cli,
               sys.modules["wallcross"], sys.modules["wallcross.combinat"],
               sys.modules["wallcross.invariants"]]
    return {(id(h), k): v for h in holders for k, v in vars(h).items()}


class TracerTest(unittest.TestCase):
    def _both(self, fn):
        plain = fn()
        with Tracer() as tracer:
            traced = fn()
        return plain, traced, tracer

    def test_traced_cli_output_identical_and_originals_restored(self):
        before = _package_bindings()
        for argv in (["scatter", "--m", "3", "--order", "8", "--out", "json"],
                     ["dt", "--refined", "--m", "3", "--d-max", "2", "--out", "json"]):
            plain, traced, tracer = self._both(lambda: workloads.run_cli(argv))
            self.assertEqual(plain, traced, argv)
            self.assertEqual(plain[0], 0)
            self.assertTrue(tracer.names)
        after = _package_bindings()
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(after[k] is v for k, v in before.items()))

    def test_traced_series_output_identical(self):
        inputs = workloads.series_inputs(3, cycles=1)
        wl = workloads.Series()
        plain, traced, tracer = self._both(lambda: wl.run(inputs))
        self.assertEqual(plain, traced)
        calls = tracer.summary()[0]
        self.assertGreater(calls["algebra.RationalFunc"], 0)
        self.assertGreater(calls["combinat.plethystic_exp"], 0)

    def test_internal_callers_are_caught(self):
        with Tracer() as tracer:
            workloads.run_cli(["scatter", "--m", "3", "--order", "4", "--out", "json"])
        calls, self_s, _ = tracer.summary()
        self.assertGreater(calls["scattering.wall_crossing_automorphism"], 0)
        # every wall crossing runs inside complete_to_consistency inside cli.main
        for i, name in enumerate(tracer.names):
            if name == "scattering.wall_crossing_automorphism":
                parent = tracer.names[tracer.parents[i]]
                self.assertEqual(parent, "scattering.complete_to_consistency")
        self.assertEqual(tracer.parents[0], -1)
        self.assertEqual(tracer.names[0], "cli.main")

    def test_self_time_never_exceeds_span(self):
        with Tracer() as tracer:
            workloads.run_cli(["dt", "--refined", "--m", "3", "--d-max", "2", "--out", "json"])
        calls, self_s, below_roots = tracer.summary()
        total = tracer.ends[0] - tracer.starts[0]
        self.assertAlmostEqual(sum(self_s.values()), total, delta=1e-6 * len(tracer.names))
        self.assertTrue(0 < below_roots <= total)


class SeriesInputsTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_differs(self):
        a = workloads.series_inputs(11)
        self.assertEqual(a, workloads.series_inputs(11))
        self.assertNotEqual(a, workloads.series_inputs(12))

    def test_sizes_follow_the_fixed_mix(self):
        a = workloads.series_inputs(11, cycles=1)
        self.assertEqual([len(x) for x in a["multicover"]], list(range(1, 9)))
        self.assertEqual([s.cutoff for s in a["plethystic"]], list(range(1, 7)))
        self.assertEqual([s.cutoff for s in a["plain"]], list(range(1, 13)))


class SpecTest(unittest.TestCase):
    def test_benchmark_json_names_match_what_runs_report(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        layer_names = {m["name"] for m in spec["per_layer"]}
        produced = ({f"{n}.{k}" for n in SPAN_NAMES for k in ("calls", "self_s")}
                    | set(workloads.OUTPUT_METRICS) | {"trace.coverage", "trace.overhead"})
        self.assertEqual(layer_names, produced)
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"wall_s", "cpu_s", "cold_s", "setup_s", "peak_rss_mib"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(run.WORKLOADS, tuple(workloads.WORKLOADS))
        self.assertEqual(run.SEEDED, tuple(n for n, w in workloads.WORKLOADS.items() if w.seeded))


if __name__ == "__main__":
    unittest.main()
