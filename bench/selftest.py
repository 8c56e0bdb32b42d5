"""Self-tests of the benchmark's own logic: python3 bench/selftest.py

Covers the self-time arithmetic, the check gate on corrupted outputs,
complete removal of the tracing wrappers, the CPU speed control, and
agreement between ``catalog.py`` and ``BENCHMARK.json``.
"""

import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import catalog  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def error_rate(checks):
    return sum(not c["ok"] for c in checks) / len(checks)


class SelfTime(unittest.TestCase):
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6.5], c [6, 7]
    SPANS = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["a1", 2.0, 3.0, 1],
             ["b", 5.0, 6.5, 0], ["c", 6.0, 7.0, 0]]

    def test_nested_and_overlapping_children(self):
        got = spans.self_times(self.SPANS)
        np.testing.assert_allclose(got, [10 - 3 - 2, 2, 1, 1.5, 1])

    def test_metrics_resolve_by_name(self):
        trace = self.SPANS + [
            ["operators.get", 11.0, 12.0, -1],
            ["operators.stencil_build", 11.2, 11.8, 5],
            ["operators.get", 12.0, 12.1, -1]]
        names = ["root.self_s", "a.calls", "root.wall_s", "x.count",
                 "operators.cache_hit_ratio", "trace.unattributed_s"]
        m = spans.layer_metrics(trace, {"x.count": 7}, names, wall_s=13.0)
        self.assertAlmostEqual(m["root.self_s"], 5.0)
        self.assertEqual(m["a.calls"], 1)
        self.assertAlmostEqual(m["root.wall_s"], 10.0)
        self.assertEqual(m["x.count"], 7)
        self.assertAlmostEqual(m["operators.cache_hit_ratio"], 0.5)
        self.assertAlmostEqual(m["trace.unattributed_s"], 13.0 - 5.0)

    def test_recorded_nesting(self):
        tracer = spans.Tracer()
        inner = tracer._span_wrapper(lambda: None, "inner", None)
        outer = tracer._span_wrapper(lambda: inner(), "outer", None)
        same = tracer._span_wrapper(lambda: outer(), "outer", None)
        same()
        self.assertEqual([(s[0], s[3]) for s in tracer.spans],
                         [("outer", -1), ("inner", 0)])


class CorruptedOutputs(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.out = self.tmp.name

    def tearDown(self):
        self.tmp.cleanup()

    def _sweep(self, name, family, distance_power):
        step_dir = os.path.join(self.out, name)
        os.makedirs(step_dir)
        header = ["family", "epsilon", "p", "deficit", "distance", "ratio",
                  "slope_flags", "eta_margin", "iterations"]
        rows = []
        for eps in np.geomspace(1e-4, 1e-2, 6):
            d, dist = 2 * eps ** 2, 0.5 * eps ** distance_power
            rows.append({"family": family, "epsilon": eps, "p": 4,
                         "deficit": d, "distance": dist, "ratio": dist / d,
                         "slope_flags": "fit", "eta_margin": 1.0,
                         "iterations": 2})
        workloads.write_rows(os.path.join(step_dir, "sweep.csv"), header, rows)
        return workloads.Step(name, None, [
            workloads.exit_code(0), workloads.sweep_slope("deficit", 2.0, 0.15),
            workloads.sweep_slope("distance", 2.0, 0.15),
            workloads.sweep_certified()])

    def _einstein(self, flip):
        step_dir = os.path.join(self.out, "einstein")
        os.makedirs(step_dir)
        rows = []
        for n in (3, 4, 5):
            for kappa in (-1.0, 0.0, 1.0):
                fail = (n >= 4 and kappa == -1.0) != (flip == (n, kappa))
                rows.append({"n": n, "kappa": kappa, "c1_est": 0.5,
                             "c2_est": 2.0, "zero_set": "FAIL" if fail else "PASS"})
        workloads.write_rows(os.path.join(step_dir, "einstein.csv"),
                             ["n", "kappa", "c1_est", "c2_est", "zero_set"], rows)
        return workloads.Step("einstein", None, [
            workloads.exit_code(1), workloads.einstein_pattern(),
            workloads.einstein_bounds()])

    def _rate(self, steps, codes):
        return error_rate(workloads.check_steps(steps, codes, self.out))

    def test_clean_outputs_pass(self):
        steps = [self._sweep("sweep", "kernel:0.6,0,0.8", 2.0),
                 self._einstein(flip=None)]
        self.assertEqual(self._rate(steps, [0, 1]), 0.0)

    def test_shifted_slope_fails(self):
        steps = [self._sweep("sweep", "harmonic:2,0", 2.3)]
        self.assertGreater(self._rate(steps, [0]), 0.0)

    def test_flipped_zero_set_cell_fails(self):
        steps = [self._einstein(flip=(3, 1.0))]
        self.assertGreater(self._rate(steps, [1]), 0.0)

    def test_unexpected_exit_and_exception_fail(self):
        steps = [self._sweep("sweep", "harmonic:2,0", 2.0)]
        self.assertGreater(self._rate(steps, [1]), 0.0)
        self.assertEqual(self._rate(steps, [RuntimeError("boom")]), 1.0)

    def test_missing_output_fails(self):
        step = workloads.Step("nothing", None, [workloads.sweep_certified()])
        self.assertEqual(self._rate([step], [0]), 1.0)


class Wrappers(unittest.TestCase):
    def test_installed_everywhere_then_fully_removed(self):
        import wulffstab
        import wulffstab.cli as cli
        import wulffstab.stability as stability
        import wulffstab.surface as surface
        before = {"cli.COMMANDS": dict(cli.COMMANDS),
                  "surface.get_operators": surface.get_operators,
                  "stability.recover_radius_mesh": stability.recover_radius_mesh,
                  "build_sphere_mesh": wulffstab.build_sphere_mesh}
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertEqual(tracer.missing, [])
            for wrapped in (cli.COMMANDS["sweep"], surface.get_operators,
                            stability.recover_radius_mesh,
                            wulffstab.build_sphere_mesh,
                            wulffstab.spheremesh.build_sphere_mesh,
                            wulffstab.operators.DerivativeOperators.__init__):
                self.assertTrue(getattr(wrapped, "__bench_wrapper__", False))
            wulffstab.build_sphere_mesh(2)
        finally:
            tracer.remove()
        self.assertEqual([s[0] for s in tracer.spans], ["spheremesh.build"])
        self.assertEqual(tracer.counters["spheremesh.build.vertices"], 162)
        self.assertEqual(tracer.leftover_wrappers(), [])
        self.assertEqual(dict(cli.COMMANDS), before["cli.COMMANDS"])
        self.assertIs(surface.get_operators, before["surface.get_operators"])
        self.assertIs(stability.recover_radius_mesh,
                      before["stability.recover_radius_mesh"])
        self.assertIs(wulffstab.build_sphere_mesh, before["build_sphere_mesh"])


class SpeedControl(unittest.TestCase):
    def test_samples_while_active_then_restores_the_signal(self):
        import signal
        import time
        with worker.SpeedControl() as control:
            end = time.perf_counter() + 0.5
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(control.samples), 5)
        self.assertTrue(all(t > 0 for t in control.samples))
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class Catalog(unittest.TestCase):
    def test_benchmark_json_lists_the_catalog(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(catalog.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         catalog.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         catalog.PER_LAYER)
        self.assertEqual(sorted(workloads.BUILDERS), sorted(catalog.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
