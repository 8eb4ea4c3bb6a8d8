"""The benchmark's own tests: failure path, references, metric names.

    python3 perfbench/selftest.py

Kept out of the repository's pytest suite (the name does not match
test_*.py) because it starts benchmark processes.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS  # noqa: E402


def first(ops, prefix):
    return next(op for op in ops if op.label.startswith(prefix))


class FaultInjection(unittest.TestCase):
    def test_every_check_rejects_a_corrupted_output(self):
        picks = {"series_sparse": "", "series_dense": "pp", "oracle": "cp", "battery": "open"}
        for workload, prefix in picks.items():
            with self.subTest(workload=workload):
                op = first(workloads.build(workload, 1), prefix)
                out = op.run()
                self.assertTrue(op.check(out, False))
                self.assertFalse(op.check(out, True))

    def test_a_corrupted_result_is_counted_and_the_run_goes_on(self):
        cmd = [sys.executable, str(HERE / "worker.py"), "series_dense", "1",
               repr(time.monotonic()), "--fault", "1"]
        batch = json.loads(subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                                          text=True).stdout.splitlines()[-1])
        self.assertEqual(batch["attempted"], len(workloads.DENSE_ORDERS))
        self.assertEqual(batch["failed"], 1)
        self.assertEqual(len(batch["failures"]), 1)
        self.assertGreater(batch["failed"] / batch["attempted"], 0)


class References(unittest.TestCase):
    def test_every_pool_member_has_a_reference(self):
        refs = workloads.load_references()
        for key in workloads.reference_pool():
            self.assertIn(workloads.reference_key(*key), refs)

    def test_a_pool_member_without_a_reference_fails(self):
        with self.assertRaises(KeyError):
            workloads.series_dense(random.Random(0), {})

    def test_refs_tool_refuses_to_overwrite(self):
        proc = subprocess.run([sys.executable, str(HERE / "refs.py")], cwd=ROOT,
                              capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("--force", proc.stderr)


class Frozen(unittest.TestCase):
    def test_frozen_copy_is_unchanged(self):
        self.assertEqual(run.frozen_digest(), run.FROZEN_SHA256)

    def test_frozen_copy_matches_its_commit(self):
        for path in sorted(run.FROZEN_DIR.glob("*.py")):
            proc = subprocess.run(
                ["git", "show", "%s:src/planeparts/%s" % (run.FROZEN_COMMIT, path.name)],
                cwd=ROOT, capture_output=True)
            if proc.returncode != 0:
                self.skipTest("no git history with %s" % run.FROZEN_COMMIT)
            self.assertEqual(proc.stdout, path.read_bytes(), path.name)


class Measure(unittest.TestCase):
    def measure_with_timeout_at(self, call_number):
        calls = []

        def fake_batch(workload, seed, flags, timeout):
            calls.append(flags)
            if len(calls) == call_number:
                raise subprocess.TimeoutExpired("worker", timeout)
            return {"process_s": 0.001, "flags": flags}

        saved = run.run_batch
        run.run_batch = fake_batch
        try:
            return run.measure("oracle", 1, 0, ["--frozen"])
        finally:
            run.run_batch = saved

    def test_a_pair_cut_by_the_limit_is_dropped(self):
        # Pair 0 runs current, frozen; pair 1 frozen, then current, which times out.
        current, second = self.measure_with_timeout_at(4)
        self.assertEqual(([b["flags"] for b in current], [b["flags"] for b in second]),
                         ([[]], [["--frozen"]]))

    def test_a_run_without_a_finished_pair_fails(self):
        with self.assertRaises(subprocess.TimeoutExpired):
            self.measure_with_timeout_at(2)


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        batch = {"wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 20.0, "import_s": 0.05,
                 "schur_groups_s": dict.fromkeys(workloads.SCHUR_GROUPS.values(), 0.1), "trace": {
                     "self_s": dict.fromkeys(LAYERS, 0.1), "calls": dict.fromkeys(LAYERS, 1),
                     "factors": 1, "out_bits": 1,
                     "caches": {layer: {"entries": 1, "hit_ratio": 0.5} for layer in LAYERS}}}
        e2e = run.end_to_end_metrics("oracle", [batch], [batch])
        layers = run.per_layer_metrics([batch], [batch])
        self.assertEqual(set(e2e), {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(set(layers), {m["name"] for m in spec["per_layer"]})
        for metrics, listed in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
            for m in listed:
                self.assertEqual(metrics[m["name"]][1], m["unit"], m["name"])

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "%s/run.py" % HERE.name, "--workload", "oracle", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
