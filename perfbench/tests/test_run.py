"""Tests of run.py's host-speed scaling and job counting.
Run: python3 -m unittest discover -s perfbench/tests"""

import os
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402


class NormalizedTest(unittest.TestCase):
    def test_each_time_scales_by_the_kernel_around_it(self):
        out = {
            "ref_nominal_s": 0.2,
            # Before and after the set-ups, then after each of three runs.
            "ref_s": [0.2, 0.2, 0.4, 0.4, 0.2],
            "setup_s": [0.1, 0.3, 0.2],
            "wall_s": [3.0, 8.0, 3.0],
        }
        setup, wall = run.normalized(out)
        self.assertAlmostEqual(setup, 0.2)
        # Runs scale by 0.2/0.3, 0.2/0.4 and 0.2/0.3: 2.0, 4.0 and 2.0.
        self.assertAlmostEqual(wall, 2.0)

    def test_a_uniformly_slower_host_reads_the_same(self):
        fast = {"ref_nominal_s": 0.2, "ref_s": [0.2] * 4, "setup_s": [0.05],
                "wall_s": [3.0, 3.0]}
        slow = {"ref_nominal_s": 0.2, "ref_s": [0.3] * 4, "setup_s": [0.075],
                "wall_s": [4.5, 4.5]}
        for a, b in zip(run.normalized(fast), run.normalized(slow)):
            self.assertAlmostEqual(a, b)


class RunBinaryTest(unittest.TestCase):
    def run_fake(self, script):
        with tempfile.TemporaryDirectory() as tmp:
            out_path = os.path.join(tmp, "out.json")
            argv = [sys.executable, "-c", script]
            return run.run_binary(argv, out_path, time.time() + 30)

    def test_an_aborted_process_still_counts_the_jobs_it_started(self):
        out, started = self.run_fake(
            "import os\nprint('started 50'); print('started 50', flush=True); os.abort()")
        self.assertIsNone(out)
        self.assertEqual(started, 100)

    def test_a_finished_process_returns_its_output(self):
        script = ("import sys\nprint('started 60')\n"
                  "open(sys.argv[1].split('=', 1)[1], 'w').write('{\"x\": 1}')")
        out, started = self.run_fake(script)
        self.assertEqual(out, {"x": 1})
        self.assertEqual(started, 60)


if __name__ == "__main__":
    unittest.main()
