"""Tests of layer attribution. Run: python3 -m unittest discover -s perfbench/tests"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import layers  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))


def src(rel):
    return os.path.join(ROOT, "src", rel)


STD = "/usr/include/c++/12/bits/hashtable.h"


class LayerOfTest(unittest.TestCase):
    def test_every_src_directory_maps_to_a_layer(self):
        dirs = sorted(d for d in os.listdir(os.path.join(ROOT, "src"))
                      if os.path.isdir(os.path.join(ROOT, "src", d)))
        self.assertTrue(dirs)
        for d in dirs:
            self.assertIn(d, layers.MODULE_LAYERS, f"src/{d} has no layer")
            layer = layers.MODULE_LAYERS[d]
            self.assertTrue(layer is None or layer in layers.LAYERS, d)

    def test_exec_splits_into_metadata_jm_and_worker(self):
        self.assertEqual(layers.layer_of(src("exec/metadata_store.cc"), ROOT), "exec.metadata")
        self.assertEqual(layers.layer_of(src("exec/estimator.h"), ROOT), "exec.metadata")
        self.assertEqual(layers.layer_of(src("exec/job_manager.cc"), ROOT), "exec.jm")
        self.assertEqual(layers.layer_of(src("exec/worker.cc"), ROOT), "exec.worker")
        self.assertEqual(layers.layer_of(src("exec/monotask_queue.h"), ROOT), "exec.worker")

    def test_common_std_and_outside_files_pass_to_caller(self):
        self.assertIsNone(layers.layer_of(src("common/time_series.h"), ROOT))
        self.assertIsNone(layers.layer_of(STD, ROOT))
        self.assertIsNone(layers.layer_of(os.path.join(ROOT, "perfbench/cc/main.cc"), ROOT))

    def test_unknown_src_directory_is_other(self):
        self.assertEqual(layers.layer_of(src("newmodule/x.cc"), ROOT), "other")


class AttributeTest(unittest.TestCase):
    def test_common_frame_goes_to_caller(self):
        files_of = {1: [src("common/time_series.h")], 2: [src("net/flow_simulator.cc")]}
        self.assertEqual(layers.attribute([1, 2], files_of, ROOT), "net")

    def test_std_inline_frame_goes_to_enclosing_module(self):
        # One address whose inline chain is std -> metadata store -> estimator.
        files_of = {1: [STD, src("exec/metadata_store.cc"), src("exec/estimator.cc")]}
        self.assertEqual(layers.attribute([1], files_of, ROOT), "exec.metadata")

    def test_libc_pc_goes_to_caller(self):
        files_of = {2: [src("sim/event_queue.cc")]}
        self.assertEqual(layers.attribute([None, 2], files_of, ROOT), "sim")

    def test_innermost_module_wins(self):
        files_of = {1: [src("obs/trace.cc")], 2: [src("scheduler/ursa_scheduler.cc")]}
        self.assertEqual(layers.attribute([1, 2], files_of, ROOT), "obs")

    def test_no_module_frame_is_other(self):
        files_of = {1: [STD], 2: [src("common/logging.cc")]}
        self.assertEqual(layers.attribute([1, 2, None], files_of, ROOT), "other")

    def test_shares_cover_every_layer_and_sum_to_one(self):
        files_of = {1: [src("net/flow_simulator.cc")], 2: [STD], 3: [src("dag/plan.cc")]}
        shares = layers.self_shares([[1], [2], [2, 3], [None]], files_of, ROOT)
        self.assertEqual(set(shares), set(layers.LAYERS))
        self.assertAlmostEqual(sum(shares.values()), 1.0)
        self.assertEqual(shares["net"], 0.25)
        self.assertEqual(shares["dag"], 0.25)
        self.assertEqual(shares["other"], 0.5)


class Addr2lineTest(unittest.TestCase):
    def test_parses_inline_chains(self):
        text = "\n".join([
            "0x0000000000001234",
            "/usr/include/c++/12/bits/hashtable.h:1660",
            f"{src('exec/metadata_store.cc')}:19 (discriminator 2)",
            "0x0000000000005678",
            "??:0",
        ])
        self.assertEqual(layers.parse_addr2line(text), {
            0x1234: [STD, src("exec/metadata_store.cc")],
            0x5678: [],
        })


if __name__ == "__main__":
    unittest.main()
