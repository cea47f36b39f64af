"""Seconds-long self-test of the benchmark: every workload's code path on
small inputs, the checks against expected verdicts (including that a wrong
expectation is reported as a failure), and the layer tracer.

    python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from permdesign import cosets, geometry  # noqa: E402

FANO = ("fano-pgl32", "fano-frobenius21")


def corpus_expected(names):
    full = workloads.load_expected("corpus-census")
    return {"exit_codes": full["exit_codes"],
            "instances": {n: full["instances"][n] for n in names}}


def remove_if_empty(directory):
    with contextlib.suppress(OSError):
        os.rmdir(directory)


class SmokeTest(unittest.TestCase):

    def setUp(self):
        scratch = os.path.join(ROOT, ".bench_work")
        os.makedirs(scratch, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="smoke-", dir=scratch)
        self.addCleanup(remove_if_empty, scratch)
        self.addCleanup(shutil.rmtree, self.work, True)

    def run_workload(self, workload, expected, seed=7):
        workload.setup(self.work, seed)
        tally = workloads.Tally()
        workload.run_pass(self.work, expected, tally)
        return tally

    def test_corpus_census_path(self):
        tally = self.run_workload(workloads.CorpusCensus(names=FANO),
                                  corpus_expected(FANO))
        self.assertEqual((tally.attempted, tally.failed), (2, 0),
                         tally.problems)
        self.assertEqual((tally.fields, tally.unknown), (20, 0))

    def test_beyond_limit_path_on_relabelled_fano(self):
        expected = corpus_expected(("fano-pgl32",))
        expected["instances"] = {"fano": expected["instances"]["fano-pgl32"]}
        builders = (("fano", lambda: geometry.build_PG(2, 2, 1)),)
        tally = self.run_workload(workloads.GeometryCensus(builders), expected)
        self.assertEqual((tally.attempted, tally.failed), (1, 0),
                         tally.problems)

    def test_coset_build_path(self):
        tally = self.run_workload(
            workloads.CosetBuild(triples=("a7-cos-15-7-3",)),
            workloads.load_expected("coset-build"))
        self.assertEqual((tally.attempted, tally.failed), (1, 0),
                         tally.problems)

    def test_wrong_expected_verdict_is_a_failure(self):
        expected = corpus_expected(FANO)
        expected["instances"]["fano-pgl32"]["point_type"] = "HA"
        tally = self.run_workload(workloads.CorpusCensus(names=FANO),
                                  expected)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertIn("point_type", tally.problems[0])

    def test_wrong_expected_parameters_are_a_failure(self):
        expected = copy.deepcopy(workloads.load_expected("coset-build"))
        expected["triples"]["a7-cos-15-7-3"]["parameters"]["lambda"] = 2
        tally = self.run_workload(
            workloads.CosetBuild(triples=("a7-cos-15-7-3",)), expected)
        self.assertEqual(tally.failed, 1)

    def test_unexpected_exit_code_fails_every_item(self):
        expected = corpus_expected(FANO)
        expected["exit_codes"] = [3]
        tally = self.run_workload(workloads.CorpusCensus(names=FANO),
                                  expected)
        self.assertEqual((tally.attempted, tally.failed), (2, 2))

    def test_tracer_spans_and_restores(self):
        original = cosets.coset_graph_faithful
        workload = workloads.CosetBuild(triples=("a7-cos-15-3-1",))
        workload.setup(self.work, 3)
        with tracing.Tracer() as trace:
            tally = workloads.Tally()
            workload.run_pass(self.work, workloads.load_expected(
                "coset-build"), tally)
        self.assertIs(cosets.coset_graph_faithful, original)
        self.assertEqual(tally.failed, 0, tally.problems)
        values = trace.metrics()
        self.assertGreater(values["cosets.canonical_reps"], 0)
        self.assertGreater(values["cosets.coset_graph_s"], 0)
        self.assertGreater(values["io.read_s"], 0)
        self.assertEqual(values["cosets.double_coset_lambda_calls"], 0)
        span_total = sum(end - start for _, start, end, parent in trace.spans
                         if parent is None)
        self.assertLessEqual(trace.top_self_s(), span_total)
        self.assertEqual(set(values) | set(tracing.PERM_PROBES)
                         | {"trace.overhead_frac"},
                         set(tracing.METRIC_UNITS))

    def test_benchmark_file_lists_every_workload_and_layer_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         tracing.METRIC_UNITS)


if __name__ == "__main__":
    unittest.main()
