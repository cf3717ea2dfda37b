"""Tests of the benchmark itself: seeded inputs, witnesses, the checker and
the span arithmetic. Run from the repository root with

    python3 -m unittest discover -s perfbench
"""

import hashlib
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import exact  # noqa: E402
import inputs  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

LIB = run.import_hkit()
SPEED = pipeline.Speedometer()  # not opened: timing does not matter here


def digest(items):
    text = repr([(i.id, getattr(i, "rows", None) or i.argv) for i in items])
    return hashlib.sha256(text.encode()).hexdigest()


def with_matrices(items):
    for inp in items:
        inp.matrix = LIB.intmat.IntMatrix(inp.rows, cols=inp.n)
    return items


def kladder(*ids):
    return {i.id: i for i in with_matrices(inputs.kladder_inputs(0)) if i.id in ids}


class TestInputs(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for work in run.WORKLOADS.values():
            self.assertEqual(digest(work.make(7)), digest(work.make(7)))

    def test_other_seed_changes_wide(self):
        self.assertNotEqual(digest(inputs.wide_inputs(1)), digest(inputs.wide_inputs(2)))

    def test_witness_minors_lie_outside_unit_range(self):
        planted = [i for s in range(5) for i in inputs.wide_inputs(s) if i.witness]
        hole = kladder("K8-hole")["K8-hole"]
        self.assertEqual(inputs.witness_minor(hole), -2)
        for inp in planted + [hole]:
            self.assertNotIn(inputs.witness_minor(inp), (-1, 0, 1), inp.id)
            self.assertEqual(inp.verdict, "not_unimodular")

    def test_expected_verdicts_follow_from_the_minors(self):
        for inp in inputs.wide_inputs(3)[:48]:
            self.assertEqual(exact.expected_verdict(inp.rows, inp.n), inp.verdict, inp.id)


class TestChecker(unittest.TestCase):
    def test_clean_run_passes(self):
        inp = kladder("K4")["K4"]
        _, failures = pipeline.matrix_op(LIB, SPEED, inp)
        self.assertEqual(failures, [])

    def test_dropped_hilbert_generator_fails(self):
        inp = kladder("K4")["K4"]
        real = LIB.hypertoric.hilbert_basis
        with mock.patch.object(LIB.hypertoric, "hilbert_basis", lambda H, **kw: real(H, **kw)[:-1]):
            _, failures = pipeline.matrix_op(LIB, SPEED, inp)
        self.assertIn("hilbert", [stage for stage, _ in failures])

    def test_dropped_generator_fails_on_corpus_matrix(self):
        valid = [i for i in inputs.corpus_inputs(0) if i.verdict is None and i.n == 3][:5]
        real = LIB.hypertoric.hilbert_basis
        with mock.patch.object(LIB.hypertoric, "hilbert_basis", lambda H, **kw: real(H, **kw)[1:]):
            for inp in with_matrices(valid):
                _, failures = pipeline.matrix_op(LIB, SPEED, inp)
                self.assertIn("hilbert", [stage for stage, _ in failures], inp.id)

    def test_flipped_verdict_fails(self):
        items = kladder("K4", "K8-hole")
        H = LIB.hypertoric.HypertoricData.from_matrix(items["K4"].matrix)
        rejected = mock.Mock(side_effect=LIB.errors.NotUnimodular("flipped"))
        accepted = mock.Mock(return_value=H)
        for inp, fake in ((items["K4"], rejected), (items["K8-hole"], accepted)):
            with mock.patch.object(LIB.hypertoric.HypertoricData, "from_matrix", fake):
                _, failures = pipeline.matrix_op(LIB, SPEED, inp)
            self.assertEqual([stage for stage, _ in failures], ["validation"], inp.id)


class TestSpans(unittest.TestCase):
    def test_self_times_nonnegative_and_within_wall(self):
        items = list(kladder("K3", "K4", "K5", "K8-hole").values())
        tracer = Tracer()
        tracer.install(LIB)
        try:
            with pipeline.Speedometer() as speed:
                run.run_pass(lambda inp: pipeline.matrix_op(LIB, speed, inp), items, tracer)
        finally:
            tracer.uninstall()
        own = tracer.self_times()
        self.assertTrue(tracer.spans)
        self.assertGreaterEqual(min(own), 0)
        self.assertLessEqual(sum(own) / 1e9, speed.raw)
        self.assertFalse(hasattr(LIB.intmat.det, "__wrapped__"), "uninstall left a wrapper")
        names = {s[0] for s in tracer.spans}
        self.assertTrue({"intmat.det", "hypertoric.from_matrix", "arrangement.f_locus"} <= names)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        per_layer = set(Tracer().layer_metrics()) | {"trace.wall_s", "trace.overhead_s"} | set(run.CLI_METRICS)
        self.assertEqual({m["name"] for m in spec["per_layer"]}, per_layer)
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(run.E2E_UNITS))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
