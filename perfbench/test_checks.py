"""Tests of the benchmark's own answer checks and span ledger.

    python3 -m pytest perfbench          (or: python3 -m unittest discover perfbench)

Each check must report a failure for the defect it exists to catch.
"""

import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import (SampleChecker, check_closure, check_writes,  # noqa: E402
                    closure, pair_digest)
from inproc import parse_cli_answers  # noqa: E402
from spans import SpanRecorder, ledger_metrics  # noqa: E402

EMP = [("a1", "d1"), ("a2", "d1"), ("a3", "d1"), ("a4", "d1"),
       ("b1", "d2"), ("b2", "d2"),
       ("c1", "d3")]


CHECKER = SampleChecker(EMP, k=3)


def pairs_of(pick):
    return [(a, b) for a, da in pick for b, db in pick
            if da == db and a != b]


class SampleCheckTest(unittest.TestCase):
    GOOD = [("a1", "d1"), ("a3", "d1"), ("a4", "d1"),
            ("b1", "d2"), ("b2", "d2"), ("c1", "d3")]

    def test_correct_answer_passes(self):
        self.assertEqual(
            CHECKER.check(self.GOOD, pairs_of(self.GOOD)), [])

    def test_k_plus_one_picks_fail(self):
        pick = self.GOOD + [("a2", "d1")]
        problems = CHECKER.check(pick, pairs_of(pick))
        self.assertTrue(any("d1 has 4 picks" in p for p in problems))

    def test_too_few_picks_fail(self):
        pick = [row for row in self.GOOD if row != ("b2", "d2")]
        self.assertTrue(CHECKER.check(pick, pairs_of(pick)))

    def test_row_outside_emp_fails(self):
        pick = [("zz", "d3") if row == ("c1", "d3") else row
                for row in self.GOOD]
        problems = CHECKER.check(pick, pairs_of(pick))
        self.assertTrue(any("not in emp" in p for p in problems))

    def test_pair_must_match_pick(self):
        pair = pairs_of(self.GOOD)[1:]
        problems = CHECKER.check(self.GOOD, pair)
        self.assertTrue(any("pair differs" in p for p in problems))

    def test_concurrent_write_widens_the_range(self):
        in_flight = [("c2", "d3")]
        pick = self.GOOD + [("c2", "d3")]
        self.assertEqual(CHECKER.check(pick, pairs_of(pick),
                                       maybe_written=in_flight), [])
        self.assertEqual(CHECKER.check(self.GOOD, pairs_of(self.GOOD),
                                       maybe_written=in_flight), [])
        # Without the write in flight, the extra pick is wrong.
        self.assertTrue(CHECKER.check(pick, pairs_of(pick)))

    def test_acknowledged_write_must_show(self):
        pick = [row for row in self.GOOD if row != ("c1", "d3")] \
            + [("c2", "d3")]
        # d3 holds two rows once c2 is written: both must be picked.
        problems = CHECKER.check(pick, pairs_of(pick), written=[("c2", "d3")])
        self.assertTrue(any("d3 has 1 picks, expected 2" in p
                            for p in problems))


class ClosureCheckTest(unittest.TestCase):
    EDGES = [("x", "y"), ("y", "z"), ("z", "x"), ("z", "w")]

    def test_bfs_closure(self):
        got = closure(self.EDGES)
        self.assertIn(("x", "w"), got)
        self.assertIn(("x", "x"), got)
        self.assertNotIn(("w", "x"), got)
        self.assertEqual(len(got), 12)

    def test_missing_pair_fails(self):
        expected = closure(self.EDGES)
        path = sorted(expected)[1:]
        problems = check_closure(path, pair_digest(expected))
        self.assertEqual(problems, ["path holds 11 pairs, the BFS closure 12"])

    def test_swapped_pair_fails(self):
        expected = closure(self.EDGES)
        path = sorted(expected)[1:] + [("w", "x")]
        self.assertEqual(check_closure(path, pair_digest(expected)),
                         ["path holds pairs the BFS closure does not"])

    def test_duplicate_pair_fails(self):
        expected = closure(self.EDGES)
        path = sorted(expected) + [("x", "w")]
        self.assertEqual(check_closure(path, pair_digest(expected)),
                         ["path holds a duplicate pair"])

    def test_exact_closure_passes(self):
        expected = closure(self.EDGES)
        self.assertEqual(
            check_closure(frozenset(expected), pair_digest(expected)), [])


class WriteCheckTest(unittest.TestCase):
    def test_lost_acknowledged_write_fails(self):
        problems = check_writes("s1", found_rows=2004, base_rows=2000,
                                acked=5)
        self.assertEqual(len(problems), 1)
        self.assertIn("5 acknowledged", problems[0])

    def test_every_acknowledged_write_present_passes(self):
        self.assertEqual(check_writes("s1", 2005, 2000, 5), [])


class CliAnswerParseTest(unittest.TestCase):
    def test_reads_relations_and_ignores_other_lines(self):
        text = ("pair: 2 tuple(s)\n  a1, a2\n  a2, a1\n"
                "pick: 2 tuple(s)\n  a1, d1\n  a2, d1\n"
                "clause  calls  wall_ms\n")
        answers = parse_cli_answers(text)
        self.assertEqual(answers["pick"], [("a1", "d1"), ("a2", "d1")])
        self.assertEqual(answers["pair"], [("a1", "a2"), ("a2", "a1")])


def _inner(x):
    return x + 1


def _outer(x):
    return LAYERS.inner(x) * 2


#: Stands in for a module whose public functions the ledger wraps.
LAYERS = types.SimpleNamespace(inner=_inner, outer=_outer)


class SpanLedgerTest(unittest.TestCase):
    def test_self_times_add_up_to_wall(self):
        recorder = SpanRecorder()
        recorder.wrap(LAYERS, "inner", "inner")
        recorder.wrap(LAYERS, "outer", "outer")
        try:
            for i in range(3):
                with recorder.query():
                    self.assertEqual(LAYERS.outer(i), 2 * (i + 1))
        finally:
            recorder.restore()
        self.assertIs(LAYERS.inner, _inner)
        walls = recorder.wall_times()
        self.assertEqual(len(walls), 3)
        selfs = recorder.self_times()
        self.assertEqual(set(selfs), {"unattributed", "outer", "inner"})
        self.assertAlmostEqual(sum(selfs.values()), sum(walls), places=9)
        metrics = ledger_metrics(selfs, 3)
        parts = sum(v for k, v in metrics.items() if k != "ledger.wall_ms")
        self.assertAlmostEqual(parts, metrics["ledger.wall_ms"], places=6)

    def test_calls_outside_a_query_are_not_recorded(self):
        recorder = SpanRecorder()
        recorder.wrap(LAYERS, "inner", "inner")
        try:
            LAYERS.inner(1)
        finally:
            recorder.restore()
        self.assertEqual(recorder.spans, [])


class KernelCheckTest(unittest.TestCase):
    def test_quiet_process_passes(self):
        from common import kernel_problems, kernel_run
        self.assertEqual(kernel_problems([kernel_run() for _ in range(9)]),
                         [])

    def test_thread_taking_the_lock_is_caught(self):
        import threading
        from common import kernel_problems, kernel_run
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                sum(range(1000))

        thread = threading.Thread(target=spin)
        thread.start()
        try:
            runs = [kernel_run() for _ in range(20)]
        finally:
            stop.set()
            thread.join()
        problems = kernel_problems(runs)
        self.assertTrue(any("interpreter lock" in p for p in problems))

    def test_profile_hook_is_caught(self):
        from common import kernel_problems, kernel_run
        sys.setprofile(lambda *args: None)
        try:
            runs = [kernel_run() for _ in range(3)]
        finally:
            sys.setprofile(None)
        self.assertTrue(any("hook" in p for p in kernel_problems(runs)))


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_runs_print(self):
        import json
        from common import END_TO_END, PER_LAYER, WORKLOADS
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]},
                         END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         PER_LAYER)


if __name__ == "__main__":
    unittest.main()
