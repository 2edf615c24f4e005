"""Self-tests of the benchmark's checker and statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: the Rust half has its own tests
(`cargo test --offline --manifest-path perfbench/harness/Cargo.toml`),
among them the open-loop generator's due-time latency under a stall.
"""

import argparse
import copy
import json
import unittest

import run


def table(models=2, questions=3):
    """A miniature Table II report in the shape `table2 --report-json` writes."""
    def column(name, column):
        return {
            "model": name,
            "outcomes": [
                {"id": f"{column}-{q:03}", "category": "Digital", "passed": q % 2 == 0,
                 "response": f"answer {q}", "path": "Solved", "error": None}
                for q in range(questions)
            ],
            "cache_stats": None,
        }
    return {"rows": [{"standard": column(f"m{m}", "std"), "challenge": column(f"m{m}", "chal")}
                     for m in range(models)]}


def encode(value):
    return json.dumps(value, separators=(",", ":")).encode()


class PercentileTest(unittest.TestCase):
    def test_refuses_too_few_samples_and_reports_the_count(self):
        with self.assertRaises(run.TooFewSamples) as refused:
            run.percentile(list(range(199)), 95)
        self.assertIn("at least 200", str(refused.exception))
        self.assertIn("got 199", str(refused.exception))
        with self.assertRaises(run.TooFewSamples):
            run.percentile(list(range(19)), 50)
        with self.assertRaises(run.TooFewSamples):
            run.percentile([], 50)

    def test_nearest_rank_with_ten_samples_beyond(self):
        value, n = run.percentile([float(x) for x in range(1, 201)], 95)
        self.assertEqual((value, n), (190.0, 200))
        value, n = run.percentile(list(range(20, 0, -1)), 50)
        self.assertEqual((value, n), (10, 20))


class GridCheckTest(unittest.TestCase):
    def test_identical_report_has_no_failed_outcomes(self):
        ref = encode(table())
        self.assertEqual(run.outcome_diffs(ref, ref), 0)

    def test_perturbed_reference_counts_each_differing_outcome(self):
        report = table()
        perturbed = copy.deepcopy(report)
        perturbed["rows"][0]["standard"]["outcomes"][1]["passed"] ^= True
        perturbed["rows"][1]["challenge"]["outcomes"][2]["response"] = "other"
        self.assertEqual(run.outcome_diffs(encode(report), encode(perturbed)), 2)

    def test_wrong_model_or_truncation_fails_every_missing_outcome(self):
        ref = table()
        renamed = copy.deepcopy(ref)
        renamed["rows"][1]["standard"]["model"] = "other"
        self.assertEqual(run.outcome_diffs(encode(renamed), encode(ref)), 3)
        short = copy.deepcopy(ref)
        del short["rows"][0]["challenge"]["outcomes"][1:]
        self.assertEqual(run.outcome_diffs(encode(short), encode(ref)), 2)
        self.assertEqual(run.outcome_diffs(b"{not json", encode(ref)), 2 * 2 * 3)

    def test_frozen_hash_is_fnv1a_64(self):
        # the published FNV-1a 64 test vectors
        self.assertEqual(run.fnv1a64(b""), 0xCBF29CE484222325)
        self.assertEqual(run.fnv1a64(b"a"), 0xAF63DC4C8601EC8C)


class ServeAccountingTest(unittest.TestCase):
    SESSIONS = [
        {"outcome": "done", "hash": "0x1", "latency_ms": 10.0},
        {"outcome": "done", "hash": "0x2", "latency_ms": 3000.0},
        {"outcome": "done", "hash": "0xbad", "latency_ms": 5.0},
        {"outcome": "shed:queue_full"},
        {"outcome": "lost"},
        {"outcome": "failed", "latency_ms": 1.0},
        {"outcome": "cancelled", "latency_ms": 1.0},
    ]
    REFERENCE = ["0x1", "0x2", "0x3", "0x4", "0x5", "0x6", "0x7"]

    def test_attempted_and_failed_add_up(self):
        attempted, failed, counts, latencies, on_time = run.serve_accounting(
            self.SESSIONS, self.REFERENCE, limit_ms=2000.0)
        self.assertEqual(attempted, len(self.SESSIONS))
        self.assertEqual(sum(counts.values()), attempted)
        self.assertEqual(failed, attempted - counts["done_match"])
        self.assertEqual(counts, {"done_match": 2, "mismatch": 1, "shed": 1, "lost": 1, "other": 2})
        # latency only over byte-matching sessions; goodput also needs the limit
        self.assertEqual(latencies, [10.0, 3000.0])
        self.assertEqual(on_time, 1)

    def test_perturbed_reference_counts_a_mismatch(self):
        perturbed = list(self.REFERENCE)
        perturbed[0] = "0xfeed"
        _, failed, counts, _, _ = run.serve_accounting(self.SESSIONS, perturbed, limit_ms=2000.0)
        self.assertEqual(counts["mismatch"], 2)
        self.assertEqual(failed, 6)

    def test_reference_must_cover_every_session(self):
        with self.assertRaises(ValueError):
            run.serve_accounting(self.SESSIONS, self.REFERENCE[:-1], limit_ms=2000.0)


class TimedTest(unittest.TestCase):
    def schedule(self, wall, seconds, trace=0):
        """The order in which `Run.timed` runs repetitions (R) and set-ups
        (S) when each repetition takes `wall` seconds."""
        bench = run.Run.__new__(run.Run)
        bench.args = argparse.Namespace(seconds=seconds, trace=trace)
        order = []

        def once(i):
            order.append(f"R{i}")
            return run.Proc(wall, 1.0, 1.0, "")

        def setup(i):
            order.append(f"S{i}")
            return float(i)

        reps, setup_s = bench.timed(once, setup, 3)
        self.assertEqual(len(reps), sum(o[0] == "R" for o in order))
        self.assertEqual(setup_s, [0.0, 1.0, 2.0][:len(setup_s)])
        return " ".join(order)

    def test_set_ups_spread_over_the_timed_phase(self):
        self.assertEqual(self.schedule(4.0, 30),
                         "S0 R0 R1 R2 S1 R3 R4 S2 R5 R6 R7")

    def test_a_long_repetition_still_gets_every_set_up(self):
        self.assertEqual(self.schedule(25.0, 30), "S0 R0 S1 S2 R1")

    def test_traced_run_has_one_repetition(self):
        self.assertEqual(self.schedule(4.0, 30, trace=1), "S0 R0")


class DiskHitsTest(unittest.TestCase):
    def test_parses_table2_store_line(self):
        proc = run.Proc(1.0, 1.0, 1.0, "scaled run\nstore: d · wall 4.7s · warm hit-rate 1.000 "
                        "(34080 disk hits / 34080 lookups) · lifetime 68160 hits / 34080 misses\n")
        self.assertEqual(run.disk_hits(proc), 34080)
        self.assertEqual(run.disk_hits(run.Proc(1.0, 1.0, 1.0, "no store line")), 0)


if __name__ == "__main__":
    unittest.main()
