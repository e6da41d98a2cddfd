#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 bench/selftest.py

Checks that the generator and the relabeling are deterministic, that an
item recorded as a timeout accepts only its known verdict, that the traced
run reports a missing stage function, that one pass of every workload
matches bench/expected.json in both modes and prints every metric
BENCHMARK.json names, and that the benchmark fails without printing a
result where there are no sources.  Takes about three
minutes, much of it the items that run to the per-item limit.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest

from record import REFUTED
from run import (BENCH, OUT, ROOT, ItemLog, canonical_plant, check_outputs, fresh_dir,
                 relabel, sha, unlabel)
from sized import sized_model
from trace_worker import Tracer
from workloads import SIZED_PLANTS, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((BENCH / "expected.json").read_text())


def bench(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


class Inputs(unittest.TestCase):
    def test_generator_is_deterministic(self):
        for name, spec in SIZED_PLANTS.items():
            self.assertEqual(sized_model(**spec), sized_model(**spec))
            self.assertNotEqual(sized_model(**spec), sized_model(**{**spec, "seed": spec["seed"] + 1}))

    def test_plants_match_the_record(self):
        for name, digest in EXPECTED["plants"].items():
            self.assertEqual(sha(canonical_plant(name).encode()), digest, name)

    def test_relabel_is_seeded_and_reversible(self):
        text = canonical_plant("gen-27-12-5")
        a, back = relabel(text, random.Random("7/x"))
        self.assertEqual(a, relabel(text, random.Random("7/x"))[0])
        self.assertNotEqual(a, relabel(text, random.Random("8/x"))[0])
        self.assertEqual(unlabel(a.encode(), back), text.encode())


class Checks(unittest.TestCase):
    ITEMS = {item.id: item for items in WORKLOADS.values() for item in items}

    def verdict(self, item_id: str, exit_code: int, stdout: bytes, exact=None) -> bool:
        got = {"stdout": sha(stdout), "files": {}}
        log = ItemLog(self.ITEMS[item_id])
        return check_outputs(log, EXPECTED["items"], exit_code, got, exact)

    def test_timed_out_synthesis_needs_a_checked_verdict(self):
        self.assertTrue(self.verdict("mh/synth-6", 3, REFUTED.encode()))
        self.assertFalse(self.verdict("mh/synth-6", 3, b"something else\n"))
        self.assertFalse(self.verdict("mh/synth-6", 1, b""))  # a crash
        self.assertFalse(self.verdict("mh/synth-6", 0, b"editor"))  # not checked
        self.assertFalse(self.verdict("mh/synth-6", 0, b"editor", exact=False))
        self.assertTrue(self.verdict("mh/synth-6", 0, b"editor", exact=True))

    def test_timed_out_check_needs_the_known_verdict(self):
        self.assertTrue(self.verdict("ce/check-5", 0, b"PASS: ic-enforcing up to depth 302\n"))
        self.assertFalse(self.verdict("ce/check-5", 0, b"PASS: ic-enforcing up to depth 3\n"))
        self.assertFalse(self.verdict("ce/check-5", 1, b""))

    def test_missing_stage_function_is_reported(self):
        tracer = Tracer("x")
        tracer.patch({"mechanism": ("no_such_stage",)})
        self.assertEqual(tracer.missing, {"opacedit.mechanism.no_such_stage"})


class Runs(unittest.TestCase):
    def check_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("MISMATCH", proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        for m in names:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result["metrics"]

    def test_every_workload_matches_and_prints_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                e2e = self.check_result(bench(ROOT, workload, 0), SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(e2e[m["name"]]["value"], 0, m["name"])
                layers = self.check_result(bench(ROOT, workload, 1), SPEC["per_layer"])
                if workload == "trim-refuted":
                    self.assertEqual(layers["mechanism.merge_s"]["value"], 0)
                    self.assertEqual(layers["mechanism.beliefs"]["value"], 0)
                if workload == "certify":  # counts repeat exactly
                    again = self.check_result(bench(ROOT, workload, 1), SPEC["per_layer"])
                    for m in SPEC["per_layer"]:
                        if m["unit"] == "count":
                            self.assertEqual(layers[m["name"]], again[m["name"]], m["name"])

    def test_fails_without_sources(self):
        bare = fresh_dir(OUT / "bare")
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench(bare, "certify", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
