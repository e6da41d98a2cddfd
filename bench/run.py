#!/usr/bin/env python3
"""The opacedit benchmark.

    python3 bench/run.py --workload merge-heavy --seed 1 --seconds 40 --trace 0

Run from a checkout holding `src/opacedit`; the package need not be
installed.  With `--trace 0` every item is an `opacedit` child process
(`python -m opacedit.cli ...`, one at a time) whose wall time and peak RSS
are measured and whose exit code and output digests are compared with
bench/expected.json; the result reports the end-to-end metrics.  With
`--trace 1` every item runs in a bench/trace_worker.py child that calls the
CLI in-process with the stage functions wrapped in spans; the result
reports per-layer times and counts, and the spans are written to
bench/out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The first pass runs every item once; an item past the per-item limit is
killed, recorded as a timeout and not run again.  In the end-to-end run,
further passes run the decided items while a run is expected to end
within `--seconds`; in each pass every command gets RUNS_PER_PASS runs,
shared by its decided items.  Every timed child runs between two runs of
bench/calibrate.py, and end-to-end times are reported at a fixed reference
speed.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from sized import sized_model  # noqa: E402
from workloads import COMMANDS, LIMIT_S, SIZED_PLANTS, WORKLOADS, Item  # noqa: E402

SETUP_SAMPLES = 9
# Runs of each command in every further pass.  A command's metric is a
# mean over its items, so its precision follows its sample count; an equal
# count per command gives every metric, each with the same bound, the same
# footing whatever its items cost.
RUNS_PER_PASS = 4
# Wall time of bench/calibrate.py on the sizing machine in a quiet phase.
# The machine's speed drifts by up to a third over minutes, so every timed
# child runs between two kernel runs and its wall time is reported at the
# reference speed: wall * CALIB_REF_S / kernel wall, with the mean of the
# two kernels' speeds.
CALIB_REF_S = 0.150
MEM_LIMIT = 3 << 30  # address-space cap per child, bytes
LABEL_RE = re.compile(rb"x\d{6}")

E2E_UNITS = {"synth_s": "s", "export_s": "s", "verify_s": "s", "check_s": "s",
             "pass_s": "s", "decided_frac": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
CMD_METRIC = {"synthesize": "synth_s", "export-dot": "export_s",
              "verify": "verify_s", "check": "check_s"}
LAYER_TIMES = {  # per-layer time metric -> span names whose self time it sums
    "automata.parse_s": ("automata.parse_model",),
    "observers.build_s": ("observers.standard_observers", "observers.build_observer"),
    "game.build_s": ("game.build_edit_game",),
    "trimming.trim_s": ("trimming.trim_game",),
    "mechanism.merge_s": ("mechanism.build_uem",),
    "mechanism.refine_s": ("mechanism.refine_to_em",),
    "mechanism.synth_s": ("mechanism.synthesize", "mechanism.format_mealy"),
    "opacity.verify_s": ("opacity.verify_cso",),
    "opacity.evaluate_s": ("opacity.evaluate_editor",),
    "harness.exact_check_s": ("harness.exact_ic_check",),
    "dot.export_s": ("dot.observer_dot", "dot.game_dot", "dot.trimmed_dot",
                     "dot.mechanism_dot", "dot.mealy_dot"),
}
LAYER_COUNTS = ("automata.plant_states", "observers.intruder_states",
                "observers.defender_states", "game.info_states", "game.aug_states",
                "game.edges", "trimming.removed", "trimming.disabled",
                "mechanism.beliefs", "mechanism.obs_states", "mechanism.partial",
                "mechanism.belief_max", "mechanism.transducer_states")


# --------------------------------------------------------------------------
# inputs

def canonical_plant(name: str) -> str:
    if name in SIZED_PLANTS:
        return sized_model(**SIZED_PLANTS[name])
    return (BENCH / "instances" / f"{name}.aut").read_text()


def relabel(text: str, rng: random.Random) -> tuple[str, dict[bytes, bytes]]:
    """Rename every state to a fresh `xNNNNNN` label, keeping declaration
    order, so the plant's structure and every label-free output stay the
    same.  Returns the new text and the map back to the old labels."""
    lines = text.splitlines()
    states = next(line.split()[1:] for line in lines if line.startswith("states "))
    fresh = rng.sample(range(10 ** 6), len(states))
    new = {old: f"x{n:06d}" for old, n in zip(states, fresh)}
    out = []
    for line in lines:
        tok = line.split()
        if tok and tok[0] in ("states", "initial", "secret"):
            tok[1:] = [new[t] for t in tok[1:]]
        elif tok and tok[0] == "trans":
            tok[1], tok[3] = new[tok[1]], new[tok[3]]
        out.append(" ".join(tok))
    return "\n".join(out) + "\n", {v.encode(): k.encode() for k, v in new.items()}


def unlabel(data: bytes, back: dict[bytes, bytes]) -> bytes:
    return LABEL_RE.sub(lambda m: back[m.group()], data) if back else data


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(item: Item, item_dir: Path, stdout: bytes, back) -> dict:
    """Digests of the item's outputs, with the plant's labels mapped back."""
    paths = [item_dir / "editor.mealy", *sorted((item_dir / "dot").glob("*.dot"))]
    files = {p.relative_to(item_dir).as_posix(): sha(unlabel(p.read_bytes(), back))
             for p in paths if p.is_file()}
    return {"stdout": sha(unlabel(stdout, back)), "files": files}


# --------------------------------------------------------------------------
# child processes

@dataclass
class Run:
    wall: float
    rss_mb: float
    exit: Optional[int]  # None: killed at the limit
    stdout: bytes


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEM_LIMIT, MEM_LIMIT))


def spawn(argv: list[str], cwd: Path, limit: float) -> Run:
    """Run one child; kill it at `limit` seconds; reap it with wait4 for
    its rusage.  Output goes to files so no pipe can fill up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, preexec_fn=_cap_memory)
    fd = os.pidfd_open(proc.pid)
    done = []
    try:
        done, _, _ = select.select([fd], [], [], limit)
    finally:
        os.close(fd)
        if not done:  # past the limit, or interrupted: the child goes too
            os.kill(proc.pid, signal.SIGKILL)  # not yet reaped, so the pid is ours
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Run(wall, usage.ru_maxrss / 1024, None if not done else code,
               (cwd / "stdout").read_bytes())


def cli_argv(item: Item, plants: dict[str, Path]) -> list[str]:
    editor = str(BENCH / "editors" / f"{item.editor}.mealy") if item.editor else None
    return [sys.executable, "-m", "opacedit.cli", *item.argv(str(plants[item.plant]), editor)]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --------------------------------------------------------------------------
# one run

@dataclass
class ItemLog:
    item: Item
    walls: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    timeouts: int = 0
    mismatches: list[str] = field(default_factory=list)
    verdict_only: int = 0  # runs of an item recorded as a timeout
    scaled: list[float] = field(default_factory=list)  # walls at reference speed
    run_s: float = 0.0  # duration of its last run, for planning

    @property
    def decided(self) -> bool:
        return self.timeouts == 0


def check_outputs(log: ItemLog, expected: dict, exit_code: int, got: dict,
                  exact: Optional[bool] = None) -> bool:
    """Compare with the expected file; False on a mismatch.  `exact` is
    the `exact_ic_check` verdict on the item's editor where one was
    computed; it must equal the recorded one.  For an item the file
    records as a timeout only the verdict is known: the exit code must be
    one of those recorded, stdout must match the digest recorded for that
    exit code where there is one, and a transducer it printed must have
    been checked."""
    want = expected.get(log.item.id)
    if want is None:
        log.mismatches.append("no expected entry")
        return False
    problems = []
    if want.get("timeout"):
        log.verdict_only += 1
        digest = want["stdout"].get(str(exit_code))
        if exit_code not in want["exits"]:
            problems.append(f"exit {exit_code} not in {want['exits']}")
        elif digest is not None and got["stdout"] != digest:
            problems.append("stdout digest")
        elif log.item.cmd == "synthesize" and exit_code == 0 and exact is None:
            problems.append("printed transducer not checked")
    else:
        if exit_code != want["exit"]:
            problems.append(f"exit {exit_code} != {want['exit']}")
        if got["stdout"] != want["stdout"]:
            problems.append("stdout digest")
        if got["files"] != want["files"]:
            problems.append("file digests")
    if exact is not None and exact != want.get("exact"):
        problems.append(f"exact_ic_check {exact} != recorded {want.get('exact')}")
    log.mismatches.extend(problems)
    return not problems


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, expected: dict):
        self.items = WORKLOADS[workload]
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.expected = expected["items"]
        self.rng = random.Random(seed)
        self.work = fresh_dir(OUT / f"work-{workload}-{seed}-{os.getpid()}")
        self.plants: dict[str, Path] = {}
        self.back: dict[str, dict[bytes, bytes]] = {}
        self.bad_plants = []
        for name in sorted({item.plant for item in self.items}):
            canonical = canonical_plant(name)
            if sha(canonical.encode()) != expected["plants"].get(name):
                self.bad_plants.append(name)
            text, back = relabel(canonical, random.Random(f"{seed}/{name}"))
            path = self.work / "plants" / f"{name}.aut"
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
            self.plants[name], self.back[name] = path, back
        self.logs = {item.id: ItemLog(item) for item in self.items}
        self.traces: list[dict] = []  # trace worker results
        self.attempted = self.failed = 0
        self.speed = 0.0  # reference speed over the current one, at the last kernel run
        self.pending: Optional[tuple[list[float], float]] = None  # (samples, wall) to scale

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def calibrate(self, cwd: Path) -> None:
        """Run the kernel.  It ends the timed child before it, whose wall
        time is scaled by the mean speed of the kernels on either side,
        and starts the next one."""
        run = spawn([sys.executable, str(BENCH / "calibrate.py")], cwd, LIMIT_S)
        if run.exit != 0:
            raise SystemExit("error: bench/calibrate.py failed")
        speed = CALIB_REF_S / run.wall
        if self.pending is not None:
            samples, wall = self.pending
            samples.append(wall * (self.speed + speed) / 2)
            self.pending = None
        self.speed = speed

    def timed(self, wall: float, samples: list[float]) -> None:
        """Scale `wall` into `samples` at the next kernel run."""
        self.pending = (samples, wall)

    def setup_s(self) -> tuple[float, float]:
        """Median wall time of a fresh interpreter importing the CLI module,
        after one untimed import that fills the bytecode cache: unscaled,
        and at reference speed."""
        cwd = fresh_dir(self.work / "setup")
        argv = [sys.executable, "-c", "import opacedit.cli"]
        walls, scaled = [], []
        for _ in range(SETUP_SAMPLES + 1):
            self.calibrate(cwd)
            run = spawn(argv, cwd, LIMIT_S)
            if run.exit != 0:
                raise SystemExit(f"error: cannot import opacedit.cli from {SRC}")
            walls.append(run.wall)
            self.timed(run.wall, scaled)
        self.calibrate(cwd)
        return statistics.median(walls[1:]), statistics.median(scaled[1:])

    def runs_per_pass(self, item: Item) -> int:
        """The item's share of its command's RUNS_PER_PASS, at least one."""
        peers = sum(log.decided for log in self.logs.values() if log.item.cmd == item.cmd)
        return max(1, round(RUNS_PER_PASS / peers))

    def passes(self, run_item, again: bool) -> None:
        """Rounds that run items once each, in an order shuffled by the
        seed.  The first round runs every item.  With `again`, passes of
        RUNS_PER_PASS rounds follow until the deadline, and a decided item
        takes part in the first `runs_per_pass` rounds of each, so a
        partial pass drops repeats before first runs.  After the first
        round a run starts only if the item's last run time says it ends
        before the deadline."""
        deadline = time.perf_counter() + self.seconds
        todo, r = list(self.items), -1
        while True:
            self.rng.shuffle(todo)
            ran = False
            for item in todo:
                log = self.logs[item.id]
                if r >= 0 and time.perf_counter() + log.run_s > deadline:
                    continue
                start = time.perf_counter()
                run_item(item)
                log.run_s = time.perf_counter() - start
                ran = True
            # a pass's first round holds every decided item: if none ran, none fits
            if not again or (not ran and r % RUNS_PER_PASS == 0):
                break
            r += 1
            todo = [item for item in self.items if self.logs[item.id].decided
                    and self.runs_per_pass(item) > r % RUNS_PER_PASS]

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        if self.bad_plants:
            print(f"error: plants differ from the recorded ones: {self.bad_plants}",
                  file=sys.stderr)
        return {
            "correct": self.failed == 0 and not self.bad_plants,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }

    # ---- end to end ----------------------------------------------------

    def run_e2e_item(self, item: Item) -> None:
        """The item once, after a calibration run."""
        log = self.logs[item.id]
        item_dir = fresh_dir(self.work / item.id.replace("/", "_"))
        self.calibrate(item_dir)
        run = spawn(cli_argv(item, self.plants), item_dir, LIMIT_S)
        self.attempted += 1
        if run.exit is None:
            log.timeouts += 1
            return
        got = digests(item, item_dir, run.stdout, self.back[item.plant])
        exact = None
        if (self.expected.get(item.id, {}).get("timeout") and item.cmd == "synthesize"
                and run.exit == 0):
            exact = self.exact_check(item, item_dir, run.stdout)
        if not check_outputs(log, self.expected, run.exit, got, exact):
            self.failed += 1
        log.walls.append(run.wall)
        self.timed(run.wall, log.scaled)
        log.rss.append(run.rss_mb)

    def exact_check(self, item: Item, item_dir: Path, editor: bytes) -> bool:
        """Untimed `exact_ic_check` of a printed transducer, in a child."""
        path = item_dir / "printed.mealy"
        path.write_bytes(editor)
        argv = [sys.executable, str(BENCH / "exact_check.py"), str(self.plants[item.plant]),
                str(path)]
        return spawn(argv, item_dir, LIMIT_S).exit == 0

    def e2e(self) -> dict:
        raw, m = {}, {}
        raw["setup_s"], m["setup_s"] = self.setup_s()
        self.passes(self.run_e2e_item, again=True)
        self.calibrate(self.work)
        logs = self.logs.values()
        for out, attr in ((m, "scaled"), (raw, "walls")):
            for cmd in COMMANDS:
                medians = [statistics.median(getattr(log, attr)) for log in logs
                           if log.item.cmd == cmd and log.decided]
                out[CMD_METRIC[cmd]] = statistics.geometric_mean(medians) if medians else LIMIT_S
            out["pass_s"] = sum(statistics.median(getattr(log, attr)) if log.decided else LIMIT_S
                                for log in logs)
        m["decided_frac"] = sum(log.decided for log in logs) / len(self.logs)
        m["peak_rss_mb"] = max((r for log in logs if log.decided for r in log.rss), default=0.0)
        self.report_items()
        OUT.mkdir(exist_ok=True)
        (OUT / f"e2e-{self.workload}-{self.seed}.json").write_text(json.dumps(
            {log.item.id: {"walls": log.walls, "scaled": log.scaled, "rss_mb": log.rss,
                           "timeouts": log.timeouts} for log in logs}))
        print("unscaled wall times: " + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items()))
        return self.result(m, E2E_UNITS)

    # ---- traced ----------------------------------------------------------

    def run_traced_item(self, item: Item) -> None:
        log = self.logs[item.id]
        item_dir = fresh_dir(self.work / item.id.replace("/", "_"))
        request = {
            "src": str(SRC), "item": item.id, "cmd": item.cmd,
            "traced_first": len(self.traces) % 2,
            "argv": cli_argv(item, self.plants)[3:], "limit": LIMIT_S,
            "result": str(item_dir / "result.json"),
        }
        (item_dir / "request.json").write_text(json.dumps(request))
        argv = [sys.executable, str(BENCH / "trace_worker.py"), str(item_dir / "request.json")]
        run = spawn(argv, item_dir, 4 * LIMIT_S)
        self.attempted += 1
        path = item_dir / "result.json"
        res = json.loads(path.read_text()) if run.exit == 0 and path.exists() else None
        if res is None:
            log.timeouts += 1
            self.failed += 1
            log.mismatches.append(f"trace worker exit {run.exit}")
            return
        if res["errors"]:
            self.failed += 1
            log.mismatches.extend(res["errors"])
        if res["timeout"]:
            log.timeouts += 1
            return
        got = digests(item, item_dir, res["stdout"].encode(), self.back[item.plant])
        if not check_outputs(log, self.expected, res["exit"], got, res.get("exact")):
            self.failed += 1
        log.walls.append(res["traced_s"])
        self.traces.append(res)

    def traced(self) -> dict:
        self.passes(self.run_traced_item, again=False)
        spans = [s for r in self.traces for s in r["spans"]]
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{self.workload}-{self.seed}.json").write_text(json.dumps(
            {"fields": ["name", "layer", "start", "end", "parent", "item"], "spans": spans}))
        self.report_items()
        return self.result(layer_metrics(self.traces), per_layer_units())

    def report_items(self) -> None:
        print(f"{'item':22} {'cmd':10} {'n':>3} {'wall_s':>9} status")
        for log in self.logs.values():
            med = f"{statistics.median(log.walls):9.3f}" if log.walls else " " * 9
            status = ("MISMATCH " + "; ".join(sorted(set(log.mismatches))) if log.mismatches else
                      "timeout" if not log.decided else
                      "verdict ok" if log.verdict_only else "ok")
            print(f"{log.item.id:22} {log.item.cmd:10} {len(log.walls):3d} {med} {status}")


def per_layer_units() -> dict[str, str]:
    units = {k: "s" for k in LAYER_TIMES}
    units.update({k: "count" for k in LAYER_COUNTS})
    units.update({"trimming.kept_frac": "ratio", "mechanism.used_frac": "ratio",
                  "cli.self_s": "s", "trace.overhead_ratio": "ratio"})
    return units


def layer_metrics(results: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    m = dict.fromkeys(per_layer_units(), 0.0)
    by_name = {name: key for key, names in LAYER_TIMES.items() for name in names}
    untraced = traced = 0.0
    kept = total = 0
    for r in results:
        spans = r["spans"]
        child = [0.0] * len(spans)
        for s in spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        for s, c in zip(spans, child):
            if s[0] in by_name:
                m[by_name[s[0]]] += (s[3] - s[2]) - c
        m["cli.self_s"] += r["cli_self_s"]
        untraced += r["untraced_s"]
        traced += r["traced_s"]
        counts = r.get("counts", {})
        for k in LAYER_COUNTS:
            if k == "mechanism.belief_max":
                m[k] = max(m[k], counts.get(k, 0))
            else:
                m[k] += counts.get(k, 0)
        kept += counts.get("trimming.kept", 0)
        total += counts.get("trimming.total", 0)
    m["trimming.kept_frac"] = kept / total if total else 0.0
    m["mechanism.used_frac"] = (m["mechanism.transducer_states"] / m["mechanism.beliefs"]
                                if m["mechanism.beliefs"] else 0.0)
    m["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="opacedit benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "opacedit" / "cli.py").is_file():
        print(f"error: no opacedit sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())
    bench = Bench(args.workload, args.seed, args.seconds, expected)
    try:
        result = bench.traced() if args.trace else bench.e2e()
    finally:
        bench.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
