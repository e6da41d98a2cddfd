#!/usr/bin/env python3
"""Record bench/expected.json from the current sources, and validate it.

    python3 bench/record.py

Runs every item of every workload once through the CLI, with the plants'
own labels, and stores its exit code and the sha256 digests of its
standard output, its transducer file and its DOT files.  An item past the
per-item limit is stored as a timeout with what is known of its verdict
(see `timeout_entry`).  The digest of every plant text is stored too, so a
change in a stored instance or in the generator shows.

The record is then validated in-process against the package's oracles:
every synthesized editor must pass `exact_ic_check`; each `check` item's
exact verdict is stored (the traced run compares against it); and for
`synthesize` items the criterion-7 cross-check runs where it finishes
within ORACLE_S seconds: an enforcing editor must pass the bounded
check at its certifying depth, and a refuted plant must admit no bounded
history editor and no memoryless one.  Any validation failure exits 1
without writing the file.
"""
from __future__ import annotations

import json
import shutil
import signal
import sys

from run import (BENCH, LIMIT_S, SRC, WORKLOADS, canonical_plant, cli_argv, digests,
                 fresh_dir, sha, spawn)

sys.path.insert(0, str(SRC))
import opacedit as oe  # noqa: E402

ORACLE_S = 60  # budget of the criterion-7 cross-check per item
# What `opacedit synthesize` prints for a plant it refutes (cli.cmd_synthesize).
REFUTED = "not ic-enforceable at this configuration\n"


class OracleTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OracleTimeout()


def item_config(args: tuple[str, ...]) -> tuple[int, frozenset]:
    k = int(args[args.index("--max-insert") + 1]) if "--max-insert" in args else 1
    return k, oe.OPS_ALL if k >= 1 else oe.OPS_ALL - {"insert"}


def oracle_verdict(aut, profile, exit_code: int, stdout: str, k: int, ops, seconds: int) -> str:
    """Criterion 7 on one synthesize item: 'agrees', 'intractable', or raise."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        if exit_code == 0:
            fe = oe.parse_mealy(stdout)
            depth = oe.certifying_depth(aut, profile, fe, cap=8)
            if not oe.oracle_ic_enforcing(aut, profile, fe, depth).ok:
                raise AssertionError("synthesized editor fails the bounded check")
        else:
            if oe.find_edit_strategy(aut, profile, k, ops, 8) is not None:
                raise AssertionError("bounded strategy exists for a refuted plant")
            if any(oe.exact_ic_check(aut, profile, e)
                   for e in oe.iter_memoryless_editors(profile, k, ops)):
                raise AssertionError("memoryless editor enforces a refuted plant")
        return "agrees"
    except OracleTimeout:
        return "intractable"
    finally:
        signal.alarm(0)


def timeout_entry(item, aut, profile) -> dict:
    """The verdict-level expectation of an item past the limit: the exit
    codes it may give, the stdout digest for each exit code where the
    output is fixed, and the `exact_ic_check` verdict on its editor.

    A `synthesize` item may refute (exit 3, fixed message) or print a
    transducer (exit 0), which must pass the exact check.  A `check` item
    of an editor that passes the exact check must pass the bounded check
    at any depth, so its output is fixed; one that fails must exit 1."""
    if item.cmd == "synthesize":
        return {"timeout": True, "exits": [0, 3], "stdout": {"3": sha(REFUTED.encode())},
                "exact": True}
    if item.cmd != "check":
        raise ValueError(f"{item.id}: no verdict is known for `{item.cmd}` past the limit")
    editor = oe.parse_mealy((BENCH / "editors" / f"{item.editor}.mealy").read_text())
    if not oe.exact_ic_check(aut, profile, editor):
        return {"timeout": True, "exits": [1], "stdout": {}, "exact": False}
    args = item.args
    depth = (int(args[args.index("--depth") + 1]) if "--depth" in args
             else oe.default_depth(aut, profile, item_config(args)[0]))
    passed = f"PASS: ic-enforcing up to depth {depth}\n"
    return {"timeout": True, "exits": [0], "stdout": {"0": sha(passed.encode())}, "exact": True}


def main() -> int:
    work = fresh_dir(BENCH / "out" / "record")
    names = sorted({item.plant for items in WORKLOADS.values() for item in items})
    plants, models = {}, {}
    for name in names:
        text = canonical_plant(name)
        plants[name] = work / f"{name}.aut"
        plants[name].write_text(text)
        models[name] = text
    record = {"plants": {n: sha(models[n].encode()) for n in names}, "items": {}}
    errors = []
    for items in WORKLOADS.values():
        for item in items:
            item_dir = fresh_dir(work / item.id.replace("/", "_"))
            run = spawn(cli_argv(item, plants), item_dir, LIMIT_S)
            aut, profile = oe.parse_model(models[item.plant])
            if run.exit is None:
                try:
                    record["items"][item.id] = entry = timeout_entry(item, aut, profile)
                except ValueError as exc:
                    errors.append(str(exc))
                    continue
                print(f"{item.id:22} timeout exits={entry['exits']}", flush=True)
                continue
            entry = {"exit": run.exit, **digests(item, item_dir, run.stdout, {})}
            if item.cmd == "synthesize" and run.exit == 3 and run.stdout != REFUTED.encode():
                errors.append(f"{item.id}: refutation message differs from REFUTED")
            editor = None
            if item.cmd == "synthesize" and run.exit == 0:
                editor = oe.parse_mealy(run.stdout.decode())
            elif item.cmd == "check":
                editor = oe.parse_mealy((BENCH / "editors" / f"{item.editor}.mealy").read_text())
            if editor is not None:
                entry["exact"] = oe.exact_ic_check(aut, profile, editor)
                if item.cmd == "synthesize" and not entry["exact"]:
                    errors.append(f"{item.id}: synthesized editor fails exact_ic_check")
            if item.cmd == "synthesize":
                k, ops = item_config(item.args)
                try:
                    entry["oracle"] = oracle_verdict(aut, profile, run.exit, run.stdout.decode(),
                                                     k, ops, ORACLE_S)
                except AssertionError as exc:
                    errors.append(f"{item.id}: criterion 7: {exc}")
            if run.wall > LIMIT_S / 2:
                errors.append(f"{item.id}: {run.wall:.1f} s is too close to the limit")
            record["items"][item.id] = entry
            print(f"{item.id:22} exit {run.exit} {run.wall:6.2f}s "
                  f"exact={entry.get('exact', '-')} oracle={entry.get('oracle', '-')}", flush=True)
    shutil.rmtree(work)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    (BENCH / "expected.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
