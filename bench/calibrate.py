"""Fixed pure-Python kernel that measures how fast this machine runs
Python at this moment.

    python3 bench/calibrate.py

Hashes, inserts and sorts frozensets of small ints, the operations that
dominate the opacedit pipeline, for a fixed number of rounds.  It imports
nothing from opacedit, so its time does not change when the program does.
bench/run.py runs it right before every timed child and scales the
child's wall time by its reference time over the kernel's.
"""
import random

rng = random.Random(5)
table: dict[frozenset, int] = {}
for _ in range(15000):
    key = frozenset(rng.sample(range(40), 4))
    table[key] = table.get(key, 0) + 1
order = sorted(table.items(), key=lambda kv: tuple(sorted(kv[0])))
