"""Exact check of one editor on one plant.

    python3 bench/exact_check.py PLANT.aut EDITOR.mealy

Exits 0 when `exact_ic_check` passes and 1 when it fails.  The end-to-end
run calls it, untimed, on a transducer printed by an item that
bench/expected.json records as a timeout: such an output has no recorded
digest, so the exact check is what makes it correct.
"""
import sys
from pathlib import Path

from opacedit import exact_ic_check, parse_mealy, parse_model

aut, profile = parse_model(Path(sys.argv[1]).read_text())
editor = parse_mealy(Path(sys.argv[2]).read_text())
sys.exit(0 if exact_ic_check(aut, profile, editor) else 1)
