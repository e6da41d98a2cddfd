"""The benchmark's plants, editors, items and workloads.

An item is one `opacedit` command line on one plant.  Each workload is a
fixed list of items; `--seed` relabels the plants' states and shuffles the
item order, but never changes a plant's structure, so runs with different
seeds do the same work and their timings can be compared.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Per-item wall limit.  Every decided item finishes in under 3 s on the
# sizing machine; the two known defects run for minutes or forever.
LIMIT_S = 8.0

# Plants named gen-S-M-E are stored in bench/instances/ as written by
# `opacedit gen --seed S --max-states M --max-events E` at the commit the
# expected outputs were recorded on.

# Plants drawn by bench/sized.py at set-up; the generator seed is part of
# the plant, not the benchmark's --seed.
SIZED_PLANTS = {
    # defender observer of ~24k estimates, intruder observer of 4
    "sized-obs": dict(seed=1, states=300, events="abcd", intruder="a",
                      defender="bcd", secret_frac=0.1, density=0.28),
    # opaque: the identity editor passes, checked over the whole product
    "sized-opaque": dict(seed=1, states=300, events="abcd", intruder="ab",
                         defender="cd", secret_frac=0.1, density=0.4),
    # intruder observer of ~7k estimates; verify finds a leak
    "sized-leak": dict(seed=1, states=200, events="abcd", intruder="abd",
                       defender="bc", secret_frac=0.1, density=0.3),
}

COMMANDS = ("synthesize", "export-dot", "verify", "check")


@dataclass(frozen=True)
class Item:
    id: str
    cmd: str
    plant: str
    args: tuple[str, ...] = ()
    editor: Optional[str] = None  # stem of a file in bench/editors/

    def argv(self, plant_path: str, editor_path: Optional[str]) -> list[str]:
        """CLI arguments; run with the item's own directory as cwd."""
        if self.cmd == "export-dot":
            return [self.cmd, plant_path, "--dot", "dot", "-o", "editor.mealy", *self.args]
        if self.cmd == "check":
            return [self.cmd, plant_path, editor_path, *self.args]
        return [self.cmd, plant_path, *self.args]


def _k(n: int) -> tuple[str, ...]:
    return ("--max-insert", str(n))


def _depth(n: int) -> tuple[str, ...]:
    return ("--depth", str(n))


WORKLOADS: dict[str, tuple[Item, ...]] = {
    # Enforceable plants where belief merging and refinement dominate.
    "merge-heavy": (
        Item("mh/synth-27", "synthesize", "gen-27-12-5"),
        Item("mh/synth-12", "synthesize", "gen-12-30-10"),
        Item("mh/synth-37", "synthesize", "gen-37-30-10"),
        Item("mh/synth-6", "synthesize", "gen-6-16-6"),
        Item("mh/export-27", "export-dot", "gen-27-12-5"),
        Item("mh/verify-27", "verify", "gen-27-12-5"),
        Item("mh/verify-12", "verify", "gen-12-30-10"),
        Item("mh/verify-37", "verify", "gen-37-30-10"),
        Item("mh/check-27-d10", "check", "gen-27-12-5", _depth(10), "synth-gen-27-12-5"),
    ),
    # Large games that trimming refutes (exit 3); merging never runs.
    "trim-refuted": (
        Item("tr/synth-53-k1", "synthesize", "gen-53-30-10", _k(1)),
        Item("tr/synth-53-k2", "synthesize", "gen-53-30-10", _k(2)),
        Item("tr/synth-33-k2", "synthesize", "gen-33-30-10", _k(2)),
        Item("tr/synth-23-k2", "synthesize", "gen-23-30-10", _k(2)),
        Item("tr/export-33-k2", "export-dot", "gen-33-30-10", _k(2)),
        Item("tr/verify-53", "verify", "gen-53-30-10"),
        Item("tr/verify-33", "verify", "gen-33-30-10"),
        Item("tr/verify-23", "verify", "gen-23-30-10"),
        Item("tr/check-53-d8", "check", "gen-53-30-10", _depth(8), "identity-cde"),
        Item("tr/check-33-d8", "check", "gen-33-30-10", _depth(8), "identity-acd"),
    ),
    # The read side: verify plants and check stored editors.
    "certify": (
        Item("ce/verify-obs", "verify", "sized-obs"),
        Item("ce/verify-opaque", "verify", "sized-opaque"),
        Item("ce/verify-leak", "verify", "sized-leak"),
        Item("ce/check-obs-d12", "check", "sized-obs", _depth(12), "identity-bcd"),
        Item("ce/check-opaque-d12", "check", "sized-opaque", _depth(12), "identity-cd"),
        Item("ce/check-leak-d6", "check", "sized-leak", _depth(6), "identity-bc"),
        Item("ce/check-5-d11", "check", "gen-5-8-5", _depth(11), "synth-gen-5-8-5"),
        Item("ce/check-5", "check", "gen-5-8-5", (), "synth-gen-5-8-5"),
        Item("ce/synth-5", "synthesize", "gen-5-8-5"),
        Item("ce/export-5", "export-dot", "gen-5-8-5"),
    ),
}
