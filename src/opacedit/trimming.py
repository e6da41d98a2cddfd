"""Pruning of problematic game states, supervisory-control style.

System moves are uncontrollable: an information state dies as soon as one
observable event leads into a dead augmented state.  Defender moves are
controllable: individual edit actions into dead information states are
disabled, and an augmented state dies only when no response survives.
The same backward safety solver and live-part pass also refine the merged
mechanism (``refine_to_em``), where the cut edges are the partial actions.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Collection, Hashable, Iterable, Mapping, Optional

from .game import AugmentedState, EditAction, EditGameStructure, InfoState

Rows = Mapping[Hashable, Mapping[Hashable, Hashable]]


@dataclass(frozen=True)
class TrimmedGameStructure:
    """Surviving game plus the per-state edit actions that trimming disabled."""

    game: EditGameStructure
    disabled: dict[AugmentedState, tuple[EditAction, ...]]
    removed_a: tuple[InfoState, ...]
    removed_f: tuple[AugmentedState, ...]


def _cut_by_source(cut: Collection[tuple]) -> dict:
    by_source: dict = {}
    for node, label in cut:
        by_source.setdefault(node, set()).add(label)
    return by_source


def backward_dead(
    unctrl: Rows, ctrl: Rows, seeds: Iterable[Hashable], cut: Collection[tuple] = ()
) -> set:
    """Backward attractor of ``seeds`` on a bipartite safety game.

    ``unctrl`` rows belong to the plant: a node dies once any successor is
    dead.  ``ctrl`` rows belong to the defender: a node dies once every
    successor over an edge not in ``cut`` (``(node, label)`` pairs) is dead.
    Predecessor counters make this linear in the number of edges.
    """
    cut_at = _cut_by_source(cut)
    dead = set(seeds)
    parents: dict[Hashable, list] = {}
    for node, row in unctrl.items():
        for succ in row.values():
            parents.setdefault(succ, []).append(node)
    live_count: dict[Hashable, int] = {}
    for node, row in ctrl.items():
        skip = cut_at.get(node, ())
        live = [succ for label, succ in row.items() if label not in skip]
        live_count[node] = len(live)
        for succ in live:
            parents.setdefault(succ, []).append(node)
        if not live:
            dead.add(node)

    queue = deque(dead)
    while queue:
        for parent in parents.get(queue.popleft(), ()):
            if parent in dead:
                continue
            if parent in live_count:
                live_count[parent] -= 1
                if live_count[parent]:
                    continue
            dead.add(parent)
            queue.append(parent)
    return dead


def live_part(
    initial: Hashable, unctrl: Rows, ctrl: Rows, dead: set, cut: Collection[tuple] = ()
) -> tuple[dict, dict]:
    """Rows reachable from ``initial`` once ``dead`` nodes are gone.

    Uncontrollable rows are kept whole, since none of their moves can be
    refused; controllable rows keep only their uncut edges into live nodes.
    """
    cut_at = _cut_by_source(cut)
    kept_u = {initial: dict(unctrl[initial])}
    kept_c: dict = {}
    queue = deque([initial])
    while queue:
        for node in kept_u[queue.popleft()].values():
            assert node not in dead, "uncontrollable move into a pruned state survived"
            if node in kept_c:
                continue
            skip = cut_at.get(node, ())
            row = {
                label: succ for label, succ in ctrl[node].items()
                if succ not in dead and label not in skip
            }
            assert row, "surviving controllable state lost every action"
            kept_c[node] = row
            for succ in row.values():
                if succ not in kept_u:
                    kept_u[succ] = dict(unctrl[succ])
                    queue.append(succ)
    return kept_u, kept_c


def trim_game(game: EditGameStructure) -> Optional[TrimmedGameStructure]:
    """Prune utility-0 states to a fixpoint; None when the initial state dies."""
    seeds = [v for v in game.a_states + game.f_states if game.utility[v] == 0]
    dead = backward_dead(game.sys_moves, game.def_moves, seeds)
    if game.initial in dead:
        return None
    sys_moves, def_moves = live_part(game.initial, game.sys_moves, game.def_moves, dead)
    f_states = tuple(vf for vf in game.f_states if vf in def_moves)
    disabled = {}
    for vf in f_states:
        lost = tuple(act for act, tgt in game.def_moves[vf].items() if tgt in dead)
        if lost:
            disabled[vf] = lost
    trimmed = EditGameStructure(
        profile=game.profile,
        k=game.k,
        ops=game.ops,
        initial=game.initial,
        a_states=tuple(v for v in game.a_states if v in sys_moves),
        f_states=f_states,
        sys_moves=sys_moves,
        def_moves=def_moves,
        utility=dict.fromkeys(list(sys_moves) + list(def_moves), 1),
    )
    return TrimmedGameStructure(
        game=trimmed,
        disabled=disabled,
        removed_a=tuple(v for v in game.a_states if v in dead),
        removed_f=tuple(vf for vf in game.f_states if vf in dead),
    )
