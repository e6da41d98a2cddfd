"""Reference implementations kept only for cross-checking the package.

The restart sweep recomputes the backward safety fixpoint the slow,
obviously-correct way, and the naive trim and refinement rebuild their
survivors by re-sorting with the canonical keys rather than filtering the
parent's already sorted tuples.  The naive refinement takes a completed
mechanism.
"""
from __future__ import annotations

from typing import Optional

from opacedit.game import EditAction, EditGameStructure, aug_key, info_key
from opacedit.mechanism import Mechanism
from opacedit.trimming import TrimmedGameStructure


def sweep_dead(unctrl, ctrl, seeds, cut=frozenset()) -> set:
    """Restart-the-sweep formulation of the backward safety fixpoint."""
    dead = set(seeds)
    changed = True
    while changed:
        changed = False
        for node, row in ctrl.items():
            if node not in dead and all(
                (node, label) in cut or succ in dead for label, succ in row.items()
            ):
                dead.add(node)
                changed = True
        for node, row in unctrl.items():
            if node not in dead and any(succ in dead for succ in row.values()):
                dead.add(node)
                changed = True
    return dead


def live_rows(initial, unctrl, ctrl, dead, cut) -> tuple[dict, dict]:
    """Reachable rows by depth-first search, controllable rows filtered."""
    kept_u, kept_c = {}, {}
    stack = [initial]
    while stack:
        node = stack.pop()
        if node in kept_u:
            continue
        kept_u[node] = dict(unctrl[node])
        for mid in unctrl[node].values():
            assert mid not in dead
            kept_c[mid] = {
                label: succ for label, succ in ctrl[mid].items()
                if succ not in dead and (mid, label) not in cut
            }
            stack.extend(kept_c[mid].values())
    return kept_u, kept_c


def trim_game_naive(game: EditGameStructure) -> Optional[TrimmedGameStructure]:
    seeds = [v for v in game.a_states + game.f_states if game.utility[v] == 0]
    dead = sweep_dead(game.sys_moves, game.def_moves, seeds)
    if game.initial in dead:
        return None
    sys_moves, def_moves = live_rows(
        game.initial, game.sys_moves, game.def_moves, dead, frozenset()
    )
    disabled = {}
    for vf in def_moves:
        lost = [act for act, tgt in game.def_moves[vf].items() if tgt in dead]
        if lost:
            disabled[vf] = tuple(sorted(lost, key=EditAction.sort_key))
    trimmed = EditGameStructure(
        profile=game.profile,
        k=game.k,
        ops=game.ops,
        initial=game.initial,
        a_states=tuple(sorted(sys_moves, key=info_key)),
        f_states=tuple(sorted(def_moves, key=aug_key)),
        sys_moves=sys_moves,
        def_moves=def_moves,
        utility={v: 1 for v in list(sys_moves) + list(def_moves)},
    )
    return TrimmedGameStructure(
        game=trimmed,
        disabled=disabled,
        removed_a=tuple(sorted((v for v in game.a_states if v in dead), key=info_key)),
        removed_f=tuple(sorted((v for v in game.f_states if v in dead), key=aug_key)),
    )


def refine_naive(uem: Mechanism) -> Optional[Mechanism]:
    dead = sweep_dead(uem.moves_in, uem.moves_out, (), uem.partial)
    if uem.initial in dead:
        return None
    moves_in, moves_out = live_rows(
        uem.initial, uem.moves_in, uem.moves_out, dead, uem.partial
    )
    return Mechanism(
        defender=uem.defender,
        initial=uem.initial,
        moves_in=moves_in,
        moves_out=moves_out,
        partial=frozenset(),
        guaranteed=True,
    )
