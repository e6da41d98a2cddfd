"""Pruning of problematic game states, supervisory-control style.

System moves are uncontrollable: an information state dies as soon as one
observable event leads into a dead augmented state.  Defender moves are
controllable: individual edit actions into dead information states are
disabled, and an augmented state dies only when no response survives.
The backward safety solver takes rows as they are built, so trimming can
drive the game's construction and stop once the initial state is lost.
The same solver and live-part pass also refine the merged mechanism
(``refine_to_em``), where the cut edges are the partial actions.

Both passes pay for what dies, not for what is fed.  The solver indexes
predecessors only at its first death, and the live part keeps every row
that loses nothing as the same object.  That sharing is sound because
rows are never mutated once ``expand`` (of the game or of the mechanism)
has built them.
"""
from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Collection, Hashable, Iterable, Mapping, NamedTuple, Optional

from .game import EditAction, EditGameStructure

Rows = Mapping[Hashable, Mapping[Hashable, Hashable]]
# controllable node -> labels of its cut edges
Cut = Mapping[Hashable, Collection[Hashable]]
_NO_CUT: Cut = MappingProxyType({})


class TrimmedGameStructure(NamedTuple):
    """Surviving game plus the per-state edit actions that trimming disabled;
    states are the game's codes."""

    game: EditGameStructure
    disabled: dict[int, tuple[EditAction, ...]]
    removed_a: tuple[int, ...]
    removed_f: tuple[int, ...]


class BackwardSolver:
    """Backward attractor on a bipartite safety game, fed one row at a time.

    Uncontrollable rows belong to the plant: a node dies once any successor
    is dead.  Controllable rows belong to the defender: a node dies once
    every successor over an uncut edge is dead.  Rows (each node's at most
    once, with its cut) and seeds may arrive in any order, and ``dead`` is
    always the attractor of the seeds over the rows fed so far, where a
    node without a row counts as live.
    Until the first death (a seed, or a controllable row whose every edge
    is cut) the rows are only kept; the first death replays them into
    predecessor counters, which make the total work linear in the edges
    fed from then on.  A solve that proves nothing dead costs one append
    per row.
    """

    def __init__(self) -> None:
        self.dead: set = set()
        # rows fed before the first death, as (node, row, cut) with cut None
        # for an uncontrollable row; None once the counters are built
        self._kept: Optional[list] = []
        self._parents: dict[Hashable, list] = {}
        self._live_count: dict[Hashable, int] = {}

    def seed(self, node: Hashable) -> None:
        if node not in self.dead:
            self._kill(node)

    def add_unctrl(self, node: Hashable, row: Mapping) -> None:
        if self._kept is not None:
            self._kept.append((node, row, None))
            return
        if node in self.dead:
            return
        if any(succ in self.dead for succ in row.values()):
            self._kill(node)
            return
        for succ in row.values():
            self._parents.setdefault(succ, []).append(node)

    def add_ctrl(self, node: Hashable, row: Mapping, cut: Collection = ()) -> None:
        """Feed ``node``'s row; edges labeled in ``cut`` do not count."""
        if self._kept is not None and row and (
                not cut or any(label not in cut for label in row)):
            self._kept.append((node, row, cut))
            return
        if node in self.dead:
            return
        live = [succ for label, succ in row.items()
                if label not in cut and succ not in self.dead]
        self._live_count[node] = len(live)
        for succ in live:
            self._parents.setdefault(succ, []).append(node)
        if not live:
            self._kill(node)

    def _index(self) -> None:
        """Replay the kept rows into the predecessor counters; nothing is
        dead yet, so none of them dies."""
        kept, self._kept = self._kept, None
        for node, row, cut in kept:
            if cut is None:
                self.add_unctrl(node, row)
            else:
                self.add_ctrl(node, row, cut)

    def _kill(self, node: Hashable) -> None:
        if self._kept is not None:
            self._index()
        dead, live_count = self.dead, self._live_count
        dead.add(node)
        stack = [node]
        while stack:
            for parent in self._parents.pop(stack.pop(), ()):
                if parent in dead:
                    continue
                if parent in live_count:
                    live_count[parent] -= 1
                    if live_count[parent]:
                        continue
                dead.add(parent)
                stack.append(parent)


def backward_dead(
    unctrl: Rows, ctrl: Rows, seeds: Iterable[Hashable], cut: Cut = _NO_CUT
) -> set:
    """Backward attractor of ``seeds`` over whole rows (``BackwardSolver``);
    ``cut`` maps a controllable node to the labels of its cut edges."""
    solver = BackwardSolver()
    for node in seeds:
        solver.seed(node)
    for node, row in ctrl.items():
        solver.add_ctrl(node, row, cut.get(node, ()))
    for node, row in unctrl.items():
        solver.add_unctrl(node, row)
    return solver.dead


def live_part(
    initial: Hashable, unctrl: Rows, ctrl: Rows, dead: set, cut: Cut = _NO_CUT
) -> tuple[dict, dict]:
    """Rows reachable from ``initial`` once ``dead`` nodes are gone.

    Uncontrollable rows are kept whole, since none of their moves can be
    refused; controllable rows keep only their uncut edges into live nodes.
    A row that loses no edge is kept as the same object.
    """
    kept_u = {initial: unctrl[initial]}
    kept_c: dict = {}
    queue = deque([initial])
    while queue:
        for node in kept_u[queue.popleft()].values():
            assert node not in dead, "uncontrollable move into a pruned state survived"
            if node in kept_c:
                continue
            row = ctrl[node]
            skip = cut.get(node, ())
            if skip or not dead.isdisjoint(row.values()):
                row = {label: succ for label, succ in row.items()
                       if succ not in dead and label not in skip}
            assert row, "surviving controllable state lost every action"
            kept_c[node] = row
            for succ in row.values():
                if succ not in kept_u:
                    kept_u[succ] = unctrl[succ]
                    queue.append(succ)
    return kept_u, kept_c


def _walk_dead(game: EditGameStructure) -> Optional[tuple[set, int]]:
    """States proven dead by the walk ``trim_game`` describes, and the
    number of information states it reached; None as soon as the initial
    state dies."""
    solver = BackwardSolver()
    dead = solver.dead
    fed: set[int] = set()
    seen = {game.initial}
    queue = deque(seen)
    if game.utility(game.initial) == 0:
        solver.seed(game.initial)
    while queue:
        if game.initial in dead:
            return None
        v = queue.popleft()
        if v in dead and v not in game.sys_moves:
            continue
        row = game.expand(v)
        for vf in row.values():
            if vf in fed:
                continue
            fed.add(vf)
            moves = game.def_moves[vf]
            for target in moves.values():
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
                    if game.utility(target) == 0:
                        solver.seed(target)
            # an augmented state without responses, utility 0, dies here:
            # the solver kills a controllable row with no edge
            solver.add_ctrl(vf, moves)
        solver.add_unctrl(v, row)
    return None if game.initial in dead else (dead, len(seen))


def trim_game(game: EditGameStructure) -> Optional[TrimmedGameStructure]:
    """Prune utility-0 states to a fixpoint; None when the initial state dies.

    The walk goes breadth-first from the initial state and expands only
    states not yet proven dead, feeding each row to one ``BackwardSolver``
    with the utility-0 information states as seeds (a utility-0 augmented
    state has an empty row, which dies as it is fed); it stops as soon as
    the initial state dies.  When the initial state survives, every state
    the walk reached is either proven dead or expanded, so the live part
    and the disabled actions are those of the whole game.  Rows built
    before the call are fed even where their state is dead, so on a
    completed game ``removed_a`` and ``removed_f`` list every dead state.
    When nothing died and the game holds no row the walk did not reach,
    the walked game is its own live part and is returned as it is.
    """
    walked = _walk_dead(game)
    if walked is None:
        return None
    dead, reached = walked
    if not dead and reached == len(game.sys_moves):
        return TrimmedGameStructure(game=game, disabled={}, removed_a=(), removed_f=())
    sys_moves, def_moves = live_part(game.initial, game.sys_moves, game.def_moves, dead)
    rows = game.def_moves
    # live_part copies exactly the rows that lost an action into a dead state
    filtered = sorted(vf for vf, row in def_moves.items() if row is not rows[vf])
    disabled = {vf: tuple(act for act, tgt in rows[vf].items() if tgt in dead)
                for vf in filtered}
    order = sorted(dead)
    return TrimmedGameStructure(
        game=game.restrict(sys_moves, def_moves),
        disabled=disabled,
        removed_a=tuple(v for v in order if v not in rows),
        removed_f=tuple(vf for vf in order if vf in rows),
    )
