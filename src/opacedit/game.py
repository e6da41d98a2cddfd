"""The bipartite edit game between the plant and the defender.

Information states are triples of system/intruder/defender estimates.  The
plant moves by playing an observable event, which lands in an augmented
state carrying that pending event; the defender answers with an edit action
whose rendered output word drives the intruder and defender observers
through their self-loop conventions.  A move exists only when both observer
runs stay defined.  The structure is built on demand, one information
state's row at a time, so a trim that refutes the plant early never builds
the rest.  It names every state by an int code whose order is the canonical
order, and ``EditGameStructure.indices_of`` decodes codes.  The paper's
state tuples and the one-step move over them are reference copies in
``tests/oracles.py``, read through ``indices_of``.
"""
from __future__ import annotations

import copy
from itertools import islice
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .automata import FiniteAutomaton, ObservationProfile, Trace
from .observers import ObserverAutomaton, standard_observers

OP_SUBSTITUTE = "substitute"
OP_DELETE = "delete"
OP_INSERT = "insert"
OPS_ALL = frozenset({OP_SUBSTITUTE, OP_DELETE, OP_INSERT})

_KIND_RANK = {"pass": 0, "delete": 1, "sub": 2, "insert": 3}


class EditAction(NamedTuple):
    """One defender response: pass the event through, rewrite it, or erase it."""

    kind: str
    target: Optional[str] = None
    prefix: Trace = ()

    def word(self, pending: str) -> Trace:
        """Output word this action emits for the pending event."""
        if self.kind == "pass":
            return (pending,)
        if self.kind == "sub":
            assert self.target is not None
            return (self.target,)
        if self.kind == "delete":
            return ()
        return self.prefix + (pending,)

    def label(self, pending: str) -> str:
        """Edge label in the arrow notation: ``b→c``, ``b→ε``, ``+d·b``."""
        if self.kind == "pass":
            return f"{pending}→{pending}"
        if self.kind == "sub":
            return f"{pending}→{self.target}"
        if self.kind == "delete":
            return f"{pending}→ε"
        return "+" + "·".join(self.prefix + (pending,))

    def sort_key(self) -> tuple:
        return (_KIND_RANK[self.kind], self.target or "", len(self.prefix), self.prefix)


PASSTHROUGH = EditAction("pass")
DELETE = EditAction("delete")


def substitution(target: str) -> EditAction:
    return EditAction("sub", target=target)


def insertion(prefix: Iterable[str]) -> EditAction:
    prefix = tuple(prefix)
    if not prefix:
        raise ValueError("insertion prefix must be nonempty")
    return EditAction("insert", prefix=prefix)


def enumerate_actions(
    pending: str, profile: ObservationProfile, k: int, ops: frozenset[str] = OPS_ALL
) -> tuple[EditAction, ...]:
    """Candidate defender responses to ``pending``, in canonical order.

    Events the defender cannot observe admit only the passthrough.  For
    defender events the order is: passthrough, delete, substitutions by
    event order, insertions in length-then-lex order over prefixes of
    length 1..k.
    """
    if pending not in profile.observable:
        raise ValueError(f"pending event {pending!r} is not observable")
    if pending not in profile.defender:
        return (PASSTHROUGH,)
    actions = [PASSTHROUGH]
    if OP_DELETE in ops:
        actions.append(DELETE)
    if OP_SUBSTITUTE in ops:
        actions.extend(substitution(e) for e in sorted(profile.defender - {pending}))
    if OP_INSERT in ops and k >= 1:
        alphabet = sorted(profile.defender)
        level: list[Trace] = [()]
        for _ in range(k):
            level = [p + (e,) for p in level for e in alphabet]
            actions.extend(insertion(p) for p in level)
    return tuple(actions)


class EditGameStructure:
    """Edit game structure, built on demand.

    A new structure holds only its initial information state.  ``expand``
    adds one information state's system row together with the defender
    rows of its new augmented states; an information state is reached when
    a defender row first names it and gets its own row when expanded.
    ``complete`` expands everything reachable.  ``a_states`` and
    ``f_states`` sort the part built so far into the canonical order at
    each read; reading them never expands.  ``utility`` reads a state's
    label off its code and, for an augmented state, its row.  ``restrict``
    cuts a game down to given rows of its own, as trimming does; the
    restricted game is whole.

    Every state is an int code, and only this class knows the encoding.
    With ``s``, ``i`` and ``d`` the indices of an information state's
    estimates in their observers' sorted ``states``, its code is
    ``(s*n_intr + i)*n_def + d``.  An augmented state's code is
    ``n_info + info*n_events + e``, with ``info`` the code of its
    information state and ``e`` the index of its pending event among the
    sorted observable events.  So codes compare in the canonical order
    (estimates by their sorted members, then the pending event), and every
    augmented code lies above every information code.  ``indices_of``, the
    one decoder, gives codes' estimates' indices and pending events; the
    tests decode codes into the paper's tuples through it.
    """

    def __init__(
        self,
        profile: ObservationProfile,
        k: int,
        ops: frozenset[str],
        observers: tuple[ObserverAutomaton, ObserverAutomaton, ObserverAutomaton],
        secret: frozenset[int],
    ):
        self.profile = profile
        self.observers = observers
        self.sys_moves: dict[int, dict[str, int]] = {}
        self.def_moves: dict[int, dict[EditAction, int]] = {}
        self._events = sorted(profile.observable)
        n_sys, self._n_intr, self._n_def = (len(obs.states) for obs in observers)
        self._n_info = n_sys * self._n_intr * self._n_def
        self._menus = {e: enumerate_actions(e, profile, k, ops) for e in self._events}
        # per observer, the index of each estimate in its ``states``
        self._index = tuple({sset: i for i, sset in enumerate(obs.states)} for obs in observers)
        # whether each system and each intruder estimate is solely secret
        self._secret_only = tuple([sset <= secret for sset in obs.states]
                                  for obs in observers[:2])
        # system estimate -> (event, event index, next system estimate) per
        # defined event
        self._sys_rows: dict[int, tuple] = {}
        # (observer, estimate, event index) -> the estimate after each menu
        # action's word, None where the run is undefined
        self._runs: dict[tuple[int, int, int], tuple] = {}
        # (intruder, defender, event index) -> (action, i'*n_def + d') for
        # each defined response; a response's target adds s'*n_intr*n_def
        self._responses: dict[tuple[int, int, int], tuple] = {}
        s, i, d = (index[obs.initial] for index, obs in zip(self._index, observers))
        self.initial = (s * self._n_intr + i) * self._n_def + d
        # information states reached so far, each code mapped to the one int
        # object that every row refers to
        self._info: dict[int, int] = {self.initial: self.initial}

    def indices_of(self, codes: Iterable[int]) -> Iterator[tuple[int, int, int, Optional[str]]]:
        """For each of ``codes``, in one pass, the indices of its system,
        intruder and defender estimates in their observers' ``states``, and
        its pending event, None for an information state."""
        n_info, n_intr, n_def = self._n_info, self._n_intr, self._n_def
        events = self._events
        n_events = len(events)
        for code in codes:
            pending = None
            if code >= n_info:
                code, e = divmod(code - n_info, n_events)
                pending = events[e]
            rest, d = divmod(code, n_def)
            s, i = divmod(rest, n_intr)
            yield s, i, d, pending

    def menu(self, event: str) -> tuple[EditAction, ...]:
        """The candidate responses to ``event`` in ``EditAction.sort_key``
        order, a superset of each row's actions for ``event``."""
        return self._menus[event]

    @property
    def a_states(self) -> tuple[int, ...]:
        return tuple(sorted(self._info))

    @property
    def f_states(self) -> tuple[int, ...]:
        return tuple(sorted(self.def_moves))

    def utility(self, v: int) -> int:
        """0 at a problematic state, 1 elsewhere.  An information state is
        problematic when its system and intruder estimates are both solely
        secret, an expanded augmented state when it has no response."""
        if v >= self._n_info:
            return 1 if self.def_moves[v] else 0
        s, i = divmod(v // self._n_def, self._n_intr)
        return 0 if self._secret_only[0][s] and self._secret_only[1][i] else 1

    def _sys_row(self, s: int) -> tuple:
        got = self._sys_rows.get(s)
        if got is None:
            o_sys, index = self.observers[0], self._index[0]
            got = self._sys_rows[s] = tuple(
                (event, e, index[nxt]) for e, event in enumerate(self._events)
                if (nxt := o_sys.step(o_sys.states[s], event)) is not None)
        return got

    def _run(self, which: int, x: int, e: int) -> tuple:
        """Estimate indices of observer ``which`` (1 intruder, 2 defender)
        from estimate ``x`` after each menu action's word for event ``e``;
        None where undefined."""
        key = (which, x, e)
        got = self._runs.get(key)
        if got is None:
            obs, index, event = self.observers[which], self._index[which], self._events[e]
            start = obs.states[x]
            got = self._runs[key] = tuple(
                None if (y := obs.run(act.word(event), start)) is None else index[y]
                for act in self._menus[event])
        return got

    def _respond(self, i: int, d: int, e: int) -> tuple:
        """``(action, i'*n_def + d')`` for each menu action for event ``e``
        whose word both observers can run from ``i`` and ``d``."""
        key = (i, d, e)
        got = self._responses.get(key)
        if got is None:
            n_def = self._n_def
            got = self._responses[key] = tuple(
                (act, ni * n_def + nd)
                for act, ni, nd in zip(self._menus[self._events[e]],
                                       self._run(1, i, e), self._run(2, d, e))
                if ni is not None and nd is not None)
        return got

    def expand(self, v: int) -> dict[str, int]:
        """System row of ``v``, built on first request together with the
        defender rows of its new augmented states.  Each response runs the
        action's word through the intruder and defender observers, with the
        runs shared by all augmented states with the same estimates and
        pending event."""
        if v in self.sys_moves:
            return self.sys_moves[v]
        n_id = self._n_intr * self._n_def
        n_info, n_events = self._n_info, len(self._events)
        s, rest = divmod(v, n_id)
        i, d = divmod(rest, self._n_def)
        info, def_moves = self._info, self.def_moves
        row: dict[str, int] = {}
        for event, e, nxt_sys in self._sys_row(s):
            base = nxt_sys * n_id
            vf = n_info + (base + rest) * n_events + e
            row[event] = vf
            if vf in def_moves:
                continue
            responses: dict[EditAction, int] = {}
            for act, offset in self._respond(i, d, e):
                target = base + offset
                responses[act] = info.setdefault(target, target)
            def_moves[vf] = responses
        self.sys_moves[v] = row
        return row

    def complete(self) -> "EditGameStructure":
        """Expand every information state reachable from the initial one:
        ``expand_met`` over ``_info``, whose insertion order on a fresh
        game is the breadth-first discovery order."""
        expand_met(self._info, self.expand)
        return self

    def restrict(
        self, sys_moves: dict[int, dict[str, int]], def_moves: dict[int, dict[EditAction, int]]
    ) -> "EditGameStructure":
        """This game cut down to ``sys_moves`` and ``def_moves``, rows of
        its own closed under moves.  The restricted game shares the
        encoding, the observers and the memos; it is whole, so callers
        expand it only at its own states."""
        game = copy.copy(self)
        game.sys_moves, game.def_moves = sys_moves, def_moves
        game._info = {v: v for v in sys_moves}
        return game


def expand_met(met: dict[Hashable, Hashable], expand: Callable[[Hashable], Mapping]) -> None:
    """Expand every node of ``met``, in insertion order, until none is left
    unexpanded: ``expand`` builds a node's row and records in ``met`` the
    nodes it meets, so the table doubles as the work list.  Each round
    reads the nodes met since the last off the table's end, so the walk
    is linear in the nodes.  Expanding an expanded node returns its row.
    The game and the mechanism complete by it."""
    done = 0
    while done < len(met):
        todo = list(islice(reversed(met), len(met) - done))
        done += len(todo)
        for node in reversed(todo):
            expand(node)


def build_edit_game(
    aut: FiniteAutomaton,
    profile: ObservationProfile,
    k: int = 1,
    ops: Iterable[str] = OPS_ALL,
) -> EditGameStructure:
    """Edit game structure, expanded on demand from its initial information
    state."""
    ops = frozenset(ops)
    if not ops <= OPS_ALL:
        raise ValueError(f"unknown edit operations: {sorted(ops - OPS_ALL)}")
    return EditGameStructure(profile, k, ops, standard_observers(aut, profile), aut.secret)
