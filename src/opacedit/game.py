"""The bipartite edit game between the plant and the defender.

Information states are triples of system/intruder/defender estimates.  The
plant moves by playing an observable event, which lands in an augmented
state carrying that pending event; the defender answers with an edit action
whose rendered output word drives the intruder and defender observers
through their self-loop conventions.  A move exists only when both observer
runs stay defined.  The structure is built on demand, one information
state's row at a time, so a trim that refutes the plant early never builds
the rest.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional

from .automata import FiniteAutomaton, ObservationProfile, Trace
from .observers import ObserverAutomaton, StateSet, standard_observers

OP_SUBSTITUTE = "substitute"
OP_DELETE = "delete"
OP_INSERT = "insert"
OPS_ALL = frozenset({OP_SUBSTITUTE, OP_DELETE, OP_INSERT})

_KIND_RANK = {"pass": 0, "delete": 1, "sub": 2, "insert": 3}


@dataclass(frozen=True)
class EditAction:
    """One defender response: pass the event through, rewrite it, or erase it.

    Actions key every defender row, so the hash and the sort key are
    computed once, at construction; equality stays by value."""

    kind: str
    target: Optional[str] = None
    prefix: Trace = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.kind, self.target, self.prefix)))
        object.__setattr__(self, "_key", (
            _KIND_RANK[self.kind], self.target or "", len(self.prefix), self.prefix))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: string hashes differ between processes
        return (EditAction, (self.kind, self.target, self.prefix))

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
        return self._key


PASSTHROUGH = EditAction("pass")
DELETE = EditAction("delete")


def substitution(target: str) -> EditAction:
    return EditAction("sub", target=target)


def insertion(prefix: Iterable[str]) -> EditAction:
    prefix = tuple(prefix)
    if not prefix:
        raise ValueError("insertion prefix must be nonempty")
    return EditAction("insert", prefix=prefix)


class InfoState(NamedTuple):
    sys: StateSet
    intr: StateSet
    dfn: StateSet


class AugmentedState(NamedTuple):
    info: InfoState
    pending: str


def info_rank(
    observers: tuple[ObserverAutomaton, ObserverAutomaton, ObserverAutomaton],
) -> Callable[[InfoState], tuple[int, int, int]]:
    """The canonical order of information states over ``observers``: each
    estimate's rank in its observer's ``states``, which are sorted like
    their sorted members."""
    r_sys, r_intr, r_def = ({s: i for i, s in enumerate(obs.states)} for obs in observers)

    def rank(v: InfoState) -> tuple[int, int, int]:
        return (r_sys[v.sys], r_intr[v.intr], r_def[v.dfn])

    return rank


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


def apply_defender_move(
    v: AugmentedState,
    act: EditAction,
    o_intr: ObserverAutomaton,
    o_def: ObserverAutomaton,
    profile: ObservationProfile,
) -> Optional[InfoState]:
    """Successor information state of playing ``act`` at ``v``; None if undefined.

    The rendered output word is run through both observers; letters invisible
    to an observer self-loop, so the uneditable cases and mixed-visibility
    insertion words all go through this single rule.
    """
    word = act.word(v.pending)
    if v.pending not in profile.defender and act.kind != "pass":
        raise ValueError("only the passthrough is playable on non-defender events")
    new_intr = o_intr.run(word, v.info.intr)
    if new_intr is None:
        return None
    new_def = o_def.run(word, v.info.dfn)
    if new_def is None:
        return None
    return InfoState(v.info.sys, new_intr, new_def)


class EditGameStructure:
    """Edit game structure with its utility labeling, built on demand.

    ``build_edit_game`` gives a structure that holds only its initial
    information state.  ``expand`` adds one information state's system row
    together with the defender rows and utilities of its new augmented
    states; an information state is labeled when a defender row first
    reaches it and gets its own row when expanded.  ``complete`` expands
    everything reachable.  ``a_states`` and ``f_states`` list the part built
    so far in the canonical order, ``rank`` (``info_rank`` over the
    observers); reading them never expands.  A structure
    made from given rows (a trimmed game) is already whole.
    """

    def __init__(
        self,
        profile: ObservationProfile,
        k: int,
        ops: frozenset[str],
        initial: InfoState,
        sys_moves: dict[InfoState, dict[str, AugmentedState]],
        def_moves: dict[AugmentedState, dict[EditAction, InfoState]],
        utility: dict[object, int],
        observers: tuple[ObserverAutomaton, ObserverAutomaton, ObserverAutomaton],
        secret: Optional[frozenset[int]] = None,
    ):
        self.profile = profile
        self.k = k
        self.ops = ops
        self.initial = initial
        self.sys_moves = sys_moves
        self.def_moves = def_moves
        self.utility = utility
        self.observers = observers
        self.rank = info_rank(observers)
        self._secret = secret  # None for a structure made from given rows
        # information states labeled so far, each mapped to the one instance
        # that every row refers to
        self._info = {v: v for v in utility if v not in def_moves}
        self._events = sorted(profile.observable)
        self._menus = ({e: enumerate_actions(e, profile, k, ops) for e in self._events}
                       if secret is not None else {})
        # (observer, estimate, pending event) -> the estimate after each menu
        # action's word, None where the run is undefined
        self._responses: dict[tuple[int, StateSet, str], tuple] = {}
        # rows are only ever added, so a row count dates the cached views
        self._views: tuple[int, tuple] = (-1, ())

    def _canonical(self) -> tuple:
        if self._views[0] != len(self.sys_moves):
            rank = self.rank
            a_states = tuple(sorted(self._info, key=rank))
            f_states = tuple(sorted(self.def_moves, key=lambda vf: (rank(vf.info), vf.pending)))
            self._views = (len(self.sys_moves), (a_states, f_states))
        return self._views[1]

    @property
    def a_states(self) -> tuple[InfoState, ...]:
        return self._canonical()[0]

    @property
    def f_states(self) -> tuple[AugmentedState, ...]:
        return self._canonical()[1]

    def actions_at(self, v: AugmentedState) -> tuple[EditAction, ...]:
        return tuple(sorted(self.def_moves[v], key=EditAction.sort_key))

    def _label(self, v: InfoState) -> InfoState:
        self._info[v] = v
        self.utility[v] = 0 if (v.sys <= self._secret and v.intr <= self._secret) else 1
        return v

    def _respond(self, which: int, estimate: StateSet, event: str) -> tuple:
        """Estimates of observer ``which`` (1 intruder, 2 defender) after
        each menu action's word for ``event``; None where undefined."""
        key = (which, estimate, event)
        got = self._responses.get(key)
        if got is None:
            obs = self.observers[which]
            got = self._responses[key] = tuple(
                obs.run(act.word(event), estimate) for act in self._menus[event])
        return got

    def expand(self, v: InfoState) -> dict[str, AugmentedState]:
        """System row of ``v``, built on first request together with the
        defender rows and utilities of its new augmented states.  Each
        response is ``apply_defender_move`` with the observer runs shared
        by all augmented states with the same estimate and pending event."""
        if v in self.sys_moves or self._secret is None:
            return self.sys_moves[v]
        o_sys = self.observers[0]
        row: dict[str, AugmentedState] = {}
        for event in self._events:
            nxt_sys = o_sys.step(v.sys, event)
            if nxt_sys is None:
                continue
            vf = AugmentedState(InfoState(nxt_sys, v.intr, v.dfn), event)
            row[event] = vf
            if vf in self.def_moves:
                continue
            responses: dict[EditAction, InfoState] = {}
            for act, new_intr, new_def in zip(
                self._menus[event],
                self._respond(1, v.intr, event),
                self._respond(2, v.dfn, event),
            ):
                if new_intr is None or new_def is None:
                    continue
                target = InfoState(nxt_sys, new_intr, new_def)
                responses[act] = self._info.get(target) or self._label(target)
            self.def_moves[vf] = responses
            self.utility[vf] = 1 if responses else 0
        self.sys_moves[v] = row
        return row

    def complete(self) -> "EditGameStructure":
        """Expand, breadth-first, every information state reachable from the
        initial one."""
        seen = {self.initial}
        queue = deque(seen)
        while queue:
            for vf in self.expand(queue.popleft()).values():
                for target in self.def_moves[vf].values():
                    if target not in seen:
                        seen.add(target)
                        queue.append(target)
        return self


def build_edit_game(
    aut: FiniteAutomaton,
    profile: ObservationProfile,
    k: int = 1,
    ops: Iterable[str] = OPS_ALL,
) -> EditGameStructure:
    """Edit game structure with its utility labeling, expanded on demand
    from its initial information state."""
    ops = frozenset(ops)
    if not ops <= OPS_ALL:
        raise ValueError(f"unknown edit operations: {sorted(ops - OPS_ALL)}")
    observers = standard_observers(aut, profile)
    initial = InfoState(*(obs.initial for obs in observers))
    game = EditGameStructure(
        profile=profile,
        k=k,
        ops=ops,
        initial=initial,
        sys_moves={},
        def_moves={},
        utility={},
        observers=observers,
        secret=aut.secret,
    )
    game._label(initial)
    return game
