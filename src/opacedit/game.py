"""The bipartite edit game between the plant and the defender.

Information states are triples of system/intruder/defender estimates.  The
plant moves by playing an observable event, which lands in an augmented
state carrying that pending event; the defender answers with an edit action
whose rendered output word drives the intruder and defender observers
through their self-loop conventions.  A move exists only when both observer
runs stay defined.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .automata import FiniteAutomaton, ObservationProfile, Trace
from .observers import ObserverAutomaton, StateSet, standard_observers

OP_SUBSTITUTE = "substitute"
OP_DELETE = "delete"
OP_INSERT = "insert"
OPS_ALL = frozenset({OP_SUBSTITUTE, OP_DELETE, OP_INSERT})

_KIND_RANK = {"pass": 0, "delete": 1, "sub": 2, "insert": 3}


@dataclass(frozen=True)
class EditAction:
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


class InfoState(NamedTuple):
    sys: StateSet
    intr: StateSet
    dfn: StateSet


class AugmentedState(NamedTuple):
    info: InfoState
    pending: str


def _sset_key(s: StateSet) -> tuple[int, ...]:
    return tuple(sorted(s))


def info_key(v: InfoState) -> tuple:
    return (_sset_key(v.sys), _sset_key(v.intr), _sset_key(v.dfn))


def aug_key(v: AugmentedState) -> tuple:
    return (info_key(v.info), v.pending)


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


@dataclass(frozen=True)
class EditGameStructure:
    profile: ObservationProfile
    k: int
    ops: frozenset[str]
    initial: InfoState
    a_states: tuple[InfoState, ...]
    f_states: tuple[AugmentedState, ...]
    sys_moves: dict[InfoState, dict[str, AugmentedState]]
    def_moves: dict[AugmentedState, dict[EditAction, InfoState]]
    utility: dict[object, int]

    def actions_at(self, v: AugmentedState) -> tuple[EditAction, ...]:
        return tuple(sorted(self.def_moves[v], key=EditAction.sort_key))


def build_edit_game(
    aut: FiniteAutomaton,
    profile: ObservationProfile,
    k: int = 1,
    ops: Iterable[str] = OPS_ALL,
    observers: Optional[tuple[ObserverAutomaton, ObserverAutomaton, ObserverAutomaton]] = None,
) -> EditGameStructure:
    """Accessible edit game structure with its utility labeling."""
    ops = frozenset(ops)
    if not ops <= OPS_ALL:
        raise ValueError(f"unknown edit operations: {sorted(ops - OPS_ALL)}")
    o_sys, o_intr, o_def = observers if observers is not None else standard_observers(aut, profile)
    initial = InfoState(o_sys.initial, o_intr.initial, o_def.initial)
    observable = sorted(profile.observable)

    a_seen: dict[InfoState, None] = {initial: None}
    f_seen: dict[AugmentedState, None] = {}
    sys_moves: dict[InfoState, dict[str, AugmentedState]] = {}
    def_moves: dict[AugmentedState, dict[EditAction, InfoState]] = {}

    action_cache = {e: enumerate_actions(e, profile, k, ops) for e in observable}
    queue = deque([initial])
    while queue:
        v = queue.popleft()
        moves: dict[str, AugmentedState] = {}
        for event in observable:
            nxt_sys = o_sys.step(v.sys, event)
            if nxt_sys is None:
                continue
            vf = AugmentedState(InfoState(nxt_sys, v.intr, v.dfn), event)
            moves[event] = vf
            if vf in f_seen:
                continue
            f_seen[vf] = None
            responses: dict[EditAction, InfoState] = {}
            for act in action_cache[event]:
                target = apply_defender_move(vf, act, o_intr, o_def, profile)
                if target is None:
                    continue
                responses[act] = target
                if target not in a_seen:
                    a_seen[target] = None
                    queue.append(target)
            def_moves[vf] = responses
        sys_moves[v] = moves

    secret = aut.secret
    utility: dict[object, int] = {}
    for v in a_seen:
        utility[v] = 0 if (v.sys <= secret and v.intr <= secret) else 1
    for vf in f_seen:
        utility[vf] = 0 if not def_moves[vf] else 1

    return EditGameStructure(
        profile=profile,
        k=k,
        ops=ops,
        initial=initial,
        a_states=tuple(sorted(a_seen, key=info_key)),
        f_states=tuple(sorted(f_seen, key=aug_key)),
        sys_moves=sys_moves,
        def_moves=def_moves,
        utility=utility,
    )
