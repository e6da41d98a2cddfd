"""Powerset observers for the plant, the intruder, and the defender.

Each observer estimates the plant state from a sub-alphabet of the
observable events.  Events of the full alphabet that lie outside the
observer's reactive set self-loop at every state, so an observer can always
be driven by arbitrary observable words.  Transitions on reactive events are
partial: an empty reach set encodes "undefined" rather than a sink.  The
stages read a plant's observers through ``observer``, which builds each one
once and keeps it with the plant.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .automata import FiniteAutomaton, ObservationProfile

StateSet = frozenset[int]


def _silent_closure(aut: FiniteAutomaton, seeds: Iterable[int], silent: frozenset[str]) -> StateSet:
    seen = set(seeds)
    stack = list(seen)
    while stack:
        state = stack.pop()
        for event, dst in aut.arcs(state).items():
            if event in silent and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return frozenset(seen)


@dataclass(frozen=True)
class ObserverAutomaton:
    """Deterministic estimator over state sets of the plant.

    ``alphabet`` is the full observable alphabet; ``reactive`` is the subset
    on which real powerset updates occur.  Events of ``alphabet - reactive``
    self-loop and are therefore not stored in ``delta``.
    """

    alphabet: frozenset[str]
    reactive: frozenset[str]
    initial: StateSet
    states: tuple[StateSet, ...]
    delta: Mapping[tuple[StateSet, str], StateSet]

    def step(self, state: StateSet, event: str) -> Optional[StateSet]:
        if event not in self.alphabet:
            raise ValueError(f"event {event!r} outside the observer alphabet")
        if event in self.reactive:
            return self.delta.get((state, event))
        return state

    def run(self, word: Iterable[str], start: Optional[StateSet] = None) -> Optional[StateSet]:
        cur: Optional[StateSet] = self.initial if start is None else start
        for event in word:
            if cur is None:
                return None
            cur = self.step(cur, event)
        return cur


def build_observer(
    aut: FiniteAutomaton, reactive: Iterable[str], full: Iterable[str]
) -> ObserverAutomaton:
    """Accessible powerset observer reacting to ``reactive`` within ``full``."""
    reactive_set = frozenset(reactive)
    full_set = frozenset(full)
    if not reactive_set <= full_set or not full_set <= set(aut.events):
        raise ValueError("need reactive <= full <= plant events")
    silent = frozenset(aut.events) - reactive_set

    closure_of: dict[int, StateSet] = {}

    def closure(state: int) -> StateSet:
        got = closure_of.get(state)
        if got is None:
            got = _silent_closure(aut, (state,), silent)
            closure_of[state] = got
        return got

    step_memo: dict[tuple[int, str], StateSet] = {}

    def single_step(state: int, event: str) -> StateSet:
        got = step_memo.get((state, event))
        if got is None:
            stepped = {dst for s in closure(state) for e, dst in aut.arcs(s).items() if e == event}
            got = frozenset().union(*(closure(t) for t in stepped)) if stepped else frozenset()
            step_memo[(state, event)] = got
        return got

    initial = closure(aut.initial)
    states: dict[StateSet, None] = {initial: None}
    delta: dict[tuple[StateSet, str], StateSet] = {}
    queue = deque([initial])
    reactive_sorted = sorted(reactive_set)
    while queue:
        sset = queue.popleft()
        for event in reactive_sorted:
            union: set[int] = set()
            for member in sorted(sset):
                union |= single_step(member, event)
            if not union:
                continue
            target = frozenset(union)
            delta[(sset, event)] = target
            if target not in states:
                states[target] = None
                queue.append(target)
    ordered = tuple(sorted(states, key=sorted))
    return ObserverAutomaton(
        alphabet=full_set, reactive=reactive_set, initial=initial,
        states=ordered, delta=delta,
    )


def observer(
    aut: FiniteAutomaton, reactive: Iterable[str], full: Iterable[str]
) -> ObserverAutomaton:
    """``build_observer``'s observer, built on the first request and kept
    with ``aut`` for every later one."""
    key = (frozenset(reactive), frozenset(full))
    got = aut._observers.get(key)  # type: ignore[attr-defined]
    if got is None:
        got = aut._observers[key] = build_observer(aut, *key)  # type: ignore[attr-defined]
    return got


def standard_observers(
    aut: FiniteAutomaton, profile: ObservationProfile
) -> tuple[ObserverAutomaton, ObserverAutomaton, ObserverAutomaton]:
    """The system, intruder, and defender observers for one profile."""
    profile.validate(aut)
    full = profile.observable
    return (observer(aut, full, full), observer(aut, profile.intruder, full),
            observer(aut, profile.defender, full))
