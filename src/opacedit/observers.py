"""Powerset observers for the plant, the intruder, and the defender.

Each observer estimates the plant state from a sub-alphabet of the
observable events.  Events of the full alphabet that lie outside the
observer's reactive set self-loop at every state, so an observer can always
be driven by arbitrary observable words.  Transitions on reactive events are
partial: an empty reach set encodes "undefined" rather than a sink.

An observer is explored on demand: each transition is computed the first
time ``step`` asks for it and kept, so a question that reaches a few
estimates pays for those alone.  Reading ``states`` completes the
accessible part.  The stages read a plant's observers through
``observer``, which builds each one on the first request and keeps it with
the plant.
"""
from __future__ import annotations

import itertools
from collections import deque
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .automata import FiniteAutomaton, ObservationProfile

StateSet = frozenset[int]


def silent_closures(aut: FiniteAutomaton, silent: frozenset[str]) -> list[StateSet]:
    """The closure of each plant state under the ``silent`` events, computed
    once per strongly connected component of the silent arcs.

    Tarjan's algorithm, run with an explicit stack, completes the
    components in reverse topological order, so when one completes, the
    closure of every component its arcs leave to is known: its closure is
    its members together with those.  The members of a component share
    their closure object.
    """
    n = aut.n_states
    succ = [[dst for event, dst in aut.arcs(x).items() if event in silent] for x in range(n)]
    order = [-1] * n  # discovery index, -1 while undiscovered
    low = [0] * n
    # a discovered state is on the stack until its component completes,
    # that is while its closure is None
    closures: list[Optional[StateSet]] = [None] * n
    stack: list[int] = []
    # (state, its arcs left to follow, its place on the stack)
    work: list[tuple[int, Iterator[int], int]] = []
    ticket = itertools.count()

    def discover(x: int) -> None:
        order[x] = low[x] = next(ticket)
        work.append((x, iter(succ[x]), len(stack)))
        stack.append(x)

    for root in range(n):
        if order[root] < 0:
            discover(root)
        while work:
            x, arcs, base = work[-1]
            for y in arcs:
                if order[y] < 0:
                    discover(y)
                    break
                if closures[y] is None:
                    low[x] = min(low[x], order[y])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[x])
                if low[x] == order[x]:
                    members = stack[base:]
                    del stack[base:]
                    # successors outside the component are closed already;
                    # those inside it are among the members
                    closed = frozenset(members).union(*(
                        closures[z] for y in members for z in succ[y]
                        if closures[z] is not None))
                    for y in members:
                        closures[y] = closed
    return closures  # type: ignore[return-value]


class ObserverAutomaton:
    """Deterministic estimator over state sets of the plant.

    ``alphabet`` is the full observable alphabet; ``reactive`` is the subset
    on which real powerset updates occur.  Events of ``alphabet - reactive``
    self-loop.  Every estimate is closed under the plant's silent events
    (those outside ``reactive``), so a step is the union, over the
    estimate's members, of the closed successor sets on the event.
    """

    def __init__(self, aut: FiniteAutomaton, reactive: frozenset[str], full: frozenset[str]):
        self.alphabet = full
        self.reactive = reactive
        silent = frozenset(aut.events) - reactive
        closures = silent_closures(aut, silent)
        empty: StateSet = frozenset()
        self.initial: StateSet = closures[aut.initial]
        # event -> closed successor set of each plant state, empty where
        # the plant has no such arc
        self._rows = {
            event: tuple(empty if (dst := aut.step(x, event)) is None else closures[dst]
                         for x in range(aut.n_states))
            for event in reactive
        }
        # event -> estimate -> its successor, None where undefined
        self._memo: dict[str, dict[StateSet, Optional[StateSet]]] = {e: {} for e in reactive}

    def step(self, state: StateSet, event: str) -> Optional[StateSet]:
        memo = self._memo.get(event)
        if memo is None:
            if event not in self.alphabet:
                raise ValueError(f"event {event!r} outside the observer alphabet")
            return state
        try:
            return memo[state]
        except KeyError:
            got = memo[state] = frozenset().union(*map(self._rows[event].__getitem__, state)) or None
            return got

    def run(self, word: Iterable[str], start: Optional[StateSet] = None) -> Optional[StateSet]:
        cur: Optional[StateSet] = self.initial if start is None else start
        for event in word:
            if cur is None:
                return None
            cur = self.step(cur, event)
        return cur

    def reachable(self) -> Iterator[StateSet]:
        """The accessible estimates, breadth-first from ``initial``."""
        seen = {self.initial}
        queue = deque(seen)
        events = sorted(self.reactive)
        while queue:
            sset = queue.popleft()
            yield sset
            for event in events:
                target = self.step(sset, event)
                if target is not None and target not in seen:
                    seen.add(target)
                    queue.append(target)

    @cached_property
    def states(self) -> tuple[StateSet, ...]:
        """Every accessible estimate, ordered by sorted members."""
        return tuple(sorted(self.reachable(), key=sorted))


def build_observer(
    aut: FiniteAutomaton, reactive: Iterable[str], full: Iterable[str]
) -> ObserverAutomaton:
    """Accessible powerset observer reacting to ``reactive`` within ``full``."""
    reactive_set = frozenset(reactive)
    full_set = frozenset(full)
    if not reactive_set <= full_set or not full_set <= set(aut.events):
        raise ValueError("need reactive <= full <= plant events")
    return ObserverAutomaton(aut, reactive_set, full_set)


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
