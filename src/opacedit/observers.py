"""Powerset observers for the plant, the intruder, and the defender.

Each observer estimates the plant state from a sub-alphabet of the
observable events.  Events of the full alphabet that lie outside the
observer's reactive set self-loop at every state, so an observer can always
be driven by arbitrary observable words.  Transitions on reactive events are
partial: an empty reach set encodes "undefined" rather than a sink.

Each estimate is closed under the events the observer cannot see by
``close``, the one closure search, which the merged mechanism shares.

An observer is explored on demand: each transition is computed the first
time ``step`` asks for it and kept, so a question that reaches a few
estimates pays for those alone.  Reading ``states`` completes the
accessible part.  The stages read a plant's observers through
``observer``, which builds each one on the first request and keeps it with
the plant.  Every stage builds an observer before it reads an alphabet,
so ``build_observer`` alone checks that the observable alphabet names only
plant events.
"""
from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Optional

from .automata import FiniteAutomaton, ModelError, ObservationProfile

StateSet = frozenset[int]


def close(roots: Iterable[Hashable], succ: Callable[[Hashable], Iterable[Hashable]],
          closures: dict) -> None:
    """Record in ``closures`` the closure under ``succ`` of every node
    reached from ``roots``: the nodes it reaches, itself included.  Nodes
    already in ``closures`` count as closed.

    Tarjan's search, run with an explicit stack, completes the strongly
    connected components in reverse topological order.  Each frame collects
    the closures its arcs reach outside its component and hands them to its
    parent, so when a component completes, its closure is its members
    together with those.  The members of a component share their closure
    object.
    """
    for root in roots:
        if root in closures:
            continue
        # a node discovered here is on the stack until it is in ``closures``
        order = {root: 0}
        stack = [root]
        # [node, its arcs left to follow, its place on the stack, its low
        # link, the closures its component's arcs reached so far]
        work: list[list] = [[root, iter(succ(root)), 0, 0, []]]
        while work:
            frame = work[-1]
            for y in frame[1]:
                closed = closures.get(y)
                if closed is not None:
                    frame[4].append(closed)
                elif y in order:
                    frame[3] = min(frame[3], order[y])
                else:
                    order[y] = len(order)
                    work.append([y, iter(succ(y)), len(stack), order[y], []])
                    stack.append(y)
                    break
            else:
                work.pop()
                x, _, base, low, parts = frame
                if low == order[x]:
                    members = stack[base:]
                    del stack[base:]
                    closed = frozenset(members).union(*parts)
                    for y in members:
                        closures[y] = closed
                    if work:
                        work[-1][4].append(closed)
                else:
                    work[-1][3] = min(work[-1][3], low)
                    work[-1][4].extend(parts)


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
        closures: dict[int, StateSet] = {}
        close(range(aut.n_states), lambda x: [
            dst for event, dst in aut.arcs(x).items() if event not in reactive], closures)
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
    """Accessible powerset observer reacting to ``reactive`` within ``full``.
    The one check that a profile's observable alphabet fits its plant."""
    reactive_set = frozenset(reactive)
    full_set = frozenset(full)
    if not full_set <= set(aut.events):
        raise ModelError("observable alphabet mentions undeclared events")
    if not reactive_set <= full_set:
        raise ValueError("reactive alphabet must be a subset of the full one")
    return ObserverAutomaton(aut, reactive_set, full_set)


def observer(
    aut: FiniteAutomaton, reactive: Iterable[str], full: Iterable[str]
) -> ObserverAutomaton:
    """``build_observer``'s observer, built on the first request and kept
    with ``aut`` for every later one."""
    key = (frozenset(reactive), frozenset(full))
    got = aut._observers.get(key)
    if got is None:
        got = aut._observers[key] = build_observer(aut, *key)
    return got


def standard_observers(
    aut: FiniteAutomaton, profile: ObservationProfile
) -> tuple[ObserverAutomaton, ObserverAutomaton, ObserverAutomaton]:
    """The system, intruder, and defender observers for one profile."""
    full = profile.observable
    return (observer(aut, full, full), observer(aut, profile.intruder, full),
            observer(aut, profile.defender, full))
