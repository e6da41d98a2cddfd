"""End-to-end simulation, the brute-force enforceability oracle, and
random-instance generation for property testing.

The oracle evaluates the definitional checks over all observable behavior
up to a depth; the exhaustive strategy search is its converse companion: it
backtracks over every deterministic history-based editor and reports one
that passes, or certifies that none in the bounded family does.
"""
from __future__ import annotations

import random
from collections import deque
from itertools import islice
from typing import Any, Iterable, Iterator, NamedTuple, Optional

from .automata import FiniteAutomaton, ObservationProfile, Trace, project
from .game import EditAction, enumerate_actions
from .mechanism import MealyEditFunction
from .observers import StateSet
from .opacity import ConfigTable, SupportsEdit, edit_step, editor_observers, evaluate_editor


class SimulationError(ValueError):
    """The plant trace is not in the generated language."""


class EditUndefinedError(RuntimeError):
    """The editor had no defined response; carries the offending prefix."""

    def __init__(self, prefix: Trace):
        super().__init__(f"editor undefined after observable prefix {' '.join(prefix) or 'ε'}")
        self.prefix = prefix


class SimulationStep(NamedTuple):
    plant_event: str
    editor_output: Trace
    intruder_estimate: StateSet
    defender_estimate: StateSet
    plant_state: int
    leak: bool


def simulate(
    aut: FiniteAutomaton,
    profile: ObservationProfile,
    fe: SupportsEdit,
    trace: Trace,
) -> list[SimulationStep]:
    """Drive plant, editor, and both observers along one plant trace.

    A step leaks when the intruder estimate sits inside the secret set while
    the plant is actually in a secret state.
    """
    observers = editor_observers(aut, profile)
    if aut.run(aut.initial, trace) is None:
        raise SimulationError(f"trace {' '.join(trace) or 'ε'} is not generated by the plant")
    q, x_intr, x_def = fe.initial, observers[0].initial, observers[1].initial
    steps: list[SimulationStep] = []
    state = aut.initial
    seen: list[str] = []
    for event in trace:
        state = aut.step(state, event)
        assert state is not None
        seen.append(event)
        if event in profile.observable:
            step = edit_step(fe, profile, observers, q, x_intr, x_def, event)
            if step is None:
                raise EditUndefinedError(tuple(project(seen, profile.observable)))
            word, q, x_intr, x_def = step
        else:
            word = ()
        steps.append(SimulationStep(
            plant_event=event,
            editor_output=word,
            intruder_estimate=x_intr,
            defender_estimate=x_def,
            plant_state=state,
            leak=x_intr <= aut.secret and state in aut.secret,
        ))
    return steps


# ``evaluate_editor`` under the name ``bench/record.py`` calls
oracle_ic_enforcing = evaluate_editor


def _joint_configs(
    aut: FiniteAutomaton, profile: ObservationProfile, editor: SupportsEdit
) -> Iterator[Optional[tuple[int, StateSet, StateSet, Any]]]:
    """Breadth-first walk of the joint configurations (plant state, intruder
    estimate, defender estimate, editor state) reachable from the start.

    Yields each configuration as it leaves the queue, then, while expanding
    it in plant event order, None for each undefined editor or observer
    step.  The walk keeps each joint configuration as one int, its editor
    configuration's number in a ``ConfigTable`` times the plant's state
    count plus its plant state, and steps each editor configuration and
    event once however many plant states share them.  Editor states must
    be hashable.
    """
    table = ConfigTable(aut, profile, editor)
    configs, rows = table.configs, table.rows
    n = aut.n_states
    observable = profile.observable
    arcs = [tuple((event, dst, event in observable) for event, dst in aut.arcs(x).items())
            for x in range(n)]
    # configuration 0 is the editor's start, so the start's int is the
    # plant's initial state
    seen = {aut.initial}
    queue = deque(seen)
    while queue:
        c, x = divmod(queue.popleft(), n)
        q, xi, xd = configs[c]
        yield x, xi, xd, q
        row = rows[c]
        here = c * n
        for event, dst, observed in arcs[x]:
            if not observed:
                nxt = here + dst
            else:
                c2 = row[event] if event in row else table.step(c, event)
                if c2 is None:
                    yield None
                    continue
                nxt = c2 * n + dst
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


def certifying_depth(
    aut: FiniteAutomaton,
    profile: ObservationProfile,
    fe: MealyEditFunction,
    cap: int,
) -> int:
    """Joint-configuration count of plant, observers, and transducer, plus
    one, capped.

    Behavior repeats once the joint configuration does, so this depth is
    enough to certify the bounded checks whenever it is below the cap.
    Undefined steps are skipped, not counted.
    """
    configs = (c for c in _joint_configs(aut, profile, fe) if c is not None)
    return min(sum(1 for _ in islice(configs, max(cap, 0))) + 1, cap)


def exact_ic_check(
    aut: FiniteAutomaton, profile: ObservationProfile, editor: SupportsEdit
) -> bool:
    """Enforceability over all trace lengths, by joint-configuration search.

    Undefined editor or observer steps fail availability; a configuration
    whose plant state is secret while the intruder estimate sits inside the
    secret set fails confidentiality, since the estimate collects exactly
    the endpoints of the traces explaining the emitted word.  Only valid
    for editors whose state depends on defender observations alone (Mealy
    and history editors); such editors satisfy defender-view consistency
    by construction.
    """
    secret = aut.secret
    return all(c is not None and not (c[0] in secret and c[1] <= secret)
               for c in _joint_configs(aut, profile, editor))


_EVENT_IDS = "abcdefghij"


def random_instance(
    seed: int, max_states: int = 5, max_events: int = 4
) -> tuple[FiniteAutomaton, ObservationProfile]:
    """Seed-deterministic connected plant with sampled observation alphabets.

    All events are observable.  The intruder and defender alphabets are
    forced incomparable roughly seven times out of ten and sampled freely
    otherwise, so nested profiles occur across seeds too.
    """
    if max_states < 2 or max_events < 2:
        raise ValueError("need at least two states and two events")
    if max_events > len(_EVENT_IDS):
        raise ValueError(f"at most {len(_EVENT_IDS)} events")
    rng = random.Random(seed)
    n_states = rng.randint(2, max_states)
    n_events = rng.randint(2, max_events)
    labels = tuple(str(i + 1) for i in range(n_states))
    events = tuple(_EVENT_IDS[:n_events])

    delta: dict[tuple[int, str], int] = {}
    for state in range(1, n_states):
        # connect each state to the part already reachable
        while True:
            src = rng.randrange(state)
            event = rng.choice(events)
            if (src, event) not in delta:
                delta[(src, event)] = state
                break
    for src in range(n_states):
        for event in events:
            if (src, event) not in delta and rng.random() < 0.35:
                delta[(src, event)] = rng.randrange(n_states)

    n_secret = rng.randint(1, max(1, n_states // 2))
    secret = frozenset(rng.sample(range(n_states), n_secret))

    observable = frozenset(events)

    def sample_alphabet() -> frozenset[str]:
        size = rng.randint(1, n_events)
        return frozenset(rng.sample(events, size))

    force_incomparable = n_events >= 2 and rng.random() < 0.7
    while True:
        intruder, defender = sample_alphabet(), sample_alphabet()
        if not force_incomparable:
            break
        if not intruder <= defender and not defender <= intruder:
            break

    aut = FiniteAutomaton(
        labels=labels, events=events, delta=delta,
        initial=0, secret=secret,
    )
    profile = ObservationProfile(
        observable=observable, intruder=intruder, defender=defender
    )
    return aut, profile


# ---------------------------------------------------------------------------
# Exhaustive strategy search
# ---------------------------------------------------------------------------

class HistoryEditor:
    """Editor keyed by the full sequence of defender observations so far.

    This is the most general deterministic causal editor: its response may
    depend on everything it has ever observed.  Used as the search space of
    the exhaustive converse check.
    """

    def __init__(self, decisions: dict[Trace, EditAction], defender: frozenset[str]):
        self.decisions = dict(decisions)
        self.defender = defender
        self.initial: Trace = ()

    def step(self, state: Trace, event: str) -> Optional[tuple[Trace, Trace]]:
        if event not in self.defender:
            return ((event,), state)
        key = state + (event,)
        act = self.decisions.get(key)
        if act is None:
            return None
        return (act.word(event), key)


def iter_memoryless_editors(
    profile: ObservationProfile, k: int, ops: frozenset[str]
) -> "Iterable[MealyEditFunction]":
    """Every single-state editor: one fixed response per defender event.

    Complements the bounded-history search in the converse direction, since
    a memoryless editor loops forever and so covers behavior the bounded
    history family cannot express.
    """
    import itertools

    events = sorted(profile.defender)
    menus = [enumerate_actions(e, profile, k, ops) for e in events]
    for combo in itertools.product(*menus):
        yield MealyEditFunction(
            alphabet=profile.defender,
            n_states=1,
            initial=0,
            edges={(0, e): (act.word(e), 0) for e, act in zip(events, combo)},
            policy="memoryless",
        )


def find_edit_strategy(
    aut: FiniteAutomaton,
    profile: ObservationProfile,
    k: int,
    ops: frozenset[str],
    depth: int,
) -> Optional[HistoryEditor]:
    """Search every bounded deterministic editor; return a passing one or None.

    Decision points are defender observation histories of length at most
    ``depth``; this bounds the strategy family, not the check.  Assignments
    are evaluated over the joint configuration graph of plant and
    estimates, so a returned editor is enforcing at every trace length and
    None certifies that no editor in the bounded family is.  Two histories
    awaiting a decision are never prefixes of one another, so the subproblem
    below each history is solved independently and memoized on the budget,
    the observed event, and the parked configuration set.
    """
    o_intr, o_def = editor_observers(aut, profile)
    action_menu = {
        e: enumerate_actions(e, profile, k, ops) for e in sorted(profile.defender)
    }
    secret = aut.secret

    def violates(x: int, xi: StateSet) -> bool:
        return x in secret and xi <= secret

    def expand(seeds) -> Optional[dict[str, frozenset]]:
        """Walk configurations (plant, intruder est., defender est.) from
        ``seeds`` through moves needing no new decision; configurations
        awaiting one are grouped by the observed event.  None on violation."""
        queue = deque(seeds)
        seen = set(seeds)
        parked: dict[str, set] = {}
        while queue:
            x, xi, xd = queue.popleft()
            if violates(x, xi):
                return None
            for event, dst in aut.arcs(x).items():
                if event in profile.defender:
                    parked.setdefault(event, set()).add((dst, xi, xd))
                    continue
                if event in profile.intruder:
                    nxi = o_intr.run((event,), xi)
                    if nxi is None:
                        return None
                else:
                    nxi = xi
                child = (dst, nxi, xd)
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        return {e: frozenset(nodes) for e, nodes in parked.items()}

    memo: dict[tuple, Optional[dict]] = {}

    def solve_key(budget: int, event: str, parked: frozenset) -> Optional[dict]:
        """Relative decision map for one observation subtree, or None."""
        token = (budget, event, parked)
        if token in memo:
            return memo[token]
        result = None
        for act in action_menu[event]:
            word = act.word(event)
            children = []
            ok = True
            for (dst, xi, xd) in parked:
                nxi = o_intr.run(word, xi)
                nxd = o_def.run(word, xd)
                if nxi is None or nxd is None:
                    ok = False
                    break
                children.append((dst, nxi, nxd))
            if not ok:
                continue
            grouped = expand(children)
            if grouped is None:
                continue
            if grouped and budget == 0:
                continue
            decisions = {(): act}
            for ev, nodes in grouped.items():
                sub = solve_key(budget - 1, ev, nodes)
                if sub is None:
                    ok = False
                    break
                decisions.update({(ev,) + suffix: a for suffix, a in sub.items()})
            if ok:
                result = decisions
                break
        memo[token] = result
        return result

    root = (aut.initial, o_intr.initial, o_def.initial)
    grouped = expand([root])
    if grouped is None:
        return None
    if grouped and depth == 0:
        return None
    decisions: dict[Trace, EditAction] = {}
    for event, nodes in grouped.items():
        sub = solve_key(depth - 1, event, nodes)
        if sub is None:
            return None
        decisions.update({(event,) + suffix: act for suffix, act in sub.items()})
    editor = HistoryEditor(decisions, profile.defender)
    assert exact_ic_check(aut, profile, editor)
    return editor
