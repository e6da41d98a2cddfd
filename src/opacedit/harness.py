"""End-to-end simulation, the brute-force enforceability oracle, and
random-instance generation for property testing.

The oracle evaluates the definitional checks over all observable behavior
up to a depth; the exhaustive strategy search is its converse companion: it
backtracks over every deterministic history-based editor and returns a
passing one as a transducer, or certifies that none in the bounded family does.
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
    for editors whose state depends on defender observations alone, such
    as transducers; such editors satisfy defender-view consistency by
    construction.
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
) -> Optional[MealyEditFunction]:
    """Search every bounded deterministic editor; return a passing one or None.

    Decision points are defender observation histories of length at most
    ``depth``; this bounds the strategy family, not the check.  Assignments
    are evaluated over the joint configuration graph of plant and
    estimates, so a returned editor is enforcing at every trace length and
    None certifies that no editor in the bounded family is.  Two histories
    awaiting a decision are never prefixes of one another, so the subproblem
    below each history is solved independently and memoized on the budget,
    the observed event, and the parked configuration set.  The answer has
    one state per decided history, the empty one first, then shortest first
    and least; deciding ``h`` as ``act`` is the edge from ``h[:-1]`` on
    ``h[-1]`` to ``h``, emitting ``act.word(h[-1])``.
    """
    o_intr, o_def = editor_observers(aut, profile)
    action_menu = {
        e: enumerate_actions(e, profile, k, ops) for e in sorted(profile.defender)
    }
    secret = aut.secret

    def expand(seeds) -> Optional[dict[str, frozenset]]:
        """Walk configurations (plant, intruder est., defender est.) from
        ``seeds`` through moves needing no new decision; configurations
        awaiting one are grouped by the observed event.  None on violation."""
        queue = deque(seeds)
        seen = set(seeds)
        parked: dict[str, set] = {}
        while queue:
            x, xi, xd = queue.popleft()
            if x in secret and xi <= secret:
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

    def answer(budget: int, grouped: Optional[dict[str, frozenset]]) -> Optional[dict]:
        """Relative decision map below the configurations ``grouped`` parks, or
        None on a violation, a decision past the budget, or an unanswered event."""
        if grouped is None or grouped and budget <= 0:
            return None
        decisions: dict[Trace, EditAction] = {}
        for event, nodes in grouped.items():
            sub = solve_key(budget - 1, event, nodes)
            if sub is None:
                return None
            decisions.update({(event,) + suffix: act for suffix, act in sub.items()})
        return decisions

    def solve_key(budget: int, event: str, parked: frozenset) -> Optional[dict]:
        """Relative decision map for one observation subtree, or None."""
        token = (budget, event, parked)
        if token not in memo:
            memo[token] = None
            for act in action_menu[event]:
                word = act.word(event)
                children = [(dst, o_intr.run(word, xi), o_def.run(word, xd))
                            for dst, xi, xd in parked]
                if all(xi is not None and xd is not None for _, xi, xd in children):
                    sub = answer(budget, expand(children))
                    if sub is not None:
                        memo[token] = {(): act, **sub}
                        break
        return memo[token]

    decisions = answer(depth, expand([(aut.initial, o_intr.initial, o_def.initial)]))
    if decisions is None:
        return None
    order = [()] + sorted(decisions, key=lambda h: (len(h), h))
    state = {h: q for q, h in enumerate(order)}
    editor = MealyEditFunction(
        alphabet=profile.defender,
        n_states=len(state),
        initial=0,
        edges={(state[h[:-1]], h[-1]): (act.word(h[-1]), state[h])
               for h, act in decisions.items()},
        policy="history",
    )
    assert exact_ic_check(aut, profile, editor)
    return editor
