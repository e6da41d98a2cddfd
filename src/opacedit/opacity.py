"""Current-state opacity and the bounded evaluation of edit functions.

Opacity is decided on the intruder observer: the plant leaks exactly when
some reachable intruder estimate consists of secret states only.
``evaluate_editor`` quantifies over observable behavior up to a caller
chosen depth and evaluates an editor jointly against the intruder and
defender observers; its verdict names the first property to fail,
availability or confidentiality, with its counterexample, and a pass is
their conjunction, integrity.
An edit output is "defined" precisely when both observers can still parse
it.
"""
from __future__ import annotations

from collections import deque
from typing import Any, NamedTuple, Optional, Protocol

from .automata import FiniteAutomaton, ObservationProfile, Trace
from .mechanism import MealyEditFunction
from .observers import ObserverAutomaton, StateSet, observer


class SupportsEdit(Protocol):
    """Stateful editor: consumes observable events, emits output words.

    ``step`` must be a pure function of ``(state, event)``: every editor
    check numbers each configuration (editor state, intruder estimate,
    defender estimate) it meets once, in a ``ConfigTable``, and steps each
    configuration and event once, so ``evaluate_editor`` and the joint walk
    behind ``exact_ic_check`` and ``certifying_depth`` reuse the result
    wherever they meet that configuration again.
    It must return the forced single-event word and the unchanged state
    for events outside the defender alphabet, which the editor cannot
    see; ``edit_step`` raises ``ValueError`` on a rewritten word, and
    ``evaluate_editor`` also on a changed state it meets before a
    violation.
    """

    initial: Any

    def step(self, state: Any, event: str) -> Optional[tuple[Trace, Any]]:
        ...


class OpacityVerdict(NamedTuple):
    opaque: bool
    witness: Optional[Trace]


def verify_cso(aut: FiniteAutomaton, profile: ObservationProfile) -> OpacityVerdict:
    """Opaque iff no reachable intruder estimate is made of secret states only.

    When violated, the witness is the lexicographically least shortest plant
    trace driving the intruder estimate inside the secret set.
    """
    o_intr = observer(aut, profile.intruder, profile.observable)
    secret = aut.secret
    if not any(s <= secret for s in o_intr.reachable()):
        return OpacityVerdict(True, None)

    start = ((), aut.initial, o_intr.initial)
    queue = deque([start])
    visited = {(aut.initial, o_intr.initial)}
    while queue:
        trace, x, estimate = queue.popleft()
        if estimate <= secret:
            return OpacityVerdict(False, trace)
        for event, dst in aut.arcs(x).items():
            if event in o_intr.reactive:
                nxt = o_intr.step(estimate, event)
                assert nxt is not None, "true state escaped its estimate"
            else:
                nxt = estimate
            if (dst, nxt) not in visited:
                visited.add((dst, nxt))
                queue.append((trace + (event,), dst, nxt))
    raise AssertionError("solely secret estimate exists but is unreachable")


# ---------------------------------------------------------------------------
# Editor evaluation
# ---------------------------------------------------------------------------

def edit_step(
    editor: SupportsEdit,
    profile: ObservationProfile,
    observers: tuple[ObserverAutomaton, ObserverAutomaton],
    q: Any,
    x_intr: StateSet,
    x_def: StateSet,
    event: str,
) -> Optional[tuple[Trace, Any, StateSet, StateSet]]:
    """One observable plant event through the editor and both observers.

    Returns the editor's word, its next state, and the intruder and defender
    estimates after the word; None when the editor or either observer is
    undefined.  Raises ``ValueError`` when an event outside the defender
    alphabet is rewritten.
    """
    step = editor.step(q, event)
    if step is None:
        return None
    word, q2 = step
    if event not in profile.defender and word != (event,):
        raise ValueError("editor rewrote an event it cannot observe")
    o_intr, o_def = observers
    nx_intr = o_intr.run(word, x_intr)
    nx_def = o_def.run(word, x_def)
    if nx_intr is None or nx_def is None:
        return None
    return word, q2, nx_intr, nx_def


def editor_observers(
    aut: FiniteAutomaton, profile: ObservationProfile
) -> tuple[ObserverAutomaton, ObserverAutomaton]:
    """The intruder and defender observers an editor's output drives."""
    return (observer(aut, profile.intruder, profile.observable),
            observer(aut, profile.defender, profile.observable))


class ConfigTable:
    """The editor configurations (editor state, intruder estimate, defender
    estimate) one check meets, numbered in the order met, and each one's
    successor per event, stepped once through ``edit_step``.

    ``configs[c]`` is configuration ``c``, and ``solely_secret[c]`` whether
    its intruder estimate lies inside the secret set; configuration 0 is the
    editor's initial state with both observers' initial estimates.
    ``rows[c]`` maps each event stepped from ``c`` to the next
    configuration's number, or to None where the editor or either observer
    is undefined.  A reader looks an event up in its row and calls ``step``
    only on a miss.
    """

    def __init__(self, aut: FiniteAutomaton, profile: ObservationProfile,
                 editor: SupportsEdit):
        self.editor = editor
        self.profile = profile
        self.observers = o_intr, o_def = editor_observers(aut, profile)
        self.secret = aut.secret
        self.configs: list[tuple[Any, StateSet, StateSet]] = []
        self.solely_secret: list[bool] = []
        self.rows: list[dict[str, Optional[int]]] = []
        self.ids: dict[tuple[Any, StateSet, StateSet], int] = {}
        self.number((editor.initial, o_intr.initial, o_def.initial))

    def number(self, config: tuple[Any, StateSet, StateSet]) -> int:
        """The number of ``config``, numbered here if it is new."""
        c = self.ids.get(config)
        if c is None:
            c = self.ids[config] = len(self.configs)
            self.configs.append(config)
            self.solely_secret.append(config[1] <= self.secret)
            self.rows.append({})
        return c

    def step(self, c: int, event: str) -> Optional[int]:
        """Step configuration ``c`` on ``event`` and record it in its row."""
        got = edit_step(self.editor, self.profile, self.observers, *self.configs[c], event)
        nxt = self.rows[c][event] = None if got is None else self.number(got[1:])
        return nxt


class OracleVerdict(NamedTuple):
    ok: bool
    failed_property: Optional[str] = None
    counterexample: Optional[Trace] = None


def evaluate_editor(
    aut: FiniteAutomaton,
    profile: ObservationProfile,
    editor: SupportsEdit,
    depth: int,
) -> OracleVerdict:
    """Breadth-first search over the observable projections sigma of the
    plant traces of length <= depth, in length-then-lexicographic order,
    that stops at the first sigma violating a property.

    Checks, per sigma: the editor and both observer runs stay defined
    (availability), and whenever some plant trace projecting to sigma ends
    in a secret state, the intruder estimate of the output is not inside
    the secret set (confidentiality).  That estimate is exactly the set of
    endpoints of the plant traces explaining the emitted intruder word.
    The verdict names the failed property, ``i-availability`` or
    ``confidentiality``, and its counterexample, the shortest, then
    lexicographically least, violating sigma.  Every prefix of a checked
    sigma is checked first, so a passing verdict is integrity up to the
    depth.

    A queued node carries its sigma, the number of its plant pair (its
    plant states as a sorted tuple and the length of each one's shortest
    plant trace as a tuple in the same order) and the number of its editor
    configuration in a ``ConfigTable``, so a counterexample is a node's
    sigma followed by the violating event.  A node whose states and
    configuration equal those of an earlier node, with no state reached by
    a shorter plant trace, is checked but not expanded: its subtree could
    only repeat, later in the order, what the earlier node's subtree
    shows.  ``expanded`` keys the expanded nodes by their states, then by
    their configuration number, and keeps their length tuples only, one
    tuple for a key met once and a list from the second, so the cost is
    bounded by the distinct such nodes up to the depth.  Each plant pair
    is stepped and closed under silent arcs once, into its successors in
    event order (only the events its states enable), however many nodes
    hold it, and each configuration and event is stepped through the
    editor and the observers once, so ``step`` must be a pure function of
    its arguments.

    The editor must keep its state and pass the event through on events
    outside the defender alphabet; otherwise ``ValueError`` is raised where
    the search meets such a step before the first violation (a changed
    state only where the step stays defined, since a stuck run has no
    further behavior).  Two defined runs with the same defender view then
    emit the same defender output, so consistency between defender views
    needs no check.  Editor states must be hashable.  A negative depth
    raises ``ValueError``, and so does a ``MealyEditFunction`` with an
    output word outside the observable alphabet, reached or not
    (``check_outputs``).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    table = ConfigTable(aut, profile, editor)
    if isinstance(editor, MealyEditFunction):
        editor.check_outputs(profile.observable)
    observable = profile.observable
    defender = profile.defender
    secret = aut.secret
    # each plant state's observable arcs and its successors on the events
    # no observer sees
    obs_arcs = []
    silent = []
    for state in range(aut.n_states):
        arcs = aut.arcs(state).items()
        obs_arcs.append(tuple((e, dst) for e, dst in arcs if e in observable))
        silent.append(tuple(dst for e, dst in arcs if e not in observable))

    # the (states, lengths) pairs met, numbered, with each one's successors
    # once stepped, in event order
    pair_ids: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    successors: list[Optional[list[tuple]]] = []
    # by states, then configuration number: the length tuples of the
    # expanded nodes, one dict per states tuple, shared by its pairs
    expanded: dict[tuple[int, ...], dict[int, Any]] = {}

    def number(best: dict[int, int]) -> int:
        """The number of the pair of ``best`` closed under silent arcs,
        numbered here if it is new; ``best`` is closed in place."""
        if any(map(silent.__getitem__, best)):
            stack = list(best.items())
            while stack:
                state, length = stack.pop()
                if length != best[state] or length >= depth:
                    continue
                for dst in silent[state]:
                    if length + 1 < best.get(dst, depth + 2):
                        best[dst] = length + 1
                        stack.append((dst, length + 1))
        states = tuple(sorted(best))
        pair = (states, tuple(map(best.__getitem__, states)))
        p = pair_ids.get(pair)
        if p is None:
            p = pair_ids[pair] = len(pairs)
            pairs.append(pair)
            successors.append(None)
        return p

    def expand(p: int) -> list[tuple]:
        """Pair ``p``'s successors: per event its states enable, the child
        pair, its lengths, its states' expanded nodes and whether a child
        state is secret."""
        # event -> each state it reaches, with its shortest plant trace
        stepped: dict[str, dict[int, int]] = {}
        for state, length in zip(*pairs[p]):
            if length < depth:
                length += 1
                for event, dst in obs_arcs[state]:
                    reached = stepped.get(event)
                    if reached is None:
                        stepped[event] = {dst: length}
                    elif length < reached.get(dst, depth + 1):
                        reached[dst] = length
        got = successors[p] = []
        for event in sorted(stepped):
            child = number(stepped[event])
            states, lengths = pairs[child]
            got.append((event, child, lengths, expanded.setdefault(states, {}),
                        not secret.isdisjoint(states)))
        return got

    root = number({aut.initial: 0})
    states, lengths = pairs[root]
    if table.solely_secret[0] and not secret.isdisjoint(states):
        return OracleVerdict(False, "confidentiality", ())
    expanded[states] = {0: lengths}
    configs, rows, solely_secret = table.configs, table.rows, table.solely_secret
    queue = deque([((), root, 0)])
    while queue:
        sigma, p, c = queue.popleft()
        row = rows[c]
        moves = successors[p]
        if moves is None:
            moves = expand(p)
        for event, child, lengths, by_config, child_secret in moves:
            if event in row:
                c2 = row[event]
            else:
                c2 = table.step(c, event)
                if (c2 is not None and event not in defender
                        and configs[c2][0] != configs[c][0]):
                    raise ValueError("editor changed state on an event it cannot observe")
            if c2 is None:
                return OracleVerdict(False, "i-availability", sigma + (event,))
            if child_secret and solely_secret[c2]:
                return OracleVerdict(False, "confidentiality", sigma + (event,))
            seen = by_config.get(c2)
            if seen is None:
                by_config[c2] = lengths
            elif type(seen) is tuple:
                if _dominates(seen, lengths):
                    continue
                by_config[c2] = [seen, lengths]
            elif any(_dominates(earlier, lengths) for earlier in seen):
                continue
            else:
                seen.append(lengths)
            queue.append((sigma + (event,), child, c2))
    return OracleVerdict(True)


def _dominates(earlier: tuple[int, ...], lengths: tuple[int, ...]) -> bool:
    """Whether no state is reached by a shorter plant trace in ``lengths``
    than in ``earlier``; both list the same states in the same order."""
    return earlier == lengths or all(a <= b for a, b in zip(earlier, lengths))


def default_depth(
    aut: FiniteAutomaton,
    profile: ObservationProfile,
    k: int = 1,
) -> int:
    """Documented certification bound: product state count plus k plus one."""
    o_intr, o_def = editor_observers(aut, profile)
    return aut.n_states * len(o_intr.states) * len(o_def.states) + k + 1
