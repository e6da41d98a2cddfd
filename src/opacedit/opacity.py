"""Current-state opacity and the bounded evaluation of edit functions.

Opacity is decided on the intruder observer: the plant leaks exactly when
some reachable intruder estimate consists of secret states only.
``evaluate_editor`` quantifies over observable behavior up to a caller
chosen depth and evaluates an editor jointly against the intruder and
defender observers; its report holds the four enforceability properties.
An edit output is "defined" precisely when both observers can still parse
it.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Protocol

from .automata import FiniteAutomaton, ObservationProfile, Trace, project
from .observers import ObserverAutomaton, build_observer, standard_observers


class SupportsEdit(Protocol):
    """Stateful editor: consumes observable events, emits output words.

    ``step`` must return the forced single-event word for events outside the
    defender alphabet (the editor cannot see them, though a defective editor
    may still try to change state on them, which the checks will catch).
    """

    initial: Any

    def step(self, state: Any, event: str) -> Optional[tuple[Trace, Any]]:
        ...


@dataclass(frozen=True)
class OpacityVerdict:
    opaque: bool
    witness: Optional[Trace]


def verify_cso(aut: FiniteAutomaton, profile: ObservationProfile) -> OpacityVerdict:
    """Opaque iff no reachable intruder estimate is made of secret states only.

    When violated, the witness is the lexicographically least shortest plant
    trace driving the intruder estimate inside the secret set.
    """
    profile.validate(aut)
    o_intr = build_observer(aut, profile.intruder, profile.observable)
    secret = aut.secret
    if not any(s <= secret for s in o_intr.states):
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
                nxt = o_intr.delta.get((estimate, event))
                assert nxt is not None, "true state escaped its estimate"
            else:
                nxt = estimate
            if (dst, nxt) not in visited:
                visited.add((dst, nxt))
                queue.append((trace + (event,), dst, nxt))
    raise AssertionError("solely secret estimate exists but is unreachable")


def nonsecret_explanation_exists(
    aut: FiniteAutomaton, beta: Trace, alphabet: Iterable[str]
) -> bool:
    """Is some non-secret plant trace projected onto ``beta``?

    Exact reachability over (plant state, position in beta); no length bound
    is needed because revisited pairs are skipped.
    """
    keep = frozenset(alphabet)
    queue = deque([(aut.initial, 0)])
    visited = {(aut.initial, 0)}
    while queue:
        x, pos = queue.popleft()
        if pos == len(beta) and x not in aut.secret:
            return True
        for event, dst in aut.arcs(x).items():
            if event in keep:
                if pos < len(beta) and beta[pos] == event:
                    nxt = (dst, pos + 1)
                else:
                    continue
            else:
                nxt = (dst, pos)
            if nxt not in visited:
                visited.add(nxt)
                queue.append(nxt)
    return False


# ---------------------------------------------------------------------------
# Editor evaluation
# ---------------------------------------------------------------------------

class EditorRun:
    """Joint run of an editor with the intruder and defender observers.

    Tracks the editor state, both estimates, and the emitted word.  ``feed``
    returns the word emitted for one observable plant event, or None when the
    editor or either observer run becomes undefined (the run is then stuck).
    """

    def __init__(
        self,
        editor: SupportsEdit,
        profile: ObservationProfile,
        o_intr: ObserverAutomaton,
        o_def: ObserverAutomaton,
    ):
        self.editor = editor
        self.profile = profile
        self.o_intr = o_intr
        self.o_def = o_def
        self.q = editor.initial
        self.x_intr = o_intr.initial
        self.x_def = o_def.initial
        self.emitted: list[str] = []

    def feed(self, event: str) -> Optional[Trace]:
        if event not in self.profile.observable:
            raise ValueError(f"event {event!r} is not observable")
        step = self.editor.step(self.q, event)
        if step is None:
            return None
        word, q2 = step
        if event not in self.profile.defender and word != (event,):
            raise ValueError("editor rewrote an event it cannot observe")
        x_intr = self.o_intr.run(word, self.x_intr)
        if x_intr is None:
            return None
        x_def = self.o_def.run(word, self.x_def)
        if x_def is None:
            return None
        self.q, self.x_intr, self.x_def = q2, x_intr, x_def
        self.emitted.extend(word)
        return word


@dataclass
class EditorReport:
    """Outcome of evaluating an editor over all observable behavior <= depth."""

    depth: int
    i_counterexample: Optional[Trace]
    c_counterexample: Optional[tuple[Trace, Trace]]
    conf_counterexample: Optional[Trace]
    first_violation: Optional[tuple[str, Trace]]

    @property
    def i_available(self) -> bool:
        return self.i_counterexample is None

    @property
    def c_available(self) -> bool:
        return self.c_counterexample is None

    @property
    def confidential(self) -> bool:
        return self.conf_counterexample is None

    @property
    def integral(self) -> bool:
        # prefix-closed evaluation: every prefix of every checked trace is
        # itself checked, so integrity is the conjunction below
        return self.i_available and self.c_available and self.confidential


_UNDEFINED = ("<undefined>",)


def evaluate_editor(
    aut: FiniteAutomaton,
    profile: ObservationProfile,
    editor: SupportsEdit,
    depth: int,
    observers: Optional[tuple[ObserverAutomaton, ObserverAutomaton]] = None,
) -> EditorReport:
    """Single pass over the tree of observable projections of L(G).

    Checks, per projection sigma: the editor stays defined (availability);
    projections with equal defender views get equal defender-projected
    outputs (consistency); and whenever some secret plant trace projects to
    sigma, the intruder view of the output still has a non-secret
    explanation (confidentiality).  Counterexamples are the shortest, then
    lexicographically least.
    """
    profile.validate(aut)
    if observers is None:
        o_intr = build_observer(aut, profile.intruder, profile.observable)
        o_def = build_observer(aut, profile.defender, profile.observable)
    else:
        o_intr, o_def = observers
    unobs = frozenset(aut.events) - profile.observable
    observable = sorted(profile.observable)

    def uo_close(configs: dict[int, int]) -> dict[int, int]:
        best = dict(configs)
        stack = list(best.items())
        while stack:
            state, length = stack.pop()
            if length != best.get(state) or length >= depth:
                continue
            for event, dst in aut.arcs(state).items():
                if event in unobs and length + 1 < best.get(dst, depth + 2):
                    best[dst] = length + 1
                    stack.append((dst, length + 1))
        return best

    i_cx: Optional[Trace] = None
    c_cx: Optional[tuple[Trace, Trace]] = None
    conf_cx: Optional[Trace] = None
    first: Optional[tuple[str, Trace]] = None

    def record(kind: str, sigma: Trace, pair: Optional[Trace] = None) -> None:
        nonlocal i_cx, c_cx, conf_cx, first
        if kind == "i-availability" and i_cx is None:
            i_cx = sigma
        elif kind == "c-availability" and c_cx is None:
            c_cx = (pair if pair is not None else sigma, sigma)
        elif kind == "confidentiality" and conf_cx is None:
            conf_cx = sigma
        if first is None:
            first = (kind, sigma)

    groups: dict[Trace, tuple[Trace, Trace]] = {}
    explain_memo: dict[Trace, bool] = {}

    def explained(beta: Trace) -> bool:
        got = explain_memo.get(beta)
        if got is None:
            got = nonsecret_explanation_exists(aut, beta, profile.intruder)
            explain_memo[beta] = got
        return got

    def check_node(sigma: Trace, pd_sigma: Trace, configs: dict[int, int],
                   emit_i: Trace, emit_d: Trace, defined: bool) -> None:
        value = emit_d if defined else _UNDEFINED
        if not defined:
            record("i-availability", sigma)
        seen = groups.get(pd_sigma)
        if seen is None:
            groups[pd_sigma] = (sigma, value)
        elif seen[1] != value:
            record("c-availability", sigma, pair=seen[0])
        if defined and any(x in aut.secret for x in configs) and not explained(emit_i):
            record("confidentiality", sigma)

    root_configs = uo_close({aut.initial: 0})
    root = ((), (), root_configs, editor.initial, o_intr.initial, o_def.initial, (), ())
    check_node((), (), root_configs, (), (), True)
    queue = deque([root])
    while queue:
        if i_cx is not None and c_cx is not None and conf_cx is not None:
            break
        sigma, pd_sigma, configs, q, x_i, x_d, emit_i, emit_d = queue.popleft()
        for event in observable:
            stepped: dict[int, int] = {}
            for state, length in configs.items():
                if length >= depth:
                    continue
                dst = aut.step(state, event)
                if dst is not None and length + 1 < stepped.get(dst, depth + 2):
                    stepped[dst] = length + 1
            if not stepped:
                continue
            child_sigma = sigma + (event,)
            child_pd = pd_sigma + ((event,) if event in profile.defender else ())
            child_configs = uo_close(stepped)
            step = editor.step(q, event)
            if step is None:
                check_node(child_sigma, child_pd, child_configs, (), (), False)
                continue
            word, q2 = step
            if event not in profile.defender and word != (event,):
                raise ValueError("editor rewrote an event it cannot observe")
            nx_i = o_intr.run(word, x_i)
            nx_d = o_def.run(word, x_d)
            if nx_i is None or nx_d is None:
                check_node(child_sigma, child_pd, child_configs, (), (), False)
                continue
            child_emit_i = emit_i + project(word, profile.intruder)
            child_emit_d = emit_d + project(word, profile.defender)
            check_node(child_sigma, child_pd, child_configs,
                       child_emit_i, child_emit_d, True)
            queue.append((child_sigma, child_pd, child_configs, q2,
                          nx_i, nx_d, child_emit_i, child_emit_d))

    return EditorReport(
        depth=depth,
        i_counterexample=i_cx,
        c_counterexample=c_cx,
        conf_counterexample=conf_cx,
        first_violation=first,
    )


def default_depth(aut: FiniteAutomaton, profile: ObservationProfile, k: int = 1) -> int:
    """Documented certification bound: product state count plus k plus one."""
    _, o_intr, o_def = standard_observers(aut, profile)
    return aut.n_states * len(o_intr.states) * len(o_def.states) + k + 1

