"""Reference implementations kept only for cross-checking the package.

``InfoState`` and ``AugmentedState`` are the paper's state tuples, and
``decode`` reads a game's state code into one through
``EditGameStructure.indices_of``.  ``apply_defender_move`` is the one-step
definition of a defender move over those tuples, the reference for the
game's shared observer runs.  The sort keys below spell out the canonical
order that the package's state codes encode (``EditGameStructure``): state
sets by their sorted members, then information states, augmented states and
merged states by their parts.  They take decoded states; ``decoded_key``
applies one to codes through ``decode``.  The restart sweep recomputes the backward safety fixpoint the
slow, obviously-correct way, and the naive trim and refinement rebuild their
survivors by re-sorting with the canonical keys rather than filtering the
parent's already sorted tuples.  The naive refinement takes a completed
mechanism.  The tree walk evaluates an editor on every observable
projection up to a depth, one node per word, with explicit defender-view
consistency groups and explanation searches; the reference search is the
package's bounded search as first written, one dict of plant
configurations per node and one editor step per child, for plants too
large for the tree.  The language enumerations,
the reach sets, the literal opacity check and the stand-alone
joint-configuration count are the definitions the package's observers,
``verify_cso`` and ``certifying_depth`` are tested against, and the
reference joint walk, over 4-tuples with a fresh editor step per joint
configuration and event, is the sequence the package's walk must yield;
the eager observer builds the whole accessible powerset in one pass, the
way the package's on-demand observer must end up once ``states`` is read.
The reference exporters write the game and mechanism DOT files one line per
write, quoting each label as they format it, and are what ``opacedit.dot``
must write byte for byte.  ``needs_editing`` picks out the plants that the
identity editor leaves leaking, where a cross-check of synthesized editors
is not already won by passthrough.  ``expand_reachable_reference`` is the
completion walk as first written, a breadth-first search with its own seen
set and queue, whose expansion order the game's and the mechanism's
``complete`` must keep; ``refine_reference`` is ``refine_to_em`` as it was
before a won mechanism became its own refinement: the walk, the backward
attractor of the unexpanded beliefs it finds by scanning every row, and
the live part.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (Any, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional,
                    TextIO, Union)

from opacedit.automata import FiniteAutomaton, ObservationProfile, Trace, fmt_state_set, project
from opacedit.game import EditAction, EditGameStructure
from opacedit.harness import exact_ic_check
from opacedit.mechanism import EditMechanism, MealyEditFunction, MergedA, Mechanism
from opacedit.observers import ObserverAutomaton, StateSet
from opacedit.opacity import OracleVerdict, SupportsEdit, edit_step, editor_observers
from opacedit.trimming import TrimmedGameStructure, backward_dead, live_part

EPSILON: Trace = ()


class InfoState(NamedTuple):
    sys: StateSet
    intr: StateSet
    dfn: StateSet


class AugmentedState(NamedTuple):
    info: InfoState
    pending: str


def decode(game: EditGameStructure, code: int) -> Union[InfoState, AugmentedState]:
    """The information or augmented state that ``code`` stands for."""
    *estimates, pending = next(game.indices_of((code,)))
    info = InfoState(*(obs.states[x] for obs, x in zip(game.observers, estimates)))
    return info if pending is None else AugmentedState(info, pending)


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


def _sset_key(s: StateSet) -> tuple[int, ...]:
    return tuple(sorted(s))


def info_key(v: InfoState) -> tuple:
    return (_sset_key(v.sys), _sset_key(v.intr), _sset_key(v.dfn))


def aug_key(v: AugmentedState) -> tuple:
    return (info_key(v.info), v.pending)


def merged_a_key(v: MergedA) -> tuple:
    return tuple(sorted(info_key(m) for m in v))


def merged_f_key(v: frozenset) -> tuple:
    """Key of a decoded observation state: its members' keys, then the
    event they all carry."""
    return (tuple(sorted(aug_key(m) for m in v)), next(iter(v)).pending)


def decoded(game: EditGameStructure, x):
    """A state code, or a belief or an observation state (a frozenset of
    codes), with every code read through ``decode``."""
    if isinstance(x, frozenset):
        return frozenset(decode(game, c) for c in x)
    return decode(game, x)


def decoded_key(game: EditGameStructure, key):
    """``key`` on the decoded form of a code, belief or observation state."""
    return lambda x: key(decoded(game, x))


def generated_language(aut: FiniteAutomaton, depth: int) -> list[Trace]:
    """All defined traces of length <= depth, in length-then-lex order."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    out: list[Trace] = [EPSILON]
    level: list[tuple[Trace, int]] = [(EPSILON, aut.initial)]
    for _ in range(depth):
        nxt: list[tuple[Trace, int]] = []
        for trace, state in level:
            for event, dst in aut.arcs(state).items():
                nxt.append((trace + (event,), dst))
        if not nxt:
            break
        out.extend(t for t, _ in nxt)
        level = nxt
    return out


def inverse_projection_members(
    aut: FiniteAutomaton, observed: Trace, alphabet: Iterable[str], depth: int
) -> list[Trace]:
    """Traces of L(G) up to ``depth`` whose projection equals ``observed``.

    Rejects ``depth < len(observed)`` since no trace that short can project
    onto the full observation.
    """
    keep = frozenset(alphabet)
    if depth < len(observed):
        raise ValueError("depth must be at least the observed length")
    found: list[Trace] = []
    level: list[tuple[Trace, int, int]] = [(EPSILON, aut.initial, 0)]
    if not observed:
        found.append(EPSILON)
    for _ in range(depth):
        nxt: list[tuple[Trace, int, int]] = []
        for trace, state, pos in level:
            for event, dst in aut.arcs(state).items():
                if event in keep:
                    if pos < len(observed) and observed[pos] == event:
                        nxt.append((trace + (event,), dst, pos + 1))
                else:
                    nxt.append((trace + (event,), dst, pos))
        for trace, _, pos in nxt:
            if pos == len(observed):
                found.append(trace)
        level = nxt
    return found


def reach_set(
    aut: FiniteAutomaton, source: int, observed: Optional[str], alphabet: Iterable[str]
) -> StateSet:
    """States reachable from ``source`` by traces projecting onto ``observed``.

    ``observed`` is either None (the empty observation: unobservable closure,
    including ``source`` itself) or a single event of ``alphabet``.  May be
    empty; callers read emptiness as "undefined transition".
    """
    keep = frozenset(alphabet)
    if observed is not None and observed not in keep:
        raise ValueError(f"observed event {observed!r} not in the projection alphabet")

    def silent_closure(seeds: Iterable[int]) -> set[int]:
        seen = set(seeds)
        stack = list(seen)
        while stack:
            for event, dst in aut.arcs(stack.pop()).items():
                if event not in keep and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen

    closure = silent_closure((source,))
    if observed is None:
        return frozenset(closure)
    stepped = {dst for s in closure for e, dst in aut.arcs(s).items() if e == observed}
    return frozenset(silent_closure(stepped))


@dataclass(frozen=True)
class EagerObserver:
    """An observer's accessible part, built in full: ``delta`` holds the
    defined steps on reactive events."""

    initial: StateSet
    states: tuple[StateSet, ...]
    delta: dict[tuple[StateSet, str], StateSet]


def eager_observer_reference(
    aut: FiniteAutomaton, reactive: Iterable[str], full: Iterable[str]
) -> EagerObserver:
    """The accessible powerset observer, built breadth-first in one pass by
    stepping each member of each estimate alone."""
    reactive_set = frozenset(reactive)
    if not reactive_set <= frozenset(full) <= set(aut.events):
        raise ValueError("need reactive <= full <= plant events")
    silent = frozenset(aut.events) - reactive_set

    def closure(seeds: Iterable[int]) -> StateSet:
        seen = set(seeds)
        stack = list(seen)
        while stack:
            for event, dst in aut.arcs(stack.pop()).items():
                if event in silent and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return frozenset(seen)

    def single_step(state: int, event: str) -> StateSet:
        stepped = {dst for s in closure((state,)) for e, dst in aut.arcs(s).items() if e == event}
        return closure(stepped)

    initial = closure((aut.initial,))
    states: dict[StateSet, None] = {initial: None}
    delta: dict[tuple[StateSet, str], StateSet] = {}
    queue = deque([initial])
    while queue:
        sset = queue.popleft()
        for event in sorted(reactive_set):
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
    return EagerObserver(initial, tuple(sorted(states, key=sorted)), delta)


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


def brute_force_cso(aut: FiniteAutomaton, profile: ObservationProfile, depth: int) -> bool:
    """Literal opacity check over all traces up to depth.

    Each secret-reaching trace must have a non-secret trace with the same
    intruder view; explanations are sought exactly, with no length bound.
    """
    level: list[tuple[Trace, int]] = [((), aut.initial)]
    checked: set[Trace] = set()
    for _ in range(depth + 1):
        for trace, state in level:
            if state in aut.secret:
                beta = project(trace, profile.intruder)
                if beta not in checked:
                    checked.add(beta)
                    if not nonsecret_explanation_exists(aut, beta, profile.intruder):
                        return False
        level = [
            (trace + (event,), dst)
            for trace, state in level
            for event, dst in aut.arcs(state).items()
        ]
        if not level:
            break
    return True


def needs_editing(aut: FiniteAutomaton, profile: ObservationProfile) -> bool:
    """The plant is not opaque to the intruder: the identity editor, which
    passes every defender event through, fails ``exact_ic_check``."""
    return not exact_ic_check(aut, profile, MealyEditFunction.identity(profile.defender))


def certifying_depth_reference(
    aut: FiniteAutomaton,
    profile: ObservationProfile,
    fe: MealyEditFunction,
    cap: int,
) -> int:
    """Joint-configuration count of plant, observers, and transducer, capped,
    by its own breadth-first search.  Skips undefined steps and, unlike the
    package's count, does not check the transducer's unseen events."""
    o_intr, o_def = editor_observers(aut, profile)
    start = (aut.initial, o_intr.initial, o_def.initial, fe.initial)
    seen = {start}
    queue = deque([start])
    while queue and len(seen) <= cap:
        x, xi, xd, q = queue.popleft()
        for event in aut.arcs(x):
            dst = aut.step(x, event)
            if event not in profile.observable:
                nxt = (dst, xi, xd, q)
            else:
                step = fe.step(q, event)
                if step is None:
                    continue
                word, q2 = step
                nxi = o_intr.run(word, xi)
                nxd = o_def.run(word, xd)
                if nxi is None or nxd is None:
                    continue
                nxt = (dst, nxi, nxd, q2)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return min(len(seen) + 1, cap)


def joint_configs_reference(
    aut: FiniteAutomaton, profile: ObservationProfile, editor: SupportsEdit
) -> Iterator[Optional[tuple[int, StateSet, StateSet, Any]]]:
    """``harness._joint_configs`` as first written: the same breadth-first
    walk over (plant state, intruder estimate, defender estimate, editor
    state) 4-tuples, stepping the editor and both observers afresh for every
    joint configuration and event.  The package's walk must yield the same
    sequence, None markers included, since ``certifying_depth`` counts it
    up to a cap."""
    observers = editor_observers(aut, profile)
    start = (aut.initial, observers[0].initial, observers[1].initial, editor.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        config = queue.popleft()
        yield config
        x, xi, xd, q = config
        for event, dst in aut.arcs(x).items():
            if event not in profile.observable:
                nxt = (dst, xi, xd, q)
            else:
                step = edit_step(editor, profile, observers, q, xi, xd, event)
                if step is None:
                    yield None
                    continue
                _, q2, nxi, nxd = step
                nxt = (dst, nxi, nxd, q2)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


def unobservable_closure_reference(game: EditGameStructure, seeds: Iterable[int]) -> frozenset:
    """Close a set of information states of ``game`` under moves the
    defender cannot see, a system event outside the defender alphabet
    followed by its forced passthrough, by one search from the seeds."""
    defender = game.profile.defender
    closed = set(seeds)
    stack = list(closed)
    while stack:
        v = stack.pop()
        for event, vf in game.expand(v).items():
            if event in defender:
                continue
            acts = game.def_moves[vf]
            assert len(acts) == 1, "non-defender event admits only the passthrough"
            target = next(iter(acts.values()))
            if target not in closed:
                closed.add(target)
                stack.append(target)
    return frozenset(closed)


def sweep_dead(unctrl, ctrl, seeds, cut=frozenset()) -> set:
    """Restart-the-sweep formulation of the backward safety fixpoint."""
    dead = set(seeds)
    changed = True
    while changed:
        changed = False
        for node, row in ctrl.items():
            if node not in dead and all(
                (node, label) in cut or succ in dead for label, succ in row.items()
            ):
                dead.add(node)
                changed = True
        for node, row in unctrl.items():
            if node not in dead and any(succ in dead for succ in row.values()):
                dead.add(node)
                changed = True
    return dead


def live_rows(initial, unctrl, ctrl, dead, cut) -> tuple[dict, dict]:
    """Reachable rows by depth-first search, controllable rows filtered."""
    kept_u, kept_c = {}, {}
    stack = [initial]
    while stack:
        node = stack.pop()
        if node in kept_u:
            continue
        kept_u[node] = dict(unctrl[node])
        for mid in unctrl[node].values():
            assert mid not in dead
            kept_c[mid] = {
                label: succ for label, succ in ctrl[mid].items()
                if succ not in dead and (mid, label) not in cut
            }
            stack.extend(kept_c[mid].values())
    return kept_u, kept_c


@dataclass(frozen=True)
class NaiveGame:
    """The rows and canonical state tuples of a naively trimmed game."""

    initial: int
    a_states: tuple
    f_states: tuple
    sys_moves: dict
    def_moves: dict


def trim_game_naive(game: EditGameStructure) -> Optional[TrimmedGameStructure]:
    seeds = [v for v in game.a_states + game.f_states if game.utility(v) == 0]
    dead = sweep_dead(game.sys_moves, game.def_moves, seeds)
    if game.initial in dead:
        return None
    sys_moves, def_moves = live_rows(
        game.initial, game.sys_moves, game.def_moves, dead, frozenset()
    )
    disabled = {}
    for vf in def_moves:
        lost = [act for act, tgt in game.def_moves[vf].items() if tgt in dead]
        if lost:
            disabled[vf] = tuple(sorted(lost, key=EditAction.sort_key))
    trimmed = NaiveGame(
        initial=game.initial,
        a_states=tuple(sorted(sys_moves, key=decoded_key(game, info_key))),
        f_states=tuple(sorted(def_moves, key=decoded_key(game, aug_key))),
        sys_moves=sys_moves,
        def_moves=def_moves,
    )
    return TrimmedGameStructure(
        game=trimmed,
        disabled=disabled,
        removed_a=tuple(sorted((v for v in game.a_states if v in dead),
                               key=decoded_key(game, info_key))),
        removed_f=tuple(sorted((v for v in game.f_states if v in dead),
                               key=decoded_key(game, aug_key))),
    )


def expand_reachable_reference(initial: Hashable, expand: Callable[[Hashable], Mapping],
                               ctrl: Mapping[Hashable, Mapping]) -> None:
    """Expand, breadth-first, every node reachable from ``initial``:
    ``expand`` builds a node's row into controllable nodes, whose rows
    ``ctrl`` then holds."""
    seen = {initial}
    queue = deque(seen)
    while queue:
        for node in expand(queue.popleft()).values():
            for target in ctrl[node].values():
                if target not in seen:
                    seen.add(target)
                    queue.append(target)


def refine_reference(uem: Mechanism) -> Optional[EditMechanism]:
    if uem._walk(EditAction.sort_key) is None:
        return None
    unexpanded = {target for row in uem.moves_out.values()
                  for target in row.values() if target not in uem.moves_in}
    if unexpanded:
        dead = backward_dead(uem.moves_in, uem.moves_out, unexpanded, uem._cut)
    else:
        dead = uem._solver.dead
    return EditMechanism(uem, *live_part(uem.initial, uem.moves_in, uem.moves_out, dead, uem._cut))


def refine_naive(uem: Mechanism) -> Optional[EditMechanism]:
    dead = sweep_dead(uem.moves_in, uem.moves_out, (), uem.partial)
    if uem.initial in dead:
        return None
    return EditMechanism(uem, *live_rows(uem.initial, uem.moves_in, uem.moves_out, dead,
                                         uem.partial))


_UNDEFINED = ("<undefined>",)


def evaluate_editor_reference(
    aut: FiniteAutomaton,
    profile: ObservationProfile,
    editor: SupportsEdit,
    depth: int,
) -> OracleVerdict:
    """``opacity.evaluate_editor`` as first written: each node keeps a dict
    of its plant configurations, the expanded nodes are keyed by a
    frozenset of their states with a list of config dicts each, and every
    child steps the editor and both observers afresh.  The package's
    search must return the same verdict and raise the same ``ValueError``
    on every input.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if isinstance(editor, MealyEditFunction):
        editor.check_outputs(profile.observable)
    o_intr, o_def = editor_observers(aut, profile)
    unobs = profile.unobservable(aut)
    observable = sorted(profile.observable)
    secret = aut.secret

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

    root_configs = uo_close({aut.initial: 0})
    if o_intr.initial <= secret and not secret.isdisjoint(root_configs):
        return OracleVerdict(False, "confidentiality", ())
    # configs of the expanded nodes, by (states, editor state, estimates)
    expanded = {
        (frozenset(root_configs), editor.initial, o_intr.initial, o_def.initial): [root_configs]
    }
    queue = deque([((), root_configs, editor.initial, o_intr.initial, o_def.initial)])
    while queue:
        sigma, configs, q, x_i, x_d = queue.popleft()
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
            step = edit_step(editor, profile, (o_intr, o_def), q, x_i, x_d, event)
            if step is None:
                return OracleVerdict(False, "i-availability", sigma + (event,))
            _, q2, nx_i, nx_d = step
            if event not in profile.defender and q2 != q:
                raise ValueError("editor changed state on an event it cannot observe")
            child_configs = uo_close(stepped)
            if nx_i <= secret and not secret.isdisjoint(child_configs):
                return OracleVerdict(False, "confidentiality", sigma + (event,))
            key = (frozenset(child_configs), q2, nx_i, nx_d)
            earlier = expanded.setdefault(key, [])
            if any(all(seen[s] <= n for s, n in child_configs.items()) for seen in earlier):
                continue
            earlier.append(child_configs)
            queue.append((sigma + (event,), child_configs, q2, nx_i, nx_d))
    return OracleVerdict(True)


@dataclass
class TreeReport:
    """Outcome of the tree walk over all observable behavior <= depth: the
    first counterexample to each property, and the first violation of any,
    as ``(property, sigma)``."""

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
        return self.i_available and self.c_available and self.confidential


def evaluate_editor_tree(
    aut: FiniteAutomaton,
    profile: ObservationProfile,
    editor: SupportsEdit,
    depth: int,
) -> TreeReport:
    """Single pass over the tree of observable projections of L(G).

    Checks, per projection sigma: the editor stays defined (availability);
    projections with equal defender views get equal defender-projected
    outputs (consistency); and whenever some secret plant trace projects to
    sigma, the intruder view of the output still has a non-secret
    explanation (confidentiality).  Counterexamples are the shortest, then
    lexicographically least.
    """
    o_intr, o_def = editor_observers(aut, profile)
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

    return TreeReport(
        depth=depth,
        i_counterexample=i_cx,
        c_counterexample=c_cx,
        conf_counterexample=conf_cx,
        first_violation=first,
    )


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _quote(s: str) -> str:
    return '"' + _escape(s) + '"'


def _reference_label(game: EditGameStructure, aut: FiniteAutomaton, code: int) -> str:
    """``(sys,intr,dfn)`` or ``[(sys,intr,dfn),event]``, unescaped."""
    *estimates, pending = next(game.indices_of((code,)))
    sys_, intr, dfn = (fmt_state_set(aut, obs.states[x])
                       for obs, x in zip(game.observers, estimates))
    info = f"({sys_},{intr},{dfn})"
    return info if pending is None else f"[{info},{pending}]"


def game_dot_reference(
    game: EditGameStructure, aut: FiniteAutomaton, out: TextIO, name: str = "game",
    disabled: Optional[Mapping[int, Iterable[EditAction]]] = None,
) -> None:
    """What ``opacedit.dot.game_dot`` writes."""
    write = out.write
    write(f"digraph {name} {{\n  rankdir=LR;\n")
    a_ids = {v: i for i, v in enumerate(game.a_states)}
    f_ids = {v: i for i, v in enumerate(game.f_states)}
    for v, i in a_ids.items():
        if game.utility(v) == 0:
            style = ", style=filled, fillcolor=red"
        else:
            style = ", style=bold" if v == game.initial else ""
        write(f"  a{i} [label={_quote(_reference_label(game, aut, v))}, shape=ellipse{style}];\n")
    for vf, j in f_ids.items():
        style = ", style=filled, fillcolor=red" if game.utility(vf) == 0 else ""
        write(f"  f{j} [label={_quote(_reference_label(game, aut, vf))}, shape=box{style}];\n")
    for v, i in a_ids.items():
        row = game.sys_moves[v]
        for event in sorted(row):
            write(f"  a{i} -> f{f_ids[row[event]]} [label={_quote(event)}];\n")
    for vf, j in f_ids.items():
        pending = next(game.indices_of((vf,)))[3]
        for act, target in game.def_moves[vf].items():
            write(f"  f{j} -> a{a_ids[target]} [label={_quote(act.label(pending))}];\n")
    if disabled and any(disabled.get(vf) for vf in f_ids):
        write("  pruned [label=\"pruned\", shape=plaintext, fontcolor=gray];\n")
        for vf, j in f_ids.items():
            pending = next(game.indices_of((vf,)))[3]
            for act in disabled.get(vf, ()):
                write(f"  f{j} -> pruned [label={_quote(act.label(pending))}, "
                      "style=dashed, color=gray];\n")
    write("}\n")


def mechanism_dot_reference(
    mech: Mechanism, aut: FiniteAutomaton, out: TextIO, name: str = "mechanism",
) -> None:
    """What ``opacedit.dot.mechanism_dot`` writes: members one per line,
    each escaped on its own and joined by literal ``\\n`` escapes."""
    write = out.write
    game = mech.game

    def members(v: frozenset) -> str:
        return "\\n".join(_escape(_reference_label(game, aut, c)) for c in sorted(v))

    write(f"digraph {name} {{\n  rankdir=LR;\n  node [shape=box];\n")
    a_ids = {v: i for i, v in enumerate(mech.ua_states)}
    f_ids = {v: i for i, v in enumerate(mech.uf_states)}
    for v, i in a_ids.items():
        style = ", style=bold" if v == mech.initial else ""
        write(f'  m{i} [label="{members(v)}"{style}];\n')
    for vf, j in f_ids.items():
        write(f'  o{j} [label="{members(vf)}", shape=box, style=rounded];\n')
    for v, i in a_ids.items():
        row = mech.moves_in[v]
        for event in sorted(row):
            write(f"  m{i} -> o{f_ids[row[event]]} [label={_quote(event)}];\n")
    for vf, j in f_ids.items():
        pending = next(game.indices_of(vf))[3]
        for act, target in mech.moves_out[vf].items():
            style = ", style=dashed" if act in mech.partial_at(vf) else ""
            write(f"  o{j} -> m{a_ids[target]} [label={_quote(act.label(pending))}{style}];\n")
    write("}\n")
