"""Defender-view merging of the trimmed game and transducer extraction.

The defender cannot see events outside its alphabet, so surviving
information states linked by unobservable composite moves are merged into
belief states.  A first pass keeps every action that works for at least one
member ("no guarantees"); a second pass prunes actions that are undefined at
some member, since playing one would let the intruder notice the interface.
A concrete deterministic transducer is then extracted with a pluggable
action-selection policy.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional

from .automata import Trace
from .game import EditAction, InfoState, aug_key, info_key
from .trimming import TrimmedGameStructure, backward_dead, live_part

MergedA = frozenset  # frozenset[InfoState]


class MergedF(NamedTuple):
    members: frozenset  # frozenset[AugmentedState]
    observed: str


def merged_a_key(v: MergedA) -> tuple:
    return tuple(sorted(info_key(m) for m in v))


def merged_f_key(v: MergedF) -> tuple:
    return (tuple(sorted(aug_key(m) for m in v.members)), v.observed)


@dataclass
class Mechanism:
    """Merged game over defender observations.

    ``guaranteed`` is False for the no-guarantees stage, where ``partial``
    lists the (state, action) pairs that are undefined at some member; the
    refined mechanism has ``guaranteed=True`` and an empty ``partial``.
    """

    defender: frozenset[str]
    initial: MergedA
    ua_states: tuple[MergedA, ...]
    uf_states: tuple[MergedF, ...]
    moves_in: dict[MergedA, dict[str, MergedF]]
    moves_out: dict[MergedF, dict[EditAction, MergedA]]
    partial: frozenset[tuple[MergedF, EditAction]]
    guaranteed: bool

    def actions_at(self, v: MergedF) -> tuple[EditAction, ...]:
        return tuple(sorted(self.moves_out[v], key=EditAction.sort_key))


def unobservable_closure(tgs: TrimmedGameStructure, seeds: Iterable[InfoState]) -> frozenset:
    """Close a set of surviving information states under moves the defender
    cannot see: a system event outside the defender alphabet followed by its
    forced passthrough."""
    defender = tgs.game.profile.defender
    closed = set(seeds)
    stack = list(closed)
    while stack:
        v = stack.pop()
        for event, vf in tgs.game.sys_moves[v].items():
            if event in defender:
                continue
            acts = tgs.game.def_moves[vf]
            assert len(acts) == 1, "non-defender event admits only the passthrough"
            target = next(iter(acts.values()))
            if target not in closed:
                closed.add(target)
                stack.append(target)
    return frozenset(closed)


def build_uem(tgs: TrimmedGameStructure) -> Mechanism:
    """No-guarantees merged mechanism over the surviving game."""
    game = tgs.game
    defender = sorted(game.profile.defender)
    initial = unobservable_closure(tgs, {game.initial})

    ua_seen: dict[MergedA, None] = {initial: None}
    uf_seen: dict[MergedF, None] = {}
    moves_in: dict[MergedA, dict[str, MergedF]] = {}
    moves_out: dict[MergedF, dict[EditAction, MergedA]] = {}
    partial: set[tuple[MergedF, EditAction]] = set()

    queue = deque([initial])
    while queue:
        vua = queue.popleft()
        row: dict[str, MergedF] = {}
        for event in defender:
            members = frozenset(
                game.sys_moves[v][event] for v in vua if event in game.sys_moves[v]
            )
            if not members:
                continue
            vuf = MergedF(members, event)
            row[event] = vuf
            if vuf in uf_seen:
                continue
            uf_seen[vuf] = None
            actions: set[EditAction] = set()
            for z in members:
                actions.update(game.def_moves[z])
            out: dict[EditAction, MergedA] = {}
            for act in sorted(actions, key=EditAction.sort_key):
                hits = [game.def_moves[z][act] for z in members if act in game.def_moves[z]]
                target = unobservable_closure(tgs, hits)
                out[act] = target
                if len(hits) < len(members):
                    partial.add((vuf, act))
                if target not in ua_seen:
                    ua_seen[target] = None
                    queue.append(target)
            moves_out[vuf] = out
        moves_in[vua] = row

    return Mechanism(
        defender=game.profile.defender,
        initial=initial,
        ua_states=tuple(sorted(ua_seen, key=merged_a_key)),
        uf_states=tuple(sorted(uf_seen, key=merged_f_key)),
        moves_in=moves_in,
        moves_out=moves_out,
        partial=frozenset(partial),
        guaranteed=False,
    )


def refine_to_em(uem: Mechanism) -> Optional[Mechanism]:
    """Drop actions undefined at some member, then restore controllability.

    A partially defined action is removed outright (playing it would let the
    intruder detect the interface at the member lacking it).  An observation
    state dies when no surviving action leads to a live belief state, and a
    belief state dies when some defender observation forces it into a dead
    observation state.  None when the initial belief state dies.  Removal is
    per action, not per reached belief state: distinct observation states
    may share a successor, and a totally defined action must not be dragged
    down by someone else's partial one.
    """
    dead = backward_dead(uem.moves_in, uem.moves_out, (), cut=uem.partial)
    if uem.initial in dead:
        return None
    moves_in, moves_out = live_part(
        uem.initial, uem.moves_in, uem.moves_out, dead, cut=uem.partial
    )
    return Mechanism(
        defender=uem.defender,
        initial=uem.initial,
        ua_states=tuple(v for v in uem.ua_states if v in moves_in),
        uf_states=tuple(v for v in uem.uf_states if v in moves_out),
        moves_in=moves_in,
        moves_out=moves_out,
        partial=frozenset(),
        guaranteed=True,
    )


# ---------------------------------------------------------------------------
# Transducer extraction
# ---------------------------------------------------------------------------

def _policy_key(order: tuple[str, ...]) -> Callable[[EditAction], tuple]:
    rank = {kind: i for i, kind in enumerate(order)}

    def key(act: EditAction) -> tuple:
        return (rank[act.kind],) + act.sort_key()

    return key


POLICIES: dict[str, Callable[[EditAction], tuple]] = {
    "prefer-passthrough": _policy_key(("pass", "delete", "sub", "insert")),
    "prefer-delete": _policy_key(("delete", "pass", "sub", "insert")),
    "prefer-substitute": _policy_key(("sub", "insert", "delete", "pass")),
    "prefer-insert": _policy_key(("insert", "sub", "delete", "pass")),
}


@dataclass(frozen=True)
class MealyEditFunction:
    """Deterministic transducer from defender observations to output words.

    Events outside the defender alphabet pass through unchanged without
    moving the transducer.  ``step`` returns None where no response is
    defined, which downstream checks read as an availability failure.
    """

    alphabet: frozenset[str]
    n_states: int
    initial: int
    output: dict[tuple[int, str], Trace]
    next_state: dict[tuple[int, str], int]
    policy: str = ""
    # belief state per transducer state when synthesized; not serialized
    beliefs: tuple = field(default=(), compare=False, repr=False)

    def step(self, state: int, event: str) -> Optional[tuple[Trace, int]]:
        if event not in self.alphabet:
            return ((event,), state)
        key = (state, event)
        if key not in self.output:
            return None
        return (self.output[key], self.next_state[key])

    @classmethod
    def identity(cls, alphabet: Iterable[str]) -> "MealyEditFunction":
        alphabet = frozenset(alphabet)
        return cls(
            alphabet=alphabet,
            n_states=1,
            initial=0,
            output={(0, e): (e,) for e in alphabet},
            next_state={(0, e): 0 for e in alphabet},
            policy="identity",
        )


def synthesize(em: Mechanism, policy: str = "prefer-passthrough") -> MealyEditFunction:
    """Extract one deterministic edit function from a refined mechanism."""
    if not em.guaranteed:
        raise ValueError("synthesis requires a refined mechanism")
    for vuf in em.uf_states:
        if not em.moves_out[vuf]:
            raise ValueError("corrupt mechanism: observation state without actions")
    try:
        key = POLICIES[policy]
    except KeyError:
        raise ValueError(f"unknown policy {policy!r}") from None

    index: dict[MergedA, int] = {em.initial: 0}
    order: list[MergedA] = [em.initial]
    output: dict[tuple[int, str], Trace] = {}
    next_state: dict[tuple[int, str], int] = {}
    queue = deque([em.initial])
    while queue:
        vua = queue.popleft()
        q = index[vua]
        for event in sorted(em.moves_in[vua]):
            vuf = em.moves_in[vua][event]
            act = min(em.moves_out[vuf], key=key)
            target = em.moves_out[vuf][act]
            if target not in index:
                index[target] = len(order)
                order.append(target)
                queue.append(target)
            output[(q, event)] = act.word(event)
            next_state[(q, event)] = index[target]
    return MealyEditFunction(
        alphabet=em.defender,
        n_states=len(order),
        initial=0,
        output=output,
        next_state=next_state,
        policy=policy,
        beliefs=tuple(order),
    )


# ---------------------------------------------------------------------------
# Transducer text format: one edge per line, `state γ / ω state'`
# ---------------------------------------------------------------------------

_EDGE_RE = re.compile(r"^(\d+)\s+(\S+)\s+/\s+(\S+)\s+(\d+)$")


def format_mealy(fe: MealyEditFunction) -> str:
    lines = []
    if fe.policy:
        lines.append(f"policy {fe.policy}")
    lines.append("alphabet " + " ".join(sorted(fe.alphabet)))
    lines.append(f"states {fe.n_states}")
    lines.append(f"initial {fe.initial}")
    for (q, event) in sorted(fe.output):
        word = fe.output[(q, event)]
        rendered = "·".join(word) if word else "-"
        lines.append(f"{q} {event} / {rendered} {fe.next_state[(q, event)]}")
    return "\n".join(lines) + "\n"


def parse_mealy(text: str) -> MealyEditFunction:
    alphabet: Optional[frozenset[str]] = None
    n_states: Optional[int] = None
    initial = 0
    policy = ""
    output: dict[tuple[int, str], Trace] = {}
    next_state: dict[tuple[int, str], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "policy":
            policy = tokens[1] if len(tokens) > 1 else ""
            continue
        if tokens[0] == "alphabet":
            alphabet = frozenset(tokens[1:])
            continue
        if tokens[0] == "states":
            n_states = int(tokens[1])
            continue
        if tokens[0] == "initial":
            initial = int(tokens[1])
            continue
        m = _EDGE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: malformed transducer edge {line!r}")
        q, event, rendered, q2 = int(m.group(1)), m.group(2), m.group(3), int(m.group(4))
        word: Trace = () if rendered == "-" else tuple(rendered.split("·"))
        if (q, event) in output:
            raise ValueError(f"line {lineno}: duplicate edge for state {q} on {event!r}")
        output[(q, event)] = word
        next_state[(q, event)] = q2
    if alphabet is None:
        raise ValueError("transducer text lacks an alphabet line")
    used = [initial] + [q for q, _ in output] + list(next_state.values())
    if n_states is None:
        n_states = max(used) + 1
    for q in used:
        if not 0 <= q < n_states:
            raise ValueError(f"transducer state {q} outside [0, {n_states})")
    return MealyEditFunction(
        alphabet=alphabet,
        n_states=n_states,
        initial=initial,
        output=output,
        next_state=next_state,
        policy=policy,
    )
