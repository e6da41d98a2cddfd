"""Plant models, observation alphabets, and natural projection.

A plant is a deterministic finite automaton with a partial transition
function.  States are dense integers assigned at construction; the original
labels are kept for parsing and display.  Everything here is immutable after
construction, and every enumeration is returned in a canonical order
(length, then lexicographic on event ids) so that downstream artifacts are
reproducible byte for byte.

The plant text and the transducer text (``mechanism.parse_mealy``) share
one statement reader, ``statements``, and one id check, ``_declare``.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

Trace = tuple[str, ...]


class ModelError(ValueError):
    """A model or observation profile violates a structural constraint."""


class ParseError(ModelError):
    """Malformed model or transducer text; the message carries the offending
    line number, if the fault has one (a missing declaration has none)."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _check_symbol(kind: str, token: str, line: Optional[int] = None) -> str:
    """``token`` if it is a valid id; a ``ParseError`` naming ``line`` if
    one is given, else a plain ``ModelError``.  Event ids may not be ``-``
    or contain ``·``, which the transducer format reserves."""
    if not token or not token.isprintable() or any(c.isspace() for c in token):
        message = f"{kind} id {token!r} must be printable, nonempty, whitespace-free"
    elif kind == "event" and (token == "-" or "·" in token):
        message = (f"event id {token!r} is reserved: the transducer format writes "
                   "'-' for the empty word and joins words with '·'")
    else:
        return token
    raise ModelError(message) if line is None else ParseError(message, line)


class Record:
    """A value record: equality and ``repr`` read the fields ``_fields``
    names, in order, and it is unhashable unless a subclass defines
    ``__hash__``.  Records are not assigned to after construction."""

    _fields: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class FiniteAutomaton(Record):
    """Deterministic plant with a partial transition map and secret states.

    ``labels[i]`` is the display name of state ``i``; ``delta`` maps
    ``(state, event)`` pairs to successor states and is partial.
    """

    _fields = ("labels", "events", "delta", "initial", "secret")

    def __init__(
        self,
        labels: tuple[str, ...],
        events: tuple[str, ...],
        delta: Mapping[tuple[int, str], int],
        initial: int,
        secret: frozenset[int],
    ):
        n = len(labels)
        if n == 0:
            raise ModelError("automaton needs at least one state")
        if len(set(labels)) != n:
            raise ModelError("state labels must be unique")
        if len(set(events)) != len(events):
            raise ModelError("event ids must be unique")
        for label in labels:
            _check_symbol("state", label)
        for event in events:
            _check_symbol("event", event)
        if not 0 <= initial < n:
            raise ModelError("initial state out of range")
        if not all(0 <= s < n for s in secret):
            raise ModelError("secret state out of range")
        declared = set(events)
        arcs: list[dict[str, int]] = [dict() for _ in range(n)]
        for (src, event), dst in delta.items():
            if not 0 <= src < n or not 0 <= dst < n:
                raise ModelError(f"transition ({src},{event},{dst}) references unknown state")
            if event not in declared:
                raise ModelError(f"transition event {event!r} not declared")
            arcs[src][event] = dst
        self.labels = labels
        self.events = events
        self.delta = delta
        self.initial = initial
        self.secret = secret
        # per-state successor maps in sorted event order, for deterministic walks
        self._arcs = tuple({e: a[e] for e in sorted(a)} for a in arcs)
        # observers built over this plant, by (reactive, full) alphabets
        self._observers: dict = {}

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def arcs(self, state: int) -> Mapping[str, int]:
        """Successors of ``state`` keyed by event, in sorted event order."""
        return self._arcs[state]

    def step(self, state: int, event: str) -> Optional[int]:
        return self._arcs[state].get(event)

    def run(self, state: int, trace: Iterable[str]) -> Optional[int]:
        cur: Optional[int] = state
        for event in trace:
            if cur is None:
                return None
            cur = self._arcs[cur].get(event)
        return cur


class ObservationProfile(Record):
    """The observable alphabet and the intruder/defender sub-alphabets.

    ``intruder`` and ``defender`` are both subsets of ``observable`` but need
    not be comparable to each other.  The unobservable alphabet is derived,
    never stored.
    """

    _fields = ("observable", "intruder", "defender")

    def __init__(
        self,
        observable: frozenset[str],
        intruder: frozenset[str],
        defender: frozenset[str],
    ):
        if not intruder <= observable:
            raise ModelError("intruder alphabet must be a subset of the observable one")
        if not defender <= observable:
            raise ModelError("defender alphabet must be a subset of the observable one")
        self.observable = observable
        self.intruder = intruder
        self.defender = defender

    def __hash__(self) -> int:
        return hash(self._values())

    def unobservable(self, aut: FiniteAutomaton) -> frozenset[str]:
        return frozenset(aut.events) - self.observable


def project(trace: Iterable[str], alphabet: Iterable[str]) -> Trace:
    """Natural projection: erase every event outside ``alphabet``."""
    keep = alphabet if isinstance(alphabet, (set, frozenset)) else frozenset(alphabet)
    return tuple(e for e in trace if e in keep)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_DIRECTIVES = (
    "states", "initial", "secret", "events",
    "observable", "intruder", "defender", "trans",
)


def statements(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """Each nonblank line of ``text``, cut at ``#`` and stripped, with its
    line number and its whitespace-separated tokens."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, line.split()


def _declare(kind: str, tokens: Iterable[str], lineno: int, ids: dict[str, int]) -> None:
    """Number each of ``tokens`` in ``ids`` in turn, refusing a malformed
    or repeated id."""
    for tok in tokens:
        if _check_symbol(kind, tok, lineno) in ids:
            raise ParseError(f"{kind} {tok!r} declared twice", lineno)
        ids[tok] = len(ids)


def parse_model(text: str) -> tuple[FiniteAutomaton, ObservationProfile]:
    """Parse the one-directive-per-line model format.

    Unknown directives, malformed or reserved ids, duplicate transitions
    from the same (state, event) pair, and references to undeclared symbols
    are hard errors carrying the line number.
    """
    # label -> index, event -> index, in declaration order
    states: dict[str, int] = {}
    events: dict[str, int] = {}
    sets: dict[str, list[tuple[int, str]]] = {
        "secret": [], "observable": [], "intruder": [], "defender": []
    }
    initial: Optional[tuple[int, str]] = None
    trans: list[tuple[int, str, str, str]] = []

    for lineno, _, (directive, *args) in statements(text):
        if directive not in _DIRECTIVES:
            raise ParseError(f"unknown directive {directive!r}", lineno)
        if directive == "states":
            _declare("state", args, lineno, states)
        elif directive == "events":
            _declare("event", args, lineno, events)
        elif directive == "initial":
            if len(args) != 1:
                raise ParseError("initial takes exactly one state", lineno)
            if initial is not None:
                raise ParseError("initial declared twice", lineno)
            initial = (lineno, args[0])
        elif directive == "trans":
            if len(args) != 3:
                raise ParseError("trans takes: source event target", lineno)
            trans.append((lineno, args[0], args[1], args[2]))
        else:
            sets[directive].extend((lineno, tok) for tok in args)

    if not states:
        raise ParseError("no states declared")
    if not events:
        raise ParseError("no events declared")
    if initial is None:
        raise ParseError("no initial state declared")

    def state_ref(lineno: int, tok: str) -> int:
        if tok not in states:
            raise ParseError(f"undeclared state {tok!r}", lineno)
        return states[tok]

    def event_ref(lineno: int, tok: str) -> str:
        if tok not in events:
            raise ParseError(f"undeclared event {tok!r}", lineno)
        return tok

    delta: dict[tuple[int, str], int] = {}
    for lineno, src, event, dst in trans:
        key = (state_ref(lineno, src), event_ref(lineno, event))
        if key in delta:
            raise ParseError(f"duplicate transition from {src!r} on {event!r}", lineno)
        delta[key] = state_ref(lineno, dst)

    secret = frozenset(state_ref(ln, tok) for ln, tok in sets["secret"])
    observable = frozenset(event_ref(ln, tok) for ln, tok in sets["observable"])
    for kind in ("intruder", "defender"):
        for ln, tok in sets[kind]:
            event_ref(ln, tok)
            if tok not in observable:
                raise ParseError(f"{kind} event {tok!r} is not observable", ln)
    intruder = frozenset(tok for _, tok in sets["intruder"])
    defender = frozenset(tok for _, tok in sets["defender"])

    aut = FiniteAutomaton(
        labels=tuple(states),
        events=tuple(events),
        delta=delta,
        initial=state_ref(*initial),
        secret=secret,
    )
    return aut, ObservationProfile(observable=observable, intruder=intruder, defender=defender)


def format_model(aut: FiniteAutomaton, profile: ObservationProfile) -> str:
    """Render a model back into the text format (canonical ordering)."""
    lines = [
        "states " + " ".join(aut.labels),
        "initial " + aut.labels[aut.initial],
    ]
    if aut.secret:
        lines.append("secret " + " ".join(aut.labels[s] for s in sorted(aut.secret)))
    lines.append("events " + " ".join(aut.events))
    lines.append("observable " + " ".join(sorted(profile.observable)))
    if profile.intruder:
        lines.append("intruder " + " ".join(sorted(profile.intruder)))
    if profile.defender:
        lines.append("defender " + " ".join(sorted(profile.defender)))
    for src in range(aut.n_states):
        for event, dst in aut.arcs(src).items():
            lines.append(f"trans {aut.labels[src]} {event} {aut.labels[dst]}")
    return "\n".join(lines) + "\n"


def fmt_state_set(aut: FiniteAutomaton, states: frozenset[int]) -> str:
    """Render a set of plant states as ``{1,3}`` using display labels."""
    return "{" + ",".join(aut.labels[s] for s in sorted(states)) + "}"
