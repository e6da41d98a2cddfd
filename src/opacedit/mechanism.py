"""Defender-view merging of the trimmed game and transducer extraction.

The defender cannot see events outside its alphabet, so surviving
information states linked by unobservable composite moves are merged into
belief states, closed with the observers' component search (``close``).
A first pass keeps every action that works for at least one member ("no
guarantees"); a second pass prunes actions that are undefined at some
member, since playing one would let the intruder notice the interface.
A concrete deterministic transducer is then extracted with a pluggable
action-selection policy.

The merged mechanism is built on demand.  Refinement and synthesis walk the
strategy their action order prefers through one method, ``Mechanism._walk``,
and expand a belief state only when the walk reaches it; the backward
safety solver is fed each row as it is expanded, with unexpanded beliefs
counted as live, and the walk repeats its pass until a pass meets no dead
observation state (a local fixpoint in the style of on-the-fly game
solving).  ``Mechanism.complete`` expands everything, for callers that show
the whole structure, by the game's completion walk over the table of the
beliefs met so far.

Rows are never changed once built, so equal values are shared
(hash-consing): the mechanism holds one object per belief and per
observation state, and every row that names one names that object.
"""
from __future__ import annotations

from typing import Callable, Collection, Iterable, Optional

from .automata import (ModelError, ParseError, Record, Trace, _check_symbol, _declare,
                       statements)
from .game import EditAction, EditGameStructure, expand_met
from .observers import close
from .trimming import BackwardSolver, TrimmedGameStructure, backward_dead, live_part

# A belief is the frozenset of its information-state codes and an
# observation state the frozenset of its augmented-state codes.  A member's
# code fixes the observed event, and augmented codes lie above every
# information code, so no observation state equals a belief.
MergedA = frozenset


# (q, event, action, q') for each transducer edge, in visiting order
Walk = tuple[list, list[tuple[int, str, EditAction, int]]]


class Mechanism:
    """No-guarantees merged game over defender observations, built on
    demand over ``game``.

    It reads the game only through ``game.expand`` and ``game.def_moves``,
    so ``game`` may be the trimmed game, or the on-demand edit game itself
    where trimming would remove nothing; elsewhere a move the defender
    cannot see may reach an augmented state with no move, which fails
    ``_silent``'s assertion.  ``game.indices_of`` decodes members' codes.
    ``expand`` adds one belief's row and ``complete`` every reachable one.
    ``ua_states`` and ``uf_states`` sort the expanded part into canonical
    order, by their members' sorted codes, at each read, and ``partial``
    lists its (state, action) pairs that are undefined at some member,
    ``partial_at`` one observation state's actions of those; reading them
    never expands.

    Each belief is one object, interned in ``_beliefs`` in the order
    ``_closure`` meets it, and each observation state one object, interned
    in ``_canon``: a ``moves_in`` row's values are ``moves_out``'s keys,
    and a ``moves_out`` row's values ``moves_in``'s keys.
    """

    def __init__(self, game: EditGameStructure):
        self.game = game
        self.defender = game.profile.defender
        self.moves_in: dict[MergedA, dict[str, frozenset]] = {}
        self.moves_out: dict[frozenset, dict[EditAction, MergedA]] = {}
        self._events = sorted(self.defender)
        # each observation state's partial actions, the cut of its row
        self._cut: dict[frozenset, set[EditAction]] = {}
        self._closures: dict[int, frozenset] = {}
        # every belief met, to itself, in the order met: breadth-first on a
        # fresh mechanism, as every belief is met as some row's target
        self._beliefs: dict[MergedA, MergedA] = {}
        # an observation state to itself, and a set of hits to its belief
        self._canon: dict[frozenset, frozenset] = {}
        # fed each row as ``expand`` builds it, each observation state's with
        # its partial actions as the cut, so its ``dead`` is always the
        # attractor over the expanded rows, where unexpanded beliefs count
        # as live
        self._solver = BackwardSolver()
        self.initial: MergedA = self._closure([game.initial])

    @property
    def ua_states(self) -> tuple[MergedA, ...]:
        return tuple(sorted(self.moves_in, key=sorted))

    @property
    def uf_states(self) -> tuple[frozenset, ...]:
        return tuple(sorted(self.moves_out, key=sorted))

    @property
    def partial(self) -> frozenset[tuple[frozenset, EditAction]]:
        return frozenset((vuf, act) for vuf, acts in self._cut.items() for act in acts)

    def partial_at(self, v: frozenset) -> Collection[EditAction]:
        """``v``'s partial actions: those undefined at some member."""
        return self._cut.get(v, ())

    def _silent(self, v: int) -> list[int]:
        """The information states one move the defender cannot see leads
        ``v`` to: a system event outside the defender alphabet followed by
        its forced passthrough."""
        game = self.game
        moves = [game.def_moves[vf] for event, vf in game.expand(v).items()
                 if event not in self.defender]
        assert all(len(acts) == 1 for acts in moves), (
            "non-defender event admits only the passthrough")
        return [target for acts in moves for target in acts.values()]

    def _closure(self, hits: list[int]) -> frozenset:
        """The belief that closes ``hits`` under ``_silent``: the union of
        each hit's closure, computed only for a set of hits not met before.
        ``close`` runs only for a hit without a closure, and records one
        for every information state its search passes."""
        canon, closures = self._canon, self._closures
        if len(hits) == 1:
            v = hits[0]
            if v not in closures:
                close((v,), self._silent, closures)
            belief = closures[v]
            return self._beliefs.setdefault(belief, belief)
        key = frozenset(hits)
        belief = canon.get(key)
        if belief is None:
            close(hits, self._silent, closures)
            belief = frozenset().union(*map(closures.__getitem__, key))
            belief = canon[key] = self._beliefs.setdefault(belief, belief)
        return belief

    def expand(self, vua: MergedA) -> dict[str, frozenset]:
        """Row of ``vua``, merged on first request together with the action
        rows and partial pairs of its new observation states.  An
        observation state's actions come in its event's menu order
        (``game.menu``), which is ``EditAction.sort_key`` order."""
        row = self.moves_in.get(vua)
        if row is not None:
            return row
        game, canon = self.game, self._canon
        vua = self._beliefs.setdefault(vua, vua)
        def_moves = game.def_moves
        rows = [game.expand(v) for v in vua]
        row: dict[str, frozenset] = {}
        for event in self._events:
            vuf = frozenset(r[event] for r in rows if event in r)
            if not vuf:
                continue
            known = canon.get(vuf)
            if known is not None:  # interned with its moves_out row
                row[event] = known
                continue
            canon[vuf] = row[event] = vuf
            hits_of: dict[EditAction, list[int]] = {}
            for z in vuf:
                for act, hit in def_moves[z].items():
                    hits = hits_of.get(act)
                    if hits is None:
                        hits_of[act] = [hit]
                    else:
                        hits.append(hit)
            out: dict[EditAction, MergedA] = {}
            cut = set()
            size = len(vuf)
            for act in game.menu(event):
                hits = hits_of.get(act)
                if hits is None:
                    continue
                out[act] = self._closure(hits)
                if len(hits) < size:
                    cut.add(act)
            self.moves_out[vuf] = out
            if cut:
                self._cut[vuf] = cut
            self._solver.add_ctrl(vuf, out, cut or ())
        self.moves_in[vua] = row
        self._solver.add_unctrl(vua, row)
        return row

    def complete(self) -> "Mechanism":
        """Expand every belief reachable from the initial one: the game's
        completion walk (``expand_met``) over ``_beliefs``, since every
        belief met is the initial one or a target of an expanded row."""
        expand_met(self._beliefs, self.expand)
        return self

    def _walk(self, key: Callable[[EditAction], tuple]) -> Optional[Walk]:
        """Breadth-first walk of the strategy that plays, at each observation
        state, the ``key``-least uncut action whose target is not proven
        dead, expanding beliefs as it reaches them; None when the initial
        belief is proven dead.  Rows are read in the order ``expand`` built
        them, by sorted defender event.

        ``expand`` feeds the solver, so ``dead`` may grow during a pass.
        A node dies only on complete evidence, so every action the walk
        skips loses in the whole mechanism too.  Passes repeat, sharing
        ``ranked``, until one closes.  A pass that closes is a winning
        strategy: at each observation state of its beliefs it has an uncut
        action into them, so no row fed later kills one of them, and its
        actions are the key-least winning ones.
        """
        ranked: dict[frozenset, list[tuple[EditAction, MergedA]]] = {}
        dead = self._solver.dead
        while self.initial not in dead:
            order, index, edges, stuck = [self.initial], {self.initial: 0}, [], False
            for q, vua in enumerate(order):
                for event, vuf in self.expand(vua).items():
                    if vuf not in ranked:
                        acts, cut = self.moves_out[vuf], self._cut.get(vuf, ())
                        ranked[vuf] = [(a, acts[a]) for a in sorted(acts, key=key)
                                       if a not in cut]
                    act, target = next(
                        ((a, t) for a, t in ranked[vuf] if t not in dead), (None, None))
                    if act is None:
                        stuck = True  # vua is lost; walk on to find more such states
                        break
                    if target not in index:
                        index[target] = len(order)
                        order.append(target)
                    edges.append((q, event, act, index[target]))
            if not stuck:
                return order, edges
            # The pass met observation states whose actions all lead into
            # proven-dead beliefs, so the belief it stood in, live when the
            # pass reached it, is dead now, and the next pass avoids it.
        return None


def build_uem(tgs: TrimmedGameStructure) -> Mechanism:
    """No-guarantees merged mechanism over the surviving game, expanded on
    demand from its initial belief state."""
    return Mechanism(tgs.game)


class EditMechanism:
    """The edit mechanism refined from the no-guarantees ``source``: the
    rows of its proven-winning part, with no partial action.  Synthesis
    walks ``source``, which these rows are a view of: a row that lost no
    action is the source's own row object.  ``ua_states`` and
    ``uf_states`` sort the rows as ``Mechanism``'s do."""

    partial: frozenset = frozenset()
    ua_states = Mechanism.ua_states
    uf_states = Mechanism.uf_states

    def __init__(
        self,
        source: Mechanism,
        moves_in: dict[MergedA, dict[str, frozenset]],
        moves_out: dict[frozenset, dict[EditAction, MergedA]],
    ):
        self.source = source
        self.moves_in = moves_in
        self.moves_out = moves_out
        self.game, self.defender, self.initial = source.game, source.defender, source.initial

    def partial_at(self, v: frozenset) -> Collection[EditAction]:
        return ()


def refine_to_em(uem: Mechanism) -> Optional[EditMechanism]:
    """Drop actions undefined at some member, then restore controllability.

    A partially defined action is removed outright (playing it would let the
    intruder detect the interface at the member lacking it).  An observation
    state dies when no surviving action leads to a live belief state, and a
    belief state dies when some defender observation forces it into a dead
    observation state.  None when the initial belief state dies.  Removal is
    per action, not per reached belief state: distinct observation states
    may share a successor, and a totally defined action must not be dragged
    down by someone else's partial one.

    A completed mechanism with no partial action, where the solver proved
    nothing dead, has won whole and is its own refinement, with the same
    row dicts.  Otherwise the walk in canonical action order
    (prefer-passthrough's) expands what it needs to decide the initial
    belief state.  Over a partial expansion the refined rows keep only
    proven-winning parts: the unexpanded beliefs, read off ``_beliefs``,
    are seeded as dead, which cuts every action into them, since they have
    no row.  On a completed mechanism the solver, fed every row, has
    already proven the whole refinement.
    """
    # every belief met, the initial one included, is expanded
    if len(uem.moves_in) == len(uem._beliefs) and not uem._cut and not uem._solver.dead:
        return EditMechanism(uem, uem.moves_in, uem.moves_out)
    if uem._walk(EditAction.sort_key) is None:
        return None
    unexpanded = [v for v in uem._beliefs if v not in uem.moves_in]
    if unexpanded:
        dead = backward_dead(uem.moves_in, uem.moves_out, unexpanded, uem._cut)
    else:
        dead = uem._solver.dead
    return EditMechanism(uem, *live_part(uem.initial, uem.moves_in, uem.moves_out, dead, uem._cut))


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


class MealyEditFunction(Record):
    """Deterministic transducer from defender observations to output words.

    ``edges`` maps each defined (state, defender event) pair to its output
    word and next state; ``step`` returns None at any other defender pair,
    which downstream checks read as an availability failure.  Events outside
    the defender alphabet pass through unchanged without moving it.
    ``beliefs``, the belief state per transducer state when synthesized, is
    neither serialized nor compared.
    """

    _fields = ("alphabet", "n_states", "initial", "edges", "policy")

    def __init__(
        self,
        alphabet: frozenset[str],
        n_states: int,
        initial: int,
        edges: dict[tuple[int, str], tuple[Trace, int]],
        policy: str = "",
        beliefs: tuple = (),
    ):
        self.alphabet = alphabet
        self.n_states = n_states
        self.initial = initial
        self.edges = edges
        self.policy = policy
        self.beliefs = beliefs

    def step(self, state: int, event: str) -> Optional[tuple[Trace, int]]:
        if event not in self.alphabet:
            return ((event,), state)
        return self.edges.get((state, event))

    def check_outputs(self, observable: frozenset[str]) -> None:
        """Raise ``ModelError`` at the first edge, in edge-table order,
        whose word emits an event outside ``observable``: the observers
        read only observable events."""
        for (q, event), (word, _) in self.edges.items():
            for out in word:
                if out not in observable:
                    raise ModelError(f"transducer edge from state {q} on {event!r} emits {out!r}, "
                                     f"outside the observable alphabet "
                                     f"{{{','.join(sorted(observable))}}}")

    @classmethod
    def identity(cls, alphabet: Iterable[str]) -> "MealyEditFunction":
        alphabet = frozenset(alphabet)
        return cls(
            alphabet=alphabet,
            n_states=1,
            initial=0,
            edges={(0, e): ((e,), 0) for e in alphabet},
            policy="identity",
        )


def synthesize(em: EditMechanism, policy: str = "prefer-passthrough") -> MealyEditFunction:
    """Extract one deterministic edit function from a refined mechanism.

    Each observation state plays its policy-least winning action.  The walk
    runs over the mechanism ``em`` was refined from, expanding what the
    policy's strategy needs beyond what refinement expanded."""
    if not isinstance(em, EditMechanism):
        raise ValueError("synthesis requires a refined mechanism")
    try:
        key = POLICIES[policy]
    except KeyError:
        raise ValueError(f"unknown policy {policy!r}") from None

    walk = em.source._walk(key)
    assert walk is not None, "a refined mechanism has a winning initial belief state"
    order, edges = walk
    return MealyEditFunction(
        alphabet=em.defender,
        n_states=len(order),
        initial=0,
        edges={(q, event): (act.word(event), q2) for q, event, act, q2 in edges},
        policy=policy,
        beliefs=tuple(order),
    )


# ---------------------------------------------------------------------------
# Transducer text format: one edge per line, `state γ / ω state'`
# ---------------------------------------------------------------------------


def format_mealy(fe: MealyEditFunction) -> str:
    lines = []
    if fe.policy:
        lines.append(f"policy {fe.policy}")
    lines.append("alphabet " + " ".join(sorted(fe.alphabet)))
    lines.append(f"states {fe.n_states}")
    lines.append(f"initial {fe.initial}")
    for (q, event), (word, q2) in sorted(fe.edges.items()):
        rendered = "·".join(word) if word else "-"
        lines.append(f"{q} {event} / {rendered} {q2}")
    return "\n".join(lines) + "\n"


def parse_mealy(text: str) -> MealyEditFunction:
    """Parse the transducer format with the plant format's reader and id
    rules; every fault is a ``ParseError``, with a line where it has one."""
    alphabet: Optional[frozenset[str]] = None
    numbers: dict[str, tuple[int, int]] = {}  # the states and initial lines, (value, line)
    policy = ""
    edges: dict[tuple[int, str], tuple[Trace, int]] = {}
    edge_lines: dict[tuple[int, str], int] = {}
    declared: set[str] = set()
    for lineno, line, tokens in statements(text):
        head = tokens[0]
        if head in declared:
            raise ParseError(f"{head} declared twice", lineno)
        if head == "policy":
            if len(tokens) != 2:
                raise ParseError("policy takes exactly one name", lineno)
            declared.add("policy")
            policy = tokens[1]
            continue
        if head == "alphabet":
            declared.add("alphabet")
            ids: dict[str, int] = {}
            _declare("event", tokens[1:], lineno, ids)
            alphabet = frozenset(ids)
            continue
        if head in ("states", "initial"):
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise ParseError(f"{head} takes exactly one nonnegative integer", lineno)
            declared.add(head)
            numbers[head] = (int(tokens[1]), lineno)
            continue
        if (len(tokens) != 5 or tokens[2] != "/"
                or not tokens[0].isdecimal() or not tokens[4].isdecimal()):
            raise ParseError(f"malformed transducer edge {line!r}", lineno)
        q, event, rendered, q2 = int(tokens[0]), tokens[1], tokens[3], int(tokens[4])
        word: Trace = () if rendered == "-" else tuple(
            _check_symbol("event", e, lineno) for e in rendered.split("·"))
        if (q, event) in edges:
            raise ParseError(f"duplicate edge for state {q} on {event!r}", lineno)
        edges[(q, event)] = (word, q2)
        edge_lines[(q, event)] = lineno
    if alphabet is None:
        raise ParseError("transducer text lacks an alphabet line")
    if "states" not in numbers:
        raise ParseError("transducer text lacks a states line")
    n_states = numbers["states"][0]
    initial, initial_line = numbers.get("initial", (0, None))
    for (q, event), lineno in edge_lines.items():
        if event not in alphabet:
            raise ParseError(f"transducer edge from state {q} on {event!r} outside the alphabet",
                             lineno)
    # the initial state, then each edge's source, then each edge's target
    named = [(initial, initial_line)]
    named += [(q, lineno) for (q, _), lineno in edge_lines.items()]
    named += [(q2, edge_lines[edge]) for edge, (_, q2) in edges.items()]
    for q, lineno in named:
        if not 0 <= q < n_states:
            raise ParseError(f"transducer state {q} outside [0, {n_states})", lineno)
    return MealyEditFunction(
        alphabet=alphabet,
        n_states=n_states,
        initial=initial,
        edges=edges,
        policy=policy,
    )
