"""Graphviz exports for observers, game structures, and mechanisms.

Output is fully deterministic: nodes come out in the canonical orders of
the underlying structures, belief members in code order, and each node's
edges in the order its row was built (by sorted event, or by
``EditAction.sort_key``), so repeated runs produce identical bytes.  Each
exporter yields its lines into ``_stream``, which writes them into the
text stream it is given joined in blocks of at most ``_BLOCK`` lines, so
no export holds its text in memory.
A game state is labeled by its code: ``EditGameStructure.indices_of``
decodes a run of codes in one pass into the indices of their estimates,
whose labels are escaped once per observer estimate, in tables that live
only for the exporter's call.  Each event is quoted once per call, and
each call quotes every edge label of each event's menu (``game.menu``) once,
into one plain dict; ``mechanism_dot`` labels each belief member once and
sorts each state's members once, for its place and for its label.
"""
from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, Optional, TextIO

from .automata import FiniteAutomaton, fmt_state_set
from .game import EditAction, EditGameStructure
from .mechanism import Mechanism, MealyEditFunction
from .observers import ObserverAutomaton
from .trimming import TrimmedGameStructure

# lines joined into one write; a mechanism's belief lines run to kilobytes,
# so a block stays small next to what the export writes
_BLOCK = 64


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _quote(s: str) -> str:
    return '"' + _escape(s) + '"'


def _stream(out: TextIO, lines: Iterable[str]) -> None:
    """Write ``lines`` into ``out``, at most ``_BLOCK`` lines per write."""
    lines = iter(lines)
    while block := list(islice(lines, _BLOCK)):
        out.write("".join(block))


def _state_labels(game: EditGameStructure, aut: FiniteAutomaton,
                  ) -> Callable[[Iterable[int]], Iterator[tuple[str, Optional[str]]]]:
    """The escaped label, ``(sys,intr,dfn)`` or ``[(sys,intr,dfn),event]``,
    and the pending event, None for an information state, of each of a run
    of game-state codes, from one table of escaped estimate labels per
    observer."""
    o_sys, o_intr, o_def = ([_escape(fmt_state_set(aut, x)) for x in obs.states]
                            for obs in game.observers)
    events = {e: _escape(e) for e in game.profile.observable}

    def labels(codes: Iterable[int]) -> Iterator[tuple[str, Optional[str]]]:
        for s, i, d, pending in game.indices_of(codes):
            if pending is None:
                yield f"({o_sys[s]},{o_intr[i]},{o_def[d]})", None
            else:
                yield f"[({o_sys[s]},{o_intr[i]},{o_def[d]}),{events[pending]}]", pending

    return labels


def _edge_labels(game: EditGameStructure) -> dict[str, dict[EditAction, str]]:
    """Quoted edge labels by pending event, each event's by action over the
    event's menu."""
    return {e: {act: _quote(act.label(e)) for act in game.menu(e)}
            for e in game.profile.observable}


def observer_dot(
    obs: ObserverAutomaton,
    aut: FiniteAutomaton,
    out: TextIO,
    name: str = "observer",
    include_self_loops: bool = True,
) -> None:
    """Observer states as ``{1,3}``; solely secret states double-circled red."""
    _stream(out, _observer_lines(obs, aut, name, include_self_loops))


def _observer_lines(obs: ObserverAutomaton, aut: FiniteAutomaton, name: str,
                    include_self_loops: bool) -> Iterator[str]:
    yield f"digraph {name} {{\n  rankdir=LR;\n"
    ids = {s: i for i, s in enumerate(obs.states)}
    for s, i in ids.items():
        attrs = [f"label={_quote(fmt_state_set(aut, s))}"]
        if aut.secret and s <= aut.secret:
            attrs.append("shape=doublecircle")
            attrs.append("color=red")
        else:
            attrs.append("shape=circle")
        if s == obs.initial:
            attrs.append("style=bold")
        yield f"  n{i} [{', '.join(attrs)}];\n"
    events = [(e, _quote(e)) for e in sorted(obs.alphabet)
              if include_self_loops or e in obs.reactive]
    for s, i in ids.items():
        for event, quoted in events:
            target = obs.step(s, event)
            if target is not None:
                yield f"  n{i} -> n{ids[target]} [label={quoted}];\n"
    yield "}\n"


def game_dot(
    game: EditGameStructure,
    aut: FiniteAutomaton,
    out: TextIO,
    name: str = "game",
    disabled: Optional[Mapping[int, Iterable[EditAction]]] = None,
) -> None:
    """Information states as ellipses, augmented states as boxes; utility-0
    states filled red; the ``disabled`` actions, if given, as dashed gray edges."""
    _stream(out, _game_lines(game, aut, name, disabled))


def _game_lines(game: EditGameStructure, aut: FiniteAutomaton, name: str,
                disabled: Optional[Mapping[int, Iterable[EditAction]]]) -> Iterator[str]:
    yield f"digraph {name} {{\n  rankdir=LR;\n"
    labels, edge_labels = _state_labels(game, aut), _edge_labels(game)
    a_states, f_states, utility = game.a_states, game.f_states, game.utility
    a_ids = {v: i for i, v in enumerate(a_states)}
    f_ids = {v: j for j, v in enumerate(f_states)}

    for i, (v, (label, _)) in enumerate(zip(a_states, labels(a_states))):
        if utility(v) == 0:
            style = ", style=filled, fillcolor=red"
        else:
            style = ", style=bold" if v == game.initial else ""
        yield f'  a{i} [label="{label}", shape=ellipse{style}];\n'
    pending = []  # each augmented state's, for its edges
    for j, (vf, (label, event)) in enumerate(zip(f_states, labels(f_states))):
        pending.append(event)
        style = ", style=filled, fillcolor=red" if utility(vf) == 0 else ""
        yield f'  f{j} [label="{label}", shape=box{style}];\n'
    events = {e: _quote(e) for e in game.profile.observable}
    for i, v in enumerate(a_states):
        for event, vf in game.sys_moves[v].items():
            yield f"  a{i} -> f{f_ids[vf]} [label={events[event]}];\n"
    for j, vf in enumerate(f_states):
        quoted = edge_labels[pending[j]]
        for act, target in game.def_moves[vf].items():
            yield f"  f{j} -> a{a_ids[target]} [label={quoted[act]}];\n"
    if disabled and any(disabled.get(vf) for vf in f_states):
        yield "  pruned [label=\"pruned\", shape=plaintext, fontcolor=gray];\n"
        for j, vf in enumerate(f_states):
            quoted = edge_labels[pending[j]]
            for act in disabled.get(vf, ()):
                yield f"  f{j} -> pruned [label={quoted[act]}, style=dashed, color=gray];\n"
    yield "}\n"


def trimmed_dot(tgs: TrimmedGameStructure, aut: FiniteAutomaton, out: TextIO,
                include_disabled: bool = False) -> None:
    game_dot(tgs.game, aut, out, name="trimmed",
             disabled=tgs.disabled if include_disabled else None)


def mechanism_dot(
    mech: Mechanism, aut: FiniteAutomaton, out: TextIO, name: str = "mechanism",
) -> None:
    """Merged states are listed one member per line, matching their origin;
    partial actions are dashed."""
    _stream(out, _mechanism_lines(mech, aut, name))


def _mechanism_lines(mech: Mechanism, aut: FiniteAutomaton, name: str) -> Iterator[str]:
    yield f"digraph {name} {{\n  rankdir=LR;\n  node [shape=box];\n"
    game = mech.game
    # each state's members sorted once, for the canonical order
    # (``ua_states``, ``uf_states``) and for its label
    a_members = {v: sorted(v) for v in mech.moves_in}
    f_members = {vf: sorted(vf) for vf in mech.moves_out}
    ua_states = sorted(a_members, key=a_members.__getitem__)
    uf_states = sorted(f_members, key=f_members.__getitem__)
    labels, edge_labels = _state_labels(game, aut), _edge_labels(game)
    # each member's label, by code, so a label shared by beliefs is built once
    codes = frozenset().union(*ua_states, *uf_states)
    member = {code: label for code, (label, _) in zip(codes, labels(codes))}.__getitem__
    sep = "\\n"  # members one per line, joined by literal \n escapes
    a_ids = {v: i for i, v in enumerate(ua_states)}
    f_ids = {v: j for j, v in enumerate(uf_states)}
    for i, v in enumerate(ua_states):
        style = ", style=bold" if v == mech.initial else ""
        yield f'  m{i} [label="{sep.join(map(member, a_members[v]))}"{style}];\n'
    for j, vf in enumerate(uf_states):
        yield (f'  o{j} [label="{sep.join(map(member, f_members[vf]))}", '
               'shape=box, style=rounded];\n')
    events = {e: _quote(e) for e in mech.defender}
    for i, v in enumerate(ua_states):
        for event, vf in mech.moves_in[v].items():
            yield f"  m{i} -> o{f_ids[vf]} [label={events[event]}];\n"
    # the observed event of each observation state, shared by its members
    observed = [pending for *_, pending in game.indices_of(next(iter(vf)) for vf in uf_states)]
    for j, vf in enumerate(uf_states):
        cut, quoted = mech.partial_at(vf), edge_labels[observed[j]]
        for act, target in mech.moves_out[vf].items():
            style = ", style=dashed" if cut and act in cut else ""
            yield f"  o{j} -> m{a_ids[target]} [label={quoted[act]}{style}];\n"
    yield "}\n"


def mealy_dot(fe: MealyEditFunction, out: TextIO) -> None:
    _stream(out, _mealy_lines(fe))


def _mealy_lines(fe: MealyEditFunction) -> Iterator[str]:
    yield "digraph editor {\n  rankdir=LR;\n  node [shape=circle];\n"
    for q in range(fe.n_states):
        style = ", style=bold" if q == fe.initial else ""
        yield f"  q{q} [label={_quote(str(q))}{style}];\n"
    for (q, event), (word, q2) in sorted(fe.edges.items()):
        rendered = "·".join(word) if word else "ε"
        yield f"  q{q} -> q{q2} [label={_quote(event + ' / ' + rendered)}];\n"
    yield "}\n"
