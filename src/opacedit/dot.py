"""Graphviz exports for observers, game structures, and mechanisms.

Output is fully deterministic: nodes and edges are emitted in the canonical
orders of the underlying structures, and belief members in code order, so
repeated runs produce identical bytes.  Each exporter writes its lines into
the text stream it is given as it renders them, so no export holds its text
in memory.  A game state is labeled by its code: ``EditGameStructure.indices``
names its estimates, whose labels are rendered once per observer estimate,
in tables that live only for the exporter's call.
"""
from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Mapping, Optional, TextIO

from .automata import FiniteAutomaton, fmt_state_set
from .game import EditAction, EditGameStructure
from .mechanism import Mechanism, MealyEditFunction
from .observers import ObserverAutomaton
from .trimming import TrimmedGameStructure


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _quote(s: str) -> str:
    return '"' + _escape(s) + '"'


def _quote_lines(lines) -> str:
    # multi-line DOT label: members joined by literal \n escapes
    return '"' + "\\n".join(map(_escape, lines)) + '"'


def _state_labels(game: EditGameStructure, aut: FiniteAutomaton) -> Callable[[int], str]:
    """The label of a game state by its code, ``(sys,intr,dfn)`` or
    ``[(sys,intr,dfn),event]``, from one table of estimate labels per
    observer."""
    o_sys, o_intr, o_def = ([fmt_state_set(aut, x) for x in obs.states]
                            for obs in game.observers)
    indices = game.indices

    def label(code: int) -> str:
        s, i, d, pending = indices(code)
        if pending is None:
            return f"({o_sys[s]},{o_intr[i]},{o_def[d]})"
        return f"[({o_sys[s]},{o_intr[i]},{o_def[d]}),{pending}]"

    return label


def _edge_labels() -> Callable[[EditAction, str], str]:
    """Quoted edge labels, memoized for one exporter's call."""
    return cache(lambda act, pending: _quote(act.label(pending)))


def observer_dot(
    obs: ObserverAutomaton,
    aut: FiniteAutomaton,
    out: TextIO,
    name: str = "observer",
    include_self_loops: bool = True,
) -> None:
    """Observer states as ``{1,3}``; solely secret states double-circled red."""
    write = out.write
    write(f"digraph {name} {{\n  rankdir=LR;\n")
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
        write(f"  n{i} [{', '.join(attrs)}];\n")
    events = [e for e in sorted(obs.alphabet) if include_self_loops or e in obs.reactive]
    for s, i in ids.items():
        for event in events:
            target = obs.step(s, event)
            if target is not None:
                write(f"  n{i} -> n{ids[target]} [label={_quote(event)}];\n")
    write("}\n")


def game_dot(
    game: EditGameStructure,
    aut: FiniteAutomaton,
    out: TextIO,
    name: str = "game",
    disabled: Optional[Mapping[int, Iterable[EditAction]]] = None,
) -> None:
    """Information states as ellipses, augmented states as boxes; utility-0
    states filled red; the ``disabled`` actions, if given, as dashed gray edges."""
    write = out.write
    write(f"digraph {name} {{\n  rankdir=LR;\n")
    label, edge_label = _state_labels(game, aut), _edge_labels()
    a_ids = {v: i for i, v in enumerate(game.a_states)}
    f_ids = {v: i for i, v in enumerate(game.f_states)}
    utility = game.utility

    for v, i in a_ids.items():
        if utility[v] == 0:
            style = ", style=filled, fillcolor=red"
        else:
            style = ", style=bold" if v == game.initial else ""
        write(f"  a{i} [label={_quote(label(v))}, shape=ellipse{style}];\n")
    for vf, j in f_ids.items():
        style = ", style=filled, fillcolor=red" if utility[vf] == 0 else ""
        write(f"  f{j} [label={_quote(label(vf))}, shape=box{style}];\n")
    for v, i in a_ids.items():
        row = game.sys_moves[v]
        for event in sorted(row):
            write(f"  a{i} -> f{f_ids[row[event]]} [label={_quote(event)}];\n")
    for vf, j in f_ids.items():
        pending = game.indices(vf)[3]
        for act, target in game.def_moves[vf].items():
            write(f"  f{j} -> a{a_ids[target]} [label={edge_label(act, pending)}];\n")
    if disabled and any(disabled.get(vf) for vf in f_ids):
        write("  pruned [label=\"pruned\", shape=plaintext, fontcolor=gray];\n")
        for vf, j in f_ids.items():
            pending = game.indices(vf)[3]
            for act in disabled.get(vf, ()):
                write(f"  f{j} -> pruned [label={edge_label(act, pending)}, "
                      "style=dashed, color=gray];\n")
    write("}\n")


def trimmed_dot(
    tgs: TrimmedGameStructure,
    aut: FiniteAutomaton,
    out: TextIO,
    name: str = "trimmed",
    include_disabled: bool = False,
) -> None:
    game_dot(tgs.game, aut, out, name=name,
             disabled=tgs.disabled if include_disabled else None)


def mechanism_dot(
    mech: Mechanism, aut: FiniteAutomaton, out: TextIO, name: str = "mechanism",
) -> None:
    """Merged states are listed one member per line, matching their origin;
    partial actions are dashed."""
    write = out.write
    write(f"digraph {name} {{\n  rankdir=LR;\n  node [shape=box];\n")
    label, edge_label = _state_labels(mech.game, aut), _edge_labels()
    a_ids = {v: i for i, v in enumerate(mech.ua_states)}
    f_ids = {v: i for i, v in enumerate(mech.uf_states)}

    for v, i in a_ids.items():
        style = ", style=bold" if v == mech.initial else ""
        write(f"  m{i} [label={_quote_lines(map(label, sorted(v)))}{style}];\n")
    for vf, j in f_ids.items():
        members = _quote_lines(map(label, sorted(vf)))
        write(f"  o{j} [label={members}, shape=box, style=rounded];\n")
    for v, i in a_ids.items():
        row = mech.moves_in[v]
        for event in sorted(row):
            write(f"  m{i} -> o{f_ids[row[event]]} [label={_quote(event)}];\n")
    for vf, j in f_ids.items():
        cut, pending = mech.partial_at(vf), mech.game.indices(next(iter(vf)))[3]
        for act, target in mech.moves_out[vf].items():
            style = ", style=dashed" if cut and act in cut else ""
            write(f"  o{j} -> m{a_ids[target]} [label={edge_label(act, pending)}{style}];\n")
    write("}\n")


def mealy_dot(fe: MealyEditFunction, out: TextIO, name: str = "editor") -> None:
    write = out.write
    write(f"digraph {name} {{\n  rankdir=LR;\n  node [shape=circle];\n")
    for q in range(fe.n_states):
        style = ", style=bold" if q == fe.initial else ""
        write(f"  q{q} [label={_quote(str(q))}{style}];\n")
    for (q, event) in sorted(fe.output):
        word = fe.output[(q, event)]
        rendered = "·".join(word) if word else "ε"
        write(f"  q{q} -> q{fe.next_state[(q, event)]} "
              f"[label={_quote(event + ' / ' + rendered)}];\n")
    write("}\n")
