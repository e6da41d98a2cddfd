"""Graphviz exports for observers, game structures, and mechanisms.

Output is fully deterministic: nodes and edges are emitted in the canonical
orders of the underlying structures, and belief members in code order, so
repeated runs produce identical bytes.  States are labeled through their
game's ``decode``.  Each exporter renders a label once per distinct object,
in memos that live only for its call.
"""
from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Mapping, Optional, Union

from .automata import FiniteAutomaton, fmt_state_set
from .game import AugmentedState, EditAction, EditGameStructure, InfoState
from .mechanism import Mechanism, MealyEditFunction
from .observers import ObserverAutomaton
from .trimming import TrimmedGameStructure


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _quote_lines(lines) -> str:
    # multi-line DOT label: members joined by literal \n escapes
    return '"' + "\\n".join(line.replace('"', '\\"') for line in lines) + '"'


def _label_memos(
    aut: FiniteAutomaton, game: EditGameStructure,
) -> tuple[Callable[[Union[InfoState, AugmentedState]], str], Callable[[int], str],
           Callable[[EditAction, str], str]]:
    """Labels of decoded states, ``(sys,intr,dfn)`` or
    ``[(sys,intr,dfn),event]``; the same by code through ``game.decode``,
    memoized; and quoted edge labels, memoized."""
    state_set = cache(lambda s: fmt_state_set(aut, s))

    @cache
    def info_label(v: InfoState) -> str:
        return "(%s,%s,%s)" % (state_set(v.sys), state_set(v.intr), state_set(v.dfn))

    def label(state: Union[InfoState, AugmentedState]) -> str:
        if isinstance(state, AugmentedState):
            return "[%s,%s]" % (info_label(state.info), state.pending)
        return info_label(state)

    @cache
    def edge_label(act: EditAction, pending: str) -> str:
        return _quote(act.label(pending))

    return label, cache(lambda code: label(game.decode(code))), edge_label


def observer_dot(
    obs: ObserverAutomaton,
    aut: FiniteAutomaton,
    name: str = "observer",
    include_self_loops: bool = True,
) -> str:
    """Observer states as ``{1,3}``; solely secret states double-circled red."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    ids = {s: f"n{i}" for i, s in enumerate(obs.states)}
    for s in obs.states:
        attrs = [f"label={_quote(fmt_state_set(aut, s))}"]
        if aut.secret and s <= aut.secret:
            attrs.append("shape=doublecircle")
            attrs.append("color=red")
        else:
            attrs.append("shape=circle")
        if s == obs.initial:
            attrs.append("style=bold")
        lines.append(f"  {ids[s]} [{', '.join(attrs)}];")
    for s in obs.states:
        for event in sorted(obs.alphabet):
            if not include_self_loops and event not in obs.reactive:
                continue
            target = obs.step(s, event)
            if target is None:
                continue
            lines.append(f"  {ids[s]} -> {ids[target]} [label={_quote(event)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def game_dot(
    game: EditGameStructure,
    aut: FiniteAutomaton,
    name: str = "game",
    disabled: Optional[Mapping[int, Iterable[EditAction]]] = None,
) -> str:
    """Information states as ellipses, augmented states as boxes; utility-0
    states filled red; the ``disabled`` actions, if given, as dashed gray edges."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    a_ids = {v: f"a{i}" for i, v in enumerate(game.a_states)}
    f_ids = {v: f"f{i}" for i, v in enumerate(game.f_states)}
    label, _, edge_label = _label_memos(aut, game)

    for v in game.a_states:
        attrs = [f"label={_quote(label(game.decode(v)))}", "shape=ellipse"]
        if game.utility[v] == 0:
            attrs.append("style=filled")
            attrs.append("fillcolor=red")
        elif v == game.initial:
            attrs.append("style=bold")
        lines.append(f"  {a_ids[v]} [{', '.join(attrs)}];")
    def_edges, disabled_edges = [], []
    for vf in game.f_states:
        state = game.decode(vf)
        attrs = [f"label={_quote(label(state))}", "shape=box"]
        if game.utility[vf] == 0:
            attrs.append("style=filled")
            attrs.append("fillcolor=red")
        lines.append(f"  {f_ids[vf]} [{', '.join(attrs)}];")
        for act in game.actions_at(vf):
            target = game.def_moves[vf][act]
            def_edges.append(
                f"  {f_ids[vf]} -> {a_ids[target]} [label={edge_label(act, state.pending)}];"
            )
        if disabled:
            for act in disabled.get(vf, ()):
                disabled_edges.append(
                    f"  {f_ids[vf]} -> pruned [label={edge_label(act, state.pending)}, "
                    "style=dashed, color=gray];"
                )
    for v in game.a_states:
        for event in sorted(game.sys_moves[v]):
            vf = game.sys_moves[v][event]
            lines.append(f"  {a_ids[v]} -> {f_ids[vf]} [label={_quote(event)}];")
    lines.extend(def_edges)
    if disabled_edges:
        lines.append("  pruned [label=\"pruned\", shape=plaintext, fontcolor=gray];")
        lines.extend(disabled_edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def trimmed_dot(
    tgs: TrimmedGameStructure,
    aut: FiniteAutomaton,
    name: str = "trimmed",
    include_disabled: bool = False,
) -> str:
    return game_dot(tgs.game, aut, name=name,
                    disabled=tgs.disabled if include_disabled else None)


def mechanism_dot(mech: Mechanism, aut: FiniteAutomaton, name: str = "mechanism") -> str:
    """Merged states are listed one member per line, matching their origin."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    a_ids = {v: f"m{i}" for i, v in enumerate(mech.ua_states)}
    f_ids = {v: f"o{i}" for i, v in enumerate(mech.uf_states)}
    _, label, edge_label = _label_memos(aut, mech.game)
    partial = mech.partial

    for v in mech.ua_states:
        style = ", style=bold" if v == mech.initial else ""
        lines.append(f"  {a_ids[v]} [label={_quote_lines(map(label, sorted(v)))}{style}];")
    for vf in mech.uf_states:
        members = _quote_lines(map(label, sorted(vf.members)))
        lines.append(f"  {f_ids[vf]} [label={members}, shape=box, style=rounded];")
    for v in mech.ua_states:
        for event in sorted(mech.moves_in[v]):
            vf = mech.moves_in[v][event]
            lines.append(f"  {a_ids[v]} -> {f_ids[vf]} [label={_quote(event)}];")
    for vf in mech.uf_states:
        for act in mech.actions_at(vf):
            target = mech.moves_out[vf][act]
            attrs = f"label={edge_label(act, vf.observed)}"
            if (vf, act) in partial:
                attrs += ", style=dashed"
            lines.append(f"  {f_ids[vf]} -> {a_ids[target]} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def mealy_dot(fe: MealyEditFunction, name: str = "editor") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];"]
    for q in range(fe.n_states):
        style = ", style=bold" if q == fe.initial else ""
        lines.append(f"  q{q} [label={_quote(str(q))}{style}];")
    for (q, event) in sorted(fe.output):
        word = fe.output[(q, event)]
        rendered = "·".join(word) if word else "ε"
        lines.append(
            f"  q{q} -> q{fe.next_state[(q, event)]} [label={_quote(event + ' / ' + rendered)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
