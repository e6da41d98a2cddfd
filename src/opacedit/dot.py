"""Graphviz exports for observers, game structures, and mechanisms.

Output is fully deterministic: nodes and edges are emitted in the canonical
orders of the underlying structures, so repeated runs produce identical
bytes.
"""
from __future__ import annotations

from typing import Optional

from .automata import FiniteAutomaton, fmt_state_set
from .game import EditGameStructure, aug_key, info_key
from .mechanism import Mechanism, MealyEditFunction
from .observers import ObserverAutomaton
from .trimming import TrimmedGameStructure


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _quote_lines(lines) -> str:
    # multi-line DOT label: members joined by literal \n escapes
    return '"' + "\\n".join(line.replace('"', '\\"') for line in lines) + '"'


def _info_label(aut: FiniteAutomaton, v) -> str:
    return "(%s,%s,%s)" % (
        fmt_state_set(aut, v.sys), fmt_state_set(aut, v.intr), fmt_state_set(aut, v.dfn)
    )


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
            if event in obs.reactive:
                target = obs.delta.get((s, event))
                if target is None:
                    continue
            else:
                if not include_self_loops:
                    continue
                target = s
            lines.append(f"  {ids[s]} -> {ids[target]} [label={_quote(event)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def game_dot(
    game: EditGameStructure,
    aut: FiniteAutomaton,
    name: str = "game",
    trimmed: Optional[TrimmedGameStructure] = None,
    include_disabled: bool = False,
) -> str:
    """Information states as ellipses, augmented states as boxes; utility-0
    states filled red; optionally the disabled actions as dashed gray edges."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    a_ids = {v: f"a{i}" for i, v in enumerate(game.a_states)}
    f_ids = {v: f"f{i}" for i, v in enumerate(game.f_states)}

    for v in game.a_states:
        attrs = [f"label={_quote(_info_label(aut, v))}", "shape=ellipse"]
        if game.utility[v] == 0:
            attrs.append("style=filled")
            attrs.append("fillcolor=red")
        elif v == game.initial:
            attrs.append("style=bold")
        lines.append(f"  {a_ids[v]} [{', '.join(attrs)}];")
    for vf in game.f_states:
        label = "[" + _info_label(aut, vf.info) + "," + vf.pending + "]"
        attrs = [f"label={_quote(label)}", "shape=box"]
        if game.utility[vf] == 0:
            attrs.append("style=filled")
            attrs.append("fillcolor=red")
        lines.append(f"  {f_ids[vf]} [{', '.join(attrs)}];")
    for v in game.a_states:
        for event in sorted(game.sys_moves[v]):
            vf = game.sys_moves[v][event]
            lines.append(f"  {a_ids[v]} -> {f_ids[vf]} [label={_quote(event)}];")
    disabled_edges = []
    for vf in game.f_states:
        for act in game.actions_at(vf):
            target = game.def_moves[vf][act]
            lines.append(
                f"  {f_ids[vf]} -> {a_ids[target]} [label={_quote(act.label(vf.pending))}];"
            )
        if include_disabled and trimmed is not None:
            for act in trimmed.disabled.get(vf, ()):
                disabled_edges.append(
                    f"  {f_ids[vf]} -> pruned [label={_quote(act.label(vf.pending))}, "
                    "style=dashed, color=gray];"
                )
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
    return game_dot(tgs.game, aut, name=name, trimmed=tgs, include_disabled=include_disabled)


def mechanism_dot(mech: Mechanism, aut: FiniteAutomaton, name: str = "mechanism") -> str:
    """Merged states are listed one member per line, matching their origin."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    a_ids = {v: f"m{i}" for i, v in enumerate(mech.ua_states)}
    f_ids = {v: f"o{i}" for i, v in enumerate(mech.uf_states)}

    for v in mech.ua_states:
        label = _quote_lines(_info_label(aut, m) for m in sorted(v, key=info_key))
        style = ", style=bold" if v == mech.initial else ""
        lines.append(f"  {a_ids[v]} [label={label}{style}];")
    for vf in mech.uf_states:
        label = _quote_lines(
            "[" + _info_label(aut, m.info) + "," + m.pending + "]"
            for m in sorted(vf.members, key=aug_key)
        )
        lines.append(f"  {f_ids[vf]} [label={label}, shape=box, style=rounded];")
    for v in mech.ua_states:
        for event in sorted(mech.moves_in[v]):
            vf = mech.moves_in[v][event]
            lines.append(f"  {a_ids[v]} -> {f_ids[vf]} [label={_quote(event)}];")
    for vf in mech.uf_states:
        for act in mech.actions_at(vf):
            target = mech.moves_out[vf][act]
            attrs = f"label={_quote(act.label(vf.observed))}"
            if (vf, act) in mech.partial:
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
