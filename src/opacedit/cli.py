"""Command-line front end for the verification and synthesis pipeline.

Exit code contract: 0 success (or opaque), 1 a checked property fails (or
not opaque), 2 input error (a plant too large for memory included), 3 the
configuration is not enforceable.
"""
from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
from pathlib import Path
from typing import Callable, Optional, TextIO

from .automata import (
    FiniteAutomaton,
    ModelError,
    ObservationProfile,
    fmt_state_set,
    format_model,
    parse_model,
    project,
)
from .dot import game_dot, mealy_dot, mechanism_dot, observer_dot, trimmed_dot
from .game import OPS_ALL, build_edit_game
from .harness import (
    EditUndefinedError,
    SimulationError,
    certifying_depth,
    exact_ic_check,
    random_instance,
    simulate,
)
from .mechanism import (POLICIES, MealyEditFunction, build_uem, format_mealy, parse_mealy,
                        refine_to_em, synthesize)
from .observers import standard_observers
from .opacity import default_depth, evaluate_editor, verify_cso
from .trimming import trim_game

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_UNENFORCEABLE = 3

OBSERVER_NAMES = ("system", "intruder", "defender")


def _read(name: str) -> str:
    """The text of the file ``name``, the plant or the transducer."""
    path = Path(name)
    try:
        return path.read_text()
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc}") from exc


def _max_insert(args) -> int:
    if args.max_insert < 0:
        raise ModelError("max insertion length must be nonnegative")
    return args.max_insert


def _edit_flags(args) -> tuple[frozenset[str], int]:
    """The checked ``--ops`` and ``--max-insert``; --ops defaults to every
    operation, without insert when the bound is 0."""
    if args.ops is None:
        ops = OPS_ALL if args.max_insert >= 1 else OPS_ALL - {"insert"}
    else:
        ops = frozenset(args.ops.split(","))
    if not ops <= OPS_ALL:
        raise ModelError(f"unknown edit operations: {sorted(ops - OPS_ALL)}")
    k = _max_insert(args)
    if "insert" in ops and k < 1:
        raise ModelError("insertion requires a max insertion length of at least 1")
    return ops, k


def _require_dot(args, what: str) -> None:
    """Report a bad edit flag first, then that ``what`` needs --dot."""
    _edit_flags(args)
    raise ModelError(f"{what} requires --dot DIR")


def _game(args):
    """The plant and its edit game, expanded on demand.  The edit flags are
    checked before the plant is read."""
    ops, k = _edit_flags(args)
    aut, profile = parse_model(_read(args.input))
    return aut, build_edit_game(aut, profile, k=k, ops=ops)


def _load_transducer(path: str, profile: ObservationProfile) -> MealyEditFunction:
    """The transducer at ``path``, over the defender alphabet, emitting
    only observable events, the ones both observers read."""
    fe = parse_mealy(_read(path))
    if fe.alphabet != profile.defender:
        raise ModelError(
            f"transducer alphabet {{{','.join(sorted(fe.alphabet))}}} differs from "
            f"the defender alphabet {{{','.join(sorted(profile.defender))}}}"
        )
    fe.check_outputs(profile.observable)
    return fe


def _write_dot(dot_dir: str, name: str, render: Callable[[TextIO], None]) -> None:
    """Stream ``render``'s output into ``DIR/.<name>.dot.<pid>``, and move
    that file onto ``DIR/<name>.dot`` once the render returns.  A render
    that raises removes its file and any ``DIR/<name>.dot`` of an earlier
    run, so ``DIR/<name>.dot`` is never a cut-off or stale render, and a
    run killed midway leaves no cut-off one."""
    path = Path(dot_dir)
    path.mkdir(parents=True, exist_ok=True)
    target, partial = path / f"{name}.dot", path / f".{name}.dot.{os.getpid()}"
    try:
        with partial.open("w") as out:
            render(out)
    except BaseException:
        for stale in (partial, target):
            stale.unlink(missing_ok=True)
        raise
    os.replace(partial, target)


def _copy_dot(dot_dir: str, source: str, name: str) -> None:
    """``DIR/<name>.dot`` as a copy of ``DIR/<source>.dot``, written before,
    whose first line, the ``digraph`` line, names the graph ``name``.  The
    rest is copied byte for byte."""

    def copy(out: TextIO) -> None:
        with (Path(dot_dir) / f"{source}.dot").open("rb") as src:
            src.readline()
            out.buffer.write(f"digraph {name} {{\n".encode())
            shutil.copyfileobj(src, out.buffer)

    _write_dot(dot_dir, name, copy)


def _write_refined_dot(dot_dir: str, em, uem, aut: FiniteAutomaton) -> None:
    """``mechanism.dot`` for ``em``.  When the completed ``uem`` has no
    partial pair and refinement kept every belief, the refined mechanism
    has ``uem``'s rows, so ``mechanism_raw.dot``, written before, is copied
    under the graph name ``mechanism`` instead of rendered again."""
    if uem.partial or len(em.moves_in) != len(uem.moves_in):
        _write_dot(dot_dir, "mechanism", lambda out: mechanism_dot(em, aut, out))
    else:
        _copy_dot(dot_dir, "mechanism_raw", "mechanism")


def _render_trace(trace) -> str:
    return " ".join(trace) if trace else "ε"


def cmd_verify(args) -> int:
    aut, profile = parse_model(_read(args.input))
    verdict = verify_cso(aut, profile)
    if verdict.opaque:
        print("OPAQUE")
        return EXIT_OK
    print("NOT OPAQUE")
    print(f"witness: {_render_trace(verdict.witness)}")
    print(f"intruder view: {_render_trace(project(verdict.witness, profile.intruder))}")
    return EXIT_PROPERTY


def cmd_observers(args) -> int:
    if args.no_self_loops and not args.dot:
        raise ModelError("--no-self-loops requires --dot DIR")
    aut, profile = parse_model(_read(args.input))
    for name, obs in zip(OBSERVER_NAMES, standard_observers(aut, profile)):
        print(f"{name} observer: {len(obs.states)} states, "
              f"initial {fmt_state_set(aut, obs.initial)}")
        if args.dot:
            _write_dot(args.dot, f"observer_{name}",
                       lambda out: observer_dot(obs, aut, out, name=f"observer_{name}",
                                                include_self_loops=not args.no_self_loops))
    return EXIT_OK


def cmd_game(args) -> int:
    aut, game = _game(args)
    game.complete()
    zero = sum(1 for moves in (game.sys_moves, game.def_moves)
               for v in moves if game.utility(v) == 0)
    print(f"game: {len(game.sys_moves)} information states, "
          f"{len(game.def_moves)} augmented states, {zero} utility-0")
    if args.dot:
        _write_dot(args.dot, "game", lambda out: game_dot(game, aut, out))
    return EXIT_OK


def cmd_trim(args) -> int:
    if args.show_disabled and not args.dot:
        _require_dot(args, "--show-disabled")
    aut, game = _game(args)
    tgs = trim_game(game.complete())
    if tgs is None:
        print("not enforceable: initial state pruned")
        return EXIT_UNENFORCEABLE
    ndis = sum(len(d) for d in tgs.disabled.values())
    print(f"trimmed game: {len(tgs.game.sys_moves)} information states, "
          f"{len(tgs.game.def_moves)} augmented states, "
          f"{len(tgs.removed_a) + len(tgs.removed_f)} removed, {ndis} actions disabled")
    if args.dot:
        _write_dot(args.dot, "trimmed",
                   lambda out: trimmed_dot(tgs, aut, out, include_disabled=args.show_disabled))
    return EXIT_OK


def cmd_mechanism(args) -> int:
    aut, game = _game(args)
    tgs = trim_game(game)
    if tgs is None:
        print("not enforceable: initial state pruned")
        return EXIT_UNENFORCEABLE
    uem = build_uem(tgs).complete()
    em = refine_to_em(uem)
    print(f"merged mechanism: {len(uem.moves_in)} belief states, "
          f"{len(uem.moves_out)} observation states, {len(uem.partial)} partial actions")
    if em is None:
        print("not ic-enforceable at this configuration")
        return EXIT_UNENFORCEABLE
    print(f"edit mechanism: {len(em.moves_in)} belief states, "
          f"{len(em.moves_out)} observation states")
    if args.dot:
        _write_dot(args.dot, "mechanism_raw", lambda out: mechanism_dot(uem, aut, out, name="raw"))
        _write_refined_dot(args.dot, em, uem, aut)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    aut, game = _game(args)
    # the DOT files show the whole game and the whole mechanism
    if args.dot:
        for name, obs in zip(OBSERVER_NAMES, game.observers):
            _write_dot(args.dot, f"observer_{name}",
                       lambda out: observer_dot(obs, aut, out, name=f"observer_{name}"))
        game.complete()
    tgs = trim_game(game)
    if args.dot:
        if tgs is not None and tgs.game is game:
            # trimming removed nothing: the trimmed game is the game
            _write_dot(args.dot, "trimmed", lambda out: trimmed_dot(tgs, aut, out))
            _copy_dot(args.dot, "trimmed", "game")
        else:
            _write_dot(args.dot, "game", lambda out: game_dot(game, aut, out))
            if tgs is not None:
                _write_dot(args.dot, "trimmed", lambda out: trimmed_dot(tgs, aut, out))
    em = None
    if tgs is not None:
        uem = build_uem(tgs)
        if args.dot:
            uem.complete()
            _write_dot(args.dot, "mechanism_raw",
                       lambda out: mechanism_dot(uem, aut, out, name="raw"))
        em = refine_to_em(uem)
    if em is None:
        print("not ic-enforceable at this configuration")
        return EXIT_UNENFORCEABLE
    if args.dot:
        _write_refined_dot(args.dot, em, uem, aut)
    fe = synthesize(em, policy=args.policy)
    text = format_mealy(fe)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote transducer to {args.output}")
    else:
        sys.stdout.write(text)
    if args.dot:
        _write_dot(args.dot, "editor", lambda out: mealy_dot(fe, out))
    return EXIT_OK


def cmd_simulate(args) -> int:
    aut, profile = parse_model(_read(args.input))
    fe = _load_transducer(args.transducer, profile)
    trace = tuple(args.events)
    try:
        steps = simulate(aut, profile, fe, trace)
    except (SimulationError, EditUndefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print("event\toutput\tintruder\tdefender\tleak")
    for step in steps:
        print("\t".join((
            step.plant_event,
            "·".join(step.editor_output) if step.editor_output else "-",
            fmt_state_set(aut, step.intruder_estimate),
            fmt_state_set(aut, step.defender_estimate),
            "yes" if step.leak else "no",
        )))
    return EXIT_OK


def cmd_check(args) -> int:
    # --max-insert feeds only the default depth, so only then is it read
    k = None if args.depth is not None else _max_insert(args)
    aut, profile = parse_model(_read(args.input))
    fe = _load_transducer(args.transducer, profile)
    depth = args.depth if k is None else default_depth(aut, profile, k)
    verdict = evaluate_editor(aut, profile, fe, depth)
    if verdict.ok and args.depth is None and not exact_ic_check(aut, profile, fe):
        # the default depth fell short of the editor's joint configurations
        depth = certifying_depth(aut, profile, fe, cap=sys.maxsize)
        verdict = evaluate_editor(aut, profile, fe, depth)
    if verdict.ok:
        print(f"PASS: ic-enforcing up to depth {depth}")
        return EXIT_OK
    import json  # only a failure prints JSON; a fresh start skips the import

    record = {
        "property": verdict.failed_property,
        "trace": list(verdict.counterexample or ()),
        "depth": depth,
    }
    print(json.dumps(record, sort_keys=True))
    return EXIT_PROPERTY


def cmd_gen(args) -> int:
    aut, profile = random_instance(args.seed, args.max_states, args.max_events)
    text = format_model(aut, profile)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote instance to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    if not args.dot:
        _require_dot(args, "export-dot")
    return cmd_synthesize(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opacedit",
        description="Verify current-state opacity and synthesize enforcing edit functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_max_insert(p):
        p.add_argument("--max-insert", type=int, default=1, metavar="K",
                       help="upper bound on inserted prefix length (default 1)")

    def add_dot(p):
        p.add_argument("--dot", metavar="DIR", help="write stage DOT files to DIR")

    def add_pipeline_flags(p):
        p.add_argument("--ops", default=None,
                       help="comma list from substitute,delete,insert "
                            "(default: all, without insert when K is 0)")
        add_max_insert(p)
        add_dot(p)

    p = sub.add_parser("verify", help="report OPAQUE / NOT OPAQUE with a witness")
    p.add_argument("input")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("observers", help="build the three observers")
    p.add_argument("input")
    p.add_argument("--no-self-loops", action="store_true",
                   help="suppress self-loop edges in DOT output")
    add_dot(p)
    p.set_defaults(func=cmd_observers)

    p = sub.add_parser("game", help="build the edit game structure")
    p.add_argument("input")
    add_pipeline_flags(p)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("trim", help="prune the game structure")
    p.add_argument("input")
    p.add_argument("--show-disabled", action="store_true",
                   help="include disabled actions as dashed gray edges in DOT (needs --dot)")
    add_pipeline_flags(p)
    p.set_defaults(func=cmd_trim)

    p = sub.add_parser("mechanism", help="merge and refine into the edit mechanism")
    p.add_argument("input")
    add_pipeline_flags(p)
    p.set_defaults(func=cmd_mechanism)

    p = sub.add_parser("synthesize", help="run the full pipeline and emit a transducer")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="transducer output path (default stdout)")
    p.add_argument("--policy", default="prefer-passthrough", choices=sorted(POLICIES))
    add_pipeline_flags(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="step a plant trace through an editor")
    p.add_argument("input")
    p.add_argument("transducer")
    p.add_argument("events", nargs="*")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="check a transducer against the definitions")
    p.add_argument("input")
    p.add_argument("transducer")
    p.add_argument("--depth", type=int, default=None)
    add_max_insert(p)  # feeds the default depth
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-states", type=int, default=5)
    p.add_argument("--max-events", type=int, default=4)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("export-dot", help="write every pipeline stage as DOT")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="also write the transducer here")
    p.add_argument("--policy", default="prefer-passthrough", choices=sorted(POLICIES))
    add_pipeline_flags(p)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The pipeline makes no reference cycles, so the cyclic collector would
    # only walk its objects; reference counting frees them all.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
