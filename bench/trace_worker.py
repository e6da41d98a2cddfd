"""Traced run of one benchmark item, in a process of its own.

    python3 bench/trace_worker.py REQUEST.json

The request names the checkout's `src` directory, the CLI arguments, the
item id, the per-item limit and where to write the result.  The worker
runs `opacedit.cli.main` in-process twice, once plain and once with the
public stage functions wrapped in spans, in the order the request gives.
It then runs `exact_ic_check` on the item's editor (the transducer a
`synthesize` item printed or the editor a `check` item was given) with
only that function wrapped, so the layers below it count the CLI's work
alone.  Spans (name, layer, start, end, parent, item) stay in memory and
go into the result file with the counts read off the structures each
stage returned.  A call that runs past the limit is stopped by a timer
signal and reported as a timeout.

A stage function that is missing from its module, a stage the command
must reach but did not, or a result whose shape the counts cannot read is
reported in the result's `errors`, and the run counts the item as failed:
after a refactor the lists below must follow the code, so that a layer
never reads zero because it moved.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import signal
import sys
import time
from pathlib import Path

# layer (module of opacedit) -> public stage functions wrapped in spans
STAGES = {
    "automata": ("parse_model",),
    "observers": ("standard_observers", "build_observer"),
    "game": ("build_edit_game",),
    "trimming": ("trim_game",),
    "mechanism": ("build_uem", "refine_to_em", "synthesize", "format_mealy"),
    "opacity": ("verify_cso", "evaluate_editor"),
    "harness": ("exact_ic_check",),
    "dot": ("observer_dot", "game_dot", "trimmed_dot", "mechanism_dot", "mealy_dot"),
}
EXACT = {"harness": ("exact_ic_check",)}

# Stages each command must call, by command and exit code (None: any exit).
_PIPELINE = ("parse_model", "build_observer", "build_edit_game", "trim_game")
_MECHANISM = ("build_uem", "refine_to_em", "synthesize", "format_mealy")
REACHED = {
    ("synthesize", 0): _PIPELINE + _MECHANISM,
    ("synthesize", 3): _PIPELINE,
    ("export-dot", 0): _PIPELINE + _MECHANISM + (
        "observer_dot", "game_dot", "trimmed_dot", "mechanism_dot", "mealy_dot"),
    ("export-dot", 3): _PIPELINE + ("observer_dot", "game_dot"),
    ("verify", None): ("parse_model", "verify_cso"),
    ("check", None): ("parse_model", "evaluate_editor"),
}


class Timeout(BaseException):
    """Raised by the limit timer; a BaseException so no handler in the
    program under test swallows it."""


class Tracer:
    """Wraps stage functions wherever opacedit's modules bind them."""

    def __init__(self, item: str):
        self.item = item
        self.spans: list[list] = []  # [name, layer, start, end, parent, item]
        self.returned: list[tuple[str, tuple, object]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else None, self.item]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            self.returned.append((fn.__name__, args, result))
            return result

        return traced

    def patch(self, stages: dict[str, tuple[str, ...]]) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "opacedit" or n.startswith("opacedit.")]
        for layer, names in stages.items():
            home = sys.modules.get(f"opacedit.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.add(f"opacedit.{layer}.{fname}")
                    continue
                wrapped = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _size(x) -> int:
    return x.bit_count() if isinstance(x, int) else len(x)


def count(returned, profile) -> dict[str, float]:
    """Work done, summed over the stage calls of one item."""
    c = dict.fromkeys((
        "automata.plant_states", "observers.intruder_states", "observers.defender_states",
        "game.info_states", "game.aug_states", "game.edges",
        "trimming.removed", "trimming.disabled", "trimming.kept", "trimming.total",
        "mechanism.beliefs", "mechanism.obs_states", "mechanism.partial",
        "mechanism.belief_max", "mechanism.transducer_states"), 0)

    def observer(reactive, obs):
        reactive = frozenset(reactive)
        if profile is not None and reactive == profile.intruder:
            c["observers.intruder_states"] += len(obs.states)
        elif profile is not None and reactive == profile.defender:
            c["observers.defender_states"] += len(obs.states)

    for name, args, r in returned:
        if name == "parse_model":
            c["automata.plant_states"] += r[0].n_states
        elif name == "standard_observers":
            pass  # its three build_observer calls are counted one by one
        elif name == "build_observer":
            observer(args[1], r)
        elif name == "build_edit_game":
            c["game.info_states"] += len(r.a_states)
            c["game.aug_states"] += len(r.f_states)
            c["game.edges"] += (sum(len(m) for m in r.sys_moves.values())
                                + sum(len(m) for m in r.def_moves.values()))
        elif name == "trim_game":
            total = len(args[0].a_states) + len(args[0].f_states)
            kept = 0 if r is None else len(r.game.a_states) + len(r.game.f_states)
            c["trimming.total"] += total
            c["trimming.kept"] += kept
            c["trimming.removed"] += total - kept
            if r is not None:
                c["trimming.disabled"] += sum(len(d) for d in r.disabled.values())
        elif name == "build_uem":
            c["mechanism.beliefs"] += len(r.ua_states)
            c["mechanism.obs_states"] += len(r.uf_states)
            c["mechanism.partial"] += len(r.partial)
            c["mechanism.belief_max"] = max(c["mechanism.belief_max"],
                                            max((_size(b) for b in r.ua_states), default=0))
        elif name == "synthesize":
            c["mechanism.transducer_states"] += r.n_states
    return c


def run_main(cli, argv: list[str]) -> tuple[float, int, str]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else 2
    return time.perf_counter() - start, code, out.getvalue()


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text())
    sys.path.insert(0, req["src"])
    cli = importlib.import_module("opacedit.cli")
    mechanism = importlib.import_module("opacedit.mechanism")
    parse_mealy = mechanism.parse_mealy  # the benchmark's own parse, never traced

    def on_alarm(signum, frame):
        raise Timeout()

    signal.signal(signal.SIGALRM, on_alarm)
    tracer = Tracer(req["item"])
    result: dict = {"item": req["item"], "timeout": False}
    errors: list[str] = []
    try:
        walls = {}
        for traced in ((True, False) if req["traced_first"] else (False, True)):
            if traced:
                tracer.patch(STAGES)
            signal.setitimer(signal.ITIMER_REAL, req["limit"])
            try:
                wall, code, stdout = run_main(cli, req["argv"])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                tracer.unpatch()
            walls[traced] = wall
            if traced:
                n_main = len(tracer.spans)
                returned = list(tracer.returned)
                traced_code, traced_stdout = code, stdout
        top = sum(s[3] - s[2] for s in tracer.spans[:n_main] if s[4] is None)
        called = {n for n, _, _ in returned}
        want = REACHED.get((req["cmd"], traced_code), REACHED.get((req["cmd"], None), ()))
        errors.extend(f"stage not reached: {n}" for n in want if n not in called)
        parsed = next((r for n, _, r in returned if n == "parse_model"), None)
        aut, profile = parsed if parsed is not None else (None, None)
        result.update(
            exit=traced_code,
            stdout=traced_stdout,
            untraced_s=walls[False],
            traced_s=walls[True],
            cli_self_s=walls[True] - top,
        )
        try:
            result["counts"] = count(returned, profile)
        except (AttributeError, TypeError, IndexError) as exc:
            errors.append(f"counts unreadable: {exc!r}")  # a stage's result changed shape
        editor_text = None
        if req["cmd"] == "synthesize" and traced_code == 0:
            editor_text = traced_stdout
        elif req["cmd"] == "check":
            editor_text = Path(req["argv"][2]).read_text()
        if editor_text is not None and aut is not None:
            fe = parse_mealy(editor_text)
            tracer.patch(EXACT)
            try:
                exact = getattr(sys.modules.get("opacedit.harness"), "exact_ic_check", None)
                if exact is not None:
                    result["exact"] = bool(exact(aut, profile, fe))
            finally:
                tracer.unpatch()
    except Timeout:
        result["timeout"] = True
    result["errors"] = sorted(f"missing stage function: {n}" for n in tracer.missing) + errors
    result["spans"] = tracer.spans
    Path(req["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
