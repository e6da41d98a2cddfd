"""The benchmark scripts read the package through names this test pins.

``bench/record.py`` and ``bench/exact_check.py`` are not run by the test
suite, so a name that leaves the package would break them silently.  The
scripts are parsed, not imported or run.  ``bench/trace_worker.py`` is
imported as it is and its tracer run around in-process CLI calls, so a
stage that moves or a result that changes shape fails here, not only in a
traced benchmark run.
"""
import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opacedit
from opacedit import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def package_names(source: str) -> set[str]:
    """Names imported from ``opacedit`` or read as attributes of an alias
    of it (``import opacedit as oe`` then ``oe.name``)."""
    tree = ast.parse(source)
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "opacedit"}
        elif isinstance(node, ast.ImportFrom) and node.module == "opacedit" and not node.level:
            names |= {a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("script", ["record.py", "exact_check.py"])
def test_bench_scripts_resolve_in_the_package(script):
    names = package_names((BENCH / script).read_text())
    assert names, f"bench/{script} reads nothing from opacedit"
    missing = sorted(n for n in names if not hasattr(opacedit, n))
    assert not missing, f"bench/{script} uses names opacedit lacks: {missing}"




def test_cli_start_up_loads_every_stage_and_nothing_heavy():
    """A fresh ``import opacedit.cli`` loads no ``dataclasses`` and no
    ``json``, and loads every module whose stages the trace worker wraps:
    the worker patches only modules already in ``sys.modules``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import opacedit.cli; "
         "print('\\n'.join(sorted(set(sys.modules) - before)))"],
        env=env, capture_output=True, text=True, check=True)
    added = set(done.stdout.split())
    assert {"dataclasses", "json"} & added == set()
    stages = {f"opacedit.{layer}" for layer in _trace_worker().STAGES}
    assert len(stages) == 8
    assert stages - added == set()


def _trace_worker():
    spec = importlib.util.spec_from_file_location("trace_worker", BENCH / "trace_worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, exit_code", [
    (["synthesize", "gen-5-8-5"], 0),
    (["export-dot", "gen-5-8-5", "--dot", "dot", "-o", "editor.mealy"], 0),
    (["synthesize", "gen-33-30-10", "--max-insert", "2"], 3),
], ids=["synthesize", "export-dot", "synthesize-refuted"])
def test_traced_run_reaches_its_stages(tmp_path, monkeypatch, argv, exit_code):
    worker = _trace_worker()
    monkeypatch.chdir(tmp_path)
    command, plant, *flags = argv
    tracer = worker.Tracer(command)
    tracer.patch(worker.STAGES)
    try:
        _, got, _ = worker.run_main(
            cli, [command, str(BENCH / "instances" / f"{plant}.aut"), *flags])
    finally:
        tracer.unpatch()
    assert got == exit_code
    assert not tracer.missing
    called = {name for name, _, _ in tracer.returned}
    assert [n for n in worker.REACHED[(command, exit_code)] if n not in called] == []
    aut, profile = next(r for name, _, r in tracer.returned if name == "parse_model")
    counts = worker.count(tracer.returned, profile)
    assert counts["automata.plant_states"] == aut.n_states
    assert counts["trimming.total"] > 0
    assert (counts["mechanism.transducer_states"] > 0) == (exit_code == 0)
