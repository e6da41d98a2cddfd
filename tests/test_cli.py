import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opacedit as oe
from opacedit import observers
from opacedit.cli import main

from conftest import FIG3_TEXT, FORCED_LEAK_TEXT

EMPTY_SECRET = FIG3_TEXT.replace("secret 5\n", "")

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "bench" / "instances"
README = ROOT / "README.md"

RESERVED = ("event id {} is reserved: the transducer format writes '-' for the "
            "empty word and joins words with '·'")

UNENFORCEABLE = (
    "states s t\ninitial s\nsecret s\nevents a\nobservable a\n"
    "intruder a\ndefender a\ntrans s a t\n"
)


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.aut"
    path.write_text(FIG3_TEXT)
    return str(path)


class TestVerify:
    def test_not_opaque(self, fig3_file, capsys):
        assert main(["verify", fig3_file]) == 1
        out = capsys.readouterr().out
        assert "NOT OPAQUE" in out
        assert "intruder view: a b" in out

    def test_opaque(self, tmp_path, capsys):
        path = tmp_path / "open.aut"
        path.write_text(EMPTY_SECRET)
        assert main(["verify", str(path)]) == 0
        assert "OPAQUE" in capsys.readouterr().out

    def test_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "bad.aut"
        path.write_text("states s\nbogus x\n")
        assert main(["verify", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (FIG3_TEXT.replace("states 1 2 3 4 5 6", "states 1 2 3 4 5 6 2"),
         "line 2: state '2' declared twice"),
        (FIG3_TEXT.replace("events a b c d", "events a b c d a"),
         "line 5: event 'a' declared twice"),
        (FIG3_TEXT.replace("initial 1", "initial"), "line 3: initial takes exactly one state"),
        (FIG3_TEXT.replace("initial 1", "initial 1 2"),
         "line 3: initial takes exactly one state"),
        (FIG3_TEXT + "initial 2\n", "line 19: initial declared twice"),
        (FIG3_TEXT.replace("trans 1 a 3", "trans 1 a"), "line 9: trans takes: source event target"),
        (FIG3_TEXT.replace("trans 1 b 2", "trans 1 b 2 c"),
         "line 10: trans takes: source event target"),
        (FIG3_TEXT.replace("states 1 2 3 4 5 6\n", ""), "no states declared"),
        (FIG3_TEXT.replace("events a b c d\n", ""), "no events declared"),
        (FIG3_TEXT.replace("initial 1\n", ""), "no initial state declared"),
        (FIG3_TEXT.replace("states 1 2 3 4 5 6", "states 1 2 3 4 5 6 \x01"),
         "line 2: state id '\\x01' must be printable, nonempty, whitespace-free"),
        (FIG3_TEXT.replace("events a b c d", "events a b c d \x02"),
         "line 5: event id '\\x02' must be printable, nonempty, whitespace-free"),
        (FIG3_TEXT.replace("events a b c d", "events a b c d -"),
         "line 5: " + RESERVED.format("'-'")),
        (FIG3_TEXT.replace("events a b c d", "events a b c d e·f"),
         "line 5: " + RESERVED.format("'e·f'")),
    ], ids=["state-twice", "event-twice", "initial-bare", "initial-two", "initial-twice",
            "trans-short", "trans-long", "no-states", "no-events", "no-initial",
            "state-unprintable", "event-unprintable", "event-dash", "event-dot"])
    def test_malformed_model_names_its_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.aut"
        path.write_text(text)
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope.aut")]) == 2


class TestSynthesize:
    def test_substitution_only_reproduces_acd(self, fig3_file, tmp_path, capsys):
        out_path = tmp_path / "editor.mealy"
        code = main([
            "synthesize", fig3_file, "--ops", "substitute",
            "--max-insert", "0", "-o", str(out_path),
        ])
        assert code == 0
        fe = oe.parse_mealy(out_path.read_text())
        emitted = []
        state = fe.initial
        for event in "abc":
            word, state = fe.step(state, event)
            emitted.extend(word)
        assert tuple(emitted) == ("a", "c", "d")

    @pytest.mark.parametrize("name", ["gen-27-12-5", "gen-5-8-5"])
    def test_default_transducer_is_the_stored_one(self, name, capsys):
        # the stored editors byte for byte, so a change to the closures or
        # to the belief order that moves a transducer fails here
        assert main(["synthesize", str(INSTANCES / f"{name}.aut")]) == 0
        stored = ROOT / "bench" / "editors" / f"synth-{name}.mealy"
        assert capsys.readouterr().out == stored.read_text()

    def test_unenforceable_exit_code(self, tmp_path, capsys):
        path = tmp_path / "locked.aut"
        path.write_text(UNENFORCEABLE)
        assert main(["synthesize", str(path)]) == 3
        assert "not ic-enforceable" in capsys.readouterr().out

    def test_insert_requires_budget(self, fig3_file, capsys):
        assert main(["synthesize", fig3_file, "--ops", "insert",
                     "--max-insert", "0"]) == 2

    def test_out_of_memory_is_an_input_error(self, fig3_file, capsys, monkeypatch):
        def exhausted(game):
            raise MemoryError
        monkeypatch.setattr("opacedit.cli.trim_game", exhausted)
        assert main(["synthesize", fig3_file]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory\n"
        assert captured.out == ""

    def test_failed_render_leaves_no_dot_file(self, fig3_file, tmp_path, capsys, monkeypatch):
        # exporters stream into their file, so one that fails midway would
        # otherwise leave a truncated file behind
        def exhausted(game, aut, out, **kwargs):
            out.write("digraph game {\n")
            out.flush()
            raise MemoryError
        monkeypatch.setattr("opacedit.cli.game_dot", exhausted)
        dot_dir = tmp_path / "dots"
        assert main(["synthesize", fig3_file, "--dot", str(dot_dir)]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        # the observers' files, written before, and no temporary file
        assert sorted(p.name for p in dot_dir.iterdir()) == [
            f"observer_{name}.dot" for name in ("defender", "intruder", "system")]

    def test_failed_render_removes_an_earlier_runs_dot_file(self, fig3_file, tmp_path, capsys,
                                                          monkeypatch):
        # a stale game.dot would sit beside this run's observer files
        def exhausted(game, aut, out, **kwargs):
            raise MemoryError
        monkeypatch.setattr("opacedit.cli.game_dot", exhausted)
        dot_dir = tmp_path / "dots"
        dot_dir.mkdir()
        (dot_dir / "game.dot").write_text("digraph game {\n}\n")
        assert main(["synthesize", fig3_file, "--dot", str(dot_dir)]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not (dot_dir / "game.dot").exists()

    def test_dot_file_appears_only_once_rendered(self, fig3_file, tmp_path, monkeypatch):
        # a run killed midway leaves no cut-off DIR/<name>.dot: the render
        # goes into a temporary file, moved onto the name once it returns
        dot_dir = tmp_path / "dots"

        def render(game, aut, out, **kwargs):
            assert not (dot_dir / "game.dot").exists()
            out.write("digraph game {\n}\n")
        monkeypatch.setattr("opacedit.cli.game_dot", render)
        assert main(["game", fig3_file, "--dot", str(dot_dir)]) == 0
        assert [p.name for p in dot_dir.iterdir()] == ["game.dot"]
        assert (dot_dir / "game.dot").read_text() == "digraph game {\n}\n"

    def test_stage_dots_are_reproducible(self, fig3_file, tmp_path):
        dirs = []
        for name in ("one", "two"):
            dot_dir = tmp_path / name
            code = main([
                "synthesize", fig3_file, "--ops", "substitute", "--max-insert", "0",
                "--dot", str(dot_dir), "-o", str(tmp_path / f"{name}.mealy"),
            ])
            assert code == 0
            dirs.append(dot_dir)
        first = {p.name: p.read_bytes() for p in sorted(dirs[0].iterdir())}
        second = {p.name: p.read_bytes() for p in sorted(dirs[1].iterdir())}
        assert first == second
        assert "game.dot" in first
        assert "mechanism.dot" in first
        assert (tmp_path / "one.mealy").read_bytes() == (tmp_path / "two.mealy").read_bytes()


class TestSimulateAndCheck:
    @pytest.fixture
    def editor_file(self, fig3_file, tmp_path):
        out_path = tmp_path / "editor.mealy"
        assert main([
            "synthesize", fig3_file, "--ops", "substitute",
            "--max-insert", "0", "-o", str(out_path),
        ]) == 0
        return str(out_path)

    def test_simulate_table(self, fig3_file, editor_file, capsys):
        assert main(["simulate", fig3_file, editor_file, "a", "b", "c"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "event\toutput\tintruder\tdefender\tleak"
        assert len(out) == 4
        assert all(line.endswith("no") for line in out[1:])
        assert out[3].split("\t")[2] == "{6}"

    def test_simulate_rejects_bad_trace(self, fig3_file, editor_file, capsys):
        assert main(["simulate", fig3_file, editor_file, "d", "d"]) == 2

    def test_check_passes_synthesized(self, fig3_file, editor_file, capsys):
        assert main(["check", fig3_file, editor_file, "--depth", "6",
                     "--max-insert", "0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_fails_identity_with_record(self, fig3_file, tmp_path, capsys):
        ident = oe.MealyEditFunction.identity(frozenset("bcd"))
        path = tmp_path / "ident.mealy"
        path.write_text(oe.format_mealy(ident))
        assert main(["check", fig3_file, str(path), "--depth", "4",
                     "--max-insert", "0"]) == 1
        record = json.loads(capsys.readouterr().out.strip())
        assert record["property"] == "confidentiality"
        assert record["trace"] == ["a", "b"]

    def test_check_takes_max_insert_but_not_ops(self, fig3_file, editor_file, capsys):
        # check plays no game, so of the pipeline flags only the insertion
        # bound is read: it feeds the default depth |X|·|X_I|·|X_D|+k+1
        assert main(["check", fig3_file, editor_file, "--max-insert", "0"]) == 0
        at_zero = int(capsys.readouterr().out.split()[-1])
        assert main(["check", fig3_file, editor_file, "--max-insert", "2"]) == 0
        assert int(capsys.readouterr().out.split()[-1]) == at_zero + 2
        assert main(["check", fig3_file, editor_file, "--max-insert", "-1"]) == 2
        for ops in (["--ops", "substitute"], ["--ops", "insert", "--max-insert", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(["check", fig3_file, editor_file, *ops])
            assert exc.value.code == 2
            assert "unrecognized arguments: --ops" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["-1", "7"])
    def test_check_with_depth_ignores_max_insert(self, capsys, k):
        # with --depth given, --max-insert feeds nothing, so no value of it
        # changes the outcome, a negative one included
        argv = ["check", str(INSTANCES / "gen-5-8-5.aut"),
                str(ROOT / "bench" / "editors" / "synth-gen-5-8-5.mealy"), "--depth", "4"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main([*argv, "--max-insert", k]) == 0
        assert capsys.readouterr() == plain == ("PASS: ic-enforcing up to depth 4\n", "")

    def test_check_rejects_a_negative_depth(self, fig3_file, editor_file, capsys):
        assert main(["check", fig3_file, editor_file, "--depth", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: depth must be nonnegative\n"

    def test_check_at_the_default_depth_finishes(self):
        # the default depth here is 302; a walk over every observable word
        # up to it would not finish
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "opacedit.cli", "check",
             "bench/instances/gen-5-8-5.aut", "bench/editors/synth-gen-5-8-5.mealy"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "PASS: ic-enforcing up to depth 302\n"

    def test_check_without_depth_fails_an_editor_past_the_default_depth(
            self, tmp_path, capsys):
        # The default depth here is 4, but the editor's output is undefined
        # only after 11 events; the exact check catches it, and the search
        # is run again at the certifying depth to report the failure.
        plant = tmp_path / "loop.aut"
        plant.write_text("states 1 2\ninitial 1\nsecret 2\nevents a\nobservable a\n"
                         "intruder a\ndefender a\ntrans 1 a 1\n")
        editor = tmp_path / "counter.mealy"
        editor.write_text("alphabet a\nstates 11\ninitial 0\n"
                          + "".join(f"{q} a / a {q + 1}\n" for q in range(10)))
        assert main(["check", str(plant), str(editor)]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record == {"property": "i-availability", "trace": ["a"] * 11, "depth": 12}
        assert main(["check", str(plant), str(editor), "--depth", "4"]) == 0
        assert capsys.readouterr().out == "PASS: ic-enforcing up to depth 4\n"



IDENTITY_EDGES = "0 b / b 0\n0 c / c 0\n0 d / d 0\n"


class TestMalformedTransducer:
    """Transducers that do not fit the plant are input errors, not failures."""

    @pytest.mark.parametrize("text", [
        "alphabet b c d\nstates 1\n" + IDENTITY_EDGES + "3 b / c 0\n",
        "alphabet b c d\nstates 1\n0 b / b 7\n0 c / c 0\n0 d / d 0\n",
        "alphabet b c d\nstates 1\ninitial 4\n" + IDENTITY_EDGES,
    ], ids=["edge-source", "next-state", "initial"])
    def test_check_rejects_state_out_of_range(self, fig3_file, tmp_path, capsys, text):
        path = tmp_path / "bad.mealy"
        path.write_text(text)
        assert main(["check", fig3_file, str(path), "--depth", "4"]) == 2
        assert "outside [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["check", "--depth", "4"], ["simulate", "a", "b", "c"],
    ], ids=["check", "simulate"])
    def test_rejects_foreign_alphabet(self, fig3_file, tmp_path, capsys, command):
        path = tmp_path / "narrow.mealy"
        path.write_text("alphabet b\nstates 1\n0 b / b 0\n")
        argv = [command[0], fig3_file, str(path), *command[1:]]
        assert main(argv) == 2
        assert "differs from the defender alphabet {b,c,d}" in capsys.readouterr().err

    def test_check_rejects_edge_outside_alphabet(self, fig3_file, tmp_path, capsys):
        # the a-edge would be ignored, leaving the identity editor's verdict
        path = tmp_path / "foreign.mealy"
        path.write_text("alphabet b c d\nstates 1\n" + IDENTITY_EDGES + "0 a / z 0\n")
        assert main(["check", fig3_file, str(path), "--depth", "4"]) == 2
        assert "on 'a' outside the alphabet" in capsys.readouterr().err

    @pytest.mark.parametrize("foreign", ["zzz", "u"], ids=["undeclared", "unobservable"])
    @pytest.mark.parametrize("start", ["0 a / a 0", "0 a / a 1"], ids=["unreached", "reached"])
    @pytest.mark.parametrize("command", [
        ["check"], ["simulate", "a", "a"],
    ], ids=["check", "simulate"])
    def test_rejects_output_outside_the_observable_alphabet(
            self, tmp_path, capsys, command, start, foreign):
        # Unreached, the edge would leave the verdict alone; reached, the
        # observers would stop on its word.  Both are refused on loading.
        plant = tmp_path / "loop.aut"
        plant.write_text("states 1 2\ninitial 1\nevents a u\nobservable a\n"
                         "intruder a\ndefender a\ntrans 1 a 1\ntrans 1 u 2\n")
        editor = tmp_path / "foreign.mealy"
        editor.write_text(f"alphabet a\nstates 2\ninitial 0\n{start}\n1 a / a·{foreign} 1\n")
        assert main([command[0], str(plant), str(editor), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: transducer edge from state 1 on 'a' emits {foreign!r}, "
                                "outside the observable alphabet {a}\n")

    @pytest.mark.parametrize("header, message", [
        ("states\n", "line 2: states takes exactly one nonnegative integer"),
        ("states 1\ninitial\n", "line 3: initial takes exactly one nonnegative integer"),
        ("states x\n", "line 2: states takes exactly one nonnegative integer"),
        ("states 1 2\n", "line 2: states takes exactly one nonnegative integer"),
        ("states 1\nstates 1\n", "line 3: states declared twice"),
        ("policy\n", "line 2: policy takes exactly one name"),
        ("policy a b\npolicy c\n", "line 2: policy takes exactly one name"),
        ("policy a\nstates 1\npolicy c\n", "line 4: policy declared twice"),
    ], ids=["bare-states", "bare-initial", "word-count", "extra-token", "states-twice",
            "bare-policy", "policy-extra", "policy-twice"])
    @pytest.mark.parametrize("command", [
        ["check", "--depth", "4"], ["simulate", "a", "b", "c"],
    ], ids=["check", "simulate"])
    def test_rejects_malformed_header(self, fig3_file, tmp_path, capsys, command, header,
                                      message):
        path = tmp_path / "bad.mealy"
        path.write_text("alphabet b c d\n" + header + IDENTITY_EDGES)
        assert main([command[0], fig3_file, str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("alphabet b c d b\nstates 1\n" + IDENTITY_EDGES, "line 1: event 'b' declared twice"),
        ("alphabet b c d\nstates 1\n0 b / c··d 0\n0 c / c 0\n0 d / d 0\n",
         "line 3: event id '' must be printable, nonempty, whitespace-free"),
    ], ids=["alphabet-id-twice", "empty-output-event"])
    @pytest.mark.parametrize("command", [
        ["check", "--depth", "4"], ["simulate", "a", "b", "c"],
    ], ids=["check", "simulate"])
    def test_rejects_malformed_ids(self, fig3_file, tmp_path, capsys, command, text, message):
        # transducer ids follow the plant format's rules
        path = tmp_path / "bad.mealy"
        path.write_text(text)
        assert main([command[0], fig3_file, str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_check_requires_states_line(self, fig3_file, tmp_path, capsys):
        # without it the count would be inferred from the edges, hiding gaps
        path = tmp_path / "stateless.mealy"
        path.write_text("alphabet b c d\n" + IDENTITY_EDGES)
        assert main(["check", fig3_file, str(path), "--depth", "4"]) == 2
        assert "lacks a states line" in capsys.readouterr().err


class TestOtherCommands:
    def test_observers_summary(self, fig3_file, capsys):
        assert main(["observers", fig3_file]) == 0
        out = capsys.readouterr().out
        assert "intruder observer" in out
        assert "{1,4}" in out
        assert "{1,3}" in out

    def test_observers_writes_three_dot_files(self, fig3_file, tmp_path, capsys):
        dot_dir = tmp_path / "dots"
        assert main(["observers", fig3_file, "--dot", str(dot_dir), "--no-self-loops"]) == 0
        assert sorted(p.name for p in dot_dir.iterdir()) == [
            "observer_defender.dot", "observer_intruder.dot", "observer_system.dot"]

    @pytest.mark.parametrize("flags", [
        ["--ops", "substitute"], ["--ops", "insert", "--max-insert", "0"], ["--max-insert", "2"],
    ], ids=["ops", "ops-insert-k0", "max-insert"])
    def test_observers_takes_no_pipeline_flags(self, fig3_file, capsys, flags):
        # observers plays no game, so neither edit flag is read or accepted
        with pytest.raises(SystemExit) as exc:
            main(["observers", fig3_file, *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flags[0] in capsys.readouterr().err

    def test_game_and_trim_and_mechanism(self, fig3_file, capsys):
        assert main(["game", fig3_file, "--ops", "substitute", "--max-insert", "0"]) == 0
        assert main(["trim", fig3_file, "--ops", "substitute", "--max-insert", "0"]) == 0
        assert main(["mechanism", fig3_file, "--ops", "substitute", "--max-insert", "0"]) == 0
        out = capsys.readouterr().out
        assert "utility-0" in out
        assert "actions disabled" in out
        assert "edit mechanism" in out

    def test_trim_unenforceable(self, tmp_path, capsys):
        path = tmp_path / "locked.aut"
        path.write_text(UNENFORCEABLE)
        assert main(["trim", str(path)]) == 3

    def test_game_fills_utility_zero_states_red(self, tmp_path, capsys):
        plant, dot_dir = tmp_path / "gen0.aut", tmp_path / "dots"
        assert main(["gen", "--seed", "0", "-o", str(plant)]) == 0
        capsys.readouterr()
        assert main(["game", str(plant), "--ops", "substitute", "--max-insert", "0",
                     "--dot", str(dot_dir)]) == 0
        assert capsys.readouterr().out == (
            "game: 15 information states, 24 augmented states, 5 utility-0\n")
        text = (dot_dir / "game.dot").read_text()
        assert text.count("shape=box, style=filled, fillcolor=red") == 5
        assert text.count("fillcolor=red") == 5  # no information state leaks here

    def test_mechanism_refuted_by_trimming(self, capsys):
        assert main(["mechanism", str(INSTANCES / "gen-33-30-10.aut"),
                     "--max-insert", "2"]) == 3
        assert capsys.readouterr().out == "not enforceable: initial state pruned\n"

    def test_mechanism_refuted_by_refinement(self, tmp_path, capsys):
        path = tmp_path / "leak.aut"
        path.write_text(FORCED_LEAK_TEXT)
        assert main(["mechanism", str(path)]) == 3
        assert capsys.readouterr().out == (
            "merged mechanism: 4 belief states, 4 observation states, 8 partial actions\n"
            "not ic-enforceable at this configuration\n")

    def test_gen_is_seed_deterministic(self, tmp_path, capsys):
        one, two = tmp_path / "a.aut", tmp_path / "b.aut"
        assert main(["gen", "--seed", "11", "-o", str(one)]) == 0
        assert main(["gen", "--seed", "11", "-o", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()
        aut, profile = oe.parse_model(one.read_text())
        assert aut.n_states >= 2

    def test_gen_prints_the_instance_without_output(self, tmp_path, capsys):
        plant = tmp_path / "gen3.aut"
        assert main(["gen", "--seed", "3"]) == 0
        printed = capsys.readouterr().out
        assert main(["gen", "--seed", "3", "-o", str(plant)]) == 0
        assert printed == plant.read_text() == oe.format_model(*oe.random_instance(3))

    def test_gen_rejects_more_than_ten_events(self, tmp_path, capsys):
        plant = tmp_path / "big.aut"
        assert main(["gen", "--seed", "1", "--max-events", "12", "-o", str(plant)]) == 2
        assert capsys.readouterr().err == "error: at most 10 events\n"
        assert not plant.exists()

    def test_reserved_event_id_is_refused_before_synthesis(self, tmp_path, capsys):
        plant = tmp_path / "dash.aut"
        plant.write_text("states 1 2\ninitial 1\nsecret 2\nevents - b\nobservable - b\n"
                         "intruder - b\ndefender - b\ntrans 1 - 2\ntrans 1 b 1\n")
        assert main(["synthesize", str(plant)]) == 2
        assert capsys.readouterr().err == f"error: line 4: {RESERVED.format(repr('-'))}\n"

    def test_gen_requires_seed(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen"])

    def test_export_dot(self, fig3_file, tmp_path):
        dot_dir = tmp_path / "dots"
        assert main(["export-dot", fig3_file, "--ops", "substitute",
                     "--max-insert", "0", "--dot", str(dot_dir)]) == 0
        names = {p.name for p in dot_dir.iterdir()}
        assert {
            "observer_system.dot", "observer_intruder.dot", "observer_defender.dot",
            "game.dot", "trimmed.dot", "mechanism_raw.dot", "mechanism.dot",
            "editor.dot",
        } <= names

    def test_export_dot_requires_dir(self, fig3_file, capsys):
        assert main(["export-dot", fig3_file]) == 2


PIPELINE_COMMANDS = ["game", "trim", "mechanism", "synthesize", "export-dot"]

FLAG_ERRORS = {
    "ops-unknown": (["--ops", "bogus"], "unknown edit operations: ['bogus']"),
    "ops-empty": (["--ops", ""], "unknown edit operations: ['']"),
    "max-insert-negative": (["--max-insert", "-1"],
                            "max insertion length must be nonnegative"),
    "insert-without-budget": (["--ops", "insert", "--max-insert", "0"],
                              "insertion requires a max insertion length of at least 1"),
}


class TestPipelineFlagErrors:
    """Every pipeline command reports the same input errors, in the same order:
    the edit flags first, then the plant file, then a missing export directory."""

    @staticmethod
    def _run(argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    @pytest.mark.parametrize("with_dot", [False, True], ids=["plain", "dot"])
    @pytest.mark.parametrize("flag", sorted(FLAG_ERRORS))
    @pytest.mark.parametrize("command", PIPELINE_COMMANDS)
    def test_bad_edit_flag(self, fig3_file, tmp_path, capsys, command, flag, with_dot):
        # export-dot without --dot reports the bad flag, not the missing dir
        flags, message = FLAG_ERRORS[flag]
        dot_dir = tmp_path / "dots"
        dot = ["--dot", str(dot_dir)] if with_dot else []
        assert self._run([command, fig3_file, *flags, *dot], capsys) == (2, f"error: {message}\n")
        # a bad flag on a missing plant is still reported as the bad flag
        missing = str(tmp_path / "nope.aut")
        assert self._run([command, missing, *flags, *dot], capsys) == (2, f"error: {message}\n")
        assert not dot_dir.exists()

    @pytest.mark.parametrize("flag", sorted(FLAG_ERRORS))
    def test_show_disabled_requires_dot(self, fig3_file, tmp_path, capsys, flag):
        # reported after a bad edit flag and before the plant is read
        need = "error: --show-disabled requires --dot DIR\n"
        missing = str(tmp_path / "nope.aut")
        assert self._run(["trim", fig3_file, "--show-disabled"], capsys) == (2, need)
        assert self._run(["trim", missing, "--show-disabled"], capsys) == (2, need)
        flags, message = FLAG_ERRORS[flag]
        assert self._run(["trim", missing, "--show-disabled", *flags], capsys) == (
            2, f"error: {message}\n")

    def test_no_self_loops_requires_dot(self, fig3_file, tmp_path, capsys):
        # reported before the plant is read
        need = "error: --no-self-loops requires --dot DIR\n"
        missing = str(tmp_path / "nope.aut")
        assert self._run(["observers", fig3_file, "--no-self-loops"], capsys) == (2, need)
        assert self._run(["observers", missing, "--no-self-loops"], capsys) == (2, need)

    @pytest.mark.parametrize("with_dot", [False, True], ids=["plain", "dot"])
    @pytest.mark.parametrize("command", PIPELINE_COMMANDS)
    def test_missing_plant(self, tmp_path, capsys, command, with_dot):
        missing = tmp_path / "nope.aut"
        dot_dir = tmp_path / "dots"
        dot = ["--dot", str(dot_dir)] if with_dot else []
        code, err = self._run([command, str(missing), *dot], capsys)
        assert code == 2
        if command == "export-dot" and not with_dot:
            assert err == "error: export-dot requires --dot DIR\n"
        else:
            assert err == (f"error: cannot read {missing}: [Errno 2] "
                           f"No such file or directory: '{missing}'\n")
        assert not dot_dir.exists()

    @pytest.mark.parametrize("command", [["check"], ["simulate", "a"]],
                             ids=["check", "simulate"])
    def test_missing_transducer(self, fig3_file, tmp_path, capsys, command):
        # the plant and the transducer are read through one helper
        missing = tmp_path / "nope.mealy"
        assert self._run([command[0], fig3_file, str(missing), *command[1:]], capsys) == (
            2, f"error: cannot read {missing}: [Errno 2] "
               f"No such file or directory: '{missing}'\n")


class TestObserversBuiltOnce:
    """Each observer is built once per plant, however many stages read it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = observers.build_observer

        def counting(aut, reactive, full):
            calls.append((frozenset(reactive), frozenset(full)))
            return build(aut, reactive, full)

        monkeypatch.setattr(observers, "build_observer", counting)
        return calls

    def test_check_at_the_default_depth(self, fig3_file, tmp_path, capsys, builds):
        editor = tmp_path / "editor.mealy"
        assert main(["synthesize", fig3_file, "--ops", "substitute", "--max-insert", "0",
                     "-o", str(editor)]) == 0
        builds.clear()
        capsys.readouterr()
        # default_depth and the check both read the intruder and defender observers
        assert main(["check", fig3_file, str(editor), "--max-insert", "0"]) == 0
        assert capsys.readouterr().out == "PASS: ic-enforcing up to depth 145\n"
        _, profile = oe.parse_model(FIG3_TEXT)
        assert builds == [(profile.intruder, profile.observable),
                          (profile.defender, profile.observable)]

    def test_synthesize_with_defender_seeing_everything(self, capsys, builds):
        path = INSTANCES / "gen-37-30-10.aut"
        _, profile = oe.parse_model(path.read_text())
        assert profile.defender == profile.observable  # system and defender observers agree
        assert main(["synthesize", str(path)]) == 0
        assert builds == [(profile.observable, profile.observable),
                          (profile.intruder, profile.observable)]


class TestCyclicCollector:
    """``main`` runs its command with the cyclic collector off and leaves it
    as it found it; the pipeline makes no reference cycles, so nothing
    waits for the collector."""

    @pytest.fixture
    def restore(self):
        collecting = gc.isenabled()
        yield
        (gc.enable if collecting else gc.disable)()

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("raised, code", [(None, 0), (oe.ModelError("bad"), 2),
                                              (RuntimeError("boom"), None)],
                             ids=["returns", "input-error", "raises"])
    def test_main_restores_the_collector(self, fig3_file, monkeypatch, capsys, restore,
                                         collecting, raised, code):
        import opacedit.cli as cli

        seen = []

        def command(args):
            seen.append(gc.isenabled())
            if raised is not None:
                raise raised
            return 0

        monkeypatch.setattr(cli, "cmd_verify", command)
        (gc.enable if collecting else gc.disable)()
        if code is None:
            with pytest.raises(RuntimeError):
                main(["verify", fig3_file])
        else:
            assert main(["verify", fig3_file]) == code
        assert seen == [False]
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("plant", ["gen-27-12-5", "gen-5-8-5", "gen-12-30-10",
                                       "gen-6-16-6", "gen-53-30-10"])
    def test_pipeline_leaves_no_cyclic_garbage(self, plant, restore):
        from opacedit.dot import game_dot, mechanism_dot, trimmed_dot

        def run():
            aut, profile = oe.parse_model((INSTANCES / f"{plant}.aut").read_text())
            game = oe.build_edit_game(aut, profile, k=1)
            whole = plant != "gen-6-16-6"  # its merged mechanism has 229,019 beliefs
            if whole:
                game_dot(game.complete(), aut, io.StringIO())
            tgs = oe.trim_game(game)
            if tgs is None:
                return
            uem = oe.build_uem(tgs)
            if whole:
                trimmed_dot(tgs, aut, io.StringIO())
                mechanism_dot(uem.complete(), aut, io.StringIO())
            em = oe.refine_to_em(uem)
            fe = oe.synthesize(em)
            assert oe.evaluate_editor(aut, profile, fe, 4).ok

        gc.collect()
        gc.disable()
        run()
        assert gc.collect() == 0


def test_readme_walkthrough(tmp_path, monkeypatch, capsys):
    # the plant is README's first text block; each opacedit line of its
    # command-line block must print the "#   " lines below it, if any
    text = README.read_text()
    plant = text.split("```text\n", 1)[1].split("```", 1)[0]
    block = text.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    (tmp_path / "plant.aut").write_text(plant)
    monkeypatch.chdir(tmp_path)
    commands = []
    for line in block.splitlines():
        if line.startswith("opacedit "):
            commands.append((line.split()[1:], []))
        elif line.startswith("#   "):
            commands[-1][1].append(line[4:].split())
    assert [argv[0] for argv, _ in commands] == ["verify", "synthesize", "simulate", "check"]
    codes = []
    for argv, expected in commands:
        codes.append(main(argv))
        printed = [line.split() for line in capsys.readouterr().out.splitlines()]
        if expected:
            assert printed == expected, argv
    assert codes == [1, 0, 0, 0]
