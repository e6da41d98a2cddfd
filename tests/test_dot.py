import hashlib
import io
import json
import tracemalloc
from pathlib import Path

import pytest

import opacedit as oe
from opacedit.cli import main
from opacedit.dot import game_dot, mealy_dot, mechanism_dot, observer_dot, trimmed_dot

from conftest import FIG3_TEXT
from oracles import game_dot_reference, mechanism_dot_reference

BENCH = Path(__file__).resolve().parent.parent / "bench"


def render(export, *args, **kwargs) -> str:
    """The text ``export`` writes for ``args``, streamed into a string."""
    out = io.StringIO()
    export(*args, out, **kwargs)
    return out.getvalue()


class TestObserverDot:
    def test_secret_only_states_are_marked(self, fig3, fig3_observers):
        aut, _ = fig3
        _, o_intr, _ = fig3_observers
        text = render(observer_dot, o_intr, aut, name="intruder")
        assert 'label="{5}", shape=doublecircle, color=red' in text
        assert 'label="{1,4}"' in text

    def test_self_loop_suppression(self, fig3, fig3_observers):
        aut, _ = fig3
        _, o_intr, _ = fig3_observers
        full = render(observer_dot, o_intr, aut)
        bare = render(observer_dot, o_intr, aut, include_self_loops=False)
        assert len(bare.splitlines()) < len(full.splitlines())
        assert 'label="c"' not in bare  # c only self-loops in this observer
        assert 'label="c"' in full

    def test_deterministic(self, fig3, fig3_observers):
        aut, _ = fig3
        for obs in fig3_observers:
            assert render(observer_dot, obs, aut) == render(observer_dot, obs, aut)


class TestGameDot:
    def test_shapes_and_colors(self, fig3_aut, fig3_game):
        text = render(game_dot, fig3_game, fig3_aut)
        assert "shape=ellipse" in text
        assert "shape=box" in text
        assert "fillcolor=red" in text  # the leaking information state
        assert "b→c" in text and "→" in text

    def test_disabled_edges_render_dashed(self, fig3_aut, fig3_tgs):
        text = render(trimmed_dot, fig3_tgs, fig3_aut, include_disabled=True)
        assert "style=dashed, color=gray" in text
        assert '"b→b"' in text
        plain = render(trimmed_dot, fig3_tgs, fig3_aut)
        assert "style=dashed" not in plain


class TestMechanismDot:
    def test_members_listed_per_line(self, fig3_aut, fig3_em):
        text = render(mechanism_dot, fig3_em, fig3_aut)
        assert "({1},{1,4},{1,3})\\n({3},{3,6},{1,3})" in text

    def test_partial_edges_dashed_in_raw_mechanism(self, fig3_aut, fig3_uem):
        text = render(mechanism_dot, fig3_uem, fig3_aut, name="raw")
        assert "style=dashed" in text

    def test_backslash_in_a_state_name_is_escaped(self, tmp_path, capsys):
        # the running example with state 1 renamed q\x
        plant = tmp_path / "plant.aut"
        plant.write_text(FIG3_TEXT.replace(" 1\n", " q\\x\n").replace(" 1 ", " q\\x "))
        assert main(["export-dot", str(plant), "--dot", str(tmp_path)]) == 0
        capsys.readouterr()
        for name in ("game", "mechanism"):
            text = (tmp_path / f"{name}.dot").read_text()
            assert r"q\\x" in text and r"q\x" not in text


class _Sink:
    """A text stream that counts the characters written and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


def _completed(plant: str):
    """A bench plant, its completed game, its trimmed game, and its
    completed merged and refined mechanisms."""
    aut, profile = oe.parse_model((BENCH / "instances" / f"{plant}.aut").read_text())
    game = oe.build_edit_game(aut, profile, k=1).complete()
    tgs = oe.trim_game(game)
    uem = oe.build_uem(tgs).complete()
    return aut, game, tgs, uem, oe.refine_to_em(uem)


@pytest.fixture(scope="module")
def gen27():
    return _completed("gen-27-12-5")


@pytest.fixture(scope="module")
def gen12():
    return _completed("gen-12-30-10")


class TestStreamedMemory:
    """An export streams its lines in blocks of a few dozen, so what it
    allocates while rendering stays below what it writes: gen-27-12-5's
    game about 1.0 M characters and its merged mechanism 3.3 M;
    gen-12-30-10's trimmed game with its disabled actions 0.4 M, and its
    refined mechanism 5.5 M, whose beliefs of up to hundreds of members
    make lines of kilobytes."""

    @pytest.mark.parametrize("plant, export", [
        ("gen27", "game"), ("gen27", "mechanism"), ("gen12", "trimmed"), ("gen12", "refined"),
    ])
    def test_traced_peak_below_characters_written(self, request, plant, export):
        aut, game, tgs, uem, em = request.getfixturevalue(plant)
        sink = _Sink()
        tracemalloc.start()
        try:
            if export == "game":
                game_dot(game, aut, sink)
            elif export == "trimmed":
                trimmed_dot(tgs, aut, sink, include_disabled=True)
            else:
                mechanism_dot(uem if export == "mechanism" else em, aut, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < peak < sink.chars


# the running example with state 1 named q\x and state 3 named q"y
ESCAPED_TEXT = (FIG3_TEXT.replace(" 1\n", " q\\x\n").replace(" 1 ", " q\\x ")
                .replace(" 3\n", ' q"y\n').replace(" 3 ", ' q"y '))


class TestMatchesReference:
    """The exporters write the same bytes as the one-line-per-write
    reference exporters of ``tests/oracles.py``: the completed game, the
    trimmed game with its disabled actions, and the merged and refined
    mechanisms."""

    def _check(self, aut, profile, k):
        game = oe.build_edit_game(aut, profile, k=k).complete()
        assert render(game_dot, game, aut) == render(game_dot_reference, game, aut)
        tgs = oe.trim_game(game)
        if tgs is None:
            return
        assert (render(trimmed_dot, tgs, aut, include_disabled=True)
                == render(game_dot_reference, tgs.game, aut, name="trimmed",
                          disabled=tgs.disabled))
        uem = oe.build_uem(tgs).complete()
        for mech in (uem, oe.refine_to_em(uem)):
            if mech is not None:
                assert (render(mechanism_dot, mech, aut, name="raw")
                        == render(mechanism_dot_reference, mech, aut, name="raw"))

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("seed", range(60))
    def test_random_instances(self, seed, k):
        self._check(*oe.random_instance(seed), k)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_state_names_with_backslash_and_quote(self, k):
        aut, profile = oe.parse_model(ESCAPED_TEXT)
        assert {"q\\x", 'q"y'} <= set(aut.labels)
        self._check(aut, profile, k)
        text = render(game_dot, oe.build_edit_game(aut, profile, k=k).complete(), aut)
        assert r"q\\x" in text and r'q\"y' in text


class TestMealyDot:
    def test_edges_show_input_and_output(self, fig3_fe):
        text = render(mealy_dot, fig3_fe)
        assert '"b / c"' in text
        assert text == render(mealy_dot, fig3_fe)


def _digests(argv, tmp_path, monkeypatch, capsys) -> tuple[int, dict]:
    """Exit code and the sha256 of stdout and of every file a command writes,
    run in an empty directory as the benchmark runs its items."""
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(tmp_path))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return code, out


# Outputs of command paths the benchmark does not hash, recorded before the
# exporters memoized their labels.  gen-12-30-10 has disabled actions.
PINNED = {
    ("game", "gen-5-8-5"): {
        "stdout": "f19d66397dcd6ce445468fec22c2014d08bf2cddebd741bd89ae74b0968e24a1",
        "dot/game.dot": "ea8af59ce6150aa3bb1015a48fedffd1cc6284ec0f6ee91d984921e460f75a73",
    },
    ("trim", "gen-5-8-5"): {
        "stdout": "607898b2da0c42942635678c1c647955c1014609252f72ea681a1a7f119b0b92",
        "dot/trimmed.dot": "79f00e4d4fc120dddb0054a55e77695e8b3e6be9bbb025a8a324b42d3e3fed07",
    },
    ("trim", "gen-12-30-10"): {
        "stdout": "bda0985df23e58d079f6e7ab2799fe328558d1c2e41bbbb2261bb9f576e12dec",
        "dot/trimmed.dot": "8e9a26754cddb85a13b2ce74c4b550d8d7fead734b8adc574db98749a2338318",
    },
    ("mechanism", "gen-5-8-5"): {
        "stdout": "21cfe01c6a3a4a4d6b9230d56ee9b9c2eb9aa6582a6774886a81ab7b203227b8",
        "dot/mechanism.dot": "f723eb48995562b3d459d613fd51e65ea1ea0edb07cd4c10aa58adc4f9c9577a",
        "dot/mechanism_raw.dot": "34ecbb84dc53a22a67b072c01057981205835d48716201e325d1dd0ecec1429c",
    },
}


class TestByteIdentity:
    # tr/export-33-k2 exits 3 after writing the observers and the game
    @pytest.mark.parametrize("item, plant, flags", [
        ("ce/export-5", "gen-5-8-5", []), ("mh/export-27", "gen-27-12-5", []),
        ("tr/export-33-k2", "gen-33-30-10", ["--max-insert", "2"]),
    ])
    def test_export_matches_benchmark_digests(self, tmp_path, monkeypatch, capsys,
                                              item, plant, flags):
        want = json.loads((BENCH / "expected.json").read_text())["items"][item]
        code, got = _digests(
            ["export-dot", str(BENCH / "instances" / f"{plant}.aut"),
             "--dot", "dot", "-o", "editor.mealy", *flags],
            tmp_path, monkeypatch, capsys)
        assert code == want["exit"]
        assert got == {"stdout": want["stdout"], **want["files"]}

    @pytest.mark.parametrize("command, plant", sorted(PINNED))
    def test_stage_commands_match_pinned_digests(self, tmp_path, monkeypatch, capsys,
                                                 command, plant):
        flags = ["--show-disabled"] if command == "trim" else []
        code, got = _digests(
            [command, str(BENCH / "instances" / f"{plant}.aut"), "--dot", "dot", *flags],
            tmp_path, monkeypatch, capsys)
        assert code == 0
        assert got == PINNED[(command, plant)]


class TestMechanismRenderedOnce:
    """``mechanism.dot`` reuses the raw render when refinement removes
    nothing (gen-27-12-5: no partial pair) and is rendered again otherwise
    (gen-5-8-5: 339 partial pairs, so the raw render has dashed edges)."""

    @pytest.mark.parametrize("command", ["export-dot", "mechanism"])
    @pytest.mark.parametrize("plant, renders", [("gen-27-12-5", 1), ("gen-5-8-5", 2)])
    def test_renders(self, tmp_path, monkeypatch, capsys, command, plant, renders):
        import opacedit.cli as cli

        names = []

        def counting(mech, aut, out, name="mechanism"):
            names.append(name)
            mechanism_dot(mech, aut, out, name=name)

        monkeypatch.setattr(cli, "mechanism_dot", counting)
        path = BENCH / "instances" / f"{plant}.aut"
        assert main([command, str(path), "--dot", str(tmp_path)]) == 0
        assert len(names) == renders
        aut, profile = oe.parse_model(path.read_text())
        tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=1))
        em = oe.refine_to_em(oe.build_uem(tgs).complete())
        assert (tmp_path / "mechanism.dot").read_text() == render(mechanism_dot, em, aut)


class TestGameRenderedOnce:
    """``export-dot`` renders the game once when trimming removes nothing
    (gen-27-12-5), through ``trimmed_dot``, and copies ``trimmed.dot`` to
    ``game.dot`` under the graph name ``game``; where trimming removes
    states (gen-12-30-10: 418) it renders both."""

    @pytest.mark.parametrize("plant, renders", [("gen-27-12-5", ["trimmed"]),
                                                ("gen-12-30-10", ["game", "trimmed"])])
    def test_renders(self, tmp_path, monkeypatch, capsys, plant, renders):
        import opacedit.cli as cli
        import opacedit.dot as dot

        names = []

        def counting(game, aut, out, name="game", disabled=None):
            names.append(name)
            game_dot(game, aut, out, name=name, disabled=disabled)

        monkeypatch.setattr(cli, "game_dot", counting)
        monkeypatch.setattr(dot, "game_dot", counting)
        path = BENCH / "instances" / f"{plant}.aut"
        assert main(["export-dot", str(path), "--dot", str(tmp_path)]) == 0
        assert names == renders
        aut, profile = oe.parse_model(path.read_text())
        game = oe.build_edit_game(aut, profile, k=1).complete()
        tgs = oe.trim_game(game)
        assert (tgs.game is game) == (len(renders) == 1)
        assert (tmp_path / "game.dot").read_text() == render(game_dot, game, aut)
        assert (tmp_path / "trimmed.dot").read_text() == render(trimmed_dot, tgs, aut)
