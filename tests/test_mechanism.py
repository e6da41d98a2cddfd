import io
import tracemalloc
from pathlib import Path
from typing import Optional

import pytest

import opacedit as oe
from opacedit.dot import mechanism_dot
from opacedit.game import EditAction, PASSTHROUGH

from conftest import FORCED_LEAK_TEXT, SUBS_ONLY, code, info
from oracles import (AugmentedState, decode, decoded, decoded_key, merged_a_key, merged_f_key,
                     refine_naive, refine_reference, sweep_dead, unobservable_closure_reference)


INSTANCES = Path(__file__).resolve().parent.parent / "bench" / "instances"
EDITORS = INSTANCES.parent / "editors"


def T(s):
    return tuple(s)


class TestUnobservableClosure:
    def test_initial_closure_absorbs_the_silent_prefix(self, fig3_aut, fig3_tgs):
        got = oe.Mechanism(fig3_tgs.game)._closure([fig3_tgs.game.initial])
        assert decoded(fig3_tgs.game, got) == {
            info(fig3_aut, "1", "14", "13"),
            info(fig3_aut, "3", "36", "13"),
        }

    def test_fixed_point_without_silent_moves(self, fig3_aut, fig3_tgs):
        still = code(fig3_tgs.game, info(fig3_aut, "5", "36", "46"))
        assert oe.Mechanism(fig3_tgs.game)._closure([still]) == {still}

    def test_idempotent(self, fig3_tgs):
        uem = oe.Mechanism(fig3_tgs.game)
        once = uem._closure([fig3_tgs.game.initial])
        assert uem._closure(sorted(once)) == once


class TestClosuresAreTheReference:
    """Every closure the mechanism's component search records equals the
    per-seed search of the oracle; members of one strongly connected
    component share one closure object."""

    @staticmethod
    def _check(aut, profile) -> Optional[bool]:
        """True when two nodes share a closure object; None when trimming
        refutes the plant."""
        tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=1))
        if tgs is None:
            return None
        closures = oe.build_uem(tgs).complete()._closures
        for v, closed in closures.items():
            assert closed == unobservable_closure_reference(tgs.game, (v,))
        return len({id(c) for c in closures.values()}) < len(closures)

    def test_random_plants(self):
        shared = [self._check(*oe.random_instance(seed, 8, 5)) for seed in range(100)]
        assert any(shared)  # silent cycles occur among the seeds

    def test_components_share_on_a_bench_plant(self):
        assert self._check(*oe.parse_model((INSTANCES / "gen-12-30-10.aut").read_text()))


class TestBuildUem:
    def test_initial_member_pair(self, fig3_aut, fig3_uem):
        assert decoded(fig3_uem.game, fig3_uem.initial) == frozenset({
            info(fig3_aut, "1", "14", "13"),
            info(fig3_aut, "3", "36", "13"),
        })

    def test_observation_b_merges_the_two_branches(self, fig3_aut, fig3_uem):
        vuf = fig3_uem.moves_in[fig3_uem.initial]["b"]
        assert {decode(fig3_uem.game, m).pending for m in vuf} == {"b"}
        assert decoded(fig3_uem.game, vuf) == frozenset({
            AugmentedState(info(fig3_aut, "2", "14", "13"), "b"),
            AugmentedState(info(fig3_aut, "5", "36", "13"), "b"),
        })

    def test_passthrough_after_b_is_partial(self, fig3_aut, fig3_uem):
        vuf = fig3_uem.moves_in[fig3_uem.initial]["b"]
        assert (vuf, PASSTHROUGH) in fig3_uem.partial
        assert decoded(fig3_uem.game, fig3_uem.moves_out[vuf][PASSTHROUGH]) == frozenset({
            info(fig3_aut, "2", "2", "25"),
        })

    def test_members_share_the_observation(self, fig3_uem):
        for row in fig3_uem.moves_in.values():
            for event, vuf in row.items():
                assert all(decode(fig3_uem.game, m).pending == event for m in vuf)

    def test_full_defender_alphabet_means_no_merging(self, fig3_aut):
        profile = oe.ObservationProfile(
            observable=frozenset("abcd"),
            intruder=frozenset("abd"),
            defender=frozenset("abcd"),
        )
        game = oe.build_edit_game(fig3_aut, profile, k=0, ops=SUBS_ONLY)
        tgs = oe.trim_game(game)
        uem = oe.build_uem(tgs).complete()
        assert all(len(v) == 1 for v in uem.ua_states)
        assert all(len(v) == 1 for v in uem.uf_states)
        assert len(uem.ua_states) == len(tgs.game.a_states)

    def test_no_duplicate_member_sets(self, fig3_uem):
        assert len(set(fig3_uem.ua_states)) == len(fig3_uem.ua_states)
        assert len(set(fig3_uem.uf_states)) == len(fig3_uem.uf_states)


class TestCanonicalOrder:
    """Beliefs and observation states are ordered by their sorted members'
    keys; ``test_completion_matches_expanding_everything_first`` checks that
    the order the rows were added in does not matter."""

    @staticmethod
    def _check(uem):
        assert uem.ua_states == tuple(sorted(uem.moves_in, key=decoded_key(uem.game, merged_a_key)))
        assert uem.uf_states == tuple(sorted(uem.moves_out,
                                             key=decoded_key(uem.game, merged_f_key)))
        assert not uem.moves_in.keys() & uem.moves_out.keys()

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", range(60))
    def test_canonical_order_is_the_key_order(self, seed, k):
        aut, profile = oe.random_instance(seed)
        tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=k))
        if tgs is None:
            return
        self._check(oe.build_uem(tgs).complete())

    def test_canonical_order_on_a_bench_plant(self):
        aut, profile = oe.parse_model((INSTANCES / "gen-5-8-5.aut").read_text())
        uem = oe.build_uem(oe.trim_game(oe.build_edit_game(aut, profile, k=1))).complete()
        assert len(uem.moves_in) == 1293
        self._check(uem)


class TestRefineToEm:
    def test_partial_passthrough_successor_is_gone(self, fig3_aut, fig3_em):
        vuf = fig3_em.moves_in[fig3_em.initial]["b"]
        assert PASSTHROUGH not in fig3_em.moves_out[vuf]
        ghost = frozenset({code(fig3_em.game, info(fig3_aut, "2", "2", "25"))})
        assert ghost not in set(fig3_em.ua_states)

    def test_nonempty_and_guaranteed(self, fig3_em):
        assert isinstance(fig3_em, oe.EditMechanism)
        assert not fig3_em.partial
        for vuf in fig3_em.uf_states:
            assert fig3_em.moves_out[vuf]

    def test_total_mechanism_is_unchanged(self, fig3_aut):
        profile = oe.ObservationProfile(
            observable=frozenset("abcd"),
            intruder=frozenset("abd"),
            defender=frozenset("abcd"),
        )
        game = oe.build_edit_game(fig3_aut, profile, k=0, ops=SUBS_ONLY)
        uem = oe.build_uem(oe.trim_game(game)).complete()
        assert not uem.partial
        em = oe.refine_to_em(uem)
        assert em is not None
        assert set(em.ua_states) == set(uem.ua_states)
        assert set(em.uf_states) == set(uem.uf_states)

    def test_forced_leak_refines_to_nothing(self):
        aut, profile = oe.parse_model(FORCED_LEAK_TEXT)
        tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=1))
        assert tgs is not None  # the refutation is refinement's
        assert oe.refine_to_em(oe.build_uem(tgs)) is None

    def test_rows_that_lost_nothing_are_shared(self, fig3_uem, fig3_em):
        assert all(row is fig3_uem.moves_in[v] for v, row in fig3_em.moves_in.items())
        for vuf, row in fig3_em.moves_out.items():
            assert (row is fig3_uem.moves_out[vuf]) == (row == fig3_uem.moves_out[vuf])
        assert any(row is not fig3_uem.moves_out[vuf] for vuf, row in fig3_em.moves_out.items())

    def test_member_totality_after_refinement(self, fig3_tgs, fig3_em):
        for vuf in fig3_em.uf_states:
            for act in fig3_em.moves_out[vuf]:
                for member in vuf:
                    assert act in fig3_tgs.game.def_moves[member]

    @pytest.mark.parametrize("seed", range(50))
    def test_worklist_equals_naive_sweep(self, seed):
        aut, profile = oe.random_instance(seed)
        tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=1))
        if tgs is None:
            return
        uem = oe.build_uem(tgs).complete()
        fast = oe.refine_to_em(uem)
        slow = refine_naive(uem)
        if fast is None or slow is None:
            assert fast is None and slow is None
            return
        assert fast.ua_states == slow.ua_states
        assert fast.uf_states == slow.uf_states
        assert fast.moves_in == slow.moves_in
        assert fast.moves_out == slow.moves_out


class TestClosedRefinement:
    """A completed mechanism with no partial action and nothing dead is its
    own refinement; every mechanism, completed or fresh, refines to the
    verdict and rows of the walk, the backward attractor and the live part
    (``refine_reference``)."""

    @staticmethod
    def _same(got, want) -> None:
        assert (got is None) == (want is None)
        if want is not None:
            assert got.moves_in == want.moves_in
            assert got.moves_out == want.moves_out

    @pytest.mark.parametrize("k", [0, 1])
    def test_random_plants(self, k):
        won = shortcut = 0
        for seed in range(300):
            aut, profile = oe.random_instance(seed, 6, 4)
            tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=k))
            if tgs is None:
                continue
            self._same(oe.refine_to_em(oe.build_uem(tgs)),
                       refine_reference(oe.build_uem(tgs)))
            uem = oe.build_uem(tgs).complete()
            em = oe.refine_to_em(uem)
            self._same(em, refine_reference(uem))
            won += em is not None
            if not uem.partial and not uem._solver.dead:
                assert all(em.moves_in[v] is row for v, row in uem.moves_in.items())
                assert all(em.moves_out[vf] is row for vf, row in uem.moves_out.items())
                shortcut += 1
        assert 0 < shortcut < won

    def test_fourteen_state_anchor_expands_as_before(self):
        aut, profile = oe.parse_model((INSTANCES / "gen-6-16-6.aut").read_text())
        uem = oe.build_uem(oe.trim_game(oe.build_edit_game(aut, profile)))
        assert oe.refine_to_em(uem) is not None
        assert len(uem.moves_in) == 399


class TestSynthesize:
    def test_fig3_transducer_maps_bc_to_cd(self, fig3_fe):
        state = fig3_fe.initial
        word1, state = fig3_fe.step(state, "b")
        word2, state = fig3_fe.step(state, "c")
        assert word1 == T("c")
        assert word2 == T("d")

    def test_full_emission_for_abc(self, fig3_fe):
        out = []
        state = fig3_fe.initial
        for event in T("abc"):
            word, state = fig3_fe.step(state, event)
            out.extend(word)
        assert tuple(out) == T("acd")

    def test_never_selects_the_pruned_passthrough(self, fig3_em):
        for policy in oe.POLICIES:
            fe = oe.synthesize(fig3_em, policy=policy)
            assert fe.step(fe.initial, "b")[0] != T("b")

    def test_policy_independent_when_nothing_to_choose(self, fig3_tgs, fig3_em):
        key = oe.POLICIES["prefer-passthrough"]
        uem = oe.build_uem(fig3_tgs).complete()
        for vuf, acts in fig3_em.moves_out.items():  # one winning action each
            act = min(acts, key=key)
            uem.moves_out[vuf] = {act: acts[act]}
        narrowed = oe.refine_to_em(uem)
        assert all(len(acts) == 1 for acts in narrowed.moves_out.values())
        behaviors = {
            (fe.n_states, fe.initial, tuple(sorted(fe.edges.items())))
            for fe in (oe.synthesize(narrowed, policy=p) for p in oe.POLICIES)
        }
        assert len(behaviors) == 1

    def test_policies_can_disagree(self, fig3_em):
        passthrough = oe.synthesize(fig3_em, policy="prefer-passthrough")
        substitute = oe.synthesize(fig3_em, policy="prefer-substitute")
        assert oe.format_mealy(passthrough) != oe.format_mealy(substitute)

    def test_unknown_policy_rejected(self, fig3_em):
        with pytest.raises(ValueError):
            oe.synthesize(fig3_em, policy="nope")

    def test_requires_refined_mechanism(self, fig3_uem):
        with pytest.raises(ValueError):
            oe.synthesize(fig3_uem)

    def test_deterministic_output(self, fig3_em):
        once = oe.format_mealy(oe.synthesize(fig3_em))
        again = oe.format_mealy(oe.synthesize(fig3_em))
        assert once == again


_PLANT = dict(labels=("s", "t"), events=("a", "b"), delta={(0, "a"): 1}, initial=0,
              secret=frozenset({1}))
_PROFILE = dict(observable=frozenset("ab"), intruder=frozenset("a"), defender=frozenset("b"))
# record -> (field values, another valid value per field, hashable,
# construction errors as (overridden fields, message))
RECORDS = {
    "FiniteAutomaton": (
        _PLANT,
        dict(labels=("s", "u"), events=("a", "c"), delta={}, initial=1, secret=frozenset()),
        False,
        [(dict(labels=()), "automaton needs at least one state"),
         (dict(labels=("s", "s")), "state labels must be unique"),
         (dict(events=("a", "a")), "event ids must be unique"),
         (dict(labels=("s", "t u")), "state id 't u' must be printable, nonempty, whitespace-free"),
         (dict(events=("a", "-")), "event id '-' is reserved: the transducer format writes "
                                   "'-' for the empty word and joins words with '·'"),
         (dict(initial=2), "initial state out of range"),
         (dict(secret=frozenset({2})), "secret state out of range"),
         (dict(delta={(0, "a"): 2}), "transition (0,a,2) references unknown state"),
         (dict(delta={(0, "c"): 1}), "transition event 'c' not declared")]),
    "ObservationProfile": (
        _PROFILE,
        dict(observable=frozenset("abc"), intruder=frozenset(), defender=frozenset("a")),
        True,
        [(dict(intruder=frozenset("c")),
          "intruder alphabet must be a subset of the observable one"),
         (dict(defender=frozenset("c")),
          "defender alphabet must be a subset of the observable one")]),
    "MealyEditFunction": (
        dict(alphabet=frozenset("b"), n_states=1, initial=0, edges={(0, "b"): (("b",), 0)},
             policy="hand"),
        dict(alphabet=frozenset(), n_states=2, initial=1, edges={}, policy=""),
        False, []),
    "TrimmedGameStructure": (
        dict(game="game", disabled={0: ()}, removed_a=(1,), removed_f=(2,)),
        dict(game="other", disabled={}, removed_a=(), removed_f=()),
        False, []),
    "OpacityVerdict": (
        dict(opaque=False, witness=("a",)), dict(opaque=True, witness=None), True, []),
    "OracleVerdict": (
        dict(ok=False, failed_property="confidentiality", counterexample=("a",)),
        dict(ok=True, failed_property=None, counterexample=None),
        True, []),
    "SimulationStep": (
        dict(plant_event="a", editor_output=("b",), intruder_estimate=frozenset({0}),
             defender_estimate=frozenset({1}), plant_state=1, leak=True),
        dict(plant_event="b", editor_output=(), intruder_estimate=frozenset(),
             defender_estimate=frozenset(), plant_state=0, leak=False),
        True, []),
}


def _copy(fields: dict) -> dict:
    return {f: dict(v) if isinstance(v, dict) else v for f, v in fields.items()}


class TestSerialization:
    @pytest.mark.parametrize(
        "case", ["fig3_fe"] + sorted(p.name for p in EDITORS.glob("*.mealy")))
    def test_round_trip(self, case, request):
        """The synthesized fig3 editor and every stored bench editor survive
        a text round trip, and ``step`` reads their edge table."""
        if case == "fig3_fe":
            fe = request.getfixturevalue("fig3_fe")
            text = oe.format_mealy(fe)
        else:
            fe, text = None, (EDITORS / case).read_text()
        back = oe.parse_mealy(text)
        assert fe is None or back == fe
        assert oe.format_mealy(back) == text
        for (q, event), edge in back.edges.items():
            assert back.step(q, event) == edge
        assert "z" not in back.alphabet
        for q in range(back.n_states):
            for event in sorted(back.alphabet):
                if (q, event) not in back.edges:
                    assert back.step(q, event) is None
            assert back.step(q, "z") == (("z",), q)

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_records_are_values(self, name):
        """Every record compares field by field, and is hashable exactly
        where its fields are; a transducer's beliefs are not compared, and
        the plant and the profile refuse bad fields with fixed messages."""
        fields, other, hashable, errors = RECORDS[name]
        record = getattr(oe, name)
        a, b = record(**_copy(fields)), record(**_copy(fields))
        assert a == b and not a != b
        for field, value in other.items():
            changed = record(**dict(_copy(fields), **{field: value}))
            assert changed != a and not changed == a, field
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)
        if name == "MealyEditFunction":
            assert record(**_copy(fields), beliefs=(frozenset({0}),)) == a
        for overrides, message in errors:
            with pytest.raises(oe.ModelError) as exc:
                record(**dict(_copy(fields), **overrides))
            assert str(exc.value) == message

    def test_epsilon_and_insertion_words(self, fig3_profile):
        fe = oe.MealyEditFunction(
            alphabet=fig3_profile.defender,
            n_states=2,
            initial=0,
            edges={(0, "b"): ((), 1), (0, "c"): (T("db"), 0), (1, "d"): (T("d"), 1)},
            policy="hand",
        )
        back = oe.parse_mealy(oe.format_mealy(fe))
        assert back == fe

    def test_malformed_edge_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            oe.parse_mealy("alphabet a\nnot an edge\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            oe.parse_mealy("alphabet a b\n0 a / b 0\n0 a / a 0\n")

    def test_missing_alphabet_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            oe.parse_mealy("0 a / b 0\n")

    @pytest.mark.parametrize("text, message", [
        ("alphabet a\nstates\n0 a / a 0\n", "line 2: states takes exactly one nonnegative integer"),
        ("alphabet a\nstates 1\ninitial\n0 a / a 0\n",
         "line 3: initial takes exactly one nonnegative integer"),
        ("alphabet a\nstates one\n0 a / a 0\n", "line 2: states takes exactly one nonnegative integer"),
        ("alphabet a\nstates 1\ninitial 0.5\n", "line 3: initial takes exactly one nonnegative integer"),
        ("alphabet a\nstates -1\n", "line 2: states takes exactly one nonnegative integer"),
        ("alphabet a\nstates 1 2\n0 a / a 0\n", "line 2: states takes exactly one nonnegative integer"),
        ("alphabet a\nstates 2\ninitial 0 1\n0 a / a 0\n",
         "line 3: initial takes exactly one nonnegative integer"),
        ("alphabet a\nstates 1\nalphabet a b\n0 a / a 0\n", "line 3: alphabet declared twice"),
        ("alphabet a\nstates 2\n0 a / a 0\nstates 1\n", "line 4: states declared twice"),
        ("alphabet a\nstates 2\ninitial 1\ninitial 0\n0 a / a 0\n",
         "line 4: initial declared twice"),
        ("policy\nalphabet a\nstates 1\n", "line 1: policy takes exactly one name"),
        ("policy a b\npolicy c\nalphabet a\nstates 1\n",
         "line 1: policy takes exactly one name"),
        ("policy a\nalphabet a\nstates 1\npolicy c\n", "line 4: policy declared twice"),
    ], ids=["bare-states", "bare-initial", "word-count", "fraction", "negative", "states-extra",
            "initial-extra", "alphabet-twice", "states-twice", "initial-twice", "bare-policy",
            "policy-extra", "policy-twice"])
    def test_malformed_header_rejected_with_its_line(self, text, message):
        with pytest.raises(ValueError) as exc:
            oe.parse_mealy(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, line, message", [
        ("alphabet a\nstates 1 2\n", 2, "states takes exactly one nonnegative integer"),
        ("policy a\nalphabet a\npolicy c\n", 3, "policy declared twice"),
        ("alphabet a\n\n# an edge\n0 a /a 0\n", 4, "malformed transducer edge '0 a /a 0'"),
        ("alphabet a\nstates 1\n0 a / a 0\n0 a / - 0\n", 4, "duplicate edge for state 0 on 'a'"),
        ("states 1\nalphabet a b a\n", 2, "event 'a' declared twice"),
        ("alphabet a\nstates 1\n0 a / a··a 0\n", 3,
         "event id '' must be printable, nonempty, whitespace-free"),
        ("alphabet a -\n", 1, "event id '-' is reserved: the transducer format writes '-' "
         "for the empty word and joins words with '·'"),
        ("alphabet a\nstates 1\n0 a / a·- 0\n", 3, "event id '-' is reserved: the transducer "
         "format writes '-' for the empty word and joins words with '·'"),
        ("alphabet a\nstates 1\n0 b / b 0\n", 3,
         "transducer edge from state 0 on 'b' outside the alphabet"),
        ("alphabet a\nstates 1\n0 a / a 1\n", 3, "transducer state 1 outside [0, 1)"),
        ("alphabet a\n0 a / a 0\n# the header after the edge\nstates 1\ninitial 2\n", 5,
         "transducer state 2 outside [0, 1)"),
    ], ids=["header", "repeated-directive", "edge", "duplicate-edge", "alphabet-id-twice",
            "empty-output-event", "reserved-alphabet-id", "reserved-output-event",
            "foreign-event", "state-range", "initial-range"])
    def test_errors_on_a_line_are_parse_errors_naming_it(self, text, line, message):
        # transducer ids follow the plant format's rules, through its reader
        with pytest.raises(oe.ParseError) as exc:
            oe.parse_mealy(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("text, message", [
        ("states 1\n", "transducer text lacks an alphabet line"),
        ("alphabet a\n", "transducer text lacks a states line"),
        ("alphabet a\nstates 0\n", "transducer state 0 outside [0, 0)"),
    ], ids=["no-alphabet", "no-states", "default-initial-range"])
    def test_errors_without_a_line_are_parse_errors(self, text, message):
        with pytest.raises(oe.ParseError) as exc:
            oe.parse_mealy(text)
        assert exc.value.line is None
        assert str(exc.value) == message

    def test_comments_and_blank_lines_are_skipped(self, fig3_fe):
        # the plant format's reader: '#' starts a comment anywhere on a line
        text = oe.format_mealy(fig3_fe)
        lines = text.splitlines()
        noisy = ["# synthesized", "", *(f"  {line}   # line {i}" for i, line in enumerate(lines)),
                 "   ", "#"]
        assert oe.parse_mealy("\n".join(noisy)) == oe.parse_mealy(text) == fig3_fe


class TestMechanismAgreement:
    @pytest.mark.parametrize("seed", range(25))
    def test_synthesized_editors_enforce(self, seed):
        aut, profile = oe.random_instance(seed)
        game = oe.build_edit_game(aut, profile, k=1)
        tgs = oe.trim_game(game)
        em = oe.refine_to_em(oe.build_uem(tgs)) if tgs else None
        if em is None:
            return
        for policy in oe.POLICIES:
            fe = oe.synthesize(em, policy=policy)
            assert oe.exact_ic_check(aut, profile, fe)


def _needs_backtracking(uem, em, fe, policy) -> bool:
    """Whether some observation state the transducer meets has a
    policy-preferred uncut action that loses, so a walk that never undid a
    choice would pick wrongly.  ``uem`` and ``em`` are complete."""
    key = oe.POLICIES[policy]
    for vua in fe.beliefs:
        for vuf in uem.moves_in[vua].values():
            uncut = [a for a in uem.moves_out[vuf] if (vuf, a) not in uem.partial]
            if min(uncut, key=key) != min(em.moves_out[vuf], key=key):
                return True
    return False


# (max_states, seed); seeds 9 and 48 need backtracking
DEMAND_CASES = [(5, seed) for seed in range(12)] + [(8, 9), (10, 48), (12, 48)]


class TestDemandDriven:
    """The demand-driven walk against the completed mechanism."""

    @staticmethod
    def _tgs(max_states, seed):
        aut, profile = oe.random_instance(seed, max_states=max_states)
        return oe.trim_game(oe.build_edit_game(aut, profile, k=1))

    @pytest.mark.parametrize("max_states,seed", DEMAND_CASES)
    def test_lazy_equals_completed(self, max_states, seed):
        tgs = self._tgs(max_states, seed)
        if tgs is None:
            return
        full = oe.refine_to_em(oe.build_uem(tgs).complete())
        for policy in oe.POLICIES:
            uem = oe.build_uem(tgs)
            lazy = oe.refine_to_em(uem)
            assert (lazy is None) == (full is None)
            if full is None:
                continue
            got = oe.synthesize(lazy, policy=policy)
            want = oe.synthesize(full, policy=policy)
            assert oe.format_mealy(got) == oe.format_mealy(want)
            assert got.beliefs == want.beliefs
            assert len(uem.ua_states) <= len(full.source.ua_states)

    def test_cases_include_backtracking(self):
        needing = set()
        for max_states, seed in DEMAND_CASES:
            tgs = self._tgs(max_states, seed)
            if tgs is None:
                continue
            uem = oe.build_uem(tgs).complete()
            em = oe.refine_to_em(uem)
            for policy in oe.POLICIES if em is not None else ():
                if _needs_backtracking(uem, em, oe.synthesize(em, policy), policy):
                    needing.add((max_states, seed, policy))
        assert needing

    def test_reading_never_expands(self, fig3_tgs):
        uem = oe.build_uem(fig3_tgs)
        assert uem.ua_states == () and uem.uf_states == () and not uem.partial
        uem.expand(uem.initial)
        assert uem.ua_states == (uem.initial,)
        assert len(uem.uf_states) == len(uem.moves_in[uem.initial])

    def test_completion_matches_expanding_everything_first(self, fig3_tgs):
        lazy = oe.build_uem(fig3_tgs)
        oe.synthesize(oe.refine_to_em(lazy), policy="prefer-insert")
        lazy.complete()
        whole = oe.build_uem(fig3_tgs).complete()
        assert lazy.ua_states == whole.ua_states
        assert lazy.uf_states == whole.uf_states
        assert lazy.partial == whole.partial
        assert lazy.moves_in == whole.moves_in
        assert lazy.moves_out == whole.moves_out

    @pytest.mark.parametrize("seed,k,ops", [
        (376, 1, oe.OPS_ALL),
        (9, 0, frozenset({"delete"})),
    ], ids=["all-ops", "delete-only"])
    def test_refuted_at_refine_without_completion(self, seed, k, ops):
        aut, profile = oe.random_instance(seed)
        tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=k, ops=ops))
        assert tgs is not None
        uem = oe.build_uem(tgs)
        assert oe.refine_to_em(uem) is None
        assert len(uem.ua_states) < len(oe.build_uem(tgs).complete().ua_states)

    def test_default_synthesis_expands_few_beliefs(self):
        aut, profile = oe.parse_model((INSTANCES / "gen-27-12-5.aut").read_text())
        tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=1))
        uem = oe.build_uem(tgs)
        oe.synthesize(oe.refine_to_em(uem))
        assert len(uem.ua_states) <= 200  # of 4,625 in the whole mechanism

    def test_fourteen_state_anchor_synthesizes(self, capsys):
        from opacedit.cli import main

        path = INSTANCES / "gen-6-16-6.aut"
        assert main(["synthesize", str(path)]) == 0
        fe = oe.parse_mealy(capsys.readouterr().out)
        aut, profile = oe.parse_model(path.read_text())
        assert oe.exact_ic_check(aut, profile, fe)


class TestSolverFedByExpand:
    """``expand`` feeds every row it builds to the mechanism's solver, so the
    solver's dead set is the naive fixpoint over the expanded rows, where
    unexpanded beliefs count as live, both after completion and after a
    demand-driven refinement."""

    CASES = [(5, seed) for seed in range(40)] + DEMAND_CASES

    @staticmethod
    def _naive(uem):
        return sweep_dead(uem.moves_in, uem.moves_out, (), uem.partial)

    def test_dead_is_the_fixpoint_over_the_rows_built(self):
        with_dead = 0
        for max_states, seed in self.CASES:
            aut, profile = oe.random_instance(seed, max_states=max_states)
            tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=1))
            if tgs is None:
                continue
            whole = oe.build_uem(tgs).complete()
            assert whole._solver.dead == self._naive(whole)
            with_dead += bool(whole._solver.dead)
            lazy = oe.build_uem(tgs)
            oe.refine_to_em(lazy)
            assert lazy._solver.dead == self._naive(lazy)
        assert with_dead


class TestOverAnyGame:
    """``Mechanism`` reads a game only through ``expand`` and ``def_moves``.
    Where trimming removes nothing, the mechanism over the untrimmed,
    on-demand game is the one over the trimmed game."""

    @staticmethod
    def _check(aut, profile, k) -> bool:
        """Compare the two mechanisms; False when trimming removes something."""
        tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=k))
        if tgs is None or tgs.removed_a or tgs.removed_f:
            return False
        got = oe.Mechanism(oe.build_edit_game(aut, profile, k=k)).complete()
        want = oe.build_uem(tgs).complete()
        assert got.initial == want.initial
        assert got.moves_in == want.moves_in
        assert got.moves_out == want.moves_out
        assert got.ua_states == want.ua_states
        assert got.uf_states == want.uf_states
        assert got.partial == want.partial
        dots = io.StringIO(), io.StringIO()
        mechanism_dot(got, aut, dots[0])
        mechanism_dot(want, aut, dots[1])
        assert dots[0].getvalue() == dots[1].getvalue()
        em_got, em_want = oe.refine_to_em(got), oe.refine_to_em(want)
        assert (em_got is None) == (em_want is None)
        for policy in oe.POLICIES if em_want is not None else ():
            assert (oe.format_mealy(oe.synthesize(em_got, policy))
                    == oe.format_mealy(oe.synthesize(em_want, policy)))
        return True

    @pytest.mark.parametrize("k", [1, 2])
    def test_random_plants(self, k):
        compared = sum(self._check(*oe.random_instance(seed), k) for seed in range(40))
        assert compared >= 20

    def test_bench_plant(self):
        aut, profile = oe.parse_model((INSTANCES / "gen-27-12-5.aut").read_text())
        assert self._check(aut, profile, 1)


class TestRowsInCanonicalActionOrder:
    """Every action row is built in ``EditAction.sort_key`` order: the
    game's from its menus, the mechanism's by walking them, and the live
    parts keep the order of the rows they filter.  Every system row and
    every belief row lists its events in strictly increasing order, the
    order the belief walk and the DOT export read them in."""

    @staticmethod
    def _in_order(rows) -> bool:
        return all(list(row) == sorted(row, key=EditAction.sort_key) for row in rows.values())

    @staticmethod
    def _events_increase(rows) -> bool:
        return all(a < b for row in rows.values() for a, b in zip(row, list(row)[1:]))

    @pytest.mark.parametrize("k", [1, 2])
    def test_random_plants(self, k):
        for seed in range(40):
            aut, profile = oe.random_instance(seed)
            game = oe.build_edit_game(aut, profile, k=k).complete()
            assert self._in_order(game.def_moves)
            assert self._events_increase(game.sys_moves)
            tgs = oe.trim_game(game)
            if tgs is None:
                continue
            assert self._in_order(tgs.game.def_moves)
            assert self._events_increase(tgs.game.sys_moves)
            uem = oe.build_uem(tgs).complete()
            assert self._in_order(uem.moves_out)
            assert self._events_increase(uem.moves_in)
            em = oe.refine_to_em(uem)
            if em is not None:
                assert self._in_order(em.moves_out)
                assert self._events_increase(em.moves_in)


class TestOneObjectPerState:
    """The completed mechanism holds one object per belief and per
    observation state: each ``moves_in`` row names ``moves_out``'s keys
    and each ``moves_out`` row ``moves_in``'s keys."""

    @staticmethod
    def _check(uem) -> None:
        beliefs = {v: v for v in uem.moves_in}
        observations = {vf: vf for vf in uem.moves_out}
        assert all(observations[vf] is vf for row in uem.moves_in.values() for vf in row.values())
        assert all(beliefs[v] is v for row in uem.moves_out.values() for v in row.values())
        assert beliefs[uem.initial] is uem.initial

    @pytest.mark.parametrize("plant", ["gen-27-12-5", "gen-5-8-5"])
    def test_bench_plants(self, plant):
        aut, profile = oe.parse_model((INSTANCES / f"{plant}.aut").read_text())
        self._check(oe.build_uem(oe.trim_game(oe.build_edit_game(aut, profile, k=1))).complete())

    def test_random_plants(self):
        checked = 0
        for seed in range(30):
            tgs = oe.trim_game(oe.build_edit_game(*oe.random_instance(seed), k=1))
            if tgs is not None:
                self._check(oe.build_uem(tgs).complete())
                checked += 1
        assert checked >= 15

    def test_completed_mechanism_memory(self):
        # gen-27-12-5: 4,625 beliefs and 6,000 observation states; about
        # 18 MB when each row held its own copy of the sets it names
        aut, profile = oe.parse_model((INSTANCES / "gen-27-12-5.aut").read_text())
        tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=1))
        tracemalloc.start()
        try:
            uem = oe.build_uem(tgs).complete()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(uem.moves_in), len(uem.moves_out)) == (4625, 6000)
        assert peak < 13_000_000
