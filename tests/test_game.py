import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opacedit as oe
from opacedit.game import DELETE, PASSTHROUGH, insertion, substitution

from conftest import SUBS_ONLY, code, info
from oracles import (AugmentedState, InfoState, apply_defender_move, aug_key, decode, decoded_key,
                     expand_reachable_reference, info_key, merged_a_key, merged_f_key)


def T(s):
    return tuple(s)


class TestEnumerateActions:
    def test_invisible_event_admits_only_passthrough(self, fig3_profile):
        assert oe.enumerate_actions("a", fig3_profile, 0) == (PASSTHROUGH,)
        assert oe.enumerate_actions("a", fig3_profile, 3) == (PASSTHROUGH,)

    def test_defender_event_without_insertion(self, fig3_profile):
        got = oe.enumerate_actions("b", fig3_profile, 0)
        assert got == (PASSTHROUGH, DELETE, substitution("c"), substitution("d"))

    def test_defender_event_with_insertion(self, fig3_profile):
        got = oe.enumerate_actions("b", fig3_profile, 1)
        assert got == (
            PASSTHROUGH, DELETE, substitution("c"), substitution("d"),
            insertion("b"), insertion("c"), insertion("d"),
        )

    def test_insertions_are_length_lex_ordered(self, fig3_profile):
        got = oe.enumerate_actions("b", fig3_profile, 2, frozenset({"insert"}))
        prefixes = [a.prefix for a in got if a.kind == "insert"]
        assert prefixes == sorted(prefixes, key=lambda p: (len(p), p))
        assert len(prefixes) == 3 + 9

    def test_substitution_only_mode(self, fig3_profile):
        got = oe.enumerate_actions("b", fig3_profile, 0, SUBS_ONLY)
        assert got == (PASSTHROUGH, substitution("c"), substitution("d"))

    def test_rendered_words(self):
        assert PASSTHROUGH.word("b") == T("b")
        assert DELETE.word("b") == ()
        assert substitution("c").word("b") == T("c")
        assert insertion("db").word("b") == T("dbb")

    def test_labels(self):
        assert PASSTHROUGH.label("b") == "b→b"
        assert DELETE.label("b") == "b→ε"
        assert substitution("c").label("b") == "b→c"
        assert insertion("d").label("b") == "+d·b"

    def test_equality_and_hash_are_by_value(self):
        assert substitution("c") == substitution("c") != substitution("d")
        assert insertion("db") == insertion(("d", "b"))
        assert {substitution("c"): 1}[substitution("c")] == 1
        assert substitution("c").sort_key() == (2, "c", 0, ())

    def test_unpickled_action_rehashes(self):
        # an action keeps its hash, but string hashes differ per process
        src = str(Path(__file__).resolve().parent.parent / "src")

        def python(code, seed, data=b""):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            return subprocess.run([sys.executable, "-c", code], input=data, env=env,
                                  capture_output=True, check=True, timeout=60).stdout

        data = python("import pickle, sys; from opacedit.game import insertion; "
                      "sys.stdout.buffer.write(pickle.dumps(insertion('db')))", "1")
        assert python("import pickle, sys; from opacedit.game import insertion; "
                      "act = pickle.loads(sys.stdin.buffer.read()); "
                      "print({insertion('db'): 1}.get(act))", "2", data) == b"1\n"


# a profile under which the event u is not observable
HIDDEN_U = oe.ObservationProfile(frozenset("a"), frozenset("a"), frozenset("a"))


class TestInputChecks:
    @pytest.mark.parametrize("call, message", [
        (lambda fig3: insertion(()), "insertion prefix must be nonempty"),
        (lambda fig3: oe.enumerate_actions("u", HIDDEN_U, 1),
         "pending event 'u' is not observable"),
        (lambda fig3: oe.build_edit_game(*fig3, ops={"delete", "swap"}),
         "unknown edit operations: ['swap']"),
    ], ids=["empty-insertion", "unobservable-pending", "unknown-operation"])
    def test_refused(self, fig3, call, message):
        with pytest.raises(ValueError) as exc:
            call(fig3)
        assert str(exc.value) == message


class TestApplyDefenderMove:
    def test_substituting_c_for_b_hides_from_intruder(self, fig3, fig3_game, fig3_observers):
        aut, profile = fig3
        _, o_intr, o_def = fig3_observers
        source = code(fig3_game, info(aut, "3", "36", "13"))
        vf = decode(fig3_game, fig3_game.sys_moves[source]["b"])
        assert vf.info == info(aut, "5", "36", "13")
        got = apply_defender_move(vf, substitution("c"), o_intr, o_def, profile)
        assert got == info(aut, "5", "36", "46")

    def test_substituting_b_for_c_updates_intruder(self, fig3, fig3_game, fig3_observers):
        # the paper text prints the intruder component of this successor as
        # {2}; that contradicts its own intruder observer (ab must reveal
        # {5}), so the correct successor carries {5}
        aut, profile = fig3
        _, o_intr, o_def = fig3_observers
        source = code(fig3_game, info(aut, "3", "36", "13"))
        vf = decode(fig3_game, fig3_game.sys_moves[source]["c"])
        assert vf.info == info(aut, "6", "36", "13")
        got = apply_defender_move(vf, substitution("b"), o_intr, o_def, profile)
        assert got == info(aut, "6", "5", "25")

    def test_passthrough_of_fully_invisible_event_changes_nothing(self):
        aut, profile = oe.parse_model(
            "states 1 2\ninitial 1\nevents a b\nobservable a b\n"
            "intruder a\ndefender a\ntrans 1 b 2\ntrans 1 a 1\n"
        )
        game = oe.build_edit_game(aut, profile, k=0).complete()
        vf = decode(game, game.sys_moves[game.initial]["b"])
        o_sys, o_intr, o_def = oe.standard_observers(aut, profile)
        got = apply_defender_move(vf, PASSTHROUGH, o_intr, o_def, profile)
        assert got.intr == decode(game, game.initial).intr
        assert got.dfn == decode(game, game.initial).dfn

    def test_mixed_visibility_insertion_word(self, fig3, fig3_observers):
        # inserting b before c emits a word whose first letter the intruder
        # sees and whose second it does not; one observer run handles both
        aut, profile = fig3
        _, o_intr, o_def = fig3_observers
        vf = AugmentedState(info(aut, "4", "14", "13"), "c")
        got = apply_defender_move(vf, insertion("b"), o_intr, o_def, profile)
        assert got == info(aut, "4", "2", "25")

    def test_insertion_undefined_when_either_observer_chokes(self, fig3, fig3_observers):
        aut, profile = fig3
        _, o_intr, o_def = fig3_observers
        vf = AugmentedState(info(aut, "2", "14", "13"), "b")
        # neither observer can parse db from its initial estimate
        assert apply_defender_move(vf, insertion("d"), o_intr, o_def, profile) is None
        # bb is unparseable for the intruder observer
        assert apply_defender_move(vf, insertion("b"), o_intr, o_def, profile) is None

    def test_editing_invisible_event_is_rejected(self, fig3, fig3_observers):
        aut, profile = fig3
        _, o_intr, o_def = fig3_observers
        vf = AugmentedState(info(aut, "3", "14", "13"), "a")
        with pytest.raises(ValueError):
            apply_defender_move(vf, substitution("b"), o_intr, o_def, profile)


class TestBuildEditGame:
    def test_initial_state(self, fig3_aut, fig3_game):
        assert decode(fig3_game, fig3_game.initial) == info(fig3_aut, "1", "14", "13")

    def test_contains_the_incomparable_showcase_states(self, fig3_aut, fig3_game):
        states = {decode(fig3_game, v) for v in fig3_game.a_states}
        assert info(fig3_aut, "5", "36", "46") in states
        assert info(fig3_aut, "6", "2", "25") in states

    def test_utility_of_leak_and_bluff(self, fig3_aut, fig3_game):
        leak = code(fig3_game, info(fig3_aut, "5", "5", "25"))
        bluff = code(fig3_game, info(fig3_aut, "6", "5", "25"))
        assert fig3_game.utility(leak) == 0
        assert fig3_game.utility(bluff) == 1

    def test_every_plant_observable_event_has_a_response(self, fig3_game):
        assert all(fig3_game.utility(vf) == 1 for vf in fig3_game.f_states)

    def test_single_state_plant(self):
        aut, profile = oe.parse_model(
            "states s\ninitial s\nevents a\nobservable a\nintruder a\ndefender a\n"
        )
        game = oe.build_edit_game(aut, profile, k=1)
        assert len(game.a_states) == 1
        assert len(game.f_states) == 0

    def test_augmented_state_with_passthrough_has_utility_one(self, fig3_game):
        for vf in fig3_game.f_states:
            if PASSTHROUGH in fig3_game.def_moves[vf]:
                assert fig3_game.utility(vf) == 1


class TestOnDemand:
    def test_a_fresh_game_holds_only_its_initial_state(self, fig3):
        game = oe.build_edit_game(*fig3, k=0, ops=SUBS_ONLY)
        assert game.a_states == (game.initial,)
        assert game.f_states == () and not game.sys_moves and not game.def_moves

    @pytest.mark.parametrize("seed", range(15))
    def test_completion_after_a_lazy_trim_is_the_whole_game(self, seed):
        aut, profile = oe.random_instance(seed)
        touched = oe.build_edit_game(aut, profile, k=1)
        oe.trim_game(touched)
        touched.complete()
        whole = oe.build_edit_game(aut, profile, k=1).complete()
        assert touched.a_states == whole.a_states
        assert touched.f_states == whole.f_states
        assert touched.sys_moves == whole.sys_moves
        assert touched.def_moves == whole.def_moves
        assert ([touched.utility(v) for v in touched.a_states + touched.f_states]
                == [whole.utility(v) for v in whole.a_states + whole.f_states])

    @pytest.mark.parametrize("seed", range(15))
    def test_canonical_order_is_the_key_order(self, seed):
        aut, profile = oe.random_instance(seed)
        game = oe.build_edit_game(aut, profile, k=1).complete()
        assert game.a_states == tuple(sorted(game.a_states, key=decoded_key(game, info_key)))
        assert game.f_states == tuple(sorted(game.f_states, key=decoded_key(game, aug_key)))


class TestCompletionOrder:
    """A fresh ``complete()`` of the game and of the merged mechanism
    expands in the breadth-first order of the reference walk, so their rows
    come in its key order.  The hash-seed CI step relies on this order."""

    @staticmethod
    def _check(aut, profile, k) -> bool:
        """Compare both completions with the reference walk's; False when
        trimming refutes the plant."""
        game = oe.build_edit_game(aut, profile, k=k).complete()
        want = oe.build_edit_game(aut, profile, k=k)
        expand_reachable_reference(want.initial, want.expand, want.def_moves)
        assert list(game.sys_moves.items()) == list(want.sys_moves.items())
        assert list(game.def_moves.items()) == list(want.def_moves.items())
        tgs = oe.trim_game(game)
        if tgs is None:
            return False
        uem = oe.build_uem(tgs).complete()
        ref = oe.build_uem(tgs)
        expand_reachable_reference(ref.initial, ref.expand, ref.moves_out)
        assert list(uem.moves_in.items()) == list(ref.moves_in.items())
        assert list(uem.moves_out.items()) == list(ref.moves_out.items())
        return True

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_fig3(self, fig3, k):
        assert self._check(*fig3, k)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_random_plants(self, k):
        merged = sum(self._check(*oe.random_instance(seed), k) for seed in range(60))
        assert merged >= 30


class TestGameInvariants:
    @pytest.mark.parametrize("seed", range(15))
    def test_structure_on_random_instances(self, seed):
        aut, profile = oe.random_instance(seed)
        game = oe.build_edit_game(aut, profile, k=1).complete()
        _, o_intr, o_def = oe.standard_observers(aut, profile)
        for v in game.a_states:
            for event, vf in game.sys_moves[v].items():
                assert vf in set(game.f_states)
                assert decode(game, vf).pending == event
                assert decode(game, vf).info.intr == decode(game, v).intr
                assert decode(game, vf).info.dfn == decode(game, v).dfn
        for vf in game.f_states:
            state = decode(game, vf)
            for act, target in game.def_moves[vf].items():
                assert target in set(game.a_states)
                assert decode(game, target).sys == state.info.sys
                word = act.word(state.pending)
                if state.pending in profile.defender:
                    # outputs stay inside the defender alphabet
                    assert oe.project(word, profile.defender) == word
                else:
                    assert act == PASSTHROUGH
            for act in oe.enumerate_actions(state.pending, profile, 1, oe.OPS_ALL):
                expected = apply_defender_move(state, act, o_intr, o_def, profile)
                got = game.def_moves[vf].get(act)
                assert (None if got is None else decode(game, got)) == expected

    @pytest.mark.parametrize("seed", range(15))
    def test_uneditable_event_semantics(self, seed):
        aut, profile = oe.random_instance(seed)
        game = oe.build_edit_game(aut, profile, k=1).complete()
        o_sys, o_intr, o_def = oe.standard_observers(aut, profile)
        for code_f in game.f_states:
            vf = decode(game, code_f)
            if vf.pending in profile.defender:
                continue
            moves = game.def_moves[code_f]
            assert set(moves) <= {PASSTHROUGH}
            if moves:
                target = decode(game, moves[PASSTHROUGH])
                assert target.dfn == vf.info.dfn
                if vf.pending in profile.intruder:
                    assert target.intr == o_intr.step(vf.info.intr, vf.pending)
                else:
                    assert target.intr == vf.info.intr

    @pytest.mark.parametrize("seed", ["fig3", *range(15)])
    def test_utility_matches_definition(self, seed, fig3, fig3_game):
        if seed == "fig3":
            (aut, _), game = fig3, fig3_game
        else:
            aut, profile = oe.random_instance(seed)
            game = oe.build_edit_game(aut, profile, k=1).complete()
        secret = aut.secret
        for v in game.a_states:
            state = decode(game, v)
            expected = 0 if (state.sys <= secret and state.intr <= secret) else 1
            assert game.utility(v) == expected
        for vf in game.f_states:
            expected = 0 if not game.def_moves[vf] else 1
            assert game.utility(vf) == expected


OP_SETS = [frozenset(c) for n in (1, 2, 3)
           for c in itertools.combinations(sorted(oe.OPS_ALL), n)]


class TestPackedCodes:
    """States are int codes whose order is the canonical order;
    ``indices_of``, read by the oracles' ``decode``, is the only way back to
    the paper's tuples."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", range(40))
    def test_codes_decode_and_order_like_the_keys(self, seed, k):
        aut, profile = oe.random_instance(seed)
        _, o_intr, o_def = oe.standard_observers(aut, profile)
        for ops in OP_SETS:
            game = oe.build_edit_game(aut, profile, k=k, ops=ops).complete()
            states = game.a_states + game.f_states
            decoded = [decode(game, c) for c in states]
            assert len(set(decoded)) == len(states)
            assert all(isinstance(decode(game, v), InfoState) for v in game.a_states)
            assert all(isinstance(decode(game, vf), AugmentedState) for vf in game.f_states)
            # augmented codes lie above every information code
            assert not game.f_states or game.a_states[-1] < game.f_states[0]
            assert game.a_states == tuple(sorted(game.a_states, key=decoded_key(game, info_key)))
            assert game.f_states == tuple(sorted(game.f_states, key=decoded_key(game, aug_key)))
            for vf in game.f_states:
                for act, target in game.def_moves[vf].items():
                    assert decode(game, target) == apply_defender_move(
                        decode(game, vf), act, o_intr, o_def, profile)
            tgs = oe.trim_game(game)
            if tgs is None:
                continue
            uem = oe.build_uem(tgs).complete()
            assert uem.ua_states == tuple(sorted(uem.ua_states,
                                                 key=decoded_key(game, merged_a_key)))
            assert uem.uf_states == tuple(sorted(uem.uf_states,
                                                 key=decoded_key(game, merged_f_key)))


class TestMenusInSortKeyOrder:
    """``Mechanism.expand`` lists an observation state's actions in its
    event's menu order (``EditGameStructure.menu``), which must be
    ``EditAction.sort_key`` order: every menu strictly increases in that
    key."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("ops", [frozenset(), *OP_SETS],
                             ids=lambda ops: "+".join(sorted(ops)) or "none")
    def test_every_menu_is_sort_key_ordered(self, fig3_profile, ops, k):
        profiles = [fig3_profile] + [oe.random_instance(seed, 4, 6)[1] for seed in range(20)]
        for profile in profiles:
            for pending in sorted(profile.observable):
                menu = oe.enumerate_actions(pending, profile, k, ops)
                keys = [act.sort_key() for act in menu]
                assert keys == sorted(set(keys)), (
                    f"menu for {pending!r} at k={k}, ops {sorted(ops)}, defender "
                    f"{sorted(profile.defender)}: {[act.label(pending) for act in menu]}")
