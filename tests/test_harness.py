import pytest

import opacedit as oe
from opacedit.harness import _joint_configs

from conftest import sset
from oracles import (brute_force_cso, certifying_depth_reference, decode, generated_language,
                     joint_configs_reference)


def T(s):
    return tuple(s)


class TestSimulate:
    def test_synthesized_editor_hides_the_secret(self, fig3, fig3_fe):
        aut, profile = fig3
        steps = oe.simulate(aut, profile, fig3_fe, T("abc"))
        emitted = tuple(e for s in steps for e in s.editor_output)
        assert emitted == T("acd")
        assert steps[-1].intruder_estimate in (sset(aut, "4"), sset(aut, "6"))
        assert not any(s.leak for s in steps)

    def test_identity_editor_leaks(self, fig3):
        aut, profile = fig3
        ident = oe.MealyEditFunction.identity(profile.defender)
        steps = oe.simulate(aut, profile, ident, T("abc"))
        assert steps[-1].intruder_estimate == sset(aut, "5")
        assert steps[2].leak
        assert steps[0].leak is False

    def test_empty_trace(self, fig3, fig3_fe):
        aut, profile = fig3
        assert oe.simulate(aut, profile, fig3_fe, ()) == []

    def test_rejects_traces_outside_the_language(self, fig3, fig3_fe):
        aut, profile = fig3
        with pytest.raises(oe.SimulationError):
            oe.simulate(aut, profile, fig3_fe, T("dd"))

    def test_undefined_editor_reports_the_prefix(self, fig3):
        aut, profile = fig3
        empty = oe.MealyEditFunction(
            alphabet=profile.defender, n_states=1, initial=0, edges={}
        )
        with pytest.raises(oe.EditUndefinedError) as err:
            oe.simulate(aut, profile, empty, T("ab"))
        assert err.value.prefix == T("ab")

    def test_plant_states_follow_the_trace(self, fig3, fig3_fe):
        aut, profile = fig3
        steps = oe.simulate(aut, profile, fig3_fe, T("abc"))
        assert [aut.labels[s.plant_state] for s in steps] == ["3", "5", "5"]

    def test_outputs_interleave_passthroughs(self, fig3, fig3_fe):
        aut, profile = fig3
        trace = T("abc")
        steps = oe.simulate(aut, profile, fig3_fe, trace)
        state = fig3_fe.initial
        for step, event in zip(steps, trace):
            if event in profile.defender:
                word, state = fig3_fe.step(state, event)
            else:
                word = (event,)
            assert step.editor_output == word

    def test_leak_definition(self, fig3):
        aut, profile = fig3
        ident = oe.MealyEditFunction.identity(profile.defender)
        for step in oe.simulate(aut, profile, ident, T("abcc")):
            expected = (
                step.intruder_estimate <= aut.secret
                and step.plant_state in aut.secret
            )
            assert step.leak == expected

    def test_true_run_consistent_with_a_belief_member(self, fig3, fig3_em, fig3_fe):
        aut, profile = fig3
        assert fig3_fe.beliefs
        for trace in generated_language(aut, 6):
            steps = oe.simulate(aut, profile, fig3_fe, trace)
            state = fig3_fe.initial
            for step, event in zip(steps, trace):
                if event in profile.defender:
                    state = fig3_fe.edges[(state, event)][1]
                belief = fig3_fe.beliefs[state]
                assert any(step.plant_state in decode(fig3_em.game, member).sys
                           for member in belief)


class TestOracle:
    def test_synthesized_editor_passes(self, fig3, fig3_fe):
        aut, profile = fig3
        assert oe.oracle_ic_enforcing(aut, profile, fig3_fe, 6).ok

    def test_identity_fails_confidentiality_with_minimal_witness(self, fig3):
        aut, profile = fig3
        ident = oe.MealyEditFunction.identity(profile.defender)
        verdict = oe.oracle_ic_enforcing(aut, profile, ident, 3)
        assert not verdict.ok
        assert verdict.failed_property == "confidentiality"
        # minimized: the length-2 prefix of abc already reveals the secret
        assert verdict.counterexample == T("ab")
        assert T("abc")[: len(verdict.counterexample)] == verdict.counterexample

    def test_no_secret_means_everything_passes(self, fig3):
        aut, profile = fig3
        bare = oe.FiniteAutomaton(
            labels=aut.labels, events=aut.events, delta=dict(aut.delta),
            initial=aut.initial, secret=frozenset(),
        )
        ident = oe.MealyEditFunction.identity(profile.defender)
        assert oe.oracle_ic_enforcing(bare, profile, ident, 5).ok

    def test_exact_check_agrees_with_deep_oracle(self, fig3, fig3_fe):
        aut, profile = fig3
        assert oe.exact_ic_check(aut, profile, fig3_fe)
        ident = oe.MealyEditFunction.identity(profile.defender)
        assert not oe.exact_ic_check(aut, profile, ident)


class TestJointWalk:
    """``certifying_depth`` and ``exact_ic_check`` read one joint walk, and
    every editor check enforces the same contract on unseen events."""

    @staticmethod
    def population(max_states, k):
        """``random_instance(seed, max_states, 4)`` for seeds 0-79, each with
        the identity editor and, where the plant can be made opaque at
        insertion bound ``k``, every policy's transducer."""
        ops = oe.OPS_ALL if k else oe.OPS_ALL - {"insert"}
        for seed in range(80):
            aut, profile = oe.random_instance(seed, max_states, 4)
            editors = [oe.MealyEditFunction.identity(profile.defender)]
            tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=k, ops=ops))
            em = oe.refine_to_em(oe.build_uem(tgs)) if tgs else None
            if em is not None:
                editors += [oe.synthesize(em, policy=p) for p in sorted(oe.POLICIES)]
            for fe in editors:
                yield seed, aut, profile, fe

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("max_states", [5, 8])
    def test_certifying_depth_matches_the_reference(self, max_states, k):
        for seed, aut, profile, fe in self.population(max_states, k):
            for cap in (3, 8, 50, 400):
                assert oe.certifying_depth(aut, profile, fe, cap) == (
                    certifying_depth_reference(aut, profile, fe, cap)
                ), f"seed {seed} cap {cap}"

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("max_states", [5, 8])
    def test_walk_yields_the_reference_sequence(self, max_states, k):
        # the walk over numbered configurations leaves the queue in the
        # 4-tuple walk's order, with its None markers in the same places:
        # certifying_depth's cap counts a prefix of this sequence.  No
        # editor of the population gets stuck, so each plant also runs the
        # identity editor without its least event, which does.
        undefined = 0
        for seed, aut, profile, fe in self.population(max_states, k):
            editors = [fe]
            if fe.policy == "identity":
                least = min(profile.defender)
                editors.append(oe.MealyEditFunction(
                    alphabet=fe.alphabet, n_states=1, initial=0,
                    edges={(0, e): ((e,), 0) for e in fe.alphabet if e != least}))
            for editor in editors:
                got = list(_joint_configs(aut, profile, editor))
                assert got == list(joint_configs_reference(aut, profile, editor)), f"seed {seed}"
                undefined += got.count(None)
        assert undefined

    def test_rewriting_an_unseen_event_is_refused_everywhere(self):
        aut, profile = oe.random_instance(0)
        assert "c" not in profile.defender
        # passes a and b through and turns the unseen c into a, which both
        # observers can parse from the initial estimates
        fe = oe.MealyEditFunction(
            alphabet=frozenset("abc"), n_states=1, initial=0,
            edges={(0, "a"): (T("a"), 0), (0, "b"): (T("b"), 0), (0, "c"): (T("a"), 0)},
        )
        checks = [
            lambda: oe.certifying_depth(aut, profile, fe, 8),
            lambda: oe.exact_ic_check(aut, profile, fe),
            lambda: oe.evaluate_editor(aut, profile, fe, 3),
            lambda: oe.simulate(aut, profile, fe, T("c")),
        ]
        for check in checks:
            with pytest.raises(ValueError, match="^editor rewrote an event it cannot observe$"):
                check()


class TestRandomInstance:
    def test_deterministic(self):
        for seed in (0, 7, 99):
            assert oe.random_instance(seed) == oe.random_instance(seed)

    def test_profiles_are_well_formed(self):
        for seed in range(50):
            aut, profile = oe.random_instance(seed)
            assert profile.intruder <= profile.observable
            assert profile.defender <= profile.observable
            assert profile.observable <= set(aut.events)
            assert aut.secret
            assert all(
                aut.run(aut.initial, t) is not None
                for t in generated_language(aut, 3)
            )

    def test_incomparable_majority_and_nested_presence(self):
        incomparable = nested = 0
        for seed in range(100):
            _, profile = oe.random_instance(seed)
            if profile.intruder <= profile.defender or profile.defender <= profile.intruder:
                nested += 1
            else:
                incomparable += 1
        assert incomparable >= 50
        assert nested >= 1

    def test_connected(self):
        for seed in range(30):
            aut, _ = oe.random_instance(seed)
            reached = set()
            stack = [aut.initial]
            while stack:
                state = stack.pop()
                if state in reached:
                    continue
                reached.add(state)
                stack.extend(aut.arcs(state).values())
            assert reached == set(range(aut.n_states))

    def test_size_bounds(self):
        for seed in range(30):
            aut, _ = oe.random_instance(seed, max_states=5, max_events=4)
            assert 2 <= aut.n_states <= 5
            assert 2 <= len(aut.events) <= 4

    @pytest.mark.parametrize("sizes, message", [
        (dict(max_states=1), "need at least two states and two events"),
        (dict(max_events=1), "need at least two states and two events"),
        (dict(max_events=11), "at most 10 events"),
    ], ids=["one-state", "one-event", "eleven-events"])
    def test_size_limits(self, sizes, message):
        with pytest.raises(ValueError) as exc:
            oe.random_instance(0, **sizes)
        assert str(exc.value) == message


class TestStrategySearch:
    def test_running_example_needs_a_stateful_looping_editor(self, fig3, fig3_fe):
        # the plant loops on defender-visible events, so no bounded-history
        # editor stays available forever; and under substitution only, the
        # right response to c depends on the defender estimate, so no
        # memoryless editor works either -- only the synthesized transducer,
        # which has both memory and loops, enforces
        aut, profile = fig3
        subs = frozenset({"substitute"})
        assert oe.find_edit_strategy(aut, profile, 0, subs, 6) is None
        assert not any(
            oe.exact_ic_check(aut, profile, fe)
            for fe in oe.iter_memoryless_editors(profile, 0, subs)
        )
        assert oe.exact_ic_check(aut, profile, fig3_fe)
        # deletion changes the picture: erasing everything is enforcing
        with_delete = [
            fe
            for fe in oe.iter_memoryless_editors(profile, 0, frozenset({"substitute", "delete"}))
            if oe.exact_ic_check(aut, profile, fe)
        ]
        assert with_delete
        assert all(oe.oracle_ic_enforcing(aut, profile, fe, 6).ok for fe in with_delete)

    def test_finds_a_strategy_when_defender_behavior_is_bounded(self):
        aut, profile = oe.parse_model(
            "states 1 2 3 4\ninitial 1\nsecret 2\nevents a b c\n"
            "observable a b c\nintruder a b\ndefender b c\n"
            "trans 1 b 2\ntrans 1 c 3\ntrans 2 c 4\ntrans 3 b 4\n"
        )
        editor = oe.find_edit_strategy(aut, profile, 1, oe.OPS_ALL, 6)
        assert editor is not None
        assert oe.exact_ic_check(aut, profile, editor)
        assert oe.oracle_ic_enforcing(aut, profile, editor, 6).ok

    def test_unenforceable_instance_yields_nothing(self):
        aut, profile = oe.parse_model(
            "states s t\ninitial s\nsecret s\nevents a b\nobservable a b\n"
            "intruder a b\ndefender a b\ntrans s a t\n"
        )
        assert oe.find_edit_strategy(aut, profile, 1, oe.OPS_ALL, 6) is None

    def test_depth_bounds_the_decisions(self):
        # the first observation, a, leaks unless the defender deletes it, so
        # an editor needs one decision and depth 0 allows none
        aut, profile = oe.parse_model(
            "states s t\ninitial s\nsecret t\nevents a\nobservable a\n"
            "intruder a\ndefender a\ntrans s a t\n"
        )
        assert oe.find_edit_strategy(aut, profile, 1, oe.OPS_ALL, 0) is None
        editor = oe.find_edit_strategy(aut, profile, 1, oe.OPS_ALL, 1)
        assert (editor.n_states, editor.initial, editor.policy) == (2, 0, "history")
        assert editor.edges == {(0, "a"): ((), 1)}

    @pytest.mark.parametrize("loop", ["", "trans t a t\n"], ids=["acyclic", "looping"])
    def test_negative_depth_allows_no_decision(self, loop):
        aut, profile = oe.parse_model(
            "states s t\ninitial s\nsecret t\nevents a\nobservable a\n"
            "intruder a\ndefender a\ntrans s a t\n" + loop
        )
        assert oe.find_edit_strategy(aut, profile, 1, oe.OPS_ALL, -1) is None

    def test_states_are_the_decided_histories_shortest_first(self):
        # each state but the start is entered by one edge, so it names one
        # history; the states count up in (length, history) order
        largest = 0
        for seed in range(250):
            aut, profile = oe.random_instance(seed, max_states=5, max_events=4)
            editor = oe.find_edit_strategy(aut, profile, 1, oe.OPS_ALL, 8)
            if editor is None:
                continue
            history = {0: ()}
            for (q, event), (_, q2) in sorted(editor.edges.items(), key=lambda e: e[1][1]):
                assert q2 not in history and q in history, seed
                history[q2] = history[q] + (event,)
            assert sorted(history) == list(range(editor.n_states)), seed
            order = [history[q] for q in range(editor.n_states)]
            assert order == sorted(order, key=lambda h: (len(h), h)), seed
            assert oe.parse_mealy(oe.format_mealy(editor)) == editor, seed
            largest = max(largest, editor.n_states)
        assert largest >= 7

    def test_memoryless_family_is_complete_per_event_menu(self, fig3_profile):
        editors = list(oe.iter_memoryless_editors(fig3_profile, 0, frozenset({"substitute"})))
        # three defender events with three possible responses each
        assert len(editors) == 27

    @pytest.mark.parametrize("seed", range(40))
    def test_agreement_with_the_pipeline(self, seed):
        aut, profile = oe.random_instance(seed)
        game = oe.build_edit_game(aut, profile, k=1)
        tgs = oe.trim_game(game)
        em = oe.refine_to_em(oe.build_uem(tgs)) if tgs else None
        if em is not None:
            fe = oe.synthesize(em)
            assert oe.exact_ic_check(aut, profile, fe)
        else:
            assert oe.find_edit_strategy(aut, profile, 1, oe.OPS_ALL, 8) is None
            for editor in oe.iter_memoryless_editors(profile, 1, oe.OPS_ALL):
                assert not oe.exact_ic_check(aut, profile, editor)


class TestBruteForceCso:
    def test_fig3(self, fig3):
        aut, profile = fig3
        assert not brute_force_cso(aut, profile, 3)

    def test_empty_secret(self, fig3):
        aut, profile = fig3
        bare = oe.FiniteAutomaton(
            labels=aut.labels, events=aut.events, delta=dict(aut.delta),
            initial=aut.initial, secret=frozenset(),
        )
        assert brute_force_cso(bare, profile, 6)
