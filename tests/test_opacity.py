import random
from collections import Counter

import pytest

import opacedit as oe
from opacedit.harness import _joint_configs

from conftest import sset
from oracles import (brute_force_cso, evaluate_editor_reference, evaluate_editor_tree,
                     generated_language, inverse_projection_members, joint_configs_reference,
                     nonsecret_explanation_exists)


def T(s):
    return tuple(s)


class TestVerifyCso:
    def test_fig3_leaks_via_ab(self, fig3):
        aut, profile = fig3
        verdict = oe.verify_cso(aut, profile)
        assert not verdict.opaque
        assert oe.project(verdict.witness, profile.intruder) == T("ab")
        # witness certification: it reaches the secret, and so does every
        # trace with the same intruder view
        assert aut.run(aut.initial, verdict.witness) in aut.secret
        bound = len(verdict.witness) + aut.n_states
        members = inverse_projection_members(
            aut, T("ab"), profile.intruder, bound
        )
        assert verdict.witness in members
        assert all(aut.run(aut.initial, m) in aut.secret for m in members)

    def test_empty_secret_is_opaque(self, fig3):
        aut, profile = fig3
        bare = oe.FiniteAutomaton(
            labels=aut.labels, events=aut.events, delta=dict(aut.delta),
            initial=aut.initial, secret=frozenset(),
        )
        assert oe.verify_cso(bare, profile).opaque

    def test_swapped_alphabets_are_opaque(self, fig3_aut):
        # with the alphabets exchanged the intruder is confused already
        profile = oe.ObservationProfile(
            observable=frozenset("abcd"),
            intruder=frozenset("bcd"),
            defender=frozenset("abd"),
        )
        assert oe.verify_cso(fig3_aut, profile).opaque

    def test_agrees_with_brute_force_on_random_instances(self):
        for seed in range(60):
            aut, profile = oe.random_instance(seed)
            verdict = oe.verify_cso(aut, profile)
            if verdict.opaque:
                assert brute_force_cso(aut, profile, 8)
            else:
                witness = verdict.witness
                assert aut.run(aut.initial, witness) in aut.secret
                assert not nonsecret_explanation_exists(
                    aut, oe.project(witness, profile.intruder), profile.intruder
                )
                assert not brute_force_cso(aut, profile, max(8, len(witness)))

    def test_witness_is_shortest_lex_least(self, fig3):
        aut, profile = fig3
        witness = oe.verify_cso(aut, profile).witness
        revealing = [
            trace
            for trace in generated_language(aut, len(witness))
            if not nonsecret_explanation_exists(
                aut, oe.project(trace, profile.intruder), profile.intruder
            )
            and aut.run(aut.initial, trace) in aut.secret
        ]
        assert witness == min(revealing, key=lambda t: (len(t), t))


class TestExplanations:
    def test_ab_only_explained_by_secret(self, fig3):
        aut, profile = fig3
        assert not nonsecret_explanation_exists(aut, T("ab"), profile.intruder)

    def test_ad_has_nonsecret_explanation(self, fig3):
        aut, profile = fig3
        assert nonsecret_explanation_exists(aut, T("ad"), profile.intruder)

    def test_dd_is_explained_through_the_invisible_c(self, fig3):
        # cdd projects onto dd and ends non-secret
        aut, profile = fig3
        assert nonsecret_explanation_exists(aut, T("dd"), profile.intruder)

    def test_unparseable_word_has_none(self, fig3):
        aut, profile = fig3
        assert not nonsecret_explanation_exists(aut, T("ba"), profile.intruder)


class _SpyEditor:
    """Defective editor: keeps state across an event it cannot see."""

    def __init__(self):
        self.initial = 0

    def step(self, state, event):
        if event == "a":
            return (("a",), 1 - state)
        if event == "b" and state == 1:
            return (("c",), state)
        return ((event,), state)


class _UnseenCounter:
    """Defective editor: passes every event through, but its state counts
    the events outside the defender alphabet."""

    def __init__(self, defender):
        self.defender = defender
        self.initial = 0

    def step(self, state, event):
        return ((event,), state if event in self.defender else state + 1)


class TestChecks:
    def test_synthesized_editor_passes_everything(self, fig3, fig3_fe):
        aut, profile = fig3
        assert oe.evaluate_editor(aut, profile, fig3_fe, 6) == oe.OracleVerdict(True)

    def test_empty_editor_is_unavailable(self, fig3):
        aut, profile = fig3
        empty = oe.MealyEditFunction(
            alphabet=profile.defender, n_states=1, initial=0, edges={}
        )
        assert oe.evaluate_editor(aut, profile, empty, 3).failed_property == "i-availability"

    def test_depth_zero_is_trivially_available(self, fig3):
        aut, profile = fig3
        empty = oe.MealyEditFunction(
            alphabet=profile.defender, n_states=1, initial=0, edges={}
        )
        assert oe.evaluate_editor(aut, profile, empty, 0).ok

    @pytest.mark.parametrize("start", ["0 a / a 0", "0 a / a 1"], ids=["unreached", "reached"])
    def test_refuses_output_outside_the_observable_alphabet(self, start):
        # Unreached, the edge would leave the verdict alone; reached, the
        # observers would stop on its word.  Both are refused up front.
        aut, profile = oe.parse_model("states 1 2\ninitial 1\nsecret 2\nevents a\n"
                                      "observable a\nintruder a\ndefender a\ntrans 1 a 1\n")
        fe = oe.parse_mealy(f"alphabet a\nstates 2\ninitial 0\n{start}\n1 a / zzz 1\n")
        with pytest.raises(ValueError) as exc:
            oe.evaluate_editor(aut, profile, fe, 10)
        assert str(exc.value) == ("transducer edge from state 1 on 'a' emits 'zzz', "
                                  "outside the observable alphabet {a}")

    def test_identity_editor_is_available_but_not_confidential(self, fig3):
        aut, profile = fig3
        ident = oe.MealyEditFunction.identity(profile.defender)
        assert oe.evaluate_editor(aut, profile, ident, 5).failed_property == "confidentiality"

    def test_editor_branching_on_invisible_event_fails_c(self, fig3):
        aut, profile = fig3
        spy = _SpyEditor()
        # the defender views of b and ab agree, the outputs do not
        report = evaluate_editor_tree(aut, profile, spy, 2)
        assert not report.c_available
        assert report.i_available
        sigma1, sigma2 = report.c_counterexample
        assert sigma1 != sigma2
        assert oe.project(sigma1, profile.defender) == oe.project(sigma2, profile.defender)
        # the package checks consistency as a precondition instead
        with pytest.raises(ValueError, match="changed state"):
            oe.evaluate_editor(aut, profile, spy, 2)

    def test_search_stops_at_a_leak_before_a_state_change(self):
        # a leaks at length 1; the editor's only fault, moving on the unseen
        # b, comes a step later, so the search returns the leak first
        text = ("states 1 2 3\ninitial 1\nsecret {}\nevents a b\n"
                "observable a b\nintruder a b\ndefender a\n"
                "trans 1 a 2\ntrans 2 b 3\n")
        aut, profile = oe.parse_model(text.format(2))
        editor = _UnseenCounter(profile.defender)
        assert oe.evaluate_editor(aut, profile, editor, 3) == oe.OracleVerdict(
            False, "confidentiality", T("a"))
        # with no leak before it, the fault is refused
        aut, profile = oe.parse_model(text.format(3))
        with pytest.raises(ValueError, match="changed state"):
            oe.evaluate_editor(aut, profile, editor, 3)

    def test_editor_mapping_abc_to_acd_is_confidential(self, fig3, fig3_fe):
        aut, profile = fig3
        out = []
        state = fig3_fe.initial
        for event in T("abc"):
            word, state = fig3_fe.step(state, event)
            out.extend(word)
        assert tuple(out) == T("acd")
        assert oe.evaluate_editor(aut, profile, fig3_fe, 4).ok

    def test_vacuous_confidentiality_without_secrets(self, fig3):
        aut, profile = fig3
        bare = oe.FiniteAutomaton(
            labels=aut.labels, events=aut.events, delta=dict(aut.delta),
            initial=aut.initial, secret=frozenset(),
        )
        ident = oe.MealyEditFunction.identity(profile.defender)
        assert oe.evaluate_editor(bare, profile, ident, 5).ok


class TestIntegrity:
    def test_definition_unrolls(self, fig3, fig3_fe):
        aut, profile = fig3
        ident = oe.MealyEditFunction.identity(profile.defender)
        for editor in (fig3_fe, ident):
            for depth in range(5):
                tree = evaluate_editor_tree(aut, profile, editor, depth)
                assert oe.evaluate_editor(aut, profile, editor, depth).ok == (
                    tree.i_available and tree.confidential)

    def test_prefix_leak_breaks_integrity(self):
        # the only length-1 behavior reaches the secret with no alibi, while
        # every longer trace ends non-secret; identity editing is available
        # yet integrity fails through the leaking prefix
        aut, profile = oe.parse_model(
            "states 1 2 3\ninitial 1\nsecret 2\nevents a b\n"
            "observable a b\nintruder a b\ndefender a b\n"
            "trans 1 a 2\ntrans 2 b 3\n"
        )
        ident = oe.MealyEditFunction.identity(profile.defender)
        report = oe.evaluate_editor(aut, profile, ident, 3)
        assert report == oe.OracleVerdict(False, "confidentiality", T("a"))


class TestStructuralCAvailability:
    def test_equal_defender_views_induce_equal_runs(self, fig3, fig3_fe):
        aut, profile = fig3
        by_view = {}
        for trace in generated_language(aut, 6):
            sigma = oe.project(trace, profile.observable)
            view = oe.project(sigma, profile.defender)
            state = fig3_fe.initial
            out = []
            for event in sigma:
                word, state = fig3_fe.step(state, event)
                out.extend(word)
            run = (state, oe.project(tuple(out), profile.defender))
            if view in by_view:
                assert by_view[view] == run
            else:
                by_view[view] = run


def _random_editor(rng, defender):
    """Partial Mealy editor whose outputs mix passthrough, deletion,
    substitution and two-event words over the defender alphabet."""
    events = sorted(defender)
    n_states = rng.randint(1, 3)
    edges = {}
    for q in range(n_states):
        for event in events:
            if rng.random() < 0.15:
                continue
            word = rng.choice((
                (event,), (), (rng.choice(events),),
                (rng.choice(events), rng.choice(events)),
            ))
            edges[(q, event)] = (word, rng.randrange(n_states))
    return oe.MealyEditFunction(alphabet=frozenset(defender), n_states=n_states,
                                initial=0, edges=edges)


def _cross_check_cases(seeds, size=(6, 5), depths=(0, 2, 4, 7), extended=False):
    """All events observable, then hiding 1 to n-2 of the n events, of
    ``random_instance(seed, *size)``, with the identity editor and three
    random ones; ``extended`` adds the synthesized editor where one exists
    and an ``_UnseenCounter``, which raises wherever the search meets an
    event it cannot see before a violation."""
    for seed in seeds:
        rng = random.Random(seed)
        aut, full = oe.random_instance(seed, *size)
        events = sorted(aut.events)
        profiles = [full]
        for hide in range(1, len(events) - 1):
            observable = frozenset(events) - frozenset(rng.sample(events, hide))
            profiles.append(oe.ObservationProfile(
                observable=observable, intruder=full.intruder & observable,
                defender=full.defender & observable,
            ))
        for profile in profiles:
            editors = [oe.MealyEditFunction.identity(profile.defender)]
            editors += [_random_editor(rng, profile.defender) for _ in range(3)]
            if extended:
                tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=1))
                em = oe.refine_to_em(oe.build_uem(tgs)) if tgs else None
                editors += [oe.synthesize(em)] if em else []
                editors.append(_UnseenCounter(profile.defender))
            for editor in editors:
                for depth in depths:
                    yield aut, profile, editor, depth


class TestTreeCrossCheck:
    def test_shorter_plant_trace_is_expanded_again(self):
        # a and b both reach {4} with equal estimates, but a by a 3-event
        # plant trace and b by a 1-event one: the leak b a a c fits depth 5,
        # a a a c needs depth 6, so b must be expanded though a was
        aut, profile = oe.parse_model(
            "states 1 2 3 4 5 6 7\ninitial 1\nsecret 5\nevents a b c u\n"
            "observable a b c\nintruder c\ndefender c\n"
            "trans 1 u 2\ntrans 2 u 3\ntrans 3 a 4\ntrans 1 b 4\n"
            "trans 4 a 6\ntrans 6 a 7\ntrans 7 c 5\n"
        )
        ident = oe.MealyEditFunction.identity(profile.defender)
        for depth, leak in ((3, None), (5, T("baac")), (6, T("aaac"))):
            report = oe.evaluate_editor(aut, profile, ident, depth)
            assert report.counterexample == leak
            assert report.failed_property == (leak and "confidentiality")
            assert evaluate_editor_tree(aut, profile, ident, depth).conf_counterexample == leak

    def test_search_matches_the_tree(self):
        kinds = set()
        for aut, profile, editor, depth in _cross_check_cases(range(60)):
            got = oe.evaluate_editor(aut, profile, editor, depth)
            want = evaluate_editor_tree(aut, profile, editor, depth)
            assert want.first_violation == (
                None if got.ok else (got.failed_property, got.counterexample))
            assert want.c_available or not want.i_available
            kinds.add(want.first_violation and want.first_violation[0])
        # the sample exercises every outcome
        assert kinds == {None, "i-availability", "confidentiality"}


def _outcome(search, aut, profile, editor, depth):
    """The search's verdict, or the text of the ``ValueError`` it raises."""
    try:
        return search(aut, profile, editor, depth)
    except ValueError as exc:
        return str(exc)


class TestReferenceCrossCheck:
    """The search against ``evaluate_editor_reference``, the dict-per-node
    search it was first written as, on plants past the tree oracle's reach."""

    def test_search_matches_the_reference(self):
        outcomes = set()
        cases = _cross_check_cases(range(40), size=(12, 6), depths=(0, 3, 6, 10),
                                   extended=True)
        for aut, profile, editor, depth in cases:
            got = _outcome(oe.evaluate_editor, aut, profile, editor, depth)
            assert got == _outcome(evaluate_editor_reference, aut, profile, editor, depth)
            outcomes.add(got if isinstance(got, str) else got.failed_property)
        # the sample exercises every outcome
        assert outcomes == {None, "i-availability", "confidentiality",
                            "editor changed state on an event it cannot observe"}

    def test_search_matches_the_reference_on_shared_plant_nodes(self):
        # On these plants of up to 40 states many search nodes hold one
        # plant node under different editor configurations, so the
        # search's per-node successors and numbered configurations are
        # each read by many nodes.
        shared = 0
        for seed in range(20):
            aut, profile = oe.random_instance(seed, 40, 4)
            editors = [oe.MealyEditFunction.identity(profile.defender)]
            tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=1))
            em = oe.refine_to_em(oe.build_uem(tgs)) if tgs else None
            editors += [oe.synthesize(em)] if em else []
            for editor in editors:
                for depth in (6, 10):
                    got = _outcome(oe.evaluate_editor, aut, profile, editor, depth)
                    assert got == _outcome(evaluate_editor_reference, aut, profile, editor, depth)
                met = Counter(c[0] for c in _joint_configs(aut, profile, editor) if c)
                shared += sum(n > 1 for n in met.values())
        assert shared


class _CountingEditor:
    """A transducer that counts its ``step`` calls by (state, event)."""

    def __init__(self, inner):
        self.inner = inner
        self.initial = inner.initial
        self.calls = Counter()

    def step(self, state, event):
        self.calls[state, event] += 1
        return self.inner.step(state, event)


def _log_edit_steps(monkeypatch):
    """Route ``opacity.edit_step`` through a log of its (editor state,
    estimates, event) arguments, and return the log."""
    met = []
    edit_step = oe.opacity.edit_step

    def logged(editor, profile, observers, q, x_intr, x_def, event):
        met.append((q, x_intr, x_def, event))
        return edit_step(editor, profile, observers, q, x_intr, x_def, event)

    monkeypatch.setattr(oe.opacity, "edit_step", logged)
    return met


def _walk_reference(aut, profile, editor):
    return list(joint_configs_reference(aut, profile, editor))


# each editor check, the reference search that steps the editor once per
# node or joint configuration, and the check's result on fig3's editor
_STEP_CHECKS = {
    "evaluate_editor": (lambda aut, profile, fe: oe.evaluate_editor(aut, profile, fe, 8),
                        lambda aut, profile, fe: evaluate_editor_reference(aut, profile, fe, 8),
                        oe.OracleVerdict(True)),
    "exact_ic_check": (oe.exact_ic_check, _walk_reference, True),
    "certifying_depth": (lambda aut, profile, fe: oe.certifying_depth(aut, profile, fe, 10**6),
                         _walk_reference, 12),
}


class TestStepMemo:
    def test_each_joint_step_is_taken_once(self, fig3, fig3_fe, monkeypatch):
        # Every editor check steps the editor only through edit_step, and
        # each (editor state, estimates, event) goes through it at most
        # once.  Some (state, event) is met under two estimate pairs, so it
        # is stepped once for each.
        aut, profile = fig3
        for name, (check, _, expected) in _STEP_CHECKS.items():
            with monkeypatch.context() as patch:
                met = _log_edit_steps(patch)
                counted = _CountingEditor(fig3_fe)
                assert check(aut, profile, counted) == expected, name
            assert len(met) == len(set(met)) == sum(counted.calls.values()), name
            assert set(counted.calls) == {(q, event) for q, _, _, event in met}, name
            assert len(counted.calls) < len(met), name

    def test_a_step_shared_by_plant_states_is_taken_once(self, monkeypatch):
        # On this 18-state plant, on which the identity editor passes, many
        # search nodes and joint configurations meet one (editor state,
        # estimates, event): the reference searches, which step the editor
        # for each of them, step it more often than there are such steps.
        aut, profile = oe.random_instance(5, 40, 4)
        ident = oe.MealyEditFunction.identity(profile.defender)
        for name, (check, reference, _) in _STEP_CHECKS.items():
            by_reference = _CountingEditor(ident)
            reference(aut, profile, by_reference)
            with monkeypatch.context() as patch:
                met = _log_edit_steps(patch)
                counted = _CountingEditor(ident)
                check(aut, profile, counted)
            assert len(met) == len(set(met)) == sum(counted.calls.values()), name
            assert len(met) < sum(by_reference.calls.values()), name
