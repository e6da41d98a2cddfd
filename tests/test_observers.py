import importlib.util
import random
import sys
from pathlib import Path

import pytest

import opacedit as oe
from opacedit.observers import ObserverAutomaton, close
from opacedit.opacity import editor_observers

from conftest import FIG3_TEXT, sset
from oracles import (eager_observer_reference, generated_language,
                     inverse_projection_members, reach_set)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def T(s):
    return tuple(s)


class TestReachSet:
    def test_defender_silent_closure(self, fig3_aut):
        got = reach_set(fig3_aut, fig3_aut.initial, None, set("bcd"))
        assert got == sset(fig3_aut, "13")

    def test_intruder_silent_closure(self, fig3_aut):
        got = reach_set(fig3_aut, fig3_aut.initial, None, set("abd"))
        assert got == sset(fig3_aut, "14")

    def test_fully_observable_closure_is_singleton(self, fig3_aut):
        for state in range(fig3_aut.n_states):
            assert reach_set(fig3_aut, state, None, set("abcd")) == {state}

    def test_event_reach(self, fig3_aut):
        got = reach_set(fig3_aut, fig3_aut.initial, "a", set("abd"))
        assert got == sset(fig3_aut, "36")

    def test_event_outside_alphabet_rejected(self, fig3_aut):
        with pytest.raises(ValueError):
            reach_set(fig3_aut, 0, "c", set("abd"))


class TestBuildObserver:
    def test_system_observer_mirrors_the_plant(self, fig3_aut, fig3_profile):
        obs = oe.build_observer(fig3_aut, fig3_profile.observable, fig3_profile.observable)
        assert obs.initial == {fig3_aut.initial}
        assert len(obs.states) == fig3_aut.n_states
        for sset_ in obs.states:
            (state,) = sset_
            for event in fig3_aut.arcs(state):
                assert obs.step(sset_, event) == {fig3_aut.step(state, event)}

    def test_intruder_observer_has_solely_secret_state(self, fig3_aut, fig3_observers):
        _, o_intr, _ = fig3_observers
        assert any(s <= fig3_aut.secret for s in o_intr.states)

    def test_defender_transition_on_b(self, fig3_aut, fig3_observers):
        _, _, o_def = fig3_observers
        assert o_def.step(o_def.initial, "b") == sset(fig3_aut, "25")

    def test_intruder_transition_on_a(self, fig3_aut, fig3_observers):
        _, o_intr, _ = fig3_observers
        assert o_intr.step(o_intr.initial, "a") == sset(fig3_aut, "36")

    def test_initials(self, fig3_aut, fig3_observers):
        _, o_intr, o_def = fig3_observers
        assert o_intr.initial == sset(fig3_aut, "14")
        assert o_def.initial == sset(fig3_aut, "13")

    def test_states_nonempty_and_deterministic(self, fig3_observers):
        for obs in fig3_observers:
            assert all(s for s in obs.states)
            assert len(set(obs.states)) == len(obs.states)


class TestObserverRun:
    def test_db_undefined_for_defender(self, fig3_observers):
        _, _, o_def = fig3_observers
        assert o_def.run(T("db")) is None

    def test_self_loop_on_unseen_event(self, fig3_observers):
        _, _, o_def = fig3_observers
        assert o_def.run(T("a")) == o_def.initial

    def test_intruder_parses_acd(self, fig3_aut, fig3_observers):
        _, o_intr, _ = fig3_observers
        assert o_intr.run(T("acd")) == sset(fig3_aut, "6")

    def test_run_from_custom_start(self, fig3_aut, fig3_observers):
        _, o_intr, _ = fig3_observers
        mid = sset(fig3_aut, "36")
        assert o_intr.run(T("b"), start=mid) == sset(fig3_aut, "5")
        assert o_intr.run(T("d"), start=mid) == sset(fig3_aut, "6")

    def test_word_outside_alphabet_rejected(self, fig3_observers):
        _, o_intr, _ = fig3_observers
        with pytest.raises(ValueError):
            o_intr.run(("z",))

    def test_total_on_invisible_words(self, fig3_observers):
        _, o_intr, o_def = fig3_observers
        assert o_def.run(T("aaaa")) == o_def.initial
        assert o_intr.run(T("cccc")) == o_intr.initial


class TestSoundness:
    def test_true_state_in_estimate_on_random_instances(self):
        # the state actually reached always belongs to the running estimate
        for seed in range(30):
            aut, profile = oe.random_instance(seed)
            for reactive in (profile.intruder, profile.defender, profile.observable):
                obs = oe.build_observer(aut, reactive, profile.observable)
                for trace in generated_language(aut, 5):
                    state = aut.run(aut.initial, trace)
                    estimate = obs.run(oe.project(trace, reactive))
                    assert estimate is not None and state in estimate

    def test_estimate_is_exactly_the_explanation_set(self):
        # members of the estimate are precisely the endpoints of traces with
        # the same projected view
        for seed in range(12):
            aut, profile = oe.random_instance(seed, max_states=4, max_events=3)
            obs = oe.build_observer(aut, profile.intruder, profile.observable)
            for trace in generated_language(aut, 4):
                beta = oe.project(trace, profile.intruder)
                estimate = obs.run(beta)
                bound = aut.n_states * (len(beta) + 1)
                endpoints = {
                    aut.run(aut.initial, member)
                    for member in inverse_projection_members(
                        aut, beta, profile.intruder, bound
                    )
                }
                assert estimate == endpoints


class TestObserversPerPlant:
    def test_each_stage_reads_the_plants_observers(self):
        aut, profile = oe.parse_model(FIG3_TEXT)
        built = oe.standard_observers(aut, profile)
        _, o_intr, o_def = built
        for got, want in ((oe.build_edit_game(aut, profile).observers, built),
                          (oe.standard_observers(aut, profile), built),
                          (editor_observers(aut, profile), (o_intr, o_def))):
            assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
        # another plant, even an equal one, gets observers of its own
        again, _ = oe.parse_model(FIG3_TEXT)
        assert again == aut
        assert oe.standard_observers(again, profile)[1] is not o_intr

    def test_same_alphabets_share_one_observer(self, fig3):
        aut, profile = fig3
        everything = oe.ObservationProfile(profile.observable, profile.intruder,
                                           profile.observable)
        o_sys, _, o_def = oe.standard_observers(aut, everything)
        assert o_sys is o_def


# Each stage that reads a plant with a profile, called with a profile whose
# observable alphabet names the event z that the plant lacks.  The editor
# emits y, outside that alphabet, on b, and the trace dd is not in the
# plant's language, so the stages that check those too must meet the
# profile first.
FOREIGN_PROFILE_STAGES = {
    "verify_cso": lambda aut, profile, fe: oe.verify_cso(aut, profile),
    "build_edit_game": lambda aut, profile, fe: oe.build_edit_game(aut, profile),
    "evaluate_editor": lambda aut, profile, fe: oe.evaluate_editor(aut, profile, fe, 3),
    "exact_ic_check": lambda aut, profile, fe: oe.exact_ic_check(aut, profile, fe),
    "certifying_depth": lambda aut, profile, fe: oe.certifying_depth(aut, profile, fe, 8),
    "default_depth": lambda aut, profile, fe: oe.default_depth(aut, profile),
    "simulate": lambda aut, profile, fe: oe.simulate(aut, profile, fe, T("dd")),
    "find_edit_strategy":
        lambda aut, profile, fe: oe.find_edit_strategy(aut, profile, 1, oe.OPS_ALL, 2),
}


class TestProfileMeetsPlant:
    """The plant–profile check is made once, where an observer is built."""

    @pytest.mark.parametrize("stage", sorted(FOREIGN_PROFILE_STAGES))
    def test_every_stage_refuses_an_undeclared_observable_event(self, stage):
        aut, profile = oe.parse_model(FIG3_TEXT)
        foreign = oe.ObservationProfile(profile.observable | {"z"}, profile.intruder,
                                        profile.defender)
        fe = oe.MealyEditFunction(alphabet=profile.defender, n_states=1, initial=0,
                                  edges={(0, "b"): (T("y"), 0)})
        with pytest.raises(oe.ModelError) as exc:
            FOREIGN_PROFILE_STAGES[stage](aut, foreign, fe)
        assert str(exc.value) == "observable alphabet mentions undeclared events"
        assert not aut._observers

    @pytest.mark.parametrize("reactive, full, error, message", [
        ("ab", "abz", oe.ModelError, "observable alphabet mentions undeclared events"),
        ("abc", "ab", ValueError, "reactive alphabet must be a subset of the full one"),
    ], ids=["full-outside-plant", "reactive-outside-full"])
    def test_build_observer_checks_its_alphabets(self, fig3_aut, reactive, full, error,
                                                 message):
        with pytest.raises(error) as exc:
            oe.build_observer(fig3_aut, reactive, full)
        assert str(exc.value) == message


class TestOnDemand:
    def test_matches_the_eager_reference(self):
        # steps taken in any order before ``states`` is read leave the
        # completed observer exactly as one built in full
        for seed in range(40):
            aut, profile = oe.random_instance(seed)
            rng = random.Random(seed)
            for reactive in (profile.observable, profile.intruder, profile.defender):
                want = eager_observer_reference(aut, reactive, profile.observable)
                obs = oe.build_observer(aut, reactive, profile.observable)
                assert obs.initial == want.initial
                pairs = [(s, e) for s in want.states for e in sorted(reactive)]
                for s, e in rng.sample(pairs, len(pairs) // 2):
                    obs.step(s, e)
                assert obs.states == want.states
                for s, e in pairs:
                    assert obs.step(s, e) == want.delta.get((s, e))
                for e in sorted(profile.observable - reactive):
                    assert all(obs.step(s, e) is s for s in want.states)


def _bench_module(name):
    key = f"bench_{name}"
    module = sys.modules.get(key)
    if module is None:
        spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
        # registered before it runs: its dataclasses look their module up
        module = sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _sized_plant(name):
    spec = _bench_module("workloads").SIZED_PLANTS[name]
    return oe.parse_model(_bench_module("sized").sized_model(**spec))


@pytest.fixture
def stepped(monkeypatch):
    """Distinct estimates passed to ``ObserverAutomaton.step``, by the
    observer's reactive alphabet."""
    seen: dict[frozenset, set] = {}
    step = ObserverAutomaton.step

    def counting(self, state, event):
        seen.setdefault(self.reactive, set()).add(state)
        return step(self, state, event)

    monkeypatch.setattr(ObserverAutomaton, "step", counting)
    return seen


class TestLaziness:
    # the full defender observer of sized-obs has 24,287 estimates and the
    # full intruder observer of sized-leak 7,443
    def test_check_steps_only_the_estimates_it_reaches(self, stepped):
        aut, profile = _sized_plant("sized-obs")
        editor = oe.parse_mealy((BENCH / "editors" / "identity-bcd.mealy").read_text())
        oe.evaluate_editor(aut, profile, editor, 12)
        assert 0 < len(stepped[profile.defender]) < 2500

    def test_verify_stops_at_the_leak(self, stepped):
        aut, profile = _sized_plant("sized-leak")
        verdict = oe.verify_cso(aut, profile)
        assert verdict == oe.OpacityVerdict(False, ("b", "c", "a", "d"))
        assert 0 < len(stepped[profile.intruder]) < 500


class TestSilentClosures:
    """The closures ``close`` computes once per strongly connected component
    of the silent arcs are the per-state searches of the oracle."""

    @staticmethod
    def _check(aut, profile) -> bool:
        """Compare for each observer's silent events; True when some
        component has more than one state."""
        shared = False
        for reactive in (profile.observable, profile.intruder, profile.defender):
            closures: dict = {}
            close(range(aut.n_states),
                  lambda x: [dst for event, dst in aut.arcs(x).items() if event not in reactive],
                  closures)
            got = [closures[x] for x in range(aut.n_states)]
            assert got == [reach_set(aut, x, None, reactive) for x in range(aut.n_states)]
            shared |= len({id(c) for c in got}) < aut.n_states
        return shared

    def test_random_plants(self):
        shared = [self._check(*oe.random_instance(seed, max_states=10, max_events=5))
                  for seed in range(100)]
        assert any(shared)  # silent cycles occur among the seeds

    @pytest.mark.parametrize("name", ["sized-obs", "sized-opaque", "sized-leak"])
    def test_sized_plants(self, name):
        self._check(*_sized_plant(name))
