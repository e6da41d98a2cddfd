"""Plants with genuinely unobservable events: nobody sees them, estimates
coast through them, and the system observer stops mirroring the plant."""

import opacedit as oe

from conftest import sset
from oracles import decode

# u is invisible to everyone; the intruder additionally misses b
MODEL = (
    "states 1 2 3 4\ninitial 1\nsecret 2\nevents u a b\n"
    "observable a b\nintruder a\ndefender a b\n"
    "trans 1 u 2\ntrans 1 a 3\ntrans 2 a 4\ntrans 2 b 2\ntrans 4 b 4\n"
)


def _model():
    return oe.parse_model(MODEL)


class TestUnobservableEvents:
    def test_unobservable_is_derived(self):
        aut, profile = _model()
        assert profile.unobservable(aut) == {"u"}

    def test_system_observer_closes_over_silent_steps(self):
        aut, profile = _model()
        o_sys, o_intr, o_def = oe.standard_observers(aut, profile)
        assert o_sys.initial == sset(aut, "12")
        assert o_sys.step(o_sys.initial, "a") == sset(aut, "34")
        assert o_intr.initial == sset(aut, "12")
        assert o_def.initial == sset(aut, "12")

    def test_game_initial_uses_the_closure(self):
        aut, profile = _model()
        game = oe.build_edit_game(aut, profile, k=0)
        assert decode(game, game.initial).sys == sset(aut, "12")

    def test_opacity_holds_here(self):
        aut, profile = _model()
        # the silent step into the secret is always confusable with staying
        assert oe.verify_cso(aut, profile).opaque

    def test_simulate_skips_silent_events(self):
        aut, profile = _model()
        ident = oe.MealyEditFunction.identity(profile.defender)
        steps = oe.simulate(aut, profile, ident, ("u", "a", "b"))
        assert steps[0].editor_output == ()
        assert steps[0].intruder_estimate == sset(aut, "12")
        assert steps[1].editor_output == ("a",)
        assert steps[1].intruder_estimate == sset(aut, "34")
        assert [s.leak for s in steps] == [False, False, False]

    def test_checks_quantify_over_projections(self):
        aut, profile = _model()
        ident = oe.MealyEditFunction.identity(profile.defender)
        assert oe.evaluate_editor(aut, profile, ident, 4).ok
        assert oe.exact_ic_check(aut, profile, ident)

    def test_secret_prefix_with_silent_witness(self):
        # making u reach a solely secret dead end breaks confidentiality of
        # the empty observation
        aut, profile = oe.parse_model(
            "states 1 2\ninitial 1\nsecret 1 2\nevents u a\n"
            "observable a\nintruder a\ndefender a\n"
            "trans 1 u 2\n"
        )
        ident = oe.MealyEditFunction.identity(profile.defender)
        report = oe.evaluate_editor(aut, profile, ident, 2)
        assert report == oe.OracleVerdict(False, "confidentiality", ())
