import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opacedit as oe
from opacedit.automata import ParseError

from conftest import FIG3_TEXT, sset
from oracles import generated_language, inverse_projection_members


def T(s):
    return tuple(s)


class TestParsing:
    def test_round_trip(self, fig3):
        aut, profile = fig3
        text = oe.format_model(aut, profile)
        aut2, profile2 = oe.parse_model(text)
        assert aut2 == aut
        assert profile2 == profile

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="line 2.*frobnicate"):
            oe.parse_model("states s\nfrobnicate x\n")

    def test_duplicate_transition(self):
        bad = FIG3_TEXT + "trans 1 a 4\n"
        with pytest.raises(ParseError, match="line 19.*duplicate transition"):
            oe.parse_model(bad)

    def test_undeclared_state(self):
        with pytest.raises(ParseError, match="line 4.*undeclared state '9'"):
            oe.parse_model("states s t\nevents a\ninitial s\ntrans s a 9\n")

    def test_undeclared_event(self):
        with pytest.raises(ParseError, match="undeclared event"):
            oe.parse_model("states s\nevents a\ninitial s\nobservable z\n")

    def test_intruder_must_be_observable(self):
        text = "states s\nevents a b\ninitial s\nobservable a\nintruder b\n"
        with pytest.raises(ParseError, match="not observable"):
            oe.parse_model(text)

    def test_missing_initial(self):
        with pytest.raises(ParseError, match="initial"):
            oe.parse_model("states s\nevents a\n")

    def test_comments_and_blank_lines(self):
        aut, _ = oe.parse_model("# header\n\nstates s\nevents a\ninitial s  # tail\n")
        assert aut.labels == ("s",)


class TestExtendedTransition:
    def test_empty_trace_is_identity(self, fig3_aut):
        for state in range(fig3_aut.n_states):
            assert fig3_aut.run(state, ()) == state

    def test_abc_reaches_the_secret(self, fig3_aut):
        end = fig3_aut.run(fig3_aut.initial, T("abc"))
        assert end is not None
        assert end in fig3_aut.secret
        assert fig3_aut.labels[end] == "5"

    def test_dd_is_undefined(self, fig3_aut):
        assert fig3_aut.run(fig3_aut.initial, T("dd")) is None

    def test_composition(self, fig3_aut):
        mid = fig3_aut.run(fig3_aut.initial, T("ab"))
        assert fig3_aut.run(mid, T("c")) == fig3_aut.run(fig3_aut.initial, T("abc"))


class TestProjection:
    def test_intruder_view_of_abc(self):
        assert oe.project(T("abc"), set("abd")) == T("ab")

    def test_defender_view_of_abc(self):
        assert oe.project(T("abc"), set("bcd")) == T("bc")

    def test_empty(self):
        assert oe.project((), set("ab")) == ()

    @given(st.lists(st.sampled_from("abcd")), st.frozensets(st.sampled_from("abcd")))
    @settings(max_examples=300)
    def test_idempotent(self, trace, alphabet):
        once = oe.project(trace, alphabet)
        assert oe.project(once, alphabet) == once

    @given(
        st.lists(st.sampled_from("abcd")),
        st.lists(st.sampled_from("abcd")),
        st.frozensets(st.sampled_from("abcd")),
    )
    @settings(max_examples=300)
    def test_monoid_morphism(self, u, v, alphabet):
        assert oe.project(tuple(u) + tuple(v), alphabet) == (
            oe.project(u, alphabet) + oe.project(v, alphabet)
        )


class TestGeneratedLanguage:
    def test_depth_zero(self, fig3_aut):
        assert generated_language(fig3_aut, 0) == [()]

    def test_depth_three_contains_examples(self, fig3_aut):
        lang = generated_language(fig3_aut, 3)
        assert T("abc") in lang
        assert T("acd") in lang

    def test_no_transitions(self):
        aut, _ = oe.parse_model("states s\nevents a\ninitial s\n")
        assert generated_language(aut, 4) == [()]

    def test_ordering_and_prefix_closure(self, fig3_aut):
        lang = generated_language(fig3_aut, 4)
        assert lang == sorted(set(lang), key=lambda t: (len(t), t))
        as_set = set(lang)
        for trace in lang:
            assert trace[:-1] in as_set or trace == ()

    def test_monotone_in_depth(self, fig3_aut):
        assert set(generated_language(fig3_aut, 3)) <= set(
            generated_language(fig3_aut, 4)
        )


class TestInverseProjection:
    def test_contains_abc(self, fig3_aut):
        members = inverse_projection_members(fig3_aut, T("ab"), set("abd"), 3)
        assert T("abc") in members

    def test_epsilon(self, fig3_aut):
        assert inverse_projection_members(fig3_aut, (), set("abcd"), 0) == [()]

    def test_contains_acd(self, fig3_aut):
        members = inverse_projection_members(fig3_aut, T("ad"), set("abd"), 3)
        assert T("acd") in members

    def test_rejects_short_depth(self, fig3_aut):
        with pytest.raises(ValueError):
            inverse_projection_members(fig3_aut, T("ab"), set("abd"), 1)

    def test_members_project_back_and_run(self, fig3_aut):
        alphabet = set("abd")
        for beta in [T("ab"), T("ad"), T("a")]:
            for member in inverse_projection_members(fig3_aut, beta, alphabet, 5):
                assert oe.project(member, alphabet) == beta
                assert fig3_aut.run(fig3_aut.initial, member) is not None


class TestModelValidation:
    def test_secret_lives_on_the_plant(self, fig3_aut):
        assert sset(fig3_aut, "5") == fig3_aut.secret

    def test_unobservable_is_derived(self, fig3):
        aut, profile = fig3
        assert profile.unobservable(aut) == frozenset()

    def test_determinism_enforced(self):
        with pytest.raises(ParseError, match="duplicate"):
            oe.parse_model(
                "states s t\nevents a\ninitial s\ntrans s a t\ntrans s a s\n"
            )

    def test_fmt_state_set(self, fig3_aut):
        assert oe.fmt_state_set(fig3_aut, sset(fig3_aut, "13")) == "{1,3}"

    @pytest.mark.parametrize("event", ["-", "a·b"])
    def test_reserved_event_id_refused_at_construction(self, event):
        # the transducer format writes '-' for the empty word and joins
        # words with '·', so such an event would not survive a round trip
        with pytest.raises(oe.ModelError, match="reserved") as info:
            oe.FiniteAutomaton(labels=("s",), events=(event,), delta={(0, event): 0},
                               initial=0, secret=frozenset())
        assert not isinstance(info.value, ParseError)
