import textwrap

import pytest

import opacedit as oe

from oracles import InfoState, decode

# Running example: six states, the secret is state 5, the intruder sees
# {a,b,d}, the defender sees {b,c,d}.  Plant trace abc reaches the secret;
# the intruder view ab pins the estimate to {5}.
FIG3_TEXT = textwrap.dedent("""\
    # running example
    states 1 2 3 4 5 6
    initial 1
    secret 5
    events a b c d
    observable a b c d
    intruder a b d
    defender b c d
    trans 1 a 3
    trans 1 b 2
    trans 1 c 4
    trans 2 c 2
    trans 2 d 6
    trans 3 b 5
    trans 3 c 6
    trans 4 d 4
    trans 5 c 5
    trans 6 d 6
""")

SUBS_ONLY = frozenset({"substitute"})

# The defender cannot see a, so on b it cannot tell the leaking step
# 1 -b-> 2 from the harmless 3 -b-> 1: trimming keeps a response for each,
# but merging them makes every response to b partial.
FORCED_LEAK_TEXT = (
    "states 1 2 3\ninitial 1\nsecret 2\nevents a b c\n"
    "observable a b c\nintruder a b\ndefender b c\n"
    "trans 1 a 3\ntrans 1 b 2\ntrans 1 c 1\ntrans 3 b 1\n"
)


@pytest.fixture(scope="session")
def fig3():
    return oe.parse_model(FIG3_TEXT)


@pytest.fixture(scope="session")
def fig3_aut(fig3):
    return fig3[0]


@pytest.fixture(scope="session")
def fig3_profile(fig3):
    return fig3[1]


@pytest.fixture(scope="session")
def fig3_observers(fig3):
    return oe.standard_observers(*fig3)


@pytest.fixture(scope="session")
def fig3_game(fig3):
    aut, profile = fig3
    # the fixtures inspect the whole structure
    return oe.build_edit_game(aut, profile, k=0, ops=SUBS_ONLY).complete()


@pytest.fixture(scope="session")
def fig3_tgs(fig3_game):
    tgs = oe.trim_game(fig3_game)
    assert tgs is not None
    return tgs


@pytest.fixture(scope="session")
def fig3_uem(fig3_tgs):
    # the fixtures inspect the whole structure
    return oe.build_uem(fig3_tgs).complete()


@pytest.fixture(scope="session")
def fig3_em(fig3_uem):
    em = oe.refine_to_em(fig3_uem)
    assert em is not None
    return em


@pytest.fixture(scope="session")
def fig3_fe(fig3_em):
    return oe.synthesize(fig3_em, policy="prefer-passthrough")


def sset(aut, labels):
    """State set from display labels, e.g. sset(aut, "13") -> {ids of 1,3}."""
    return frozenset(aut.labels.index(name) for name in labels)


def info(aut, sys, intr, dfn):
    return InfoState(sset(aut, sys), sset(aut, intr), sset(aut, dfn))


def code(game, state):
    """The code of an information or augmented state labeled in ``game``,
    found through ``decode``."""
    (found,) = [c for c in game.a_states + game.f_states if decode(game, c) == state]
    return found
