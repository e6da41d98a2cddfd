import itertools
import random
from pathlib import Path

import pytest

import opacedit as oe
from opacedit.game import PASSTHROUGH, substitution
from opacedit.trimming import BackwardSolver, backward_dead, live_part

from conftest import SUBS_ONLY, info
from oracles import AugmentedState, decode, live_rows, sweep_dead, trim_game_naive

ROOT = Path(__file__).resolve().parent.parent


class TestTrimFig3:
    def test_only_the_leak_is_removed(self, fig3_aut, fig3_tgs):
        leak = info(fig3_aut, "5", "5", "25")
        game = fig3_tgs.game
        assert tuple(decode(game, v) for v in fig3_tgs.removed_a) == (leak,)
        assert len(fig3_tgs.removed_f) == 1
        assert decode(game, fig3_tgs.removed_f[0]).info == leak

    def test_exactly_one_action_disabled(self, fig3_aut, fig3_tgs):
        assert len(fig3_tgs.disabled) == 1
        ((vf, acts),) = fig3_tgs.disabled.items()
        assert decode(fig3_tgs.game, vf) == AugmentedState(info(fig3_aut, "5", "36", "13"), "b")
        assert acts == (PASSTHROUGH,)
        assert PASSTHROUGH not in fig3_tgs.game.def_moves[vf]
        assert substitution("c") in fig3_tgs.game.def_moves[vf]

    def test_initial_survives(self, fig3_game, fig3_tgs):
        assert fig3_tgs.game.initial == fig3_game.initial

    def test_rows_that_lost_nothing_are_shared(self, fig3_game, fig3_tgs):
        kept = fig3_tgs.game
        assert all(row is fig3_game.sys_moves[v] for v, row in kept.sys_moves.items())
        for vf, row in kept.def_moves.items():
            assert (row is fig3_game.def_moves[vf]) == (vf not in fig3_tgs.disabled)

    def test_restricted_game_shares_the_source(self, fig3):
        game = oe.build_edit_game(*fig3, k=0, ops=SUBS_ONLY).complete()
        rows = tuple({v: dict(row) for v, row in moves.items()}
                     for moves in (game.sys_moves, game.def_moves))
        a_states = game.a_states
        utility = [game.utility(v) for v in a_states + game.f_states]
        tgs = oe.trim_game(game)
        kept = tgs.game
        assert tgs.removed_a and kept is not game
        assert kept.observers is game.observers
        codes = list(kept.sys_moves) + list(kept.def_moves)
        assert all(decode(kept, v) == decode(game, v) for v in codes)
        assert all(kept.utility(v) == 1 for v in codes)
        assert all(kept.expand(v) is kept.sys_moves[v] for v in kept.sys_moves)
        assert (game.sys_moves, game.def_moves) == rows
        assert game.a_states == a_states
        assert [game.utility(v) for v in a_states + game.f_states] == utility


NO_SECRET = (
    "states 1 2\ninitial 1\nevents a b\nobservable a b\n"
    "intruder a\ndefender b\ntrans 1 a 2\ntrans 2 b 1\n"
)


class TestTrimEdgeCases:
    def test_no_problematic_states_means_no_change(self):
        aut, profile = oe.parse_model(NO_SECRET)
        game = oe.build_edit_game(aut, profile, k=1).complete()
        assert all(game.utility(v) == 1 for v in list(game.a_states) + list(game.f_states))
        tgs = oe.trim_game(game)
        assert set(tgs.game.a_states) == set(game.a_states)
        assert set(tgs.game.f_states) == set(game.f_states)
        assert not tgs.disabled
        for vf in game.f_states:
            assert tuple(tgs.game.def_moves[vf]) == tuple(game.def_moves[vf])

    def test_nothing_dies_returns_the_walked_game(self):
        aut, profile = oe.parse_model(
            (ROOT / "bench" / "instances" / "gen-27-12-5.aut").read_text())
        game = oe.build_edit_game(aut, profile, k=1)
        tgs = oe.trim_game(game)
        assert tgs.game is game
        assert not tgs.disabled and not tgs.removed_a and not tgs.removed_f
        assert len(game.sys_moves) == len(game.a_states) == 1500

    def test_rows_the_walk_did_not_reach_are_left_out(self):
        aut, profile = oe.parse_model(NO_SECRET)
        whole = oe.build_edit_game(aut, profile, k=1).complete()
        game = oe.build_edit_game(aut, profile, k=1).complete()
        stray = next(v for v in range(len(whole.a_states) + 1) if v not in whole.a_states)
        game.expand(stray)
        tgs = oe.trim_game(game)
        assert tgs.game is not game
        assert tgs.game.a_states == whole.a_states
        assert tgs.game.sys_moves == whole.sys_moves
        assert tgs.game.def_moves == whole.def_moves

    def test_secret_initial_state_is_unenforceable(self):
        aut, profile = oe.parse_model(
            "states s\ninitial s\nsecret s\nevents a\nobservable a\n"
            "intruder a\ndefender a\n"
        )
        game = oe.build_edit_game(aut, profile, k=1)
        assert game.utility(game.initial) == 0
        assert oe.trim_game(game) is None

    def test_fixpoint_idempotence(self, fig3_tgs):
        again = oe.trim_game(fig3_tgs.game)
        assert again is not None
        assert set(again.game.a_states) == set(fig3_tgs.game.a_states)
        assert set(again.game.f_states) == set(fig3_tgs.game.f_states)
        assert again.game.def_moves == fig3_tgs.game.def_moves
        assert not again.disabled


class TestTrimProperties:
    @pytest.mark.parametrize("seed", range(50))
    def test_worklist_equals_naive_sweep(self, seed):
        aut, profile = oe.random_instance(seed)
        game = oe.build_edit_game(aut, profile, k=1).complete()
        fast = oe.trim_game(game)
        slow = trim_game_naive(game)
        if fast is None or slow is None:
            assert fast is None and slow is None
            return
        assert fast.game.a_states == slow.game.a_states
        assert fast.game.f_states == slow.game.f_states
        assert fast.game.sys_moves == slow.game.sys_moves
        assert fast.game.def_moves == slow.game.def_moves
        assert fast.disabled == slow.disabled
        assert fast.removed_a == slow.removed_a
        assert fast.removed_f == slow.removed_f

    @pytest.mark.parametrize("seed", range(25))
    def test_system_moves_never_disabled(self, seed):
        aut, profile = oe.random_instance(seed)
        game = oe.build_edit_game(aut, profile, k=1)
        tgs = oe.trim_game(game)
        if tgs is None:
            return
        for v in tgs.game.a_states:
            assert set(tgs.game.sys_moves[v]) == set(game.sys_moves[v])

    @pytest.mark.parametrize("seed", range(25))
    def test_no_dead_ends_among_survivors(self, seed):
        aut, profile = oe.random_instance(seed)
        game = oe.build_edit_game(aut, profile, k=1)
        tgs = oe.trim_game(game)
        if tgs is None:
            return
        for vf in tgs.game.f_states:
            assert tgs.game.def_moves[vf]
        survivors = set(tgs.game.a_states)
        for vf in tgs.game.f_states:
            for target in tgs.game.def_moves[vf].values():
                assert target in survivors


def _random_safety_game(rng):
    """Bipartite rows over plant nodes 0..n-1 and defender nodes ("f", i)."""
    n_a, n_f = rng.randint(1, 8), rng.randint(1, 8)
    unctrl = {
        a: {e: ("f", rng.randrange(n_f)) for e in rng.sample("abc", rng.randint(0, 3))}
        for a in range(n_a)
    }
    ctrl = {
        ("f", i): {x: rng.randrange(n_a) for x in rng.sample("xyz", rng.randint(1, 3))}
        for i in range(n_f)
    }
    nodes = list(unctrl) + list(ctrl)
    seeds = rng.sample(nodes, rng.randint(0, 2))
    cut = {(f, x) for f, row in ctrl.items() for x in row if rng.random() < 0.2}
    return unctrl, ctrl, seeds, cut


def _cut_at(cut):
    """The ``(node, label)`` pairs of ``cut`` as the solver's mapping."""
    at = {}
    for node, label in cut:
        at.setdefault(node, set()).add(label)
    return at


class TestSafetySolver:
    def test_worklist_equals_naive_sweep_on_random_graphs(self):
        rng = random.Random(20241010)
        pick = random.Random(11)
        for _ in range(500):
            unctrl, ctrl, seeds, cut = _random_safety_game(rng)
            dead = backward_dead(unctrl, ctrl, seeds, _cut_at(cut))
            assert dead == sweep_dead(unctrl, ctrl, seeds, cut)
            if 0 not in dead:
                assert live_part(0, unctrl, ctrl, dead, _cut_at(cut)) == live_rows(
                    0, unctrl, ctrl, dead, cut
                )
            # Plant nodes without a row appear only as targets of controllable
            # rows, so seeding them as dead cuts every edge into them.
            rowless = set(pick.sample(range(1, len(unctrl)), pick.randint(0, len(unctrl) - 1)))
            rowed = {a: row for a, row in unctrl.items() if a not in rowless}
            into = cut | {(f, x) for f, row in ctrl.items() for x, a in row.items()
                          if a in rowless}
            seeded = backward_dead(rowed, ctrl, list(seeds) + sorted(rowless), _cut_at(cut))
            cutting = backward_dead(rowed, ctrl, seeds, _cut_at(into))
            assert cutting == sweep_dead(rowed, ctrl, seeds, into)
            assert seeded - rowless == cutting - rowless
            if 0 not in seeded:
                assert live_part(0, rowed, ctrl, seeded, _cut_at(cut)) == live_part(
                    0, rowed, ctrl, cutting, _cut_at(into)
                )


class TestIncrementalSolver:
    @staticmethod
    def _feed(solver, unctrl, ctrl, cut, steps):
        """Feed ``steps`` one at a time, checking ``dead`` after each."""
        fed_u, fed_c, fed_seeds = {}, {}, []
        for kind, node in steps:
            if kind == "seed":
                solver.seed(node)
                fed_seeds.append(node)
            elif kind == "ctrl":
                solver.add_ctrl(node, ctrl[node], {x for f, x in cut if f == node})
                fed_c[node] = ctrl[node]
            else:
                solver.add_unctrl(node, unctrl[node])
                fed_u[node] = unctrl[node]
            assert solver.dead == sweep_dead(fed_u, fed_c, fed_seeds, cut)

    def test_rows_fed_in_any_order(self):
        # the graphs of the backward_dead cross-check above, rows, seeds and
        # cuts fed one at a time in shuffled order
        rng = random.Random(20241010)
        shuffle = random.Random(7)
        for _ in range(500):
            unctrl, ctrl, seeds, cut = _random_safety_game(rng)
            steps = ([("seed", node) for node in seeds]
                     + [("ctrl", node) for node in ctrl]
                     + [("unctrl", node) for node in unctrl])
            shuffle.shuffle(steps)
            solver = BackwardSolver()
            self._feed(solver, unctrl, ctrl, cut, steps)
            assert solver.dead == sweep_dead(unctrl, ctrl, seeds, cut)

    def test_every_row_before_any_seed(self):
        rng = random.Random(20241011)
        shuffle = random.Random(8)
        for _ in range(500):
            unctrl, ctrl, seeds, cut = _random_safety_game(rng)
            rows = [("ctrl", node) for node in ctrl] + [("unctrl", node) for node in unctrl]
            shuffle.shuffle(rows)
            solver = BackwardSolver()
            self._feed(solver, unctrl, ctrl, cut, rows + [("seed", node) for node in seeds])

    def test_first_death_is_a_fully_cut_row(self):
        rng = random.Random(20241012)
        shuffle = random.Random(9)
        for _ in range(500):
            unctrl, ctrl, _, cut = _random_safety_game(rng)
            lost = rng.choice(sorted(ctrl))
            cut |= {(lost, x) for x in ctrl[lost]}
            steps = [("ctrl", node) for node in ctrl] + [("unctrl", node) for node in unctrl]
            shuffle.shuffle(steps)
            solver = BackwardSolver()
            self._feed(solver, unctrl, ctrl, cut, steps)
            assert lost in solver.dead


OP_SETS = [frozenset(c) for n in (1, 2, 3)
           for c in itertools.combinations(sorted(oe.OPS_ALL), n)]


class TestOnTheFlyTrim:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", range(100))
    def test_lazy_game_trims_like_the_complete_one(self, seed, k):
        aut, profile = oe.random_instance(seed)
        for ops in OP_SETS:
            lazy = oe.build_edit_game(aut, profile, k=k, ops=ops)
            whole = oe.build_edit_game(aut, profile, k=k, ops=ops).complete()
            got, want = oe.trim_game(lazy), oe.trim_game(whole)
            # a utility-0 state is dead from the start and never expanded
            assert all(lazy.utility(v) == 1 for v in lazy.sys_moves)
            if got is None or want is None:
                assert got is None and want is None
                continue
            assert got.game.a_states == want.game.a_states
            assert got.game.f_states == want.game.f_states
            assert got.game.sys_moves == want.game.sys_moves
            assert got.game.def_moves == want.game.def_moves
            assert got.disabled == want.disabled
            # no kept state is problematic, so the trimmed game needs no table
            assert all(got.game.utility(v) == 1 for v in got.game.a_states + got.game.f_states)
            # every state the walk reached is proven dead or expanded
            assert set(lazy.sys_moves) | set(got.removed_a) == set(lazy.a_states)

    def test_refuted_without_building_the_game(self):
        # the whole game at k=2 has 19,421 information states
        aut, profile = oe.parse_model(
            (ROOT / "bench" / "instances" / "gen-53-30-10.aut").read_text())
        game = oe.build_edit_game(aut, profile, k=2)
        assert oe.trim_game(game) is None
        assert len(game.a_states) <= 1000
        assert all(game.utility(v) == 1 for v in game.sys_moves)


class _GameStrategyEditor:
    """Editor that follows one fixed choice per augmented state of a game.

    Its state is the current information state, so it reacts to everything
    observable; this is the full-observation strategy family embedded in the
    game structure before any merging.
    """

    def __init__(self, game, choice, defender):
        self.game = game
        self.choice = choice
        self.defender = defender
        self.initial = game.initial

    def step(self, state, event):
        vf = self.game.sys_moves.get(state, {}).get(event)
        if vf is None:
            return None
        act = PASSTHROUGH if event not in self.defender else self.choice.get(vf)
        if act is None:
            return None
        target = self.game.def_moves[vf].get(act)
        if target is None:
            return None
        return (act.word(event), target)


def _strategy_space(game, defender):
    """All full-observation strategies of a small game, as choice dicts."""
    import itertools

    slots = [vf for vf in game.f_states if decode(game, vf).pending in defender]
    menus = [sorted(game.def_moves[vf], key=lambda a: a.sort_key()) for vf in slots]
    if any(not menu for menu in menus):
        return None
    total = 1
    for menu in menus:
        total *= len(menu)
        if total > 20000:
            return None
    return [dict(zip(slots, combo)) for combo in itertools.product(*menus)]


def _extractable(tgs, choice, defender):
    """Does the choice stay inside the trimmed game from its initial state?"""
    if tgs is None:
        return False
    stack = [tgs.game.initial]
    seen = {tgs.game.initial}
    inside_f = set(tgs.game.f_states)
    while stack:
        v = stack.pop()
        for event, vf in tgs.game.sys_moves[v].items():
            if vf not in inside_f:
                return False
            act = PASSTHROUGH if event not in defender else choice.get(vf)
            if act is None or act not in tgs.game.def_moves[vf]:
                return False
            target = tgs.game.def_moves[vf][act]
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return True


class TestTrimCharacterizesAvailabilityAndConfidentiality:
    @pytest.mark.parametrize("seed", range(30))
    def test_strategy_level_equivalence(self, seed):
        # full-observation strategies survive the trim exactly when they are
        # available and confidential at every depth
        aut, profile = oe.random_instance(seed, max_states=4, max_events=3)
        game = oe.build_edit_game(
            aut, profile, k=0, ops=frozenset({"substitute", "delete"})).complete()
        strategies = _strategy_space(game, profile.defender)
        if strategies is None:
            pytest.skip("strategy space too large for exhaustive cross-check")
        tgs = oe.trim_game(game)
        for choice in strategies:
            editor = _GameStrategyEditor(game, choice, profile.defender)
            passes = oe.exact_ic_check(aut, profile, editor)
            assert passes == _extractable(tgs, choice, profile.defender)
