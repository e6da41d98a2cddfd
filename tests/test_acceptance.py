"""Acceptance suite: one test per criterion, timed, printing a verdict line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS/FAIL verdicts with timings.
"""
import random
import time
from contextlib import contextmanager

import opacedit as oe
from opacedit.cli import main
from opacedit.game import PASSTHROUGH

from conftest import FIG3_TEXT, SUBS_ONLY, code, info, sset
from oracles import (
    AugmentedState, decode, decoded, generated_language, needs_editing, trim_game_naive,
)


@contextmanager
def verdict(number, summary):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({summary}): FAIL "
              f"[{time.monotonic() - start:.2f}s]")
        raise
    print(f"ACCEPTANCE {number} ({summary}): PASS "
          f"[{time.monotonic() - start:.2f}s]")


def test_criterion_1_verification_verdict(fig3, tmp_path, capsys):
    with verdict(1, "fixture is NOT OPAQUE with witness projecting to ab"):
        aut, profile = fig3
        start = time.monotonic()
        result = oe.verify_cso(aut, profile)
        elapsed = time.monotonic() - start
        assert not result.opaque
        assert oe.project(result.witness, profile.intruder) == ("a", "b")
        assert elapsed < 1.0
        path = tmp_path / "fig3.aut"
        path.write_text(FIG3_TEXT)
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "NOT OPAQUE" in out


def test_criterion_2_observer_goldens(fig3_aut, fig3_observers):
    with verdict(2, "observer initial states and transitions"):
        aut = fig3_aut
        _, o_intr, o_def = fig3_observers
        assert o_def.initial == sset(aut, "13")
        assert o_def.step(o_def.initial, "b") == sset(aut, "25")
        assert o_def.run(("d", "b")) is None
        assert o_intr.initial == sset(aut, "14")
        assert o_intr.step(o_intr.initial, "a") == sset(aut, "36")


def test_criterion_3_game_states_and_utility(fig3, fig3_game):
    with verdict(3, "game structure states and utility labels"):
        aut, _ = fig3
        start = time.monotonic()
        game = oe.build_edit_game(aut, fig3[1], k=0, ops=SUBS_ONLY).complete()
        elapsed = time.monotonic() - start
        states = {decode(game, v) for v in game.a_states}
        assert info(aut, "5", "36", "46") in states
        assert info(aut, "6", "2", "25") in states
        assert game.utility(code(game, info(aut, "5", "5", "25"))) == 0
        assert game.utility(code(game, info(aut, "6", "5", "25"))) == 1
        assert elapsed < 1.0


def test_criterion_4_trim_golden(fig3_aut, fig3_tgs):
    with verdict(4, "trimming disables exactly the passthrough of b"):
        leak = info(fig3_aut, "5", "5", "25")
        game = fig3_tgs.game
        assert tuple(decode(game, v) for v in fig3_tgs.removed_a) == (leak,)
        assert all(decode(game, vf).info == leak for vf in fig3_tgs.removed_f)
        assert len(fig3_tgs.disabled) == 1
        ((vf, acts),) = fig3_tgs.disabled.items()
        assert decode(game, vf) == AugmentedState(info(fig3_aut, "5", "36", "13"), "b")
        assert acts == (PASSTHROUGH,)


def test_criterion_5_mechanism_goldens(fig3_aut, fig3_uem, fig3_em):
    with verdict(5, "merged mechanism states and refinement"):
        v0 = info(fig3_aut, "1", "14", "13")
        v1 = info(fig3_aut, "3", "36", "13")
        game = fig3_uem.game
        assert decoded(game, fig3_uem.initial) == frozenset({v0, v1})
        on_b = fig3_uem.moves_in[fig3_uem.initial]["b"]
        assert decoded(game, on_b) == frozenset({
            AugmentedState(info(fig3_aut, "2", "14", "13"), "b"),
            AugmentedState(info(fig3_aut, "5", "36", "13"), "b"),
        })
        # the passthrough successor of b dies during refinement
        assert (on_b, PASSTHROUGH) in fig3_uem.partial
        ghost = fig3_uem.moves_out[on_b][PASSTHROUGH]
        refined_on_b = fig3_em.moves_in[fig3_em.initial]["b"]
        assert PASSTHROUGH not in fig3_em.moves_out[refined_on_b]
        assert ghost not in set(fig3_em.ua_states)
        assert fig3_em.ua_states and fig3_em.uf_states


def test_criterion_6_end_to_end(fig3, fig3_fe):
    with verdict(6, "synthesized editor turns abc into acd without leaking"):
        aut, profile = fig3
        state = fig3_fe.initial
        emitted = []
        for event in ("a", "b", "c"):
            word, state = fig3_fe.step(state, event)
            emitted.extend(word)
        assert tuple(emitted) == ("a", "c", "d")
        steps = oe.simulate(aut, profile, fig3_fe, ("a", "b", "c"))
        assert steps[-1].intruder_estimate in (sset(aut, "4"), sset(aut, "6"))
        assert not any(s.leak for s in steps)


def test_criterion_7_theorem_agreement_suite():
    with verdict(7, "pipeline and exhaustive oracle agree on 200 instances"):
        start = time.monotonic()
        tested = nonempty = empty = 0
        seed = 0
        while tested < 200:
            aut, profile = oe.random_instance(seed, max_states=5, max_events=4)
            seed += 1
            if profile.intruder <= profile.defender or profile.defender <= profile.intruder:
                continue
            tested += 1
            k = seed % 2
            ops = oe.OPS_ALL if k == 1 else oe.OPS_ALL - {"insert"}
            game = oe.build_edit_game(aut, profile, k=k, ops=ops)
            tgs = oe.trim_game(game)
            em = oe.refine_to_em(oe.build_uem(tgs)) if tgs else None
            if em is not None:
                nonempty += 1
                for policy in oe.POLICIES:
                    fe = oe.synthesize(em, policy=policy)
                    depth = oe.certifying_depth(aut, profile, fe, cap=8)
                    assert oe.oracle_ic_enforcing(aut, profile, fe, depth).ok, (
                        f"seed {seed - 1} policy {policy}"
                    )
                    assert oe.exact_ic_check(aut, profile, fe), (
                        f"seed {seed - 1} policy {policy} (exact)"
                    )
            else:
                empty += 1
                found = oe.find_edit_strategy(aut, profile, k, ops, 8)
                assert found is None, (
                    f"seed {seed - 1}: bounded strategy found despite empty mechanism:\n"
                    f"{oe.format_mealy(found)}"
                )
                for editor in oe.iter_memoryless_editors(profile, k, ops):
                    assert not oe.exact_ic_check(aut, profile, editor), (
                        f"seed {seed - 1}: memoryless editor enforces despite empty mechanism"
                    )
        elapsed = time.monotonic() - start
        assert nonempty and empty
        assert elapsed < 600.0
        print(f"  [criterion 7: {nonempty} synthesizable, {empty} unenforceable, "
              f"{elapsed:.1f}s]", end=" ")


def test_criterion_7_on_plants_that_need_editing():
    with verdict("7b", "synthesized and searched editors enforce 60 plants that need editing"):
        start = time.monotonic()
        tested = searched = 0
        seed = 0
        while tested < 60:
            aut, profile = oe.random_instance(seed, max_states=5, max_events=4)
            seed += 1
            if profile.intruder <= profile.defender or profile.defender <= profile.intruder:
                continue
            k = seed % 2
            ops = oe.OPS_ALL if k == 1 else oe.OPS_ALL - {"insert"}
            if not needs_editing(aut, profile):
                continue
            tgs = oe.trim_game(oe.build_edit_game(aut, profile, k=k, ops=ops))
            em = oe.refine_to_em(oe.build_uem(tgs)) if tgs else None
            if em is None:
                continue
            tested += 1
            editors = [oe.synthesize(em, policy=policy) for policy in oe.POLICIES]
            found = oe.find_edit_strategy(aut, profile, k, ops, 8)
            if found is not None:
                searched += 1
                editors.append(found)
            for fe in editors:
                depth = oe.certifying_depth(aut, profile, fe, cap=8)
                assert oe.exact_ic_check(aut, profile, fe), f"seed {seed - 1} policy {fe.policy}"
                assert oe.evaluate_editor(aut, profile, fe, depth).ok, (
                    f"seed {seed - 1} policy {fe.policy} (depth {depth})"
                )
        assert searched
        print(f"  [criterion 7b: {tested} need editing, {searched} with a bounded strategy, "
              f"{seed} seeds, {time.monotonic() - start:.1f}s]", end=" ")


def test_criterion_8_definition_level_properties():
    with verdict(8, "projection algebra, soundness, trim fixpoint, sweep equality"):
        rng = random.Random(20240811)
        events = "abcd"
        for _ in range(1000):
            trace = tuple(rng.choice(events) for _ in range(rng.randint(0, 12)))
            cut = rng.randint(0, len(trace))
            alphabet = frozenset(
                e for e in events if rng.random() < 0.5
            )
            once = oe.project(trace, alphabet)
            assert oe.project(once, alphabet) == once
            assert once == oe.project(trace[:cut], alphabet) + oe.project(trace[cut:], alphabet)

        for seed in range(50):
            aut, profile = oe.random_instance(seed)
            observers = oe.standard_observers(aut, profile)
            for obs, alphabet in zip(observers, (
                profile.observable, profile.intruder, profile.defender
            )):
                for trace in generated_language(aut, 4):
                    estimate = obs.run(oe.project(trace, alphabet))
                    assert estimate is not None
                    assert aut.run(aut.initial, trace) in estimate

        for seed in range(50):
            aut, profile = oe.random_instance(seed)
            game = oe.build_edit_game(aut, profile, k=1)
            fast = oe.trim_game(game)
            slow = trim_game_naive(game)
            if fast is None:
                assert slow is None
                continue
            assert (fast.game.a_states, fast.game.f_states, fast.game.def_moves) == (
                slow.game.a_states, slow.game.f_states, slow.game.def_moves
            )
            again = oe.trim_game(fast.game)
            assert again is not None
            assert set(again.game.a_states) == set(fast.game.a_states)
            assert set(again.game.f_states) == set(fast.game.f_states)
            assert all(tuple(again.game.def_moves[vf]) == tuple(fast.game.def_moves[vf])
                       for vf in fast.game.f_states)


def test_criterion_9_scale_sanity():
    with verdict(9, "eight-state pipeline under a minute with sane stage sizes"):
        sized = []
        seed = 0
        while len(sized) < 3 and seed < 4000:
            aut, profile = oe.random_instance(seed, max_states=8, max_events=5)
            if aut.n_states == 8 and len(aut.events) == 5:
                sized.append((seed, aut, profile))
            seed += 1
        assert len(sized) == 3
        for seed, aut, profile in sized:
            start = time.monotonic()
            observers = oe.standard_observers(aut, profile)
            game = oe.build_edit_game(aut, profile, k=1)
            tgs = oe.trim_game(game)
            uem = oe.build_uem(tgs) if tgs else None
            em = oe.refine_to_em(uem) if uem else None
            elapsed = time.monotonic() - start
            assert elapsed < 60.0
            o_sys, o_intr, o_def = observers
            bound_obs = 2 ** aut.n_states
            assert max(len(o.states) for o in observers) <= bound_obs
            v_a, v_f = len(game.a_states), len(game.f_states)
            assert v_a <= len(o_sys.states) * len(o_intr.states) * len(o_def.states)
            assert v_f <= v_a * len(profile.observable)
            stages = [f"|X_o|={len(o_sys.states)}", f"|X_I|={len(o_intr.states)}",
                      f"|X_D|={len(o_def.states)}", f"|V_A|={v_a}", f"|V_F|={v_f}"]
            if tgs is not None:
                t_a, t_f = len(tgs.game.a_states), len(tgs.game.f_states)
                assert t_a <= v_a and t_f <= v_f
                stages += [f"|V_TA|={t_a}", f"|V_TF|={t_f}"]
                assert len(uem.ua_states) <= 2 ** t_a
                assert len(uem.uf_states) <= (2 ** t_f) * max(1, len(profile.defender))
                stages += [f"|V_UA|={len(uem.ua_states)}", f"|V_UF|={len(uem.uf_states)}"]
                if em is not None:
                    assert len(em.ua_states) <= len(uem.ua_states)
                    assert len(em.uf_states) <= len(uem.uf_states)
                    stages += [f"|V_EA|={len(em.ua_states)}", f"|V_EF|={len(em.uf_states)}"]
            print(f"  [criterion 9 seed {seed}: {' '.join(stages)} in {elapsed:.2f}s]",
                  end=" ")
