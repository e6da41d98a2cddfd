"""Size-controlled plant generator for the benchmark.

``opacedit gen`` draws the state count from [2, max], so one seed at two
maxima often gives the same plant and two seeds give plants of very
different size.  Here everything but the arcs is fixed by the caller: the
state count, the events, the intruder and defender alphabets and the
secret fraction.  The seed draws only the transitions.  Every event is
observable to the system; k (the insertion bound) belongs to the command
line, not the model.
"""
from __future__ import annotations

import random


def sized_model(seed: int, states: int, events: str, intruder: str, defender: str,
                secret_frac: float, density: float) -> str:
    """Model text of a connected plant with ``states`` states.

    State i > 0 gets one arc from a state below it, so every state is
    reachable from the initial state 1; every other (state, event) pair
    gets an arc with probability ``density``.  Secret states are spread
    evenly: state i is secret when floor((i+1)*f) > floor(i*f).
    """
    if states < 2 or len(events) < 2:
        raise ValueError("need at least two states and two events")
    if not set(intruder) | set(defender) <= set(events):
        raise ValueError("intruder and defender alphabets must be subsets of the events")
    rng = random.Random(seed)
    delta: dict[tuple[int, str], int] = {}
    for dst in range(1, states):
        while True:
            key = (rng.randrange(dst), rng.choice(events))
            if key not in delta:
                delta[key] = dst
                break
    for src in range(states):
        for event in events:
            if (src, event) not in delta and rng.random() < density:
                delta[(src, event)] = rng.randrange(states)
    secret = [i for i in range(states) if int((i + 1) * secret_frac) > int(i * secret_frac)]
    lines = [
        "states " + " ".join(str(i + 1) for i in range(states)),
        "initial 1",
        "secret " + " ".join(str(i + 1) for i in secret),
        "events " + " ".join(events),
        "observable " + " ".join(events),
        "intruder " + " ".join(sorted(intruder)),
        "defender " + " ".join(sorted(defender)),
    ]
    lines += [f"trans {s + 1} {e} {d + 1}" for (s, e), d in sorted(delta.items())]
    return "\n".join(lines) + "\n"

