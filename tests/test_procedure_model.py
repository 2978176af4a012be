"""Model-based test of the procedure: a declarative table of each action's
preconditions and effects on an abstract posture predicts the verdict of
``run_scenario`` for every action order up to length 4."""

from itertools import product

from lammos.dewalop import PipeEnvironment
from lammos.sequence import _ACTIONS, Scenario, StepSpec, run_scenario

# The abstract posture: in the pipe, top legs lowered, legs extended (the
# unit is then centered), angle latches Latched, flat latches Latched.
START = {"in_pipe": False, "lowered": True, "extended": False,
         "angle": False, "flat": False}

# Each action, with default parameters in a 0.8 m pipe: its preconditions in
# the order the engine checks them, as (condition that fails the step,
# reason, offending leg), and its effect on the posture. Every leg is alike,
# so a per-leg check names the first leg, top-0.
TABLE = {
    "lower_legs": ([("angle", "angle latch engaged on leg top-0", "top-0"),
                    ("extended", "leg top-0 is extended; retract before "
                                 "turning the hinge", "top-0")],
                   {"lowered": True}),
    "move_into_pipe": ([("in_pipe", "robot is already inside the pipe", None),
                        ("not lowered", "clearance -0.030 m requires "
                                        "acknowledged push force", None)],
                       {"in_pipe": True}),
    "raise_legs": ([("angle", "angle latch engaged on leg top-0", "top-0"),
                    ("extended", "leg top-0 is extended; retract before "
                                 "turning the hinge", "top-0")],
                   {"lowered": False}),
    "latch_angle": ([("lowered", "hinge not perpendicular", "top-0")],
                    {"angle": True}),
    "extend_legs": ([("not in_pipe", "robot is not inside the pipe", None),
                     ("lowered", "leg top-0 is lowered; raise before "
                                 "pressing", None),
                     ("flat", "leg top-0 extension frozen by flat latch",
                      None)],
                    {"extended": True}),
    "latch_flat": ([("not extended", "unit not centered; wall press "
                                     "required before latching", None)],
                   {"flat": True}),
    "unlatch_flat": ([("not flat", "flat latch not engaged", "top-0")],
                     {"flat": False}),
    "retract_legs": ([("flat", "extension frozen by flat latch", "top-0")],
                     {"extended": False}),
    "unlatch_angle": ([("not angle", "angle latch not engaged", "top-0"),
                       ("extended", "retract legs before unlatching the "
                                    "hinge", "top-0")],
                      {"angle": False}),
    # No "extended" row: the robot may leave the pipe with its legs pressed
    # out, a precondition the engine does not check yet.
    "exit_pipe": ([("not in_pipe", "robot is not inside the pipe", None)],
                  {"in_pipe": False}),
}

PIPE = PipeEnvironment(0.8)
ORDERS = [order for length in range(1, 5)
          for order in product(sorted(TABLE), repeat=length)]


def _fails(condition: str, posture: dict) -> bool:
    negated, _, key = condition.rpartition(" ")
    return posture[key] is not bool(negated)


def predict(order) -> tuple:
    """The table's (passed, failed_step, failed_action, reason, leg)."""
    posture = dict(START)
    for number, action in enumerate(order, 1):
        preconditions, effect = TABLE[action]
        for condition, reason, leg in preconditions:
            if _fails(condition, posture):
                return False, number, action, reason, leg
        posture.update(effect)
    return True, None, None, None, None


def simulate(order) -> tuple:
    scenario = Scenario("order", PIPE, tuple(map(StepSpec, order)), dt=0.01)
    v = run_scenario(scenario)[2]
    return (v.passed, v.failed_step, v.failed_action, v.reason,
            v.offending_leg)


def test_table_covers_every_action():
    assert sorted(TABLE) == sorted(_ACTIONS)
    assert len(ORDERS) == 10 + 10**2 + 10**3 + 10**4


def test_leaving_the_pipe_with_extended_legs_passes():
    order = ("move_into_pipe", "raise_legs", "extend_legs", "exit_pipe")
    assert predict(order) == simulate(order) == (True, None, None, None, None)


def test_every_order_up_to_length_4_matches_the_table():
    results = ((order, predict(order), simulate(order)) for order in ORDERS)
    mismatches = [r for r in results if r[1] != r[2]]
    assert mismatches == []


def reachable_postures() -> dict:
    """Each posture the table reaches from START, keyed by its items, with
    a shortest order that reaches it (breadth-first, actions sorted)."""
    prefixes = {tuple(sorted(START.items())): ()}
    frontier = [((), START)]
    while frontier:
        level, frontier = frontier, []
        for prefix, posture in level:
            for action in sorted(TABLE):
                preconditions, effect = TABLE[action]
                if any(_fails(c, posture) for c, _, _ in preconditions):
                    continue
                after = {**posture, **effect}
                key = tuple(sorted(after.items()))
                if key not in prefixes:
                    prefixes[key] = prefix + (action,)
                    frontier.append((prefix + (action,), after))
    return prefixes


def test_every_reachable_posture_and_action_matches_the_table():
    # Orders up to length 4 start an action only from postures at most three
    # steps deep; this reaches every posture, six steps deep at most.
    prefixes = reachable_postures()
    assert len(prefixes) == 14
    orders = [prefix + (action,) for prefix in prefixes.values()
              for action in sorted(TABLE)]
    results = ((order, predict(order), simulate(order)) for order in orders)
    mismatches = [r for r in results if r[1] != r[2]]
    assert len(orders) == 140 and mismatches == []
