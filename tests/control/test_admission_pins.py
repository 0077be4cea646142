"""A scripted admission sequence, pinned round by round.

Fixed due sets, per-claim cost samples, interval execution times and
busy times drive the real-clock control loop; every refit round's
``(admitted, deferred, shed)`` partition and every interval's PID
headroom are literals.  The loop decides at most one claim per round
on a budget derived from floats, so any change to the budget formula,
the lane estimate, the cost percentile, the age ordering or the shed
rule shows up here as a different partition.  The literals are the
behaviour to keep; only the calls that produce them may change.
"""

from repro.control import Controller


def claims(lo, hi):
    return [f"c{i:02d}" for i in range(lo, hi)]


#: Per interval: the due sets of its refit rounds, then the interval's
#: execution time, per-claim cost samples and summed busy time.
SCRIPT = [
    ([claims(0, 10), claims(5, 15)], 1.5, [0.1] * 8 + [0.3, 0.25], 2.4),
    (
        [claims(0, 8), claims(0, 8), claims(0, 8), claims(0, 8), claims(8, 10)],
        0.4,
        [0.05] * 6,
        0.7,
    ),
    ([claims(0, 20), claims(10, 20), claims(15, 20)], 0.9, [0.02, 0.04], None),
    ([claims(0, 20), claims(0, 20), claims(0, 12)], 3.0, [], 6.0),
    (
        [claims(0, 20), claims(5, 20), claims(5, 20), claims(5, 20)],
        0.2,
        [0.5, 0.01, 0.01],
        0.3,
    ),
    ([claims(0, 20)], 1.0, [0.01] * 40, 1.2),
]

#: ``(admitted, deferred, shed)`` per round, claim ids space-separated.
EXPECTED = [
    [
        ("c00 c01 c02 c03 c04 c05 c06 c07 c08 c09", "", ""),
        ("c05 c06 c07 c08 c09 c10 c11 c12 c13 c14", "", ""),
    ],
    [
        ("c00", "c01 c02 c03 c04 c05 c06 c07", ""),
        ("", "c01 c02 c03 c04 c05 c06 c07 c00", ""),
        ("", "c01 c02 c03 c04 c05 c06 c07 c00", ""),
        ("", "c00", "c01 c02 c03 c04 c05 c06 c07"),
        ("", "c08 c09", ""),
    ],
    [
        (
            "c00 c08 c09 c01",
            "c02 c03 c04 c05 c06 c07 c10 c11 c12 c13 c14 c15 c16 c17 c18 c19",
            "",
        ),
        ("", "c10 c11 c12 c13 c14 c15 c16 c17 c18 c19", ""),
        ("", "c15 c16 c17 c18 c19", ""),
    ],
    [
        (
            "c15 c16 c17 c18",
            "c10 c11 c12 c13 c14 c02 c03 c04 c05 c06 c07 c00 c01 c08 c09",
            "c19",
        ),
        (
            "",
            "c02 c03 c04 c05 c06 c07 c00 c01 c08 c09 c15 c16 c17 c18 c19",
            "c10 c11 c12 c13 c14",
        ),
        ("", "c00 c01 c08 c09 c10 c11", "c02 c03 c04 c05 c06 c07"),
    ],
    [
        (
            "c00",
            "c10 c11 c15 c16 c17 c18 c19 c02 c03 c04 c05 c06 c07 c12 c13 c14",
            "c01 c08 c09",
        ),
        (
            "",
            "c10 c11 c15 c16 c17 c18 c19 c05 c06 c07 c12 c13 c14 c08 c09",
            "",
        ),
        (
            "",
            "c05 c06 c07 c12 c13 c14 c08 c09",
            "c10 c11 c15 c16 c17 c18 c19",
        ),
        (
            "",
            "c08 c09 c10 c11 c15 c16 c17 c18 c19",
            "c05 c06 c07 c12 c13 c14",
        ),
    ],
    [
        (
            "c08 c09 c02 c03",
            "c04 c10 c11 c15 c16 c17 c18 c19 c00 c01 c05 c06 c07 c12 c13 c14",
            "",
        ),
    ],
]

HEADROOMS = [
    -0.75,
    0.97,
    0.07999999999999993,
    -3.36,
    1.2199999999999998,
    -0.46,
]


def run_script():
    """Drive the controller through ``SCRIPT``; returns (rounds, headrooms)."""
    controller = Controller(deadline=1.0)
    rounds, headrooms = [], []
    for due_sets, execution_time, costs, busy_time in SCRIPT:
        decisions = [controller.admit(due, n_workers=2) for due in due_sets]
        rounds.append(
            [
                tuple(" ".join(part) for part in (d.admitted, d.deferred, d.shed))
                for d in decisions
            ]
        )
        headrooms.append(
            controller.settle(execution_time, costs, busy_time or 0.0)
        )
    return rounds, headrooms


def test_scripted_rounds_partition_as_pinned():
    rounds, _ = run_script()
    assert rounds == EXPECTED


def test_scripted_headrooms_as_pinned():
    _, headrooms = run_script()
    assert headrooms == HEADROOMS
