"""``benchmarks.full_digests``: what counts as a differing answer.

``--against`` is how a change shows "same answers" at the full shapes,
so its comparison is pinned on hand-built runs: a flipped truth value
and an estimate on one side only differ, a rounding-sized confidence
move does not, and any difference is the command's exit status.
"""

import json

import pytest

from benchmarks import full_digests


def hand_run(values=(1, 0, 1), confidences=(0.9, 0.2, 0.7), extra=()):
    claims = ["a", "a", "b", *(claim for claim, _ in extra)]
    return {
        "workload": "batch_volume",
        "seed": 1,
        "digest": "-",
        "accuracy": 1.0,
        "claim_id": claims,
        "timestamp": [0.0, 60.0, 0.0, *(t for _, t in extra)],
        "value": [*values, *(1 for _ in extra)],
        "confidence": [*confidences, *(0.5 for _ in extra)],
    }


def test_a_flipped_truth_value_differs():
    differ, worst, first = full_digests.compare(
        hand_run(), hand_run(values=(1, 1, 1), confidences=(0.9, 0.6, 0.7))
    )
    assert (differ, first) == (1, ("a", 60.0))
    assert worst == pytest.approx(0.4)


def test_an_estimate_on_one_side_only_differs():
    before, after = hand_run(), hand_run(extra=[("c", 120.0)])
    assert full_digests.compare(before, after) == (1, 0.0, ("c", 120.0))
    assert full_digests.compare(after, before) == (1, 0.0, ("c", 120.0))


def test_a_rounding_sized_confidence_move_does_not_differ():
    moved = hand_run(confidences=(0.9, 0.2 + 1e-15, 0.7))
    differ, worst, first = full_digests.compare(hand_run(), moved)
    assert (differ, first) == (0, None)
    assert 0.0 < worst < 2e-15


@pytest.mark.parametrize(
    "after, status",
    [
        (hand_run(confidences=(0.9, 0.2 + 1e-15, 0.7)), 0),
        (hand_run(values=(0, 0, 1)), 1),
        (hand_run(extra=[("c", 120.0)]), 1),
    ],
    ids=["rounding", "flipped", "one-side"],
)
def test_against_exits_1_when_an_answer_differs(
    tmp_path, monkeypatch, capsys, after, status
):
    saved = tmp_path / "before.json"
    saved.write_text(json.dumps({"numpy": "-", "runs": [hand_run()]}))
    monkeypatch.setattr(full_digests, "run", lambda name, seed: after)
    argv = ["--workload", "batch_volume", "--seed", "1", "--against"]
    assert full_digests.main([*argv, str(saved)]) == status
    printed = capsys.readouterr().out
    assert ("first differing estimate" in printed) == bool(status)
