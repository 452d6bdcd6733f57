"""The committed ``BENCH_gym.json`` replays against today's registry."""

import json
from pathlib import Path

import pytest

from repro.tuning import KnobDomainError, TuningConfig, UnknownKnob

BENCH_GYM = Path(__file__).resolve().parents[2] / "BENCH_gym.json"


def _snapshots(report):
    yield "best_assignment", report["best_assignment"]
    for result in report["searchers"]:
        base = result["trajectory"]["base"]
        name = result["searcher"]
        yield f"{name}.base", base
        yield f"{name}.best", {**base, **result["best_assignment"]}
        for point in result["trajectory"]["points"]:
            yield (f"{name}.step{point['step']}",
                   {**base, **point["assignment"]})


@pytest.mark.skipif(not BENCH_GYM.exists(), reason="BENCH_gym.json absent")
def test_every_config_snapshot_constructs_a_tuning_config():
    report = json.loads(BENCH_GYM.read_text())
    checked = 0
    for label, snapshot in _snapshots(report):
        try:
            TuningConfig(snapshot).validate()
        except (UnknownKnob, KnobDomainError) as exc:
            pytest.fail(f"{label}: {exc!r}")
        checked += 1
    assert checked > len(report["searchers"])
