"""The ``chaos`` suite's file contract: write, load, reject broken promises.

Runs on synthetic scenario records (no real process kills), so it stays
tier-1 fast; the real campaign runs in ``benchmarks/bench_suites.py``.
"""

import json

import pytest

from repro.analysis.bench import (
    BENCH_SCHEMA,
    BenchRun,
    case_records,
    load_bench_json,
    write_bench_json,
)
from repro.analysis.chaos import ChaosOptions
from repro.errors import ConfigError

FRAMES = 4


def make_run(**overrides) -> BenchRun:
    options = ChaosOptions(frames=FRAMES)
    metrics = {
        "delivered": FRAMES,
        "failed": 0,
        "retries": 0,
        "worker_deaths": 0,
        "frames_lost": 0,
        "slots_leaked": 0,
        "inline_failures": 0,
        **overrides,
    }
    return BenchRun(
        suite="chaos",
        records=tuple(
            case_records(
                "chaos",
                "baseline",
                resolution=options.resolution,
                window=options.window,
                threshold=0,
                codec="numpy",
                workers=options.workers,
                bit_identical=True,
                metrics=[(m, v, "count") for m, v in metrics.items()],
            )
        ),
        context={
            "frames": FRAMES,
            "seed": options.seed,
            "deadline_seconds": options.deadline_seconds,
        },
    )


class TestChaosJson:
    def test_roundtrip_and_schema(self, tmp_path):
        path = tmp_path / "BENCH_chaos.json"
        write_bench_json(make_run(), path)
        assert json.loads(path.read_text())["schema"] == BENCH_SCHEMA
        run = load_bench_json(path)
        assert run.context["frames"] == FRAMES
        assert run.cases == ("baseline",)
        assert run.value("baseline", "delivered") == FRAMES

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        write_bench_json(make_run(), path)
        payload = json.loads(path.read_text())
        payload["schema"] = "repro-chaos/999"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="repro-chaos/999"):
            load_bench_json(path)

    def test_load_rejects_lost_frames(self, tmp_path):
        path = tmp_path / "lost.json"
        write_bench_json(make_run(delivered=FRAMES - 1, frames_lost=1), path)
        with pytest.raises(ConfigError, match="frames_lost"):
            load_bench_json(path)

    def test_load_rejects_leaked_slots(self, tmp_path):
        path = tmp_path / "leak.json"
        write_bench_json(make_run(slots_leaked=1), path)
        with pytest.raises(ConfigError, match="slots_leaked"):
            load_bench_json(path)

    def test_load_rejects_missing_deadline(self, tmp_path):
        run = make_run()
        del run.context["deadline_seconds"]
        path = tmp_path / "no-deadline.json"
        write_bench_json(run, path)
        with pytest.raises(ConfigError, match="deadline_seconds"):
            load_bench_json(path)
