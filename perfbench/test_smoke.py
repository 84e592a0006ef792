"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Tiny runs of every workload, traced and untraced, in this process with the
corpus shrunk to three images; about 20 s on two cores.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7  # not the default seed, so the recorded digests are not used


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_and_tracing_keeps_outputs(workload, monkeypatch, capsys):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import run
    from workloads import WORKLOADS

    # a tiny corpus, in this process only: the command line has no size option
    monkeypatch.setattr(WORKLOADS[workload], "images", 3)
    monkeypatch.setattr(WORKLOADS[workload], "warmup", 1)
    records = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                         "--trace", str(trace)])
        out, err = capsys.readouterr()
        assert code == 0, err
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, err
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
        record = ROOT / ".perfbench_work" / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
        records[trace] = json.loads(record.read_text())
    assert None not in records[0]["digests"]
    assert records[0]["digests"] == records[1]["digests"]
    assert records[1]["unhooked"] == []
    assert records[1]["metrics"]["trace.coverage"]["value"] >= 0.9


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run(SPEC["command"] + ["--workload", "ingest", "--seed", "0",
                                          "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert r.returncode != 0
    assert r.stdout.strip() == ""


def test_missing_hook_is_reported_not_fatal():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import spans

    tracer = spans.Tracer(spans.HOOKS + (("raildet.pipeline", "no_such_layer", "x.y", None),))
    assert tracer.unhooked == ["raildet.pipeline.no_such_layer"]
    metrics = spans.layer_metrics([], images=1)
    assert set(metrics) == {m[0] for m in spans.LAYER_METRICS}
    assert all(v == 0 for v in metrics.values())


def test_self_time_subtracts_what_children_cover():
    sys.path.insert(0, str(BENCH))
    from spans import Span, self_time

    parent = Span(0, "p", 0.0, 10.0, None, "img", 0)
    kids = [Span(1, "a", 1.0, 3.0, 0, "img", 0), Span(2, "b", 2.0, 4.0, 0, "img", 0),
            Span(3, "c", 9.0, 12.0, 0, "img", 0)]
    assert self_time(parent, kids) == pytest.approx(10.0 - 3.0 - 1.0)
