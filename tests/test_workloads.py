"""The benchmark's workloads (``perfbench/workloads.py``) import names of
the package; a rename in ``src/`` that they cannot follow fails here, not
only when the benchmark runs."""

import json
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_workloads_import_and_match_the_benchmark(monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT))
    from perfbench import workloads

    declared = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared)
