"""Fast self-test of the benchmark harness (no daemon boot, < 3 s).

Collected by the tier-1 suite: the arithmetic the reported numbers rest on,
the contract between ``BENCHMARK.json`` and the names ``run.py`` emits, and
the reaper that keeps every exit path leak-free.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import procs  # noqa: E402
from workloads import WORKLOADS, request_stream  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TestPercentileRule:
    def test_matches_linear_interpolation(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert ledger.percentile(values, 50) == 3.0
        assert ledger.percentile(values, 0) == 1.0
        assert ledger.percentile(values, 100) == 5.0
        assert ledger.percentile(values, 90) == pytest.approx(4.6)

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            ledger.percentile([], 50)

    def test_mix_median_does_not_jump_between_models(self):
        light, heavy = [23.0, 24.0, 22.0], [60.0, 61.0]
        assert ledger.median(light + heavy) == 24.0  # one more heavy sample: 42.0
        assert ledger.mix_median({"light": light, "heavy": heavy}) == pytest.approx(41.75)
        assert ledger.mix_median({"light": light, "heavy": heavy + [62.0]}) == pytest.approx(42.0)

    def test_samples_beyond(self):
        assert ledger.samples_beyond(200, 90) == 20
        assert ledger.samples_beyond(120, 90) == 12
        assert ledger.samples_beyond(99, 90) == 9

    def test_highest_percentile_needs_ten_samples_beyond_it(self):
        assert ledger.highest_supported_percentile(99) == 50.0
        assert ledger.highest_supported_percentile(100) == 90.0
        assert ledger.highest_supported_percentile(200) == 95.0
        assert ledger.highest_supported_percentile(1000) == 99.0
        with pytest.raises(ValueError):
            ledger.highest_supported_percentile(15)


class TestTelescopingLedger:
    def test_rows_sum_to_span_a(self):
        spans = [17.8, 16.9, 6.4, 5.3, 2.3]
        rows = ledger.telescope(spans, ops_total=1.8)
        assert list(rows) == list(ledger.LEDGER_LAYERS)
        assert rows["serve.frontend.batch_wait_ms"] == pytest.approx(10.5)
        assert rows["crypto.transport.wire_ms_per_job"] == pytest.approx(3.0)
        assert rows["crypto.scheduler.overhead_ms_per_job"] == pytest.approx(0.5)
        assert sum(rows.values()) == pytest.approx(spans[0])
        assert ledger.closure_error(rows, spans[0]) < 1e-12

    def test_closes_even_when_an_inner_span_is_the_slower_one(self):
        # separate executions: an inner median may exceed the outer one; the
        # row goes negative, the sum still closes
        rows = ledger.telescope([248.2, 249.1, 239.9, 230.1, 7.7], ops_total=6.7)
        assert rows["serve.daemon.overhead_ms"] < 0
        assert sum(rows.values()) == pytest.approx(248.2)

    def test_wrong_span_count_is_an_error(self):
        with pytest.raises(ValueError):
            ledger.telescope([1.0, 2.0], ops_total=0.5)

    def test_class_split_sums_to_the_total(self):
        parts = ledger.split_by_share(6.0, {"linear": 2.0, "x2act": 1.0, "other": 0.0})
        assert parts == {"linear": 4.0, "x2act": 2.0, "other": 0.0}
        assert ledger.split_by_share(6.0, {"linear": 0.0}) == {"linear": 0.0}


class TestBenchmarkJsonMatchesTheHarness:
    @pytest.fixture(scope="class")
    def contract(self):
        return json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

    def test_keys_and_paths(self, contract):
        assert sorted(contract) == [
            "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
        ]
        assert contract["paths"] == ["benchmarks/e2e"]
        assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
        assert 1 <= contract["run_seconds"] <= 60

    def test_workloads_are_the_ones_run_py_accepts(self, contract):
        assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
        assert 2 <= len(contract["workloads"]) <= 8
        for entry in contract["workloads"]:
            assert sorted(entry) == ["name", "why"]
            assert NAME.match(entry["name"])
            assert "\n" not in entry["why"] and len(entry["why"]) <= 200

    def test_end_to_end_metrics_are_the_ones_run_py_emits(self, contract):
        listed = [(m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]]
        assert listed == list(ledger.END_TO_END)
        assert 1 <= len(listed) <= 16
        assert ("setup_s", "s", "lower") in [entry[:3] for entry in listed]
        assert all(0 < bound <= 0.25 for *_, bound in listed)

    def test_per_layer_metrics_are_the_ones_run_py_emits(self, contract):
        listed = [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]]
        assert listed == list(ledger.PER_LAYER)
        assert 1 <= len(listed) <= 128

    def test_names_and_units_fit_the_contract_charset(self, contract):
        metrics = contract["end_to_end"] + contract["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in contract["workloads"]]
        assert len(set(names)) == len(names)
        for metric in metrics:
            assert NAME.match(metric["name"]), metric["name"]
            assert UNIT.match(metric["unit"]), metric["unit"]
            assert metric["better"] in ("higher", "lower")

    def test_every_ledger_row_but_the_op_total_is_a_reported_metric(self):
        reported = {name for name, *_ in ledger.PER_LAYER}
        assert set(ledger.LEDGER_LAYERS[:-1]) <= reported


def test_request_stream_is_seeded_and_balanced():
    workload = WORKLOADS["poly_tiny_loopback"]

    def take(seed):
        return list(islice(request_stream(workload, seed, 0), 6))

    first, again, other = take(3), take(3), take(4)
    assert [m for m, _ in first] == [m for m, _ in again]
    assert all((a[1] == b[1]).all() for a, b in zip(first, again))
    assert not all((a[1] == b[1]).all() for a, b in zip(first, other))
    assert sorted(m for m, _ in first[:3]) == sorted(workload.backbones)


def test_reaper_kills_an_orphan_left_in_a_child_session():
    """The PR-11 failure: a grandchild that outlives its parent must not
    outlive the benchmark."""
    sleeper = "import time; time.sleep(120)"
    parent = (
        "import subprocess, sys, time;"
        f"subprocess.Popen([sys.executable, '-c', {sleeper!r}]);"
        "print('up', flush=True); time.sleep(120)"
    )
    leader = subprocess.Popen(
        [sys.executable, "-c", parent], stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        assert leader.stdout.readline().strip() == b"up"
        sid = leader.pid
        os.kill(leader.pid, signal.SIGKILL)  # orphan the sleeper
        leader.wait(timeout=5.0)
        deadline = time.monotonic() + 5.0
        orphans = procs.session_pids(sid)
        while not orphans and time.monotonic() < deadline:
            orphans = procs.session_pids(sid)
        assert len(orphans) == 1 and leader.pid not in orphans
        assert procs.cpu_seconds(orphans)[orphans[0]] >= 0.0
        assert procs.peak_rss_mb(orphans) > 0.0
        assert procs.reap_session(sid) == []
        assert procs.session_pids(sid) == []
    finally:
        leader.stdout.close()
        procs.reap_session(leader.pid)
        if leader.poll() is None:
            leader.kill()
            leader.wait(timeout=5.0)
