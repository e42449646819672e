"""Tests of the benchmark's own arithmetic, gate and refusals.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads as wl

# (3, 1, 2): d = 6 and A_d = 24 over 3^3 messages
SMALL = (3, 1, 2)
SMALL_DIST = {0: 1, 6: 24, 9: 2}


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children [1, 3] and [2, 5] that overlap, [6, 7], and
    # [9, 12] that runs past the root's end; [1, 3] has a child [1.5, 2.5].
    parent = [-1, 0, 0, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 6.0, 1.5, 9.0]
    end = [10.0, 3.0, 5.0, 7.0, 2.5, 12.0]
    selfs = spans.self_times(parent, start, end)
    assert selfs == pytest.approx([10 - (4 + 1 + 1), 1.0, 3.0, 1.0, 1.0, 3.0])
    totals = spans.aggregate(["root", "child"], [0, 1, 1, 1, 1, 1], selfs)
    assert totals == {"root": (1, pytest.approx(4.0)), "child": (5, pytest.approx(9.0))}


def test_tracer_links_parents_and_splits_generators():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: 1)
    outer = tracer.wrap("outer", lambda: leaf() + leaf())

    def items():
        yield leaf()
        yield 2

    gen = tracer.wrap("gen", items)
    assert outer() == 2
    assert list(gen()) == [1, 2]
    # one span per resumption of the generator, the last one ending it
    assert list(tracer.parent) == [-1, 0, 0, -1, 3, -1, -1]
    counts = {name: n for name, (n, _) in spans.aggregate(
        tracer.names, tracer.span_name, tracer.self_times()).items()}
    assert counts == {"leaf": 3, "outer": 1, "gen": 3}


def test_times_are_scaled_to_the_reference_speed():
    # the same work on an unloaded host and on one twice as slow
    ref = run.REF_S
    fast = {"setup_s": 0.1, "calls": {"min/4,2,2": 1.0, "dist/4,2,2": 2.0}, "refs": [ref, ref]}
    slow = {"setup_s": 0.2, "calls": {"min/4,2,2": 2.0, "dist/4,2,2": 4.0}, "refs": [2 * ref, 2 * ref]}
    for rep in (fast, slow):
        assert run.scaled(rep["setup_s"], rep["refs"]) == pytest.approx(0.1)
        assert run.run_time([rep]) == pytest.approx(3.0)
    # a set-up-only repetition adds reference passes but no calls
    assert run.run_time([fast, {"setup_s": 0.2, "refs": [2 * ref]}]) == pytest.approx(3.0 / (4 / 3))


def test_missing_trace_target_is_reported_absent():
    tracer = spans.Tracer()
    assert not tracer.patch("code.gone", "agcodes.code", "no_such_function")
    assert "code.gone" in tracer.absent


def test_gate_passes_a_correct_distribution():
    gate = wl.Gate()
    digests = {wl.digest_key("dist", SMALL): wl.digest(sorted(SMALL_DIST.items()))}
    wl.check_dist(gate, SMALL, SMALL_DIST, digests)
    wl.check_min(gate, SMALL, 6)
    assert (gate.attempted, gate.failed) == (5, 0)


def test_gate_flags_a_tampered_digest():
    dist = {0: 1, 72: 720, 81: 8}  # (9, 1, 2), whose digest is stored
    stored = wl.load_digests()
    gate = wl.Gate()
    wl.check_dist(gate, (9, 1, 2), dist, stored)
    assert gate.failed == 0
    key = wl.digest_key("dist", (9, 1, 2))
    tampered = {**stored, key: stored[key][::-1]}
    wl.check_dist(gate, (9, 1, 2), dist, tampered)
    assert gate.failed == 1 and "digest" in gate.failures[0]


def test_gate_flags_a_distance_off_by_one():
    gate = wl.Gate()
    digests = {wl.digest_key("dist", SMALL): wl.digest(sorted(SMALL_DIST.items()))}
    wl.check_dist(gate, SMALL, {0: 1, 7: 24, 9: 2}, digests)
    assert any("smallest positive weight" in f for f in gate.failures)
    wl.check_min(gate, SMALL, 7)
    assert "blind d = 7" in gate.failures[-1]


def test_cap_variable_is_refused_before_any_work(monkeypatch, capsys):
    monkeypatch.setenv("AGCODES_MESSAGES_CAP", "100000")

    def no_work(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(run.subprocess, "run", no_work)
    assert run.main(["--workload", "scan-q2", "--seed", "1", "--seconds", "1"]) != 0
    out = capsys.readouterr()
    assert out.out == "" and "AGCODES_MESSAGES_CAP" in out.err


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(wl.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-q2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == wl.layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
