"""The perf-trajectory gate fails closed on inputs it cannot use."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_trajectory.py"


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location("perf_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def gate(trajectory, tmp_path):
    """Run the gate in ``tmp_path``; returns (exit status, report written)."""
    def run(*args):
        out = tmp_path / "PERF_TRAJECTORY.md"
        status = trajectory.main([*map(str, args), "--out", str(out),
                                  "--json-out", str(tmp_path / "PERF_TRAJECTORY.json")])
        return status, out.exists()
    return run


@pytest.fixture
def good(tmp_path):
    path = tmp_path / "BENCH_good.json"
    path.write_text(json.dumps({
        "schema": "bench-emit/v1", "bench": "good", "quick": True,
        "rows": [{"name": "speedup", "value": 3.0, "unit": "x", "budget": 1.5,
                  "direction": "min"}]}))
    return path


def test_readable_inputs_pass(gate, good, tmp_path):
    obs = tmp_path / "metrics.jsonl"
    obs.write_text("\n".join(json.dumps(line) for line in (
        {"type": "meta", "schema": "repro-obs/v1"},
        {"type": "counter", "name": "sim.events", "value": 10})) + "\n")
    assert gate(good, obs) == (0, True)


def test_missing_file_fails(gate, good, tmp_path, capsys):
    missing = tmp_path / "BENCH_missing.json"
    assert gate(good, missing) == (2, False)
    assert "unusable input" in capsys.readouterr().err


@pytest.mark.parametrize("name, content", [
    ("BENCH_garbage.json", "not json at all"),
    ("BENCH_binary.json", b"\xff\xfe\x00garbage"),
    ("BENCH_foreign.json", json.dumps({"some": "other payload"})),
    ("BENCH_list.json", json.dumps([1, 2, 3])),
    ("garbage.jsonl", "{\"type\": \"counter\"\nnot json\n"),
    ("headerless.jsonl", json.dumps({"type": "counter", "name": "x", "value": 1})),
    ("array.jsonl", json.dumps([{"type": "meta", "schema": "repro-obs/v1"}])),
])
def test_garbage_payload_fails(gate, good, tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert gate(good, path) == (2, False)


def test_no_fail_skips_unusable_inputs(gate, good, tmp_path, capsys):
    garbage = tmp_path / "BENCH_garbage.json"
    garbage.write_text("not json")
    assert gate(good, tmp_path / "missing.json", garbage, "--no-fail") == (0, True)
    assert capsys.readouterr().err.count("skipping") == 2


def test_no_fail_still_needs_one_usable_input(gate, tmp_path):
    assert gate(tmp_path / "missing.json", "--no-fail") == (2, False)
