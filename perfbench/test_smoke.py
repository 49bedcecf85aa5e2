"""Smoke test of the benchmark at tiny sizes: every metric is printed with its
unit, and wrong outputs or exit codes are counted as failures."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, check=True, cwd=HERE.parent, timeout=120,
    )
    lines = proc.stdout.splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert {"nproc", "python", "numpy", "scipy", "blas", "blas_threads"} <= set(info["machine"])
    if trace:
        assert result["metrics"]["trace.absent"]["value"] == 0
        assert result["metrics"]["trace.missed_calls"]["value"] == 0
        assert result["metrics"]["trace.stray_calls"]["value"] == 0
        for counts in info["calls_per_command"].values():
            assert counts["cli.main"] == 1 and counts["matrix.validate"] >= 1


def _patch_main(monkeypatch, edit):
    """Make ``pcrank.cli.main`` pass each call's (exit code, stdout) through ``edit``."""
    cli = run.load_pcrank()
    original = cli.main
    calls = []

    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = original(argv)
        calls.append(argv)
        code, text = edit(len(calls), code, buf.getvalue())
        sys.stdout.write(text)
        return code

    monkeypatch.setattr(cli, "main", main)


def _measure(workload):
    result, info = run.measure(workload, seed=5, seconds=0.3, trace=False, size="tiny")
    return result, info["failures"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_corrupted_output_is_counted(monkeypatch, workload):
    _patch_main(monkeypatch, lambda k, code, text: (code, text + "corrupted\n" if k == 4 else text))
    result, reasons = _measure(workload)
    assert result["failed"] == 1 and not result["correct"], reasons
    assert result["metrics"]["ok_rate"]["value"] == 1 - 1 / result["attempted"]


def test_perturbed_weight_is_counted(monkeypatch):
    def edit(k, code, text):
        record = json.loads(text)
        record["methods"][0]["weights"][0] *= 1 + 1e-6
        return code, json.dumps(record) + "\n"

    _patch_main(monkeypatch, edit)
    result, reasons = _measure("sparse_600")
    assert result["failed"] == result["attempted"], reasons


def test_wrong_exit_code_is_counted(monkeypatch):
    _patch_main(monkeypatch, lambda k, code, text: (0 if code == 1 else code, text))
    result, reasons = _measure("ahp_batch")
    assert result["failed"] >= 1 and set(reasons) == {"invalid input: exit 0, expected 1"}, reasons
