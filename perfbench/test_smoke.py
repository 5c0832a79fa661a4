"""The benchmark's own smoke test, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced with ``--size tiny``;
each named metric must be printed exactly once with its unit, the last
line must be the result object, and no answer may fail its check.  The
verifier itself must reject a tampered response.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402


def _bench(workload: str, trace: int) -> "tuple[str, dict]":
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def _printed_once(stdout: str, name: str, unit: str) -> None:
    pattern = rf"^{re.escape(name)} = \S+ {re.escape(unit)}\b"
    found = re.findall(pattern, stdout, flags=re.MULTILINE)
    assert len(found) == 1, f"{name} printed {len(found)} times"


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_once_and_no_errors(workload, trace):
    stdout, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert re.search(r"^error_rate = 0 ratio", stdout, flags=re.MULTILINE)
    for name, unit in {**run.END_TO_END, **run.PRINTED_ONLY}.items():
        _printed_once(stdout, name, unit)
    expected = layers.UNITS if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)
        if trace:
            _printed_once(stdout, name, unit)
    if workload == "stream-journaled":
        assert "bitwise identical" in stdout


def test_verifier_rejects_a_tampered_response():
    answer = json.dumps({"type": "resolve_result", "value": 0.25}).encode()
    assert not run._failed((0, 1, 200, answer, b""), answer)
    tampered = answer.replace(b"0.25", b"0.26")
    assert run._failed((0, 1, 200, tampered, b""), answer)
    assert run._failed((0, 1, 400, answer, b""), answer)


def test_verifier_masks_only_the_session_id():
    expected = b'{"session_id": "@SID@", "remaining": 0.5}'
    served = b'{"session_id": "sess-000001-abcd", "remaining": 0.5}'
    sid = b"sess-000001-abcd"
    assert not run._failed((0, 1, 200, served, sid), expected)
    other = served.replace(b"0.5", b"0.4")
    assert run._failed((0, 1, 200, other, sid), expected)
