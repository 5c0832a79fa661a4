"""Integration tests for the decision journal and reenactment replay.

End-to-end over the real service objects (no HTTP): record a session
through a journaled :class:`EngineService`, then

* replay the trace against the *recorded* spec — every decision must
  reproduce bitwise (the determinism gate, compared through
  ``StreamDecision.comparison_key``);
* replay under an overridden spec — the structured diff must account
  for every compared pair and expose per-decision rows;
* feed the journal back through the ``recorded-trace`` scenario family
  (``simulate`` envelope) and through the ``repro replay`` CLI;
* restart ``repro serve --journal DIR`` over a recorded directory and
  drive the restored session over real HTTP.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

from repro.api import (
    EngineService,
    EngineSpec,
    RetryDeferredRequest,
    SessionOpRequest,
    SimulateRequest,
    SubmitBatchRequest,
)
from repro.journal import DecisionJournal, load_trace, replay_trace
from repro.utils.rng import spawn_rngs
from repro.workloads.generators import (
    generate_requests,
    generate_strategy_ensemble,
)

SPEC = EngineSpec(availability=0.7)


def record_session(directory, seed: int = 7, arrivals: int = 30):
    """Drive one journaled session and return its id + decision count."""
    journal = DecisionJournal(str(directory), checkpoint_every=6)
    service = EngineService()
    service.attach_journal(journal)
    rng_s, rng_r = spawn_rngs(seed, 2)
    ensemble = generate_strategy_ensemble(40, "uniform", rng_s)
    stream = generate_requests(arrivals, k=3, seed=rng_r)
    session_id = service.open_session(ensemble, SPEC)
    decisions = 0
    for start in range(0, len(stream), 8):
        burst = service.submit_batch(
            SubmitBatchRequest(
                requests=tuple(stream[start : start + 8]),
                session_id=session_id,
            )
        )
        decisions += len(burst.decisions)
    active = sorted(service.session(session_id).active)
    if active:
        service.session_op(
            SessionOpRequest(
                op="complete",
                session_id=session_id,
                request_ids=tuple(active[: max(1, len(active) // 2)]),
            )
        )
    retried = service.retry_deferred(RetryDeferredRequest(session_id=session_id))
    decisions += len(retried.decisions)
    journal.close()
    return session_id, decisions


def test_same_spec_replay_is_bitwise_identical(tmp_path):
    _sid, decisions = record_session(tmp_path)
    report = replay_trace(str(tmp_path))
    assert report.decisions == decisions
    assert report.bitwise_identical
    assert report.flips == 0 and not report.diffs
    assert "bitwise identical" in report.summary()


#: Two journaled sessions (availability 0.6 and 0.95, ``max``
#: aggregation, 60 strategies, bursts of 12 with completion waves and
#: deferred retries) recorded while ``adpar-exact`` ran the vectorized
#: column sweep.  The indexed sweep that now serves that name must
#: reenact every recorded decision bitwise.
ADPAR_EXACT_TRACE = Path(__file__).parent / "fixtures" / "adpar_exact_trace"


def test_recorded_adpar_exact_trace_replays_bitwise_identical():
    _ensemble, workload = load_trace(str(ADPAR_EXACT_TRACE))
    assert workload.sessions == 2
    report = replay_trace(str(ADPAR_EXACT_TRACE))
    assert report.decisions == 111
    assert report.bitwise_identical
    assert report.flips == 0 and not report.diffs
    assert "bitwise identical" in report.summary()


def test_override_replay_diffs_account_for_every_pair(tmp_path):
    _sid, decisions = record_session(tmp_path)
    report = replay_trace(str(tmp_path), overrides={"availability": 0.25})
    assert report.decisions == decisions
    assert report.identical + report.changed == report.decisions
    assert report.overrides == {"availability": 0.25}
    # Status flips are a subset of changed pairs, and counter deltas
    # over all statuses cancel out (every pair has exactly one recorded
    # and at most one replayed status).
    assert 0 <= report.flips <= report.changed
    for diff in report.diffs:
        row = diff.to_dict()
        assert row["session_id"] and row["request_id"]
        assert row["source"] in ("submit", "retry")
        assert row["flipped"] == (
            row["recorded_status"] != row["replayed_status"]
        )
    encoded = report.to_dict()
    assert encoded["bitwise_identical"] is False or report.changed == 0
    json.dumps(encoded)  # wire-safe


def test_load_trace_exposes_primary_workload(tmp_path):
    sid, _decisions = record_session(tmp_path)
    ensemble, workload = load_trace(str(tmp_path))
    assert workload.fingerprint
    assert len(ensemble.names) == 40
    assert workload.sessions == 1
    assert workload.arrivals > 0
    assert any(
        getattr(event, "session_id", None) == sid for event in workload.events
    )


def test_simulate_recorded_trace_family(tmp_path):
    _sid, _decisions = record_session(tmp_path)
    response = EngineService().handle(
        SimulateRequest(
            name="recorded-trace",
            overrides={"trace_path": str(tmp_path), "availability": 0.7},
        )
    )
    report = response.report
    assert report.kind == "trace"
    assert report.replay_sessions == 1
    assert report.replay_decisions > 0
    # Same spec as the recording → the reenactment reproduces it.
    assert report.satisfied == report.replay_decisions
    assert report.replay_flips == 0
    assert "identical" in report.summary()


def _cli_env() -> dict:
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def test_cli_replay_reports_determinism_and_diffs(tmp_path):
    record_session(tmp_path)
    env = _cli_env()
    same = subprocess.run(
        [sys.executable, "-m", "repro", "replay", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert same.returncode == 0, same.stderr
    assert "bitwise identical" in same.stdout

    diff = subprocess.run(
        [
            sys.executable, "-m", "repro", "replay", str(tmp_path),
            "--availability", "0.2", "--json",
        ],
        capture_output=True, text=True, env=env,
    )
    assert diff.returncode == 0, diff.stderr
    report = json.loads(diff.stdout)
    assert report["decisions"] > 0
    assert report["overrides"] == {"availability": 0.2}
    assert report["identical"] + report["changed"] == report["decisions"]


def test_serve_journal_restart_restores_sessions_over_http(tmp_path):
    """Record over HTTP, kill the server, restart on the same journal:
    the held session id keeps working against the fresh process."""
    env = _cli_env()
    cmd = [
        sys.executable, "-u", "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", "0",
        "--availability", "0.7", "--journal", str(tmp_path),
    ]

    def start():
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        port, restored = None, 0
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            assert line, "serve exited before its ready line"
            match = re.search(r"restored (\d+) session", line)
            if match:
                restored = int(match.group(1))
            match = re.search(r"on http://127\.0\.0\.1:(\d+)/v\d+", line)
            if match:
                port = int(match.group(1))
                break
        assert port is not None, "no ready line within the deadline"
        return proc, port, restored

    def post(port, payload):
        conn = HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("POST", "/v1", json.dumps(payload).encode())
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    from repro.api import API_VERSION, EnsembleRef

    rng_s, rng_r = spawn_rngs(7, 2)
    ensemble = generate_strategy_ensemble(40, "uniform", rng_s)
    stream = generate_requests(20, k=3, seed=rng_r)

    proc, port, restored = start()
    try:
        assert restored == 0
        status, body = post(
            port,
            SubmitBatchRequest(
                requests=tuple(stream[:12]),
                ensemble=EnsembleRef.of(ensemble),
                spec=SPEC,
            ).to_dict(),
        )
        assert status == 200, body
        session_id = body["session_id"]
    finally:
        proc.terminate()
        proc.wait(timeout=15)
        proc.stdout.close()

    proc, port, restored = start()
    try:
        assert restored == 1
        status, body = post(
            port,
            SubmitBatchRequest(
                requests=tuple(stream[12:]), session_id=session_id
            ).to_dict(),
        )
        assert status == 200, body
        assert body["session_id"] == session_id
        status, stats = post(
            port, {"api_version": API_VERSION, "type": "stats"}
        )
        assert status == 200
        assert stats["journal"]["restores"] == 1
        assert stats["journal"]["events"] > 0
    finally:
        proc.terminate()
        proc.wait(timeout=15)
        proc.stdout.close()
