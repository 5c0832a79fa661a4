"""StratRec serve benchmark: closed-loop clients against ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload resolve-hot --seed 1 --seconds 15 --trace 0

Starts a single-process ``repro serve --threads 2``, drives it with
:data:`CLIENTS` closed-loop keep-alive clients (one load-generator process, one
thread per client) for ``--seconds``, checks every response against an
in-process reference service, and prints each metric by name with its
unit.  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`; the
tail latencies in :data:`PRINTED_ONLY` are printed but not reported);
``--trace 1`` additionally runs a traced server and reports the
per-layer metrics (:data:`layers.UNITS`).  Exit status: 0 when every
answer checks out, 1 when any does not, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("resolve-hot", "alternatives-20k", "stream-journaled")
CLIENTS = 2
#: Fresh servers per untraced run, each set up and then measured for
#: an equal share of the window; ``setup_s`` is the median set-up.
SEGMENTS = 3
#: Lifecycles pre-scripted per client = margin x (window / fastest
#: warm-up lifecycle).  Two clients sharing one server each run slower
#: than a lone client; the margin covers a warm server outpacing the
#: cold one the warm-up ran on.  Running out fails the run.
LIFECYCLE_MARGIN = 2.0

END_TO_END = {
    "latency_p50_ms": "ms",
    "decisions_per_s": "1/s",
    "setup_s": "s",
    "server_cpu_ms_per_op": "ms",
    "server_rss_mb": "MB",
}
#: Printed, not reported: on a shared 2-CPU host the tail moves with
#: other tenants' load by more than any bound the result may carry.
PRINTED_ONLY = {"latency_p90_ms": "ms", "latency_p99_ms": "ms"}


class SetupError(RuntimeError):
    """The benchmark cannot produce a result (inputs ran out)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: the smoke test's reduced catalogs and scripts",
    )
    return parser.parse_args(argv)


# ------------------------------------------------------------- reference
class Reference:
    """Expected responses from an in-process service (no coalescer, no
    journal), memoized per request body / lifecycle index."""

    def __init__(self, workload):
        from workloads import reference_service

        self.workload = workload
        self.service = reference_service(workload)
        self._answers: dict = {}
        self._lifecycles: dict = {}

    def answer(self, body: bytes) -> bytes:
        hit = self._answers.get(body)
        if hit is None:
            hit = json.dumps(self.service.handle_dict(json.loads(body))).encode()
            self._answers[body] = hit
        return hit

    def lifecycle(self, index: int) -> list:
        hit = self._lifecycles.get(index)
        if hit is None:
            hit = self._lifecycles[index] = self.workload.lifecycle(
                index, self.service
            )
        return hit


def _failed(record: tuple, expected: bytes) -> bool:
    """Whether one response record differs from the expected bytes."""
    from workloads import SID

    _, _, status, data, sid = record
    if sid:
        data = data.replace(sid, SID)
    return status != 200 or data != expected


# ------------------------------------------------------------- measuring
def measure(workload, reference, scratch: Path, seconds: float,
            segments: int, traced: bool) -> dict:
    """``segments`` fresh servers, each set up and then measured for an
    equal share of ``seconds``; every answer is checked."""
    from harness import Server, run_script, window
    from workloads import PLAIN

    stream = workload.name == "stream-journaled"
    tag = "traced" if traced else "plain"
    if stream:
        warm_script = reference.lifecycle(-1)
        warm_ops = [(body, kind) for body, kind, _, _ in warm_script]
        warm_expected = [exp for _, _, exp, _ in warm_script]
    else:
        warm_ops = workload.warmup()
        warm_expected = [reference.answer(body) for body, _ in warm_ops]
    setup_expected = [reference.answer(workload.upload), *warm_expected]

    result = {"windows": [], "setup_s": [], "attempted": 0, "failed": 0,
              "replays": []}
    warm_s = math.inf
    for segment in range(segments):
        journal_dir = scratch / f"journal-{tag}-{segment}" if stream else None
        spans_path = scratch / f"spans-{tag}-{segment}.json" if traced else None
        start = time.perf_counter()
        server = Server(ROOT, journal_dir, spans_path)
        try:
            with server.client() as client:
                records = run_script(client, [(workload.upload, PLAIN)])
                warm_start = time.perf_counter()
                records += run_script(client, warm_ops)
            done = time.perf_counter()
            result["setup_s"].append(done - start)
            warm_s = min(warm_s, done - warm_start)
            result["attempted"] += len(records)
            result["failed"] += sum(
                map(_failed, records, setup_expected)
            )

            scripts, expected, decisions = _client_scripts(
                workload, reference, seconds / segments, warm_s
            )
            stats_before = server.stats()
            run = window(server, scripts, seconds / segments)
            run["stats_before"], run["stats_after"] = (
                stats_before, server.stats()
            )
            run["rss_mb"] = server.peak_rss_mb()
        finally:
            server.stop()
        if run["exhausted"]:
            raise SetupError(
                "a client ran out of pre-built inputs before the window closed"
            )
        run["decisions"] = 0
        run["decision_latency_ms"] = []
        for client, records in enumerate(run["records"]):
            if expected is None:
                want = [reference.answer(body)
                        for body, _ in scripts[client][: len(records)]]
            else:
                want = expected[client]
            for record, exp, n in zip(records, want, decisions[client]):
                bad = _failed(record, exp)
                result["failed"] += bad
                run["decisions"] += 0 if bad else n
                if n:
                    run["decision_latency_ms"].append(
                        (record[1] - record[0]) / 1e6
                    )
            result["attempted"] += len(records)
        run["spans_path"] = spans_path
        result["windows"].append(run)
        if stream:
            from repro.journal import replay_trace

            result["replays"].append(replay_trace(journal_dir))
    return result


def _client_scripts(workload, reference, seconds: float, warm_s: float):
    """Per-client op lists, plus expected answers and decision counts
    (``None`` expected: answered by the reference after the window)."""
    from workloads import REQUESTS_PER_CALL

    if workload.name != "stream-journaled":
        budget = math.ceil(seconds * workload.dims["rate_ceiling"]) + 1
        scripts = [workload.client_ops(c, budget) for c in range(CLIENTS)]
        decisions = [[REQUESTS_PER_CALL] * budget for _ in range(CLIENTS)]
        return scripts, None, decisions
    per_client = math.ceil(LIFECYCLE_MARGIN * seconds / warm_s) + 1
    scripts, expected, decisions = [], [], []
    for client in range(CLIENTS):
        ops, want, counts = [], [], []
        for j in range(per_client):
            for body, kind, exp, n in reference.lifecycle(j * CLIENTS + client):
                ops.append((body, kind))
                want.append(exp)
                counts.append(n)
        scripts.append(ops)
        expected.append(want)
        decisions.append(counts)
    return scripts, expected, decisions


# --------------------------------------------------------------- metrics
def window_metrics(run: dict) -> dict:
    """End-to-end metrics of one server's window (all but ``setup_s``).

    Latency is taken over the calls that decide arrivals (``resolve``,
    ``alternatives``, ``submit_batch``): a session's ``complete``,
    ``retry_deferred`` and ``close_session`` calls are an order of
    magnitude lighter, and mixing them in puts the median in the gap
    between the two groups.  CPU time is per call of any kind.
    """
    import numpy as np

    latencies = run["decision_latency_ms"]
    ops = sum(len(client) for client in run["records"])
    return {
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p90_ms": float(np.percentile(latencies, 90)),
        "latency_p99_ms": float(np.percentile(latencies, 99)),
        "decisions_per_s": run["decisions"] * 1e9
        / (run["end_ns"] - run["start_ns"]),
        "server_cpu_ms_per_op": run["cpu_s"] * 1000.0 / ops,
        "server_rss_mb": run["rss_mb"],
    }


def end_to_end(result: dict) -> dict:
    """Each metric's median over the measurement's server windows, so
    one window caught by a burst of host noise does not set the value."""
    per_window = [window_metrics(run) for run in result["windows"]]
    metrics = {
        name: statistics.median(w[name] for w in per_window)
        for name in per_window[0]
    }
    metrics["setup_s"] = statistics.median(result["setup_s"])
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import numpy

        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import layers
    import spans
    from workloads import Workload

    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = Workload(args.workload, args.seed, args.size)
        reference = Reference(workload)
        segments = 1 if args.trace else SEGMENTS
        plain = measure(workload, reference, scratch, args.seconds,
                        segments, traced=False)
        results = [plain]
        if args.trace:
            traced = measure(workload, reference, scratch, args.seconds,
                             1, traced=True)
            results.append(traced)
            run = traced["windows"][0]
            layer_metrics, self_ms = layers.measure(
                spans.load(run["spans_path"]), run, run["decisions"],
                end_to_end(plain)["decisions_per_s"],
                end_to_end(traced)["decisions_per_s"],
            )
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    replays = [replay for r in results for replay in r["replays"]]
    correct = failed == 0 and all(
        replay.bitwise_identical and replay.decisions > 0 for replay in replays
    )

    print(f"host: cpus={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"clients={CLIENTS} loop=closed servers={segments} size={args.size}")
    e2e = end_to_end(plain)
    for name, unit in {**END_TO_END, **PRINTED_ONLY}.items():
        print(f"{name} = {e2e[name]:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} ratio "
          f"(attempted {attempted}, succeeded {attempted - failed}, "
          f"failed {failed})")
    for i, run in enumerate(plain["windows"]):
        print(f"server {i}: {len(run['decision_latency_ms'])} latency "
              f"samples, {run['decisions']} decisions")
    for replay in replays:
        print(f"journal replay: {replay.decisions} decisions, "
              f"{replay.identical} bitwise identical")
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    if args.trace:
        for name, unit in layers.UNITS.items():
            print(f"{name} = {layer_metrics[name]:.6g} {unit}")
        total = sum(self_ms.values()) or 1.0
        print("self time per op by layer: " + ", ".join(
            f"{layer} {ms:.4f} ms ({ms / total:.1%})"
            for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1])
        ))
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit in layers.UNITS.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
