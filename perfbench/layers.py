"""Per-layer metrics of a traced run.

Layers are ``src/repro`` modules; each is timed by the spans that
``serve_traced.py`` records around its public calls, or counted from the
``stats`` envelope read just before and just after the window.  ``*_ms``
per-op figures are self times (a span minus its traced children) divided
by the window's operation count, so the layer self times plus the
transport share add up to the client round trip; what they leave over is
``trace.unattributed_share``.
"""

from __future__ import annotations

import spans as spanlib

#: Per-layer metric name -> unit, in report order.
UNITS = {
    "transport.ms_per_op": "ms",
    "http.self_ms_per_op": "ms",
    "http.response_kb_per_op": "KB",
    "codec.decode_ms_per_op": "ms",
    "codec.encode_ms_per_op": "ms",
    "service.self_ms_per_op": "ms",
    "coalescer.wait_ms_per_op": "ms",
    "coalescer.calls_per_batch": "calls/batch",
    "planner.ms_per_op": "ms",
    "cache.workforce_hit_rate": "ratio",
    "cache.adpar_hit_rate": "ratio",
    "workforce.ms_per_op": "ms",
    "adpar.ms_per_op": "ms",
    "solver.ms_per_request": "ms",
    "relaxation.builds": "count",
    "relaxation.build_ms": "ms",
    "session.submit_ms_per_burst": "ms",
    "session.retry_ms_per_call": "ms",
    "session.retry_useful_ratio": "ratio",
    "journal.append_us_per_event": "us",
    "journal.bytes_per_decision": "B",
    "journal.checkpoints": "count",
    "journal.queued_max": "count",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Layer -> the spans whose self time it owns (transport is derived).
SELF_SPANS = {
    "http": ("http.do_POST",),
    "codec.decode": ("codec.parse_request",),
    "codec.encode": ("api.handle_dict",),
    "service": ("service.handle",),
    "coalescer": ("coalescer.submit",),
    "planner": ("planner.plan",),
    "workforce": ("workforce.aggregate_all",),
    "adpar": ("adpar.solve_batch",),
    "solver": ("solver.solve_batch",),
    "relaxation": ("relaxation.space",),
    "session": ("session.submit_many", "session.retry_deferred"),
    "journal": ("journal.append",),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after = (after or {}).get(key)
        before = (before or {}).get(key)
    return float(after or 0) - float(before or 0)


def measure(
    all_spans: list,
    run: dict,
    decisions: int,
    untraced_rate: float,
    traced_rate: float,
) -> "tuple[dict, dict]":
    """``(metrics, self_ms_per_op_by_layer)`` for one traced window."""
    records = [r for client in run["records"] for r in client]
    ops = len(records)
    window = spanlib.totals(
        spanlib.in_window(all_spans, run["start_ns"], run["end_ns"])
    )
    lifetime = spanlib.totals(all_spans)

    def row(name: str, table=window) -> dict:
        return table.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                "n": 0, "n_max": 0, "n_nonzero": 0})

    client_ms = sum(end - start for start, end, *_ in records) / 1e6
    layer_ms = {"transport": client_ms - row("http.do_POST")["ms"]}
    for layer, names in SELF_SPANS.items():
        layer_ms[layer] = sum(row(n)["self_ms"] for n in names)
    per_op = {layer: _ratio(ms, ops) for layer, ms in layer_ms.items()}

    before, after = run["stats_before"], run["stats_after"]
    workforce_hits = _delta(after, before, "cache", "workforce_hits")
    workforce_probes = workforce_hits + _delta(
        after, before, "cache", "workforce_misses"
    )
    adpar_hits = _delta(after, before, "cache", "adpar_hits")
    adpar_probes = adpar_hits + _delta(after, before, "cache", "adpar_misses")
    chain = (after.get("occupancy") or {}).get("space_chain", {})
    submit, retry = row("session.submit_many"), row("session.retry_deferred")
    append = row("journal.append")
    solver = row("solver.solve_batch")

    metrics = {
        "transport.ms_per_op": per_op["transport"],
        "http.self_ms_per_op": per_op["http"],
        "http.response_kb_per_op": _ratio(
            sum(len(r[3]) for r in records) / 1024.0, ops
        ),
        "codec.decode_ms_per_op": per_op["codec.decode"],
        "codec.encode_ms_per_op": per_op["codec.encode"],
        "service.self_ms_per_op": per_op["service"],
        "coalescer.wait_ms_per_op": per_op["coalescer"],
        "coalescer.calls_per_batch": _ratio(
            _delta(after, before, "coalescer", "calls"),
            _delta(after, before, "coalescer", "batches"),
        ),
        "planner.ms_per_op": per_op["planner"],
        "cache.workforce_hit_rate": _ratio(workforce_hits, workforce_probes),
        "cache.adpar_hit_rate": _ratio(adpar_hits, adpar_probes),
        "workforce.ms_per_op": per_op["workforce"],
        "adpar.ms_per_op": _ratio(row("adpar.solve_batch")["ms"], ops),
        "solver.ms_per_request": _ratio(solver["ms"], solver["n"]),
        "relaxation.builds": float(
            chain.get("rebuilds", 0) + chain.get("shifts", 0)
        ),
        "relaxation.build_ms": row("relaxation.space", lifetime)["ms"],
        "session.submit_ms_per_burst": _ratio(submit["ms"], submit["calls"]),
        "session.retry_ms_per_call": _ratio(retry["ms"], retry["calls"]),
        "session.retry_useful_ratio": _ratio(
            retry["n_nonzero"], retry["calls"]
        ),
        "journal.append_us_per_event": _ratio(
            append["ms"] * 1000.0, append["calls"]
        ),
        "journal.bytes_per_decision": _ratio(
            _delta(after, before, "journal", "bytes"), decisions
        ),
        "journal.checkpoints": _delta(after, before, "journal", "checkpoints"),
        "journal.queued_max": float(append["n_max"]),
        "trace.unattributed_share": _ratio(
            client_ms - sum(layer_ms.values()), client_ms
        ),
        "trace.overhead_ratio": _ratio(untraced_rate, traced_rate),
    }
    return metrics, per_op
