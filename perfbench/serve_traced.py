"""``repro serve`` with span recorders around each layer's public calls.

Usage::

    python3 perfbench/serve_traced.py SPANS.json [repro serve flags...]

Wraps the functions listed in :data:`TRACED` (plus the planner and
solver instances the registries create) with a :class:`SpanRecorder`,
then runs the ordinary ``repro serve`` entry point.  On SIGINT or
SIGTERM the serve loop unwinds and the spans are written to
``SPANS.json``.  Nothing under ``src/`` is edited: wrapping happens in
this process only, before the server starts.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import SpanRecorder  # noqa: E402


def _install(recorder: SpanRecorder) -> None:
    import repro.api.service as service_module
    from repro.api.coalescer import RequestCoalescer
    from repro.api.http import ApiRequestHandler
    from repro.api.service import EngineService
    from repro.core.streaming import StreamStatus
    from repro.engine.cache import CachingWorkforceComputer, EngineCache
    from repro.engine.engine import RecommendationEngine
    from repro.engine.registry import PlannerRegistry
    from repro.engine.session import EngineSession
    from repro.engine.solvers import SolverRegistry
    from repro.journal.journal import DecisionJournal

    def admitted(_args, decisions) -> int:
        return sum(1 for d in decisions if d.status is StreamStatus.ADMITTED)

    def queue_depth(args, _seq) -> int:
        # Depth of the write-behind queue right after this append: the
        # journal's stats only expose the instantaneous depth.
        return len(args[0]._queue)

    recorder.patch(ApiRequestHandler, "do_POST", "http.do_POST")
    recorder.patch(EngineService, "handle_dict", "api.handle_dict")
    recorder.patch(service_module, "parse_request", "codec.parse_request")
    recorder.patch(EngineService, "handle", "service.handle")
    recorder.patch(RequestCoalescer, "submit", "coalescer.submit")
    recorder.patch(RecommendationEngine, "resolve_many", "engine.resolve_many")
    recorder.patch(
        CachingWorkforceComputer, "aggregate_all", "workforce.aggregate_all"
    )
    recorder.patch(EngineCache, "adpar_solve_batch", "adpar.solve_batch")
    recorder.patch(EngineCache, "relaxation_space", "relaxation.space")
    recorder.patch(EngineCache, "relaxation_space_at", "relaxation.space")
    recorder.patch(EngineSession, "submit_many", "session.submit_many")
    recorder.patch(
        EngineSession, "retry_deferred", "session.retry_deferred", admitted
    )
    recorder.patch(DecisionJournal, "append", "journal.append", queue_depth)

    # Planner and solver backends are registry-built instances; trace
    # the instance method of each one as the registry hands it out.
    planner_create = PlannerRegistry.create
    solver_create = SolverRegistry.create

    def create_planner(self, *args, **kwargs):
        planner = planner_create(self, *args, **kwargs)
        recorder.patch(planner, "plan", "planner.plan")
        return planner

    def create_solver(self, *args, **kwargs):
        solver = solver_create(self, *args, **kwargs)
        recorder.patch(
            solver, "solve_batch", "solver.solve_batch",
            lambda call_args, _result: len(call_args[0]),
        )
        return solver

    PlannerRegistry.create = create_planner
    SolverRegistry.create = create_solver


def main(argv: "list[str]") -> int:
    spans_path, serve_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    _install(recorder)

    def _interrupt(_signum, _frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _interrupt)
    from repro.cli import main as repro_main

    try:
        code = repro_main(["serve", *serve_args])
    finally:
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
