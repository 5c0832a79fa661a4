"""Bench: the ADPaR solver subsystem — scalar vs batch, per backend.

Two pins on Figure-18-shaped workloads:

* ``test_bench_adpar_batch_speedup`` solves the same hard requests
  per-request through the reference :class:`ADPaRExact` (the seed's
  scalar path) and in one :meth:`RecommendationEngine.recommend_alternatives`
  call (the registry's block-staged batch path), asserts the results are
  identical field-for-field, and pins the batch path at >= 5x faster —
  a regression in the exact sweep or the shared relaxation geometry
  fails the bench.
* ``test_bench_adpar_backends`` times every registered backend through
  the engine on one workload, so a pathological slowdown in any backend
  shows up in ``extra_info``.
"""

import time

from repro.core.adpar import ADPaRExact
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.engine import RecommendationEngine, default_solver_registry
from repro.utils.rng import spawn_rngs
from repro.workloads.generators import generate_adpar_points, hard_request_for

N_STRATEGIES = 4000
N_REQUESTS = 16
K = 5

SPEEDUP_FLOOR = 5.0


def _workload(n: int, requests: int, seed: int = 43):
    rng_pts, rng_req = spawn_rngs(seed, 2)
    points = generate_adpar_points(n, "uniform", rng_pts)
    ensemble = StrategyEnsemble.from_params(points)
    batch = [
        DeploymentRequest(f"d{i}", hard_request_for(points, rng_req), k=K)
        for i in range(requests)
    ]
    return ensemble, batch


def _scalar_vs_batch() -> tuple[float, float]:
    ensemble, requests = _workload(N_STRATEGIES, N_REQUESTS)

    reference = ADPaRExact(ensemble)
    start = time.perf_counter()
    scalar_results = [reference.solve(request) for request in requests]
    scalar_s = time.perf_counter() - start

    engine = RecommendationEngine(ensemble, availability=1.0)
    start = time.perf_counter()
    batch_results = engine.recommend_alternatives(requests)
    batch_s = time.perf_counter() - start

    for expected, got in zip(scalar_results, batch_results):
        assert got.distance == expected.distance
        assert got.alternative == expected.alternative
        assert got.strategy_indices == expected.strategy_indices
    return scalar_s, batch_s


def test_bench_adpar_batch_speedup(benchmark):
    scalar_s, batch_s = benchmark.pedantic(_scalar_vs_batch, rounds=1, iterations=1)
    speedup = scalar_s / max(batch_s, 1e-9)
    benchmark.extra_info["scalar_s"] = round(scalar_s, 4)
    benchmark.extra_info["batch_s"] = round(batch_s, 4)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["n_strategies"] = N_STRATEGIES
    benchmark.extra_info["n_requests"] = N_REQUESTS
    assert speedup >= SPEEDUP_FLOOR, (
        f"batch path ({batch_s:.3f}s) should beat per-request ADPaRExact "
        f"({scalar_s:.3f}s) by >= {SPEEDUP_FLOOR}x, got {speedup:.1f}x"
    )


def _per_backend() -> dict[str, float]:
    # Sized so the exponential bruteforce backend stays in budget.
    ensemble, requests = _workload(18, 4, seed=47)
    timings: dict[str, float] = {}
    for name in default_solver_registry().names():
        engine = RecommendationEngine(ensemble, availability=1.0, solver=name)
        start = time.perf_counter()
        results = engine.recommend_alternatives([r.params for r in requests], 3)
        timings[name] = time.perf_counter() - start
        assert len(results) == len(requests)
        assert all(len(r.strategy_indices) == 3 for r in results)
    return timings


def test_bench_adpar_backends(benchmark):
    timings = benchmark.pedantic(_per_backend, rounds=1, iterations=1)
    for name, seconds in timings.items():
        benchmark.extra_info[f"{name}_s"] = round(seconds, 5)
    assert set(timings) == {
        "adpar-exact",
        "adpar-incremental",
        "adpar-weighted",
        "onedim",
        "rtree",
        "bruteforce",
    }
