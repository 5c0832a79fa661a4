"""Bench: the incremental ADPaR path — indexed batch sweep + delta ticks.

Two pins, recorded to ``BENCH_adpar_incremental.json``:

* ``test_bench_indexed_batch_speedup`` solves the same Figure-18-scale
  hard batch (50k strategies, 16 requests, k=5) through the retired
  vectorized column sweep (frozen in :mod:`adpar_reference`) and the
  production ``adpar-exact`` indexed sweep, asserts the answers are
  identical field-for-field, and pins the indexed path at >= 5x.  It
  wins by jumping between frontier changes, skipping candidates whose
  admitted-norm floor cannot win, and repairing frontiers
  incrementally, so a regression in the gating or the cursor shows up
  directly here.
* ``test_bench_streaming_tick_cost`` drives availability ticks through
  :class:`~repro.engine.IncrementalSpaceCache` on a sparse-alpha
  ensemble (only ~0.5% of (strategy, dimension) cells depend on
  availability — the streaming regime where most of the geometry is
  reusable) and pins the marginal per-tick cost of
  :meth:`RelaxationSpace.shifted` at <= 0.1x a full rebuild.  The delta
  path re-estimates only availability-dependent rows, merge-repairs the
  per-dimension sort orders, and recycles retired buffers through the
  chain's :class:`~repro.core.relaxation.BufferPool`; losing any of the
  three pushes the ratio over the pin.

Both measurements interleave the two timed legs over several rounds, so
a background-load spike on a shared CI box lands on both sides of the
ratio instead of one; the batch pin compares round medians, the tick
pin compares best-of-round means (load only ever adds time, so the
round minimum is the cleanest estimate of each leg's true cost).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from adpar_reference import VectorizedReferenceSolver
from bench_recording import record

from repro.core.relaxation import RelaxationSpace
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.engine import (
    IncrementalSpaceCache,
    SolverContext,
    default_solver_registry,
)
from repro.utils.rng import spawn_rngs
from repro.workloads.generators import generate_adpar_points, hard_request_for

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_adpar_incremental.json"

# -- batch pin (Figure-18 scale) --------------------------------------
N_STRATEGIES = 50000
N_REQUESTS = 16
K = 5
BATCH_ROUNDS = 3
BATCH_SPEEDUP_FLOOR = 5.0

# -- streaming-tick pin ------------------------------------------------
TICK_N = 100000
#: Fraction of (strategy, dimension) cells whose estimate actually
#: depends on availability; the rest have alpha == 0 and never move.
TICK_ALPHA_FRACTION = 0.005
TICK_WARMUP = 8
TICK_ROUNDS = 7
TICKS_PER_ROUND = 30
REBUILDS_PER_ROUND = 5
TICK_STEP = 0.0004
TICK_COST_CEILING = 0.1


def _batch_workload(seed: int = 43):
    """One ensemble plus a distinct hard batch per timed round.

    Each round gets fresh request params so neither engine can serve a
    round from its memoized ADPaR results — the timed legs exercise the
    sweeps, not the cache.
    """
    rng_pts, rng_req = spawn_rngs(seed, 2)
    points = generate_adpar_points(N_STRATEGIES, "uniform", rng_pts)
    ensemble = StrategyEnsemble.from_params(points)
    batches = [
        [
            DeploymentRequest(
                f"r{round_idx}-{i}", hard_request_for(points, rng_req), k=K
            )
            for i in range(N_REQUESTS)
        ]
        for round_idx in range(BATCH_ROUNDS + 1)
    ]
    return ensemble, batches


def _indexed_vs_vectorized() -> dict:
    ensemble, batches = _batch_workload()

    # The pin targets the sweeps themselves, so both solvers share one
    # relaxation space and skip the engine wrapper (request hashing,
    # memoization, report assembly), which would only dilute the ratio.
    context = SolverContext(ensemble, 1.0).with_space()
    exact = VectorizedReferenceSolver(context)
    indexed = default_solver_registry().create("adpar-exact", context, {})

    # Warmup batch: both solvers run once so the timed rounds compare
    # the sweeps, not who pays for the sorted orders or the block index
    # — and every answer must match field-for-field.
    params = [request.params for request in batches[0]]
    expected = exact.solve_batch(params, K)
    got = indexed.solve_batch(params, K)
    for want, have in zip(expected, got):
        assert have.distance == want.distance
        assert have.alternative == want.alternative
        assert have.strategy_indices == want.strategy_indices

    exact_times, indexed_times = [], []
    for batch in batches[1:]:
        params = [request.params for request in batch]
        start = time.perf_counter()
        expected = exact.solve_batch(params, K)
        exact_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        got = indexed.solve_batch(params, K)
        indexed_times.append(time.perf_counter() - start)
        for want, have in zip(expected, got):
            assert have.distance == want.distance
            assert have.alternative == want.alternative
            assert have.strategy_indices == want.strategy_indices

    exact_s = statistics.median(exact_times)
    indexed_s = statistics.median(indexed_times)
    return {
        "n_strategies": N_STRATEGIES,
        "n_requests": N_REQUESTS,
        "k": K,
        "rounds": BATCH_ROUNDS,
        "vectorized_s": round(exact_s, 4),
        "indexed_s": round(indexed_s, 4),
        "speedup_x": round(exact_s / max(indexed_s, 1e-9), 2),
        "speedup_floor_x": BATCH_SPEEDUP_FLOOR,
        "identical": True,
    }


def test_bench_indexed_batch_speedup(benchmark):
    info = benchmark.pedantic(_indexed_vs_vectorized, rounds=1, iterations=1)
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "indexed_batch", info)
    assert info["speedup_x"] >= BATCH_SPEEDUP_FLOOR, (
        f"indexed batch sweep ({info['indexed_s']}s) should beat the "
        f"vectorized sweep ({info['vectorized_s']}s) by >= "
        f"{BATCH_SPEEDUP_FLOOR}x, got {info['speedup_x']}x"
    )


def _sparse_ensemble(seed: int = 7) -> StrategyEnsemble:
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-0.3, 0.3, (TICK_N, 3))
    alpha[rng.random((TICK_N, 3)) >= TICK_ALPHA_FRACTION] = 0.0
    beta = rng.random((TICK_N, 3))
    return StrategyEnsemble.from_arrays(alpha, beta)


def _materialized(space: RelaxationSpace) -> RelaxationSpace:
    """Force every lazy the tick path maintains, for a fair denominator."""
    space.dimension_orders
    for dim in range(3):
        space._sorted_values(dim)
    space.frontier_index
    return space


def _tick_vs_rebuild() -> dict:
    ensemble = _sparse_ensemble()

    chain = IncrementalSpaceCache(drift_threshold=10.0)
    _materialized(chain.space_at(ensemble, 0.5))
    availability = 0.5
    for _ in range(TICK_WARMUP):  # populate the chain's buffer pool
        availability += TICK_STEP
        chain.space_at(ensemble, availability)

    rebuild_times, tick_times = [], []
    for round_idx in range(TICK_ROUNDS):
        start = time.perf_counter()
        for i in range(REBUILDS_PER_ROUND):
            _materialized(
                RelaxationSpace(ensemble, 0.55 + round_idx * 0.01 + i * 0.001)
            )
        rebuild_times.append((time.perf_counter() - start) / REBUILDS_PER_ROUND)

        start = time.perf_counter()
        for _ in range(TICKS_PER_ROUND):
            availability += TICK_STEP
            chain.space_at(ensemble, availability)
        tick_times.append((time.perf_counter() - start) / TICKS_PER_ROUND)

    tick_s = min(tick_times)
    rebuild_s = min(rebuild_times)
    stats = chain.stats_view()
    return {
        "n_strategies": TICK_N,
        "alpha_fraction": TICK_ALPHA_FRACTION,
        "rounds": TICK_ROUNDS,
        "ticks_per_round": TICKS_PER_ROUND,
        "tick_ms": round(tick_s * 1e3, 4),
        "rebuild_ms": round(rebuild_s * 1e3, 4),
        "tick_over_rebuild_x": round(tick_s / max(rebuild_s, 1e-9), 4),
        "tick_cost_ceiling_x": TICK_COST_CEILING,
        "chain_shifts": stats["shifts"],
        "chain_rebuilds": stats["rebuilds"],
        "buffers_reclaimed": stats["reclaimed"],
    }


def test_bench_streaming_tick_cost(benchmark):
    info = benchmark.pedantic(_tick_vs_rebuild, rounds=1, iterations=1)
    benchmark.extra_info.update(info)
    record(RESULTS_PATH, "streaming_tick", info)
    assert info["chain_shifts"] >= TICK_ROUNDS * TICKS_PER_ROUND, (
        "ticks must go through the delta path, not full rebuilds: "
        f"{info}"
    )
    assert info["buffers_reclaimed"] > 0, (
        "retired spaces must feed the buffer pool — reclamation never "
        f"fired: {info}"
    )
    assert info["tick_over_rebuild_x"] <= TICK_COST_CEILING, (
        f"a shifted() tick ({info['tick_ms']}ms) should cost <= "
        f"{TICK_COST_CEILING}x a full rebuild ({info['rebuild_ms']}ms), "
        f"got {info['tick_over_rebuild_x']}x"
    )
