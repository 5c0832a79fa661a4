"""Bench: the production exact sweep vs the retired vectorized sweep, by size.

``adpar-exact`` runs one exact sweep for every catalog size — there is
no size threshold dispatching small catalogs to a second sweep — so it
has to hold up where the retired vectorized sweep was at its best
(small catalogs, where fixed per-request NumPy calls dominate) as well
as where it was at its worst.  This bench solves serving-shaped traffic
(``generate_strategy_ensemble`` catalogs at availability 0.6, requests
drawn like ``generate_requests`` with k=3 — the ``repro serve``
benchmark's alternatives traffic) through both, at n ∈ {100, 400,
2000, 20000} strategies × m ∈ {1, 12} requests per ``solve_batch``
call, and records ``BENCH_adpar_crossover.json``.

Each round times both solvers on the same fresh batch, in alternating
order, and repeats the batch inside a leg until the leg is long enough
to time; the recorded ratio is the median of the per-round
production/reference ratios, with its quartiles.  Pins:

* production / reference <= 1.05 at n ∈ {100, 400} (both m);
* production / reference <= 0.6 at n = 20000, m = 12.

Every answer is checked field for field against the reference.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
from adpar_reference import VectorizedReferenceSolver
from bench_recording import record

from repro.engine import SolverContext, default_solver_registry
from repro.workloads.generators import generate_requests, generate_strategy_ensemble

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_adpar_crossover.json"

SIZES = (100, 400, 2000, 20000)
BATCHES = (1, 12)
K = 3
AVAILABILITY = 0.6
#: A timed leg repeats its batch until it has solved this many requests.
LEG_REQUESTS = {100: 96, 400: 96, 2000: 24, 20000: 12}
ROUNDS = {100: 31, 400: 31, 2000: 11, 20000: 7}
CEILINGS = {(100, 1): 1.05, (100, 12): 1.05, (400, 1): 1.05, (400, 12): 1.05,
            (20000, 12): 0.6}


def _same(got, want) -> bool:
    return all(
        (a.distance, a.relaxation, a.alternative, a.strategy_indices)
        == (b.distance, b.relaxation, b.alternative, b.strategy_indices)
        for a, b in zip(got, want)
    )


def _leg(solver, batch: list, repeats: int) -> "tuple[float, list]":
    start = time.perf_counter()
    for _ in range(repeats):
        results = solver.solve_batch(batch, K)
    return time.perf_counter() - start, results


def _measure(n: int, m: int, seed: int = 11) -> dict:
    rng = np.random.default_rng([seed, n, m])
    ensemble = generate_strategy_ensemble(n, "uniform", rng)
    context = SolverContext(ensemble, AVAILABILITY).with_space()
    production = default_solver_registry().create("adpar-exact", context, {})
    reference = VectorizedReferenceSolver(context)
    repeats = max(1, LEG_REQUESTS[n] // m)
    warm = [r.params for r in generate_requests(m, k=K, seed=rng)]
    identical = _same(production.solve_batch(warm, K), reference.solve_batch(warm, K))

    ratios, production_s, reference_s = [], [], []
    for round_idx in range(ROUNDS[n]):
        batch = [r.params for r in generate_requests(m, k=K, seed=rng)]
        if round_idx % 2:
            ref_s, want = _leg(reference, batch, repeats)
            prod_s, got = _leg(production, batch, repeats)
        else:
            prod_s, got = _leg(production, batch, repeats)
            ref_s, want = _leg(reference, batch, repeats)
        identical = identical and _same(got, want)
        ratios.append(prod_s / ref_s)
        production_s.append(prod_s / (repeats * m))
        reference_s.append(ref_s / (repeats * m))
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    info = {
        "n_strategies": n,
        "requests_per_call": m,
        "k": K,
        "rounds": ROUNDS[n],
        "production_ms_per_request": round(statistics.median(production_s) * 1e3, 4),
        "reference_ms_per_request": round(statistics.median(reference_s) * 1e3, 4),
        "ratio_x": round(statistics.median(ratios), 3),
        "ratio_q1_x": round(q1, 3),
        "ratio_q3_x": round(q3, 3),
        "identical": identical,
    }
    if (n, m) in CEILINGS:
        info["ratio_ceiling_x"] = CEILINGS[(n, m)]
    return info


def _crossover() -> dict:
    sections = {
        f"n{n}_m{m}": _measure(n, m) for n in SIZES for m in BATCHES
    }
    sections["host"] = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    return sections


def test_bench_adpar_crossover(benchmark):
    sections = benchmark.pedantic(_crossover, rounds=1, iterations=1)
    for name, info in sections.items():
        record(RESULTS_PATH, name, info)
        if "ratio_x" in info:
            benchmark.extra_info[f"{name}_ratio_x"] = info["ratio_x"]
    for name, info in sections.items():
        if name == "host":
            continue
        assert info["identical"], f"{name}: production and reference disagree"
        ceiling = info.get("ratio_ceiling_x")
        if ceiling is not None:
            assert info["ratio_x"] <= ceiling, (
                f"{name}: production/reference {info['ratio_x']}x exceeds "
                f"{ceiling}x ({info['production_ms_per_request']} vs "
                f"{info['reference_ms_per_request']} ms/request)"
            )
