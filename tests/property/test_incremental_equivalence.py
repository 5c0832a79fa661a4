"""Differential pins for the exact ADPaR sweep.

``adpar-exact`` (and its alias ``adpar-incremental``) re-derives the
exact sweep over index structures (cached sweep orders, the per-k global
frontier, delta-maintained spaces) and stages it per block of requests,
so its gate is **bitwise** equality with the seed oracle ``ADPaRExact``
— scalar, batch, and across randomized availability-tick schedules
through the :class:`IncrementalSpaceCache` chain.  The sweep's edge-case
ingredients (``block_frontier`` at degenerate block sizes and duplicate
ties, ``sweep_values``/``sweep_table`` against their raw NumPy
formulations, the block finalization against ``finalize_result``,
``shifted`` against a cold rebuild) are pinned alongside.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.adpar import ADPaRExact, finalize_result
from repro.core.params import TriParams
from repro.core.relaxation import BufferPool, RelaxationSpace
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.engine import IncrementalSpaceCache, RecommendationEngine, SolverContext
from repro.engine import solvers
from repro.engine.solvers import IncrementalExactSolver
from repro.exceptions import InfeasibleRequestError
from repro.geometry.sweepline import ParetoSweep, block_frontier

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
#: Values quantized to a coarse grid, so duplicate coordinates — the
#: tie-handling edge the heap reference resolves by iteration order —
#: are the rule, not the exception.
tied_unit = st.integers(min_value=0, max_value=4).map(lambda q: q / 4.0)
params_strategy = st.builds(TriParams, quality=unit, cost=unit, latency=unit)
tied_params = st.builds(TriParams, quality=tied_unit, cost=tied_unit, latency=tied_unit)


def assert_bitwise_equal(got, expected):
    assert got.distance == expected.distance
    assert got.squared_distance == expected.squared_distance
    assert got.relaxation == expected.relaxation
    assert got.alternative == expected.alternative
    assert got.strategy_indices == expected.strategy_indices
    assert got.strategy_names == expected.strategy_names


# ------------------------------------------------------- sweep ingredients
@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.tuples(tied_unit, tied_unit), min_size=1, max_size=24),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
)
def test_block_frontier_degenerate_blocks_match_heap(points, k, block):
    """``block=1``/``block=2`` and duplicate-(y, z) ties == the heap."""
    ys = [y for y, _ in points]
    zs = [z for _, z in points]
    sweep = ParetoSweep(ys, zs)
    expected = list(sweep.frontier(k))
    assert list(sweep.frontier_blocks(k, block=block)) == expected
    best = min(expected, key=lambda p: p[0] ** 2 + p[1] ** 2) if expected else None
    assert sweep.best_bound(k) == best


@settings(max_examples=100, deadline=None)
@given(
    st.lists(tied_params, min_size=1, max_size=20),
    tied_unit,
)
def test_sweep_values_match_numpy_on_duplicate_heavy_points(points, origin_x):
    """Cached-order derivation == raw ``np.sort``/``np.unique``."""
    space = RelaxationSpace(StrategyEnsemble.from_params(points), 1.0)
    sorted_relax, candidates = space.sweep_values(origin_x)
    raw = np.maximum(space.points[:, 0] - origin_x, 0.0)
    assert np.array_equal(sorted_relax, np.sort(raw))
    assert np.array_equal(candidates, np.unique(raw))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(tied_params, min_size=1, max_size=20),
    tied_unit,
    st.sampled_from([1e-12, 0.1]),
)
def test_sweep_table_prefix_matches_direct_searchsorted(points, origin_x, eps):
    """The O(n) prefix derivation == the searchsorted it replaces.

    ``eps=0.1`` on quarter-quantized coordinates forces the
    near-collision fallback; ``eps=1e-12`` exercises the fast path.
    """
    space = RelaxationSpace(StrategyEnsemble.from_params(points), 1.0)
    sorted_relax, xs, prefix = space.sweep_table(origin_x, eps)
    assert np.array_equal(
        prefix, np.searchsorted(sorted_relax, xs + eps, side="right")
    )


def test_sweep_table_matches_bisected_admission():
    """The sweep's binary-searched admission == the full candidate table.

    The first candidate admitting a row (its ``v + eps`` reaching the
    row's cost relaxation) is the table's ``searchsorted(prefix, row,
    "right")`` — on duplicate-heavy data, with eps collisions (0.1) and
    without (1e-12).
    """
    rng = np.random.default_rng(5)
    points = [TriParams(*np.round(rng.random(3) * 4) / 4) for _ in range(30)]
    space = RelaxationSpace(StrategyEnsemble.from_params(points), 1.0)
    for origin_x in (0.0, 0.25, 0.3, 1.0):
        for eps in (1e-12, 0.1):
            sorted_relax, xs, prefix = space.sweep_table(origin_x, eps)
            for row, target in enumerate(sorted_relax):
                got = solvers._first_reaching(
                    sorted_relax, target, lambda v: v + eps, target
                )
                j = int(np.searchsorted(prefix, row, side="right"))
                assert got == np.searchsorted(sorted_relax, xs[j], side="left")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(params_strategy, min_size=1, max_size=12),
    st.lists(params_strategy, min_size=1, max_size=4),
)
def test_relaxation_batch_out_buffer_is_value_identical(points, origins_params):
    space = RelaxationSpace(StrategyEnsemble.from_params(points), 1.0)
    origins = np.array([space.origin_of(p) for p in origins_params])
    fresh = space.relaxation_batch(origins)
    warm = np.full((origins.shape[0], space.size, 3), -1.0)
    out = space.relaxation_batch(origins, out=warm)
    assert out is warm
    assert np.array_equal(fresh, warm)


# ------------------------------------------------ solver bitwise equality
@st.composite
def adpar_instances(draw, max_points=9):
    mix = st.one_of(params_strategy, tied_params)
    points = draw(st.lists(mix, min_size=1, max_size=max_points))
    request = draw(mix)
    k = draw(st.integers(min_value=1, max_value=len(points)))
    return points, request, k


def _solver_pair(ensemble, availability=1.0, block=512):
    context = SolverContext(ensemble, availability).with_space()
    return (
        ADPaRExact(ensemble, availability, space=context.space),
        IncrementalExactSolver(context, {"block": block}),
    )


@settings(max_examples=150, deadline=None)
@given(adpar_instances(), st.sampled_from([1, 2, 512]))
def test_incremental_scalar_bitwise_identical_to_exact(instance, block):
    points, request, k = instance
    exact, incremental = _solver_pair(
        StrategyEnsemble.from_params(points), block=block
    )
    try:
        expected = exact.solve(request, k)
    except InfeasibleRequestError:
        with pytest.raises(InfeasibleRequestError):
            incremental.solve(request, k)
        return
    assert_bitwise_equal(incremental.solve(request, k), expected)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.one_of(params_strategy, tied_params), min_size=1, max_size=9),
    st.lists(st.one_of(params_strategy, tied_params), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=9),
)
def test_incremental_batch_bitwise_identical_to_exact(points, requests, k):
    k = min(k, len(points))
    exact, incremental = _solver_pair(StrategyEnsemble.from_params(points))
    try:
        expected = [exact.solve(request, k) for request in requests]
    except InfeasibleRequestError:
        with pytest.raises(InfeasibleRequestError):
            incremental.solve_batch(requests, k)
        return
    got = incremental.solve_batch(requests, k)
    for want, have in zip(expected, got):
        assert_bitwise_equal(have, want)


@st.composite
def finalize_blocks(draw, max_points=10, max_requests=5):
    """A catalog plus a block of (params, k, covered-seed) requests.

    Each request's bound is the componentwise maximum relaxation over
    ``k`` drawn rows, so at least those ``k`` are covered — often
    exactly them, and on the quantized grid with norm ties among the
    covered rows.  The ``k`` vary within the block.
    """
    mix = st.one_of(params_strategy, tied_params)
    points = draw(st.lists(mix, min_size=1, max_size=max_points))
    n = len(points)
    part = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_requests))):
        k = draw(st.integers(min_value=1, max_value=n))
        rows = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        part.append((draw(mix), k, rows))
    return points, part


@settings(max_examples=150, deadline=None)
@given(finalize_blocks())
@example(  # covered.size == k with a norm tie: two equal points, k = 2
    (
        [
            TriParams(0.5, 0.75, 0.75),
            TriParams(0.5, 0.75, 0.75),
            TriParams(0.0, 1.0, 1.0),
        ],
        [
            (TriParams(1.0, 0.5, 0.5), 2, [0, 1]),
            (TriParams(1.0, 0.5, 0.5), 3, [0, 1, 2]),
        ],
    )
)
def test_block_finalization_matches_finalize_result(instance):
    """The block finalization == ``finalize_result``, field for field."""
    points, part = instance
    ensemble = StrategyEnsemble.from_params(points)
    space = RelaxationSpace(ensemble, 1.0)
    solver = IncrementalExactSolver(SolverContext(ensemble, 1.0, space), {})
    views = solvers._thread_scratch().planes_for(space.size).block(len(part))
    requests, bests, expected = [], [], []
    for row, (params, k, rows) in enumerate(part):
        relax = space.relaxations(space.origin_of(params))
        views.relax[:, row] = relax.T
        best = tuple(float(v) for v in relax[rows].max(axis=0))
        requests.append((params, k))
        bests.append(best)
        expected.append(finalize_result(ensemble, params, relax, best, k))
    got = solver._finalize_block(requests, bests, views)
    for have, want in zip(got, expected):
        assert have.original == want.original
        assert_bitwise_equal(have, want)


def test_engine_serves_incremental_backend(table1_ensemble):
    engine = RecommendationEngine(
        table1_ensemble, availability=1.0, solver="adpar-incremental"
    )
    request = TriParams(0.9, 0.2, 0.1)
    expected = ADPaRExact(table1_ensemble).solve(request, 3)
    assert_bitwise_equal(engine.recommend_alternative(request, 3), expected)


# ----------------------------------------------- availability-tick chains
def _linear_ensemble(seed: int, n: int, sparsity: float) -> StrategyEnsemble:
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-0.5, 0.5, (n, 3))
    alpha[rng.random((n, 3)) < sparsity] = 0.0
    return StrategyEnsemble.from_arrays(alpha, rng.random((n, 3)))


def _assert_space_bitwise(derived: RelaxationSpace, cold: RelaxationSpace):
    assert np.array_equal(derived.points, cold.points)
    for dim in range(3):
        assert np.array_equal(
            derived._sorted_values(dim), cold._sorted_values(dim)
        )
        permuted = cold.points[derived.dimension_orders[dim], dim]
        assert np.all(permuted[1:] >= permuted[:-1])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=25),
    st.sampled_from([0.0, 0.5, 0.9]),
    st.lists(
        st.floats(min_value=-0.05, max_value=0.05, allow_nan=False),
        min_size=1,
        max_size=6,
    ),
)
def test_shifted_chain_bitwise_identical_to_cold_builds(seed, n, sparsity, steps):
    """Ticks of arbitrary sign/size: derived == freshly built, bitwise."""
    ensemble = _linear_ensemble(seed, n, sparsity)
    availability = 0.6
    space = RelaxationSpace(ensemble, availability)
    space.dimension_orders
    space.frontier_index
    pool = BufferPool()
    for step in steps:
        availability = min(1.0, max(0.0, availability + step))
        space = space.shifted(availability, pool=pool)
        _assert_space_bitwise(space, RelaxationSpace(ensemble, availability))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(
        st.tuples(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
            st.builds(TriParams, quality=unit, cost=unit, latency=unit),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_tick_schedule_solves_bitwise_identical_to_cold_exact(seed, schedule):
    """Random availability schedules through the chain == cold solves."""
    ensemble = _linear_ensemble(seed, 12, 0.4)
    chain = IncrementalSpaceCache(drift_threshold=0.3)
    for availability, request, k in schedule:
        space = chain.space_at(ensemble, availability)
        solver = IncrementalExactSolver(
            SolverContext(ensemble, availability, space), {}
        )
        reference = ADPaRExact(ensemble, availability=availability)
        try:
            expected = reference.solve(request, k)
        except InfeasibleRequestError:
            with pytest.raises(InfeasibleRequestError):
                solver.solve(request, k)
            continue
        assert_bitwise_equal(solver.solve(request, k), expected)
    stats = chain.stats_view()
    assert stats["shifts"] + stats["rebuilds"] + stats["hits"] >= len(schedule)


def test_chain_rebuilds_past_drift_threshold():
    ensemble = _linear_ensemble(7, 10, 0.5)
    chain = IncrementalSpaceCache(drift_threshold=0.1)
    chain.space_at(ensemble, 0.5)
    chain.space_at(ensemble, 0.55)  # within threshold: delta path
    chain.space_at(ensemble, 0.9)  # past threshold: re-anchor
    stats = chain.stats_view()
    assert stats["shifts"] == 1
    assert stats["rebuilds"] == 2


def test_chain_reclaims_only_unheld_spaces():
    ensemble = _linear_ensemble(11, 30, 0.5)
    chain = IncrementalSpaceCache(drift_threshold=10.0)
    held = chain.space_at(ensemble, 0.5)
    held.dimension_orders
    chain.space_at(ensemble, 0.51)  # held survives: caller keeps a reference
    assert chain.reclaimed == 0
    assert held.points is not None
    for i in range(2, 6):  # discarded heads feed the pool
        chain.space_at(ensemble, 0.5 + i / 100)
    assert chain.reclaimed > 0
    assert np.array_equal(
        chain.space_at(ensemble, 0.5).points, RelaxationSpace(ensemble, 0.5).points
    )


# ------------------------------------------------------ live-tick surfaces
def test_engine_alternative_at_matches_cold_exact():
    ensemble = _linear_ensemble(23, 14, 0.4)
    engine = RecommendationEngine(ensemble, availability=1.0)
    request = DeploymentRequest("d", TriParams(0.8, 0.2, 0.2), k=3)
    for availability in (0.97, 0.93, 0.9):
        expected = ADPaRExact(ensemble, availability=availability).solve(request)
        assert_bitwise_equal(
            engine.recommend_alternative_at(request, availability), expected
        )
    [batched] = engine.recommend_alternatives_at([request], 0.88)
    assert_bitwise_equal(
        batched, ADPaRExact(ensemble, availability=0.88).solve(request)
    )


def test_session_alternatives_at_remaining_track_the_ledger():
    ensemble = _linear_ensemble(29, 14, 0.4)
    engine = RecommendationEngine(ensemble, availability=1.0)
    session = engine.open_session()
    session.submit(DeploymentRequest("live", TriParams(0.2, 0.9, 0.9), k=1))
    remaining = session.remaining
    assert 0.0 <= remaining <= 1.0
    probe = DeploymentRequest("probe", TriParams(0.8, 0.2, 0.2), k=3)
    expected = ADPaRExact(ensemble, availability=remaining).solve(probe)
    assert_bitwise_equal(session.alternative_at_remaining(probe), expected)
    [batched] = session.alternatives_at_remaining([probe])
    assert_bitwise_equal(batched, expected)
