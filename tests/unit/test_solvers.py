"""Unit tests for the ADPaR solver subsystem: registry, space, engine API."""

import numpy as np
import pytest

from repro.core.adpar import ADPaRExact
from repro.core.params import TriParams
from repro.core.relaxation import RelaxationSpace
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.core.streaming import StreamStatus
from repro.baselines.adpar_onedim import OneDimBaseline
from repro.engine import (
    RecommendationEngine,
    SolverContext,
    SolverRegistry,
    default_solver_registry,
    solver_options_key,
)
from repro.exceptions import InfeasibleRequestError, UnknownSolverError

ALL_BACKENDS = ("adpar-exact", "adpar-weighted", "onedim", "rtree", "bruteforce")

HARD_REQUEST = TriParams(0.8, 0.2, 0.28)


@pytest.fixture
def engine(table1_ensemble):
    return RecommendationEngine(table1_ensemble, availability=0.8)


class TestSolverRegistry:
    def test_builtin_backends_registered(self):
        names = default_solver_registry().names()
        for expected in ALL_BACKENDS:
            assert expected in names

    def test_unknown_backend_raises_typed_error(self, table1_ensemble):
        context = SolverContext(ensemble=table1_ensemble, availability=0.8)
        with pytest.raises(UnknownSolverError, match="quantum-annealer"):
            default_solver_registry().create("quantum-annealer", context)

    def test_unknown_solver_at_engine_construction(self, table1_ensemble):
        with pytest.raises(UnknownSolverError):
            RecommendationEngine(table1_ensemble, 0.8, solver="nope")

    def test_invalid_options_fail_fast_at_construction(self, table1_ensemble):
        with pytest.raises(ValueError):
            RecommendationEngine(
                table1_ensemble,
                0.8,
                solver="adpar-weighted",
                solver_options={"weights": (-1.0, 1.0, 1.0)},
            )

    def test_duplicate_registration_rejected_unless_replace(self):
        registry = SolverRegistry()
        registry.register("custom", lambda ctx, opts: None, "first")
        with pytest.raises(ValueError):
            registry.register("custom", lambda ctx, opts: None, "second")
        registry.register("custom", lambda ctx, opts: None, "second", replace=True)
        assert registry.describe("custom") == "second"

    def test_describe_unknown_raises(self):
        with pytest.raises(UnknownSolverError):
            SolverRegistry().describe("ghost")

    def test_custom_backend_usable_by_engine(self, table1_ensemble):
        class EchoSolver:
            name = "echo"

            def __init__(self, context, options):
                self.space = context.space
                self._reference = ADPaRExact(
                    context.ensemble, context.availability, space=context.space
                )

            def solve(self, request, k=None):
                return self._reference.solve(request, k)

            def solve_batch(self, requests, k=None):
                return [self.solve(r, k) for r in requests]

        registry = SolverRegistry()
        registry.register("echo", EchoSolver)
        engine = RecommendationEngine(
            table1_ensemble, 0.8, solver="echo", solver_registry=registry
        )
        result = engine.recommend_alternative(HARD_REQUEST, 3)
        assert len(result.strategy_indices) == 3

    def test_options_key_canonicalizes(self):
        assert solver_options_key({"weights": [2, 1, 1], "norm": "l1"}) == (
            solver_options_key({"norm": "l1", "weights": (2, 1, 1)})
        )
        assert solver_options_key(None) == solver_options_key({})


class TestRelaxationSpace:
    def test_points_match_reference_construction(self, table1_ensemble):
        space = RelaxationSpace(table1_ensemble, 0.8)
        reference = ADPaRExact(table1_ensemble, availability=0.8)
        assert np.array_equal(space.points, reference._points)

    def test_sweep_values_match_numpy_unique(self, table1_ensemble):
        space = RelaxationSpace(table1_ensemble, 1.0)
        origin = space.origin_of(HARD_REQUEST)
        relax = space.relaxations(origin)
        sorted_x, unique_x = space.sweep_values(float(origin[0]))
        assert np.array_equal(sorted_x, np.sort(relax[:, 0]))
        assert np.array_equal(unique_x, np.unique(relax[:, 0]))

    def test_relaxation_batch_matches_scalar(self, table1_ensemble):
        space = RelaxationSpace(table1_ensemble, 1.0)
        origins = np.stack(
            [space.origin_of(HARD_REQUEST), space.origin_of(TriParams(0.5, 0.5, 0.5))]
        )
        batch = space.relaxation_batch(origins)
        for row, origin in zip(batch, origins):
            assert np.array_equal(row, space.relaxations(origin))

    def test_shared_across_backends_via_cache(self, engine):
        exact = engine._solver_for("adpar-exact")
        onedim = engine._solver_for("onedim")
        rtree = engine._solver_for("rtree")
        assert exact.space is onedim.space
        assert exact.space is rtree.space
        assert exact.space is engine.cache.relaxation_space(
            engine.ensemble, engine.availability
        )

    def test_mismatched_space_rejected(self, table1_ensemble):
        from repro.baselines.adpar_bruteforce import adpar_brute_force
        from repro.core.adpar_variants import weighted_adpar_brute_force

        space = RelaxationSpace(table1_ensemble, 0.5)
        with pytest.raises(ValueError):
            ADPaRExact(table1_ensemble, availability=0.8, space=space)
        with pytest.raises(ValueError):
            OneDimBaseline(table1_ensemble, availability=0.8, space=space)
        with pytest.raises(ValueError):
            adpar_brute_force(
                table1_ensemble, HARD_REQUEST, 3, availability=0.8, space=space
            )
        with pytest.raises(ValueError):
            weighted_adpar_brute_force(
                table1_ensemble, HARD_REQUEST, 3, availability=0.8, space=space
            )


class TestEngineSolverAPI:
    def test_all_backends_selectable_by_name(self, engine):
        distances = {
            name: engine.recommend_alternative(HARD_REQUEST, 3, solver=name).distance
            for name in ALL_BACKENDS
        }
        # Exact solvers agree; heuristics never beat them.
        assert distances["adpar-exact"] == pytest.approx(distances["bruteforce"])
        assert distances["adpar-exact"] == pytest.approx(distances["adpar-weighted"])
        assert distances["onedim"] >= distances["adpar-exact"] - 1e-12
        assert distances["rtree"] >= distances["adpar-exact"] - 1e-12

    def test_solver_options_reach_weighted_backend(self, table1_ensemble):
        heavy_cost = RecommendationEngine(
            table1_ensemble,
            0.8,
            solver="adpar-weighted",
            solver_options={"norm": "l1", "weights": (100.0, 1.0, 1.0)},
        )
        result = heavy_cost.recommend_alternative(HARD_REQUEST, 3)
        backend = heavy_cost._solver_for()
        assert backend.penalty.norm == "l1"
        assert backend.penalty.weights == (100.0, 1.0, 1.0)
        assert result.distance >= 0.0

    def test_cache_keys_include_solver(self, engine):
        engine.recommend_alternative(HARD_REQUEST, 3)
        misses = engine.stats.adpar_misses
        engine.recommend_alternative(HARD_REQUEST, 3, solver="onedim")
        assert engine.stats.adpar_misses == misses + 1  # distinct entry
        engine.recommend_alternative(HARD_REQUEST, 3, solver="onedim")
        assert engine.stats.adpar_misses == misses + 1  # now warm

    def test_batch_deduplicates_within_batch(self, engine):
        requests = [
            DeploymentRequest(f"d{i}", HARD_REQUEST, k=3) for i in range(4)
        ]
        results = engine.recommend_alternatives(requests)
        assert len(results) == 4
        assert all(r is results[0] for r in results)  # computed once

    def test_batch_k_override(self, engine):
        [one] = engine.recommend_alternatives([HARD_REQUEST], 2)
        assert len(one.strategy_indices) == 2

    def test_batch_requires_k_for_bare_params(self, engine):
        with pytest.raises(ValueError):
            engine.recommend_alternatives([HARD_REQUEST])

    def test_batch_infeasible_raises_like_scalar(self, engine):
        ok = DeploymentRequest("ok", HARD_REQUEST, k=3)
        impossible = DeploymentRequest("no", HARD_REQUEST, k=9)
        with pytest.raises(InfeasibleRequestError):
            engine.recommend_alternatives([ok, impossible])
        with pytest.raises(InfeasibleRequestError):
            engine.recommend_alternative(impossible)

    def test_resolve_infeasible_status_preserved(self, table1_ensemble):
        engine = RecommendationEngine(table1_ensemble, 0.8)
        report = engine.resolve(
            [DeploymentRequest("no", TriParams(0.9, 0.1, 0.1), k=9)]
        )
        assert report.resolutions[0].status.value == "infeasible"

    def test_backend_raising_mid_batch_does_not_abort_batchmates(
        self, table1_ensemble
    ):
        """A solve_batch that refuses one request degrades to per-request."""

        class PickyExact:
            name = "picky"

            def __init__(self, context, options):
                self.space = context.space
                self._reference = ADPaRExact(
                    context.ensemble, context.availability, space=context.space
                )

            def solve(self, request, k=None):
                if request.params.quality > 0.85:
                    raise InfeasibleRequestError("refused")
                return self._reference.solve(request, k)

            def solve_batch(self, requests, k=None):
                results = [self.solve(r, k) for r in requests]
                return results

        registry = SolverRegistry()
        registry.register("picky", PickyExact)
        engine = RecommendationEngine(
            table1_ensemble, 0.0, solver="picky", solver_registry=registry
        )
        report = engine.resolve(
            [
                DeploymentRequest("fine", TriParams(0.7, 0.1, 0.1), k=2),
                DeploymentRequest("refused", TriParams(0.9, 0.1, 0.1), k=2),
            ]
        )
        by_id = {r.request_id: r.status.value for r in report.resolutions}
        assert by_id == {"fine": "alternative", "refused": "infeasible"}

    def test_shared_cache_keeps_registries_apart(self, table1_ensemble):
        """Two engines, one cache, same backend name, different factories."""
        from repro.engine import EngineCache

        class ConstantSolver:
            name = "adpar-exact"  # shadows the builtin name on purpose

            def __init__(self, context, options):
                self.space = context.space
                self._reference = ADPaRExact(
                    context.ensemble, context.availability, space=context.space
                )

            def solve(self, request, k=None):
                result = self._reference.solve(request, k)
                return type(result)(
                    original=result.original,
                    alternative=result.alternative,
                    distance=123.0,
                    squared_distance=123.0**2,
                    relaxation=result.relaxation,
                    strategy_indices=result.strategy_indices,
                    strategy_names=result.strategy_names,
                )

            def solve_batch(self, requests, k=None):
                return [self.solve(r, k) for r in requests]

        custom = SolverRegistry()
        custom.register("adpar-exact", ConstantSolver)
        shared = EngineCache()
        stock = RecommendationEngine(table1_ensemble, 0.8, cache=shared)
        shadowed = RecommendationEngine(
            table1_ensemble, 0.8, cache=shared, solver_registry=custom
        )
        assert stock.recommend_alternative(HARD_REQUEST, 3).distance != 123.0
        assert shadowed.recommend_alternative(HARD_REQUEST, 3).distance == 123.0
        # And the other way round: the custom result must not leak back.
        assert stock.recommend_alternative(HARD_REQUEST, 3).distance != 123.0

    def test_resolve_solver_override(self, table1_ensemble):
        engine = RecommendationEngine(table1_ensemble, availability=0.0)
        request = DeploymentRequest("d", TriParams(0.9, 0.05, 0.05), k=3)
        exact = engine.resolve([request]).resolutions[0]
        onedim = engine.resolve([request], solver="onedim").resolutions[0]
        reference = OneDimBaseline(table1_ensemble, availability=0.0).solve(request)
        assert onedim.params == reference.alternative
        assert exact.distance <= onedim.distance + 1e-12


class TestSessionSolverRouting:
    @pytest.fixture
    def tiny_ensemble(self):
        alpha = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        beta = np.array([[0.9, 0.0, 0.2], [0.7, 0.1, 0.1]])
        return StrategyEnsemble.from_arrays(alpha, beta)

    def test_session_fallback_uses_configured_solver(self, tiny_ensemble):
        impossible = DeploymentRequest(
            "d", TriParams(0.95, 0.05, 0.05), k=2
        )  # quality demand above both strategies: workforce-infeasible
        engine = RecommendationEngine(tiny_ensemble, 1.0, solver="onedim")
        decision = engine.open_session().submit(impossible)
        assert decision.status is StreamStatus.ALTERNATIVE
        reference = OneDimBaseline(tiny_ensemble, availability=1.0).solve(impossible)
        assert decision.alternative.alternative == reference.alternative
        assert decision.alternative.distance == reference.distance


class TestSweepScratch:
    """The exact sweep's warm buffers are per thread, not per solver."""

    def test_aliases_share_one_solver_class(self):
        registry = default_solver_registry()
        context = SolverContext(
            StrategyEnsemble.from_params([TriParams(0.5, 0.5, 0.5)]), 1.0
        ).with_space()
        exact = registry.create("adpar-exact", context)
        alias = registry.create("adpar-incremental", context)
        assert type(exact) is type(alias)

    def test_retained_scratch_is_bounded_per_thread(self):
        import gc
        import threading

        from repro.engine import solvers
        from repro.workloads.generators import (
            generate_requests,
            generate_strategy_ensemble,
        )

        rng = np.random.default_rng(3)
        ensemble = generate_strategy_ensemble(2000, "uniform", rng)
        context = SolverContext(ensemble, 0.6).with_space()
        registry = default_solver_registry()
        backends = [
            registry.create(name, context)
            for name in ("adpar-exact", "adpar-incremental")
        ]
        requests = [r.params for r in generate_requests(128, k=3, seed=rng)]
        solved = threading.Barrier(3)
        release = threading.Barrier(3)
        held, errors = [], []

        def work():
            try:
                for backend in backends:
                    assert len(backend.solve_batch(requests, 3)) == 128
                held.append(solvers._thread_scratch())
            except Exception as exc:  # surfaced by the assertions below
                errors.append(exc)
            finally:
                solved.wait()
                release.wait()

        workers = [threading.Thread(target=work) for _ in range(2)]
        for worker in workers:
            worker.start()
        solved.wait()  # both workers have solved and are still alive
        scratches = [
            obj for obj in gc.get_objects() if isinstance(obj, solvers._SweepScratch)
        ]
        live_threads = threading.active_count()
        release.wait()
        for worker in workers:
            worker.join()
        assert not errors
        # One scratch per worker thread, whatever the solver instance.
        assert len(held) == 2 and held[0] is not held[1]
        assert all(any(s is h for s in scratches) for h in held)
        assert len(scratches) <= live_threads
        retained = sum(s.arena.nbytes for s in scratches)
        assert retained <= solvers._SCRATCH_BYTES * live_threads
        # The solver instances themselves keep no per-request buffers.
        for backend in backends:
            assert not any(
                isinstance(value, (np.ndarray, threading.local))
                for value in vars(backend).values()
            )
