"""ADPaR — Alternative Deployment Parameter Recommendation (§4).

Given a request ``d`` that cannot be satisfied, find the alternative
parameters ``d'`` minimizing the Euclidean distance ``‖d' − d‖₂`` such
that at least ``k`` strategies satisfy ``d'`` (Equation 3).

The treatment is geometric, in the unified smaller-is-better space of
§4.1 (cost, 1−quality, latency).  Step 1 computes per-dimension
*relaxations* — how much each bound must grow for each strategy (Table 3;
already-satisfied dimensions map to 0).  The key discretization insight
(Lemmas 1–2) is that an optimal ``d'`` relaxes every dimension either by 0
or exactly to some strategy's coordinate, so the continuous problem
reduces to sweeping strategy-induced candidate values.

``ADPaRExact`` sweeps candidate relaxations of the *cost* dimension in
increasing order (with the paper's early-exit bound — once the swept
dimension alone exceeds the best objective, the unscanned area of Figure 8
cannot win) and solves each induced 2-D subproblem with
:class:`~repro.geometry.sweepline.ParetoSweep`, which enumerates the
Pareto frontier of (quality, latency) completions covering ``k``
strategies.  The result is exact: property tests check it against the
exponential subset-enumeration baseline (ADPaRB).

This class is the reference implementation (and the only one exposing
:meth:`~ADPaRExact.trace`).  The public entry point for serving traffic
is the solver registry — :mod:`repro.engine.solvers` registers this
algorithm as ``adpar-exact`` (default) next to the weighted variant and
the §5.2.1 baselines, as an index-pruned sweep staged per block of
requests and pinned bitwise-identical to this class, and
:meth:`repro.engine.RecommendationEngine.recommend_alternative` /
:meth:`~repro.engine.RecommendationEngine.recommend_alternatives` route
through it with caching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.params import TriParams
from repro.core.relaxation import RelaxationSpace
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.exceptions import InfeasibleRequestError
from repro.geometry.sweepline import ParetoSweep, SweepEvent, build_relaxation_events

_EPS = 1e-12


def unpack_request(
    request: "DeploymentRequest | TriParams", k: "int | None", size: int
) -> tuple[TriParams, int]:
    """Normalize a solver argument to ``(params, k)`` with shared checks.

    Every ADPaR backend accepts either a :class:`DeploymentRequest`
    (which carries its own ``k``) or bare :class:`TriParams` plus an
    explicit ``k``; this is the one place the contract is enforced.
    """
    if isinstance(request, DeploymentRequest):
        params = request.params
        if k is None:
            k = request.k
    else:
        params = request
        if k is None:
            raise ValueError("k is required when passing bare TriParams")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > size:
        raise InfeasibleRequestError(
            f"cannot admit k={k} strategies: only {size} exist"
        )
    return params, int(k)


def finalize_result(
    ensemble: StrategyEnsemble,
    params: TriParams,
    relax: np.ndarray,
    best: tuple[float, float, float],
    k: int,
) -> ADPaRResult:
    """Turn a winning relaxation bound into an :class:`ADPaRResult`.

    Shared by the reference sweep and the vectorized registry backend so
    the two construct — float for float — the same result object.
    """
    x, y, z = best
    alternative = TriParams(
        quality=min(max(params.quality - y, 0.0), 1.0),
        cost=min(max(params.cost + x, 0.0), 1.0),
        latency=min(max(params.latency + z, 0.0), 1.0),
    )
    bound = np.array([x, y, z], dtype=float)
    covered = np.flatnonzero((relax <= bound[None, :] + 1e-9).all(axis=1))
    # Deterministically keep the k covered strategies closest to d'.
    norms = np.linalg.norm(relax[covered], axis=1)
    order = np.lexsort((covered, norms))
    chosen = tuple(int(i) for i in covered[order][:k])
    sq = float(x * x + y * y + z * z)
    return ADPaRResult(
        original=params,
        alternative=alternative,
        distance=math.sqrt(sq),
        squared_distance=sq,
        relaxation=(float(x), float(y), float(z)),
        strategy_indices=chosen,
        strategy_names=tuple(ensemble.names[i] for i in chosen),
    )


@dataclass(frozen=True)
class ADPaRResult:
    """Alternative parameters plus the k strategies they admit."""

    original: TriParams
    alternative: TriParams
    distance: float
    squared_distance: float
    relaxation: tuple[float, float, float]  # (ΔC, ΔQ', ΔL) in the unified space
    strategy_indices: tuple[int, ...]
    strategy_names: tuple[str, ...]

    @property
    def unchanged(self) -> bool:
        """True iff the original request already admitted k strategies."""
        return self.squared_distance <= 4 * _EPS


@dataclass(frozen=True)
class ADPaRTrace:
    """The intermediate structures of the paper's walk-through (Tables 2–5)."""

    relaxations: np.ndarray  # (n, 3) — Table 3, columns (C, Q', L)
    events: tuple[SweepEvent, ...]  # sorted R/I/D lists — Table 4
    sweep_orders: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]  # Table 5
    coverage_matrix: np.ndarray  # (n, 3) bool — Table 2 at the returned d'
    result: ADPaRResult


class ADPaRExact:
    """Exact solver for the ADPaR problem over a fixed strategy set.

    Parameters
    ----------
    ensemble:
        Candidate strategies.  Their parameters are estimated at
        ``availability`` (Equation 4); pass ensembles built with
        :meth:`StrategyEnsemble.from_params` for fixed parameter tables.
    availability:
        Expected workforce ``W`` used for parameter estimation.
    space:
        A prebuilt :class:`RelaxationSpace` for (ensemble, availability).
        Pass one to share the unified-space geometry with other backends
        (the engine cache does); a private space is built when omitted.
    """

    def __init__(
        self,
        ensemble: StrategyEnsemble,
        availability: float = 1.0,
        space: "RelaxationSpace | None" = None,
    ):
        self.ensemble = ensemble
        self.availability = float(availability)
        if space is None:
            space = RelaxationSpace(ensemble, self.availability)
        elif space.ensemble is not ensemble or space.availability != self.availability:
            raise ValueError("space was built for a different (ensemble, availability)")
        self.space = space
        # Unified smaller-is-better space, column order (C, Q', L).
        self._points = space.points

    @property
    def size(self) -> int:
        return self._points.shape[0]

    # ------------------------------------------------------------------ solve
    def solve(self, request: "DeploymentRequest | TriParams", k: "int | None" = None) -> ADPaRResult:
        """Minimal-distance alternative parameters admitting ``k`` strategies."""
        params, k = self._unpack(request, k)
        origin = self.space.origin_of(params)
        relax = self.space.relaxations(origin)
        best = self._sweep(relax, k)
        return self._build_result(params, origin, relax, best, k)

    def _unpack(
        self, request: "DeploymentRequest | TriParams", k: "int | None"
    ) -> tuple[TriParams, int]:
        return unpack_request(request, k, self.size)

    def _sweep(self, relax: np.ndarray, k: int) -> tuple[float, float, float]:
        """Core sweep: minimize ``X² + Y² + Z²`` s.t. k rows are covered."""
        best_obj = math.inf
        best: "tuple[float, float, float] | None" = None
        xs = np.unique(relax[:, 0])
        for x in xs:
            x = float(x)
            if x * x >= best_obj:
                break  # the paper's Figure-8 bound: nothing beyond can win
            mask = relax[:, 0] <= x + _EPS
            if int(mask.sum()) < k:
                continue
            sub = relax[mask]
            sweep = ParetoSweep(sub[:, 1], sub[:, 2])
            for y, z in sweep.frontier(k):
                obj = x * x + y * y + z * z
                if obj < best_obj:
                    best_obj = obj
                    best = (x, y, z)
        if best is None:
            # k <= n always admits covering everything; unreachable unless
            # numerics conspired.
            raise InfeasibleRequestError("sweep found no covering relaxation")
        return best

    def _build_result(
        self,
        params: TriParams,
        origin: np.ndarray,
        relax: np.ndarray,
        best: tuple[float, float, float],
        k: int,
    ) -> ADPaRResult:
        return finalize_result(self.ensemble, params, relax, best, k)

    # ------------------------------------------------------------------ trace
    def trace(self, request: "DeploymentRequest | TriParams", k: "int | None" = None) -> ADPaRTrace:
        """Solve while recording the paper's intermediate tables.

        ``relaxations`` is Table 3 (zero where no relaxation is needed);
        ``events`` is the merged sorted (R, I, D) list of Table 4;
        ``sweep_orders`` gives, per dimension, strategy indices in the
        order the three sweep-lines of Table 5 encounter them; and
        ``coverage_matrix`` is the final boolean matrix M of Table 2.
        """
        params, k = self._unpack(request, k)
        origin = self.space.origin_of(params)
        relax = self.space.relaxations(origin)
        best = self._sweep(relax, k)
        result = self._build_result(params, origin, relax, best, k)
        events = tuple(build_relaxation_events(relax))
        sweep_orders = tuple(
            tuple(int(i) for i in np.argsort(relax[:, dim], kind="stable"))
            for dim in range(3)
        )
        bound = np.array(result.relaxation, dtype=float)
        coverage = relax <= bound[None, :] + 1e-9
        return ADPaRTrace(
            relaxations=relax,
            events=events,
            sweep_orders=sweep_orders,  # type: ignore[arg-type]
            coverage_matrix=coverage,
            result=result,
        )
