"""Frozen copy of the retired vectorized ADPaR sweep — a bench denominator.

The production ``adpar-exact`` backend runs the indexed sweep
(:class:`repro.engine.solvers.IncrementalExactSolver`).  The vectorized
column sweep it replaced is kept here, unchanged, so benches that report
"indexed vs vectorized" ratios (``bench_adpar_incremental.py``,
``bench_adpar_crossover.py``) keep measuring against the same
denominator.  Nothing under ``src/`` imports this module.

The sweep evaluates the 2-D Pareto frontier only at candidates whose
entering strategies pierce the current (quality, latency) staircase and
stops at ``X² + G ≥ best`` for the unconstrained-cost 2-D optimum ``G``;
it is result-identical to :class:`repro.core.adpar.ADPaRExact`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.adpar import ADPaRResult, finalize_result, unpack_request
from repro.core.relaxation import RelaxationSpace
from repro.engine import SolverContext
from repro.exceptions import InfeasibleRequestError
from repro.geometry.sweepline import block_frontier

_EPS = 1e-12


def vectorized_sweep(
    space: RelaxationSpace, relax: np.ndarray, origin_x: float, k: int
) -> tuple[float, float, float]:
    """The winning relaxation ``(x, y, z)`` for one request."""
    _, xs = space.sweep_values(origin_x)
    yz_order = np.lexsort((relax[:, 2], relax[:, 1]))
    ys = relax[yz_order, 1]
    zs = relax[yz_order, 2]
    x_in_yz = relax[yz_order, 0]

    thresholds = xs + _EPS
    enter_at = np.searchsorted(thresholds, x_in_yz, side="left")
    enter_order = np.argsort(enter_at, kind="stable")
    enter_sorted = enter_at[enter_order]
    y_entering = ys[enter_order]
    z_entering = zs[enter_order]
    starts = np.searchsorted(enter_sorted, np.arange(xs.size + 1), side="left")

    G = min((y * y + z * z for y, z in block_frontier(ys, zs, k)), default=math.inf)

    best_obj = math.inf
    best: "tuple[float, float, float] | None" = None
    corners_y: "np.ndarray | None" = None
    corners_z: "np.ndarray | None" = None
    corners: list[tuple[float, float]] = []
    members = 0
    dirty = False
    for j in range(xs.size):
        x = float(xs[j])
        if x * x + G >= best_obj:
            break
        lo, hi = int(starts[j]), int(starts[j + 1])
        if hi > lo:
            members += hi - lo
            if not dirty:
                if corners_y is None:
                    dirty = members >= k
                else:
                    pos = (
                        np.searchsorted(corners_y, y_entering[lo:hi], side="right")
                        - 1
                    )
                    pierced = (pos < 0) | (
                        z_entering[lo:hi] < corners_z[np.maximum(pos, 0)]
                    )
                    dirty = bool(pierced.any())
        if members < k or not dirty:
            continue
        mask = enter_at <= j
        corners = list(block_frontier(ys[mask], zs[mask], k))
        corners_y = np.array([c[0] for c in corners])
        corners_z = np.array([c[1] for c in corners])
        dirty = False
        for y, z in corners:
            obj = x * x + y * y + z * z
            if obj < best_obj:
                best_obj = obj
                best = (x, y, z)
    if best is None:
        raise InfeasibleRequestError("sweep found no covering relaxation")
    return best


class VectorizedReferenceSolver:
    """The retired ``adpar-exact`` backend: per-request sweep + finalize."""

    name = "vectorized-reference"

    _CHUNK = 128

    def __init__(self, context: SolverContext, options: "dict | None" = None):
        context = context.with_space()
        self.ensemble = context.ensemble
        self.space = context.space

    def solve(self, request, k: "int | None" = None) -> ADPaRResult:
        return self.solve_batch([request], k)[0]

    def solve_batch(
        self, requests: Sequence, k: "int | None" = None
    ) -> list[ADPaRResult]:
        space = self.space
        unpacked = [unpack_request(r, k, space.size) for r in requests]
        results: list[ADPaRResult] = []
        for start in range(0, len(unpacked), self._CHUNK):
            part = unpacked[start : start + self._CHUNK]
            origins = np.stack([space.origin_of(params) for params, _ in part])
            relax_block = space.relaxation_batch(origins)
            for (params, kk), origin, relax in zip(part, origins, relax_block):
                best = vectorized_sweep(space, relax, float(origin[0]), kk)
                results.append(
                    finalize_result(self.ensemble, params, relax, best, kk)
                )
        return results
