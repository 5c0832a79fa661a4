"""Pluggable ADPaR solver backends for the recommendation engine.

A *solver* answers the other half of the engine's job — given a request
the planner could not satisfy, which alternative parameters ``d'`` to
recommend (§4) — behind a single protocol: ``solve(request, k) ->
ADPaRResult`` plus a batch form ``solve_batch(requests)``.  The registry
maps stable backend names to factories so callers (the engine, the CLI's
``--solver`` flag, the fig17/fig18 runners) can swap solvers without
rewiring, exactly parallel to :class:`~repro.engine.registry.PlannerRegistry`:

========================  ====================================================
``adpar-exact``           Exact sweep (Theorem 4), staged per block of
                          requests over the space's cached orders and
                          frontier, pinned bitwise-identical to
                          :class:`ADPaRExact` — the default.
``adpar-incremental``     Alias of ``adpar-exact`` (same class), kept for
                          specs and journals that name it.
``adpar-weighted``        Exact under a monotone penalty: ``norm`` ∈
                          {l1, l2, linf} and per-dimension ``weights``.
``onedim``                Baseline2 — one-parameter-at-a-time refinement
                          (Mishra et al.; §5.2.1).
``rtree``                 Baseline3 — R-tree MBB scan (§5.2.1).
``bruteforce``            ADPaRB — exhaustive k-subset enumeration
                          (exact, exponential).
========================  ====================================================

All of them share the context's :class:`~repro.core.relaxation.RelaxationSpace`,
so one engine comparing several backends over the same ensemble builds
the unified smaller-is-better geometry once.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from dataclasses import replace as _dataclass_replace
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.baselines.adpar_bruteforce import adpar_brute_force
from repro.baselines.adpar_onedim import OneDimBaseline
from repro.baselines.adpar_rtree import RTreeBaseline
from repro.core.adpar import ADPaRResult, unpack_request
from repro.core.adpar_variants import RelaxationPenalty, WeightedADPaR
from repro.core.params import TriParams
from repro.core.relaxation import RelaxationSpace
from repro.core.request import DeploymentRequest
from repro.core.strategy import StrategyEnsemble
from repro.exceptions import InfeasibleRequestError, UnknownSolverError
from repro.geometry.frontier_index import FrontierCursor

_EPS = 1e-12

#: Four rounding steps (two adds per corner objective, one add and one
#: minimum materialization in the admitted-norm floor) separate the
#: skip bound from the objectives it underestimates, so shrinking it by
#: four ulps makes "floor can't beat best" safe in float: a candidate is
#: only skipped when *no* corner objective can strictly improve.
_SKIP_MARGIN = 1.0 - 4.5e-16

#: One request as the solver protocol accepts it.
SolverRequest = "DeploymentRequest | TriParams"


@dataclass(frozen=True)
class SolverContext:
    """Everything a solver backend needs to instantiate itself."""

    ensemble: StrategyEnsemble
    availability: float
    space: "RelaxationSpace | None" = None

    def with_space(self) -> "SolverContext":
        """This context with a :class:`RelaxationSpace` guaranteed."""
        if self.space is not None:
            return self
        return _dataclass_replace(
            self, space=RelaxationSpace(self.ensemble, self.availability)
        )


class AdparSolver(Protocol):
    """The one seam every alternative-parameter solver sits behind."""

    name: str
    space: RelaxationSpace

    def solve(
        self, request: SolverRequest, k: "int | None" = None
    ) -> ADPaRResult:
        """Alternative parameters admitting ``k`` strategies."""
        ...

    def solve_batch(
        self, requests: Sequence[SolverRequest], k: "int | None" = None
    ) -> list[ADPaRResult]:
        """Solve many requests over the shared geometry in one call."""
        ...


SolverFactory = Callable[[SolverContext, dict], "AdparSolver"]


def solver_options_key(options: "dict | None") -> tuple:
    """Canonical hashable form of backend options, for cache keys.

    Sorted by key; list/tuple values (e.g. ``weights``) become tuples so
    ``{"norm": "l1", "weights": [2, 1, 1]}`` keys identically however the
    caller spelled it.
    """

    def freeze(value):
        if isinstance(value, (list, tuple)):
            return tuple(freeze(v) for v in value)
        if isinstance(value, dict):
            return tuple(sorted((k, freeze(v)) for k, v in value.items()))
        return value

    return tuple(sorted((k, freeze(v)) for k, v in (options or {}).items()))


# --------------------------------------------------------------------- exact
#: Byte budget of one thread's warm sweep buffers.  A block stages as
#: many requests as fit beside the per-request buffers (at least one),
#: so retained scratch is bounded per thread, whatever the batch size,
#: the catalog size or the number of cached solver instances.
_SCRATCH_BYTES = 8 << 20

#: Finalization preselects the covered rows whose squared norm is within
#: this factor of the k-th smallest, then ranks them by the exact
#: ``np.linalg.norm`` of :func:`~repro.core.adpar.finalize_result`.
#: Both keys are sums of the same three squares in some rounding order,
#: so they differ by a few ulps; the factor covers that many times
#: over, which keeps every row that could rank in the first k.
_KEY_MARGIN = 1.0 + 1e-12


#: Distinct y coordinates closer than this may collapse onto one
#: relaxation; see :func:`_y_ties_possible`.
_TIE_GAP = 1e-15


class _Planes:
    """Views into a scratch arena for one catalog size ``n``.

    Per block: ``relax`` holds the ``(3, rows, n)`` relaxations (Table
    3, one plane per dimension), ``work`` four float planes and
    ``flags`` four bool planes.  The rest are per-request buffers.
    """

    _FLOAT_PLANES = 7
    _BOOL_PLANES = 4
    _REQUEST_FLOATS = 2
    _REQUEST_INTS = 3

    def __init__(self, arena: np.ndarray, n: int, rows: int):
        self.n = n
        self.rows = rows
        offset = 0

        def carve(dtype, shape):
            nonlocal offset
            size = int(np.prod(shape)) * np.dtype(dtype).itemsize
            view = arena[offset : offset + size].view(dtype).reshape(shape)
            offset += size
            return view

        self.relax = carve(np.float64, (3, rows, n))
        self.work = carve(np.float64, (4, rows, n))
        self.cursor_y, self.cursor_z = carve(np.float64, (2, n))
        self.arange, self.order, self.position_of = carve(np.intp, (3, n))
        self.flags = carve(np.bool_, (4, rows, n))
        self.arange[:] = np.arange(n)
        self._blocks: "dict[int, _BlockViews]" = {}

    def block(self, m: int) -> "_BlockViews":
        """Named views for a block of ``m`` requests (block sizes repeat)."""
        views = self._blocks.get(m)
        if views is None:
            views = self._blocks[m] = _BlockViews(self, m)
        return views

    @classmethod
    def footprint(cls, n: int) -> "tuple[int, int]":
        """Bytes of the per-request buffers and of one block row."""
        intp = np.dtype(np.intp).itemsize
        request = n * (8 * cls._REQUEST_FLOATS + intp * cls._REQUEST_INTS)
        return request, n * (8 * cls._FLOAT_PLANES + cls._BOOL_PLANES)


class _BlockViews:
    """The first ``m`` rows of each plane, under the names the sweep uses.

    ``relax`` (3 planes) and ``sorted_x`` live through the sweep;
    ``zero_by_z`` feeds the enumeration order and ``y_sorted``/``tied``
    its tie check.  The finalization reuses ``work`` for the squared
    relaxations and their sum (``squares``/``key``) and ``flags`` for
    the per-dimension and joint covered masks (``below``/``covered``).
    """

    __slots__ = (
        "relax",
        "sorted_x",
        "y_sorted",
        "tied",
        "zero_by_z",
        "squares",
        "key",
        "below",
        "covered",
    )

    def __init__(self, planes: _Planes, m: int):
        self.relax = planes.relax[:, :m]
        work = planes.work[:, :m]
        flags = planes.flags[:, :m]
        self.sorted_x, self.y_sorted = work[0], work[1]
        self.tied, self.zero_by_z = flags[0], flags[1]
        self.squares, self.key = work[:3], work[3]
        self.below, self.covered = flags[:3], flags[3]


class _SweepScratch:
    """One thread's warm arena for the exact sweep.

    Every block stages the same large temporaries; at fig18 scale a
    fresh allocation is served by freshly mapped pages, and faulting
    those in costs more than the arithmetic that fills them.  One arena
    per thread keeps the pages warm across batches and solver instances
    (the engine cache shares solvers across the serve path's threads).
    A catalog so large that a single row overflows the budget gets a
    one-off arena that is not retained.
    """

    __slots__ = ("arena", "planes")

    def __init__(self):
        self.arena = np.empty(_SCRATCH_BYTES, dtype=np.uint8)
        self.planes: "_Planes | None" = None

    def planes_for(self, n: int) -> _Planes:
        if self.planes is not None and self.planes.n == n:
            return self.planes
        request, row = _Planes.footprint(n)
        rows = max(1, (_SCRATCH_BYTES - request) // row)
        need = request + rows * row
        if need > self.arena.nbytes:
            return _Planes(np.empty(need, dtype=np.uint8), n, rows)
        self.planes = _Planes(self.arena, n, rows)
        return self.planes


_THREAD = threading.local()


def _thread_scratch() -> _SweepScratch:
    scratch = getattr(_THREAD, "scratch", None)
    if scratch is None:
        scratch = _THREAD.scratch = _SweepScratch()
    return scratch


def _first_reaching(
    sorted_x: np.ndarray, target: float, key: Callable, guess: float
) -> int:
    """``bisect_left(sorted_x, target, key=key)`` for a nondecreasing key.

    ``guess`` approximates the answer's value; its run start is checked
    against both neighbours with the exact ``key``, and moved by a run
    at most twice before falling back to the plain binary search.  The
    returned index always satisfies ``key(sorted_x[r - 1]) < target <=
    key(sorted_x[r])``, which pins it to the bisection's answer.
    """
    n = sorted_x.size
    r = int(sorted_x.searchsorted(guess, side="left"))
    for _ in range(2):
        if r > 0 and key(sorted_x[r - 1]) >= target:
            r = int(sorted_x.searchsorted(sorted_x[r - 1], side="left"))
        elif r < n and key(sorted_x[r]) < target:
            r = int(sorted_x.searchsorted(sorted_x[r], side="right"))
        else:
            return r
    return bisect.bisect_left(sorted_x, target, key=key)


def _frontier_sweep(
    sorted_x: np.ndarray,
    relax_y: np.ndarray,
    relax_z: np.ndarray,
    x_order: np.ndarray,
    position_of: np.ndarray,
    cursor: FrontierCursor,
    k: int,
    G: float,
) -> tuple[float, float, float]:
    """The exact Theorem-4 sweep for one request.

    ``sorted_x`` is the request's cost relaxation column sorted
    ascending; its distinct values are the candidates, and candidate
    ``v`` admits the rows ``sorted_x <= v + eps`` — the first
    ``searchsorted(sorted_x, v + eps, "right")`` in x-rank order.
    ``relax_y``/``relax_z`` hold the relaxations by strategy, ``x_order``
    the strategies by x-rank, ``position_of`` each strategy's position
    in the cursor's (y, z) enumeration order, and ``G`` the
    unconstrained-cost optimum of ``Y² + Z²``.

    The optimum is the lexicographic minimum of ``(X² + Y² + Z², X, Y)``
    over (candidate, frontier point) pairs — the reference's
    strict-improvement scan order — which licenses these prunes:

    * **Global 2-D bound.**  ``G`` lower-bounds every candidate's 2-D
      completion, so the scan stops at ``X² + G ≥ best`` — earlier than
      the reference's ``X² ≥ best`` Figure-8 bound.
    * **Frontier-change jumps.**  If no strategy entering at a candidate
      pierces the current (quality, latency) staircase, the frontier is
      unchanged and every pair there is dominated by the same pair at a
      smaller ``X``.  A galloping vectorized scan over the entering
      points finds the next piercing row, so Python touches one
      iteration per frontier change instead of per candidate.
    * **Admitted-norm floor.**  Every staircase corner pairs a point's
      ``y`` with a ``k``-th smallest ``z`` at least that point's own, so
      ``X²`` plus the least admitted ``y² + z²`` bounds what an
      evaluation could produce; candidates whose floor (shrunk by
      :data:`_SKIP_MARGIN`) cannot beat the running best skip it.
    * **Incremental frontiers.**  The :class:`FrontierCursor` repairs
      the previous frontier with the newly admitted rows instead of
      rescanning every admitted row.

    Candidate positions, admission counts and the stop point are binary
    searches over ``sorted_x`` with the reference's float expressions
    (``v + eps``, ``v² + G``), and the entering points and their norms
    are gathered only as far as the scan reaches.  The gating and bound
    comparisons are the reference's over the same corner values, so the
    evaluated candidate set — and the winner — is identical.
    """

    def admits(v):
        return v + _EPS

    def bound(v):
        return v * v + G

    def entering(lo: int, hi: int) -> "tuple[np.ndarray, np.ndarray]":
        ranks = x_order[lo:hi]
        return relax_y.take(ranks), relax_z.take(ranks)

    best_obj = math.inf
    best: "tuple[float, float, float] | None" = None
    corners: "tuple[list[float], list[float]] | None" = None  # y ascending
    staircase: "tuple[np.ndarray, np.ndarray] | None" = None  # same, as arrays
    floor = math.inf  # least y² + z² over the first `floored` x-ranks
    floored = 0
    row = -1  # next entering row the pierce scan has not cleared yet
    admitted = 0  # ranks already handed to the cursor
    # The first candidate admitting k rows: the least v whose v + eps
    # reaches the k-th smallest cost relaxation.
    r = _first_reaching(sorted_x, sorted_x[k - 1], admits, sorted_x[k - 1])
    while True:
        x = float(sorted_x[r])
        if x * x + G >= best_obj:
            break
        p = int(sorted_x.searchsorted(x + _EPS, side="right"))
        if corners is not None and p > floored:
            entering_y, entering_z = entering(floored, p)
            norms = np.multiply(entering_y, entering_y, out=entering_y)
            norms += np.multiply(entering_z, entering_z, out=entering_z)
            floor = min(floor, float(norms.min()))
            floored = p
        if corners is None or (x * x + floor) * _SKIP_MARGIN < best_obj:
            new_positions = position_of.take(x_order[admitted:p])
            new_positions.sort()
            admitted = p
            corners = cursor.frontier(new_positions)
            staircase = None
            for y, z in zip(*corners):
                obj = x * x + y * y + z * z
                if obj < best_obj:
                    best_obj = obj
                    best = (x, y, z)
            row = p
        # else: skipped — the stale staircase (a pointwise upper envelope
        # of the true one) keeps the gating conservative, and the scan
        # resumes past the row that triggered this visit.
        #
        # x² + G is nondecreasing, so the candidates that could still
        # win end where it reaches the best; none past this one: done.
        following = int(sorted_x.searchsorted(x, side="right"))
        if following == sorted_x.size or bound(sorted_x[following]) >= best_obj:
            break
        stop = _first_reaching(
            sorted_x, best_obj, bound, math.sqrt(max(best_obj - G, 0.0))
        )
        row_stop = int(sorted_x.searchsorted(sorted_x[stop - 1] + _EPS, side="right"))
        if staircase is None:
            staircase = (np.array(corners[0]), np.array(corners[1]))
        corners_y, corners_z = staircase
        pierced_at = -1
        chunk = 64
        while row < row_stop:
            upto = min(row + chunk, row_stop)
            entering_y, entering_z = entering(row, upto)
            slot = corners_y.searchsorted(entering_y, side="right") - 1
            # take(mode="clip") maps slot -1 onto corner 0; the slot < 0
            # disjunct keeps those rows counted as piercing regardless.
            pierced = (slot < 0) | (
                entering_z < corners_z.take(slot, mode="clip")
            )
            hits = pierced.nonzero()[0]
            if hits.size:
                pierced_at = row + int(hits[0])
                break
            row = upto
            chunk = min(chunk * 2, 4096)
        if pierced_at < 0:
            break
        row = pierced_at + 1
        # Resume at the first candidate that admits the piercing row.
        target = sorted_x[pierced_at]
        r = _first_reaching(sorted_x, target, admits, target)
    if best is None:
        raise InfeasibleRequestError("sweep found no covering relaxation")
    return best


class IncrementalExactSolver:
    """``adpar-exact`` (and its alias ``adpar-incremental``).

    The exact Theorem-4 sweep over the space's cached structures,
    bitwise-identical (distance, alternative parameters, chosen strategy
    indices) to the reference :class:`~repro.core.adpar.ADPaRExact` —
    property-pinned for scalar, batch, and availability-tick traffic.
    Requests are solved in blocks: everything except the sweep loop is
    staged for the whole block at once, as ``(rows, n)`` planes in the
    thread's warm scratch:

    * per-dimension relaxations, one plane each (Table 3), and the
      sorted relaxed cost column — read off the space's presorted
      cost column, since subtraction and clipping keep its order;
    * the global 2-D bound ``G`` mapped from the space's cached per-``k``
      frontier (:meth:`~repro.geometry.frontier_index.FrontierIndex.global_bounds`);
    * the (y, z) enumeration order's ingredients — how many y
      relaxations are zero and which, in the space's z order — so each
      request's order is one compress and one copy, not a lexsort;
    * finalization: one covered mask from three column compares, then
      per request a partition to the k-th norm and a lexsort over only
      the rows at or below it.

    The space's structures are maintained across availability ticks by
    the delta chain (:meth:`~repro.core.relaxation.RelaxationSpace.shifted`)
    instead of being rebuilt.
    """

    name = "adpar-exact"

    def __init__(self, context: SolverContext, options: dict):
        context = context.with_space()
        self.ensemble = context.ensemble
        self.availability = context.availability
        self.space = context.space
        self._block = int(options.get("block", 2048))
        if self._block < 1:
            raise ValueError(f"block must be >= 1, got {self._block}")
        self._y_ties = _y_ties_possible(self.space.sorted_y)

    def solve(
        self, request: SolverRequest, k: "int | None" = None
    ) -> ADPaRResult:
        return self.solve_batch([request], k)[0]

    def solve_batch(
        self, requests: Sequence[SolverRequest], k: "int | None" = None
    ) -> list[ADPaRResult]:
        unpacked = [unpack_request(r, k, self.space.size) for r in requests]
        planes = _thread_scratch().planes_for(self.space.size)
        results: list[ADPaRResult] = []
        for start in range(0, len(unpacked), planes.rows):
            part = unpacked[start : start + planes.rows]
            results.extend(self._solve_block(part, planes))
        return results

    def _solve_block(
        self, part: "list[tuple[TriParams, int]]", planes: _Planes
    ) -> list[ADPaRResult]:
        space = self.space
        m = len(part)
        views = planes.block(m)
        ks = [kk for _, kk in part]
        origins = np.array(
            [(p.cost, 1.0 - p.quality, p.latency) for p, _ in part], dtype=float
        ).T
        orders = space.dimension_orders
        relax = views.relax
        np.subtract(space.points.T[:, None, :], origins[:, :, None], out=relax)
        np.maximum(relax, 0.0, out=relax)
        sorted_x = views.sorted_x
        np.subtract(space.sorted_x, origins[0, :, None], out=sorted_x)
        np.maximum(sorted_x, 0.0, out=sorted_x)

        # Global 2-D bound per request, from the cached per-k frontier.
        index = space.frontier_index
        distinct = set(ks)
        if len(distinct) == 1:
            G = index.global_bounds(ks[0], origins[1:])
        else:
            G = np.empty(m)
            for kk in distinct:
                rows = [i for i, v in enumerate(ks) if v == kk]
                G[rows] = index.global_bounds(kk, origins[1:, rows])

        # (y, z) enumeration order: relax_y = max(p_y − o_y, 0) is zero
        # exactly where p_y <= o_y and increasing in p_y elsewhere, so
        # along the y order the zeros come first and the positive rows
        # form a suffix already in (y, index) order; the zero rows go
        # first ordered by z, which relax_z preserves.
        ry, rz = relax[1], relax[2]
        y_order, z_order = orders[1], orders[2]
        zero_counts = space.sorted_y.searchsorted(origins[1], side="right")
        zero_by_z = views.zero_by_z
        np.less_equal(space.y_in_z_order, origins[1, :, None], out=zero_by_z)
        if self._y_ties:
            # Positive y relaxations that share one value (equal points,
            # or points closer than rounding) need a z re-order.
            y_sorted, tied = views.y_sorted, views.tied
            ry.take(y_order, axis=1, out=y_sorted, mode="clip")
            np.equal(y_sorted[:, 1:], y_sorted[:, :-1], out=tied[:, 1:])

        order = planes.order
        position_of = planes.position_of
        bests = []
        for i, kk in enumerate(ks):
            c = int(zero_counts[i])
            z_order.compress(zero_by_z[i], out=order[:c])
            order[c:] = y_order[c:]
            if self._y_ties:
                collapsed = tied[i, c + 1 :].nonzero()[0]
                if collapsed.size:
                    _sort_ties_by_z(order[c:], collapsed, rz[i])
            cursor = FrontierCursor(
                ry[i].take(order, out=planes.cursor_y, mode="clip"),
                rz[i].take(order, out=planes.cursor_z, mode="clip"),
                kk,
                chunk=self._block,
            )
            position_of[order] = planes.arange
            bests.append(
                _frontier_sweep(
                    sorted_x[i],
                    ry[i],
                    rz[i],
                    orders[0],
                    position_of,
                    cursor,
                    kk,
                    float(G[i]),
                )
            )
        return self._finalize_block(part, bests, views)

    def _finalize_block(
        self,
        part: "list[tuple[TriParams, int]]",
        bests: "list[tuple[float, float, float]]",
        views: _BlockViews,
    ) -> list[ADPaRResult]:
        """:func:`~repro.core.adpar.finalize_result` for a block, field for field.

        The covered mask is the reference's ``relax <= bound + 1e-9``
        test, one compare per dimension plane.  Of the covered rows only
        those whose squared norm is within :data:`_KEY_MARGIN` of the
        k-th smallest can rank in the first ``k``; they alone are normed
        and lexsorted by ``(norm, index)``, as the reference ranks all.
        """
        relax = views.relax
        limits = np.array([(x + 1e-9, y + 1e-9, z + 1e-9) for x, y, z in bests])
        np.less_equal(relax, limits.T[:, :, None], out=views.below)
        covered = np.logical_and.reduce(views.below, axis=0, out=views.covered)
        np.multiply(relax, relax, out=views.squares)
        key = np.add.reduce(views.squares, axis=0, out=views.key)

        names = self.ensemble.names
        results = []
        for i, ((params, kk), (x, y, z)) in enumerate(zip(part, bests)):
            rows = covered[i].nonzero()[0]
            if rows.size > kk:
                keys = key[i].take(rows)
                kth = np.partition(keys, kk - 1)[kk - 1]
                rows = rows.compress(keys <= kth * _KEY_MARGIN)
            norms = np.linalg.norm(relax[:, i][:, rows].T.copy(), axis=1)
            chosen = tuple(rows.take(np.lexsort((rows, norms))[:kk]).tolist())
            sq = float(x * x + y * y + z * z)
            results.append(
                ADPaRResult(
                    original=params,
                    alternative=TriParams(
                        quality=min(max(params.quality - y, 0.0), 1.0),
                        cost=min(max(params.cost + x, 0.0), 1.0),
                        latency=min(max(params.latency + z, 0.0), 1.0),
                    ),
                    distance=math.sqrt(sq),
                    squared_distance=sq,
                    relaxation=(float(x), float(y), float(z)),
                    strategy_indices=chosen,
                    strategy_names=tuple(names[j] for j in chosen),
                )
            )
        return results


def _y_ties_possible(sorted_y: np.ndarray) -> bool:
    """Whether two strategies can share a positive y relaxation.

    Equal points do.  Distinct points ``a < b`` collapse only if
    ``b − o`` and ``a − o`` round to one float; relaxations are at most
    1, so that needs ``b − a`` within one ulp of 1 (2⁻⁵²).  A catalog
    whose distinct y values are all further apart than :data:`_TIE_GAP`
    never needs the tie re-order.
    """
    return sorted_y.size > 1 and float(np.diff(sorted_y).min()) <= _TIE_GAP


def _sort_ties_by_z(
    positive: np.ndarray, collapsed: np.ndarray, relax_z: np.ndarray
) -> None:
    """Re-order runs of equal positive y relaxations by z, in place.

    ``collapsed[s]`` marks ``positive[s]`` and ``positive[s + 1]`` as
    holding one y relaxation.  Ties in ``(relax_y, relax_z)`` are
    value-identical rows, so their internal order cannot change any
    frontier yield.
    """
    cursor = 0
    while cursor < collapsed.size:
        start = int(collapsed[cursor])
        end = start + 1
        cursor += 1
        while cursor < collapsed.size and int(collapsed[cursor]) == end:
            end += 1
            cursor += 1
        group = positive[start : end + 1]
        positive[start : end + 1] = group[np.argsort(relax_z[group], kind="stable")]


# ------------------------------------------------------------------ wrappers
class _ScalarLoopMixin:
    """Batch form for backends whose algorithm is inherently per-request."""

    def solve_batch(
        self, requests: Sequence[SolverRequest], k: "int | None" = None
    ) -> list[ADPaRResult]:
        return [self.solve(request, k) for request in requests]


class WeightedSolver(_ScalarLoopMixin):
    """``adpar-weighted``: exact under ``norm``/``weights`` options."""

    name = "adpar-weighted"

    def __init__(self, context: SolverContext, options: dict):
        context = context.with_space()
        self.space = context.space
        weights = options.get("weights", (1.0, 1.0, 1.0))
        penalty = RelaxationPenalty(
            weights=tuple(float(w) for w in weights),
            norm=str(options.get("norm", "l2")),
        )
        self.penalty = penalty
        self._solver = WeightedADPaR(
            context.ensemble,
            penalty,
            availability=context.availability,
            space=context.space,
        )

    def solve(
        self, request: SolverRequest, k: "int | None" = None
    ) -> ADPaRResult:
        return self._solver.solve(request, k)


class OneDimSolver(_ScalarLoopMixin):
    """``onedim``: Baseline2, one-parameter-at-a-time refinement."""

    name = "onedim"

    def __init__(self, context: SolverContext, options: dict):
        context = context.with_space()
        self.space = context.space
        self._solver = OneDimBaseline(
            context.ensemble, context.availability, space=context.space
        )

    def solve(
        self, request: SolverRequest, k: "int | None" = None
    ) -> ADPaRResult:
        return self._solver.solve(request, k)


class RTreeSolver(_ScalarLoopMixin):
    """``rtree``: Baseline3, R-tree MBB scan (bulk-loaded once)."""

    name = "rtree"

    def __init__(self, context: SolverContext, options: dict):
        context = context.with_space()
        self.space = context.space
        self._solver = RTreeBaseline(
            context.ensemble,
            context.availability,
            max_entries=int(options.get("max_entries", 8)),
            space=context.space,
        )

    def solve(
        self, request: SolverRequest, k: "int | None" = None
    ) -> ADPaRResult:
        return self._solver.solve(request, k)


class BruteForceSolver(_ScalarLoopMixin):
    """``bruteforce``: ADPaRB subset enumeration (exact, exponential)."""

    name = "bruteforce"

    def __init__(self, context: SolverContext, options: dict):
        context = context.with_space()
        self.ensemble = context.ensemble
        self.availability = context.availability
        self.space = context.space

    def solve(
        self, request: SolverRequest, k: "int | None" = None
    ) -> ADPaRResult:
        return adpar_brute_force(
            self.ensemble,
            request,
            k,
            availability=self.availability,
            space=self.space,
        )


# ------------------------------------------------------------------ registry
class SolverRegistry:
    """Name → solver-factory mapping with typed error handling."""

    def __init__(self):
        self._factories: "dict[str, SolverFactory]" = {}
        self._descriptions: dict[str, str] = {}

    def register(
        self,
        name: str,
        factory: SolverFactory,
        description: str = "",
        replace: bool = False,
    ) -> None:
        """Register a backend; re-registering a name requires ``replace``."""
        if not name:
            raise ValueError("solver name must be non-empty")
        if name in self._factories and not replace:
            raise ValueError(f"solver {name!r} is already registered")
        self._factories[name] = factory
        self._descriptions[name] = description

    def names(self) -> list[str]:
        """Registered backend names, sorted."""
        return sorted(self._factories)

    def describe(self, name: str) -> str:
        if name not in self._factories:
            raise UnknownSolverError(name)
        return self._descriptions.get(name, "")

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def create(
        self,
        name: str,
        context: SolverContext,
        options: "dict | None" = None,
    ) -> AdparSolver:
        """Instantiate a backend for one estimation context."""
        try:
            factory = self._factories[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            raise UnknownSolverError(
                f"unknown solver backend {name!r}; registered: {known}"
            ) from None
        return factory(context.with_space(), dict(options or {}))


def _builtin_registry() -> SolverRegistry:
    registry = SolverRegistry()
    registry.register(
        "adpar-exact",
        IncrementalExactSolver,
        "exact sweep (Theorem 4), block-staged and index-pruned; the default",
    )
    registry.register(
        "adpar-incremental",
        IncrementalExactSolver,
        "alias of adpar-exact, kept for specs that name it",
    )
    registry.register(
        "adpar-weighted",
        WeightedSolver,
        "exact under per-dimension weights and an l1/l2/linf norm",
    )
    registry.register(
        "onedim",
        OneDimSolver,
        "Baseline2: one-parameter-at-a-time refinement (§5.2.1)",
    )
    registry.register(
        "rtree",
        RTreeSolver,
        "Baseline3: R-tree MBB scan (§5.2.1)",
    )
    registry.register(
        "bruteforce",
        BruteForceSolver,
        "ADPaRB: exhaustive k-subset enumeration; exact, exponential",
    )
    return registry


_DEFAULT_REGISTRY = _builtin_registry()


def default_solver_registry() -> SolverRegistry:
    """The process-wide registry with the built-in backends."""
    return _DEFAULT_REGISTRY
