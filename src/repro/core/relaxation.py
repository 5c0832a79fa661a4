"""Shared relaxation geometry for the ADPaR solver subsystem.

Every ADPaR backend — the exact sweep, the weighted/norm variants, and
the three §5.2.1 baselines — works in the same unified smaller-is-better
space of §4.1: strategies become points ``(C, Q', L) = (cost, 1−quality,
latency)`` and a request becomes an origin whose per-dimension
*relaxations* (Table 3) say how far each bound must grow to admit each
strategy.  The seed re-derived that space inside every solver class; a
:class:`RelaxationSpace` is instead built **once per (ensemble,
availability)** — by :meth:`repro.engine.EngineCache.relaxation_space`
when traffic flows through the engine — and handed to every backend, so
five solvers over the same ensemble pay for parameter estimation and the
per-dimension sweep orders exactly once.

Everything here is read-only after construction; backends never mutate a
space, which is what makes it safe to share across solver instances and
engine caches.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.params import TriParams
from repro.core.strategy import StrategyEnsemble
from repro.geometry.frontier_index import (
    _REPAIR_FRACTION,
    FrontierIndex,
    merge_into_sorted,
)

#: (matrix column, points column, flip) triples mapping the estimated
#: (quality, cost, latency) matrix into unified (C, Q', L) point columns.
_COLUMN_MAP = ((0, 1, True), (1, 0, False), (2, 2, False))


def _availability_rows(ensemble: StrategyEnsemble) -> "tuple[np.ndarray, ...]":
    """Per matrix column, the row indices whose estimate depends on ``W``.

    Rows with a zero slope estimate to ``clip(0·W + β)`` for every
    ``W >= 0`` — bitwise the same float — so a shifted space only
    re-evaluates the nonzero-slope rows.  Memoized on the ensemble like
    its content fingerprint.
    """
    cached = getattr(ensemble, "_availability_rows", None)
    if cached is not None:
        return cached
    rows = tuple(
        np.flatnonzero(ensemble.alpha[:, column] != 0.0) for column in range(3)
    )
    ensemble._availability_rows = rows
    return rows


def _delta_skeletons(ensemble: StrategyEnsemble) -> "tuple[tuple, ...]":
    """Per points column: ``(kept_order, kept_sorted_values, mover_rows,
    mover_alpha, mover_beta)``.

    The *kept* rows — zero slope in the column's estimate — hold values
    that never depend on ``W`` (``clip(0·W + β)`` is the same float for
    every finite ``W >= 0``; the leading ``0.0 +`` reproduces the full
    path's ``−0.0`` normalization bitwise).  Their sorted order is
    therefore a per-ensemble constant: memoizing it turns every sparse
    availability tick into an ``O(m log m)`` sort of the ``m`` mover
    rows plus one sequential merge against this skeleton, with no
    ``O(n)`` work at all.  The movers' model coefficients ride along as
    contiguous copies so a tick's re-estimation skips the strided
    column gathers too.
    """
    cached = getattr(ensemble, "_delta_skeletons", None)
    if cached is not None:
        return cached
    total = ensemble.alpha.shape[0]
    avail = _availability_rows(ensemble)
    slots: "list[tuple | None]" = [None] * 3
    for matrix_col, points_col, flip in _COLUMN_MAP:
        movers = avail[matrix_col]
        keep = np.ones(total, dtype=bool)
        keep[movers] = False
        kept = np.flatnonzero(keep)
        estimated = np.clip(0.0 + ensemble.beta[kept, matrix_col], 0.0, 1.0)
        values = (1.0 - estimated) if flip else estimated
        by_value = np.argsort(values, kind="stable")
        slots[points_col] = (
            kept[by_value],
            values[by_value],
            movers,
            np.ascontiguousarray(ensemble.alpha[movers, matrix_col]),
            np.ascontiguousarray(ensemble.beta[movers, matrix_col]),
        )
    skeletons = tuple(slots)
    ensemble._delta_skeletons = skeletons
    return skeletons


class BufferPool:
    """Recycled array buffers for the availability-tick chain.

    Profiling the delta path shows a tick's dominant cost is not
    arithmetic but faulting in fresh pages for each derived space's
    large arrays (the points copy, the order matrix, the sorted
    columns): the ~1 MB working set costs several times more to fault
    in cold than to write warm.  Recycling the buffers of retired
    spaces keeps every per-tick write on already-mapped memory.  The
    pool is a plain free-list keyed by ``(shape, dtype)``; :meth:`take`
    falls back to a fresh allocation on miss, so a pool is always
    optional and never changes results — only where the bytes land.
    """

    def __init__(self, max_per_key: int = 8):
        self.max_per_key = int(max_per_key)
        self._free: "dict[tuple, list[np.ndarray]]" = {}
        #: Buffers served warm vs freshly allocated — exported through
        #: the engine cache's occupancy stats so the reuse rate of the
        #: streaming path is observable.
        self.reused = 0
        self.allocated = 0

    @staticmethod
    def _key(shape, dtype) -> tuple:
        return (tuple(shape), np.dtype(dtype).str)

    def take(self, shape, dtype) -> np.ndarray:
        """A writable buffer of exactly ``(shape, dtype)``, warm if possible."""
        stack = self._free.get(self._key(shape, dtype))
        if stack:
            self.reused += 1
            return stack.pop()
        self.allocated += 1
        return np.empty(shape, dtype=dtype)

    def give(self, array: "np.ndarray | None") -> None:
        """Return a buffer nobody references anymore to the free-list."""
        if array is None or not array.flags.owndata:
            return
        stack = self._free.setdefault(self._key(array.shape, array.dtype), [])
        if len(stack) < self.max_per_key:
            stack.append(array)


def reclaim_space(space: "RelaxationSpace", pool: BufferPool) -> int:
    """Strip a retired space's large buffers into ``pool``; returns count.

    The caller must hold the *only* reference to ``space`` (e.g. a chain
    head it just replaced and is about to drop) — the space object is
    destructively emptied.  Buffers the space still shares with a
    derived space (structure sharing aliases orders, sorted columns and
    the frontier index across a no-move tick) are detected by reference
    count and left untouched, so reclamation can never pull memory out
    from under a live space.
    """
    points = space.points
    space.points = None
    orders = space._orders
    space._orders = None
    sval0, sval1, sval2 = space._svals
    space._svals = [None, None, None]
    y_in_z_order = space._y_in_z_order
    space._y_in_z_order = None
    index = space._frontier_index
    space._frontier_index = None
    zs = None
    if index is not None and sys.getrefcount(index) == 2:
        # Only the local binding and the getrefcount argument see the
        # index: it is not shared with a derived space, so its gathered
        # z column (and its alias of the sorted y column) can go too.
        zs = index._zs
        index._zs = None
        index._ys = None
    del index
    buffers = (points, orders, sval0, sval1, sval2, y_in_z_order, zs)
    del points, orders, sval0, sval1, sval2, y_in_z_order, zs
    reclaimed = 0
    for array in buffers:
        # Three references when unshared: the tuple slot, the loop
        # binding, and the getrefcount argument.  Anything higher means
        # a derived space (or an external caller) still reads it.
        if (
            array is not None
            and array.flags.owndata
            and sys.getrefcount(array) == 3
        ):
            pool.give(array)
            reclaimed += 1
    return reclaimed


def _gather_column(
    points: np.ndarray,
    column: int,
    indices: np.ndarray,
    pool: "BufferPool | None",
) -> np.ndarray:
    """``points[indices, column]`` for a full permutation, pool-aware.

    Fancy indexing allocates a fresh result (cold pages every tick);
    with a pool the column is staged contiguously and gathered with
    ``np.take(..., out=...)`` so both passes land on warm buffers.
    """
    if pool is None:
        return points[indices, column]
    n = points.shape[0]
    scratch = pool.take((n,), points.dtype)
    np.copyto(scratch, points[:, column])
    out = pool.take((n,), points.dtype)
    np.take(scratch, indices, out=out)
    pool.give(scratch)
    return out


class RelaxationSpace:
    """Precomputed unified-space geometry shared by every ADPaR backend.

    Parameters
    ----------
    ensemble:
        Candidate strategies; parameters are estimated at ``availability``
        (Equation 4).
    availability:
        Expected workforce ``W`` used for the estimation.

    Attributes
    ----------
    points:
        ``(n, 3)`` unified smaller-is-better matrix in column order
        ``(C, Q', L)`` — the single source every backend reads.
    """

    def __init__(self, ensemble: StrategyEnsemble, availability: float = 1.0):
        self.ensemble = ensemble
        self.availability = float(availability)
        matrix = ensemble.estimate_matrix(self.availability)  # (n, 3) q/c/l
        self.points = np.column_stack(
            [matrix[:, 1], 1.0 - matrix[:, 0], matrix[:, 2]]
        )
        # Sorted per-dimension structures are derived lazily: scalar
        # callers that never sweep (e.g. the R-tree baseline) skip them.
        self._orders: "np.ndarray | None" = None
        self._svals: "list[np.ndarray | None]" = [None, None, None]
        self._y_in_z_order: "np.ndarray | None" = None
        self._frontier_index: "FrontierIndex | None" = None
        # Last tick's per-dimension mover sort (order, sorted rows) —
        # revalidated and reused by :meth:`shifted`.
        self._mover_orders: "list | None" = None

    @property
    def size(self) -> int:
        """Number of strategies (points) in the space."""
        return self.points.shape[0]

    @property
    def dimension_orders(self) -> np.ndarray:
        """``(3, n)`` stable per-dimension sweep orders (the paper's
        Table 5 sweep-lines, one argsort per unified-space dimension)."""
        if self._orders is None:
            self._orders = np.vstack(
                [np.argsort(self.points[:, d], kind="stable") for d in range(3)]
            )
        return self._orders

    def _sorted_values(self, dimension: int) -> np.ndarray:
        """The ``dimension`` column of :attr:`points`, sorted ascending.

        Cached per dimension; :meth:`shifted` merges the cache forward
        so a tick never re-gathers an unchanged column.
        """
        if self._svals[dimension] is None:
            self._svals[dimension] = self.points[
                self.dimension_orders[dimension], dimension
            ]
        return self._svals[dimension]

    @property
    def sorted_x(self) -> np.ndarray:
        """The cost column of :attr:`points`, sorted ascending."""
        return self._sorted_values(0)

    @property
    def sorted_y(self) -> np.ndarray:
        """The quality column of :attr:`points`, sorted ascending."""
        return self._sorted_values(1)

    @property
    def y_in_z_order(self) -> np.ndarray:
        """The y column of :attr:`points`, listed in the z-sorted order."""
        if self._y_in_z_order is None:
            self._y_in_z_order = self.points[self.dimension_orders[2], 1]
        return self._y_in_z_order

    @property
    def frontier_index(self) -> FrontierIndex:
        """Block-summary index over the ``y``-sorted ``(y, z)`` point set.

        Enumerates along :attr:`dimension_orders` dimension 1 — any
        ``y``-ascending order gives the same value-level frontier
        minima, which is all the sweep's 2-D lower bound reads — so the
        index shares the sweep orders instead of keeping a separate
        lexsort.  Built once per space (lazily) and *repaired* — not
        rebuilt — when the space is :meth:`shifted` to a nearby
        availability.  The incremental ADPaR backend reads its cached
        per-``k`` global frontier as the sweep's 2-D lower bound.
        """
        if self._frontier_index is None:
            order = self.dimension_orders[1]
            self._frontier_index = FrontierIndex(
                self._sorted_values(1),
                self.points[order, 2],
            )
        return self._frontier_index

    # ---------------------------------------------------------- delta chain
    def shifted(
        self, availability: float, pool: "BufferPool | None" = None
    ) -> "RelaxationSpace":
        """A new space at ``availability``, derived from this one.

        Bitwise-identical ``points`` to ``RelaxationSpace(ensemble,
        availability)`` — only the rows whose linear models actually
        depend on ``W`` are re-estimated (the same clip/flip float
        expressions as the full build; zero-slope rows are
        ``W``-invariant by IEEE arithmetic) — but the per-dimension sort
        orders and the frontier index are *repaired* from this space's
        instead of re-derived, which is what makes one availability tick
        O(changed + movers·log movers) instead of O(n log n).  Lazy
        structures this space never materialized stay lazy in the
        derived space.

        ``pool`` (optional) supplies recycled buffers for the derived
        arrays — see :class:`BufferPool`; results are identical with or
        without one.
        """
        availability = float(availability)
        derived = RelaxationSpace.__new__(RelaxationSpace)
        derived.ensemble = self.ensemble
        derived.availability = availability
        if pool is None:
            points = self.points.copy()
        else:
            points = pool.take(self.points.shape, self.points.dtype)
            np.copyto(points, self.points)
        changed_rows = _availability_rows(self.ensemble)
        skeletons = (
            _delta_skeletons(self.ensemble)
            if any(rows.size for rows in changed_rows)
            else None
        )
        # Rows whose value in each *points* column actually moved — clip
        # saturation routinely leaves re-estimated rows bitwise in place,
        # and an unmoved column keeps its parent's order (and, for the
        # (y, z) columns, the parent's frontier index) by reference.
        moved: "list[np.ndarray]" = [
            np.empty(0, dtype=np.intp) for _ in range(3)
        ]
        mover_values: "list[np.ndarray | None]" = [None, None, None]
        for matrix_col, points_col, flip in _COLUMN_MAP:
            rows = changed_rows[matrix_col]
            if rows.size == 0:
                continue
            # The skeleton's contiguous coefficient copies hold exactly
            # alpha[rows, matrix_col] / beta[rows, matrix_col], so the
            # estimate is float-for-float the full build's.
            mover_alpha, mover_beta = skeletons[points_col][3:5]
            estimated = np.clip(
                mover_alpha * availability + mover_beta, 0.0, 1.0
            )
            values = (1.0 - estimated) if flip else estimated
            moved[points_col] = rows[points[rows, points_col] != values]
            points[rows, points_col] = values
            mover_values[points_col] = values
        derived.points = points
        derived._svals = [None, None, None]
        derived._y_in_z_order = None
        derived._frontier_index = None
        derived._mover_orders = None
        if self._orders is None:
            derived._orders = None
            return derived
        if all(m.size == 0 for m in moved):
            # Every re-estimated value clipped back onto itself: all
            # derived structures — cached per-k global frontiers
            # included — are bitwise the parent's, so share them.
            derived._orders = self._orders
            derived._svals = list(self._svals)
            derived._y_in_z_order = self._y_in_z_order
            derived._frontier_index = self._frontier_index
            derived._mover_orders = self._mover_orders
            return derived
        total = points.shape[0]
        orders = (
            pool.take(self._orders.shape, self._orders.dtype)
            if pool is not None
            else np.empty_like(self._orders)
        )
        hints = self._mover_orders
        derived._mover_orders = new_hints = [None, None, None]
        for d in range(3):
            if moved[d].size == 0:
                orders[d] = self._orders[d]
                derived._svals[d] = self._svals[d]
                if hints is not None:
                    new_hints[d] = hints[d]
                continue
            kept, kept_values, mover_rows = skeletons[d][:3]
            mv = mover_values[d]
            if mover_rows.size <= total * _REPAIR_FRACTION:
                # Sparse tick: merge the availability-dependent rows
                # into the W-invariant skeleton — O(m log m), no O(n)
                # pass anywhere beyond the sequential scatter.  The
                # previous tick's mover order is revalidated first: a
                # small availability step rarely reorders the movers,
                # so the O(m log m) argsort usually collapses into an
                # O(m) sortedness check (tie order is unspecified
                # either way).
                sorted_rows = sorted_mv = None
                hint = hints[d] if hints is not None else None
                if hint is not None:
                    candidate = mv[hint[0]]
                    if candidate.size < 2 or not np.any(
                        candidate[1:] < candidate[:-1]
                    ):
                        sorted_rows = hint[1]
                        sorted_mv = candidate
                        new_hints[d] = hint
                if sorted_rows is None:
                    by_value = np.argsort(mv, kind="stable")
                    sorted_rows = mover_rows[by_value]
                    sorted_mv = mv[by_value]
                    new_hints[d] = (by_value, sorted_rows)
                out_values = (
                    pool.take((total,), points.dtype) if pool is not None else None
                )
                _, new_sorted = merge_into_sorted(
                    kept,
                    kept_values,
                    sorted_rows,
                    sorted_mv,
                    out_order=orders[d],
                    out_values=out_values,
                    assume_sorted=True,
                )
            else:
                # Dense tick: a stable sort of the *near-sorted*
                # permuted column lets mergesort ride the long runs the
                # parent's order still has.
                permuted = _gather_column(points, d, self._orders[d], pool)
                perm = np.argsort(permuted, kind="stable")
                np.take(self._orders[d], perm, out=orders[d])
                if pool is None:
                    new_sorted = permuted[perm]
                else:
                    new_sorted = pool.take((total,), points.dtype)
                    np.take(permuted, perm, out=new_sorted)
                    pool.give(permuted)
            derived._svals[d] = new_sorted
        derived._orders = orders
        if moved[1].size == 0 and moved[2].size == 0:
            # The y values and the z order are the parent's, so the y
            # column in z order carries over untouched.
            derived._y_in_z_order = self._y_in_z_order
        if self._frontier_index is not None:
            derived._frontier_index = FrontierIndex(
                derived._sorted_values(1),
                _gather_column(points, 2, orders[1], pool),
            )
        return derived

    # -------------------------------------------------------------- requests
    @staticmethod
    def origin_of(params: TriParams) -> np.ndarray:
        """A request's anchor in the unified space, order ``(C, Q', L)``."""
        return np.array(
            [params.cost, 1.0 - params.quality, params.latency], dtype=float
        )

    def relaxations(self, origin: np.ndarray) -> np.ndarray:
        """Step 1 (Table 3): clipped per-dimension relaxations, ``(n, 3)``."""
        return np.maximum(self.points - origin[None, :], 0.0)

    def relaxation_batch(
        self, origins: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Relaxation matrices for a block of requests at once.

        ``origins`` has shape ``(r, 3)``; the result has shape
        ``(r, n, 3)`` and row ``i`` equals ``relaxations(origins[i])``
        value for value — one broadcasted pass instead of ``r`` scalar
        ones.  ``out``, when given, receives the result in place — the
        batch solvers recycle one warm buffer across calls because
        faulting in ~10MB of fresh pages per block costs more than the
        arithmetic.
        """
        diff = np.subtract(self.points[None, :, :], origins[:, None, :], out=out)
        return np.maximum(diff, 0.0, out=diff)

    def sweep_values(self, origin_x: float) -> tuple[np.ndarray, np.ndarray]:
        """Sorted relaxed cost column and its unique candidate values.

        Equal — value for value — to ``np.sort`` respectively
        ``np.unique`` of the relaxation matrix's cost column, but derived
        from the precomputed :attr:`sorted_x` in ``O(n)``: subtraction
        and clipping are monotone, so the point order survives.  The
        exact ADPaR backend sweeps these candidates without sorting.
        """
        sorted_relax = np.maximum(self.sorted_x - float(origin_x), 0.0)
        keep = np.empty(sorted_relax.size, dtype=bool)
        keep[0] = True
        np.not_equal(sorted_relax[1:], sorted_relax[:-1], out=keep[1:])
        return sorted_relax, sorted_relax[keep]

    def sweep_table(
        self, origin_x: float, eps: float
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """:meth:`sweep_values` plus the per-candidate coverage prefix.

        ``prefix[j]`` equals
        ``np.searchsorted(sorted_relax, xs[j] + eps, side="right")`` —
        the number of rows a sweep admits at candidate ``j``.  Every
        row's value *is* some candidate, so that count is the start
        offset of the next distinct value, unless a later candidate
        falls within ``eps`` of ``xs[j]``.  That near-collision is
        detected with the identical float comparison the search would
        make (``xs[j + 1] <= xs[j] + eps``), and any hit falls back to
        the real ``searchsorted``.  The exact ADPaR backend reads the
        same admission rule by binary search over ``sorted_relax``; this
        full table is its reference form.
        """
        n = self.sorted_x.size
        sorted_relax, xs = self.sweep_values(origin_x)
        starts = np.searchsorted(sorted_relax, xs, side="left")
        if xs.size > 1 and bool(np.any(xs[1:] <= xs[:-1] + eps)):
            prefix = np.searchsorted(sorted_relax, xs + eps, side="right")
        else:
            prefix = np.empty(xs.size, dtype=np.intp)
            prefix[:-1] = starts[1:]
            prefix[-1] = n
        return sorted_relax, xs, prefix
