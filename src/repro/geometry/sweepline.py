"""Sweep-line machinery used by ADPaR-Exact.

The paper (§4.1, Tables 2–5) sorts all ``3·|S|`` per-dimension relaxation
values into one event list ``R`` with parallel index/dimension arrays
``I``/``D``, then advances a cursor while maintaining which strategies are
covered.  :func:`build_relaxation_events` constructs exactly that event
list.  :class:`ParetoSweep` is the 2-D subroutine: given points with two
remaining free dimensions it enumerates the Pareto frontier of
``(Y, Z)`` pairs such that choosing bound ``(Y, Z)`` covers at least ``k``
points — a sorted sweep over one dimension with a size-``k`` max-heap over
the other.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

DIM_LABELS = ("C", "Q", "L")


@dataclass(frozen=True)
class SweepEvent:
    """One entry of the paper's sorted relaxation list.

    ``value`` is the relaxation amount (list ``R``), ``strategy`` the
    strategy index (list ``I``) and ``dimension`` the parameter index in
    ``(cost, quality, latency)`` order (list ``D``, labels ``C/Q/L``).
    """

    value: float
    strategy: int
    dimension: int

    @property
    def dimension_label(self) -> str:
        """Paper-style label of the relaxed parameter."""
        return DIM_LABELS[self.dimension]


def relaxation_event_arrays(
    relaxations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The paper's sorted ``(R, I, D)`` lists as three parallel arrays.

    Pure NumPy event construction: the ``(n, 3)`` relaxation matrix is
    flattened and lexsorted by (value, strategy, dimension) in one pass —
    no per-event Python objects.  :func:`build_relaxation_events` wraps
    the same arrays into :class:`SweepEvent` objects for trace output.
    """
    arr = np.asarray(relaxations, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"relaxations must have shape (n, 3), got {arr.shape}")
    n = arr.shape[0]
    values = arr.ravel()  # row-major: index i*3 + d
    strategies = np.repeat(np.arange(n), 3)
    dimensions = np.tile(np.arange(3), n)
    order = np.lexsort((dimensions, strategies, values))
    return values[order], strategies[order], dimensions[order]


def build_relaxation_events(relaxations: np.ndarray) -> list[SweepEvent]:
    """Flatten an ``(n, 3)`` relaxation matrix into the sorted event list.

    Ties are broken by (value, strategy, dimension) so the order — and hence
    any trace output — is deterministic.
    """
    values, strategies, dimensions = relaxation_event_arrays(relaxations)
    return [
        SweepEvent(float(v), int(i), int(d))
        for v, i, d in zip(values, strategies, dimensions)
    ]


class ParetoSweep:
    """Enumerate Pareto-optimal 2-D covering bounds for ``k`` points.

    Given ``n`` points ``(y_i, z_i)`` (both smaller-is-better relaxations),
    a bound ``(Y, Z)`` covers point ``i`` iff ``y_i <= Y`` and ``z_i <= Z``.
    :meth:`frontier` yields every Pareto-minimal bound covering at least
    ``k`` points, in increasing ``Y`` order, in ``O(n log n)``.

    This is the discretized form of the paper's 2-D projection step
    (Figure 5b): after fixing one parameter, the best completion relaxes the
    remaining two to coordinates of actual strategies.
    """

    def __init__(self, ys: Sequence[float], zs: Sequence[float]):
        self._ys = np.asarray(ys, dtype=float)
        self._zs = np.asarray(zs, dtype=float)
        if self._ys.shape != self._zs.shape or self._ys.ndim != 1:
            raise ValueError("ys and zs must be equal-length 1-D sequences")

    def frontier(self, k: int) -> Iterator[tuple[float, float]]:
        """Yield Pareto-minimal ``(Y, Z)`` bounds covering >= k points."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        n = self._ys.size
        if n < k:
            return
        order = np.lexsort((self._zs, self._ys))
        heap: list[float] = []  # max-heap over z via negation
        best_z = np.inf
        for idx in order:
            z = float(self._zs[idx])
            if len(heap) < k:
                heapq.heappush(heap, -z)
            elif z < -heap[0]:
                heapq.heapreplace(heap, -z)
            else:
                # z does not improve the k smallest so far; the bound at this
                # Y is identical to the previous one — skip the duplicate.
                continue
            if len(heap) == k:
                y_bound = float(self._ys[idx])
                z_bound = -heap[0]
                if z_bound < best_z:
                    best_z = z_bound
                    yield (y_bound, z_bound)

    def frontier_blocks(
        self, k: int, block: int = 4096
    ) -> Iterator[tuple[float, float]]:
        """Array-based :meth:`frontier`: identical bounds, block at a time.

        Same contract and — pair for pair — the same yielded values as
        :meth:`frontier`, but the per-point Python loop is replaced by
        NumPy filtering over whole candidate blocks (see
        :func:`block_frontier`); :meth:`frontier` remains the heap
        reference the property tests compare against.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self._ys.size < k:
            return
        order = np.lexsort((self._zs, self._ys))
        yield from block_frontier(self._ys[order], self._zs[order], k, block=block)

    def best_bound(self, k: int) -> "tuple[float, float] | None":
        """The frontier bound minimizing ``Y² + Z²`` (ADPaR's objective).

        Enumerates via :meth:`frontier_blocks` — pair for pair the same
        bounds as the heap reference, minus the per-point Python loop —
        so ADPaR callers get the block-filtered path by default.
        """
        best = None
        best_obj = np.inf
        for y, z in self.frontier_blocks(k):
            obj = y * y + z * z
            if obj < best_obj:
                best_obj = obj
                best = (y, z)
        return best


def block_frontier(
    ys: np.ndarray, zs: np.ndarray, k: int, block: int = 4096
) -> Iterator[tuple[float, float]]:
    """Pareto frontier over points already sorted by ``(y, z)``.

    Yields exactly the pairs :meth:`ParetoSweep.frontier` yields — the
    running size-``k`` heap over ``z`` only ever shrinks its maximum, so
    any point whose ``z`` is not below the heap's maximum at the start of
    its block cannot improve the bound later in that block either.  Whole
    blocks are therefore filtered with one NumPy comparison and Python
    touches only the (few) improving points.

    ``ys``/``zs`` must be float arrays pre-sorted lexicographically by
    ``(y, z, original index)`` — callers with unsorted data should use
    :meth:`ParetoSweep.frontier_blocks` instead.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = ys.size
    if n < k:
        return
    heap = [-float(z) for z in zs[:k]]
    heapq.heapify(heap)
    z_bound = -heap[0]
    best_z = z_bound
    yield (float(ys[k - 1]), z_bound)
    i = k
    while i < n:
        j = min(i + block, n)
        chunk = zs[i:j]
        # Block-min gate: if no z in the block beats the current heap
        # maximum, the flatnonzero scan below would come back empty —
        # one min() settles the whole block without the boolean temp.
        if float(chunk.min()) >= -heap[0]:
            i = j
            continue
        for offset in np.flatnonzero(chunk < -heap[0]):
            z = float(zs[i + offset])
            if z >= -heap[0]:
                # The heap maximum dropped below z since the block filter.
                continue
            heapq.heapreplace(heap, -z)
            z_bound = -heap[0]
            if z_bound < best_z:
                best_z = z_bound
                yield (float(ys[i + offset]), z_bound)
        i = j
