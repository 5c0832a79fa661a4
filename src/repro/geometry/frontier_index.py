"""Block-summary index over a lex-sorted 2-D point set.

The ADPaR sweep spends its time enumerating k-coverage Pareto frontiers
over prefixes of an admission order (strategies enter as the cost
relaxation grows).  :class:`FrontierIndex` stores the points sorted by
``(y, z)`` together with two per-block summary columns — the minimum
``z`` and the minimum admission rank per block (the "level/subtree-size"
trick of window-pruned XPath evaluation, applied to a flat sweep) — so a
frontier enumeration can discard a whole block with two scalar
comparisons:

* ``block_min_rank >= rank_limit``: no point of the block has entered
  yet, so the block contributes nothing to this prefix.
* ``block_min_z >= current bound``: once the size-``k`` heap is full, no
  point of the block can shrink its maximum, so the block cannot yield a
  frontier improvement.

:meth:`FrontierIndex.frontier` reproduces — pair for pair — what
:func:`repro.geometry.sweepline.block_frontier` yields over the same
restricted point sequence; the pruning only skips work that provably
cannot yield.

:func:`repair_sorted_order` is the incremental half: when a few points
move (one availability tick re-estimates only the availability-dependent
strategies), a previously sorted order is *repaired* by merging the
displaced elements back instead of re-argsorting the full array.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = [
    "FrontierCursor",
    "FrontierIndex",
    "merge_into_sorted",
    "repair_sorted_order",
]

#: Re-sort from scratch once more than this fraction of an order's
#: elements were displaced — merging stops paying below ~n/8 movers.
_REPAIR_FRACTION = 0.125


def _merge_back(
    kept: np.ndarray, movers: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Merge value-sorted ``movers`` into the still-sorted ``kept`` order."""
    positions = np.searchsorted(values[kept], values[movers], side="left")
    out = np.empty(kept.size + movers.size, dtype=kept.dtype)
    dest = positions + np.arange(movers.size, dtype=positions.dtype)
    slot = np.ones(out.size, dtype=bool)
    slot[dest] = False
    out[slot] = kept
    out[dest] = movers
    return out


def repair_sorted_order(
    order: np.ndarray,
    values: np.ndarray,
    changed: "np.ndarray | None" = None,
) -> np.ndarray:
    """A permutation sorting ``values`` ascending, repaired from ``order``.

    ``order`` is a prior valid sort order for a *near-sorted* update of
    ``values`` (e.g. an availability tick moved a handful of points).
    The out-of-place elements are extracted, sorted among themselves
    (``O(d log d)`` for ``d`` movers), and merged back with one
    ``searchsorted``.  When the caller knows which elements it updated
    it passes their indices as ``changed`` and the ``O(n)``
    displacement-detection pass (gather + running maximum) is skipped
    entirely — the delta path of an availability tick.  Without
    ``changed``, displaced elements are detected as those strictly
    below the running maximum of the permuted values.  Falls back to a
    full ``argsort`` when more than an eighth of the elements moved, so
    the repair is never slower than a rebuild by more than the
    detection pass.

    The result is a valid ascending order for ``values``; tie order
    among equal values is unspecified (every consumer in this codebase
    is tie-order-insensitive — they read sorted *values* or value-level
    frontiers).
    """
    if changed is not None:
        if changed.size == 0:
            return order
        if changed.size > order.size * _REPAIR_FRACTION:
            permuted = values[order]
            return order[np.argsort(permuted, kind="stable")]
        in_changed = np.zeros(order.size, dtype=bool)
        in_changed[changed] = True
        kept = order[~in_changed[order]]
        movers = changed[np.argsort(values[changed], kind="stable")]
        return _merge_back(kept, movers, values)
    permuted = values[order]
    displaced = permuted < np.maximum.accumulate(permuted)
    moved = int(np.count_nonzero(displaced))
    if moved == 0:
        return order
    if moved > order.size * _REPAIR_FRACTION:
        # Near-sorted fallback: sorting the *permuted* values lets the
        # stable mergesort exploit the long runs the old order still
        # has, instead of starting from a random permutation.
        return order[np.argsort(permuted, kind="stable")]
    kept = order[~displaced]
    movers = order[displaced]
    movers = movers[np.argsort(values[movers], kind="stable")]
    return _merge_back(kept, movers, values)


def merge_into_sorted(
    kept: np.ndarray,
    kept_values: np.ndarray,
    mover_rows: np.ndarray,
    mover_values: np.ndarray,
    out_order: "np.ndarray | None" = None,
    out_values: "np.ndarray | None" = None,
    assume_sorted: bool = False,
) -> "tuple[np.ndarray, np.ndarray]":
    """Merge movers into a fixed sorted skeleton: ``(order, sorted)``.

    ``kept``/``kept_values`` are an immutable, already-sorted skeleton
    (rows whose values never change); ``mover_rows`` hold the
    ``mover_values`` that vary.  The movers are sorted among themselves
    (``O(m log m)``), located with one binary search against the
    skeleton, and both the combined order and the combined sorted
    column are written with sequential scatters — no random ``O(n)``
    gather anywhere, which is what keeps an availability tick a small
    fraction of a rebuild.  Tie order among equal values is
    unspecified, as everywhere in the repair machinery.

    ``out_order``/``out_values`` — optional destination buffers of the
    combined length — let the availability-tick chain recycle warm
    memory instead of faulting in fresh pages every tick.
    ``assume_sorted`` promises the movers already arrive value-sorted
    (the tick chain revalidates and reuses the previous tick's mover
    order, which rarely changes under a small availability step).
    """
    if assume_sorted:
        movers = mover_rows
        moved_values = mover_values
    else:
        by_value = np.argsort(mover_values, kind="stable")
        movers = mover_rows[by_value]
        moved_values = mover_values[by_value]
    positions = np.searchsorted(kept_values, moved_values, side="left")
    dest = positions + np.arange(movers.size, dtype=positions.dtype)
    n = kept.size + movers.size
    slot = np.ones(n, dtype=bool)
    slot[dest] = False
    order = out_order if out_order is not None else np.empty(n, dtype=kept.dtype)
    order[slot] = kept
    order[dest] = movers
    merged = (
        out_values if out_values is not None else np.empty(n, dtype=kept_values.dtype)
    )
    merged[slot] = kept_values
    merged[dest] = moved_values
    return order, merged


class FrontierIndex:
    """Pruned k-coverage frontier enumeration over ``(y, z)``-sorted points.

    Parameters
    ----------
    ys, zs:
        Point coordinates, pre-sorted ascending by ``y`` (ties in any
        order — the value-level frontier minimum is tie-invariant).
    ranks:
        Optional admission rank per row (position in the sweep's
        entry order).  Required for :meth:`frontier` calls that pass
        ``rank_limit``.
    block:
        Rows per summary block.
    """

    def __init__(
        self,
        ys: np.ndarray,
        zs: np.ndarray,
        ranks: "np.ndarray | None" = None,
        block: int = 512,
    ):
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._ys = ys
        self._zs = zs
        self._ranks = ranks
        self._block = int(block)
        n = ys.size
        starts = np.arange(0, n, self._block)
        self._starts = starts
        if n:
            self._block_min_z = np.minimum.reduceat(zs, starts)
            self._block_min_rank = (
                np.minimum.reduceat(ranks, starts) if ranks is not None else None
            )
        else:
            self._block_min_z = np.empty(0)
            self._block_min_rank = None
        # Per-k cached full-set frontier pairs (see global_pairs).  Lazy
        # and idempotent, so the benign compute-twice race under shared
        # caches is harmless — same contract as the space's lazy orders.
        self._global: "dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]" = {}

    @property
    def size(self) -> int:
        return self._ys.size

    def frontier(
        self, k: int, rank_limit: "int | None" = None
    ) -> "tuple[list[float], list[float]]":
        """Frontier ``(Y, Z)`` pairs over rows with ``rank < rank_limit``.

        Returns exactly the pairs
        :func:`~repro.geometry.sweepline.block_frontier` yields over the
        restricted subsequence (``rank_limit=None`` means all rows):
        the first pair once the size-``k`` heap fills, then one pair per
        strict improvement of the k-th smallest ``z``.  Blocks whose
        summary proves they cannot yield are skipped whole.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        ys, zs, ranks = self._ys, self._zs, self._ranks
        n = ys.size
        out_y: list[float] = []
        out_z: list[float] = []
        if n == 0:
            return out_y, out_z
        check_rank = rank_limit is not None
        if check_rank and ranks is None:
            raise ValueError("rank_limit requires an index built with ranks")
        block = self._block
        min_z = self._block_min_z
        if check_rank:
            active = (self._block_min_rank < rank_limit).nonzero()[0].tolist()
        else:
            active = range(self._starts.size)
        heap: list[float] = []
        cur = math.inf
        filled = False
        replace = heapq.heapreplace
        for b in active:
            lo = b * block
            hi = lo + block
            if hi > n:
                hi = n
            if filled:
                if min_z[b] >= cur:
                    continue
                zb = zs[lo:hi]
                mask = zb < cur
                if check_rank:
                    mask &= ranks[lo:hi] < rank_limit
                for offset in mask.nonzero()[0].tolist():
                    z = float(zb[offset])
                    if z >= cur:
                        # The heap maximum dropped below z since the
                        # block filter — same recheck as block_frontier.
                        continue
                    replace(heap, -z)
                    top = -heap[0]
                    if top < cur:
                        cur = top
                        out_y.append(float(ys[lo + offset]))
                        out_z.append(cur)
                continue
            # Heap still filling: no z-pruning is sound yet.
            if check_rank:
                offsets = (ranks[lo:hi] < rank_limit).nonzero()[0].tolist()
            else:
                offsets = range(hi - lo)
            for offset in offsets:
                i = lo + offset
                z = float(zs[i])
                if not filled:
                    heapq.heappush(heap, -z)
                    if len(heap) == k:
                        filled = True
                        cur = -heap[0]
                        out_y.append(float(ys[i]))
                        out_z.append(cur)
                    continue
                if z < cur:
                    replace(heap, -z)
                    top = -heap[0]
                    if top < cur:
                        cur = top
                        out_y.append(float(ys[i]))
                        out_z.append(cur)
        return out_y, out_z

    def cursor(self, k: int, chunk: int = 1024) -> "FrontierCursor":
        """A :class:`FrontierCursor` over this index's point sequence."""
        return FrontierCursor(self._ys, self._zs, k, chunk=chunk)

    def _global_entry(self, k: int) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        entry = self._global.get(k)
        if entry is None:
            fy, fz = self.frontier(k)
            pairs = np.array([fy, fz], dtype=float).reshape(2, -1)
            entry = (pairs[0], pairs[1], pairs)
            self._global[k] = entry
        return entry

    def global_pairs(self, k: int) -> "tuple[np.ndarray, np.ndarray]":
        """Cached full-set frontier pairs for one ``k`` (arrays).

        This is the sweep's global 2-D bound source: the minimum of the
        mapped objective over these pairs equals — float for float — the
        minimum the reference enumeration produces, so computing it once
        per (space, k) replaces an O(n) pass per request.
        """
        ys, zs, _ = self._global_entry(k)
        return ys, zs

    def global_bounds(self, k: int, origins_yz: np.ndarray) -> np.ndarray:
        """Per origin, the least ``max(y − o_y, 0)² + max(z − o_z, 0)²``
        over the cached full-set frontier for ``k``.

        ``origins_yz`` has shape ``(2, m)``; the result has shape
        ``(m,)``.  This is the sweep's unconstrained-cost 2-D bound for
        a block of requests, with the same float expressions per pair.
        """
        pairs = self._global_entry(k)[2]
        mapped = np.subtract(pairs[:, None, :], origins_yz[:, :, None])
        np.maximum(mapped, 0.0, out=mapped)
        np.multiply(mapped, mapped, out=mapped)
        return np.minimum.reduce(np.add(mapped[0], mapped[1]), axis=1)


class FrontierCursor:
    """Incremental k-coverage frontier over a *growing* admitted prefix.

    The sweep evaluates frontiers at strictly increasing admission
    prefixes of one fixed point sequence.  Recomputing each frontier
    from all admitted rows costs ``O(n)`` per evaluation; the cursor
    instead exploits a monotonicity of the k-heap scan: the running
    k-th-smallest-``z`` envelope of a *superset* is pointwise at or
    below that of a subset, so a row that failed ``z < cur`` once can
    never pass it again and is discarded forever.  Each evaluation then
    touches only the prior evaluation's *survivors* (rows that entered
    the heap — a near-frontier-sized set) plus the rows newly admitted
    since, which makes the total work per request ``O(n)`` across all
    evaluations instead of ``O(n)`` per evaluation.

    The yielded ``(Y, Z)`` pairs are exactly — float for float — what
    :func:`~repro.geometry.sweepline.block_frontier` produces over the
    admitted subsequence in the same order: discarded rows never touch
    the heap there either, and the remaining rows are processed in the
    identical relative order with the identical float comparisons.

    Parameters
    ----------
    ys, zs:
        The full point sequence in enumeration (``y``-sorted) order.
    k:
        Coverage requirement; fixed for the cursor's lifetime.
    chunk:
        Rows filtered per vectorized step of the scan.
    """

    def __init__(self, ys: np.ndarray, zs: np.ndarray, k: int, chunk: int = 1024):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self._ys = ys
        self._zs = zs
        self._k = k
        self._chunk = int(chunk)
        self._survivors = np.empty(0, dtype=np.intp)

    def frontier(
        self, new_positions: np.ndarray
    ) -> "tuple[list[float], list[float]]":
        """Frontier pairs after admitting ``new_positions`` (sorted).

        ``new_positions`` are enumeration-order positions of the rows
        admitted since the previous call, ascending and disjoint from
        everything admitted before.
        """
        if self._survivors.size:
            merged = np.concatenate([self._survivors, new_positions])
            merged.sort(kind="stable")
        else:
            merged = new_positions
        ys, zs = self._ys, self._zs
        k = self._k
        out_y: list[float] = []
        out_z: list[float] = []
        survivors: list[int] = []
        keep = survivors.append
        heap: list[float] = []
        cur = math.inf
        i = 0
        m = merged.size
        while i < m and len(heap) < k:
            pos = int(merged[i])
            z = float(zs[pos])
            keep(pos)
            heapq.heappush(heap, -z)
            if len(heap) == k:
                cur = -heap[0]
                out_y.append(float(ys[pos]))
                out_z.append(cur)
            i += 1
        replace = heapq.heapreplace
        chunk = self._chunk
        while i < m:
            part = merged[i : i + chunk]
            zc = zs[part]
            for offset in (zc < cur).nonzero()[0].tolist():
                z = float(zc[offset])
                if z >= cur:
                    # cur dropped below z after the chunk filter — the
                    # row is dead now and, by monotonicity, forever.
                    continue
                pos = int(part[offset])
                keep(pos)
                replace(heap, -z)
                top = -heap[0]
                if top < cur:
                    cur = top
                    out_y.append(float(ys[pos]))
                    out_z.append(cur)
            i += chunk
        self._survivors = np.asarray(survivors, dtype=np.intp)
        return out_y, out_z
