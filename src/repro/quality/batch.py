"""Batched JQ kernels: amortize the dynamic program across many juries.

Every layer above the JQ oracle — exact frontiers, exhaustive and
annealing selection, the engine scheduler — evaluates *sets* of
candidate juries, yet the scalar entry points in this package compute
one jury at a time: ``exact_frontier`` issues ``2^n - 1`` independent
exponential enumerations, and the annealer thousands of bucket DPs.
The kernels here share the work across the whole candidate set:

* :func:`estimate_jq_batch` — the dense log-odds DP of
  ``bucket._estimate_dense`` for B juries at once.  The per-jury key
  axes live side by side in one ``(B, W)`` array and each worker column
  is two shifted gather-multiply-adds over the whole batch, instead of
  B separate Python-level loops.
* :func:`exact_jq_bv_batch` — the closed-form exact BV JQ
  (``sum_V max(P0, P1)``) for B juries, grouped by size so each group
  is one vectorized ``(B, 2^k, k)`` enumeration.
* :func:`all_subsets_jq_bv` — exact/bucketed BV JQ for **all** ``2^n``
  subsets of a candidate pool via a shared-prefix subset-lattice DP:
  each subset's per-voting likelihood vector extends its parent's with
  one vectorized step (``n * 2^(n-1)`` slice extensions in total,
  against the ``2^n`` independent enumerations the scalar frontier
  performs) — the same share-the-partial-computation idea that orders
  evidence combination in Dempster-Shafer aggregation.
* :func:`all_subset_costs` — subset-sum costs for all ``2^n`` subsets
  in ``n`` vectorized doublings.

**Parity contract.**  Each kernel reproduces its scalar oracle
bit-for-bit, not merely within tolerance: the per-element arithmetic
(products in worker order, two shifted adds per bucket column, the
final slice summation) is arranged to match the scalar code's operation
order exactly.  The property tests pin this, and it is what lets the
engine build every scheduler frontier through the batch kernel with
campaign fingerprints byte-identical to the scalar path's.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.exceptions import EnumerationLimitError
from ..core.task import validate_prior
from .bucket import (
    DEFAULT_NUM_BUCKETS,
    HIGH_QUALITY_CUTOFF,
    bucket_indices,
    log_odds,
)
from .canonical import as_qualities, canonicalize_qualities
from .exact import DEFAULT_MAX_EXACT_SIZE, vote_matrix
from .prior import fold_prior

#: Largest candidate pool :func:`all_subsets_jq_bv` will expand — the
#: lattice keeps one likelihood vector per subset at or below the exact
#: cutoff, ~``2 * 3^n`` doubles in total (≈75 MB at n = 14).
ALL_SUBSETS_MAX = 14

#: Soft bound on temporary array elements per vectorized sweep; batches
#: beyond it are processed in order-preserving chunks.
_CHUNK_ELEMENTS = 1 << 22


def subset_members(mask: int, n: int) -> list[int]:
    """Indices of the set bits of ``mask`` — the subset's members in
    ascending index order (the order :func:`repro.quality.exact.vote_matrix`
    and the lattice DP assume)."""
    return [i for i in range(n) if mask >> i & 1]


# ----------------------------------------------------------------------
# Batched bucket estimator (Algorithm 1, dense, B juries at once)
# ----------------------------------------------------------------------
def estimate_jq_batch(
    rows: Sequence[Sequence[float]],
    alpha: float = 0.5,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    high_quality_shortcut: bool = True,
) -> np.ndarray:
    """``estimate_jq`` (dense implementation) for a batch of juries.

    Parameters
    ----------
    rows:
        A sequence of quality vectors, one per jury; sizes may differ.
    alpha, num_buckets, high_quality_shortcut:
        As in :func:`repro.quality.bucket.estimate_jq`.

    Returns
    -------
    A float array with one JQ per row, bit-identical to calling the
    scalar estimator row by row.  The perfect-worker / high-quality /
    uninformative shortcuts are applied per row exactly as the scalar
    path applies them; only rows that reach the dynamic program join
    the shared sweep.
    """
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    a = validate_prior(alpha)
    out = np.empty(len(rows))
    dp_index: list[int] = []
    dp_rows: list[np.ndarray] = []
    for i, row in enumerate(rows):
        raw = as_qualities(row)
        if raw.size == 0:
            raise ValueError("cannot compute JQ for an empty jury")
        qualities = canonicalize_qualities(fold_prior(raw, a))
        best = float(qualities.max())
        if best >= 1.0:
            out[i] = 1.0  # perfect worker decides alone
        elif high_quality_shortcut and best > HIGH_QUALITY_CUTOFF:
            out[i] = best  # Section-4.4 <1%-error shortcut
        elif best <= 0.5:
            out[i] = 0.5  # every worker a fair coin
        else:
            dp_index.append(i)
            dp_rows.append(qualities)
    if dp_rows:
        out[dp_index] = _batch_dense(dp_rows, num_buckets)
    return out


def _batch_dense(rows: list[np.ndarray], num_buckets: int) -> np.ndarray:
    """The shared dense sweep over pre-canonicalized quality rows.

    Chunks the batch so temporaries stay bounded; chunking never changes
    a value (rows are independent and each row's arithmetic only touches
    its own key span).
    """
    out = np.empty(len(rows))
    start = 0
    while start < len(rows):
        stop = start
        widest = 0
        while stop < len(rows):
            # Conservative width bound: span <= jury size * num_buckets.
            width = 2 * rows[stop].size * num_buckets + 1
            if stop > start and (stop - start + 1) * max(widest, width) > (
                _CHUNK_ELEMENTS
            ):
                break
            widest = max(widest, width)
            stop += 1
        out[start:stop] = _batch_dense_chunk(rows[start:stop], num_buckets)
        start = stop
    return out


def _batch_dense_chunk(rows: list[np.ndarray], num_buckets: int) -> np.ndarray:
    b_count = len(rows)
    n_max = max(r.size for r in rows)
    # Per-row discretization, identical to the scalar path: each row
    # keeps its own delta (= max phi / num_buckets) and bucket vector.
    buckets = np.zeros((b_count, n_max), dtype=np.int64)
    quals = np.full((b_count, n_max), 0.5)
    spans = np.empty(b_count, dtype=np.int64)
    for i, row in enumerate(rows):
        phis = np.array([log_odds(q) for q in row])
        b, _ = bucket_indices(phis, num_buckets)
        buckets[i, : row.size] = b
        quals[i, : row.size] = row
        spans[i] = int(b.sum())
    center = int(spans.max())
    width = 2 * center + 1
    probs = np.zeros((b_count, width))
    probs[:, center] = 1.0
    cols = np.arange(width)
    for j in range(n_max):
        b_col = buckets[:, j]
        active = b_col > 0  # bucket 0 (and padding) leaves keys unchanged
        if not active.any():
            continue
        q_col = quals[:, j][:, None]
        shift = b_col[:, None]
        # vote 0 (probability q) moves keys up by the bucket index;
        # vote 1 (probability 1 - q) moves them down — the same two
        # shifted adds as the scalar sweep, batched over rows.
        up_idx = cols[None, :] - shift
        down_idx = cols[None, :] + shift
        up = np.where(
            up_idx >= 0,
            np.take_along_axis(probs, np.clip(up_idx, 0, width - 1), axis=1),
            0.0,
        ) * q_col
        down = np.where(
            down_idx < width,
            np.take_along_axis(
                probs, np.clip(down_idx, 0, width - 1), axis=1
            ),
            0.0,
        ) * (1.0 - q_col)
        probs = np.where(active[:, None], up + down, probs)
    out = np.empty(b_count)
    for i in range(b_count):
        # Sum exactly the row's own key span, so the reduction sees the
        # same operand sequence as the scalar path's final summation.
        span = int(spans[i])
        jq = float(
            probs[i, center + 1 : center + 1 + span].sum()
            + 0.5 * probs[i, center]
        )
        out[i] = min(max(jq, 0.0), 1.0)
    return out


# ----------------------------------------------------------------------
# Batched exact BV JQ (closed form, grouped by jury size)
# ----------------------------------------------------------------------
def exact_jq_bv_batch(
    rows: Sequence[Sequence[float]],
    alpha: float = 0.5,
    max_size: int = DEFAULT_MAX_EXACT_SIZE,
) -> np.ndarray:
    """``exact_jq_bv`` for a batch of juries, one vectorized enumeration
    per distinct jury size (chunked to bound temporaries)."""
    a = validate_prior(alpha)
    arrays = [as_qualities(row) for row in rows]
    out = np.empty(len(arrays))
    by_size: dict[int, list[int]] = {}
    for i, arr in enumerate(arrays):
        if arr.size == 0:
            raise ValueError("cannot compute JQ for an empty jury")
        if arr.size > max_size:
            raise EnumerationLimitError(
                f"exact JQ enumerates 2^{arr.size} votings; jury size "
                f"{arr.size} exceeds the limit {max_size}"
            )
        by_size.setdefault(arr.size, []).append(i)
    for k, indices in by_size.items():
        votes = vote_matrix(k)[None, :, :]
        chunk = max(1, _CHUNK_ELEMENTS // ((1 << k) * k))
        for lo in range(0, len(indices), chunk):
            batch = indices[lo : lo + chunk]
            quals = np.stack([arrays[i] for i in batch])[:, None, :]
            like0 = np.prod(np.where(votes == 0, quals, 1.0 - quals), axis=2)
            like1 = np.prod(np.where(votes == 1, quals, 1.0 - quals), axis=2)
            out[batch] = np.sum(
                np.maximum(a * like0, (1.0 - a) * like1), axis=1
            )
    return out


# ----------------------------------------------------------------------
# All-subsets lattice
# ----------------------------------------------------------------------
def all_subsets_jq_bv(
    qualities: Sequence[float],
    alpha: float = 0.5,
    exact_cutoff: int | None = None,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    max_size: int = ALL_SUBSETS_MAX,
) -> np.ndarray:
    """BV JQ of every subset of a candidate pool in one shared sweep.

    Returns an array of length ``2^n`` indexed by bitmask (bit ``i``
    set = worker ``i`` in the jury, the :func:`exact_frontier`
    enumeration order).  Entry 0 — the empty jury — scores the prior's
    mode, matching :class:`repro.selection.base.JQObjective`.

    ``exact_cutoff=None`` computes every subset exactly; with a cutoff,
    subsets above it are scored by the bucket estimator instead —
    exactly the size split :class:`~repro.selection.base.JQObjective`
    applies, so each entry is bit-identical to the scalar objective.

    The exact part runs on the subset lattice: a subset's per-voting
    likelihood vectors extend its parent's (the subset minus its
    highest-index member) with one vectorized step, so the shared
    prefixes are computed once instead of once per superset.
    """
    q = as_qualities(qualities)
    a = validate_prior(alpha)
    n = q.size
    if n > max_size:
        raise EnumerationLimitError(
            f"all-subsets JQ expands a 2^{n}-subset lattice; pool size "
            f"{n} exceeds the limit {max_size}"
        )
    out = np.empty(1 << n)
    out[0] = max(a, 1.0 - a)
    if n == 0:
        return out
    cutoff = min(n, n if exact_cutoff is None else int(exact_cutoff))

    # Group masks by popcount.  All subsets of size k share the voting-
    # vector length 2^k, so one lattice *level* is a dense matrix and
    # every extension/score at that level is a handful of whole-matrix
    # operations — the per-subset arithmetic (two likelihood extensions,
    # scale by the prior, max, row sum) is element-for-element the
    # per-mask recursion, just batched.
    levels: list[list[int]] = [[] for _ in range(cutoff + 1)]
    row_of = np.zeros(1 << n, dtype=np.int64)
    bucket_masks: list[int] = []
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        if k > cutoff:
            bucket_masks.append(mask)
            continue
        row_of[mask] = len(levels[k])
        levels[k].append(mask)

    prev0 = np.ones((1, 1))  # level 0: the empty subset's unit vector
    prev1 = np.ones((1, 1))
    for k in range(1, cutoff + 1):
        masks = levels[k]
        highs = np.array([m.bit_length() - 1 for m in masks])
        parents = row_of[
            np.array(masks) ^ (np.int64(1) << np.array(highs))
        ]
        p0 = prev0[parents]
        p1 = prev1[parents]
        q_h = q[highs][:, None]
        q_bar = 1.0 - q_h
        # Child votings: parent's rows with the new member voting 0
        # (likelihood factor q under t=0) in the lower half, voting 1
        # (factor 1-q) in the upper half — vote_matrix row order.
        l0 = np.concatenate((p0 * q_h, p0 * q_bar), axis=1)
        l1 = np.concatenate((p1 * q_bar, p1 * q_h), axis=1)
        out[masks] = np.sum(np.maximum(a * l0, (1.0 - a) * l1), axis=1)
        prev0, prev1 = l0, l1

    if bucket_masks:
        rows = [q[subset_members(mask, n)] for mask in bucket_masks]
        out[bucket_masks] = estimate_jq_batch(
            rows, alpha=a, num_buckets=num_buckets
        )
    return out


def all_subset_costs(costs: Sequence[float]) -> np.ndarray:
    """Total cost of every subset, indexed by bitmask, in ``n``
    vectorized doublings.

    Each doubling appends "the previous subsets plus worker ``i``", so
    ``out[mask]`` accumulates the member costs in ascending index
    order.  Float association may therefore differ from
    ``costs[members].sum()`` by rounding (well under 1e-9 for sane
    costs); callers that must match the scalar summation bit-for-bit
    use it as a margin-guarded prescreen (the exhaustive selector's
    feasibility sweep) or keep the per-member summation (the frontier's
    Pareto candidates).
    """
    arr = np.asarray(costs, dtype=float)
    out = np.zeros(1)
    for c in arr:
        out = np.concatenate((out, out + c))
    return out
