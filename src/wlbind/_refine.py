"""Vectorized hash rounds and the one exact check behind stabilization.

A hash round keys every entry (i, j) of the color matrix on the pair
(old color, h), where h is a deterministic 64-bit content hash of the
multiset {(m[i,k], m[k,j]) : k} of ordered color pairs, and numbers the
classes by one sort on a 64-bit key of the pair (by a two-key sort if two
old colors ever share a key). Keying on the old color makes every round
refine the one before it, so a hash collision can only merge classes that
the exact multisets would separate: every partition is at least as coarse
as the exact one.

The hash is two float64 matrix products of integer color weights below
2^20, so it runs on BLAS and every sum in it is an exact integer up to
order MAX_ORDER, whatever the summation order.

The exact check runs when a round leaves the class count unchanged. It
compares every class member's sorted signature vector with that of the
member before it in its class, in entry blocks of bounded size, and splits
a class that fails by exact signature order. All numbering derives from
matrix content alone, which is what makes stabilization
permutation-equivariant and reproducible across runs.
"""
from __future__ import annotations

import numpy as np

MAX_ORDER = 8192  # N * (2^20 - 1)^2 < 2^53: each hash sum is an exact float64 integer

_BLOCK = 1 << 16  # signature elements per verify block: bounds the check's memory

_SM1 = np.uint64(0xBF58476D1CE4E5B9)
_SM2 = np.uint64(0x94D049BB133111EB)
# one seed per weight row: (left, right) of projection 0, then of projection 1
_SEEDS = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93],
    dtype=np.uint64,
)
_WEIGHT_SHIFT = np.uint64(64 - 20)  # a weight is the top 20 bits of a mixed color
_PROJECT = np.uint64(0xFF51AFD7ED558CCD)  # odd: hash = h0 * _PROJECT + h1 mod 2^64
_KEY = np.uint64(0xC4CEB9FE1A85EC53)  # odd: class key = hash + old color * _KEY mod 2^64
_TABLE_COLORS = 1 << 12  # colors whose weights are drawn once, at import (128 KiB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise in place; returns z."""
    z ^= z >> np.uint64(30)
    z *= _SM1
    z ^= z >> np.uint64(27)
    z *= _SM2
    z ^= z >> np.uint64(31)
    return z


def _draw_weights(dim: int, row: int) -> np.ndarray:
    """Weight of each color in [0, dim) for seed row: the top 20 bits of
    splitmix64(color + seed), an integer and exact in float64."""
    z = _mix64(np.arange(dim, dtype=np.uint64) + _SEEDS[row])
    return np.right_shift(z, _WEIGHT_SHIFT, out=z).astype(np.float64)


# weights of the first colors, drawn once: the many small matrices of a
# sweep then skip the mixing
_WEIGHTS = np.stack([_draw_weights(_TABLE_COLORS, row) for row in range(len(_SEEDS))])


def _weights(dim: int, row: int) -> np.ndarray:
    """Weights for seed row, indexable by every color in [0, dim)."""
    return _WEIGHTS[row] if dim <= _TABLE_COLORS else _draw_weights(dim, row)


def _pair_hash(m: np.ndarray) -> np.ndarray:
    """Multiset hash of {(m[i,k], m[k,j]) : k} for every entry at once.

    m: (n, n) int64 with colors >= 0. Each projection is
    left[m] @ right[m] with integer weights below 2^20, an exact float64
    integer below 2^53 for n <= MAX_ORDER; the two projections are mixed
    into one uint64. The order bound is checked before anything is
    allocated.
    """
    n = m.shape[0]
    if n > MAX_ORDER:
        raise ValueError(
            f"order {n} exceeds {MAX_ORDER}, the largest order whose float64 pair hash is exact"
        )
    dim = int(m.max()) + 1
    h = np.zeros(m.shape, dtype=np.uint64)
    for row in (0, 2):  # the (left, right) seed rows of each projection
        left = _weights(dim, row)[m]
        right = _weights(dim, row + 1)[m]
        h *= _PROJECT
        h += (left @ right).astype(np.uint64)
    return h


def _dense_labels(order: np.ndarray, change: np.ndarray) -> tuple[np.ndarray, int]:
    """Labels for entries sorted by order, with a new class at each change."""
    ranks = np.cumsum(change) - 1
    labels = np.empty(order.size, dtype=np.int64)
    labels[order] = ranks
    return labels, int(ranks[-1]) + 1


def _lexsort_rank(major: np.ndarray, minor: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense labels numbering the distinct (major, minor) pairs in ascending order."""
    order = np.lexsort((minor, major))
    a, b = major[order], minor[order]
    change = np.empty(a.size, dtype=bool)
    change[0] = True
    change[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return _dense_labels(order, change)


def _rank(major: np.ndarray, minor: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense labels numbering the distinct (major, minor) pairs.

    major: int64 >= 0; minor: values below 2^64. One sort on the key
    minor + major * _KEY mod 2^64, which for a fixed major is a bijection
    of minor, so two pairs can share a key only with different majors. If
    some run of equal keys holds two majors, the two-key sort numbers the
    pairs instead. Either way the numbering depends on content alone.
    """
    key = major.astype(np.uint64)
    key *= _KEY
    key += minor.astype(np.uint64, copy=False)
    order = np.argsort(key)
    key = key[order]
    same = key[1:] == key[:-1]
    del key  # the N^2-sized temporaries are dropped as soon as they are used
    a = major[order]
    collided = (same & (a[1:] != a[:-1])).any()
    del a
    if collided:
        return _lexsort_rank(major, minor)
    change = np.empty(order.size, dtype=bool)
    change[0] = True
    np.logical_not(same, out=change[1:])
    return _dense_labels(order, change)


def refine_once(m: np.ndarray, dim: int) -> tuple[np.ndarray, int]:
    """One hash round of diamond-and-substitution on a dense color matrix.

    m: (n, n) int64 with colors dense in [0, dim). Returns the relabeled
    matrix with classes dense in [0, K) and K >= dim itself. Entries share a
    class when they share the old color and the pair-multiset hash.
    """
    labels, count = _rank(m.ravel(), _pair_hash(m).ravel())
    return labels.reshape(m.shape), count


def _signatures(m: np.ndarray, dim: int, entries: np.ndarray) -> np.ndarray:
    """One row per flat entry index: its sorted vector of pair codes."""
    i, j = np.divmod(entries, m.shape[0])
    sigs = m[i] * np.int64(dim) + m[:, j].T
    sigs.sort(axis=1)
    return sigs


def _verify_streaming(
    m: np.ndarray, dim: int, labels: np.ndarray, count: int
) -> tuple[np.ndarray, int]:
    """Exact check of a partition of m's entries by pair signature.

    m: (n, n) with colors dense in [0, dim); labels: (n, n) classes dense in
    [0, count). Members of each class are compared with the class member
    before them, so a class holds one signature exactly when every
    comparison is equal. Returns (labels, count) unchanged when every class
    passes, else the partition refined by exact signature: a failing class
    is split into sub-classes numbered by signature order, with one class's
    signatures materialized at a time.
    """
    flat = labels.ravel()
    order = np.argsort(flat, kind="stable")  # entries grouped by class
    sizes = np.bincount(flat, minlength=count)
    shared = order[np.repeat(sizes > 1, sizes)]  # entries of classes with two or more

    bad = np.zeros(count, dtype=bool)
    step = max(1, _BLOCK // m.shape[0])
    for start in range(0, shared.size - 1, step):
        block = shared[start:start + step + 1]  # shares its last entry with the next block
        owner = flat[block]
        sigs = _signatures(m, dim, block)
        neq = (owner[1:] == owner[:-1]) & (sigs[1:] != sigs[:-1]).any(axis=1)
        bad[owner[1:][neq]] = True
    if not bad.any():
        return labels, count

    bounds = np.concatenate(([0], np.cumsum(sizes)))
    sub = np.zeros(flat.size, dtype=np.int64)
    for cls in np.flatnonzero(bad).tolist():
        members = order[bounds[cls]:bounds[cls + 1]]
        sigs = _signatures(m, dim, members).astype(">i8")  # byte order = numeric order
        keys = sigs.view(np.dtype((np.void, sigs.shape[1] * 8))).ravel()
        _, sub[members] = np.unique(keys, return_inverse=True)
    out, total = _rank(flat, sub)
    return out.reshape(labels.shape), total


def compact(m: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel colors to dense [0, D) by ascending original value."""
    uniq, inverse = np.unique(m.ravel(), return_inverse=True)
    return inverse.reshape(m.shape).astype(np.int64), int(uniq.shape[0])


def recognize(m: np.ndarray) -> tuple[np.ndarray, int]:
    """Move diagonal colors into fresh classes disjoint from off-diagonal ones.

    Off-diagonal colors are compacted to [0, A) by ascending value; the
    distinct diagonal values become classes A, A+1, ... in ascending order.
    """
    n = m.shape[0]
    diag = m.diagonal().copy()
    off_mask = ~np.eye(n, dtype=bool)
    off_vals = np.unique(m[off_mask]) if n > 1 else np.empty(0, dtype=m.dtype)
    out = np.searchsorted(off_vals, m).astype(np.int64)
    a = int(off_vals.shape[0])
    d_uniq, d_inv = np.unique(diag, return_inverse=True)
    out[np.arange(n), np.arange(n)] = a + d_inv
    return out, a + int(d_uniq.shape[0])
