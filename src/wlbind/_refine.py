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

The exact check runs when a round leaves the class count unchanged. A
partition with no class of two entries passes at once. Otherwise the check
looks for a swap witness: the vertex involution sigma that swaps the two
vertices of every two-vertex diagonal class of m and fixes the rest, which
is taken only when no diagonal class is larger. If both m and the
partition are sigma-invariant, entry e = (i, j) and its image
sigma(e) = (sigma(i), sigma(j)) have equal signatures (re-index k by
sigma(k)) and share a class, so each class is checked on its members with
e <= sigma(e) alone. The two invariance checks carry the whole argument,
however sigma was guessed; when one fails, every member is checked. The
checked members of a class are compared, by sorted signature vector, with
the member before them, in entry blocks of bounded size, and a class that
fails is split over all of its members by exact signature order. All
numbering derives from matrix content alone, which is what makes
stabilization permutation-equivariant and reproducible across runs.
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


def check_order(n: int) -> None:
    """Reject an order above MAX_ORDER, where the pair hash stops being exact."""
    if n > MAX_ORDER:
        raise ValueError(
            f"order {n} exceeds {MAX_ORDER}, the largest order whose float64 pair hash is exact"
        )


def _pair_hash(m: np.ndarray) -> np.ndarray:
    """Multiset hash of {(m[i,k], m[k,j]) : k} for every entry at once.

    m: (n, n) int64 with colors >= 0. Each projection is
    left[m] @ right[m] with integer weights below 2^20, an exact float64
    integer below 2^53 for n <= MAX_ORDER; the two projections are mixed
    into one uint64. The order bound is checked before anything is
    allocated.
    """
    check_order(m.shape[0])
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


def _swap_witness(m: np.ndarray) -> np.ndarray | None:
    """The vertex involution read off m's diagonal, or None.

    sigma swaps the two vertices of every diagonal class of size two and
    fixes the rest; None when some class has three or more vertices, or
    none has two (sigma would be the identity, which prunes nothing).
    Nothing here is trusted: the caller checks that sigma preserves what
    it relies on.
    """
    diag = m.diagonal()
    sizes = np.bincount(diag)
    if sizes.max() != 2:
        return None
    order = np.argsort(diag, kind="stable")
    pair = np.flatnonzero(diag[order[1:]] == diag[order[:-1]])
    sigma = np.arange(diag.size)
    sigma[order[pair]] = order[pair + 1]
    sigma[order[pair + 1]] = order[pair]
    return sigma


def _entries_to_check(m: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Flat indices whose signatures decide whether every class is pure.

    Without a witness these are the members of every class of two or more.
    With a swap witness sigma under which m and labels are both invariant,
    sig(e) = sig(sigma(e)) and both lie in one class, so a class holds one
    signature exactly when its members with e <= sigma(e) do; only classes
    with two or more such members are returned.
    """
    flat = labels.ravel()
    sigma = _swap_witness(m)
    if (
        sigma is None
        or not np.array_equal(m[np.ix_(sigma, sigma)], m)
        or not np.array_equal(labels[np.ix_(sigma, sigma)], labels)
    ):
        return np.flatnonzero((sizes > 1)[flat])
    # e = (i, j) <= sigma(e) in flat (row-major) order: i < sigma(i), or
    # i fixed and j <= sigma(j); built from boolean rows and columns only
    idx = np.arange(sigma.size)
    rep = ((idx < sigma)[:, None] | ((idx == sigma)[:, None] & (idx <= sigma)[None, :])).ravel()
    many = np.bincount(flat[rep], minlength=sizes.size) > 1
    return np.flatnonzero(rep & many[flat])


def _verify_streaming(
    m: np.ndarray, dim: int, labels: np.ndarray, count: int
) -> tuple[np.ndarray, int, int]:
    """Exact check of a partition of m's entries by pair signature.

    m: (n, n) with colors dense in [0, dim); labels: (n, n) classes dense in
    [0, count). A partition with no class of two entries passes before any
    sort. Otherwise the entries that decide purity (all members of the
    shared classes, or under a verified swap witness one member of each
    sigma-pair, see _entries_to_check) are grouped by class, and each is
    compared with the checked member before it in its class, so a class
    holds one signature exactly when every comparison is equal. Returns
    (labels, count, checked): labels and count unchanged when every class
    passes, else the partition refined by exact signature (a failing class
    is split over all of its members into sub-classes numbered by signature
    order, with one class's signatures materialized at a time); checked
    counts the entries whose signatures the comparison computed.
    """
    flat = labels.ravel()
    sizes = np.bincount(flat, minlength=count)
    if sizes.max() < 2:  # discrete: nothing to compare
        return labels, count, 0
    check = _entries_to_check(m, labels, sizes)
    check = check[np.argsort(flat[check], kind="stable")]  # grouped by class

    bad = np.zeros(count, dtype=bool)
    step = max(1, _BLOCK // m.shape[0])
    for start in range(0, check.size - 1, step):
        block = check[start:start + step + 1]  # shares its last entry with the next block
        owner = flat[block]
        sigs = _signatures(m, dim, block)
        neq = (owner[1:] == owner[:-1]) & (sigs[1:] != sigs[:-1]).any(axis=1)
        bad[owner[1:][neq]] = True
    if bad.any():
        order = np.argsort(flat, kind="stable")  # entries grouped by class
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        sub = np.zeros(flat.size, dtype=np.int64)
        for cls in np.flatnonzero(bad).tolist():
            members = order[bounds[cls]:bounds[cls + 1]]
            sigs = _signatures(m, dim, members).astype(">i8")  # byte order = numeric order
            keys = sigs.view(np.dtype((np.void, sigs.shape[1] * 8))).ravel()
            _, sub[members] = np.unique(keys, return_inverse=True)
        out, total = _rank(flat, sub)
        labels, count = out.reshape(labels.shape), total
    return labels, count, int(check.size)


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
