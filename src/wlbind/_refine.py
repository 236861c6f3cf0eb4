"""Vectorized hash rounds and the one exact check behind stabilization.

A hash round keys every entry (i, j) of the color matrix on its old color
and h, a deterministic content hash of the multiset {(m[i,k], m[k,j]) : k}
of ordered color pairs, and numbers the classes in ascending order of the
64-bit key h << b | old color, b the bit length of the largest color
(_rank: one in-place sort of keys whose low bits carry each entry's index,
then a sort of the few runs that the index bits put out of order). A
color is below N^2 <= 2^26, so h keeps 64 - b >= 38 bits, and the most
where a few colors split into many classes. The key holds the color
exactly: no round merges two colors, and each refines the one before it.
Every partition along the way is thus at least as coarse as the exact
stable partition P*; a hash collision inside one class only postpones a
split to a later round. The partition that passes the exact check (or the
orbit certificate) is a fixpoint of the exact refinement that refines the
start, so it is at least as fine as P*, and the two are equal.

The hash is two float64 matrix products of integer color weights below
2^20, so it runs on BLAS and every sum in it is an exact integer up to
order MAX_ORDER, whatever the summation order.

Both the fixpoint certificate and the exact check rest on one orbit
argument. Let gamma be a vertex permutation with m[gamma][:, gamma] == m.
Re-indexing k by gamma(k) shows that entry e = (i, j) and its image
gamma(e) = (gamma(i), gamma(j)) have equal signatures, and they share
m's color; so do all entries of one orbit of the group such permutations
generate. The exact refinement of m therefore never separates two
entries of one orbit: its classes are unions of orbits. When m's classes
are already single orbits, the refinement cannot split any of them, and m
is a fixpoint with no round run (orbit_certificate); stabilize still
counts the round it skips, since a run that executed it would have
confirmed the dimension there, so rounds and dims do not depend on
whether a fixpoint was certified or checked. Since m's own classes are
unions of orbits, a class holds one signature exactly when one member of
each of its orbits does, so the check compares those members alone
(_entries_to_check).

Generators are only ever candidates, kept when m is invariant under them,
however they were guessed, so a wrong one can cost time but never change
an answer. Each source has one role. The swap sigma that exchanges the
two vertices of every two-vertex diagonal class (when no class is
larger) only certifies: offered to the check as well, it pruned about
one check in thirteen of the lemma sweep to order 6 (orders <= 21) and
none in decisions on order-10 and order-12 pairs, while every check
read it off the diagonal again. A budgeted individualization search on
m's diagonal classes (_search_witness), run where the full check is
large (_SEARCH_GATE), is the check's only source of generators. Each
orbit is named by its smallest member, found by vectorized label
lowering and pointer jumping (_orbit_labels).
The checked members of a class are compared, by sorted signature vector,
with the member before them, in entry blocks of bounded size; the check
(_verify_streaming) only names the classes that fail. Splitting them over
all of their members by exact signature order is a step of its own
(_split_failing), which stabilize runs and a fixpoint test never needs: a
test of m that finds a failing class has its answer. All numbering
derives from matrix content alone, which is what makes stabilization
permutation-equivariant and reproducible across runs.
"""
from __future__ import annotations

import ctypes
import os
from typing import Any, Callable

import numpy as np

from .graphs import distinct

# glibc's allocator policy, set once at import. A hash round frees about a
# dozen N^2-sized temporaries; by default glibc trims the heap top once more
# than twice the largest recent free sits there, so every round handed its
# pages back to the kernel and the next one faulted them in again, zero-filled
# (~2,500 minor faults per decision at orders 210 and 300). With these values
# the freed arrays stay in the heap and are reused.
_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3
# glibc's own ceiling for its dynamic mmap threshold: arrays below 32 MiB
# (every N^2 int64 array below order 2048) come from the heap at once
_MMAP_THRESHOLD = 32 << 20
# free heap top kept before trimming: a round holds five N^2 8-byte arrays at
# once besides the matrices stabilize keeps, 160 MiB at order 2047; a 64 MiB
# threshold still left ~5,000 faults per decision at order 1596
_TRIM_THRESHOLD = 256 << 20


def _glibc() -> ctypes.CDLL | None:
    """The process's C library when it is glibc, else None."""
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return None
    if not version or not version.startswith("glibc"):
        return None
    try:
        return ctypes.CDLL(None)
    except OSError:
        return None


def _keep_freed_memory(libc: Any) -> bool:
    """Raise libc's mmap and trim thresholds through mallopt, so freed round
    temporaries stay in the heap; whether both were set. Nothing is done when
    libc is None or has no mallopt, and nothing more once a call returns 0."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    settings = ((_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), (_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))
    return all(mallopt(param, value) != 0 for param, value in settings)


_keep_freed_memory(_glibc())

_WEIGHT_BITS = 20  # a color's hash weight is below 2^_WEIGHT_BITS
# N * (2^w - 1)^2 < 2^53 for w weight bits: each hash sum is an exact float64 integer
MAX_ORDER = 1 << (53 - 2 * _WEIGHT_BITS)

_BLOCK = 1 << 16  # signature elements per verify or split block: bounds the signatures held at once

# The witness search runs where the full check compares more than _SEARCH_GATE
# signature elements, with a budget of one split per _SEARCH_SHARE entries of
# it. On rigid graphs of orders 144-400 whose fixpoint keeps one shared class
# of N^2 entries, a search that found nothing made stabilization at most 8%
# slower; at orders 49-81 one split cost as much as comparing 30-60 entries, so
# below the gate a search would add more than it could save.
_SEARCH_GATE = 32 * _BLOCK
_SEARCH_SHARE = 512

_SM1 = np.uint64(0xBF58476D1CE4E5B9)
_SM2 = np.uint64(0x94D049BB133111EB)
# one seed per weight row: (left, right) of projection 0, then of projection 1
_SEEDS = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93],
    dtype=np.uint64,
)
_WEIGHT_SHIFT = np.uint64(64 - _WEIGHT_BITS)  # a weight is the top bits of a mixed color
_PROJECT = np.uint64(0xFF51AFD7ED558CCD)  # odd: hash = h0 * _PROJECT + h1 mod 2^64
# a color is below N^2, so it takes at most 26 bits of a class key: 38 or more stay for the hash
assert MAX_ORDER**2 <= 1 << 26
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
    """Weight of each color in [0, dim) for seed row: the top _WEIGHT_BITS
    bits of splitmix64(color + seed), an integer and exact in float64."""
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

    def project(row: int) -> np.ndarray:
        """left[m] @ right[m] for the (left, right) seed rows row and row + 1,
        as uint64; the int64 cast is the faster one, and exact below 2^53."""
        product = _weights(dim, row)[m] @ _weights(dim, row + 1)[m]
        return product.astype(np.int64).view(np.uint64)

    h = project(0)
    h *= _PROJECT
    h += project(2)
    return h


def _key(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The uint64 keys minor << b | major, b the bit length of max(major).

    major: int64 in [0, 2^26), held exactly; minor: only its low 64 - b bits
    are read, so a 64-bit hash may be passed whole.
    """
    bits = np.uint64(int(major.max()).bit_length())
    key = minor.astype(np.uint64, copy=False) << bits
    key |= major.view(np.uint64)
    return key


def _rank(major: np.ndarray, minor: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense labels numbering the distinct (major, minor) pairs in ascending
    order of their _key, and the number of pairs.

    The pairs are numbered by content alone, by _sort_carrying_index. The
    transient peak is 25 bytes per entry.
    """
    key = _key(major, minor)
    order = _sort_carrying_index(key)
    change = np.empty(key.size, dtype=bool)
    change[0] = True
    np.not_equal(key[1:], key[:-1], out=change[1:])
    ranks = key.view(np.int64)  # the keys are no longer needed
    ranks[:] = change
    del change
    np.cumsum(ranks, out=ranks)
    labels = np.empty(key.size, dtype=np.int64)
    labels[order] = ranks
    labels -= 1
    return labels, int(ranks[-1])


def _sort_carrying_index(key: np.ndarray) -> np.ndarray:
    """Sort the uint64 keys in place, without an argsort; the order that
    sorts them (intp), as an argsort would give it up to ties.

    The key's low s bits (s the bit length of size - 1, at most 32) are
    saved and replaced by each entry's index, the keys are sorted in place,
    the order is read back from the low bits and the full keys are restored
    from the saved ones. That is the key order except within a run of keys
    that share their top 64 - s bits, which comes out in index order; only
    the runs that are then out of order are sorted again (_sort_runs). The
    transient peak is 16 bytes per entry besides the keys, and 17 while a
    run as long as the array is sorted again.
    """
    size = key.size
    shift = (size - 1).bit_length()
    mask = np.uint64((1 << shift) - 1)
    low = key & mask  # saved, to restore the keys
    key ^= low
    low = low.astype(np.uint32)
    key |= np.arange(size, dtype=np.uint64)  # each entry's index in their place
    key.sort()
    order = key & mask
    key ^= order
    order = order.view(np.intp)
    key |= low[order]
    del low
    _sort_runs(key, order, shift)
    return order


def _sort_runs(key: np.ndarray, order: np.ndarray, shift: int) -> None:
    """Sort by full key, in place with order, each run of key that shares its
    bits above shift and is out of order.

    key is in ascending order of key >> shift, and order holds values below
    2^shift. A run is sorted by one in-place sort of its low key bits packed
    above its order.
    """
    mask = np.uint64((1 << shift) - 1)
    descent = key[1:] < key[:-1]
    start = 0
    while start < descent.size:
        d = start + int(np.argmax(descent[start:]))
        if not descent[d]:
            return
        top = key[d] & ~mask
        a = int(np.searchsorted(key, top, side="left"))
        b = int(np.searchsorted(key, top | mask, side="right"))
        packed = key[a:b] & mask
        packed <<= np.uint64(shift)
        packed |= order[a:b].view(np.uint64)
        packed.sort()
        np.bitwise_and(packed, mask, out=order[a:b].view(np.uint64))
        packed >>= np.uint64(shift)
        np.bitwise_or(packed, top, out=key[a:b])
        start = b


def refine_once(m: np.ndarray) -> tuple[np.ndarray, int]:
    """One hash round of diamond-and-substitution on a dense color matrix.

    m: (n, n) int64 with colors dense in [0, dim). Returns the relabeled
    matrix with classes dense in [0, K) and K >= dim itself. Entries share a
    class when they share the old color and the low 64 - b bits of the
    pair-multiset hash, b the bit length of dim - 1.
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
    none has two (sigma would be the identity, which certifies nothing).
    Nothing here is trusted: orbit_certificate, its one caller, checks
    that m is sigma-invariant.
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


def _permuted(a: np.ndarray, gamma: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """a[gamma(i), gamma(j)] for i in rows (all of gamma by default) and every j,
    by two one-axis takes, which numpy runs faster than one np.ix_ index."""
    return np.take(np.take(a, gamma if rows is None else rows, axis=0), gamma, axis=1)


def _preserves(gamma: np.ndarray, *mats: np.ndarray) -> bool:
    """Whether a[gamma(i), gamma(j)] == a[i, j] for every entry of each matrix a.

    Rows are compared in blocks that grow fourfold from 8, each block of
    every matrix before the next block, so a wrong candidate, which seldom
    agrees on many rows, costs little. A block spans at most three quarters
    of the rows.
    """
    start, size = 0, 8
    while start < gamma.size:
        rows = slice(start, start + size)
        for a in mats:
            if not np.array_equal(_permuted(a, gamma, gamma[rows]), a[rows]):
                return False
        start, size = start + size, 4 * size
    return True


def orbit_certificate(m: np.ndarray, dim: int) -> int | None:
    """Generators certifying that m (colors dense in [0, dim)) is a fixpoint, or None.

    0 when m is discrete, 1 when its classes are the entry orbits of the
    swap sigma: m is sigma-invariant, so every class is a union of orbits,
    and the class count equals the orbit count (N^2 + f^2) / 2, where f is
    the number of vertices sigma fixes, so every class is one orbit. The
    counts are compared before the invariance check, which is the only
    O(N^2) step.
    """
    n = m.shape[0]
    if dim == n * n:
        return 0
    sigma = _swap_witness(m)
    if sigma is None:
        return None
    fixed = int(np.count_nonzero(sigma == np.arange(n)))
    if 2 * dim != n * n + fixed * fixed:
        return None
    return 1 if _preserves(sigma, m) else None


def _orbit_labels(perms: list[np.ndarray], n: int, entries: bool = False) -> np.ndarray:
    """The smallest member of each point's orbit under the group perms generate.

    The points are the n vertices, or with entries the n * n flat entry
    indices, which a vertex permutation p moves by (i, j) -> (p(i), p(j));
    labels are int32 (n * n < 2^31 up to MAX_ORDER). Every pass lowers each
    point's label to the labels of its image and preimage under each perm,
    then jumps every label to its own label until that is stable; lowering
    both ways collapses a cycle in a logarithmic number of jumps. A label is
    always a member of the point's orbit and never above the point; when a
    pass lowers nothing, label[x] <= label[p(x)] and label[p(x)] <= label[x]
    for every perm, so labels are constant on each orbit, where they must be
    its smallest member. The peak is about 16 bytes per point: the labels,
    their jumped copy and numpy's intp copy of the index.
    """
    label = np.arange(n * n if entries else n, dtype=np.int32)
    moves = list(perms)
    for p in perms:  # and the preimage under each perm that is not an involution
        inverse = np.empty_like(p)
        inverse[p] = np.arange(p.size)
        if not np.array_equal(inverse, p):
            moves.append(inverse)
    while True:
        before = label.sum(dtype=np.int64)  # labels only fall: an equal sum means no change
        for p in moves:  # the gathered copy is dropped before the jumps
            moved = _permuted(label.reshape(n, n), p).ravel() if entries else label[p]
            np.minimum(label, moved, out=label)
            del moved
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        if label.sum(dtype=np.int64) == before:
            return label


def _split(cells: np.ndarray, m: np.ndarray, v: int) -> np.ndarray:
    """cells refined by each vertex's colors to and from v, with v alone in
    its cell; numbered by content, so automorphisms commute with it. A key
    collision (of 51 or more bits of the mixed pair code) leaves two
    vertices in one cell, which costs at most a candidate (each is verified).
    Numbered as _rank would, but by compact: vertices of different cells
    often share a pair code, and every such run would be sorted again."""
    row = m[v] + 1
    col = m[:, v] + 1
    row[v] = col[v] = 0
    radix = max(int(row.max()), int(col.max())) + 1  # below 2^27: the pair code fits
    return compact(_key(cells, _mix64((row * radix + col).astype(np.uint64))))[0]


def _search_witness(
    m: np.ndarray, budget: int, keep: Callable[[np.ndarray], bool]
) -> list[np.ndarray]:
    """Candidate automorphisms of m from individualization on its diagonal classes.

    The first path starts from the diagonal classes, and at each level
    individualizes the smallest vertex of the first cell with two or more
    vertices (splitting every cell by the colors to and from it) until
    every cell is a singleton: its leaf. Then, from the deepest level up,
    every other vertex w of that level's cell is individualized in its
    place, and the tree below is searched depth first, trying each
    level's cell in ascending vertex order and leaving a node whose cell
    sizes differ from the first path's, until a leaf maps the first leaf
    by an automorphism: vertex x goes to the vertex with x's cell number.
    A w already in the orbit of the first path's vertex under the
    candidates found so far is skipped, since they all fix the path above
    it. Each leaf map is offered to keep, the caller's verification, and
    only maps it accepts are returned. At most budget splits are made.
    """
    n = m.shape[0]
    cells = compact(m.diagonal())[0]
    # the first path, per level: the cells before its split, the number of
    # the cell it splits, that cell's members and the cell sizes after it
    nodes, targets, members, sizes = [], [], [], []
    while int(cells.max()) + 1 < n:
        budget -= 1
        if budget < 0:
            return []
        nodes.append(cells)
        targets.append(int(np.argmax(np.bincount(cells) > 1)))
        members.append(np.flatnonzero(cells == targets[-1]))
        cells = _split(cells, m, members[-1][0])
        sizes.append(np.bincount(cells))
    leaf = cells
    found: list[np.ndarray] = []
    orbit = np.arange(n)
    for k in range(len(nodes) - 1, -1, -1):
        first = members[k][0]
        for w in members[k][1:].tolist():
            if orbit[w] == orbit[first]:
                continue
            stack = [(nodes[k], k, [w])]  # (node, its level, untried vertices, smallest last)
            while stack and budget > 0:
                cells, level, untried = stack[-1]
                if not untried:
                    stack.pop()
                    continue
                budget -= 1
                child = _split(cells, m, untried.pop())
                if not np.array_equal(np.bincount(child), sizes[level]):
                    continue
                if level + 1 < len(nodes):
                    below = np.flatnonzero(child == targets[level + 1])
                    stack.append((child, level + 1, below[::-1].tolist()))
                    continue
                place = np.empty(n, dtype=np.int64)
                place[child] = np.arange(n)
                gamma = place[leaf]
                if keep(gamma):
                    found.append(gamma)
                    orbit = _orbit_labels(found, n)
                    break
            if budget <= 0:
                return found
    return found


def _entries_to_check(m: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, int]:
    """Flat indices whose signatures decide whether every color class of m
    (of sizes sizes) is pure, and the number of verified generators that
    pruned them.

    Without a generator these are the members of every class of two or
    more. The only candidates come from the individualization search, run
    when the full check would compare more than _SEARCH_GATE signature
    elements, with a budget of one split per _SEARCH_SHARE entries of the
    full check. keep, the one place every candidate is verified (once:
    its verdicts are memoized), accepts one only if m is invariant under
    it; the search's output goes through keep again, so a search that
    returned an unverified map would change nothing.
    Then every class of m is a union of entry orbits of the kept
    generators, so it holds one signature exactly when the smallest
    members of its orbits do; only classes with two or more such members
    are returned. The orbit labels are the transient peak, about 16 bytes
    per entry, as much as ordering the entries of a full check
    (_group_by_class).
    """
    n = m.shape[0]
    flat = m.ravel()
    shared = (sizes > 1)[flat]
    full = int(np.count_nonzero(shared))
    verdicts: dict[bytes, bool] = {}

    def keep(gamma: np.ndarray) -> bool:
        """Whether m is gamma-invariant, checked once per candidate."""
        key = gamma.tobytes()
        if key not in verdicts:
            verdicts[key] = _preserves(gamma, m)
        return verdicts[key]

    kept: list[np.ndarray] = []
    if full * n > _SEARCH_GATE:
        kept = [g for g in _search_witness(m, full // _SEARCH_SHARE, keep) if keep(g)]
    if not kept:
        return np.flatnonzero(shared), 0
    del shared
    first = _orbit_labels(kept, n, entries=True) == np.arange(n * n, dtype=np.int32)
    many = np.bincount(flat[first], minlength=sizes.size) > 1
    return np.flatnonzero(first & many[flat]), len(kept)


def _group_by_class(check: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The ascending flat indices check, grouped by class flat[check] and
    ascending within each class, as a stable sort by class orders them.

    Each index is packed below its class in one int64 key (both are below
    N^2 <= 2^26) and the keys are sorted in place, so the peak is the keys
    and check, 16 bytes per entry; a stable argsort holds three such arrays.
    """
    key = flat[check].astype(np.int64, copy=False)
    key <<= 32
    key |= check
    key.sort()
    key &= 0xFFFFFFFF
    return key


def _verify_streaming(
    m: np.ndarray, dim: int, first: bool = False
) -> tuple[np.ndarray | None, int, int]:
    """Exact check that each color class of m holds one pair signature.

    m: (n, n) with colors dense in [0, dim), not discrete (a discrete m is
    certified before any check). The entries that decide purity (all
    members of the shared classes, or one member of each orbit of the
    search's verified generators, see _entries_to_check) are grouped by
    class, and each is compared with the checked member before it in its
    class, so a class holds one signature exactly when every comparison
    is equal. Returns (bad, checked, generators): bad is None when every
    class passes, else the boolean mask over [0, dim) of the failing
    classes; checked counts the entries whose signatures the comparison
    computed, and generators is the number of verified search generators
    that pruned them (0 where the search did not run or found none).
    The check holds one block of signatures at a time; splitting the
    failing classes is _split_failing's work. With first, a fixpoint
    test's answer, it stops at the first block with a failing class, so
    bad names only the failing classes found up to there.
    """
    flat = m.ravel()
    sizes = np.bincount(flat, minlength=dim)
    check, generators = _entries_to_check(m, sizes)
    check = _group_by_class(check, flat)

    bad = np.zeros(dim, dtype=bool)
    step = max(1, _BLOCK // m.shape[0])
    for start in range(0, check.size - 1, step):
        block = check[start:start + step + 1]  # shares its last entry with the next block
        owner = flat[block]
        sigs = _signatures(m, dim, block)
        neq = (owner[1:] == owner[:-1]) & (sigs[1:] != sigs[:-1]).any(axis=1)
        bad[owner[1:][neq]] = True
        if first and neq.any():
            break
    return (bad if bad.any() else None), int(check.size), generators


def _split_failing(m: np.ndarray, dim: int, bad: np.ndarray) -> tuple[np.ndarray, int]:
    """m's partition refined by exact signature, and its class count.

    m: (n, n) with colors dense in [0, dim); bad: the mask of failing
    classes _verify_streaming returned. Each failing class is split over
    all of its members into sub-classes numbered by (old color, signature
    order); the rest keep their color. A class is read in blocks of
    _BLOCK // n members, twice: the first pass merges each block's
    signatures into the class's sorted distinct ones, the second numbers
    each block by its rank among them. So one block of signatures is held
    at a time, besides the class's distinct ones.
    """
    flat = m.ravel()
    sizes = np.bincount(flat, minlength=dim)
    failing = _group_by_class(np.flatnonzero(bad[flat]), flat)
    sub = np.zeros(flat.size, dtype=np.int64)
    step = max(1, _BLOCK // m.shape[0])

    def keys(entries: np.ndarray) -> np.ndarray:
        """Each entry's signature as one void, big-endian: byte order = numeric order."""
        sigs = _signatures(m, dim, entries).astype(">i8")
        return sigs.view(np.dtype((np.void, sigs.shape[1] * 8))).ravel()

    for members in np.split(failing, np.cumsum(sizes[bad])[:-1]):
        blocks = [members[start:start + step] for start in range(0, members.size, step)]
        seen = keys(members[:0])
        for block in blocks:
            seen = np.unique(np.concatenate((seen, keys(block))))
        for block in blocks:
            sub[block] = np.searchsorted(seen, keys(block))
    labels, count = _rank(flat, sub)
    return labels.reshape(m.shape), count


def compact(m: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel values to dense [0, D) by ascending original value: the
    numbering of the witness search's start cells and split cells."""
    uniq, inverse = np.unique(m.ravel(), return_inverse=True)
    return inverse.reshape(m.shape).astype(np.int64), int(uniq.shape[0])


def recognize(m: np.ndarray) -> tuple[np.ndarray, int]:
    """Move diagonal colors into fresh classes disjoint from off-diagonal ones.

    Off-diagonal colors are compacted to [0, A) by ascending value; the
    distinct diagonal values become classes A, A+1, ... in ascending order.
    """
    n = m.shape[0]
    diag = m.diagonal()
    off_vals = distinct(m[~np.eye(n, dtype=bool)])
    out = np.searchsorted(off_vals, m).astype(np.int64)
    a = int(off_vals.shape[0])
    diag_vals = distinct(diag)
    out[np.arange(n), np.arange(n)] = a + np.searchsorted(diag_vals, diag)
    return out, a + int(diag_vals.shape[0])
