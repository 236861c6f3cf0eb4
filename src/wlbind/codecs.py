"""graph6 and adjacency-list text codecs for simple graphs."""
from __future__ import annotations

import numpy as np

from ._refine import MAX_ORDER
from .graphs import EDGE, SimpleGraph

_HEADER = b">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class AdjlistError(ValueError):
    """Malformed adjacency-list input; carries the line number of the defect."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"{message} (line {line})")
        self.line = line


def parse_graph6(data: bytes | str) -> SimpleGraph:
    """Decode one graph6 record into a SimpleGraph.

    Accepts the optional '>>graph6<<' prefix and ignores surrounding
    whitespace. Everything else is validated: byte range, header form,
    the order (1 to MAX_ORDER, checked before the body is read) and the
    exact padded bit length.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error("non-ASCII character in graph6 text", exc.start) from None
    raw = data.strip()
    if raw.startswith(_HEADER):
        raw = raw[len(_HEADER):]
    if not raw:
        raise Graph6Error("empty graph6 record", 0)
    for off, b in enumerate(raw):
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} outside graph6 range [63, 126]", off)

    pos = 0
    if raw[0] != 126:
        n = raw[0] - 63
        pos = 1
    else:
        if len(raw) >= 2 and raw[1] != 126:
            if len(raw) < 4:
                raise Graph6Error("truncated 3-byte order field", len(raw))
            n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
            pos = 4
        else:
            if len(raw) < 8:
                raise Graph6Error("truncated 6-byte order field", len(raw))
            n = 0
            for k in range(2, 8):
                n = (n << 6) | (raw[k] - 63)
            pos = 8
    if not 1 <= n <= MAX_ORDER:
        raise Graph6Error(f"order {n} unsupported (need 1 <= n <= {MAX_ORDER})", 0)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = raw[pos:]
    if len(body) != nbytes:
        raise Graph6Error(
            f"expected {nbytes} body bytes for order {n}, got {len(body)}", pos + min(len(body), nbytes)
        )

    # six bits per byte, most significant first
    six = np.frombuffer(body, dtype=np.uint8) - np.uint8(63)
    bits = np.unpackbits(six[:, None], axis=1)[:, 2:].ravel().view(bool)
    if bits[nbits:].any():
        raise Graph6Error("non-zero padding bits", pos + nbits // 6)
    adj = np.zeros((n, n), dtype=bool)
    adj[_lower_triangle(n)] = bits[:nbits]
    adj |= adj.T
    return SimpleGraph(adj)


def _lower_triangle(n: int) -> np.ndarray:
    """Mask of the entries (j, i) with i < j. Read row by row it visits them
    in graph6's bit order: column j of the upper triangle, top to bottom."""
    return np.tri(n, n, -1, dtype=bool)


def encode_graph6(g: SimpleGraph) -> bytes:
    """Encode a SimpleGraph as one graph6 record (no trailing newline)."""
    n = g.order
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    elif n <= 258047:
        out.append(126)
        out.append(((n >> 12) & 63) + 63)
        out.append(((n >> 6) & 63) + 63)
        out.append((n & 63) + 63)
    else:
        raise ValueError(f"order {n} too large for this encoder")

    bits = g.matrix[_lower_triangle(n)] == EDGE
    padded = np.zeros(-(-bits.size // 6) * 6, dtype=bool)
    padded[:bits.size] = bits
    # packbits fills the top six bits of each byte
    six = np.packbits(padded.reshape(-1, 6), axis=1).ravel() >> np.uint8(2)
    out += (six + np.uint8(63)).tobytes()
    return bytes(out)


def parse_adjlist(text: str) -> SimpleGraph:
    """Parse the 'n\\nu v\\n...' edge-list format with 1-based vertices.

    The order must lie in [1, MAX_ORDER]; it is checked before any edge is read.
    """
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx == len(lines):
        raise AdjlistError("missing order line", 1)
    try:
        n = int(lines[idx].strip())
    except ValueError:
        raise AdjlistError(f"order line is not an integer: {lines[idx]!r}", idx + 1) from None
    if not 1 <= n <= MAX_ORDER:
        raise AdjlistError(f"order {n} unsupported (need 1 <= n <= {MAX_ORDER})", idx + 1)

    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for lineno in range(idx + 1, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise AdjlistError(f"expected 'u v', got {line!r}", lineno + 1)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise AdjlistError(f"non-integer endpoint in {line!r}", lineno + 1) from None
        if u == v:
            raise AdjlistError(f"self-loop at vertex {u}", lineno + 1)
        if not (1 <= u <= n and 1 <= v <= n):
            raise AdjlistError(f"edge ({u},{v}) out of range for order {n}", lineno + 1)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise AdjlistError(f"duplicate edge ({u},{v})", lineno + 1)
        seen.add(key)
        edges.append(key)
    return SimpleGraph.from_edges(n, edges)


def emit_adjlist(g: SimpleGraph) -> str:
    lines = [str(g.order)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
