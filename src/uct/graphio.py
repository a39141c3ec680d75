"""Graph serialization: plain edge lists, DOT, and a JSON envelope.

Edge lists are one ``u v`` pair per line, 0-indexed, u < v.  Isolated
vertices do not appear in an edge list, so imports accept an explicit
vertex count for re-checks that need them preserved.

Edge lists, DOT edge lines and the JSON envelope's edges move as bytes,
not one Python object per edge.  The export gathers a row block's edges
(Graph.edge_blocks), 2^18 at a time, from two NUL-padded tables of the
decimal tokens of 0..V-1, each wrapped in the text that comes before and
after it (a space and a newline for an edge list, " -- " and ";" for DOT,
the indented brackets json.dumps writes for the envelope), then drops
the NUL bytes and decodes that piece's text.  edge_list_chunks,
dot_chunks and json_chunks yield the text one piece at a time, so a
writer holds one piece's text; to_edge_list, to_dot and dump_json join
them.  The import hands the text to np.loadtxt as one stream, after
blanking comment lines with one regex.
"""

from __future__ import annotations

import io
import json
import re

import numpy as np

from .graph_core import Graph

_EDGE_PIECE = 1 << 18  # edges formatted at once (see _edge_chunks)


def to_edge_list(g: Graph) -> str:
    """One "u v" line per edge, u < v, in row-major order."""
    return "".join(edge_list_chunks(g))


def edge_list_chunks(g: Graph):
    """to_edge_list's text, one piece of lines at a time."""
    return _edge_chunks(g, b"", b" ", b"\n")


def _edge_chunks(g: Graph, before: bytes, between: bytes, after: bytes):
    """before + u + between + v + after for each edge, u < v, in row-major
    order, u and v in decimal: one str per _EDGE_PIECE edges of a block of
    Graph.edge_blocks, as a piece's text is held several times over."""
    v = g.vertex_count
    digits = np.arange(v).astype(f"S{len(str(max(v - 1, 0)))}")
    left = np.strings.add(np.strings.add(before, digits), between)
    right = np.strings.add(digits, after)
    width = max(left.itemsize, right.itemsize)
    for us, vs in g.edge_blocks():
        for i in range(0, len(us), _EDGE_PIECE):
            piece = slice(i, i + _EDGE_PIECE)
            lines = np.empty((len(us[piece]), 2), dtype=f"S{width}")
            lines[:, 0], lines[:, 1] = left[us[piece]], right[vs[piece]]
            yield lines.tobytes().translate(None, b"\0").decode()


def to_dot(g: Graph, name: str = "G") -> str:
    return "".join(dot_chunks(g, name))


def dot_chunks(g: Graph, name: str = "G"):
    """to_dot's text: the header and vertex labels, then one piece of edge
    lines at a time, then the closing brace."""
    lines = [f"graph {name} {{"]
    if g.labels is not None:
        for v, label in enumerate(g.labels):
            quoted = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{quoted}"];')
    yield "\n".join(lines) + "\n"
    yield from _edge_chunks(g, b"  ", b" -- ", b";\n")
    yield "}\n"


def to_json_envelope(g: Graph) -> dict:
    return {
        "vertex_count": g.vertex_count,
        "labels": None if g.labels is None else list(g.labels),
        "edges": [[u, v] for u, v in g.edges()],
    }


def from_json_envelope(payload: dict) -> Graph:
    return Graph.from_edges(payload["vertex_count"], payload["edges"],
                            labels=payload.get("labels"))


def dump_json(g: Graph) -> str:
    """json.dumps(to_json_envelope(g), indent=2) + "\n", with the edges
    written from byte tables (see json_chunks)."""
    return "".join(json_chunks(g))


def json_chunks(g: Graph):
    """dump_json's text: the envelope up to its edge list, then one piece
    of edges at a time (see _edge_chunks, which yields no empty piece),
    each edge led by the ",\n" that json.dumps puts between two, dropped
    from the first."""
    head = json.dumps({"vertex_count": g.vertex_count,
                       "labels": None if g.labels is None else list(g.labels),
                       "edges": []}, indent=2)
    edges = _edge_chunks(g, b",\n    [\n      ", b",\n      ", b"\n    ]")
    first = next(edges, None)
    if first is None:
        yield head + "\n"
        return
    yield head[:-len("[]\n}")] + "[\n" + first[len(",\n"):]
    yield from edges
    yield "\n  ]\n}\n"


def read_edge_list(text: str, vertex_count=None) -> Graph:
    """Rebuild a graph from edge-list text; vertex count defaults to
    1 + the largest mentioned vertex.

    Lines end at LF, CRLF or CR.  Blank lines and lines whose first
    non-space character is '#' are skipped; every other line must hold
    exactly two integers, else ValueError.  np.loadtxt parses the text as
    one stream and checks every line's column count in the same pass.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if "#" in text:
        text = re.sub(r"(?m)^[^\S\n]*#.*", "", text)
    try:
        ends = (np.zeros((0, 2), dtype=np.int64) if not text or text.isspace()
                else np.loadtxt(io.StringIO(text), dtype=np.int64,
                                comments=None, ndmin=2))
    except ValueError as exc:
        raise ValueError(f"each edge-list line must hold two integers: {exc}") from None
    if ends.shape[1] != 2:
        raise ValueError("each edge-list line must hold two vertex indices")
    if vertex_count is None:
        vertex_count = int(ends.max()) + 1 if ends.size else 0
    return Graph.from_edges(vertex_count, ends)
