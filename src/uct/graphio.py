"""Graph serialization: plain edge lists, DOT, and a JSON envelope.

Edge lists are one ``u v`` pair per line, 0-indexed, u < v.  Isolated
vertices do not appear in an edge list, so imports accept an explicit
vertex count for re-checks that need them preserved.
"""

from __future__ import annotations

import json

import numpy as np

from .graph_core import Graph


def to_edge_list(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges())


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    if g.labels is not None:
        for v, label in enumerate(g.labels):
            quoted = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{quoted}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    return json.dumps(to_json_envelope(g), indent=2) + "\n"


def read_edge_list(text: str, vertex_count=None) -> Graph:
    """Rebuild a graph from edge-list text; vertex count defaults to
    1 + the largest mentioned vertex.

    Blank lines and lines starting with '#' are skipped; every other line
    must hold exactly two integers, else ValueError.  np.loadtxt parses the
    kept lines and checks their column count in one pass.
    """
    lines = [line for line in text.splitlines()
             if (s := line.lstrip()) and s[0] != "#"]
    try:
        ends = (np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
                if lines else np.zeros((0, 2), dtype=np.int64))
    except ValueError as exc:
        raise ValueError(f"each edge-list line must hold two integers: {exc}") from None
    if ends.shape[1] != 2:
        raise ValueError("each edge-list line must hold two vertex indices")
    if vertex_count is None:
        vertex_count = int(ends.max()) + 1 if ends.size else 0
    return Graph.from_edges(vertex_count, ends)
