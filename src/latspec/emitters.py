"""JSON structures and DOT text for spaces, lattices, reports, and tables."""

from __future__ import annotations

import json

from .lattice import _bits
from .topology import point_names


def canonical_json(obj):
    """Deterministic rendering: sorted keys, two-space indent, newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def space_json(space):
    return {
        "points": list(space.names),
        "opens": [point_names(space.names, u) for u in space.sorted_opens()],
    }


def space_dot(space):
    """Specialization digraph: an edge x -> y when y lies in closure(x).

    Trivial self edges are omitted.
    """
    lines = ["digraph specialization {"]
    for name in space.names:
        lines.append(f"  {_quote(name)};")
    for x in range(space.n):
        for y in _bits(space.closure(x)):
            if y != x:
                lines.append(f"  {_quote(space.names[x])} -> {_quote(space.names[y])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def lattice_json(lat):
    return {
        "elements": list(lat.names),
        "top": lat.names[lat.top],
        "bottom": lat.names[lat.bottom],
        "leq": [[lat.names[a], lat.names[b]] for a, b in sorted(lat.covers())],
        "mul": [[lat.names[a], lat.names[b], lat.names[lat.mul(a, b)]]
                for a in range(lat.n) for b in range(lat.n)],
    }


def lattice_dot(lat):
    """Hasse diagram: covering edges drawn upward."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for name in lat.names:
        lines.append(f"  {_quote(name)};")
    for a, b in sorted(lat.covers()):
        lines.append(f"  {_quote(lat.names[a])} -> {_quote(lat.names[b])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def table_json(table):
    return {
        "kind": table.kind,
        "order": table.order,
        "pairs": [[table.lattice.names[a], point_names(table.space.names, subset)]
                  for a, subset in table.pairs],
    }


def decomposition_json(lat, spectrum, dec):
    return {
        "target": lat.names[dec.target],
        "blocks": [{"element": lat.names[b],
                    "support": point_names(spectrum.names, s)}
                   for b, s in zip(dec.blocks, dec.supports)],
        "pairwise_meet": None if dec.pairwise_meet is None
        else lat.names[dec.pairwise_meet],
        "meets_equal_bottom": dec.meets_equal_bottom,
        "meet_discrepancy": not dec.meets_equal_bottom,
        "degenerate": dec.degenerate,
    }
