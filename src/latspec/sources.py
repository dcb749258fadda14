"""Parsers and emitters for the sectioned text formats.

All formats are whitespace separated with ``#`` comments.  A section header
token like ``elements:`` opens a bucket; every following token belongs to it
until the next header.  Loaders also accept the JSON descriptions the CLI
emits, so command pipelines compose.
"""

from __future__ import annotations

import json
import os

from .errors import LatticeError, SourceError
from .instances import ClosureSystem, FiniteSemiring
from .lattice import FiniteIdealLattice, verify_axioms
from .topology import FiniteSpace, set_name

_RESERVED = set("<*=#")


def _tokens(text):
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0]
        for tok in line.split():
            yield lineno, tok


def _sectioned(text, headers, path):
    buckets = {h: [] for h in headers}
    current = None
    for lineno, tok in _tokens(text):
        if tok in buckets:
            current = tok
            continue
        if current is None:
            raise SourceError(f"unexpected token {tok!r} before any section header",
                              path, lineno)
        buckets[current].append((lineno, tok))
    return buckets


def _check_name(name, path, lineno):
    if _RESERVED & set(name):
        raise SourceError(f"element name {name!r} uses a reserved character",
                          path, lineno)


def _single(bucket, section, path):
    if len(bucket) != 1:
        raise SourceError(f"section {section!r} needs exactly one entry", path,
                          bucket[0][0] if bucket else None)
    return bucket[0]


def _index_of(names, name, path, lineno):
    try:
        return names.index(name)
    except ValueError:
        raise SourceError(f"unknown element name {name!r}", path, lineno) from None


def _transitive_reflexive_closure(n, pairs):
    """The leq matrix of the least preorder holding the pairs: Warshall's
    closure on int rows, where a row reaching k takes all of row k."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return [[bool(row >> j & 1) for j in range(n)] for row in up]


def parse_lattice(text, path=None):
    """Parse the lattice format; no axiom checking happens here.

    The order may be given by covering pairs; its reflexive-transitive
    closure is taken.  The product table must be complete.
    """
    buckets = _sectioned(text, ("elements:", "leq:", "mul:", "top:", "bottom:"), path)
    names = []
    for lineno, tok in buckets["elements:"]:
        _check_name(tok, path, lineno)
        if tok in names:
            raise SourceError(f"duplicate element name {tok!r}", path, lineno)
        names.append(tok)
    if not names:
        raise SourceError("no elements declared", path)
    n = len(names)

    pairs = []
    for lineno, tok in buckets["leq:"]:
        parts = tok.split("<")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise SourceError(f"expected nameA<nameB, got {tok!r}", path, lineno)
        pairs.append((_index_of(names, parts[0], path, lineno),
                      _index_of(names, parts[1], path, lineno)))
    leq = _transitive_reflexive_closure(n, pairs)

    table = [[None] * n for _ in range(n)]
    for lineno, tok in buckets["mul:"]:
        left, eq, result = tok.partition("=")
        factors = left.split("*")
        if eq != "=" or len(factors) != 2 or not result:
            raise SourceError(f"expected nameA*nameB=nameC, got {tok!r}", path, lineno)
        a = _index_of(names, factors[0], path, lineno)
        b = _index_of(names, factors[1], path, lineno)
        c = _index_of(names, result, path, lineno)
        if table[a][b] is not None:
            raise SourceError(f"duplicate product entry for {factors[0]}*{factors[1]}",
                              path, lineno)
        table[a][b] = c
    for a in range(n):
        for b in range(n):
            if table[a][b] is None:
                raise SourceError(f"missing product entry for {names[a]}*{names[b]}",
                                  path)

    lineno, top_name = _single(buckets["top:"], "top:", path)
    top = _index_of(names, top_name, path, lineno)
    lineno, bottom_name = _single(buckets["bottom:"], "bottom:", path)
    bottom = _index_of(names, bottom_name, path, lineno)
    return FiniteIdealLattice(names, leq, table, top, bottom)


def build_lattice(text, path=None):
    """Parse and validate; refuses to return a lattice violating an axiom."""
    lat = parse_lattice(text, path)
    report = verify_axioms(lat)
    if not report.ok:
        bad = report.failures()[0]
        raise LatticeError(f"{bad.name} fails", bad.witness)
    return lat


def lattice_source(lat):
    """Canonical text for a valid lattice: covering pairs, full product table."""
    lines = ["# lattice description"]
    lines.append("elements: " + " ".join(lat.names))
    lines.append(f"top: {lat.names[lat.top]}")
    lines.append(f"bottom: {lat.names[lat.bottom]}")
    covers = " ".join(f"{lat.names[a]}<{lat.names[b]}" for a, b in sorted(lat.covers()))
    lines.append(("leq: " + covers).rstrip())
    lines.append("mul:")
    for a in range(lat.n):
        row = " ".join(f"{lat.names[a]}*{lat.names[b]}={lat.names[lat.mul(a, b)]}"
                       for b in range(lat.n))
        lines.append("  " + row)
    return "\n".join(lines) + "\n"


def _parse_point_set(token, names, path, lineno):
    """A point set token as a mask over ``names``."""
    if token == "*":
        return (1 << len(names)) - 1
    if not (token.startswith("{") and token.endswith("}")):
        raise SourceError(f"expected a point set like {{a,b}} or *, got {token!r}",
                          path, lineno)
    body = token[1:-1]
    if not body:
        return 0
    return sum(1 << i for i in {_index_of(names, part, path, lineno)
                                for part in body.split(",")})


def parse_space(text, path=None):
    """Parse the space format: ``points:`` then ``opens:`` with {a,b} sets."""
    buckets = _sectioned(text, ("points:", "opens:"), path)
    names = []
    for lineno, tok in buckets["points:"]:
        _check_name(tok, path, lineno)
        if "{" in tok or "}" in tok or "," in tok:
            raise SourceError(f"point name {tok!r} uses a reserved character",
                              path, lineno)
        if tok in names:
            raise SourceError(f"duplicate point name {tok!r}", path, lineno)
        names.append(tok)
    opens = [_parse_point_set(tok, names, path, lineno)
             for lineno, tok in buckets["opens:"]]
    return FiniteSpace(names, opens)


def space_source(space):
    """Canonical text for a space."""
    lines = ["# space description"]
    lines.append("points: " + " ".join(space.names))
    sets = " ".join(set_name(space.names, u) for u in space.sorted_opens())
    lines.append("opens: " + sets)
    return "\n".join(lines) + "\n"


def parse_semiring(text, path=None):
    """Parse the semiring format: elements, full add and mul tables, units."""
    buckets = _sectioned(text, ("elements:", "add:", "mul:", "zero:", "one:"), path)
    names = []
    for lineno, tok in buckets["elements:"]:
        _check_name(tok, path, lineno)
        if "+" in tok:
            raise SourceError(f"element name {tok!r} uses a reserved character",
                              path, lineno)
        if tok in names:
            raise SourceError(f"duplicate element name {tok!r}", path, lineno)
        names.append(tok)
    if not names:
        raise SourceError("no elements declared", path)
    n = len(names)

    def read_table(section, operator):
        table = [[None] * n for _ in range(n)]
        for lineno, tok in buckets[section]:
            left, eq, result = tok.partition("=")
            factors = left.split(operator)
            if eq != "=" or len(factors) != 2 or not result:
                raise SourceError(
                    f"expected nameA{operator}nameB=nameC, got {tok!r}", path, lineno)
            a = _index_of(names, factors[0], path, lineno)
            b = _index_of(names, factors[1], path, lineno)
            c = _index_of(names, result, path, lineno)
            if table[a][b] is not None:
                raise SourceError(
                    f"duplicate entry for {factors[0]}{operator}{factors[1]}",
                    path, lineno)
            table[a][b] = c
        for a in range(n):
            for b in range(n):
                if table[a][b] is None:
                    raise SourceError(
                        f"missing entry for {names[a]}{operator}{names[b]}", path)
        return table

    add = read_table("add:", "+")
    mul = read_table("mul:", "*")
    lineno, zero_name = _single(buckets["zero:"], "zero:", path)
    zero = _index_of(names, zero_name, path, lineno)
    lineno, one_name = _single(buckets["one:"], "one:", path)
    one = _index_of(names, one_name, path, lineno)
    return FiniteSemiring(names, add, mul, zero, one)


def parse_closure_system(text, path=None, carrier=None):
    """Parse a member list over a lattice referenced by path (or given)."""
    buckets = _sectioned(text, ("lattice:", "members:"), path)
    if carrier is None:
        lineno, ref = _single(buckets["lattice:"], "lattice:", path)
        base = os.path.dirname(path) if path else "."
        target = os.path.join(base, ref)
        try:
            with open(target, encoding="utf-8") as handle:
                carrier = read_lattice(handle.read(), target)
        except (OSError, UnicodeDecodeError) as exc:
            raise SourceError(f"cannot read lattice file: {exc}", path, lineno) from None
    members = frozenset(_index_of(carrier.names, tok, path, lineno)
                        for lineno, tok in buckets["members:"])
    return ClosureSystem(carrier, members)


def parse_datum(text, path=None, lattice=None, space=None):
    """Parse a datum file: lattice/space references plus delta: or sigma: lines.

    Returns (kind, lattice, space, assignment) with kind "delta" or "sigma".
    Explicitly passed lattice/space take precedence over file references.
    """
    buckets = _sectioned(text, ("lattice:", "space:", "delta:", "sigma:"), path)
    base = os.path.dirname(path) if path else "."

    def load(section, reader, given):
        if given is not None:
            return given
        lineno, ref = _single(buckets[section], section, path)
        target = os.path.join(base, ref)
        try:
            with open(target, encoding="utf-8") as handle:
                return reader(handle.read(), target)
        except (OSError, UnicodeDecodeError) as exc:
            raise SourceError(f"cannot read referenced file: {exc}", path,
                              lineno) from None

    lattice = load("lattice:", read_lattice, lattice)
    space = load("space:", read_space, space)

    if buckets["delta:"] and buckets["sigma:"]:
        raise SourceError("a datum is either delta or sigma, not both", path)
    kind = "delta" if buckets["delta:"] else "sigma"
    entries = buckets[kind + ":"]
    if not entries:
        raise SourceError("no delta: or sigma: assignments found", path)
    assignment = [None] * lattice.n
    for lineno, tok in entries:
        name, eq, value = tok.partition("=")
        if eq != "=" or not name:
            raise SourceError(f"expected element={{p,q}}, got {tok!r}", path, lineno)
        element = _index_of(lattice.names, name, path, lineno)
        if assignment[element] is not None:
            raise SourceError(f"duplicate assignment for {name!r}", path, lineno)
        assignment[element] = _parse_point_set(value, space.names, path, lineno)
    missing = next((i for i, v in enumerate(assignment) if v is None), None)
    if missing is not None:
        raise SourceError(f"no assignment for element {lattice.names[missing]!r}",
                          path)
    return kind, lattice, space, tuple(assignment)


def lattice_from_json(obj, path=None):
    try:
        names = list(obj["elements"])
        for i, name in enumerate(names):
            if name in names[:i]:
                raise SourceError(f"duplicate element name {name!r}", path)
        pairs = [(names.index(a), names.index(b)) for a, b in obj["leq"]]
        leq = _transitive_reflexive_closure(len(names), pairs)
        mul = [[0] * len(names) for _ in names]
        seen = [[False] * len(names) for _ in names]
        for a, b, c in obj["mul"]:
            mul[names.index(a)][names.index(b)] = names.index(c)
            seen[names.index(a)][names.index(b)] = True
        if not all(all(row) for row in seen):
            raise SourceError("JSON lattice is missing product entries", path)
        return FiniteIdealLattice(names, leq, mul,
                                  names.index(obj["top"]), names.index(obj["bottom"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise SourceError(f"bad JSON lattice description: {exc}", path) from None


def space_from_json(obj, path=None):
    try:
        names = list(obj["points"])
        opens = [sum(1 << i for i in {names.index(p) for p in u})
                 for u in obj["opens"]]
        return FiniteSpace(names, opens)
    except (KeyError, ValueError, TypeError) as exc:
        raise SourceError(f"bad JSON space description: {exc}", path) from None


def _json(text, path):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting
        raise SourceError(f"bad JSON: {exc}", path) from None


def read_lattice(text, path=None):
    """Accept either the sectioned text format or the emitted JSON form."""
    if text.lstrip().startswith("{"):
        return lattice_from_json(_json(text, path), path)
    return parse_lattice(text, path)


def read_space(text, path=None):
    if text.lstrip().startswith("{"):
        return space_from_json(_json(text, path), path)
    return parse_space(text, path)
