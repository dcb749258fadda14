"""Decomposition of semiprime elements along the finest support partition.

The finest partition of a support into unions of dual-closed sets is found
as the connected components of overlapping minimal point covers.  The
doubly exponential intersect-over-all-partitions description stays in the
test suite as the oracle the fast path is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DecompositionError
from .lattice import _bits, _lowest, is_semiprime, radical
from .topology import support_points, zariski_spectrum


def indecomposable_witness(lat, a):
    """A proper split a = a1 v a2 with both parts non-zero, or None.

    Splits with a part equal to a itself say nothing and are skipped;
    without that, a = a v a would disqualify every element.
    """
    for a1 in range(lat.n):
        if a1 == a or a1 == lat.bottom:
            continue
        for a2 in range(lat.n):
            if a2 == a or a2 == lat.bottom:
                continue
            if lat.lub(a1, a2) == a:
                return (a1, a2)
    return None


def is_indecomposable(lat, a):
    return a != lat.bottom and indecomposable_witness(lat, a) is None


def finest_partition(points, family):
    """Finest partition of the mask ``points`` into non-empty unions of
    masks from ``family``, as masks ordered by their lowest point.

    ``family`` must be closed under intersection, so every point has a
    minimal cover; blocks are the connected components of the overlap graph
    of those covers.
    """
    fam = frozenset(family)
    members = list(fam)
    for i, s in enumerate(members):
        for t in members[i:]:
            if s & t not in fam:
                raise DecompositionError("family is not closed under intersection")
    # Components so far, each with the union of its covers; the unions stay
    # disjoint, so a new point joins exactly the components it overlaps.
    groups = []
    for x in _bits(points):
        cover = -1
        for s in members:
            if s >> x & 1:
                cover &= s
        if cover == -1:
            raise DecompositionError("a point is not covered by the family")
        if cover & ~points:
            raise DecompositionError("minimal cover of a point leaves the set")
        part, reach = 1 << x, cover
        for group in groups:
            if group[1] & cover:
                part |= group[0]
                reach |= group[1]
        groups = [g for g in groups if not g[1] & cover] + [(part, reach)]
    return tuple(sorted((p for p, _ in groups), key=_lowest))


@dataclass(frozen=True)
class Decomposition:
    """Blocks joining to the target, with pairwise disjoint supports.

    When distinct blocks meet above bottom the common meet is the radical of
    bottom; ``meets_equal_bottom`` flags whether the stronger statement
    holds.  ``degenerate`` marks the empty decomposition of the radical of
    bottom itself.
    """

    target: int
    blocks: tuple
    supports: tuple
    pairwise_meet: int | None
    meets_equal_bottom: bool
    degenerate: bool


def decompose_semiprime(lat, a):
    """Split a semiprime into support-indecomposable semiprime blocks."""
    if not is_semiprime(lat, a):
        raise DecompositionError("element is not semiprime", (lat.names[a],))
    zariski_spectrum(lat)  # validates the lattice
    supports = [support_points(lat, b) for b in range(lat.n)]
    target_support = supports[a]
    bottom_radical = radical(lat, lat.bottom)
    if not target_support:
        if a != bottom_radical:
            raise DecompositionError("empty support off the radical of bottom",
                                     (lat.names[a],))
        return Decomposition(a, (), (), None, True, True)
    parts = finest_partition(target_support, supports)
    blocks = []
    for part in parts:
        block = lat.join(b for b in range(lat.n) if supports[b] | part == part)
        if supports[block] != part or not is_semiprime(lat, block):
            raise DecompositionError("block does not classify its support",
                                     (lat.names[block],))
        blocks.append(block)
    if lat.join(blocks) != a:
        raise DecompositionError("blocks do not join to the target",
                                 (lat.names[a],))
    if len(blocks) >= 2:
        meets = {lat.glb(x, y) for i, x in enumerate(blocks) for y in blocks[i + 1:]}
        if meets != {bottom_radical}:
            raise DecompositionError("pairwise meets stray from the radical of bottom",
                                     tuple(lat.names[m] for m in sorted(meets)))
        pairwise_meet = bottom_radical
        meets_equal_bottom = bottom_radical == lat.bottom
    else:
        pairwise_meet = None
        meets_equal_bottom = True
    return Decomposition(a, tuple(blocks), tuple(parts),
                         pairwise_meet, meets_equal_bottom, False)
