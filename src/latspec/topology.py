"""Finite topological spaces, lattice spectra, and Hochster duality.

A ``FiniteSpace`` stores its complete open family explicitly, and every set
of points is an int bitmask (bit i = point i).  On finite spaces
quasi-compactness is free, so the dual topology is simply the family of
closed sets, and dualising twice gives back the original space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LatticeError, SpaceError
from .lattice import (FiniteIdealLattice, _bits, prime_elements,
                      semiprime_elements, verify_axioms)
from .report import Check, Report


def point_names(names, subset):
    """Names of the points of a mask, in point order."""
    return [names[i] for i in _bits(subset)]


def set_name(names, subset):
    return "{" + ",".join(point_names(names, subset)) + "}"


def _mask_key(mask):
    """Order by size, then by the sorted member list."""
    return (mask.bit_count(), tuple(_bits(mask)))


def _family_violation(family):
    members = sorted(family, key=_mask_key)
    for u in members:
        for v in members:
            if u | v not in family:
                return "union", (u, v)
            if u & v not in family:
                return "intersection", (u, v)
    return None


class FiniteSpace:
    """Explicit finite topology on point masks; family laws are enforced at
    construction."""

    def __init__(self, names, opens):
        self.names = tuple(str(x) for x in names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("point names must be unique")
        n = len(self.names)
        family = frozenset(opens)
        for u in family:
            if not isinstance(u, int) or u < 0 or u >> n:
                raise ValueError("opens must be bitmasks of point indices")
        full = (1 << n) - 1
        if 0 not in family:
            raise SpaceError("the empty set must be open")
        if full not in family:
            raise SpaceError("the full point set must be open")
        violation = _family_violation(family)
        if violation is not None:
            kind, (u, v) = violation
            raise SpaceError(f"opens are not closed under {kind}",
                             (set_name(self.names, u), set_name(self.names, v)))
        self.opens = family
        self.n = n
        self.full = full
        # cl(x) is the complement of the union of the opens missing x
        avoid = [0] * n
        for u in family:
            for x in _bits(full ^ u):
                avoid[x] |= u
        self._closure = tuple(full ^ a for a in avoid)

    def closure(self, x):
        return self._closure[x]

    def sorted_opens(self):
        return sorted(self.opens, key=_mask_key)

    def closed_sets(self):
        return frozenset(self.full ^ u for u in self.opens)

    def sorted_closed_sets(self):
        return sorted(self.closed_sets(), key=_mask_key)

    def is_closed(self, subset):
        return self.full ^ subset in self.opens

    def _key(self):
        return (self.names, self.opens)

    def __eq__(self, other):
        return isinstance(other, FiniteSpace) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FiniteSpace({list(self.names)!r}, {len(self.opens)} opens)"


class ContinuousMap:
    """Point map whose open preimages are open; equality is pointwise."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = tuple(int(v) for v in mapping)
        if len(self.mapping) != source.n:
            raise ValueError("mapping must assign a value to every source point")
        if any(not 0 <= v < target.n for v in self.mapping):
            raise ValueError("mapping values must be target point indices")
        for u in target.sorted_opens():
            if self.preimage(u) not in source.opens:
                raise SpaceError("preimage of an open set is not open",
                                 (set_name(target.names, u),))

    def preimage(self, subset):
        return sum(1 << x for x, v in enumerate(self.mapping) if subset >> v & 1)

    def _key(self):
        return (self.source, self.target, self.mapping)

    def __eq__(self, other):
        return isinstance(other, ContinuousMap) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        points = ", ".join(f"{self.source.names[x]}->{self.target.names[v]}"
                           for x, v in enumerate(self.mapping))
        return f"ContinuousMap({points})"


def verify_spectral(space):
    """T0 plus sobriety; the compactness conditions are free on finite spaces.

    Lemma: on a finite space a non-empty closed set C is irreducible iff
    C = cl(x) for some x.  C is the finite union of the closures of its
    points, so an irreducible C is one of them; and a cover of cl(x) by two
    closed sets puts x, hence cl(x), inside one of them.  So both checks
    read the point closures only: T0 fails at the first pair x < y with
    cl(x) = cl(y), sobriety at the first such shared closure in sorted order.
    """
    generics = {}
    for x, c in enumerate(space._closure):
        generics.setdefault(c, []).append(x)
    shared = [xs for xs in generics.values() if len(xs) > 1]
    first = min(shared, default=None)
    t0 = None if first is None else (space.names[first[0]], space.names[first[1]])
    checks = [Check("t0", t0 is None, t0)]
    checks.append(Check("quasi_compact", True, None,
                        "automatic: the space is finite"))
    checks.append(Check("quasi_compact_open_basis", True, None,
                        "automatic: every open of a finite space is quasi-compact "
                        "and the family is intersection closed by construction"))
    sober = None
    note = ""
    if shared:
        xs = min(shared, key=lambda xs: _mask_key(space.closure(xs[0])))
        sober = (set_name(space.names, space.closure(xs[0])),)
        note = f"irreducible closed set with {len(xs)} generic points"
    checks.append(Check("sober", sober is None, sober, note))
    return Report(tuple(checks))


def is_spectral(space):
    return verify_spectral(space).ok


def _require_spectral(space):
    report = verify_spectral(space)
    if not report.ok:
        bad = report.failures()[0]
        raise SpaceError(f"space is not spectral: {bad.name}", bad.witness)


def _require_closed(space, subset):
    if not space.is_closed(subset):
        raise SpaceError("set is not closed", (set_name(space.names, subset),))


def irreducibility_witness(space, closed_set):
    """The first two proper closed subsets, in sorted-closed order, whose
    union is the set, or None if there are none (the empty set included)."""
    proper = [a for a in space.sorted_closed_sets()
              if a | closed_set == closed_set and a != closed_set]
    return next(((a, b) for a in proper for b in proper if a | b == closed_set),
                None)


def is_irreducible(space, closed_set):
    """Whether a closed set is a point closure; raises on a set not closed."""
    _require_closed(space, closed_set)
    return closed_set in space._closure


def generic_point(space, closed_set):
    """The unique point whose closure is the given irreducible closed set.

    Returns None when more than one point generates the set (only on
    non-T0 spaces).
    """
    _require_closed(space, closed_set)
    if not closed_set:
        raise SpaceError("the empty set is not irreducible")
    generics = [x for x in _bits(closed_set) if space.closure(x) == closed_set]
    if not generics:
        a, b = irreducibility_witness(space, closed_set)
        raise SpaceError("set is not irreducible",
                         (set_name(space.names, a), set_name(space.names, b)))
    return generics[0] if len(generics) == 1 else None


def spectrum_positions(lat):
    """Primes in element order together with their point positions."""
    primes = prime_elements(lat)
    return primes, {p: i for i, p in enumerate(primes)}


def support_points(lat, a):
    """supp(a) = D(a), the primes not above a, as a mask of spectrum points:
    bit i stands for the i-th prime in element order."""
    return sum(1 << i for i, p in enumerate(prime_elements(lat))
               if not lat.leq(a, p))


def zariski_spectrum(lat):
    """The space of primes with opens {D(a)}; raises on an invalid lattice.

    Built once per lattice and kept in its derived cache.
    """
    spectrum = lat._derived.get("spectrum")
    if spectrum is not None:
        return spectrum
    report = verify_axioms(lat)
    if not report.ok:
        bad = report.failures()[0]
        raise LatticeError(f"invalid lattice: {bad.name} fails", bad.witness)
    opens = {support_points(lat, a) for a in range(lat.n)}
    spectrum = FiniteSpace([lat.names[p] for p in prime_elements(lat)], opens)
    lat._derived["spectrum"] = spectrum
    return spectrum


def hochster_dual(space):
    """Same points, opens exchanged with closed sets; an involution."""
    _require_spectral(space)
    return FiniteSpace(space.names, space.closed_sets())


def open_lattice(space):
    """The opens under inclusion, with product = intersection."""
    _require_spectral(space)
    opens = space.sorted_opens()
    position = {u: i for i, u in enumerate(opens)}
    names = [set_name(space.names, u) for u in opens]
    leq = [[u & v == u for v in opens] for u in opens]
    mul = [[position[u & v] for v in opens] for u in opens]
    return FiniteIdealLattice(names, leq, mul, position[space.full], position[0])


def is_homeomorphism(f):
    """Bijective on points, with preimage a bijection between open families."""
    if sorted(set(f.mapping)) != list(range(f.target.n)):
        return False
    preimages = {f.preimage(u) for u in f.target.opens}
    return len(preimages) == len(f.target.opens) and preimages == f.source.opens


def canonical_homeomorphism(space):
    """x -> complement of closure(x), landing in the spectrum of the opens."""
    ol = open_lattice(space)
    spectrum = zariski_spectrum(ol)
    opens = space.sorted_opens()
    element_of = {u: i for i, u in enumerate(opens)}
    _, position = spectrum_positions(ol)
    mapping = []
    for x in range(space.n):
        element = element_of[space.full ^ space.closure(x)]
        if element not in position:
            raise SpaceError("complement of a point closure is not prime",
                             (space.names[x],))
        mapping.append(position[element])
    f = ContinuousMap(space, spectrum, mapping)
    if not is_homeomorphism(f):
        raise SpaceError("canonical comparison map is not a homeomorphism")
    return f


@dataclass(frozen=True)
class ClassificationTable:
    """Bijective pairing of the semiprime elements with subsets of a space,
    each subset a point mask."""

    lattice: FiniteIdealLattice
    space: FiniteSpace
    kind: str
    order: str
    pairs: tuple

    def __post_init__(self):
        values = [subset for _, subset in self.pairs]
        if len(set(values)) != len(values):
            raise LatticeError("classification is not injective")


def _check_monotone(lat, pairs, order, label):
    for a, va in pairs:
        for b, vb in pairs:
            if lat.leq(a, b):
                small, large = (vb, va) if order == "reversing" else (va, vb)
                if small | large != large:
                    raise LatticeError(f"{label} is not order {order}",
                                       (lat.names[a], lat.names[b]))


def closed_set_classification(lat):
    """Semiprimes <-> closed subsets of the spectrum via a -> V(a), Y -> inf Y."""
    spectrum = zariski_spectrum(lat)
    primes = prime_elements(lat)
    full = spectrum.full
    pairs = tuple((a, full ^ support_points(lat, a))
                  for a in semiprime_elements(lat))
    closeds = spectrum.closed_sets()
    if {v for _, v in pairs} != closeds:
        raise LatticeError("V does not hit every closed set exactly")
    for a, v in pairs:
        if lat.meet(primes[i] for i in _bits(v)) != a:
            raise LatticeError("inf V(a) differs from a", (lat.names[a],))
    for y in closeds:
        a = lat.meet(primes[i] for i in _bits(y))
        if full ^ support_points(lat, a) != y:
            raise LatticeError("V(inf Y) differs from Y",
                               (set_name(spectrum.names, y),))
    _check_monotone(lat, pairs, "reversing", "closed-set classification")
    return ClassificationTable(lat, spectrum, "closed", "reversing", pairs)


def _complement_classification(lat, space, family, kind):
    supports = [support_points(lat, b) for b in range(lat.n)]
    pairs = tuple((a, supports[a]) for a in semiprime_elements(lat))
    if {v for _, v in pairs} != family:
        raise LatticeError(f"{kind} classification misses part of the family")
    for a, value in pairs:
        if lat.join(b for b in range(lat.n) if supports[b] | value == value) != a:
            raise LatticeError(f"{kind} classification round trip differs from a",
                               (lat.names[a],))
    for y in family:
        a = lat.join(b for b in range(lat.n) if supports[b] | y == y)
        if supports[a] != y:
            raise LatticeError(f"{kind} classification round trip differs from Y",
                               (set_name(space.names, y),))
    _check_monotone(lat, pairs, "preserving", f"{kind} classification")
    return ClassificationTable(lat, space, kind, "preserving", pairs)


def open_set_classification(lat):
    """Semiprimes <-> open subsets of the spectrum via a -> D(a)."""
    spectrum = zariski_spectrum(lat)
    return _complement_classification(lat, spectrum, spectrum.opens, "open")


def support_classification(lat):
    """Semiprimes <-> closed subsets of the dual spectrum via a -> supp(a)."""
    dual = hochster_dual(zariski_spectrum(lat))
    return _complement_classification(lat, dual, dual.closed_sets(), "support")
