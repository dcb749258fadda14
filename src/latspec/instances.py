"""Instance generators: semiring ideals, divisor lattices, closure sublattices.

Ideals of a finite semiring are enumerated by closing upward from the
smallest ideal: extending a known ideal by one outside element and closing
again stays inside any ideal containing both, so every ideal is reached.
That keeps the cost proportional to the number of ideals rather than to
2^|A|, which matters for rings like the integers mod 60.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .adjunction import SupportDatum
from .errors import ClosureError, DatumError, LatticeError, SemiringError
from .lattice import FiniteIdealLattice, verify_axioms
from .report import Check, Report

MAX_SEMIRING_SIZE = 64
MAX_IDEALS = 4096
MAX_DIVISOR_MODULUS = 10 ** 12


class FiniteSemiring:
    """Finite semiring given by full addition and multiplication tables.

    Addition is commutative with neutral zero; multiplication has a
    two-sided unit.  Zero is not required to annihilate.
    """

    def __init__(self, names, add, mul, zero, one):
        self.names = tuple(str(x) for x in names)
        if not self.names:
            raise ValueError("a semiring needs at least one element")
        if len(set(self.names)) != len(self.names):
            raise ValueError("element names must be unique")
        n = len(self.names)
        self._add = self._table(add, n, "add")
        self._mul = self._table(mul, n, "mul")
        self.zero = int(zero)
        self.one = int(one)
        if not (0 <= self.zero < n and 0 <= self.one < n):
            raise ValueError("zero and one must be element indices")
        self._index = {name: i for i, name in enumerate(self.names)}
        self._validate()

    @staticmethod
    def _table(rows, n, what):
        table = tuple(tuple(int(v) for v in row) for row in rows)
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"{what} must be a {n}x{n} table")
        if any(v < 0 or v >= n for row in table for v in row):
            raise ValueError(f"{what} entries must be element indices")
        return table

    def _validate(self):
        n = self.n
        names = self.names
        for a in range(n):
            for b in range(n):
                if self._add[a][b] != self._add[b][a]:
                    raise SemiringError("addition is not commutative",
                                        (names[a], names[b]))
                for c in range(n):
                    if self._add[self._add[a][b]][c] != self._add[a][self._add[b][c]]:
                        raise SemiringError("addition is not associative",
                                            (names[a], names[b], names[c]))
                    if self._mul[self._mul[a][b]][c] != self._mul[a][self._mul[b][c]]:
                        raise SemiringError("multiplication is not associative",
                                            (names[a], names[b], names[c]))
                    if self._mul[a][self._add[b][c]] != self._add[self._mul[a][b]][self._mul[a][c]]:
                        raise SemiringError("left distributivity fails",
                                            (names[a], names[b], names[c]))
                    if self._mul[self._add[a][b]][c] != self._add[self._mul[a][c]][self._mul[b][c]]:
                        raise SemiringError("right distributivity fails",
                                            (names[a], names[b], names[c]))
        for a in range(n):
            if self._add[self.zero][a] != a:
                raise SemiringError("zero is not neutral for addition", (names[a],))
            if self._mul[self.one][a] != a or self._mul[a][self.one] != a:
                raise SemiringError("one is not a two-sided unit", (names[a],))

    @property
    def n(self):
        return len(self.names)

    def index(self, name):
        return self._index[name]

    def name(self, i):
        return self.names[i]

    def add(self, a, b):
        return self._add[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    @property
    def is_commutative(self):
        return all(self._mul[a][b] == self._mul[b][a]
                   for a in range(self.n) for b in range(self.n))

    def _key(self):
        return (self.names, self._add, self._mul, self.zero, self.one)

    def __eq__(self, other):
        return isinstance(other, FiniteSemiring) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FiniteSemiring({self.n} elements)"


def ideal_closure(ring, seed):
    """Smallest ideal containing ``seed``: zero, sums, two-sided absorption.

    Worklist closure: when an element is processed, its products with the
    whole semiring and its sums with everything admitted so far are added.
    Sums with later arrivals are covered when those are processed in turn,
    since addition is commutative.
    """
    current = set(seed)
    current.add(ring.zero)
    queue = list(current)
    while queue:
        x = queue.pop()
        for r in range(ring.n):
            for p in (ring.mul(x, r), ring.mul(r, x)):
                if p not in current:
                    current.add(p)
                    queue.append(p)
        for y in list(current):
            s = ring.add(x, y)
            if s not in current:
                current.add(s)
                queue.append(s)
    return frozenset(current)


def enumerate_ideals(ring):
    """Every ideal, in a deterministic order by size then members."""
    if ring.n > MAX_SEMIRING_SIZE:
        raise SemiringError(
            f"semiring has {ring.n} elements; the enumeration cap is {MAX_SEMIRING_SIZE}")
    least = ideal_closure(ring, ())
    seen = {least}
    frontier = [least]
    while frontier:
        base = frontier.pop()
        for x in range(ring.n):
            if x in base:
                continue
            grown = ideal_closure(ring, base | {x})
            if grown not in seen:
                if len(seen) >= MAX_IDEALS:
                    raise SemiringError(f"more than {MAX_IDEALS} ideals; giving up")
                seen.add(grown)
                frontier.append(grown)
    return tuple(sorted(seen, key=lambda s: (len(s), sorted(s))))


@dataclass(frozen=True)
class SemiringIdealLattice:
    """The ideal lattice of a semiring plus the ideal-subset dictionary."""

    ring: FiniteSemiring
    lattice: FiniteIdealLattice
    ideals: tuple


def semiring_ideal_lattice(ring):
    """All ideals under inclusion; the product is the ideal generated by the
    pairwise products.  Non-commutative inputs are accepted but rejected if
    the resulting lattice breaks an axiom."""
    ideals = enumerate_ideals(ring)
    position = {s: i for i, s in enumerate(ideals)}
    names = ["{" + ",".join(ring.names[x] for x in sorted(s)) + "}" for s in ideals]
    n = len(ideals)
    leq = [[ideals[i] <= ideals[j] for j in range(n)] for i in range(n)]
    mul = [[position[ideal_closure(ring, {ring.mul(x, y)
                                          for x in ideals[i] for y in ideals[j]})]
            for j in range(n)] for i in range(n)]
    top = position[frozenset(range(ring.n))]
    bottom = position[ideal_closure(ring, ())]
    lattice = FiniteIdealLattice(names, leq, mul, top, bottom)
    report = verify_axioms(lattice)
    if not report.ok:
        bad = report.failures()[0]
        raise SemiringError(f"ideal lattice fails {bad.name}", bad.witness)
    return SemiringIdealLattice(ring, lattice, ideals)


def divisor_lattice(n):
    """Ideals of the integers mod n: a divisor d stands for dZ.

    Containment reverses divisibility and the product of d and e is
    gcd(de, n).  Divisors come from a trial-division factorisation, so n is
    capped at MAX_DIVISOR_MODULUS (at most 10^6 trial divisors) and the
    divisor count at MAX_IDEALS.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > MAX_DIVISOR_MODULUS:
        raise LatticeError(f"modulus {n} exceeds the cap {MAX_DIVISOR_MODULUS}")
    divisors, rest, p = [1], n, 2
    while p * p <= rest:
        layer = divisors
        while rest % p == 0:
            rest //= p
            layer = [d * p for d in layer]
            divisors = divisors + layer
        p += 1
    if rest > 1:
        divisors += [d * rest for d in divisors]
    if len(divisors) > MAX_IDEALS:
        raise LatticeError(f"{n} has {len(divisors)} divisors; the cap is {MAX_IDEALS}")
    divisors.sort()
    position = {d: i for i, d in enumerate(divisors)}
    k = len(divisors)
    leq = [[divisors[i] % divisors[j] == 0 for j in range(k)] for i in range(k)]
    mul = [[position[gcd(divisors[i] * divisors[j], n)] for j in range(k)]
           for i in range(k)]
    return FiniteIdealLattice([str(d) for d in divisors], leq, mul,
                              position[1], position[n])


@dataclass(frozen=True)
class ClosureSystem:
    """A subset of a lattice meant to be meet-closed, directed-join-closed,
    and compatible with the product through its projection."""

    carrier: FiniteIdealLattice
    members: frozenset

    def __post_init__(self):
        for m in self.members:
            if not isinstance(m, int) or not 0 <= m < self.carrier.n:
                raise ValueError("members must be carrier element indices")
        if not self.members:
            raise ValueError("a closure system is non-empty")


def closure_projection(cs):
    """pi(a) = smallest member above a, for every carrier element."""
    lat = cs.carrier
    table = []
    for a in range(lat.n):
        above = [m for m in sorted(cs.members) if lat.leq(a, m)]
        if not above:
            raise ClosureError("no member above an element", (lat.names[a],))
        table.append(lat.meet(above))
    return tuple(table)


def verify_closure_system(cs):
    """Meet closure, directed-join closure, and the projection law."""
    lat = cs.carrier
    names = lat.names
    members = sorted(cs.members)
    checks = []

    meet_witness = None
    meet_note = ""
    if lat.top not in cs.members:
        meet_witness = ()
        meet_note = "top (the empty meet) is missing"
    else:
        for i, a in enumerate(members):
            if meet_witness is not None:
                break
            for b in members[i:]:
                g = lat.glb(a, b)
                if g is None or g not in cs.members:
                    meet_witness = (a, b)
                    break
        if meet_witness is None:
            meet_note = ("pairwise meets and the top give arbitrary meets "
                         "of a finite family")
    checks.append(Check("meet_closed", meet_witness is None,
                        tuple(names[i] for i in meet_witness) if meet_witness else None,
                        meet_note))
    meet_ok = meet_witness is None

    chain_witness = None
    for i, a in enumerate(members):
        if chain_witness is not None:
            break
        for b in members[i:]:
            if lat.leq(a, b) or lat.leq(b, a):
                j = lat.lub(a, b)
                if j is None or j not in cs.members:
                    chain_witness = (a, b)
                    break
    checks.append(Check("directed_join_closed", chain_witness is None,
                        tuple(names[i] for i in chain_witness) if chain_witness else None,
                        "automatic on finite lattices: a directed set contains "
                        "its supremum; chains are checked literally"))

    if meet_ok:
        pi = closure_projection(cs)
        pi_witness = None
        for a in range(lat.n):
            if pi_witness is not None:
                break
            for b in range(lat.n):
                expected = pi[lat.mul(a, b)]
                if (pi[lat.mul(a, pi[b])] != expected
                        or pi[lat.mul(pi[a], b)] != expected):
                    pi_witness = (a, b)
                    break
        checks.append(Check("projection_multiplicative", pi_witness is None,
                            tuple(names[i] for i in pi_witness) if pi_witness else None,
                            "pi(a pi(b)) = pi(ab) = pi(pi(a) b)"))
    else:
        checks.append(Check("projection_multiplicative", False, None,
                            "not evaluated: meet closure failed"))
    return Report(tuple(checks))


@dataclass(frozen=True)
class ClosureSublattice:
    """A closure system packaged as a lattice of its own.

    ``member_elements`` maps sublattice elements back to the carrier and
    ``projection`` sends each carrier element to its image in the sublattice.
    """

    system: ClosureSystem
    lattice: FiniteIdealLattice
    member_elements: tuple
    projection: tuple


def closure_sublattice(cs):
    """The members as a lattice: order restricted, product a.b = pi(ab)."""
    report = verify_closure_system(cs)
    if not report.ok:
        bad = report.failures()[0]
        raise ClosureError(f"closure system invalid: {bad.name}", bad.witness)
    lat = cs.carrier
    members = sorted(cs.members)
    slot = {m: i for i, m in enumerate(members)}
    pi = closure_projection(cs)
    k = len(members)
    names = [lat.names[m] for m in members]
    leq = [[lat.leq(members[i], members[j]) for j in range(k)] for i in range(k)]
    mul = [[slot[pi[lat.mul(members[i], members[j])]] for j in range(k)]
           for i in range(k)]
    sub = FiniteIdealLattice(names, leq, mul, slot[lat.top], slot[pi[lat.bottom]])
    sub_report = verify_axioms(sub)
    if not sub_report.ok:
        bad = sub_report.failures()[0]
        raise ClosureError(f"sublattice fails {bad.name}", bad.witness)
    return ClosureSublattice(cs, sub, tuple(members),
                             tuple(slot[pi[a]] for a in range(lat.n)))


@dataclass(frozen=True)
class ThickTensorLattice:
    """Thick tensor ideals of a semiring, as a closure sublattice of its
    ideal lattice, together with the generator map x -> <x>."""

    ring: FiniteSemiring
    ideal_lattice: SemiringIdealLattice
    sublattice: ClosureSublattice
    generators: tuple

    @property
    def lattice(self):
        return self.sublattice.lattice

    def thick_ideal(self, element):
        """The subset of ring elements forming the given thick ideal."""
        return self.ideal_lattice.ideals[self.sublattice.member_elements[element]]


def thick_tensor_lattice(ring, system):
    """Build the thick-ideal lattice for a closure system on the ideal lattice."""
    sil = semiring_ideal_lattice(ring)
    if system.carrier != sil.lattice:
        raise ClosureError("closure system must live on the ideal lattice of the semiring")
    sub = closure_sublattice(system)
    position = {s: i for i, s in enumerate(sil.ideals)}
    generators = tuple(sub.projection[position[ideal_closure(ring, (x,))]]
                       for x in range(ring.n))
    return ThickTensorLattice(ring, sil, sub, generators)


def support_datum_from_objects(thick, space, tau):
    """Translate an object-level support assignment into one on thick ideals.

    tau assigns a closed subset, as a point mask, to every ring element; it
    must agree with the union over the generated thick ideal, turn sums into
    unions, the unit into the whole space, and products into intersections.
    """
    ring = thick.ring
    values = tuple(tau)
    if len(values) != ring.n:
        raise ValueError("tau must cover every ring element")
    closeds = space.closed_sets()
    for x in range(ring.n):
        if values[x] not in closeds:
            raise DatumError("assigned set is not closed", (ring.names[x],))
    for x in range(ring.n):
        union = 0
        for y in thick.thick_ideal(thick.generators[x]):
            union |= values[y]
        if values[x] != union:
            raise DatumError("value differs from the union over the generated ideal",
                             (ring.names[x],))
    for x in range(ring.n):
        for y in range(ring.n):
            if values[ring.add(x, y)] != values[x] | values[y]:
                raise DatumError("value of a sum must be the union",
                                 (ring.names[x], ring.names[y]))
            if values[ring.mul(x, y)] != values[x] & values[y]:
                raise DatumError("value of a product must be the intersection",
                                 (ring.names[x], ring.names[y]))
    if values[ring.one] != space.full:
        raise DatumError("the unit must map to the whole space",
                         (ring.names[ring.one],))
    sigma = [None] * thick.lattice.n
    for x in range(ring.n):
        e = thick.generators[x]
        if sigma[e] is not None and sigma[e] != values[x]:
            raise DatumError("two generators of one ideal disagree",
                             (ring.names[x],))
        sigma[e] = values[x]
    missing = next((e for e in range(thick.lattice.n) if sigma[e] is None), None)
    if missing is not None:
        raise DatumError("thick ideal without a single generator",
                         (thick.lattice.names[missing],))
    return SupportDatum(thick.lattice, space, sigma)


def object_support_from_datum(thick, datum):
    """Pull a support datum on the thick lattice back to ring elements."""
    if datum.lattice != thick.lattice:
        raise DatumError("datum does not live on this thick lattice")
    return tuple(datum.assignment[thick.generators[x]] for x in range(thick.ring.n))
