"""Lattice morphisms, spectrum and support data, universal maps.

The two datum kinds share one universal construction: send a point to the
join of everything whose assigned set misses it.  The resulting point is
always prime, and the assignment is recovered as a preimage.  ``adjunct_map``
and ``adjunct_morphism`` are the two directions of the contravariant
adjunction between lattices and spectral spaces.
"""

from __future__ import annotations

import itertools

from .errors import DatumError, MorphismError, SpaceError
from .report import Check, Report
from .topology import (ContinuousMap, hochster_dual, is_homeomorphism,
                       open_lattice, spectrum_positions,
                       support_points, verify_spectral, zariski_spectrum)


class LatticeMorphism:
    """Element map between lattices; the laws live in verify_morphism."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = tuple(int(v) for v in mapping)
        if len(self.mapping) != source.n:
            raise ValueError("mapping must assign a value to every source element")
        if any(not 0 <= v < target.n for v in self.mapping):
            raise ValueError("mapping values must be target element indices")

    def __call__(self, a):
        return self.mapping[a]

    def _key(self):
        return (self.source, self.target, self.mapping)

    def __eq__(self, other):
        return isinstance(other, LatticeMorphism) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"LatticeMorphism({self.mapping!r})"


def verify_morphism(phi):
    """Joins (including the empty one), the unit, and products must be preserved.

    Binary joins together with bottom give every finite join, so the binary
    check is complete at this scale.
    """
    src, tgt = phi.source, phi.target
    checks = []
    checks.append(Check("bottom_to_bottom", phi(src.bottom) == tgt.bottom,
                        None if phi(src.bottom) == tgt.bottom
                        else (src.names[src.bottom],),
                        "the empty join must be preserved"))
    checks.append(Check("top_to_top", phi(src.top) == tgt.top,
                        None if phi(src.top) == tgt.top else (src.names[src.top],)))
    joins = None
    for a in range(src.n):
        if joins is not None:
            break
        for b in range(a, src.n):
            j = src.lub(a, b)
            image = tgt.lub(phi(a), phi(b))
            if j is None or image is None or phi(j) != image:
                joins = (a, b)
                break
    checks.append(Check("binary_joins", joins is None,
                        tuple(src.names[i] for i in joins) if joins else None,
                        "with bottom_to_bottom this preserves all finite joins"))
    products = None
    for a in range(src.n):
        if products is not None:
            break
        for b in range(src.n):
            if phi(src.mul(a, b)) != tgt.mul(phi(a), phi(b)):
                products = (a, b)
                break
    checks.append(Check("products", products is None,
                        tuple(src.names[i] for i in products) if products else None))
    return Report(tuple(checks))


def _require_valid_morphism(phi):
    report = verify_morphism(phi)
    if not report.ok:
        bad = report.failures()[0]
        raise MorphismError(f"invalid morphism: {bad.name}", bad.witness)


def spec_of_morphism(phi):
    """The induced map on spectra, from the target's spectrum to the source's.

    A prime p goes to the join of everything whose image lies below p; the
    defining property D(phi(a)) = preimage of D(a) is verified exhaustively.
    """
    _require_valid_morphism(phi)
    src, tgt = phi.source, phi.target
    src_spectrum = zariski_spectrum(src)
    tgt_spectrum = zariski_spectrum(tgt)
    _, src_position = spectrum_positions(src)
    tgt_primes, _ = spectrum_positions(tgt)
    mapping = []
    for p in tgt_primes:
        q = src.join(a for a in range(src.n) if tgt.leq(phi(a), p))
        if q not in src_position:
            raise MorphismError("pullback of a prime is not prime",
                                (tgt.names[p],))
        mapping.append(src_position[q])
    f = ContinuousMap(tgt_spectrum, src_spectrum, mapping)
    for a in range(src.n):
        if support_points(tgt, phi(a)) != f.preimage(support_points(src, a)):
            raise MorphismError("D(phi(a)) differs from the preimage of D(a)",
                                (src.names[a],))
    return f


class _Datum:
    """Shared validation for spectrum and support data."""

    kind = ""

    def __init__(self, lattice, space, assignment):
        self.lattice = lattice
        self.space = space
        self.assignment = tuple(assignment)
        if len(self.assignment) != lattice.n:
            raise ValueError("assignment must cover every lattice element")
        self._validate()

    def _validate(self):
        raise NotImplementedError

    def _check_pairs(self, law):
        lat = self.lattice
        sigma = self.assignment
        for a in range(lat.n):
            for b in range(a, lat.n):
                j = lat.lub(a, b)
                if j is None:
                    raise DatumError("lattice lacks a join",
                                     (lat.names[a], lat.names[b]))
                if sigma[j] != sigma[a] | sigma[b]:
                    raise DatumError(f"{law} of a join must be the union",
                                     (lat.names[a], lat.names[b]))
        for a in range(lat.n):
            for b in range(lat.n):
                if sigma[lat.mul(a, b)] != sigma[a] & sigma[b]:
                    raise DatumError(f"{law} of a product must be the intersection",
                                     (lat.names[a], lat.names[b]))
        if sigma[lat.top] != self.space.full:
            raise DatumError(f"{law} of top must be the whole space")


class SpectrumDatum(_Datum):
    """Assignment of an open set to every element, turning arbitrary joins
    into unions and products into intersections."""

    kind = "delta"

    def _validate(self):
        lat, space = self.lattice, self.space
        for a in range(lat.n):
            if self.assignment[a] not in space.opens:
                raise DatumError("assigned set is not open", (lat.names[a],))
        if self.assignment[lat.bottom] != 0:
            raise DatumError("the empty join must map to the empty union",
                             (lat.names[lat.bottom],))
        # Binary joins plus the empty one give every join of a finite lattice.
        self._check_pairs("delta")


class SupportDatum(_Datum):
    """Assignment of a closed set to every element, turning joins into
    unions and products into intersections.

    Storing a value for every element is the compact restriction writ large:
    in a finite lattice every element is compact.  The empty-join instance
    sigma(bottom) = empty is enforced alongside the binary law: without it
    the universal map need not exist at all (a constant assignment would
    demand a point of an empty spectrum), and the tautological support
    always satisfies it.
    """

    kind = "sigma"

    def _validate(self):
        lat, space = self.lattice, self.space
        closeds = space.closed_sets()
        for a in range(lat.n):
            if self.assignment[a] not in closeds:
                raise DatumError("assigned set is not closed", (lat.names[a],))
        if self.assignment[lat.bottom] != 0:
            raise DatumError("the empty join must map to the empty union",
                             (lat.names[lat.bottom],))
        self._check_pairs("sigma")


def tautological_spectrum_datum(lat):
    """(Spec L, D): the universal spectrum datum."""
    return SpectrumDatum(lat, zariski_spectrum(lat),
                         [support_points(lat, a) for a in range(lat.n)])


def tautological_support_datum(lat):
    """(Spec* L, supp): the universal support datum."""
    return SupportDatum(lat, hochster_dual(zariski_spectrum(lat)),
                        [support_points(lat, a) for a in range(lat.n)])


def _universal_map(datum, target):
    lat = datum.lattice
    _, position = spectrum_positions(lat)
    mapping = []
    for x in range(datum.space.n):
        image = lat.join(c for c in range(lat.n)
                         if not datum.assignment[c] >> x & 1)
        if image not in position:
            raise DatumError("image point is not prime", (datum.space.names[x],))
        mapping.append(position[image])
    f = ContinuousMap(datum.space, target, mapping)
    for a in range(lat.n):
        if datum.assignment[a] != f.preimage(support_points(lat, a)):
            raise DatumError("preimage identity fails", (lat.names[a],))
    return f


def universal_spectrum_map(datum):
    """The unique map into Spec L pulling D back to the given assignment."""
    if not isinstance(datum, SpectrumDatum):
        raise TypeError("expected a SpectrumDatum")
    return _universal_map(datum, zariski_spectrum(datum.lattice))


def universal_support_map(datum):
    """The unique map into Spec* L pulling supp back to the given assignment."""
    if not isinstance(datum, SupportDatum):
        raise TypeError("expected a SupportDatum")
    return _universal_map(datum, hochster_dual(zariski_spectrum(datum.lattice)))


def adjunct_map(phi, space):
    """Turn a morphism into the opens of a space into a map to the spectrum."""
    _require_valid_morphism(phi)
    if phi.target != open_lattice(space):
        raise MorphismError("target must be the open-set lattice of the space")
    opens = space.sorted_opens()
    delta = [opens[phi(a)] for a in range(phi.source.n)]
    return universal_spectrum_map(SpectrumDatum(phi.source, space, delta))


def adjunct_morphism(f, lat):
    """Turn a map into the spectrum into a morphism to the open-set lattice."""
    if f.target != zariski_spectrum(lat):
        raise MorphismError("map must land in the spectrum of the lattice")
    ol = open_lattice(f.source)
    opens = f.source.sorted_opens()
    element_of = {u: i for i, u in enumerate(opens)}
    mapping = [element_of[f.preimage(support_points(lat, a))]
               for a in range(lat.n)]
    phi = LatticeMorphism(lat, ol, mapping)
    _require_valid_morphism(phi)
    return phi


def is_classifying(datum):
    """Whether the datum classifies the semiprimes by their assigned sets,
    that is, whether its universal map is a homeomorphism.

    Equivalently, the two classification assignments are mutually inverse
    bijections onto the closed subsets of the space; the test suite checks
    that this criterion agrees.
    """
    if not isinstance(datum, SupportDatum):
        raise TypeError("expected a SupportDatum")
    report = verify_spectral(datum.space)
    if not report.ok:
        bad = report.failures()[0]
        raise SpaceError(f"support datum space is not spectral: {bad.name}",
                         bad.witness)
    return is_homeomorphism(universal_support_map(datum))


def check_support_morphism(f, datum, other):
    """Morphism-of-data laws for f between two support data on one lattice."""
    if datum.lattice != other.lattice:
        raise MorphismError("support data live over different lattices")
    checks = []
    endpoints = f.source == datum.space and f.target == other.space
    checks.append(Check("endpoints", endpoints, None,
                        "" if endpoints else "map does not connect the two spaces"))
    witness = None
    if endpoints:
        lat = datum.lattice
        for a in range(lat.n):
            if datum.assignment[a] != f.preimage(other.assignment[a]):
                witness = (lat.names[a],)
                break
    checks.append(Check("preimage_identity", endpoints and witness is None, witness))
    both_classifying = (endpoints and witness is None
                        and verify_spectral(datum.space).ok
                        and verify_spectral(other.space).ok
                        and is_classifying(datum) and is_classifying(other))
    if both_classifying:
        checks.append(Check("homeomorphism", is_homeomorphism(f), None,
                            "required: both data are classifying"))
    else:
        checks.append(Check("homeomorphism", True, None,
                            "not applicable: data are not both classifying"))
    return Report(tuple(checks))


def preimage_uniqueness(datum, cap=1_000_000):
    """Search every candidate point map for a second preimage solution.

    The count of candidates is |Spec|^|points|; above ``cap`` the search is
    skipped with an explicit note, since the universal map is already known.

    A map solves the preimage identity exactly when it sends each point x to
    a prime j with {a : j in D(a)} = {a : x in assignment[a]}, so candidates
    are compared as tuples of these element masks, one per point.
    """
    lat = datum.lattice
    primes, _ = spectrum_positions(lat)
    points = [support_points(lat, a) for a in range(lat.n)]
    k, m = len(primes), datum.space.n
    total = k ** m
    if total > cap:
        return Check("uniqueness", True, None,
                     f"skipped: {total} candidate maps exceed the cap {cap}")
    owners = [sum(1 << a for a in range(lat.n) if points[a] >> j & 1)
              for j in range(k)]
    wanted = tuple(sum(1 << a for a in range(lat.n) if datum.assignment[a] >> x & 1)
                   for x in range(m))
    solutions = sum(1 for images in itertools.product(owners, repeat=m)
                    if images == wanted)
    return Check("uniqueness", solutions == 1, None,
                 f"checked {total} candidate maps, found {solutions} solution(s)")
