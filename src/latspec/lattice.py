"""Finite complete lattices carrying an associative product.

The product is not assumed commutative.  Elements are integer indices into
``names``; index order is the canonical order used for deterministic
witnesses and outputs.  ``FiniteIdealLattice`` performs only shape checks on
construction so that broken inputs can still be loaded and examined:
``verify_axioms`` reports on the actual axioms, and ``build_lattice`` (in
``sources``) refuses to return an invalid lattice.

Compactness-flavoured axioms hold automatically at this scale: every element
of a finite lattice is compact, because a join over a finite set is already
achieved by a finite subset.  The verification report states this instead of
brute-forcing it.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import LatticeError
from .report import Check, Report


def _bits(mask):
    """Indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lowest(mask):
    return (mask & -mask).bit_length() - 1


def _bound_table(masks):
    """``t[a][b]``: the element whose mask is ``masks[a] & masks[b]``.

    With up-sets as masks this is the least upper bound: in a reflexive,
    transitive order an upper bound x is below all the others exactly when
    its own up-set is the whole intersection.  Down-sets give the greatest
    lower bound.  Ties go to the smallest index; None marks a missing bound.
    """
    owner = {}
    for i, mask in enumerate(masks):
        owner.setdefault(mask, i)
    return tuple(tuple([owner.get(ma & mb) for mb in masks]) for ma in masks)


def _names(names, witness):
    return tuple(names[i] for i in witness) if witness is not None else None


def _reflexivity_witness(up):
    return next(((i,) for i, row in enumerate(up) if not row >> i & 1), None)


def _antisymmetry_witness(up, down):
    for i in range(len(up)):
        both = (up[i] & down[i]) >> (i + 1)
        if both:
            return (i, i + 1 + _lowest(both))
    return None


def _transitivity_witness(up):
    for i, row in enumerate(up):
        for j in _bits(row):
            missing = up[j] & ~row
            if missing:
                return (i, j, _lowest(missing))
    return None


class FiniteIdealLattice:
    """Finite lattice with a product table, unit = top, annihilating bottom.

    Only shapes are validated here; mathematical content is the business of
    ``verify_axioms``.  The order is kept as int-bitmask up-sets and
    down-sets, and the join and meet tables are built from them once, at
    construction (None where a bound is missing).  Instances are immutable
    after construction and safe to share between threads; other derived data
    (primes, radicals, the axiom report) is cached on first use.
    """

    def __init__(self, names, leq, mul, top, bottom):
        self.names = tuple(str(x) for x in names)
        if not self.names:
            raise ValueError("a lattice needs at least one element")
        if len(set(self.names)) != len(self.names):
            raise ValueError("element names must be unique")
        n = len(self.names)
        rows = [[bool(v) for v in row] for row in leq]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"leq must be a {n}x{n} matrix")
        table = tuple(tuple(int(v) for v in row) for row in mul)
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"mul must be a {n}x{n} table")
        if any(v < 0 or v >= n for row in table for v in row):
            raise ValueError("mul entries must be element indices")
        self._mul = table
        self.top = int(top)
        self.bottom = int(bottom)
        if not (0 <= self.top < n and 0 <= self.bottom < n):
            raise ValueError("top and bottom must be element indices")
        self._index = {name: i for i, name in enumerate(self.names)}
        self._up = tuple(sum(1 << j for j, v in enumerate(row) if v) for row in rows)
        self._down = tuple(sum(1 << i for i, row in enumerate(rows) if row[j])
                           for j in range(n))
        self._join = _bound_table(self._up)
        self._meet = _bound_table(self._down)
        self._derived = {}

    @property
    def n(self):
        return len(self.names)

    def index(self, name):
        return self._index[name]

    def name(self, i):
        return self.names[i]

    def leq(self, a, b):
        return bool(self._up[a] >> b & 1)

    def mul(self, a, b):
        return self._mul[a][b]

    def lub(self, a, b):
        return self._join[a][b]

    def glb(self, a, b):
        return self._meet[a][b]

    def join(self, elements):
        """Least upper bound of any iterable; the empty join is bottom."""
        result = self.bottom
        for e in elements:
            step = self._join[result][e]
            if step is None:
                raise LatticeError("missing join",
                                   (self.names[result], self.names[e]))
            result = step
        return result

    def meet(self, elements):
        """Greatest lower bound of any iterable; the empty meet is top."""
        result = self.top
        for e in elements:
            step = self._meet[result][e]
            if step is None:
                raise LatticeError("missing meet",
                                   (self.names[result], self.names[e]))
            result = step
        return result

    def covers(self):
        """Pairs (a, b) with b covering a: a < b and nothing in between."""
        up, down = self._up, self._down
        return [(a, b) for a in range(self.n) for b in _bits(up[a])
                if a != b and up[a] & down[b] == (1 << a) | (1 << b)]

    def _key(self):
        return (self.names, self._up, self._mul, self.top, self.bottom)

    def __eq__(self, other):
        return (isinstance(other, FiniteIdealLattice)
                and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"FiniteIdealLattice({self.n} elements, "
                f"top={self.names[self.top]!r}, bottom={self.names[self.bottom]!r})")


def _composer(indices):
    """The map taking a row ``r`` to the tuple of ``r[i]`` for i in ``indices``."""
    get = itemgetter(*indices)
    return get if len(indices) > 1 else lambda row: (get(row),)


def _law_witness(n, sides):
    """First (a, b, c), in index order, at which a law's two sides differ.

    ``sides(a, b)`` gives both sides as equally long tuples of rows indexed
    by c, so whole rows are compared at once.
    """
    for a in range(n):
        for b in range(n):
            left, right = sides(a, b)
            if left != right:
                return (a, b, next(c for c in range(n)
                                   if any(x[c] != y[c] for x, y in zip(left, right))))
    return None


def verify_axioms(lat):
    """Check the lattice axioms, one report entry per axiom.

    Witnesses are the lexicographically smallest offending tuples in element
    index order, so repeated runs produce identical diagnostics.
    """
    cached = lat._derived.get("axiom_report")
    if cached is not None:
        return cached

    n = lat.n
    names = lat.names
    up, down, join, mul = lat._up, lat._down, lat._join, lat._mul
    checks = []

    refl = _reflexivity_witness(up)
    checks.append(Check("order_reflexive", refl is None, _names(names, refl)))
    antisym = _antisymmetry_witness(up, down)
    checks.append(Check("order_antisymmetric", antisym is None, _names(names, antisym)))
    trans = _transitivity_witness(up)
    checks.append(Check("order_transitive", trans is None, _names(names, trans)))
    order_ok = refl is None and antisym is None and trans is None

    l1_witness = None
    l1_note = ""
    bounded = up[lat.bottom] & down[lat.top]
    bad_bound = next(((a,) for a in range(n) if not bounded >> a & 1), None)
    if bad_bound is not None:
        l1_witness = bad_bound
        l1_note = "declared top/bottom are not greatest/least"
    elif order_ok:
        l1_witness = next(((a, b) for a in range(n) for b in range(a + 1, n)
                           if join[a][b] is None or lat._meet[a][b] is None), None)
        if l1_witness is not None:
            l1_note = ("pair without a least upper bound"
                       if join[l1_witness[0]][l1_witness[1]] is None
                       else "pair without a greatest lower bound")
    else:
        l1_witness = refl or antisym or trans
        l1_note = "not evaluated in full: leq is not a partial order"
    if l1_witness is None:
        l1_note = ("all pairwise joins and meets exist; together with top and "
                   "bottom this yields every join and meet of a finite lattice")
    l1_ok = l1_witness is None
    checks.append(Check("L1_complete", l1_ok, _names(names, l1_witness), l1_note))

    checks.append(Check("L2_compactly_generated", l1_ok, None,
                        "automatic given L1: every element of a finite lattice is compact"))

    # then_mul[b](r) is the row of r[bc] over c: (ab)c against a(bc)
    then_mul = [_composer(row) for row in mul]
    assoc = _law_witness(n, lambda a, b: ((mul[mul[a][b]],), (then_mul[b](mul[a]),)))
    checks.append(Check("mul_associative", assoc is None, _names(names, assoc)))

    if l1_ok:
        column = tuple(zip(*mul))
        then_join = [_composer(row) for row in join]
        then_column = [_composer(col) for col in column]

        def sides(a, b):
            # a(b v c) against ab v ac, and (b v c)a against ba v ca, over c
            row, col = mul[a], column[a]
            return ((then_join[b](row), then_join[b](col)),
                    (then_mul[a](join[row[b]]), then_column[a](join[col[b]])))

        dist = _law_witness(n, sides)
        checks.append(Check("L3_distributive", dist is None, _names(names, dist),
                            "" if dist is None else
                            "a(b v c) = ab v ac or (b v c)a = ba v ca fails"))
    else:
        checks.append(Check("L3_distributive", False, None,
                            "not evaluated: L1 failed"))

    z = lat.bottom
    annihilated = next(((a,) for a in range(n)
                        if mul[z][a] != z or mul[a][z] != z), None)
    checks.append(Check("L3_nullary_annihilation", annihilated is None,
                        _names(names, annihilated),
                        "bottom must annihilate: the empty-join instance of L3"))

    t = lat.top
    unit = next(((a,) for a in range(n)
                 if mul[t][a] != a or mul[a][t] != a), None)
    checks.append(Check("L4_unit", unit is None, _names(names, unit),
                        "top is compact automatically (finite)" if unit is None else ""))

    checks.append(Check("L5_compact_products", l1_ok, None,
                        "automatic given L1: products of compact elements are compact"))

    report = Report(tuple(checks))
    lat._derived["axiom_report"] = report
    return report


def prime_violation(lat, p):
    """First pair (a, b) with ab <= p but neither a <= p nor b <= p."""
    below = lat._down[p]
    outside = [x for x in range(lat.n) if not below >> x & 1]
    for a in outside:
        row = lat._mul[a]
        for b in outside:
            if below >> row[b] & 1:
                return (a, b)
    return None


def is_prime(lat, p):
    return p != lat.top and prime_violation(lat, p) is None


def prime_elements(lat):
    """All prime elements, in element order."""
    cached = lat._derived.get("primes")
    if cached is None:
        cached = tuple(p for p in range(lat.n) if is_prime(lat, p))
        lat._derived["primes"] = cached
    return cached


def primes_above(lat, a):
    """V(a): the primes above a, closed in the spectrum topology."""
    return tuple(p for p in prime_elements(lat) if lat.leq(a, p))


def primes_not_above(lat, a):
    """D(a): the primes not above a, open in the spectrum topology."""
    return tuple(p for p in prime_elements(lat) if not lat.leq(a, p))


def radical(lat, a):
    """Smallest semiprime above a: the meet of all primes above a."""
    table = lat._derived.get("radical")
    if table is None:
        spec = prime_elements(lat)
        table = tuple(lat.meet([p for p in spec if lat.leq(b, p)])
                      for b in range(lat.n))
        lat._derived["radical"] = table
    return table[a]


def is_semiprime(lat, a):
    return radical(lat, a) == a


def semiprime_elements(lat):
    return tuple(a for a in range(lat.n) if is_semiprime(lat, a))


def prime_avoidance(lat, a, avoid):
    """A prime above ``a`` that avoids the multiplicative set ``avoid``.

    Returns None when some member of the set already sits below ``a``.
    Among the maximal avoiding elements above ``a`` (all of which are prime)
    the one with the smallest index is returned, so the choice is
    deterministic.
    """
    members = tuple(dict.fromkeys(avoid))
    if not members:
        raise LatticeError("the multiplicative set is empty")
    member_set = frozenset(members)
    for s in members:
        for t in members:
            if lat.mul(s, t) not in member_set:
                raise LatticeError("set is not multiplicative",
                                   (lat.names[s], lat.names[t]))
    if any(lat.leq(s, a) for s in members):
        return None
    candidates = [x for x in range(lat.n)
                  if lat.leq(a, x) and not any(lat.leq(s, x) for s in members)]
    maximal = [x for x in candidates
               if not any(y != x and lat.leq(x, y) for y in candidates)]
    best = min(maximal)
    if not is_prime(lat, best):
        raise LatticeError("maximal avoiding element is not prime",
                           (lat.names[best],))
    return best
