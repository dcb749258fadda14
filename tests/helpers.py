"""Corpus builders and independent oracles shared by the test modules."""

import itertools
from functools import lru_cache

import latspec as ls

ATOMS = "xyzwv"


# ---------------------------------------------------------------- semirings

def cyclic_semiring(n):
    names = [str(i) for i in range(n)]
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return ls.FiniteSemiring(names, add, mul, 0, 1 % n)


def boolean_semiring():
    return ls.FiniteSemiring(["0", "1"], [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1)


def union_semiring(k):
    """Powerset of k atoms with + = union and * = intersection."""
    subsets = sorted((frozenset(c) for r in range(k + 1)
                      for c in itertools.combinations(range(k), r)),
                     key=lambda s: (len(s), sorted(s)))
    position = {s: i for i, s in enumerate(subsets)}
    names = ["{" + ",".join(ATOMS[i] for i in sorted(s)) + "}" for s in subsets]
    n = len(subsets)
    add = [[position[subsets[i] | subsets[j]] for j in range(n)] for i in range(n)]
    mul = [[position[subsets[i] & subsets[j]] for j in range(n)] for i in range(n)]
    return ls.FiniteSemiring(names, add, mul,
                             position[frozenset()], position[frozenset(range(k))])


# ----------------------------------------------------------------- lattices

def powerset_lattice(k):
    """Subsets of k atoms ordered by inclusion, product = intersection."""
    subsets = sorted((frozenset(c) for r in range(k + 1)
                      for c in itertools.combinations(range(k), r)),
                     key=lambda s: (len(s), sorted(s)))
    position = {s: i for i, s in enumerate(subsets)}
    names = ["{" + ",".join(ATOMS[i] for i in sorted(s)) + "}" for s in subsets]
    n = len(subsets)
    leq = [[subsets[i] <= subsets[j] for j in range(n)] for i in range(n)]
    mul = [[position[subsets[i] & subsets[j]] for j in range(n)] for i in range(n)]
    return ls.FiniteIdealLattice(names, leq, mul,
                                 position[frozenset(range(k))], position[frozenset()])


CHAIN3_TEXT = """
elements: 0 a 1
leq: 0<a a<1
top: 1
bottom: 0
mul:
  0*0=0 0*a=0 0*1=0
  a*0=0 a*a=a a*1=a
  1*0=0 1*a=a 1*1=1
"""


def chain3_lattice():
    return ls.build_lattice(CHAIN3_TEXT)


def semiprime_sublattice_z12():
    carrier = ls.divisor_lattice(12)
    system = ls.ClosureSystem(carrier, frozenset(ls.semiprime_elements(carrier)))
    return ls.closure_sublattice(system).lattice


# ----------------------------------------------------- finite T0 topologies

def all_posets(n):
    """Every partial order on n labeled points, as boolean leq matrices."""
    pairs = list(itertools.combinations(range(n), 2))
    posets = []
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), state in zip(pairs, choice):
            if state == 1:
                leq[i][j] = True
            elif state == 2:
                leq[j][i] = True
        if all(not (leq[i][j] and leq[j][k]) or leq[i][k]
               for i in range(n) for j in range(n) for k in range(n)):
            posets.append(tuple(tuple(row) for row in leq))
    return posets


def up_sets(leq):
    """The up-sets of a preorder, as point masks."""
    n = len(leq)
    return [bits for bits in range(1 << n)
            if all(bits >> j & 1 for i in range(n) if bits >> i & 1
                   for j in range(n) if leq[i][j])]


@lru_cache(maxsize=None)
def t0_spaces(max_points):
    """Every finite T0 topology on up to max_points labeled points."""
    spaces = []
    for n in range(max_points + 1):
        names = [chr(ord("a") + i) for i in range(n)]
        for leq in all_posets(n):
            spaces.append(ls.FiniteSpace(names, up_sets(leq)))
    return spaces


# ------------------------------------------------------------------- corpus

@lru_cache(maxsize=None)
def corpus():
    """The instance corpus: (label, lattice) pairs."""
    items = []
    for n in range(1, 61):
        items.append((f"divisor({n})", ls.divisor_lattice(n)))
    for k in range(6):
        items.append((f"powerset({k})", powerset_lattice(k)))
    for i, space in enumerate(t0_spaces(4)):
        items.append((f"open_lattice(t0#{i})", ls.open_lattice(space)))
    for n in range(1, 13):
        items.append((f"ideals(Z/{n})",
                      ls.semiring_ideal_lattice(cyclic_semiring(n)).lattice))
    items.append(("ideals(bool)",
                  ls.semiring_ideal_lattice(boolean_semiring()).lattice))
    items.append(("semiprimes(Z/12)", semiprime_sublattice_z12()))
    return tuple(items)


@lru_cache(maxsize=None)
def small_lattices():
    """Distinct corpus-flavoured lattices with at most 6 elements."""
    seen = []
    pool = [ls.divisor_lattice(n) for n in (1, 2, 4, 6, 8, 9, 12, 16, 30)
            if len([d for d in range(1, n + 1) if n % d == 0]) <= 6]
    pool += [powerset_lattice(k) for k in range(3)]
    pool.append(chain3_lattice())
    pool += [ls.open_lattice(s) for s in t0_spaces(2)]
    for lat in pool:
        if lat.n <= 6 and lat not in seen:
            seen.append(lat)
    return tuple(seen)


def deleted_point_datum(lat):
    """Restrict (Spec* L, supp) to the subspace missing the last prime."""
    dual = ls.hochster_dual(ls.zariski_spectrum(lat))
    keep = (1 << dual.n - 1) - 1
    subspace = ls.FiniteSpace(dual.names[:-1], {u & keep for u in dual.opens})
    sigma = [ls.support_points(lat, a) & keep for a in range(lat.n)]
    return ls.SupportDatum(lat, subspace, sigma)


# ------------------------------------------------------------------ oracles

def ring_ideals_bruteforce(n):
    """Ideals of the integers mod n, by filtering all subsets."""
    ideals = []
    for bits in range(1 << n):
        subset = frozenset(i for i in range(n) if bits >> i & 1)
        if 0 not in subset:
            continue
        if any((x + y) % n not in subset for x in subset for y in subset):
            continue
        if any((x * r) % n not in subset for x in subset for r in range(n)):
            continue
        ideals.append(subset)
    return ideals


def ring_ideal_product(n, I, J):
    """Additive closure of the pairwise products, an ideal of Z/n."""
    current = {(x * y) % n for x in I for y in J} | {0}
    changed = True
    while changed:
        changed = False
        for x in list(current):
            for y in list(current):
                s = (x + y) % n
                if s not in current:
                    current.add(s)
                    changed = True
    return frozenset(current)


def semiring_ideals_bruteforce(ring):
    """Filter all subsets by the two ideal conditions."""
    out = []
    for bits in range(1 << ring.n):
        subset = frozenset(i for i in range(ring.n) if bits >> i & 1)
        if ring.zero not in subset:
            continue
        if any(ring.add(x, y) not in subset for x in subset for y in subset):
            continue
        if any(ring.mul(x, r) not in subset or ring.mul(r, x) not in subset
               for x in subset for r in range(ring.n)):
            continue
        out.append(subset)
    return out


def all_partitions(items):
    """Every partition of a list of distinct items, as lists of sets."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in all_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] | {first}] + partition[i + 1:]
        yield partition + [{first}]


def point_set(mask):
    """The point indices of a mask, as a frozenset."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def point_mask(points):
    return sum(1 << i for i in set(points))


def is_family_union(subset, family):
    return all(any(x in s and s <= subset for s in family) for x in subset)


def finest_partition_oracle(points, family):
    """Intersection over all valid partitions, per the defining description.

    Takes and returns point masks; works on point sets inside.
    """
    points = point_set(points)
    family = [point_set(s) for s in family]
    valid = [partition for partition in all_partitions(sorted(points))
             if all(block and is_family_union(frozenset(block), family)
                    for block in partition)]
    assert valid, "no partition into family unions exists"
    blocks = set()
    for x in points:
        meet = points
        for partition in valid:
            for block in partition:
                if x in block:
                    meet = meet & frozenset(block)
        blocks.add(point_mask(meet))
    return blocks


def random_preorder(rng, n, density):
    """A random reflexive, transitive leq matrix on n points."""
    leq = [[i == j or rng.random() < density for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                leq[i] = [a or b for a, b in zip(leq[i], leq[k])]
    return leq


def spectral_oracle(space):
    """(t0 witness, sober witness, sober note) from the definitions: points
    with equal open neighbourhoods, and the first non-empty closed set, in
    sorted order, that no two proper closed subsets cover and whose generic
    points are not exactly one."""
    opens = [point_set(u) for u in space.opens]
    t0 = next(((space.names[x], space.names[y]) for x in range(space.n)
               for y in range(x + 1, space.n)
               if all((x in u) == (y in u) for u in opens)), None)
    full = frozenset(range(space.n))
    closeds = sorted({full - u for u in opens}, key=lambda c: (len(c), sorted(c)))
    for c in closeds:
        proper = [a for a in closeds if a < c]
        if not c or any(a | b == c for a in proper for b in proper):
            continue
        generics = [x for x in sorted(c)
                    if frozenset.intersection(*(d for d in closeds if x in d)) == c]
        if len(generics) != 1:
            name = "{" + ",".join(space.names[i] for i in sorted(c)) + "}"
            return t0, (name,), f"irreducible closed set with {len(generics)} generic points"
    return t0, None, ""
