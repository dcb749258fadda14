"""Seeded benchmark inputs, written without importing latspec.

Every workload is an endless sequence of rounds.  A round is a fixed list of
job slots, each slot naming a cost class, so every round has the same size
mix; the seed only changes which concrete inputs fill the slots (primes,
element labels, posets, maps, moduli).  Inputs never repeat within a run:
each job reads its own file, so no cache keyed on an input object can carry
over from one job to the next.

A job carries the facts its oracle needs (see ``oracles``).  Those facts come
from the construction here, never from latspec.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd, prod

import oracles

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


@dataclass
class Job:
    """One ``latspec.cli.main`` call: its argv, the files it reads, its oracle."""

    ident: str
    klass: str
    argv: list
    files: dict = field(default_factory=dict)  # file name -> bytes
    check: object = None  # check(code, stdout, stderr) -> None or a reason


# --------------------------------------------------------------------------
# divisor lattices


class Divisors:
    """Ideals of Z/n, one element per divisor d (the ideal dZ/nZ).

    Elements are in ascending numeric order, which is also the element index
    order of the file.  aZ is contained in bZ exactly when b divides a, so
    the top is 1, the bottom is n, the join is gcd and the meet is lcm.
    """

    def __init__(self, factors):
        self.factors = dict(sorted(factors.items()))
        self.primes = tuple(self.factors)
        self.n = prod(p ** e for p, e in self.factors.items())
        divs = [1]
        for p, e in self.factors.items():
            divs = [d * p ** k for d in divs for k in range(e + 1)]
        self.divs = sorted(divs)
        self.index = {d: i for i, d in enumerate(self.divs)}
        n = self.n
        self.mul = [[self.index[gcd(a * b, n)] for b in self.divs] for a in self.divs]

    def covers(self):
        """Pairs (a, b) of indices with b covering a, i.e. a = b * p."""
        out = []
        for i, a in enumerate(self.divs):
            for p in self.primes:
                if a % p == 0:
                    out.append((i, self.index[a // p]))
        return sorted(out)

    def source(self, covers=None, mul=None, mul_token=None):
        """Lattice file text; ``mul_token`` = (row, col, token) replaces one product."""
        return oracles.lattice_text([str(d) for d in self.divs], 0, len(self.divs) - 1,
                                    self.covers() if covers is None else covers,
                                    self.mul if mul is None else mul,
                                    header=f"# ideals of Z/{self.n}", mul_token=mul_token)


def _fresh_factors(rng, signature, used):
    """Distinct primes for the exponent signature, giving an unused modulus."""
    while True:
        chosen = rng.sample(PRIMES, len(signature))
        factors = dict(zip(chosen, signature))
        n = prod(p ** e for p, e in factors.items())
        if n not in used:
            used.add(n)
            return factors


# Exponent signatures by element count (the number of divisors).
SIGNATURES = {48: (3, 2, 1, 1), 60: (4, 2, 1, 1), 72: (3, 2, 2, 1),
              96: (3, 2, 1, 1, 1), 120: (4, 2, 1, 1, 1)}

# Each of the six commands three times, on four cheap lattices, nine of 72
# elements around the median, one of 96 and four of 120 around the 90th
# percentile.
DIVISOR_ROUND = ((48, "verify"), (72, "spec"), (120, "radical"), (72, "supp"),
                 (72, "classify"), (60, "decompose"), (72, "verify"), (60, "spec"),
                 (72, "radical"), (96, "supp"), (48, "classify"), (120, "decompose"),
                 (120, "verify"), (72, "spec"), (72, "radical"), (120, "supp"),
                 (72, "classify"), (72, "decompose"))


def divisor_cli_round(rng, tag, used, slots=DIVISOR_ROUND):
    jobs = []
    for slot, (size, command) in enumerate(slots):
        lat = Divisors(_fresh_factors(rng, SIGNATURES[size], used))
        name = f"{tag}-{slot:02d}.lat"
        argv = [command, name]
        if command in ("radical", "supp"):
            argv.append(str(rng.choice(lat.divs)))
        elif command == "decompose":
            argv.append(str(rng.choice([d for d in lat.divs
                                        if all(d % (p * p) for p in lat.primes)])))
        jobs.append(Job(f"{tag}-{slot:02d}", f"{command}@{size}", argv,
                        {name: lat.source().encode()},
                        oracles.divisor_command(lat, argv)))
    return jobs


# --------------------------------------------------------------------------
# broken lattices

# Four cheap jobs (parse errors, unit breaks), five of similar cost around the
# median and three at 120 elements around the 90th percentile.
BROKEN_ROUND = (("missing_join", 120, "verify"), ("malformed", 72, "verify"),
                ("product_interior", 120, "verify"), ("product_interior", 96, "verify"),
                ("product_unit", 96, "spec"), ("missing_join", 120, "spec"),
                ("product_bottom", 120, "spec"), ("product_bottom", 96, "verify"),
                ("malformed", 120, "spec"), ("product_interior", 96, "spec"),
                ("product_unit", 120, "verify"), ("product_interior", 120, "spec"))


def _band(rng, n, low, high):
    """An index drawn from the fixed fraction band [low, high) of n."""
    return rng.randrange(int(low * n), max(int(high * n), int(low * n) + 1))


def mutate(rng, lat, kind):
    """Apply one seeded mutation; return (text, facts for the oracle)."""
    n = len(lat.divs)
    if kind == "missing_join":
        # Drop the cover a < b = a / p.  When b has two prime factors other
        # than p, a and b have two minimal common upper bounds, so no join;
        # when n / a has one, the bottom still lies below b.
        def others(d, p):
            return sum(d % q == 0 for q in lat.primes if q != p)
        choices = [(a, b) for a, b in lat.covers()
                   if others(lat.divs[b], lat.divs[a] // lat.divs[b]) >= 2
                   and others(lat.n // lat.divs[a], lat.divs[a] // lat.divs[b]) >= 1]
        cover = choices[_band(rng, len(choices), 0.4, 0.6)]
        covers = [c for c in lat.covers() if c != cover]
        return lat.source(covers=covers), {"covers": covers, "mul": lat.mul}
    if kind == "malformed":
        row, col = rng.randrange(n), rng.randrange(n)
        token = f"{lat.divs[row]}*{lat.divs[col]}"
        line = 7 + row  # six lines precede the first product row
        return lat.source(mul_token=(row, col, token)), {"token": token, "line": line}
    # A changed entry (r, s) makes the distributivity scan stop at the
    # smaller of r and s, so a narrow band for it keeps the cost in a class.
    mul = [list(r) for r in lat.mul]
    top, bottom = 0, n - 1
    while True:
        s = _band(rng, n, 0.25, 0.28)
        if kind == "product_interior":
            r = _band(rng, n, 0.25, 0.35)
        elif kind == "product_unit":
            r = top
        else:  # product_bottom: a product with bottom that is not bottom
            r = bottom
        value = rng.choice([c for c in range(1, n - 1) if c != mul[r][s]])
        trial = [list(row) for row in mul]
        trial[r][s] = value
        if oracles.associativity_witness(trial, (r, s)) is not None:
            return lat.source(mul=trial), {"covers": lat.covers(), "mul": trial,
                                           "changed": (r, s)}


def broken_lattices_round(rng, tag, used, slots=BROKEN_ROUND):
    jobs = []
    for slot, (kind, size, command) in enumerate(slots):
        lat = Divisors(_fresh_factors(rng, SIGNATURES[size], used))
        name = f"{tag}-{slot:02d}.lat"
        text, facts = mutate(rng, lat, kind)
        jobs.append(Job(f"{tag}-{slot:02d}", f"{kind}:{command}@{size}",
                        [command, name], {name: text.encode()},
                        oracles.broken_command(lat, kind, command, name, facts)))
    return jobs


def non_utf8_probe(rng, tag, used):
    """Known-defect probe: a lattice file whose first name is not UTF-8."""
    jobs = []
    for slot, command in enumerate(("verify", "spec")):
        lat = Divisors(_fresh_factors(rng, SIGNATURES[48], used))
        name = f"{tag}-{slot:02d}.lat"
        data = lat.source().encode().replace(b"elements: 1 ", b"elements: \xff ", 1)
        jobs.append(Job(f"{tag}-{slot:02d}", f"non_utf8:{command}", [command, name],
                        {name: data}, oracles.input_error(None)))
    return jobs


# --------------------------------------------------------------------------
# finite spaces


def random_poset(rng, m, density):
    """Up-set masks of a random order on m points (i below j only if i < j)."""
    up = [1 << i for i in range(m)]
    for i in reversed(range(m)):
        for j in range(i + 1, m):
            if rng.random() < density:
                up[i] |= up[j]
    return up


def up_sets(m, up, limit):
    """All up-sets of the order as bitmasks, or None beyond ``limit``."""
    found = []

    def grow(i, current, excluded):
        if len(found) > limit:
            return
        if i == m:
            found.append(current)
            return
        if not up[i] & excluded:
            grow(i + 1, current | up[i], excluded)
        if not current >> i & 1:
            grow(i + 1, current, excluded | 1 << i)

    grow(0, 0, 0)
    return None if len(found) > limit else found


def split_work(m, opens):
    """Closed-set comparisons a sobriety check makes that, for each closed
    set c in (size, members) order, scans the closed sets a below c and
    then all closed sets b for a split c = a | b.

    This is the cost that varies most between spaces of one size, so a
    narrow band of it keeps a size class at a narrow cost.
    """
    full = (1 << m) - 1
    closed = oracles.sorted_masks(full ^ u for u in opens)
    work = 0
    for c in closed:
        for a in closed if c else ():
            work += 1
            if a & c == a and a != c:
                hit = next((i for i, b in enumerate(closed)
                            if b & c == b and b != c and a | b == c), None)
                work += len(closed) if hit is None else hit + 1
                if hit is not None:
                    break
    return work


# Topology jobs by command and class: points, opens band, split_work band.
# The small dual and openlattice jobs cost about the same.  Their narrow
# opens band keeps the median, which falls on them, steady across seeds.
SPACE_CLASSES = {"dual:small": (12, 53, 58, 28_000, 34_000),
                 "openlattice:small": (12, 53, 58, 16_000, 20_000),
                 "openlattice:mid": (16, 125, 140, 190_000, 240_000),
                 "dual:large": (20, 170, 210, 550_000, 700_000)}


def random_space(rng, klass):
    m, low, high, work_low, work_high = SPACE_CLASSES[klass]
    while True:
        up = random_poset(rng, m, rng.uniform(0.15, 0.45))
        opens = up_sets(m, up, high)
        if (opens is not None and len(opens) >= low
                and work_low <= split_work(m, opens) <= work_high):
            labels = rng.sample(range(100, 1000), m)
            return [f"p{x}" for x in labels], opens


def space_text(names, opens):
    def render(mask):
        return "{" + ",".join(names[i] for i in range(len(names)) if mask >> i & 1) + "}"
    return ("# finite space\npoints: " + " ".join(names) + "\nopens: "
            + " ".join(render(u) for u in opens) + "\n")


def support_datum(rng, num_primes, points, bijective=False):
    """A support datum pulled back from Spec* of a small divisor lattice.

    The space is a disjoint union of chains, one fibre per prime, so every
    fibre is clopen and the pulled-back assignment is closed.
    """
    signature = (2, 1, 1) if num_primes == 3 else (1, 1, 1, 1)
    lat = Divisors(dict(zip(rng.sample(PRIMES, num_primes), signature)))
    k = len(lat.primes)
    if bijective:
        mapping = rng.sample(range(k), k)
    else:
        mapping = [rng.randrange(k) for _ in range(points)]
    m = len(mapping)
    names = [f"x{v}" for v in rng.sample(range(10, 100), m)]
    opens = [0]
    for fibre in range(k):
        chain = [i for i in range(m) if mapping[i] == fibre]
        rng.shuffle(chain)
        steps, mask = [0], 0
        for i in chain:
            mask |= 1 << i
            steps.append(mask)
        opens = sorted({u | s for u in opens for s in steps})
    return lat, names, opens, mapping


def datum_files(tag, lat, names, opens, mapping):
    lat_name, space_name, datum_name = (f"{tag}.lat", f"{tag}.spc", f"{tag}.datum")
    sigma = []
    for d in lat.divs:
        support = [j for j, p in enumerate(lat.primes) if d % p]
        members = [names[i] for i, f in enumerate(mapping) if f in support]
        sigma.append(f"{d}={{{','.join(members)}}}")
    datum = (f"# support datum\nlattice: {lat_name}\nspace: {space_name}\n"
             f"sigma: {' '.join(sigma)}\n")
    files = {lat_name: lat.source().encode(),
             space_name: space_text(names, opens).encode(),
             datum_name: datum.encode()}
    return files, (lat_name, space_name, datum_name)


# Twenty-six topology jobs (twenty-four small ones around the median), one
# classifying job and five uniqueness searches around the 90th percentile.
SPACE_ROUND = ("dual:small", "openlattice:small", "adjoint", "dual:small",
               "openlattice:small", "classifying", "dual:small", "openlattice:small",
               "openlattice:mid", "dual:small", "openlattice:small", "adjoint",
               "dual:small", "openlattice:small", "dual:small", "openlattice:small",
               "dual:large", "dual:small", "openlattice:small", "adjoint", "dual:small",
               "openlattice:small", "dual:small", "openlattice:small", "adjoint",
               "dual:small", "openlattice:small", "dual:small", "openlattice:small",
               "adjoint", "dual:small", "openlattice:small")


def space_data_round(rng, tag, used, slots=SPACE_ROUND):
    jobs = []
    for slot, spec in enumerate(slots):
        ident = f"{tag}-{slot:02d}"
        command = spec.partition(":")[0]
        if command in ("dual", "openlattice"):
            while True:
                names, opens = random_space(rng, spec)
                key = (tuple(names), tuple(opens))
                if key not in used:
                    used.add(key)
                    break
            name = f"{ident}.spc"
            jobs.append(Job(ident, spec, [command, name],
                            {name: space_text(names, opens).encode()},
                            oracles.space_command(command, names, opens)))
        elif command == "adjoint":
            # 11 points over 3 primes: 3^11 = 177147 candidate maps, under
            # the default cap of 10^6.
            lat, names, opens, mapping = support_datum(rng, 3, 11)
            files, paths = datum_files(ident, lat, names, opens, mapping)
            jobs.append(Job(ident, spec, ["adjoint-check", *paths], files,
                            oracles.adjoint_check(lat, names, mapping)))
        else:
            bijective = rng.random() < 0.5
            lat, names, opens, mapping = support_datum(rng, rng.choice((3, 4)), 8,
                                                       bijective)
            files, paths = datum_files(ident, lat, names, opens, mapping)
            jobs.append(Job(ident, spec, ["classifying", paths[2]], files,
                            oracles.classifying(len(set(mapping)) == len(mapping)
                                                == len(lat.primes))))
    return jobs


# --------------------------------------------------------------------------
# semirings and gen divisor


def semiring_text(header, labels, one, add, mul):
    """The semiring format, element 0 being zero; ``add``/``mul`` act on indices."""
    pairs = [(a, b) for a in range(len(labels)) for b in range(len(labels))]
    adds = " ".join(f"{labels[a]}+{labels[b]}={labels[add(a, b)]}" for a, b in pairs)
    muls = " ".join(f"{labels[a]}*{labels[b]}={labels[mul(a, b)]}" for a, b in pairs)
    return (f"# {header}\nelements: {' '.join(labels)}\nzero: {labels[0]}\n"
            f"one: {labels[one]}\nadd: {adds}\nmul: {muls}\n")


def zn_semiring(n, labels):
    return semiring_text(f"Z/{n}", labels, 1 % n, lambda a, b: (a + b) % n,
                         lambda a, b: a * b % n)


def powerset_semiring(k, labels):
    """Subsets of k atoms as bitmasks, with union and intersection."""
    return semiring_text(f"subsets of {k} atoms", labels, (1 << k) - 1,
                         int.__or__, int.__and__)


def factorize(n):
    factors, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _rich_moduli():
    """Moduli in 10^6..10^7 with more than 300 divisors, the 5-7.5 * 10^6
    band with 300-420 divisors first (similar cost), then the rest."""
    found = []

    def extend(i, n, count):
        for j in range(i, len(PRIMES)):
            m, e = n, 0
            while m * PRIMES[j] <= 10 ** 7:
                m, e = m * PRIMES[j], e + 1
                if m >= 10 ** 6 and count * (e + 1) > 300:
                    found.append((m, count * (e + 1)))
                extend(j + 1, m, count * (e + 1))

    extend(0, 1, 1)
    band = sorted(m for m, t in found if 5 * 10 ** 6 <= m <= 7.5 * 10 ** 6 and t <= 420)
    return band, sorted(m for m, _ in found if m not in band)


RICH_MODULI = _rich_moduli()

# Z/n moduli with similar cost, grouped by class.
ZN_CLASSES = {"zn_small": (25, 26, 27, 29, 31), "zn_mid": (33, 34, 35, 38, 39),
              "zn_large": (54, 56)}

# Three cheap jobs, six gen divisor scans near 3 * 10^6 around the median, two
# larger semirings and three gen divisor jobs with >300 divisors around the
# 90th percentile.
INSTANCE_ROUND = ("divisor_plain", "zn_small", "divisor_rich", "divisor_plain",
                  "powerset_4", "zn_large", "divisor_plain", "divisor_rich",
                  "divisor_plain", "zn_mid", "powerset_5", "divisor_plain",
                  "divisor_rich", "divisor_plain")


def _labels(rng, count, used):
    """Element labels unique to this job: a fresh two-letter prefix."""
    while True:
        prefix = "".join(rng.choice("abcdefghijkmnpqrstuvwxyz") for _ in range(2))
        if prefix not in used:
            used.add(prefix)
            return [f"{prefix}{i}" for i in range(count)]


def _rich_modulus(rng, used):
    for pool in RICH_MODULI:
        fresh = [m for m in pool if m not in used]
        if fresh:
            n = rng.choice(fresh)
            used.add(n)
            return n
    raise RuntimeError("every gen divisor modulus with >300 divisors is used")


def _plain_modulus(rng, used):
    """A modulus near 3 * 10^6 with at most 48 divisors."""
    while True:
        n = rng.randrange(3_000_000, 3_300_000)
        factors = factorize(n)
        if n not in used and prod(e + 1 for e in factors.values()) <= 48:
            used.add(n)
            return n, factors


def instance_gen_round(rng, tag, used, slots=INSTANCE_ROUND):
    jobs = []
    for slot, klass in enumerate(slots):
        ident = f"{tag}-{slot:02d}"
        if klass.startswith("divisor"):
            if klass == "divisor_rich":
                n = _rich_modulus(rng, used)
                factors = factorize(n)
            else:
                n, factors = _plain_modulus(rng, used)
            jobs.append(Job(ident, klass, ["gen", "divisor", str(n)], {},
                            oracles.gen_divisor(Divisors(factors))))
            continue
        name = f"{ident}.sr"
        if klass.startswith("zn"):
            n = rng.choice(ZN_CLASSES[klass])
            labels = _labels(rng, n, used)
            text = zn_semiring(n, labels)
            check = oracles.gen_zn(n, labels)
        else:
            k = int(klass[-1])
            labels = _labels(rng, 1 << k, used)
            text = powerset_semiring(k, labels)
            check = oracles.gen_powerset(k, labels)
        jobs.append(Job(ident, klass, ["gen", "semiring", name], {name: text.encode()},
                        check))
    return jobs


ROUNDS = {"divisor_cli": divisor_cli_round, "broken_lattices": broken_lattices_round,
          "space_data": space_data_round, "instance_gen": instance_gen_round}
WORKLOADS = tuple(ROUNDS)


# The single slot of each workload's warm-up job.
WARMUP = {"divisor_cli": ((48, "verify"),), "broken_lattices": (("product_unit", 48, "spec"),),
          "space_data": ("dual:small",), "instance_gen": ("zn_small",)}


class JobSource:
    """The seeded round sequence of one workload, plus its warm-up job."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.used = set()
        self.round_no = 0

    def _rng(self, label):
        return random.Random(f"{self.workload}/{self.seed}/{label}")

    def warmup(self):
        """One small job of the workload, from a random stream of its own."""
        round_of = ROUNDS[self.workload]
        return round_of(self._rng("warmup"), "warmup", set(), WARMUP[self.workload])[0]

    def probes(self):
        """Known-defect probes, run outside the timed loop."""
        if self.workload != "broken_lattices":
            return []
        return non_utf8_probe(self._rng("probe"), "probe", set())

    def next_round(self):
        tag = f"r{self.round_no:03d}"
        round_of = ROUNDS[self.workload]
        jobs = round_of(self._rng(tag), tag, self.used)
        self.round_no += 1
        return jobs
