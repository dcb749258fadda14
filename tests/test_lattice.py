import itertools

import pytest

import latspec as ls
from helpers import (chain3_lattice, powerset_lattice, ring_ideal_product,
                     ring_ideals_bruteforce)


def divisor_ideal(d, n):
    return frozenset(x for x in range(n) if x % d == 0)


class TestDivisorLatticeAgainstRingIdeals:
    """divisor_lattice(12) checked element by element against the ideals of
    the ring of integers mod 12, enumerated by brute force."""

    def test_elements_match_ideals(self):
        lat = ls.divisor_lattice(12)
        ideals = set(ring_ideals_bruteforce(12))
        assert {divisor_ideal(int(name), 12) for name in lat.names} == ideals
        assert lat.n == len(ideals) == 6

    def test_order_is_inclusion(self):
        lat = ls.divisor_lattice(12)
        for a in range(lat.n):
            for b in range(lat.n):
                inc = divisor_ideal(int(lat.names[a]), 12) <= divisor_ideal(int(lat.names[b]), 12)
                assert lat.leq(a, b) == inc

    def test_product_matches_ideal_product(self):
        lat = ls.divisor_lattice(12)
        for a in range(lat.n):
            for b in range(lat.n):
                expected = ring_ideal_product(12, divisor_ideal(int(lat.names[a]), 12),
                                              divisor_ideal(int(lat.names[b]), 12))
                assert divisor_ideal(int(lat.names[lat.mul(a, b)]), 12) == expected

    def test_axioms_pass(self):
        assert ls.verify_axioms(ls.divisor_lattice(12)).ok


class TestJoinMeet:
    def test_empty_join_and_meet(self):
        lat = ls.divisor_lattice(12)
        assert lat.join([]) == lat.bottom
        assert lat.meet([]) == lat.top

    def test_z12_join_4_6(self):
        lat = ls.divisor_lattice(12)
        assert lat.names[lat.join([lat.index("4"), lat.index("6")])] == "2"

    def test_z12_meet_2_3(self):
        lat = ls.divisor_lattice(12)
        assert lat.names[lat.meet([lat.index("2"), lat.index("3")])] == "6"


class TestPrimes:
    def test_z12_spec(self):
        lat = ls.divisor_lattice(12)
        assert [lat.names[p] for p in ls.prime_elements(lat)] == ["2", "3"]

    def test_top_is_never_prime(self):
        lat = ls.divisor_lattice(12)
        assert not ls.is_prime(lat, lat.top)

    def test_z12_six_not_prime_with_witness(self):
        lat = ls.divisor_lattice(12)
        six = lat.index("6")
        assert not ls.is_prime(lat, six)
        a, b = ls.prime_violation(lat, six)
        assert (lat.names[a], lat.names[b]) == ("2", "3")

    def test_one_element_lattice_empty_spectrum(self):
        lat = ls.FiniteIdealLattice(["*"], [[True]], [[0]], 0, 0)
        assert ls.verify_axioms(lat).ok
        assert ls.prime_elements(lat) == ()

    def test_powerset_primes_are_coatoms(self):
        lat = powerset_lattice(3)
        names = [lat.names[p] for p in ls.prime_elements(lat)]
        assert names == ["{x,y}", "{x,z}", "{y,z}"]

    def test_prime_agrees_on_compact_pairs(self):
        # every element is compact here, so the two readings must coincide
        lat = ls.divisor_lattice(60)
        for p in range(lat.n):
            full = p != lat.top and ls.prime_violation(lat, p) is None
            assert ls.is_prime(lat, p) == full


class TestRadical:
    def test_z12_values(self):
        lat = ls.divisor_lattice(12)
        assert lat.names[ls.radical(lat, lat.index("4"))] == "2"
        assert lat.names[ls.radical(lat, lat.top)] == "1"
        assert lat.names[ls.radical(lat, lat.index("12"))] == "6"
        assert not ls.is_semiprime(lat, lat.index("12"))

    def test_z12_semiprimes(self):
        lat = ls.divisor_lattice(12)
        assert [lat.names[a] for a in ls.semiprime_elements(lat)] == ["1", "2", "3", "6"]

    @pytest.mark.parametrize("make", [
        lambda: ls.divisor_lattice(12),
        lambda: ls.divisor_lattice(60),
        lambda: powerset_lattice(3),
        chain3_lattice,
    ])
    def test_radical_algebra(self, make):
        lat = make()
        for a in range(lat.n):
            assert lat.leq(a, ls.radical(lat, a))
            assert ls.radical(lat, ls.radical(lat, a)) == ls.radical(lat, a)
        for a in range(lat.n):
            for b in range(lat.n):
                if lat.leq(a, b):
                    assert lat.leq(ls.radical(lat, a), ls.radical(lat, b))
                ab, ba = lat.mul(a, b), lat.mul(b, a)
                both = set(ls.primes_above(lat, a)) | set(ls.primes_above(lat, b))
                expected = lat.meet(sorted(both))
                assert ls.radical(lat, ab) == expected == ls.radical(lat, ba)

    @pytest.mark.parametrize("make", [
        lambda: ls.divisor_lattice(12),
        lambda: powerset_lattice(3),
        chain3_lattice,
    ])
    def test_semiprime_iff_meet_of_primes(self, make):
        lat = make()
        primes = ls.prime_elements(lat)
        meets = {lat.meet(c) for r in range(len(primes) + 1)
                 for c in itertools.combinations(primes, r)}
        for a in range(lat.n):
            assert ls.is_semiprime(lat, a) == (a in meets)


class TestVSets:
    def test_z12(self):
        lat = ls.divisor_lattice(12)
        v4 = [lat.names[p] for p in ls.primes_above(lat, lat.index("4"))]
        assert v4 == ["2"]
        assert len(ls.primes_above(lat, lat.bottom)) == 2
        assert len(ls.primes_not_above(lat, lat.top)) == 2

    def test_v_of_join_and_product(self):
        lat = ls.divisor_lattice(60)
        for a in range(lat.n):
            for b in range(lat.n):
                va = set(ls.primes_above(lat, a))
                vb = set(ls.primes_above(lat, b))
                assert set(ls.primes_above(lat, lat.join([a, b]))) == va & vb
                assert set(ls.primes_above(lat, lat.mul(a, b))) == va | vb
                d = set(ls.primes_not_above(lat, a))
                assert d == set(ls.prime_elements(lat)) - va


class TestPrimeAvoidance:
    def test_z12_example(self):
        lat = ls.divisor_lattice(12)
        p = ls.prime_avoidance(lat, lat.index("4"), [lat.index("3")])
        assert lat.names[p] == "2"

    def test_bottom_against_top(self):
        lat = ls.divisor_lattice(12)
        p = ls.prime_avoidance(lat, lat.bottom, [lat.top])
        assert lat.names[p] == "2"  # smallest-index maximal avoiding element

    def test_absent_when_member_below(self):
        # {4} is multiplicative since 4*4 = gcd(16, 12) = 4, and 4 <= 2
        lat = ls.divisor_lattice(12)
        assert ls.prime_avoidance(lat, lat.index("2"), [lat.index("4")]) is None

    def test_rejects_non_multiplicative(self):
        lat = ls.divisor_lattice(12)
        with pytest.raises(ls.LatticeError) as err:
            ls.prime_avoidance(lat, lat.bottom, [lat.index("2"), lat.index("3")])
        assert err.value.witness == ("2", "2")  # 2*2 = 4 escapes the set

    def test_rejects_empty(self):
        lat = ls.divisor_lattice(12)
        with pytest.raises(ls.LatticeError):
            ls.prime_avoidance(lat, lat.bottom, [])


def _missing_join_lattice():
    uppers = {
        0: {0, 1, 2, 3, 4, 5},
        1: {1, 3, 4, 5},
        2: {2, 3, 4, 5},
        3: {3, 5},
        4: {4, 5},
        5: {5},
    }
    names = ["0", "x", "y", "u", "v", "1"]
    leq = [[j in uppers[i] for j in range(6)] for i in range(6)]
    mul = [[0] * 6 for _ in range(6)]
    return ls.FiniteIdealLattice(names, leq, mul, 5, 0)


class TestVerifyAxioms:
    def test_chain3_all_pass(self):
        report = ls.verify_axioms(chain3_lattice())
        assert report.ok
        assert report.check("L2_compactly_generated").note.startswith("automatic")
        assert report.check("L5_compact_products").passed

    def test_missing_join_reported(self):
        report = ls.verify_axioms(_missing_join_lattice())
        check = report.check("L1_complete")
        assert not check.passed
        assert check.witness == ("x", "y")
        assert not report.check("L2_compactly_generated").passed
        assert not report.check("L3_distributive").passed

    def test_broken_unit_reported(self):
        lat = ls.FiniteIdealLattice(["0", "1"], [[True, True], [False, True]],
                                    [[0, 0], [0, 0]], 1, 0)
        report = ls.verify_axioms(lat)
        assert not report.check("L4_unit").passed
        assert report.check("L4_unit").witness == ("1",)

    def test_broken_annihilation_reported(self):
        lat = ls.FiniteIdealLattice(["0", "1"], [[True, True], [False, True]],
                                    [[0, 1], [1, 1]], 1, 0)
        report = ls.verify_axioms(lat)
        assert not report.check("L3_nullary_annihilation").passed

    def test_antisymmetry_violation_reported(self):
        leq = [[True, True], [True, True]]
        lat = ls.FiniteIdealLattice(["a", "b"], leq, [[0, 1], [1, 1]], 1, 0)
        report = ls.verify_axioms(lat)
        assert not report.check("order_antisymmetric").passed
        assert report.check("order_antisymmetric").witness == ("a", "b")


DISTRIBUTIVITY_FAILURE_TEXT = """
elements: 0 b c 1
leq: 0<b 0<c b<1 c<1
top: 1
bottom: 0
mul:
  0*0=0 0*b=0 0*c=0 0*1=0
  b*0=0 b*b=0 b*c=0 b*1=b
  c*0=0 c*b=0 c*c=0 c*1=c
  1*0=0 1*b=b 1*c=c 1*1=1
"""


class TestBuildLattice:
    def test_chain3_meet_product(self):
        lat = chain3_lattice()
        assert lat.names[lat.top] == "1"
        assert lat.names[lat.bottom] == "0"
        assert lat.mul(lat.index("a"), lat.index("a")) == lat.index("a")

    def test_distributivity_failure_witness(self):
        with pytest.raises(ls.LatticeError) as err:
            ls.build_lattice(DISTRIBUTIVITY_FAILURE_TEXT)
        assert "L3_distributive" in str(err.value)
        assert err.value.witness == ("b", "b", "c")

    def test_covering_pairs_are_saturated(self):
        lat = chain3_lattice()
        assert lat.leq(lat.index("0"), lat.index("1"))

    def test_divisor_description_round_trip(self):
        lat = ls.divisor_lattice(12)
        again = ls.build_lattice(ls.lattice_source(lat))
        assert again == lat


SMALL_CORPUS = [
    ("z12", lambda: ls.divisor_lattice(12)),
    ("powerset2", lambda: powerset_lattice(2)),
    ("powerset3", lambda: powerset_lattice(3)),
    ("chain3", chain3_lattice),
]

ORDER_CYCLE_TEXT = """
elements: 0 a b 1
leq: 0<a a<b b<a b<1
top: 1
bottom: 0
mul:
  0*0=0 0*a=0 0*b=0 0*1=0
  a*0=0 a*a=a a*b=a a*1=a
  b*0=0 b*a=a b*b=b b*1=b
  1*0=0 1*a=a 1*b=b 1*1=1
"""


@pytest.mark.parametrize("make", [m for _, m in SMALL_CORPUS],
                         ids=[label for label, _ in SMALL_CORPUS])
def test_ideals_are_the_principal_down_sets(make):
    """Ideal completion is the identity at finite scale: the non-empty,
    downward-closed, join-closed subsets are exactly the principal down-sets."""
    lat = make()
    n = lat.n
    ideals = set()
    for bits in range(1, 1 << n):
        subset = frozenset(i for i in range(n) if bits >> i & 1)
        down = all(lat.leq(a, b) <= (a in subset) for b in subset for a in range(n))
        joins = all(lat.lub(a, b) in subset for a in subset for b in subset)
        if down and joins:
            ideals.add(subset)
    principal = {frozenset(a for a in range(n) if lat.leq(a, b)) for b in range(n)}
    assert ideals == principal
    assert len(principal) == n


def _least(candidates, below):
    """Brute force: the smallest-index candidate ``below`` all the others."""
    return next((x for x in sorted(candidates)
                 if all(below(x, y) for y in candidates)), None)


@pytest.mark.parametrize("make", [m for _, m in SMALL_CORPUS]
                         + [lambda: ls.parse_lattice(ORDER_CYCLE_TEXT)],
                         ids=[label for label, _ in SMALL_CORPUS] + ["order_cycle"])
def test_tables_and_covers_match_brute_force(make):
    lat = make()
    n, leq = lat.n, lat.leq
    for a in range(n):
        for b in range(n):
            uppers = [x for x in range(n) if leq(a, x) and leq(b, x)]
            lowers = [x for x in range(n) if leq(x, a) and leq(x, b)]
            assert lat.lub(a, b) == _least(uppers, leq)
            assert lat.glb(a, b) == _least(lowers, lambda x, y: leq(y, x))
    covers = [(a, b) for a in range(n) for b in range(n)
              if a != b and leq(a, b)
              and not any(c not in (a, b) and leq(a, c) and leq(c, b)
                          for c in range(n))]
    assert lat.covers() == covers


def test_order_cycle_reports_antisymmetry():
    report = ls.verify_axioms(ls.parse_lattice(ORDER_CYCLE_TEXT))
    check = report.check("order_antisymmetric")
    assert not check.passed
    assert check.witness == ("a", "b")
    assert report.failures()[0] is check
    assert report.check("L1_complete").witness == ("a", "b")
