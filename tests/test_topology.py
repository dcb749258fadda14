import random

import pytest

import latspec as ls
from helpers import (chain3_lattice, point_set, powerset_lattice,
                     random_preorder, spectral_oracle, t0_spaces, up_sets)


def sierpinski():
    return ls.FiniteSpace(["0", "1"], [0, 0b10, 0b11])


def discrete(names):
    return ls.FiniteSpace(names, range(1 << len(names)))


class TestFiniteSpace:
    def test_requires_empty_and_full(self):
        with pytest.raises(ls.SpaceError):
            ls.FiniteSpace(["a"], [0b1])
        with pytest.raises(ls.SpaceError):
            ls.FiniteSpace(["a"], [0])

    def test_requires_union_closure(self):
        with pytest.raises(ls.SpaceError) as err:
            ls.FiniteSpace(["a", "b", "c"],
                           [0, 0b1, 0b10, 0b111])
        assert "union" in str(err.value)

    def test_rejects_masks_outside_the_points(self):
        for bad in (0b100, -1, frozenset({0})):
            with pytest.raises(ValueError):
                ls.FiniteSpace(["a", "b"], [0, 0b11, bad])

    def test_closure_and_closed_sets(self):
        s = sierpinski()
        assert s.closure(0) == 0b1
        assert s.closure(1) == 0b11
        assert s.closed_sets() == {0, 0b1, 0b11}

    def test_empty_space(self):
        empty = ls.FiniteSpace([], [0])
        assert ls.verify_spectral(empty).ok


class TestVerifySpectral:
    def test_sierpinski(self):
        assert ls.verify_spectral(sierpinski()).ok

    def test_indiscrete_fails_t0(self):
        space = ls.FiniteSpace(["p", "q"], [0, 0b11])
        report = ls.verify_spectral(space)
        assert not report.ok
        assert report.check("t0").witness == ("p", "q")

    def test_compactness_checks_are_automatic(self):
        report = ls.verify_spectral(sierpinski())
        assert report.check("quasi_compact").note.startswith("automatic")
        assert report.check("quasi_compact_open_basis").note.startswith("automatic")

    def test_every_finite_t0_space_is_spectral(self):
        for space in t0_spaces(3):
            assert ls.verify_spectral(space).ok

    def test_checks_match_closed_pair_definition(self):
        # The point-closure checks against the exhaustive search over pairs
        # of closed sets, on every T0 space up to 4 points and on random
        # preorders, T0 or not.
        rng = random.Random(4)
        spaces = list(t0_spaces(4))
        for _ in range(400):
            n = rng.randint(1, 6)
            names = [chr(ord("a") + i) for i in range(n)]
            leq = random_preorder(rng, n, rng.choice((0.1, 0.3, 0.5)))
            spaces.append(ls.FiniteSpace(names, up_sets(leq)))
        non_sober = 0
        for space in spaces:
            report = ls.verify_spectral(space)
            t0, sober, note = spectral_oracle(space)
            for name, witness, text in (("t0", t0, ""), ("sober", sober, note)):
                got = report.check(name)
                assert (got.passed, got.witness, got.note) == \
                    (witness is None, witness, text), (space, name)
            non_sober += sober is not None
        assert non_sober >= 100


class TestZariskiSpectrum:
    def test_z12_is_discrete_two_points(self):
        spectrum = ls.zariski_spectrum(ls.divisor_lattice(12))
        assert spectrum.names == ("2", "3")
        assert spectrum.opens == {0, 0b1, 0b10, 0b11}

    def test_one_element_lattice_gives_empty_space(self):
        lat = ls.FiniteIdealLattice(["*"], [[True]], [[0]], 0, 0)
        spectrum = ls.zariski_spectrum(lat)
        assert spectrum.n == 0

    def test_chain3_gives_sierpinski(self):
        spectrum = ls.zariski_spectrum(chain3_lattice())
        assert spectrum == ls.FiniteSpace(["0", "a"], [0, 0b1, 0b11])

    def test_invalid_lattice_rejected(self):
        lat = ls.FiniteIdealLattice(["0", "1"], [[True, True], [False, True]],
                                    [[0, 0], [0, 0]], 1, 0)
        with pytest.raises(ls.LatticeError):
            ls.zariski_spectrum(lat)

    def test_opens_are_exactly_the_d_sets(self):
        lat = powerset_lattice(3)
        spectrum = ls.zariski_spectrum(lat)
        d_sets = {ls.support_points(lat, a) for a in range(lat.n)}
        assert spectrum.opens == d_sets


class TestHochsterDual:
    def test_sierpinski_swaps_open_point(self):
        dual = ls.hochster_dual(sierpinski())
        assert dual == ls.FiniteSpace(["0", "1"], [0, 0b1, 0b11])

    def test_discrete_is_self_dual(self):
        space = discrete(["a", "b"])
        assert ls.hochster_dual(space) == space

    def test_three_point_chain_reverses(self):
        chain = ls.FiniteSpace(["a", "b", "c"], [0, 0b100, 0b110, 0b111])
        dual = ls.hochster_dual(chain)
        assert dual.opens == {0, 0b1, 0b11, 0b111}

    def test_involution_on_small_t0_spaces(self):
        for space in t0_spaces(3):
            assert ls.hochster_dual(ls.hochster_dual(space)) == space

    def test_rejects_non_spectral(self):
        space = ls.FiniteSpace(["p", "q"], [0, 0b11])
        with pytest.raises(ls.SpaceError):
            ls.hochster_dual(space)


class TestGenericPoints:
    def test_sierpinski(self):
        s = sierpinski()
        assert ls.generic_point(s, 0b11) == 1
        assert ls.generic_point(s, 0b1) == 0

    def test_discrete_closures_are_singletons(self):
        space = discrete(["a", "b", "c"])
        for x in range(3):
            assert space.closure(x) == 1 << x

    def test_z12_spectrum_singletons(self):
        spectrum = ls.zariski_spectrum(ls.divisor_lattice(12))
        assert spectrum.names[ls.generic_point(spectrum, 0b1)] == "2"

    def test_rejects_non_closed(self):
        with pytest.raises(ls.SpaceError):
            ls.generic_point(sierpinski(), 0b10)

    def test_rejects_reducible_with_witness(self):
        space = discrete(["a", "b"])
        with pytest.raises(ls.SpaceError) as err:
            ls.generic_point(space, 0b11)
        assert err.value.witness == ("{a}", "{b}")

    def test_empty_set_is_not_irreducible(self):
        assert not ls.is_irreducible(sierpinski(), 0)

    def test_is_irreducible_rejects_non_closed(self):
        with pytest.raises(ls.SpaceError) as err:
            ls.is_irreducible(sierpinski(), 0b10)
        assert err.value.witness == ("{1}",)

    def test_generic_point_of_irreducible_closed_matches_meet(self):
        lat = ls.divisor_lattice(60)
        spectrum = ls.zariski_spectrum(lat)
        primes, position = ls.spectrum_positions(lat)
        for a in range(lat.n):
            v = sum(1 << position[p] for p in ls.primes_above(lat, a))
            if ls.is_irreducible(spectrum, v):
                g = ls.generic_point(spectrum, v)
                assert primes[g] == lat.meet(primes[i] for i in point_set(v))


class TestOpenLattice:
    def test_sierpinski_gives_chain(self):
        lat = ls.open_lattice(sierpinski())
        assert lat.names == ("{}", "{1}", "{0,1}")
        assert ls.verify_axioms(lat).ok

    def test_discrete_two_points_gives_diamond(self):
        lat = ls.open_lattice(discrete(["a", "b"]))
        assert lat.n == 4
        assert lat.names[lat.top] == "{a,b}"

    def test_empty_space_gives_one_element(self):
        lat = ls.open_lattice(ls.FiniteSpace([], [0]))
        assert lat.n == 1
        assert lat.top == lat.bottom

    def test_every_element_semiprime(self):
        for space in t0_spaces(3):
            lat = ls.open_lattice(space)
            assert all(ls.is_semiprime(lat, a) for a in range(lat.n))

    def test_prime_iff_complement_irreducible(self):
        for space in t0_spaces(3):
            lat = ls.open_lattice(space)
            opens = space.sorted_opens()
            for i, u in enumerate(opens):
                complement = space.full ^ u
                assert ls.is_prime(lat, i) == ls.is_irreducible(space, complement)


class TestCanonicalHomeomorphism:
    def test_sierpinski_mapping(self):
        f = ls.canonical_homeomorphism(sierpinski())
        assert [f.target.names[v] for v in f.mapping] == ["{1}", "{}"]

    def test_discrete_two_points(self):
        f = ls.canonical_homeomorphism(discrete(["a", "b"]))
        assert [f.target.names[v] for v in f.mapping] == ["{b}", "{a}"]

    def test_empty_space(self):
        f = ls.canonical_homeomorphism(ls.FiniteSpace([], [0]))
        assert f.mapping == ()

    def test_homeomorphism_on_three_point_spaces(self):
        for space in t0_spaces(3):
            assert ls.is_homeomorphism(ls.canonical_homeomorphism(space))


class TestContinuousMap:
    def test_rejects_discontinuous(self):
        source = ls.FiniteSpace(["p", "q"],
                                [0, 0b11])  # indiscrete
        with pytest.raises(ls.SpaceError):
            ls.ContinuousMap(source, sierpinski(), [0, 1])

    def test_identity_is_homeomorphism(self):
        s = sierpinski()
        assert ls.is_homeomorphism(ls.ContinuousMap(s, s, [0, 1]))

    def test_constant_map_is_not(self):
        s = sierpinski()
        f = ls.ContinuousMap(s, s, [1, 1])
        assert not ls.is_homeomorphism(f)


class TestClassification:
    def test_z12_closed_table(self):
        lat = ls.divisor_lattice(12)
        table = ls.closed_set_classification(lat)
        named = [(lat.names[a], tuple(sorted(table.space.names[i]
                                             for i in point_set(s))))
                 for a, s in table.pairs]
        assert named == [("1", ()), ("2", ("2",)), ("3", ("3",)),
                         ("6", ("2", "3"))]
        assert table.order == "reversing"

    def test_one_element_lattice(self):
        lat = ls.FiniteIdealLattice(["*"], [[True]], [[0]], 0, 0)
        table = ls.closed_set_classification(lat)
        assert table.pairs == ((0, 0),)

    def test_powerset_three_is_full_bijection(self):
        lat = powerset_lattice(3)
        for build in (ls.closed_set_classification, ls.open_set_classification,
                      ls.support_classification):
            table = build(lat)
            assert len(table.pairs) == 8
            assert len({s for _, s in table.pairs}) == 8

    def test_open_and_support_share_subsets(self):
        lat = ls.divisor_lattice(12)
        open_table = ls.open_set_classification(lat)
        supp_table = ls.support_classification(lat)
        assert [s for _, s in open_table.pairs] == [s for _, s in supp_table.pairs]
        assert supp_table.order == "preserving"

    def test_support_multiplicativity(self):
        lat = ls.divisor_lattice(60)
        for a in range(lat.n):
            for b in range(lat.n):
                sa = ls.support_points(lat, a)
                sb = ls.support_points(lat, b)
                assert ls.support_points(lat, lat.mul(a, b)) == sa & sb

    def test_table_rejects_non_injective_pairs(self):
        lat = ls.divisor_lattice(12)
        spectrum = ls.zariski_spectrum(lat)
        with pytest.raises(ls.LatticeError):
            ls.ClassificationTable(lat, spectrum, "closed", "reversing",
                                   ((0, 0), (1, 0)))
