import pytest

import latspec as ls
from helpers import (boolean_semiring, cyclic_semiring, powerset_lattice,
                     semiring_ideals_bruteforce, union_semiring)


class TestFiniteSemiring:
    def test_cyclic_validates(self):
        ring = cyclic_semiring(12)
        assert ring.is_commutative

    def test_rejects_broken_distributivity(self):
        # x + y = max, x * y = min on {0,1,2} distributes; tweak one entry
        add = [[max(i, j) for j in range(3)] for i in range(3)]
        mul = [[min(i, j) for j in range(3)] for i in range(3)]
        mul[1][2] = 0
        with pytest.raises(ls.SemiringError):
            ls.FiniteSemiring(["0", "1", "2"], add, mul, 0, 2)

    def test_rejects_missing_unit(self):
        add = [[max(i, j) for j in range(2)] for i in range(2)]
        mul = [[0, 0], [0, 0]]
        with pytest.raises(ls.SemiringError) as err:
            ls.FiniteSemiring(["0", "1"], add, mul, 0, 1)
        assert "unit" in str(err.value)

    def test_size_cap(self):
        with pytest.raises(ls.SemiringError):
            ls.enumerate_ideals(cyclic_semiring(65))


class TestSemiringIdealLattice:
    def test_z12_matches_subset_bruteforce(self):
        ring = cyclic_semiring(12)
        assert set(ls.enumerate_ideals(ring)) == set(semiring_ideals_bruteforce(ring))

    def test_z12_lattice(self):
        result = ls.semiring_ideal_lattice(cyclic_semiring(12))
        lat = result.lattice
        assert lat.n == 6
        assert lat.names == ("{0}", "{0,6}", "{0,4,8}", "{0,3,6,9}",
                             "{0,2,4,6,8,10}", "{0,1,2,3,4,5,6,7,8,9,10,11}")
        assert ls.verify_axioms(lat).ok

    def test_z12_products_are_ideal_products(self):
        ring = cyclic_semiring(12)
        result = ls.semiring_ideal_lattice(ring)
        lat = result.lattice
        for i in range(lat.n):
            for j in range(lat.n):
                generated = ls.ideal_closure(
                    ring, {ring.mul(x, y)
                           for x in result.ideals[i] for y in result.ideals[j]})
                assert result.ideals[lat.mul(i, j)] == generated

    def test_boolean_semiring(self):
        result = ls.semiring_ideal_lattice(boolean_semiring())
        assert result.lattice.n == 2

    def test_z4_is_chain_with_radical(self):
        result = ls.semiring_ideal_lattice(cyclic_semiring(4))
        lat = result.lattice
        assert lat.names == ("{0}", "{0,2}", "{0,1,2,3}")
        assert lat.names[ls.radical(lat, lat.bottom)] == "{0,2}"

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 12])
    def test_isomorphic_to_divisor_lattice(self, n):
        ring = cyclic_semiring(n)
        result = ls.semiring_ideal_lattice(ring)
        div = ls.divisor_lattice(n)
        iso = {div.index(str(d)): result.lattice.index(
            "{" + ",".join(str(x) for x in sorted(range(0, n, d))) + "}")
            for d in range(1, n + 1) if n % d == 0}
        assert sorted(iso.values()) == list(range(result.lattice.n))
        for a in range(div.n):
            for b in range(div.n):
                assert div.leq(a, b) == result.lattice.leq(iso[a], iso[b])
                assert iso[div.mul(a, b)] == result.lattice.mul(iso[a], iso[b])


class TestDivisorLattice:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ls.divisor_lattice(0)

    def test_n_one_is_trivial(self):
        lat = ls.divisor_lattice(1)
        assert lat.n == 1 and lat.top == lat.bottom

    def test_n60(self):
        lat = ls.divisor_lattice(60)
        assert [lat.names[p] for p in ls.prime_elements(lat)] == ["2", "3", "5"]
        assert lat.names[ls.radical(lat, lat.index("4"))] == "2"


class TestClosureSystems:
    def test_full_carrier_is_identity(self):
        carrier = ls.divisor_lattice(12)
        system = ls.ClosureSystem(carrier, frozenset(range(carrier.n)))
        sub = ls.closure_sublattice(system)
        assert sub.lattice == carrier
        assert sub.projection == tuple(range(carrier.n))

    def test_semiprimes_of_z12(self):
        carrier = ls.divisor_lattice(12)
        system = ls.ClosureSystem(carrier, frozenset(ls.semiprime_elements(carrier)))
        report = ls.verify_closure_system(system)
        assert report.ok
        sub = ls.closure_sublattice(system)
        lat = sub.lattice
        assert lat.names == ("1", "2", "3", "6")
        # the product is the radical of the carrier product, checked exhaustively
        members = sub.member_elements
        for i in range(lat.n):
            for j in range(lat.n):
                expected = ls.radical(carrier, carrier.mul(members[i], members[j]))
                assert members[lat.mul(i, j)] == expected
        assert ls.verify_axioms(lat).ok

    def test_projection_is_a_closure_operator(self):
        carrier = ls.divisor_lattice(12)
        system = ls.ClosureSystem(carrier, frozenset(ls.semiprime_elements(carrier)))
        pi = ls.closure_projection(system)
        for a in range(carrier.n):
            assert carrier.leq(a, pi[a])
            assert pi[pi[a]] == pi[a]
            for b in range(carrier.n):
                if carrier.leq(a, b):
                    assert carrier.leq(pi[a], pi[b])
            for m in system.members:
                assert carrier.leq(pi[a], m) == carrier.leq(a, m)

    def test_powerset_fragment_rejected_by_projection_law(self):
        carrier = powerset_lattice(3)
        members = frozenset({carrier.index("{}"), carrier.index("{x}"),
                             carrier.index("{x,y,z}")})
        system = ls.ClosureSystem(carrier, members)
        report = ls.verify_closure_system(system)
        assert report.check("meet_closed").passed
        check = report.check("projection_multiplicative")
        assert not check.passed
        assert check.witness == ("{x}", "{y}")
        with pytest.raises(ls.ClosureError):
            ls.closure_sublattice(system)

    def test_missing_top_rejected(self):
        carrier = ls.divisor_lattice(12)
        system = ls.ClosureSystem(carrier, frozenset({carrier.bottom}))
        report = ls.verify_closure_system(system)
        assert not report.check("meet_closed").passed


class TestThickTensorLattice:
    def test_all_ideals_reproduces_ideal_lattice(self):
        ring = cyclic_semiring(12)
        sil = ls.semiring_ideal_lattice(ring)
        system = ls.ClosureSystem(sil.lattice, frozenset(range(sil.lattice.n)))
        thick = ls.thick_tensor_lattice(ring, system)
        assert thick.lattice == sil.lattice

    def test_z12_semiprime_system(self):
        ring = cyclic_semiring(12)
        sil = ls.semiring_ideal_lattice(ring)
        system = ls.ClosureSystem(sil.lattice,
                                  frozenset(ls.semiprime_elements(sil.lattice)))
        thick = ls.thick_tensor_lattice(ring, system)
        assert thick.lattice.n == 4
        assert thick.lattice.names == (
            "{0,6}", "{0,3,6,9}", "{0,2,4,6,8,10}",
            "{0,1,2,3,4,5,6,7,8,9,10,11}")

    def test_unit_generates_top(self):
        ring = cyclic_semiring(12)
        sil = ls.semiring_ideal_lattice(ring)
        system = ls.ClosureSystem(sil.lattice,
                                  frozenset(ls.semiprime_elements(sil.lattice)))
        thick = ls.thick_tensor_lattice(ring, system)
        assert thick.generators[ring.one] == thick.lattice.top

    def test_carrier_mismatch_rejected(self):
        ring = cyclic_semiring(12)
        other = ls.divisor_lattice(12)
        system = ls.ClosureSystem(other, frozenset(range(other.n)))
        with pytest.raises(ls.ClosureError):
            ls.thick_tensor_lattice(ring, system)

    def test_generator_join_law_on_union_semirings(self):
        # <x + y> = <x> v <y> holds when addition behaves like a coproduct
        for ring in (boolean_semiring(), union_semiring(2)):
            sil = ls.semiring_ideal_lattice(ring)
            system = ls.ClosureSystem(sil.lattice, frozenset(range(sil.lattice.n)))
            thick = ls.thick_tensor_lattice(ring, system)
            lat = thick.lattice
            for x in range(ring.n):
                for y in range(ring.n):
                    assert thick.generators[ring.add(x, y)] == lat.join(
                        [thick.generators[x], thick.generators[y]])

    def test_generator_join_law_fails_for_cyclic_addition(self):
        # 1 + 1 = 2 generates 2Z, while <1> v <1> is the whole ring
        ring = cyclic_semiring(12)
        sil = ls.semiring_ideal_lattice(ring)
        system = ls.ClosureSystem(sil.lattice, frozenset(range(sil.lattice.n)))
        thick = ls.thick_tensor_lattice(ring, system)
        lat = thick.lattice
        two = thick.generators[ring.add(1, 1)]
        joined = lat.join([thick.generators[1], thick.generators[1]])
        assert two != joined


def _discrete_space(names):
    return ls.FiniteSpace(names, range(1 << len(names)))


class TestObjectSupportTranslation:
    def _union_thick(self):
        ring = union_semiring(2)
        sil = ls.semiring_ideal_lattice(ring)
        system = ls.ClosureSystem(sil.lattice, frozenset(range(sil.lattice.n)))
        return ring, ls.thick_tensor_lattice(ring, system)

    def test_round_trip_from_support(self):
        ring, thick = self._union_thick()
        datum = ls.tautological_support_datum(thick.lattice)
        tau = ls.object_support_from_datum(thick, datum)
        rebuilt = ls.support_datum_from_objects(thick, datum.space, tau)
        assert rebuilt.assignment == datum.assignment
        assert ls.object_support_from_datum(thick, rebuilt) == tau

    def test_unit_must_cover_space(self):
        ring, thick = self._union_thick()
        space = _discrete_space(["p"])
        tau = [0] * ring.n
        with pytest.raises(ls.DatumError) as err:
            ls.support_datum_from_objects(thick, space, tau)
        assert "union over the generated ideal" in str(err.value) \
            or "whole space" in str(err.value)

    def test_constant_full_rejected_at_zero_generators(self):
        # the indiscrete assignment survives the object-level laws but the
        # generated bottom ideal must still land on the empty set
        ring, thick = self._union_thick()
        space = _discrete_space(["p"])
        tau = [0b1] * ring.n
        with pytest.raises(ls.DatumError) as err:
            ls.support_datum_from_objects(thick, space, tau)
        assert "empty join" in str(err.value)

    def test_constant_datum_on_empty_space_is_degenerate_but_valid(self):
        ring, thick = self._union_thick()
        empty = ls.FiniteSpace([], [0])
        datum = ls.support_datum_from_objects(thick, empty,
                                              [0] * ring.n)
        assert set(datum.assignment) == {0}

    def test_cyclic_pullback_breaks_sum_law(self):
        ring = cyclic_semiring(12)
        sil = ls.semiring_ideal_lattice(ring)
        system = ls.ClosureSystem(sil.lattice,
                                  frozenset(ls.semiprime_elements(sil.lattice)))
        thick = ls.thick_tensor_lattice(ring, system)
        datum = ls.tautological_support_datum(thick.lattice)
        tau = ls.object_support_from_datum(thick, datum)
        with pytest.raises(ls.DatumError) as err:
            ls.support_datum_from_objects(thick, datum.space, tau)
        assert err.value.witness == ("1", "1")
