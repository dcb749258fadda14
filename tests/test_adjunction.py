import itertools

import pytest

import latspec as ls
from helpers import (chain3_lattice, corpus, deleted_point_datum, point_set,
                     powerset_lattice, t0_spaces)

ATOMS = "xyz"


def identity_morphism(lat):
    return ls.LatticeMorphism(lat, lat, range(lat.n))


def sierpinski():
    return ls.FiniteSpace(["0", "1"], [0, 0b10, 0b11])


class TestVerifyMorphism:
    def test_identity_is_valid(self):
        report = ls.verify_morphism(identity_morphism(ls.divisor_lattice(12)))
        assert report.ok

    def test_constant_to_top_fails_at_bottom(self):
        lat = chain3_lattice()
        phi = ls.LatticeMorphism(lat, lat, [lat.top] * 3)
        report = ls.verify_morphism(phi)
        assert not report.check("bottom_to_bottom").passed

    def test_chain_into_z12_fails_products(self):
        # 0 -> 12Z, a -> 6Z, 1 -> 1Z: a*a = a but 6Z*6Z = 12Z
        chain = chain3_lattice()
        z12 = ls.divisor_lattice(12)
        phi = ls.LatticeMorphism(chain, z12,
                                 [z12.index("12"), z12.index("6"), z12.index("1")])
        report = ls.verify_morphism(phi)
        assert not report.ok
        assert report.check("products").witness == ("a", "a")

    def test_preimage_of_continuous_map_is_morphism(self):
        # the open-set lattice functor on maps
        source = sierpinski()
        target = ls.FiniteSpace(["p"], [0, 0b1])
        f = ls.ContinuousMap(source, target, [0, 0])
        src_lat = ls.open_lattice(target)
        tgt_lat = ls.open_lattice(source)
        opens = source.sorted_opens()
        mapping = [opens.index(f.preimage(u)) for u in target.sorted_opens()]
        phi = ls.LatticeMorphism(src_lat, tgt_lat, mapping)
        assert ls.verify_morphism(phi).ok


def quotient_morphism_12_to_4():
    src = ls.divisor_lattice(12)
    tgt = ls.divisor_lattice(4)
    from math import gcd
    mapping = [tgt.index(str(gcd(int(name), 4))) for name in src.names]
    return ls.LatticeMorphism(src, tgt, mapping)


class TestSpecOfMorphism:
    def test_identity_gives_identity(self):
        lat = ls.divisor_lattice(12)
        f = ls.spec_of_morphism(identity_morphism(lat))
        assert f.mapping == (0, 1)

    def test_quotient_map(self):
        phi = quotient_morphism_12_to_4()
        assert ls.verify_morphism(phi).ok
        f = ls.spec_of_morphism(phi)
        # Spec(Z/4) has the single prime 2; it pulls back to 2 in Z/12
        assert f.source.names == ("2",)
        assert f.target.names[f.mapping[0]] == "2"

    def test_defining_preimage_property(self):
        phi = quotient_morphism_12_to_4()
        f = ls.spec_of_morphism(phi)
        src, tgt = phi.source, phi.target
        for a in range(src.n):
            d_img = ls.support_points(tgt, phi(a))
            assert d_img == f.preimage(ls.support_points(src, a))

    def test_rejects_invalid_morphism(self):
        chain = chain3_lattice()
        phi = ls.LatticeMorphism(chain, chain, [chain.top] * 3)
        with pytest.raises(ls.MorphismError):
            ls.spec_of_morphism(phi)

    def test_agrees_with_adjunct_map_through_canonical_homeo(self):
        lat = chain3_lattice()
        space = sierpinski()
        spectrum = ls.zariski_spectrum(lat)
        for mapping in itertools.product(range(spectrum.n), repeat=space.n):
            try:
                f = ls.ContinuousMap(space, spectrum, mapping)
            except ls.SpaceError:
                continue
            phi = ls.adjunct_morphism(f, lat)
            sigma = ls.adjunct_map(phi, space)
            spec_phi = ls.spec_of_morphism(phi)
            h = ls.canonical_homeomorphism(space)
            composed = tuple(spec_phi.mapping[h.mapping[x]] for x in range(space.n))
            assert composed == sigma.mapping


class TestSpectrumDatum:
    def test_tautological_gives_identity(self):
        lat = ls.divisor_lattice(12)
        datum = ls.tautological_spectrum_datum(lat)
        f = ls.universal_spectrum_map(datum)
        assert f.mapping == (0, 1)

    def test_chain_on_sierpinski_gives_canonical_map(self):
        lat = chain3_lattice()
        space = sierpinski()
        # the evident isomorphism of opens: 0 -> {}, a -> {1}, 1 -> X
        delta = [0, 0b10, 0b11]
        datum = ls.SpectrumDatum(lat, space, delta)
        f = ls.universal_spectrum_map(datum)
        assert [f.target.names[v] for v in f.mapping] == ["a", "0"]
        assert ls.is_homeomorphism(f)

    def test_constant_full_rejected(self):
        lat = chain3_lattice()
        space = sierpinski()
        with pytest.raises(ls.DatumError):
            ls.SpectrumDatum(lat, space, [0b11] * 3)

    def test_non_open_value_rejected(self):
        lat = chain3_lattice()
        space = sierpinski()
        with pytest.raises(ls.DatumError):
            ls.SpectrumDatum(lat, space,
                             [0, 0b1, 0b11])

    def test_join_violation_rejected_with_witness(self):
        lat = powerset_lattice(2)
        space = ls.zariski_spectrum(lat)
        delta = [ls.support_points(lat, a) for a in range(lat.n)]
        delta[lat.top] = 0  # break delta(top) = X
        with pytest.raises(ls.DatumError):
            ls.SpectrumDatum(lat, space, delta)


class TestSupportDatum:
    def test_tautological_gives_identity(self):
        lat = ls.divisor_lattice(12)
        datum = ls.tautological_support_datum(lat)
        f = ls.universal_support_map(datum)
        assert f.mapping == (0, 1)

    def test_powerset_membership_datum(self):
        lat = powerset_lattice(3)
        space = ls.FiniteSpace(list(ATOMS), range(8))
        # sigma(a) = the points of a itself: a is not inside co-atom(s) iff s in a
        sigma = []
        for name in lat.names:
            atoms = sum(1 << ATOMS.index(c) for c in name[1:-1].split(",") if c)
            sigma.append(atoms)
        datum = ls.SupportDatum(lat, space, sigma)
        f = ls.universal_support_map(datum)
        expected = {"x": "{y,z}", "y": "{x,z}", "z": "{x,y}"}
        for x in range(3):
            assert f.target.names[f.mapping[x]] == expected[space.names[x]]
        assert ls.is_classifying(datum)

    def test_union_violation_rejected(self):
        lat = powerset_lattice(2)
        dual = ls.hochster_dual(ls.zariski_spectrum(lat))
        sigma = [ls.support_points(lat, a) for a in range(lat.n)]
        sigma[lat.index("{x}")] = 0
        with pytest.raises(ls.DatumError) as err:
            ls.SupportDatum(lat, dual, sigma)
        assert "union" in str(err.value)


class TestAdjunction:
    def test_lambda_of_identity_map_sends_a_to_d_of_a(self):
        lat = ls.divisor_lattice(12)
        spectrum = ls.zariski_spectrum(lat)
        f = ls.ContinuousMap(spectrum, spectrum, range(spectrum.n))
        phi = ls.adjunct_morphism(f, lat)
        opens = spectrum.sorted_opens()
        for a in range(lat.n):
            assert opens[phi(a)] == ls.support_points(lat, a)

    def test_sigma_of_identity_induced_morphism_is_canonical(self):
        space = sierpinski()
        lat = ls.open_lattice(space)
        phi = ls.LatticeMorphism(lat, lat, range(lat.n))
        f = ls.adjunct_map(phi, space)
        assert f == ls.canonical_homeomorphism(space)

    def test_round_trips_on_enumerated_pairs(self):
        lat = chain3_lattice()
        for space in t0_spaces(2):
            spectrum = ls.zariski_spectrum(lat)
            for mapping in itertools.product(range(spectrum.n), repeat=space.n):
                try:
                    f = ls.ContinuousMap(space, spectrum, mapping)
                except ls.SpaceError:
                    continue
                phi = ls.adjunct_morphism(f, lat)
                assert ls.adjunct_map(phi, space) == f
                assert ls.adjunct_morphism(ls.adjunct_map(phi, space), lat) == phi

    def test_rejects_wrong_target(self):
        lat = chain3_lattice()
        phi = identity_morphism(lat)
        with pytest.raises(ls.MorphismError):
            ls.adjunct_map(phi, sierpinski())


def _bijection_criterion(datum):
    """a -> union of the sets assigned below a, and Y -> join of the elements
    assigned inside Y, are mutually inverse bijections between the semiprimes
    and the closed subsets of the space.  Works on point sets."""
    lat = datum.lattice
    sigma = [point_set(v) for v in datum.assignment]
    sems = ls.semiprime_elements(lat)
    extended = {a: frozenset().union(*(sigma[b] for b in range(lat.n)
                                       if lat.leq(b, a)))
                for a in sems}
    closeds = {point_set(c) for c in datum.space.closed_sets()}
    if len(set(extended.values())) != len(sems) or set(extended.values()) != closeds:
        return False
    for a in sems:
        if lat.join(b for b in range(lat.n) if sigma[b] <= extended[a]) != a:
            return False
    for y in closeds:
        a = lat.join(b for b in range(lat.n) if sigma[b] <= y)
        if a not in extended or extended[a] != y:
            return False
    return True


class TestClassifying:
    @pytest.mark.parametrize("make", [
        lambda: ls.divisor_lattice(12),
        lambda: powerset_lattice(3),
        chain3_lattice,
        lambda: ls.FiniteIdealLattice(["*"], [[True]], [[0]], 0, 0),
    ])
    def test_tautological_datum_is_classifying(self, make):
        assert ls.is_classifying(ls.tautological_support_datum(make()))

    def test_deleted_point_datum_is_not(self):
        lat = ls.divisor_lattice(12)
        datum = deleted_point_datum(lat)
        assert not ls.is_classifying(datum)

    def test_bijection_criterion_agrees(self):
        # c08's data plus the deleted-point data: the universal map is a
        # homeomorphism exactly when the classification maps are inverse
        # bijections onto the closed sets.
        data = [ls.tautological_support_datum(lat) for _, lat in corpus()]
        data += [deleted_point_datum(lat)
                 for lat in (ls.divisor_lattice(12), powerset_lattice(3))]
        for datum in data:
            assert ls.is_classifying(datum) == _bijection_criterion(datum)
        assert not _bijection_criterion(data[-1])

    def test_rejects_non_spectral_space(self):
        lat = chain3_lattice()
        indiscrete = ls.FiniteSpace(["p", "q"], [0, 0b11])
        sigma = [0, 0b11, 0b11]
        datum = ls.SupportDatum(lat, indiscrete, sigma)
        with pytest.raises(ls.SpaceError):
            ls.is_classifying(datum)


class TestSupportMorphismCheck:
    def test_identity_morphism_of_data(self):
        lat = ls.divisor_lattice(12)
        datum = ls.tautological_support_datum(lat)
        f = ls.ContinuousMap(datum.space, datum.space, range(datum.space.n))
        report = ls.check_support_morphism(f, datum, datum)
        assert report.ok
        assert report.check("homeomorphism").note.startswith("required")

    def test_mismatched_lattices_rejected(self):
        d1 = ls.tautological_support_datum(ls.divisor_lattice(12))
        d2 = ls.tautological_support_datum(powerset_lattice(2))
        f = ls.ContinuousMap(d1.space, d2.space, [0, 0])
        with pytest.raises(ls.MorphismError):
            ls.check_support_morphism(f, d1, d2)

    def test_relabelled_classifying_data_confirm_homeomorphism(self):
        lat = ls.divisor_lattice(12)
        datum = ls.tautological_support_datum(lat)
        space = datum.space
        def swap(u):
            return (u & 1) << 1 | u >> 1

        flipped = ls.FiniteSpace([space.names[1], space.names[0]],
                                 [swap(u) for u in space.opens])
        sigma = [swap(u) for u in datum.assignment]
        other = ls.SupportDatum(lat, flipped, sigma)
        assert ls.is_classifying(other)
        f = ls.ContinuousMap(space, flipped, [1, 0])
        report = ls.check_support_morphism(f, datum, other)
        assert report.ok
        assert report.check("homeomorphism").note.startswith("required")

    def test_no_non_injective_map_between_classifying_data(self):
        # brute force over every point map on the two-point instance
        lat = ls.divisor_lattice(12)
        datum = ls.tautological_support_datum(lat)
        space = datum.space
        for mapping in itertools.product(range(space.n), repeat=space.n):
            if len(set(mapping)) == space.n:
                continue
            try:
                f = ls.ContinuousMap(space, space, mapping)
            except ls.SpaceError:
                continue
            report = ls.check_support_morphism(f, datum, datum)
            assert not report.check("preimage_identity").passed


class TestUniqueness:
    def test_tautological_support_datum(self):
        check = ls.preimage_uniqueness(ls.tautological_support_datum(
            ls.divisor_lattice(12)))
        assert check.passed
        assert "found 1 solution" in check.note

    def test_cap_skips_with_note(self):
        check = ls.preimage_uniqueness(
            ls.tautological_support_datum(ls.divisor_lattice(12)), cap=1)
        assert check.passed
        assert check.note.startswith("skipped")
