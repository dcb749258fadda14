"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to see one pass/fail line per
criterion.  Every criterion carries its runtime budget as an assertion.
"""

import itertools
import random
import time

import latspec as ls
from golden_cases import CASES, TESTS_DIR, run_pipeline
from helpers import (corpus, deleted_point_datum, finest_partition_oracle,
                     cyclic_semiring, powerset_lattice, small_lattices,
                     t0_spaces)


def _elapsed(t0):
    return time.monotonic() - t0


def test_c01_axiom_suite():
    t0 = time.monotonic()
    for label, lat in corpus():
        report = ls.verify_axioms(lat)
        assert report.ok, f"{label}: {report.failures()[0]}"
    assert _elapsed(t0) < 30
    print("criterion 1 (axiom suite over the corpus): PASS")


def test_c02_spectrality():
    t0 = time.monotonic()
    for label, lat in corpus():
        spectrum = ls.zariski_spectrum(lat)
        assert ls.verify_spectral(spectrum).ok, label
        d_sets = {ls.support_points(lat, a) for a in range(lat.n)}
        assert spectrum.opens == d_sets, label
    assert _elapsed(t0) < 10
    print("criterion 2 (every corpus spectrum is spectral): PASS")


def test_c03_hochster_involution():
    t0 = time.monotonic()
    for label, lat in corpus():
        spectrum = ls.zariski_spectrum(lat)
        assert ls.hochster_dual(ls.hochster_dual(spectrum)) == spectrum, label
    for space in t0_spaces(4):
        assert ls.hochster_dual(ls.hochster_dual(space)) == space
    assert _elapsed(t0) < 10
    print("criterion 3 (dualising twice is the identity): PASS")


def test_c04_classification_bijections():
    t0 = time.monotonic()
    for label, lat in corpus():
        sems = ls.semiprime_elements(lat)
        for build in (ls.closed_set_classification, ls.open_set_classification,
                      ls.support_classification):
            table = build(lat)  # raises on any bijection or monotonicity failure
            assert len(table.pairs) == len(sems), label
    z12 = ls.divisor_lattice(12)
    table = ls.closed_set_classification(z12)
    assert len(table.pairs) == 4
    assert len(ls.zariski_spectrum(z12).closed_sets()) == 4
    assert _elapsed(t0) < 60
    print("criterion 4 (three classification bijections): PASS")


def test_c05_reconstruction():
    t0 = time.monotonic()
    spaces = t0_spaces(4)
    assert sum(1 for s in spaces if s.n == 4) == 219
    for space in spaces:
        f = ls.canonical_homeomorphism(space)
        assert ls.is_homeomorphism(f)
    assert _elapsed(t0) < 60
    print("criterion 5 (reconstruction from the open-set lattice): PASS")


def _continuous_maps(space, target):
    for mapping in itertools.product(range(target.n), repeat=space.n):
        try:
            yield ls.ContinuousMap(space, target, mapping)
        except ls.SpaceError:
            continue


def _raw_valid_data(cls, lat, space, family):
    found = set()
    for assignment in itertools.product(family, repeat=lat.n):
        try:
            cls(lat, space, assignment)
        except ls.DatumError:
            continue
        found.add(assignment)
    return found


def test_c06_universal_property():
    t0 = time.monotonic()
    spaces = t0_spaces(3)
    for lat in small_lattices():
        spectrum = ls.zariski_spectrum(lat)
        dual = ls.hochster_dual(spectrum)
        d_sets = [ls.support_points(lat, a) for a in range(lat.n)]
        for space in spaces:
            for cls, target, build in (
                    (ls.SpectrumDatum, spectrum, ls.universal_spectrum_map),
                    (ls.SupportDatum, dual, ls.universal_support_map)):
                seen = set()
                for f in _continuous_maps(space, target):
                    assignment = tuple(f.preimage(d_sets[a])
                                       for a in range(lat.n))
                    assert assignment not in seen  # distinct maps, distinct data
                    seen.add(assignment)
                    datum = cls(lat, space, assignment)
                    g = build(datum)  # raises unless the preimage identity holds
                    assert g.mapping == f.mapping
                    check = ls.preimage_uniqueness(datum)
                    assert check.passed and "found 1" in check.note
                family = (space.sorted_opens() if cls is ls.SpectrumDatum
                          else space.sorted_closed_sets())
                if len(family) ** lat.n <= 2048:
                    assert _raw_valid_data(cls, lat, space, family) == seen
    assert _elapsed(t0) < 60
    print("criterion 6 (universal property of both spectra): PASS")


def _valid_morphisms_raw(src, tgt):
    lub_s = [[src.lub(a, b) for b in range(src.n)] for a in range(src.n)]
    mul_s = [[src.mul(a, b) for b in range(src.n)] for a in range(src.n)]
    lub_t = [[tgt.lub(a, b) for b in range(tgt.n)] for a in range(tgt.n)]
    mul_t = [[tgt.mul(a, b) for b in range(tgt.n)] for a in range(tgt.n)]
    out = []
    for mapping in itertools.product(range(tgt.n), repeat=src.n):
        if mapping[src.bottom] != tgt.bottom or mapping[src.top] != tgt.top:
            continue
        ok = True
        for a in range(src.n):
            for b in range(a + 1, src.n):
                if mapping[lub_s[a][b]] != lub_t[mapping[a]][mapping[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for a in range(src.n):
                for b in range(src.n):
                    if mapping[mul_s[a][b]] != mul_t[mapping[a]][mapping[b]]:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.append(ls.LatticeMorphism(src, tgt, mapping))
    return out


def test_c07_adjunction_round_trips():
    t0 = time.monotonic()
    spaces = t0_spaces(3)
    for lat in small_lattices():
        spectrum = ls.zariski_spectrum(lat)
        for space in spaces:
            continuous = list(_continuous_maps(space, spectrum))
            for f in continuous:
                phi = ls.adjunct_morphism(f, lat)
                assert ls.adjunct_map(phi, space) == f
            morphisms = _valid_morphisms_raw(lat, ls.open_lattice(space))
            images = set()
            for phi in morphisms:
                f = ls.adjunct_map(phi, space)
                assert ls.adjunct_morphism(f, lat) == phi
                assert f.mapping not in images  # the adjunct is injective
                images.add(f.mapping)
            # the two hom-sets correspond bijectively
            assert len(morphisms) == len(continuous)
    assert _elapsed(t0) < 60
    print("criterion 7 (adjunction round trips on full hom-sets): PASS")


def test_c08_classifying_detection():
    t0 = time.monotonic()
    for label, lat in corpus():
        datum = ls.tautological_support_datum(lat)
        assert ls.is_classifying(datum), label
    for lat in (ls.divisor_lattice(12), powerset_lattice(3)):
        assert not ls.is_classifying(deleted_point_datum(lat))
    assert _elapsed(t0) < 60
    print("criterion 8 (classifying support data detected): PASS")


def test_c09_radical_algebra_and_avoidance():
    t0 = time.monotonic()
    for label, lat in corpus():
        above = [frozenset(ls.primes_above(lat, a)) for a in range(lat.n)]
        for a in range(lat.n):
            ra = ls.radical(lat, a)
            assert lat.leq(a, ra), label
            assert ls.radical(lat, ra) == ra, label
            for b in range(lat.n):
                if lat.leq(a, b):
                    assert lat.leq(ra, ls.radical(lat, b)), label
                expected = lat.meet(sorted(above[a] | above[b]))
                assert ls.radical(lat, lat.mul(a, b)) == expected, label
                assert ls.radical(lat, lat.mul(b, a)) == expected, label

    rng = random.Random(1729)
    lattices = [lat for _, lat in corpus()]
    draws = 0
    while draws < 1000:
        lat = rng.choice(lattices)
        a = rng.randrange(lat.n)
        seeds = rng.sample(range(lat.n), rng.randint(1, min(2, lat.n)))
        members = set(seeds)
        frontier = list(members)
        while frontier:
            x = frontier.pop()
            for y in list(members):
                for p in (lat.mul(x, y), lat.mul(y, x)):
                    if p not in members:
                        members.add(p)
                        frontier.append(p)
        draws += 1
        result = ls.prime_avoidance(lat, a, sorted(members))
        if result is None:
            assert any(lat.leq(s, a) for s in members)
            continue
        assert ls.is_prime(lat, result)
        assert lat.leq(a, result)
        assert not any(lat.leq(s, result) for s in members)
        for y in range(lat.n):
            if y != result and lat.leq(result, y):
                assert any(lat.leq(s, y) for s in members)
    assert _elapsed(t0) < 60
    print("criterion 9 (radical algebra and prime avoidance draws): PASS")


def test_c10_decomposition():
    t0 = time.monotonic()
    for label, lat in corpus():
        supports = {b: ls.support_points(lat, b) for b in range(lat.n)}
        family = frozenset(supports.values())
        for a in ls.semiprime_elements(lat):
            if supports[a].bit_count() > 6:
                continue
            dec = ls.decompose_semiprime(lat, a)
            if not supports[a]:
                assert dec.degenerate and dec.blocks == ()
                continue
            assert set(dec.supports) == finest_partition_oracle(supports[a],
                                                                family), label
            assert lat.join(dec.blocks) == a
        for b in range(lat.n):
            ls.decompose_semiprime(lat, ls.radical(lat, b))

    cube = powerset_lattice(3)
    dec = ls.decompose_semiprime(cube, cube.top)
    assert sorted(cube.names[b] for b in dec.blocks) == ["{x}", "{y}", "{z}"]
    assert dec.meets_equal_bottom and dec.pairwise_meet == cube.bottom

    z12 = ls.divisor_lattice(12)
    dec = ls.decompose_semiprime(z12, z12.top)
    assert sorted(z12.names[b] for b in dec.blocks) == ["2", "3"]
    assert not dec.meets_equal_bottom
    assert z12.names[dec.pairwise_meet] == "6"
    assert _elapsed(t0) < 60
    print("criterion 10 (decomposition against the partition oracle): PASS")


def test_c11_semiring_divisor_cross_oracle():
    t0 = time.monotonic()
    for n in range(1, 61):
        result = ls.semiring_ideal_lattice(cyclic_semiring(n))
        div = ls.divisor_lattice(n)
        position = {ideal: i for i, ideal in enumerate(result.ideals)}
        iso = [position[frozenset(range(0, n, int(name)))] for name in div.names]
        assert sorted(iso) == list(range(result.lattice.n)), n
        for a in range(div.n):
            for b in range(div.n):
                assert div.leq(a, b) == result.lattice.leq(iso[a], iso[b]), n
                assert iso[div.mul(a, b)] == result.lattice.mul(iso[a], iso[b]), n
    assert _elapsed(t0) < 30
    print("criterion 11 (semiring ideals match divisor lattices to 60): PASS")


def test_c12_cli_golden_pipelines():
    t0 = time.monotonic()
    assert len(CASES) >= 11
    for name, stages in CASES:
        code, data, err = run_pipeline(stages)
        assert code == 0, f"{name}: {err.decode()}"
        assert data == (TESTS_DIR / "golden" / name).read_bytes(), name
    assert _elapsed(t0) < 60
    print("criterion 12 (committed CLI outputs reproduced byte for byte): PASS")
