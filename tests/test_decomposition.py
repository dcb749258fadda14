import itertools
import random

import pytest

import latspec as ls
from helpers import (chain3_lattice, finest_partition_oracle, is_family_union,
                     point_mask, point_set, powerset_lattice, t0_spaces)


class TestIndecomposable:
    def test_atoms_are_indecomposable(self):
        lat = powerset_lattice(3)
        for name in ("{x}", "{y}", "{z}"):
            assert ls.is_indecomposable(lat, lat.index(name))

    def test_bottom_is_not(self):
        lat = powerset_lattice(3)
        assert not ls.is_indecomposable(lat, lat.bottom)

    def test_pair_splits_with_witness(self):
        lat = powerset_lattice(3)
        witness = ls.indecomposable_witness(lat, lat.index("{x,y}"))
        assert tuple(lat.names[i] for i in witness) == ("{x}", "{y}")

    def test_chain_top_is_indecomposable(self):
        lat = chain3_lattice()
        assert ls.is_indecomposable(lat, lat.top)


def closed_family(space):
    return frozenset(space.closed_sets())


class TestFinestPartition:
    def test_discrete_three_points(self):
        family = range(8)
        parts = ls.finest_partition(0b111, family)
        assert set(parts) == {0b1, 0b10, 0b100}

    def test_sierpinski_overlapping_closures(self):
        family = [0, 0b1, 0b11]
        parts = ls.finest_partition(0b11, family)
        assert set(parts) == {0b11}

    def test_z12_support_of_top(self):
        lat = ls.divisor_lattice(12)
        family = {ls.support_points(lat, b) for b in range(lat.n)}
        parts = ls.finest_partition(ls.support_points(lat, lat.top), family)
        assert set(parts) == {0b1, 0b10}

    def test_uncoverable_point_rejected(self):
        with pytest.raises(ls.DecompositionError):
            ls.finest_partition(0b11, [0, 0b1])

    def test_non_intersection_closed_rejected(self):
        family = [0b11, 0b110]
        with pytest.raises(ls.DecompositionError):
            ls.finest_partition(0b111, family)

    def test_matches_oracle_on_random_families(self):
        rng = random.Random(20240517)
        for _ in range(60):
            n = rng.randint(1, 5)
            universe = list(range(n))
            family = {0}
            for _ in range(rng.randint(1, 6)):
                family.add(point_mask(rng.sample(universe, rng.randint(1, n))))
            # close under intersection
            changed = True
            while changed:
                changed = False
                for a in list(family):
                    for b in list(family):
                        if a & b not in family:
                            family.add(a & b)
                            changed = True
            points = 0
            for s in family:
                points |= s
            if not points:
                continue
            parts = ls.finest_partition(points, family)
            assert set(parts) == finest_partition_oracle(points, family)

    def test_blocks_admit_no_binary_split(self):
        for space in t0_spaces(3):
            family = closed_family(space)
            points = space.full
            if not points:
                continue
            parts = ls.finest_partition(points, family)
            family = [point_set(c) for c in family]
            for block in map(point_set, parts):
                for r in range(1, len(block)):
                    for half in itertools.combinations(sorted(block), r):
                        left = frozenset(half)
                        right = block - left
                        assert not (is_family_union(left, family)
                                    and is_family_union(right, family))


class TestDecomposeSemiprime:
    def test_powerset_top_into_atoms(self):
        lat = powerset_lattice(3)
        dec = ls.decompose_semiprime(lat, lat.top)
        assert sorted(lat.names[b] for b in dec.blocks) == ["{x}", "{y}", "{z}"]
        assert dec.meets_equal_bottom
        assert lat.names[dec.pairwise_meet] == "{}"
        assert not dec.degenerate

    def test_z12_top_flags_meet_discrepancy(self):
        lat = ls.divisor_lattice(12)
        dec = ls.decompose_semiprime(lat, lat.top)
        assert sorted(lat.names[b] for b in dec.blocks) == ["2", "3"]
        supports = {lat.names[b]: s for b, s in zip(dec.blocks, dec.supports)}
        spectrum = ls.zariski_spectrum(lat)
        assert {spectrum.names[i] for i in point_set(supports["2"])} == {"3"}
        assert {spectrum.names[i] for i in point_set(supports["3"])} == {"2"}
        assert not dec.meets_equal_bottom
        assert lat.names[dec.pairwise_meet] == "6"

    def test_degenerate_radical_of_bottom(self):
        lat = ls.divisor_lattice(12)
        dec = ls.decompose_semiprime(lat, lat.index("6"))
        assert dec.blocks == ()
        assert dec.degenerate
        assert dec.meets_equal_bottom

    def test_rejects_non_semiprime(self):
        lat = ls.divisor_lattice(12)
        with pytest.raises(ls.DecompositionError):
            ls.decompose_semiprime(lat, lat.index("4"))

    def test_single_block_for_connected_support(self):
        lat = chain3_lattice()
        dec = ls.decompose_semiprime(lat, lat.top)
        assert len(dec.blocks) == 1
        assert dec.pairwise_meet is None

    @pytest.mark.parametrize("make", [
        lambda: ls.divisor_lattice(12),
        lambda: ls.divisor_lattice(30),
        lambda: powerset_lattice(3),
        lambda: powerset_lattice(4),
        chain3_lattice,
    ])
    def test_blocks_match_partition_oracle(self, make):
        lat = make()
        family = {ls.support_points(lat, b) for b in range(lat.n)}
        for a in ls.semiprime_elements(lat):
            supp = ls.support_points(lat, a)
            if not supp or supp.bit_count() > 6:
                continue
            dec = ls.decompose_semiprime(lat, a)
            assert set(dec.supports) == finest_partition_oracle(supp, family)
            assert lat.join(dec.blocks) == a
            assert all(ls.is_semiprime(lat, b) for b in dec.blocks)

    @pytest.mark.parametrize("make", [
        lambda: ls.divisor_lattice(30),
        lambda: powerset_lattice(3),
    ])
    def test_exercised_on_every_radical(self, make):
        # every radical is semiprime, so decomposition must succeed on all
        lat = make()
        for b in range(lat.n):
            dec = ls.decompose_semiprime(lat, ls.radical(lat, b))
            assert lat.join(dec.blocks) == ls.radical(lat, b) or dec.degenerate

    def test_blocks_have_no_semiprime_split_with_disjoint_supports(self):
        lat = ls.divisor_lattice(12)
        dec = ls.decompose_semiprime(lat, lat.top)
        sems = ls.semiprime_elements(lat)
        for block in dec.blocks:
            for s in sems:
                for t in sems:
                    if lat.lub(s, t) != block:
                        continue
                    ss = ls.support_points(lat, s)
                    st = ls.support_points(lat, t)
                    if ss and st and not ss & st:
                        pytest.fail("block splits into semiprimes with "
                                    "disjoint supports")
