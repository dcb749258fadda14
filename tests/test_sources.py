import pytest

import latspec as ls
from helpers import CHAIN3_TEXT, boolean_semiring, powerset_lattice


class TestLatticeParsing:
    def test_comments_and_whitespace(self):
        text = "# header\nelements: a b # trailing\nleq: a<b\ntop: b\nbottom: a\n" \
               "mul: a*a=a a*b=a b*a=a b*b=b\n"
        lat = ls.parse_lattice(text)
        assert lat.names == ("a", "b")

    def test_missing_mul_entry(self):
        text = "elements: a b\nleq: a<b\ntop: b\nbottom: a\nmul: a*a=a\n"
        with pytest.raises(ls.SourceError) as err:
            ls.parse_lattice(text)
        assert "missing product entry" in str(err.value)

    def test_duplicate_mul_entry(self):
        text = CHAIN3_TEXT + "mul: 0*0=0\n"
        with pytest.raises(ls.SourceError):
            ls.parse_lattice(text)

    def test_unknown_name_reports_line(self):
        text = "elements: a b\nleq: a<c\ntop: b\nbottom: a\n" \
               "mul: a*a=a a*b=a b*a=a b*b=b\n"
        with pytest.raises(ls.SourceError) as err:
            ls.parse_lattice(text, path="input.lat")
        assert "input.lat:2" in str(err.value)

    def test_token_before_section(self):
        with pytest.raises(ls.SourceError):
            ls.parse_lattice("a b c\nelements: a\n")

    def test_reserved_character_in_name(self):
        with pytest.raises(ls.SourceError):
            ls.parse_lattice("elements: a=b\ntop: a=b\nbottom: a=b\nmul:\n")

    def test_source_round_trip(self):
        for lat in (ls.divisor_lattice(12), powerset_lattice(2)):
            assert ls.build_lattice(ls.lattice_source(lat)) == lat

    def test_json_round_trip(self):
        from latspec.emitters import canonical_json, lattice_json
        lat = ls.divisor_lattice(12)
        text = canonical_json(lattice_json(lat))
        assert ls.read_lattice(text) == lat


    def test_json_duplicate_name_reported(self):
        text = ('{"elements": ["a", "a"], "leq": [], "mul": [["a", "a", "a"]], '
                '"top": "a", "bottom": "a"}')
        with pytest.raises(ls.SourceError) as err:
            ls.read_lattice(text, path="dup.json")
        assert str(err.value) == "dup.json: duplicate element name 'a'"

class TestSpaceParsing:
    def test_star_abbreviation(self):
        space = ls.parse_space("points: a b\nopens: {} {a} *\n")
        assert space.opens == {0, 0b1, 0b11}

    def test_bad_set_token(self):
        with pytest.raises(ls.SourceError):
            ls.parse_space("points: a\nopens: {} a *\n")

    def test_duplicate_point(self):
        with pytest.raises(ls.SourceError):
            ls.parse_space("points: a a\nopens: {} *\n")

    def test_family_violation_is_space_error(self):
        with pytest.raises(ls.SpaceError):
            ls.parse_space("points: a b c\nopens: {} {a} {b} *\n")

    def test_source_round_trip(self):
        space = ls.parse_space("points: a b c\nopens: {} {a} {a,b} *\n")
        assert ls.parse_space(ls.space_source(space)) == space

    def test_json_round_trip(self):
        from latspec.emitters import canonical_json, space_json
        space = ls.parse_space("points: a b\nopens: {} {a} *\n")
        assert ls.read_space(canonical_json(space_json(space))) == space


BOOLEAN_SEMIRING_TEXT = """
elements: 0 1
zero: 0
one: 1
add: 0+0=0 0+1=1 1+0=1 1+1=1
mul: 0*0=0 0*1=0 1*0=0 1*1=1
"""


class TestSemiringParsing:
    def test_boolean(self):
        ring = ls.parse_semiring(BOOLEAN_SEMIRING_TEXT)
        assert ring == boolean_semiring()

    def test_missing_add_entry(self):
        text = BOOLEAN_SEMIRING_TEXT.replace(" 1+1=1", "")
        with pytest.raises(ls.SourceError) as err:
            ls.parse_semiring(text)
        assert "missing entry" in str(err.value)

    def test_axiom_violation_is_semiring_error(self):
        text = BOOLEAN_SEMIRING_TEXT.replace("0+1=1", "0+1=0")
        with pytest.raises(ls.SemiringError):
            ls.parse_semiring(text)


class TestClosureSystemParsing:
    def test_reference_to_lattice_file(self, tmp_path):
        lat_file = tmp_path / "z12.lat"
        lat_file.write_text(ls.lattice_source(ls.divisor_lattice(12)))
        cs_file = tmp_path / "semiprimes.cs"
        cs_file.write_text("lattice: z12.lat\nmembers: 1 2 3 6\n")
        system = ls.parse_closure_system(cs_file.read_text(), path=str(cs_file))
        assert system.carrier == ls.divisor_lattice(12)
        assert sorted(system.members) == [0, 1, 2, 4]

    def test_explicit_carrier(self):
        lat = ls.divisor_lattice(12)
        system = ls.parse_closure_system("members: 1 6\n", carrier=lat)
        assert system.members == frozenset({lat.index("1"), lat.index("6")})


class TestDatumParsing:
    def test_sigma_with_references(self, tmp_path):
        lat = ls.divisor_lattice(12)
        (tmp_path / "z12.lat").write_text(ls.lattice_source(lat))
        (tmp_path / "dual.spc").write_text(
            "points: 2 3\nopens: {} {2} {3} *\n")
        datum_file = tmp_path / "supp.datum"
        datum_file.write_text(
            "lattice: z12.lat\nspace: dual.spc\n"
            "sigma: 1=* 2={3} 3={2} 4={3} 6={} 12={}\n")
        kind, lattice, space, assignment = ls.parse_datum(
            datum_file.read_text(), path=str(datum_file))
        assert kind == "sigma"
        assert lattice == lat
        assert assignment[lat.index("6")] == 0

    def test_missing_assignment_rejected(self):
        lat = ls.divisor_lattice(12)
        space = ls.parse_space("points: 2 3\nopens: {} {2} {3} *\n")
        with pytest.raises(ls.SourceError) as err:
            ls.parse_datum("sigma: 1=*\n", lattice=lat, space=space)
        assert "no assignment" in str(err.value)

    def test_both_kinds_rejected(self):
        lat = ls.divisor_lattice(12)
        space = ls.parse_space("points: 2 3\nopens: {} {2} {3} *\n")
        with pytest.raises(ls.SourceError):
            ls.parse_datum("delta: 1=*\nsigma: 1=*\n", lattice=lat, space=space)

    def test_duplicate_assignment_rejected(self):
        lat = ls.divisor_lattice(12)
        space = ls.parse_space("points: 2 3\nopens: {} {2} {3} *\n")
        with pytest.raises(ls.SourceError):
            ls.parse_datum("sigma: 1=* 1={2} 2={3} 3={2} 4={3} 6={} 12={}\n",
                           lattice=lat, space=space)
