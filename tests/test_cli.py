import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latspec
from golden_cases import CASES, TESTS_DIR, run_cli, run_pipeline

# The directory holding the imported latspec package, for real child processes.
PACKAGE_ROOT = Path(latspec.__file__).resolve().parent.parent


def latspec_process(*args, env=None, stdin=b""):
    """Run ``python -m latspec`` as a child process in tests/, with the package
    under test first on its PYTHONPATH."""
    merged = dict(os.environ)
    merged.update(env or {})
    merged["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "latspec", *args], input=stdin,
                          capture_output=True, env=merged, cwd=TESTS_DIR)


@pytest.mark.parametrize("name,stages", CASES, ids=[c[0] for c in CASES])
def test_golden_pipeline(name, stages):
    code, data, err = run_pipeline(stages)
    assert code == 0, err.decode()
    assert data == (TESTS_DIR / "golden" / name).read_bytes()


class TestExitCodes:
    def test_verify_valid_lattice_exits_zero(self):
        code, _, _ = run_cli(["verify", "data/z12.lat"])
        assert code == 0

    def test_verify_one_element_lattice(self):
        text = b"elements: e\ntop: e\nbottom: e\nmul: e*e=e\n"
        code, _, _ = run_cli(["verify"], stdin=text)
        assert code == 0

    def test_verify_broken_lattice_exits_one(self):
        text = (b"elements: 0 b c 1\nleq: 0<b 0<c b<1 c<1\ntop: 1\nbottom: 0\n"
                b"mul: 0*0=0 0*b=0 0*c=0 0*1=0 b*0=0 b*b=0 b*c=0 b*1=b\n"
                b"  c*0=0 c*b=0 c*c=0 c*1=c 1*0=0 1*b=b 1*c=c 1*1=1\n")
        code, out, _ = run_cli(["verify"], stdin=text)
        assert code == 1
        report = json.loads(out)
        assert not report["ok"]
        failed = [c for c in report["checks"] if not c["passed"]]
        assert failed[0]["name"] == "L3_distributive"
        assert failed[0]["witness"] == ["b", "b", "c"]

    def test_parse_error_exits_two(self):
        code, _, err = run_cli(["verify"], stdin=b"elements: a\n")
        assert code == 2
        assert b"error" in err

    def test_unknown_element_exits_two(self):
        code, _, _ = run_cli(["radical", "data/z12.lat", "7Z"])
        assert code == 2

    def test_missing_file_exits_two(self):
        code, _, _ = run_cli(["spec", "no/such/file.lat"])
        assert code == 2

    def test_invalid_lattice_input_for_spec_exits_two(self):
        text = (b"elements: 0 1\nleq: 0<1\ntop: 1\nbottom: 0\n"
                b"mul: 0*0=0 0*1=1 1*0=1 1*1=1\n")  # bottom does not annihilate
        code, _, _ = run_cli(["spec"], stdin=text)
        assert code == 2

    def test_decompose_non_semiprime_exits_two(self):
        code, _, err = run_cli(["decompose", "data/z12.lat", "4"])
        assert code == 2
        assert b"not semiprime" in err

    def test_classifying_false_exits_one(self):
        code, out, _ = run_cli(["classifying", "data/z12supp_deleted.datum"])
        assert code == 1
        assert json.loads(out) == {"classifying": False}

    def test_invalid_datum_exits_one_with_report(self, tmp_path):
        data = TESTS_DIR / "data"
        bad = (f"lattice: {data / 'z12.lat'}\nspace: {data / 'z12dual.spc'}\n"
               "sigma: 1={2} 2={3} 3={2} 4={3} 6={} 12={}\n")
        path = tmp_path / "bad.datum"
        path.write_text(bad, encoding="utf-8")
        code, out, _ = run_cli(["adjoint-check", "data/z12.lat",
                                "data/z12dual.spc", str(path)])
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False

    @staticmethod
    def _one_json_error(err):
        lines = err.decode().splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])["error"]

    def test_non_utf8_file_exits_two(self, tmp_path):
        path = tmp_path / "bad.lat"
        path.write_bytes((TESTS_DIR / "data" / "z12.lat").read_bytes() + b"# \xff\n")
        code, out, err = run_cli(["verify", str(path)])
        assert code == 2
        assert out == b""
        assert "utf-8" in self._one_json_error(err)

    def test_non_utf8_referenced_lattice_exits_two(self, tmp_path):
        (tmp_path / "bad.lat").write_bytes(b"elements: \xff\n")
        datum = tmp_path / "bad.datum"
        datum.write_text(f"lattice: bad.lat\nspace: {TESTS_DIR / 'data' / 'z12dual.spc'}\n"
                         "sigma: 1={}\n", encoding="utf-8")
        code, out, err = run_cli(["classifying", str(datum)])
        assert code == 2
        assert out == b""
        assert "utf-8" in self._one_json_error(err)

    def test_non_utf8_stdin_exits_two_under_c_locale(self):
        # A real process: under a C locale sys.stdin decodes with
        # surrogateescape, so stdin must be decoded as strict UTF-8 by hand.
        text = b"elements: \xff\ntop: \xff\nbottom: \xff\nmul: \xff*\xff=\xff\n"
        proc = latspec_process("verify", "-", stdin=text,
                               env={"LC_ALL": "C", "PYTHONUTF8": "0"})
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert "utf-8" in self._one_json_error(proc.stderr)

    @pytest.mark.parametrize("modulus,code", [
        ("1000000000000", 0),       # 10^12: 169 divisors
        ("1000000000001000", 2),    # above the 10^12 cap
        ("963761198400", 2),        # 6720 divisors, above MAX_IDEALS
    ])
    def test_gen_divisor_caps(self, modulus, code):
        got, out, err = run_cli(["gen", "divisor", modulus])
        assert got == code
        if code == 0:
            assert out.startswith(b"# lattice description\nelements: 1 2 4 5 8 ")
            assert err == b""
        else:
            assert out == b""
            assert modulus in self._one_json_error(err)

    @pytest.mark.parametrize("command", ["verify", "dual"])
    def test_deeply_nested_json_exits_two(self, command):
        text = b'{"elements": ' + b"[" * 100_000
        code, out, err = run_cli([command, "-"], stdin=text)
        assert code == 2
        assert out == b""
        assert "bad JSON" in self._one_json_error(err)

    def test_usage_error_exits_two_with_one_json_line(self):
        code, out, err = run_cli(["gen", "divizor", "12"])
        assert code == 2
        assert out == b""
        assert "divizor" in self._one_json_error(err)

    def test_main_module_exits_with_main_code(self):
        # A real process: __main__ must hand main()'s code to sys.exit.
        proc = latspec_process("spec", "data/z12.lat",
                               env={"LATSPEC_MAX_ENUM": "abc"})
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr
        assert "error" in json.loads(proc.stderr)


class TestFlags:
    def test_quiet_suppresses_output(self):
        code, out, _ = run_cli(["spec", "data/z12.lat", "--quiet"])
        assert code == 0
        assert out == b""

    def test_dot_rejected_where_not_graphical(self):
        code, _, _ = run_cli(["radical", "data/z12.lat", "4", "--dot"])
        assert code == 2

    def test_format_dot_equals_dot_flag(self):
        a = run_cli(["dual", "data/sierpinski.spc", "--dot"])
        b = run_cli(["dual", "data/sierpinski.spc", "--format", "dot"])
        assert a[0] == b[0] == 0
        assert a[1]
        assert a[1] == b[1]

    def test_max_enum_flag_skips_uniqueness(self):
        code, out, _ = run_cli(["adjoint-check", "data/z12.lat", "data/z12dual.spc",
                                "data/z12supp.datum", "--max-enum", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["uniqueness"]["note"].startswith("skipped")

    def test_max_enum_env_var(self):
        code, out, _ = run_cli(["adjoint-check", "data/z12.lat", "data/z12dual.spc",
                                "data/z12supp.datum"], env={"LATSPEC_MAX_ENUM": "1"})
        payload = json.loads(out)
        assert payload["uniqueness"]["note"].startswith("skipped")

    def test_max_enum_flag_below_one_exits_two(self):
        code, out, err = run_cli(["adjoint-check", "data/z12.lat", "data/z12dual.spc",
                                  "data/z12supp.datum", "--max-enum", "-5"])
        assert code == 2
        assert out == b""
        lines = err.decode().splitlines()
        assert len(lines) == 1
        assert "--max-enum" in json.loads(lines[0])["error"]

    def test_max_enum_env_var_below_one_exits_two(self):
        code, out, err = run_cli(["adjoint-check", "data/z12.lat", "data/z12dual.spc",
                                  "data/z12supp.datum"], env={"LATSPEC_MAX_ENUM": "0"})
        assert code == 2
        assert out == b""
        lines = err.decode().splitlines()
        assert len(lines) == 1
        assert "LATSPEC_MAX_ENUM" in json.loads(lines[0])["error"]

    def test_malformed_max_enum_env_var_exits_two(self):
        code, out, err = run_cli(["spec", "data/z12.lat"],
                                 env={"LATSPEC_MAX_ENUM": "abc"})
        assert code == 2
        assert out == b""
        lines = err.decode().splitlines()
        assert len(lines) == 1
        assert "LATSPEC_MAX_ENUM" in json.loads(lines[0])["error"]


class TestDeterminism:
    def test_spec_output_is_byte_stable(self):
        # Separate processes with different string-hash seeds.
        procs = [latspec_process("spec", "data/z12.lat",
                                 env={"PYTHONHASHSEED": str(seed)})
                 for seed in (1, 2, 3)]
        assert [p.returncode for p in procs] == [0, 0, 0]
        runs = {p.stdout for p in procs}
        assert len(runs) == 1
        assert runs != {b""}

    def test_pipe_composes_json_and_text(self):
        # openlattice emits JSON; spec accepts it back
        _, lattice_json, _ = run_cli(["openlattice", "data/sierpinski.spc"])
        code, out, _ = run_cli(["spec"], stdin=lattice_json)
        assert code == 0
        assert json.loads(out) == {"primes": ["{}", "{1}"]}
