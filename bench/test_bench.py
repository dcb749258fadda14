"""Tests of the benchmark's own code: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from latspec import cli  # noqa: E402


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_in(tmp_path, job):
    """Write the job's files under tmp_path and run it there."""
    for name, data in job.files.items():
        (tmp_path / name).write_bytes(data)
    argv = [str(tmp_path / a) if a in job.files else a for a in job.argv]
    return call(argv)


# --------------------------------------------------------------------------
# the generator


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    def rounds(seed):
        source = gen.JobSource(workload, seed)
        jobs = source.next_round() + [source.warmup()] + source.probes()
        return [(job.ident, job.klass, job.argv, job.files) for job in jobs]

    first = rounds(7)
    assert first == rounds(7)
    assert first != rounds(8)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_no_two_jobs_of_a_run_share_an_input(workload):
    source = gen.JobSource(workload, 3)
    jobs = source.next_round() + source.next_round()
    keys = [run.input_key(job) for job in jobs]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_round_has_the_same_slots(workload):
    source = gen.JobSource(workload, 2)
    first, second = source.next_round(), source.next_round()
    assert [job.klass for job in first] == [job.klass for job in second]


def test_point_names_are_ones_parse_space_accepts():
    names, opens = gen.random_space(random.Random(1), "dual:small")
    assert not any(ch in name for name in names for ch in "{},")


# --------------------------------------------------------------------------
# tracing


def bindings():
    """Every latspec module binding and traced class attribute, by identity."""
    modules = tracing.package_modules()
    found = {(name, attr): id(value) for name, module in modules.items()
             for attr, value in vars(module).items()}
    for module, target, _, _ in tracing.POINTS:
        owner, _, attr = target.rpartition(".")
        if owner:
            cls = getattr(modules[f"latspec.{module}"], owner)
            found[(owner, attr)] = id(cls.__dict__.get(attr))
    return found


def test_install_wraps_every_binding_and_remove_restores_them():
    import latspec.adjunction
    import latspec.lattice
    original = latspec.lattice.verify_axioms
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.verify_axioms is not original
        assert latspec.lattice.verify_axioms is cli.verify_axioms
        assert "__init__" in latspec.adjunction.SupportDatum.__dict__
        assert tracer.missing == []
    finally:
        tracer.remove()
    assert bindings() == before
    assert "__init__" not in latspec.adjunction.SupportDatum.__dict__


def test_each_setup_unloads_modules_loaded_after_the_benchmarks_own():
    code = ("import sys, types; sys.path.insert(0, 'bench'); import run; "
            "sys.modules['late_dependency'] = types.ModuleType('late_dependency'); "
            "first = run.import_cli(); assert 'late_dependency' not in sys.modules; "
            "assert run.import_cli() is not first")
    subprocess.run([sys.executable, "-c", code], cwd=HERE.parent, check=True)


def test_wrappers_are_installed_only_in_traced_rounds(monkeypatch):
    """The loop traces every second round of a traced run, none of an
    untraced run, and leaves no wrapper behind."""
    import latspec.lattice
    original = latspec.lattice.verify_axioms
    seen = []

    def fake_job(main, job):
        seen.append(latspec.lattice.verify_axioms is not original)
        return 1.0, None, "digest"

    class Source:
        def next_round(self):
            return [gen.Job("j", "k", ["spec", "x.lat"])]

    monkeypatch.setattr(run, "run_job", fake_job)
    monkeypatch.setattr(run, "calibrate", lambda: [run.CALIBRATION_REF_S] * 3)
    before = bindings()
    for traced, expected in ((False, [False] * 4), (True, [False, True, False, True])):
        seen.clear()
        bench = run.Run("divisor_cli", 1, 3.5, traced)
        bench.cli, bench.source = cli, Source()
        bench.first_round = bench.source.next_round()
        bench.loop()
        assert seen == expected
        assert bindings() == before


def test_traced_job_spans_and_identical_output(tmp_path):
    lat = gen.Divisors({2: 2, 3: 1, 5: 1})
    (tmp_path / "z.lat").write_text(lat.source())
    argv = ["classify", str(tmp_path / "z.lat")]
    plain = call(argv)
    tracer = tracing.Tracer()
    tracer.start_job("j")
    tracer.install()
    try:
        traced = call(argv)
    finally:
        tracer.remove()
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "sources.read", "lattice.verify_axioms",
            "topology.classification", "emitters.emit"} <= names
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, {"j": 1.0})
    own = sum(v for k, v in metrics.items() if k.endswith("_ms") and k != "cli.main_ms")
    assert own == pytest.approx(metrics["cli.main_ms"])
    assert metrics["lattice.verified_elements"] == len(lat.divs) == 12
    assert metrics["topology.spectrum_calls"] >= 1


def test_self_time_of_a_synthetic_span_tree():
    spans = [["a", 0, 100, -1, "j"],   # children cover 10-40, 50-70 and 90-100
             ["b", 10, 40, 0, "j"],    # child covers 20-30
             ["c", 20, 30, 1, "j"],
             ["d", 50, 70, 0, "j"],
             ["e", 90, 120, 0, "j"],   # ends after its parent: clipped
             ["f", 55, 65, 3, "j"],
             ["g", 60, 68, 3, "j"]]    # overlaps its sibling f
    assert tracing.self_times(spans) == [40, 20, 10, 7, 30, 10, 8]


def test_layer_metrics_are_per_job_means_scaled_by_speed():
    spans = [["cli.main", 0, 4_000_000, -1, "x"], ["lattice.verify_axioms", 0, 3_000_000, 0, "x"],
             ["cli.main", 0, 2_000_000, -1, "y"], ["lattice.verify_axioms", 0, 1_000_000, 2, "y"]]
    counts = {"x": {"lattice.verify_axioms_calls": 2}, "y": {"lattice.verify_axioms_calls": 1}}
    metrics = tracing.layer_metrics(spans, counts, {"x": 1.0, "y": 0.5})
    assert metrics["cli.main_ms"] == pytest.approx((4 + 1) / 2)
    assert metrics["cli.self_ms"] == pytest.approx((1 + 0.5) / 2)
    assert metrics["lattice.verify_axioms_ms"] == pytest.approx((3 + 0.5) / 2)
    assert metrics["lattice.verify_axioms_calls"] == 1.5


# --------------------------------------------------------------------------
# oracles: each accepts the seed output and rejects a wrong one


def swap(text, old, new):
    assert old in text, (old, text[:200])
    return text.replace(old, new, 1)


SMALL = gen.Divisors({2: 2, 3: 1, 5: 1, 7: 1})  # 24 elements


@pytest.mark.parametrize("argv, wrong", [
    (["verify"], lambda o: swap(o, '"passed": true', '"passed": false')),
    (["spec"], lambda o: swap(o, '"3",', '')),
    (["radical", "12"], lambda o: swap(o, '"radical": "6"', '"radical": "12"')),
    (["supp", "12"], lambda o: swap(o, '"5"', '"3"')),
    (["classify"], lambda o: swap(o, '"kind": "open"', '"kind": "closed"')),
    (["decompose", "2"], lambda o: swap(o, '"element": "70"', '"element": "35"')),
])
def test_divisor_oracles(tmp_path, argv, wrong):
    job = gen.Job("j", "k", [argv[0], "z.lat", *argv[1:]],
                  {"z.lat": SMALL.source().encode()})
    code, out, err = run_in(tmp_path, job)
    check = oracles.divisor_command(SMALL, job.argv)
    assert check(code, out, err) is None
    assert check(code, wrong(out), err) is not None
    assert check(code + 1, out, err) is not None
    assert check(code, out, err + "noise") is not None


@pytest.mark.parametrize("kind", ["missing_join", "product_interior", "product_unit",
                                  "product_bottom", "malformed"])
@pytest.mark.parametrize("command", ["verify", "spec"])
def test_broken_lattice_oracles(tmp_path, kind, command):
    lat = gen.Divisors({2: 1, 3: 1, 5: 1, 7: 2})
    text, facts = gen.mutate(random.Random(kind), lat, kind)
    job = gen.Job("j", "k", [command, "b.lat"], {"b.lat": text.encode()})
    code, out, err = run_in(tmp_path, job)
    check = oracles.broken_command(lat, kind, command, str(tmp_path / "b.lat"), facts)
    assert check(code, out, err) is None
    assert check(0, out, err) is not None
    if out:  # a verify report: flip the first failing check
        assert check(code, swap(out, '"passed": false', '"passed": true'), err) is not None
    else:
        assert check(code, out, swap(err, '"error": "', '"error": "x')) is not None


def test_non_utf8_probe_expects_a_json_error_line():
    check = oracles.input_error(None)
    assert check(2, "", '{"error": "bad bytes"}\n') is None
    assert check(1, "", '{"error": "bad bytes"}\n') is not None
    assert check(2, "", "Traceback (most recent call last):\n  ...\n") is not None


def test_space_oracles(tmp_path):
    names, opens = gen.random_space(random.Random(2), "dual:small")
    for command in ("dual", "openlattice"):
        job = gen.Job("j", "k", [command, "s.spc"],
                      {"s.spc": gen.space_text(names, opens).encode()})
        code, out, err = run_in(tmp_path, job)
        check = oracles.space_command(command, names, opens)
        assert check(code, out, err) is None
        wrong = json.loads(out)
        key = "opens" if command == "dual" else "leq"
        wrong[key] = wrong[key][1:]
        assert check(code, json.dumps(wrong), err) is not None


@pytest.mark.parametrize("bijective", [False, True])
def test_datum_oracles(tmp_path, bijective):
    rng = random.Random(4)
    lat, names, opens, mapping = gen.support_datum(rng, 3, 5, bijective)
    files, paths = gen.datum_files("d", lat, names, opens, mapping)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code, out, err = call(["classifying", str(tmp_path / paths[2])])
    check = oracles.classifying(bijective)
    assert check(code, out, err) is None
    assert check(1 - code, json.dumps({"classifying": not bijective}), err) is not None
    code, out, err = call(["adjoint-check", *(str(tmp_path / p) for p in paths)])
    check = oracles.adjoint_check(lat, names, mapping)
    assert check(code, out, err) is None
    assert check(code, swap(out, "found 1 solution", "found 2 solution"), err) is not None
    first = names[0]
    wrong = json.loads(out)
    wrong["map"][first] = str(lat.primes[(mapping[0] + 1) % len(lat.primes)])
    assert check(code, json.dumps(wrong), err) is not None


@pytest.mark.parametrize("klass", ["zn_small", "powerset_4", "divisor_plain"])
def test_gen_oracles(tmp_path, klass):
    job = next(job for job in gen.instance_gen_round(random.Random(5), "t", set())
               if job.klass == klass)
    code, out, err = run_in(tmp_path, job)
    assert job.check(code, out, err) is None
    elements = out.splitlines()[1]
    wrong = out.replace(elements, elements.rsplit(" ", 1)[0])
    assert job.check(code, wrong, err) is not None
