"""latspec CLI benchmark: seeded jobs through ``latspec.cli.main`` in-process.

    python3 bench/run.py --workload divisor_cli --seed 1 --seconds 20 --trace 0

One client runs a closed loop: the next job starts when the previous one has
returned, with no extra threads or processes.  Each job reads its own freshly
generated input file.  Rounds of jobs run until the jobs have been busy for
``--seconds``; the last round is completed, and every round holds the same
jobs, so every run has the same mix.  Times are scaled to a reference CPU speed (``at_reference_speed``).
Every output is checked by an oracle (``oracles``) and, where recorded,
against its digest at the seed commit (``digests.json``).  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracing  # noqa: E402

# Every module loaded before latspec is first imported: the benchmark's own.
# Each set-up unloads all others, so it pays for every module latspec needs.
BENCH_MODULES = frozenset(sys.modules)

SETUP_REPEATS = 5
# Seconds one calibration piece takes at the reference CPU speed.  The CPU
# speed of a shared machine drifts by a quarter within seconds; the ratio of
# a job's time to the calibration pieces around it does not, so times are
# reported at the reference speed.
CALIBRATION_REF_S = 0.003
END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_ms_p50": "ms", "job_ms_p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def import_cli():
    """Unload every module that is not the benchmark's own, import latspec
    afresh from this checkout's src/ and return its cli."""
    src = ROOT / "src"
    if not (src / "latspec" / "__init__.py").is_file():
        raise SystemExit(f"bench: no latspec package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [name for name in sys.modules if name not in BENCH_MODULES]:
        del sys.modules[name]
    cli = importlib.import_module("latspec.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench: latspec was imported from {cli.__file__}")
    return cli


def calibrate():
    """Time three pieces of fixed pure-Python work.  Of the loops tried, this
    integer scan tracked the speed of both lattice checking and the divisor
    scan best."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        [d for d in range(1, 60000) if 3100001 % d == 0]
        times.append(time.perf_counter() - start)
    return times


def at_reference_speed(measure):
    """Run ``measure()`` between calibrations; return its result and the
    factor that scales its wall time to the reference CPU speed."""
    before = calibrate()
    result = measure()
    return result, CALIBRATION_REF_S / statistics.median(before + calibrate())


def write_inputs(jobs):
    for job in jobs:
        for name, data in job.files.items():
            Path(name).write_bytes(data)


def input_key(job):
    digest = hashlib.sha256("\0".join(job.argv).encode())
    for name in sorted(job.files):
        digest.update(b"\0" + name.encode() + b"\0" + job.files[name])
    return digest.hexdigest()[:16]


def output_digest(code, out, err):
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()[:16]


def run_job(main, job):
    """Time one cli.main call; return (seconds, failure reason or None, digest)."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the job fails; the benchmark goes on
            code, escaped = None, exc
        seconds = time.perf_counter() - start
    if escaped is not None:
        reason = f"exception escaped cli.main: {type(escaped).__name__}: {escaped}"
    else:
        reason = job.check(code, out.getvalue(), err.getvalue())
    return seconds, reason, output_digest(code, out.getvalue(), err.getvalue())


class Run:
    """One workload, one seed: set-up, the timed loop, and the results."""

    def __init__(self, workload, seed, seconds, traced):
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.workdir = ROOT / ".bench_work" / f"{workload}-s{seed}"
        self.expected = json.loads((HERE / "digests.json").read_text()).get(workload, {})
        self.observed = {}
        self.samples = []  # (job, class, round, slot, seconds, speed factor, traced)
        self.failures = []  # (job ident, reason)
        self.digest_checked = 0
        self.tracer = tracing.Tracer()

    def check_digest(self, job, digest, reason):
        key = input_key(job)
        self.observed[key] = digest
        if key in self.expected:
            self.digest_checked += 1
            if reason is None and self.expected[key] != digest:
                return "output differs from its digest at the seed commit"
        return reason

    def setup(self):
        """Import latspec, write the first round of inputs and run one warm-up
        job, several times; the median is setup_s.  Inputs are generated
        beforehand: the generator is benchmark code, not latspec's set-up."""
        self.source = gen.JobSource(self.workload, self.seed)
        self.first_round = self.source.next_round()
        warm = self.source.warmup()
        times = []
        for _ in range(SETUP_REPEATS):
            (seconds, reason), factor = at_reference_speed(lambda: self._setup_once(warm))
            times.append(seconds * factor)
            if reason is not None and len(times) == 1:
                self.failures.append((warm.ident, reason))
        self.setup_times = times

    def _setup_once(self, warm):
        start = time.perf_counter()
        os.chdir(ROOT)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        os.chdir(self.workdir)
        self.cli = import_cli()
        write_inputs(self.first_round + [warm])
        _, reason, _ = run_job(self.cli.main, warm)
        return time.perf_counter() - start, reason

    def loop(self):
        busy, round_no, jobs = 0.0, 0, self.first_round
        while self._wants_round(busy, round_no):
            traced = self.traced and round_no % 2 == 1
            if traced:
                self.tracer.install()
            try:
                for slot, job in enumerate(jobs):
                    self.tracer.start_job(job.ident)
                    (seconds, reason, digest), factor = at_reference_speed(
                        lambda: run_job(self.cli.main, job))
                    busy += seconds
                    self.samples.append((job.ident, job.klass, round_no, slot, seconds,
                                         factor, traced))
                    reason = self.check_digest(job, digest, reason)
                    if reason is not None:
                        self.failures.append((job.ident, reason))
            finally:
                self.tracer.remove()
            round_no += 1
            if self._wants_round(busy, round_no):
                jobs = self.source.next_round()
                write_inputs(jobs)
        self.busy = busy

    def _wants_round(self, busy, round_no):
        # A traced run needs one untraced and one traced round at least.
        return busy < self.seconds or (self.traced and round_no < 2)

    def probes(self):
        """Known-defect probes: run once, untimed, reported but not counted."""
        results = []
        for job in self.source.probes():
            write_inputs([job])
            _, reason, _ = run_job(self.cli.main, job)
            results.append((job.klass, reason))
        return results

    def end_to_end(self):
        times = [s[4] * s[5] for s in self.samples]
        return {"jobs_per_s": len(times) / sum(times),
                "job_ms_p50": statistics.median(times) * 1000,
                "job_ms_p90": statistics.quantiles(times, n=10, method="inclusive")[8] * 1000,
                "setup_s": statistics.median(self.setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    def per_layer(self):
        traced_jobs = {s[0]: s[5] for s in self.samples if s[6]}
        metrics = tracing.layer_metrics(self.tracer.spans, self.tracer.counts, traced_jobs)
        # Overhead: a traced round against the untraced round before it,
        # slot by slot, so both sides have the same size classes.
        by_slot = {(s[2], s[3]): s[4] * s[5] for s in self.samples}
        pairs = [(by_slot[(r - 1, slot)], t) for (r, slot), t in by_slot.items()
                 if r % 2 == 1 and (r - 1, slot) in by_slot]
        plain = sum(p for p, _ in pairs)
        metrics["trace.overhead_pct"] = (
            100 * (sum(t for _, t in pairs) / plain - 1) if plain else 0.0)
        return metrics

    def write_records(self):
        out = ROOT / ".bench_work"
        stem = f"{self.workload}-s{self.seed}"
        (out / f"digests-{stem}.json").write_text(json.dumps(self.observed, indent=0))
        if self.traced:
            (out / f"trace-{stem}.json").write_text(json.dumps(
                {"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                 "spans": self.tracer.spans}))


def per_layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    return "%" if name.endswith("_pct") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.setup()
        run.loop()
        probes = run.probes()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(run.workdir, ignore_errors=True)
    run.write_records()

    attempted, failed = len(run.samples) + 1, len(run.failures)  # + the warm-up job
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} jobs in {run.busy:.1f} s busy")
    print(f"  fail_share {failed / attempted:.4f} ({failed}/{attempted} failed), "
          f"{run.digest_checked} outputs checked against seed-commit digests")
    for ident, reason in run.failures[:10]:
        print(f"  FAILED {ident}: {reason}")
    for klass, reason in probes:
        print(f"  known-defect probe {klass}: {'passes' if reason is None else reason}")
    classes = {}
    for _, klass, _, _, seconds, factor, traced in run.samples:
        if not traced:
            classes.setdefault(klass, []).append(seconds * factor * 1000)
    for klass, times in sorted(classes.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  class {klass:<28} {len(times):4d} jobs  median {statistics.median(times):9.1f} ms")
    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in run.per_layer().items()}
        if run.tracer.missing:
            print(f"  trace points not found: {', '.join(run.tracer.missing)}")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in run.end_to_end().items()}
    for name, metric in metrics.items():
        note = f"  ({len(run.samples)} samples)" if name.startswith("job_ms") else ""
        print(f"  {name:<36} {metric['value']:14.4f} {metric['unit']}{note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
