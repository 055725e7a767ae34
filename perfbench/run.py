"""plval benchmark: one workload, one seed, closed loop on one thread.

    python3 perfbench/run.py --workload lattice2d --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; plval is imported from ./src.  The
timed phase repeats whole passes over the workload's case list until
--seconds have elapsed (at least one pass), checking every case.  With
--trace 0 the last stdout line carries the end-to-end metrics, measured
with tracing off, times in reference seconds (see CAL_REF_S); with
--trace 1 it carries the per-layer metrics of a traced phase, plus the
tracing overhead against an untraced phase of the same length.  A results file with the machine record, the input
fingerprint and the output digest goes to .perfbench/results/; traced
runs also write their spans to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
BLAS_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 40  # a set-up takes seconds; a hung one must not outlast the run's budget
# Timings are reported in reference seconds: the time of each case is
# scaled by CAL_REF_S over the mean of the calibration_unit() times
# sampled every SAMPLE_INTERVAL_S of wall time while it ran, or within
# SAMPLE_PAD_S of it (see Sampler).  The host's speed drifts by up to
# 1.6x, in stretches from under a second to minutes, far beyond any
# useful regression bound; scaling removes most of that drift, and no
# change to plval can move the calibration unit.  Raw wall times go to
# the results file too.
CAL_REF_S = 0.004
SAMPLE_INTERVAL_S = 0.1
SAMPLE_PAD_S = 0.3

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# plus "cli.verify.<suite>.busy_s" for every suite, see per_layer_units()
PER_LAYER_UNITS = {
    "overlay.join.busy_s": "s",
    "overlay.meet.busy_s": "s",
    "overlay.calls": "count",
    "overlay.failures": "count",
    "overlay.simplices_in": "count",
    "overlay.simplices_out": "count",
    "overlay.out_per_in": "ratio",
    "valuation.apply.busy_s": "s",
    "valuation.apply.calls": "count",
    "valuation.apply.simplices": "count",
    "valuation.apply.us_per_simplex.power": "us",
    "valuation.apply.us_per_simplex.piecewise_poly": "us",
    "valuation.apply.us_per_simplex.tabulated": "us",
    "valuation.c_profile.busy_s": "s",
    "valuation.recover_kernel.busy_s": "s",
    "integration.lq_norm.busy_s": "s",
    "integration.grad_p_norm.busy_s": "s",
    "integration.level_set_volume.busy_s": "s",
    "integration.simplices": "count",
    "integration.us_per_simplex": "us",
    "polytope.hull_from_points.busy_s": "s",
    "plfunction.cone_function.busy_s": "s",
    "plfunction.mesh_build.busy_s": "s",
    "cli.verify.busy_s": "s",
    "cli.verify.cases": "count",
    "cli.verify.failed": "count",
    "bench.case.self_s": "s",
    "bench.check.busy_s": "s",
    "trace.overhead_frac": "frac",
    "trace.child_cover_frac": "frac",
}


def _fail(msg: str) -> None:
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def _load_program():
    """Pin BLAS to one thread and import plval from this checkout's src."""
    if not os.path.isfile(os.path.join(SRC, "plval", "__init__.py")):
        _fail("no plval sources under %s; run from the root of a checkout" % SRC)
    for var in BLAS_PIN:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import plval

    if os.path.dirname(os.path.abspath(plval.__file__)) != os.path.join(SRC, "plval"):
        _fail("imported plval from %s, not from %s" % (plval.__file__, SRC))


# ---------------------------------------------------------------------------
# Running cases
# ---------------------------------------------------------------------------


def calibration_unit() -> float:
    """Wall time of a fixed piece of work that shares no code with plval:
    an interpreter loop over ints and a dict, then small stacked numpy
    solves and sorts, the two kinds of work plval's hot paths mix."""
    import numpy as np

    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(30000):
        acc += i * i
        table[i & 255] = acc
    M = np.broadcast_to(3.0 * np.eye(3) + 0.1 * np.arange(9.0).reshape(3, 3), (64, 3, 3))
    for _ in range(25):
        np.sort(np.linalg.solve(M, np.ones((64, 3, 1)))[:, :, 0], axis=1)
    return time.perf_counter() - t0


class Sampler:
    """Times calibration_unit() from a SIGALRM handler every
    SAMPLE_INTERVAL_S of wall time while it runs, so the samples cover
    the run uniformly in time, long cases included.  clock() is
    perf_counter() less the time spent calibrating: the cases and spans
    are timed with it, so they exclude the calibrations that interrupt
    them."""

    def __init__(self):
        self.samples = []  # (perf_counter at the sample, calibration time)
        self.busy_s = 0.0
        self._busy = False
        self._previous = None

    def clock(self):
        return time.perf_counter() - self.busy_s

    def sample(self, *_):
        if self._busy:  # an alarm that arrives while calibrating
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append((t0, calibration_unit()))
        self.busy_s += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False


class Phase:
    """Outcome of one timed phase: the time and the wall-clock span of
    every case, the calibration samples, and one message per failed
    case.  `wrong` counts the failures that are wrong answers rather
    than typed refusals."""

    def __init__(self, per_pass):
        self.per_pass = per_pass
        self.case_s = []
        self.case_spans = []  # (start, end) of each case, in perf_counter
        self.samples = []
        self.failures = []
        self.wrong = 0

    @property
    def attempted(self):
        return len(self.case_s)

    def ref_case_s(self):
        """Each case time scaled by CAL_REF_S over the mean calibration
        time within SAMPLE_PAD_S of the case (of the whole phase, if no
        sample falls there)."""
        everything = statistics.fmean(c for _, c in self.samples)
        out = []
        for s, (start, end) in zip(self.case_s, self.case_spans):
            near = [c for t, c in self.samples if start - SAMPLE_PAD_S <= t <= end + SAMPLE_PAD_S]
            out.append(s * CAL_REF_S / (statistics.fmean(near) if near else everything))
        return out

    def pass_s(self, ref=True):
        cs = self.ref_case_s() if ref else self.case_s
        k = self.per_pass
        return [sum(cs[i : i + k]) for i in range(0, len(cs), k)]


def run_case(case, tr, done, reference, phase, clock=time.perf_counter):
    """Run and check one case; any exception or wrong output is a
    failure.  A typed PLValError (OverlayFailure among them) is plval
    refusing the input, which its contract allows; any other exception,
    a check outside its tolerance, or an output that differs from the
    case's first output (its reference) is a wrong answer."""
    from plval.errors import PLValError

    t0, w0 = clock(), time.perf_counter()
    with tr.span("bench.case", case_name=case.name):
        try:
            out = case.run(tr)
        except PLValError as exc:
            phase.failures.append("%s: %s: %s" % (case.name, type(exc).__name__, exc))
            out = None
        except Exception:
            phase.failures.append("%s: %s" % (case.name, traceback.format_exc(limit=-1).strip()))
            phase.wrong += 1
            out = None
        if out is not None:
            with tr.span("bench.check"):
                msg = case.check(out, done)
                want = reference.setdefault(case.name, out)
                if msg is None and out != want:
                    msg = "%s: output %r differs from an earlier pass %r" % (case.name, out, want)
            done[case.name] = out
            if msg:
                phase.failures.append(msg)
                phase.wrong += 1
    phase.case_s.append(clock() - t0)
    phase.case_spans.append((w0, time.perf_counter()))


def timed_phase(cases, tr, seconds, reference, sampler):
    """Whole passes until `seconds` have elapsed, timed with the
    sampler's clock while it samples; tr must use the same clock."""
    phase = Phase(len(cases))
    with sampler:
        start = time.perf_counter()
        while True:
            done = {}
            for case in cases:
                tr.case = phase.attempted
                run_case(case, tr, done, reference, phase, sampler.clock)
            if time.perf_counter() - start >= seconds:
                break
    tr.case = None
    phase.samples = sampler.samples
    return phase


def prepare(workload, seed, tr, tiny=False):
    """Generate the inputs and run the first case once (the warm-up)."""
    import workloads

    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    prepared = workloads.WORKLOADS[workload](seed, tr, tiny=tiny, out_dir=os.path.join(OUT, "tmp"))
    warm = Phase(1)
    reference = {}
    run_case(prepared.cases[0], tr, {}, reference, warm)
    return prepared, reference, warm


def setup_probes(workload, seed, count, tiny=False):
    """Times of `count` fresh processes that import plval, generate the
    inputs and run the warm-up case, in wall and in reference seconds;
    and their input fingerprints.  Each process samples its own speed
    with a Sampler; the time it spent calibrating is not counted."""
    times, ref_times, prints, failures = [], [], [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "0", "--setup-probe"] + (["--tiny"] if tiny else [])
    for _ in range(count):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append("setup probe timed out after %d s" % PROBE_TIMEOUT_S)
            break
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures.append("setup probe exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:]))
            continue
        probe = json.loads(lines[-1])
        times.append(wall - probe["cal_busy_s"])
        ref_times.append(times[-1] * CAL_REF_S / statistics.fmean(probe["cal_s"]))
        prints.append(probe["fingerprint"])
    return times, ref_times, prints, failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(phase, setup_s, ref=True):
    """Timings in reference seconds, or raw wall seconds with ref=False.
    setup_s holds the set-up times, already scaled alike."""
    case_s = phase.ref_case_s() if ref else phase.case_s
    k = phase.per_pass
    # each case's median over the passes: a plain median over all case
    # times flips between the two middle cases' clusters
    typical = [statistics.median(case_s[i::k]) for i in range(k)]
    return {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(phase.pass_s(ref)),
        "cases_per_s": len(case_s) / sum(case_s),
        "case_p50_ms": 1e3 * statistics.median(typical),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_units():
    import workloads

    return {**PER_LAYER_UNITS, **{"cli.verify.%s.busy_s" % s: "s" for s in workloads.VERIFY_SUITES}}


def per_layer(setup_spans, spans, passes, untraced, traced):
    """Layer metrics per pass over the case list (setup spans: per set-up)."""
    from tracing import duration
    from workloads import VERIFY_SUITES

    def busy(name, pool=spans, **match):
        recs = [r for r in pool if r["name"] == name and all(r.get(k) == v for k, v in match.items())]
        return sum(duration(r) for r in recs), recs

    def total(recs, key):
        return sum(r.get(key, 0) for r in recs)

    out = {}
    join_s, joins = busy("overlay.join")
    meet_s, meets = busy("overlay.meet")
    ov = joins + meets
    out["overlay.join.busy_s"] = join_s / passes
    out["overlay.meet.busy_s"] = meet_s / passes
    out["overlay.calls"] = len(ov) / passes
    out["overlay.failures"] = sum(1 for r in ov if "error" in r) / passes
    s_in, s_out = total(ov, "simplices_in"), total(ov, "simplices_out")
    out["overlay.simplices_in"] = s_in / passes
    out["overlay.simplices_out"] = s_out / passes
    out["overlay.out_per_in"] = s_out / s_in if s_in else 0.0

    apply_s, applies = busy("valuation.apply")
    out["valuation.apply.busy_s"] = apply_s / passes
    out["valuation.apply.calls"] = len(applies) / passes
    out["valuation.apply.simplices"] = total(applies, "simplices") / passes
    for kind in ("power", "piecewise_poly", "tabulated"):
        t, recs = busy("valuation.apply", kernel=kind)
        m = total(recs, "simplices")
        out["valuation.apply.us_per_simplex." + kind] = 1e6 * t / m if m else 0.0
    out["valuation.c_profile.busy_s"] = busy("valuation.c_profile")[0] / passes
    out["valuation.recover_kernel.busy_s"] = busy("valuation.recover_kernel")[0] / passes

    int_s, int_m = 0.0, 0
    for name in ("lq_norm", "grad_p_norm", "level_set_volume"):
        t, recs = busy("integration." + name)
        out["integration.%s.busy_s" % name] = t / passes
        int_s += t
        int_m += total(recs, "simplices")
    out["integration.simplices"] = int_m / passes
    out["integration.us_per_simplex"] = 1e6 * int_s / int_m if int_m else 0.0

    for name in ("polytope.hull_from_points", "plfunction.cone_function", "plfunction.mesh_build"):
        out[name + ".busy_s"] = busy(name, setup_spans)[0]

    cli_s, clis = busy("cli.verify")
    out["cli.verify.busy_s"] = cli_s / passes
    for suite in VERIFY_SUITES:
        out["cli.verify.%s.busy_s" % suite] = busy("cli.verify", suite=suite)[0] / passes
    out["cli.verify.cases"] = total(clis, "cases") / passes
    # failed report rows, plus suites the CLI ended with a typed error
    out["cli.verify.failed"] = (total(clis, "failed") + sum("error" in r for r in clis)) / passes

    case_s = busy("bench.case")[0]
    case_ids = {i for i, r in enumerate(spans) if r["name"] == "bench.case"}
    children = [r for r in spans if r["parent"] in case_ids]
    covered = sum(duration(r) for r in children)
    layer_cover = sum(duration(r) for r in children if not r["name"].startswith("bench."))
    out["bench.case.self_s"] = (case_s - covered) / passes
    out["bench.check.busy_s"] = busy("bench.check")[0] / passes
    out["trace.overhead_frac"] = statistics.median(traced.pass_s()) / statistics.median(untraced.pass_s()) - 1.0
    out["trace.child_cover_frac"] = layer_cover / case_s if case_s else 0.0
    return out


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def machine_record():
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_PIN},
        "git_commit": commit,
    }


def output_digest(reference, cases):
    payload = [[c.name, [repr(x) for x in reference.get(c.name, ())]] for c in cases]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def write_json(subdir, stem, obj, lines=False):
    path = os.path.join(OUT, subdir)
    os.makedirs(path, exist_ok=True)
    path = os.path.join(path, stem + (".jsonl" if lines else ".json"))
    with open(path, "w") as fh:
        if lines:
            fh.writelines(json.dumps(o, sort_keys=True) + "\n" for o in obj)
        else:
            json.dump(obj, fh, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def bench(workload, seed, seconds, trace, tiny=False, probes=SETUP_PROBES):
    """Run one benchmark invocation; returns (result line dict, record)."""
    from tracing import NullTracer, Tracer

    load_start = os.getloadavg()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny}
    problems = []  # failures of the harness's own checks: all count as wrong
    setup_times, setup_ref, prints = [], [], []
    if not trace:
        setup_times, setup_ref, prints, problems = setup_probes(workload, seed, probes, tiny)
        record["setup_probe_s"] = setup_times
    setup_tr = Tracer() if trace else NullTracer()
    prepared, reference, warm = prepare(workload, seed, setup_tr, tiny)
    if any(p != prepared.fingerprint for p in prints):
        problems.append("input fingerprint differs between processes: %s vs %s" % (prints, prepared.fingerprint))

    if trace:
        untraced = timed_phase(prepared.cases, NullTracer(), seconds / 2.0, reference, Sampler())
        sampler = Sampler()
        tr = Tracer(clock=sampler.clock)
        traced = timed_phase(prepared.cases, tr, seconds / 2.0, reference, sampler)
        phases = [untraced, traced]
        metrics = per_layer(setup_tr.spans, tr.spans, len(traced.pass_s()), untraced, traced)
        units = per_layer_units()
        stem = "%s-seed%d-trace1-%d" % (workload, seed, time.time_ns())
        record["trace_file"] = write_json("traces", stem, setup_tr.spans + tr.spans, lines=True)
    else:
        phase = timed_phase(prepared.cases, NullTracer(), seconds, reference, Sampler())
        phases = [phase]
        metrics = {}
        if setup_times:
            metrics = end_to_end(phase, setup_ref)
            record["raw_metrics"] = end_to_end(phase, setup_times, ref=False)
        units = END_TO_END_UNITS
        if phase.attempted >= 100:
            record["case_p90_ms"] = 1e3 * statistics.quantiles(phase.ref_case_s(), n=10)[-1]

    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.failures) for p in phases)
    wrong = len(problems) + sum(p.wrong for p in [warm] + phases)
    failures = problems + [msg for p in [warm] + phases for msg in p.failures]
    result = {
        "correct": wrong == 0 and len(metrics) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    record.update(
        machine=machine_record(),
        loadavg_start=load_start,
        loadavg_end=os.getloadavg(),
        inputs=prepared.inputs,
        input_fingerprint=prepared.fingerprint,
        output_digest=output_digest(reference, prepared.cases),
        passes=[len(p.pass_s()) for p in phases],
        pass_s=[p.pass_s(ref=False) for p in phases],
        case_s=[p.case_s for p in phases],
        cal_s=[[c for _, c in p.samples] for p in phases],
        fail_frac=failed / attempted,
        wrong=wrong,
        failures=failures[:50],
        result=result,
    )
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)  # harness self-test inputs
    args = ap.parse_args(argv)
    if args.seconds < 0:
        _fail("--seconds must be nonnegative")
    _load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail("unknown workload %r; known: %s" % (args.workload, ", ".join(workloads.WORKLOADS)))
    if args.setup_probe:
        from tracing import NullTracer

        # the main process judges the warm-up case; this one is only timed
        with Sampler() as sampler:
            prepared = prepare(args.workload, args.seed, NullTracer(), args.tiny)[0]
        cal_s = [c for _, c in sampler.samples]
        print(json.dumps({"fingerprint": prepared.fingerprint, "cal_s": cal_s, "cal_busy_s": sampler.busy_s}))
        return 0
    result, record = bench(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    write_json("results", "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, time.time_ns()), record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
