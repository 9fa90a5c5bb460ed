"""Fixed-work benchmark of the skelforge library and command line.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each pass runs the workload's fixed job list once; passes repeat
while the next one would still end within ``--seconds`` (at least
MIN_PASSES).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  With ``--trace 0`` the metrics are setup_s, pass_s and
peak_rss_mb; with ``--trace 1`` they are the per-layer times and counts.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import jobs
from checks import CheckFailure
from tracing import NullTracer, Tracer, profile_counts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_PASSES = 2
SETUP_SAMPLES = 3

# Every per-layer metric, in the order they are printed, with its unit.
LAYER_TIMES = [
    "orbit.build", "orbit.lattice", "orbit.quotient",
    "complexes.validate", "complexes.vertex_figure",
    "classify.polygon", "classify.schlafli", "classify.verdict",
    "classify.flag_symmetries", "classify.edge_stabilizer",
    "ops.petrie_dual", "ops.trace",
    "nets.reference_nets", "nets.extract_net", "nets.identify_net",
    "nets.coordination_sequence", "nets.vertex_set",
    "serialization.ingest", "serialization.dump",
    "cli.startup", "cli.import", "cli.build", "cli.validate", "cli.classify",
    "cli.petrie", "cli.net", "cli.export",
]
LAYER_COUNTS = [
    "orbit.patch_elements", "orbit.lattice_candidates", "quotient.darts",
    "ops.petrie_translates", "ops.trace_circuits", "serialization.bytes",
    "geometry.isometry_calls", "geometry.reduce_key_calls",
    "geometry.coords_calls", "complexes.canonical_key_calls",
    "complexes.window_calls", "fractions.new_calls", "python.calls",
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("catalog", "ops", "rational", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up, print 'ready' and exit")
    return ap.parse_args(argv)


def load_workload(args, tracer):
    wl = jobs.WORKLOADS[args.workload](args.seed, os.path.join(OUT, "work"))
    wl.setup(tracer)
    wl.job_times = []
    return wl


def run_pass(wl, tracer, profile=None):
    """One pass over the job list: (seconds in program calls, attempted,
    failed, wrong answers)."""
    elapsed = 0.0
    failed, wrong = 0, []
    per_job = []
    for job in wl.jobs:
        # Garbage left by the previous job would otherwise make the peak
        # resident memory depend on the job order.
        gc.collect()
        with tracer.span("job"):
            if profile is not None:
                profile.enable()
            t0 = time.perf_counter()
            try:
                result = job.run(tracer)
            except Exception:
                result = None
                traceback.print_exc(file=sys.stderr)
            dt = time.perf_counter() - t0
            elapsed += dt
            per_job.append(dt)
            if profile is not None:
                profile.disable()
        if result is None:
            failed += 1
            continue
        try:
            job.check(result)
        except (CheckFailure, KeyError, IndexError, TypeError) as exc:
            # a missing or mistyped field is a malformed output
            if job.known_fault:
                failed += 1
            else:
                wrong.append(f"{job.name}: {exc}")
    wl.job_times.append(per_job)
    return elapsed, len(wl.jobs), failed, wrong


def measure_setup(args):
    """Median seconds from process start to ready, over cold processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        if args.workload == "cli":
            argv = [sys.executable, "-m", "skelforge.cli", "--help"]
            env = jobs.cli_env(SRC)
        else:
            argv = [sys.executable, os.path.abspath(__file__), "--workload",
                    args.workload, "--seed", str(args.seed), "--setup-probe"]
            env = None
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                              text=True) as proc:
            try:
                if args.workload == "cli":
                    proc.communicate(timeout=60)
                    t1 = time.perf_counter()
                else:
                    line = proc.stdout.readline()
                    t1 = time.perf_counter()
                    proc.communicate(timeout=60)
                    if line.strip() != "ready":
                        raise RuntimeError("set-up probe did not become ready")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        samples.append(t1 - t0)
    return statistics.median(samples)


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced(args):
    setup_s = measure_setup(args)
    tracer = NullTracer()
    wl = load_workload(args, tracer)
    attempted = failed = 0
    wrong = []
    if wl.warmup:
        _, a, f, w = run_pass(wl, tracer)
        attempted, failed, wrong = a, f, w
    times = []
    start = last = time.perf_counter()
    longest = 0.0
    # Stop before a pass that would end past --seconds, so that the run
    # measures at most that long once MIN_PASSES are in.
    while len(times) < MIN_PASSES or last - start + longest <= args.seconds:
        t, a, f, w = run_pass(wl, tracer)
        now = time.perf_counter()
        longest = max(longest, now - last)
        last = now
        times.append(t)
        attempted += a
        failed += f
        wrong += w
    # A pass put together from each job's median time: a slow spell of the
    # machine that covers part of one pass moves this less than it moves
    # the median of whole passes.
    timed = wl.job_times[-len(times):]
    pass_s = sum(statistics.median(job) for job in zip(*timed))
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
    }
    extra = {"passes": times, "job_times": wl.job_times}
    return attempted, failed, wrong, metrics, extra


def record_cli_layers(tr):
    """Bare interpreter start, the import of the CLI beyond it, and the
    reference nets each net/classify process builds, from child processes."""
    env = jobs.cli_env(SRC)

    def child(code):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        return time.perf_counter() - t0, proc.stdout

    bare, _ = child("pass")
    tr.record("cli.startup", bare)
    tr.record("cli.import", child("import skelforge.cli")[0] - bare)
    _, out = child("import time; from skelforge import nets; "
                   "t = time.perf_counter(); nets.reference_nets(); "
                   "print(time.perf_counter() - t)")
    tr.record("nets.reference_nets", float(out))


def traced(args):
    """Warm-up, one cProfile pass for exact counts, then traced and untraced
    passes in turn; reports each layer's self time per pass, median over the
    traced passes."""
    setup_tracer = Tracer()
    wl = load_workload(args, setup_tracer)
    attempted = failed = 0
    wrong = []

    def tally(res):
        nonlocal attempted, failed, wrong
        attempted += res[1]
        failed += res[2]
        wrong += res[3]
        return res[0]

    if wl.warmup:
        tally(run_pass(wl, NullTracer()))
    start = time.perf_counter()
    counted = Tracer()
    profile = None
    if args.workload != "cli":
        profile = cProfile.Profile()
    tally(run_pass(wl, counted, profile))
    calls = profile_counts(profile, SRC) if profile else {}

    traced_runs, plain = [], []
    while not traced_runs or time.perf_counter() - start < args.seconds:
        tr = Tracer()
        t = tally(run_pass(wl, tr))
        if args.workload == "cli":
            record_cli_layers(tr)
        traced_runs.append((t, tr))
        plain.append(tally(run_pass(wl, NullTracer())))

    for _, tr in traced_runs[1:]:
        if tr.counts != traced_runs[0][1].counts:
            print("warning: counts differ between traced passes", file=sys.stderr)
    if counted.counts != traced_runs[0][1].counts:
        print("warning: counts differ between profiled and traced passes",
              file=sys.stderr)

    med_t = statistics.median(t for t, _ in traced_runs)
    layer_times = {}
    for _, tr in traced_runs:
        for name, secs in tr.self_times().items():
            layer_times.setdefault(name, []).append(secs)
    setup_times = setup_tracer.self_times()
    metrics = {}
    for name in LAYER_TIMES:
        values = layer_times.get(name)
        if name == "nets.reference_nets" and args.workload != "cli":
            value = setup_times.get(name, 0.0)
        else:
            value = statistics.median(values) if values else 0.0
        metrics[name + "_s"] = (value, "s")
    counts = dict(traced_runs[0][1].counts)
    counts.update(calls)
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["trace.pass_s"] = (med_t, "s")
    metrics["trace.overhead_s"] = (med_t - statistics.median(plain), "s")
    extra = {"traced_passes": [t for t, _ in traced_runs], "plain_passes": plain,
             "spans": [s for _, tr in traced_runs[-1:] for s in tr.spans]}
    return attempted, failed, wrong, metrics, extra


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skelforge", "__init__.py")):
        print(f"error: no skelforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        load_workload(args, NullTracer())
        print("ready", flush=True)
        return 0
    os.makedirs(OUT, exist_ok=True)
    attempted, failed, wrong, metrics, extra = (
        traced(args) if args.trace else untraced(args)
    )
    for line in wrong:
        print("wrong output: " + line, file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"result": result, "wrong": wrong, **extra}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
