"""approxalg benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; approxalg is imported from ``src/`` there.
The run sets up (import plus seeded input generation, timed), then runs
rounds of tasks back to back -- one caller that sends the next task only
when the previous one has returned -- until ``--seconds`` have passed, at
the first round boundary after that (``--rounds N`` runs exactly N rounds
instead).  Between tasks, every PROBE_EVERY_S, it times a slice of a
reference loop (speed.py); every time it reports is scaled by the slices
nearest to it to a fixed reference speed, which cancels the shared
machine's changes of speed.  Only then are the verdicts checked, each by
a route independent of the call that produced it, and hashed in task
order into a digest.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
functions of every approxalg layer (spans.py), prints the per-layer metrics,
writes the span file and layer table under ``.perfbench/``, and reruns the
same rounds untraced in a fresh process to give the tracing overhead and to
require an identical digest.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time

# numpy must not start worker threads: each workload is one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ["exhaustive-axioms", "integer-spectrum", "finite-lattices",
                  "cli-requests"]
SETUP_SAMPLES = 5            # this process plus four set-up-only processes
SETUP_PROBE_SLICES = 40      # reference slices timed after each set-up
PROBE_EVERY_S = 0.05         # a reference slice between tasks this often
TAIL_LADDER = (99.9, 99, 90, 50)
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--rounds", type=int, default=0,
                   help="run exactly this many rounds instead of --seconds")
    p.add_argument("--tiny", action="store_true",
                   help="a much smaller round, for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    return p.parse_args(argv)


def set_up(name, seed, tiny):
    """Import approxalg from the checkout and build the workload's inputs.
    Returns (workloads module, workload, seconds taken, scaled to the
    reference speed measured right after)."""
    start = time.perf_counter()
    package = os.path.join(SRC, "approxalg")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"no approxalg sources at {package}; run from the "
                         "root of an approxalg checkout")
    sys.path.insert(0, SRC)
    import workloads  # imports approxalg
    import speed
    import approxalg
    if os.path.dirname(os.path.abspath(approxalg.__file__)) != package:
        raise SystemExit(f"approxalg was imported from {approxalg.__file__}, "
                         f"not from {package}")
    workload = workloads.WORKLOADS[name](seed, tiny)
    took = time.perf_counter() - start
    probe = speed.SpeedProbe(workload.REFERENCE)
    for _ in range(SETUP_PROBE_SLICES):
        probe.sample()
    return workloads, workload, took * probe.scale()


def probe_setups(args, count):
    """Set-up times of ``count`` fresh processes (import is once a process)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    out = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=True)
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_phase(workload, args, tracer, probe):
    """The measured phase: whole rounds until the time or round count is
    reached, with a reference slice on ``probe`` first, last, and between
    tasks every PROBE_EVERY_S.  Returns (records, rounds, busy seconds: the
    phase's wall time less the slices); each record is (kind, label, info,
    result or exception, latency seconds scaled to the reference speed)."""
    records = []
    starts = []
    rounds = 0
    clock = time.perf_counter
    start = clock()
    probe.sample()
    last_probe = clock()
    while True:
        ctx = {}
        for kind, label, fn, fargs, info in workload.round_tasks(rounds):
            if tracer is not None:
                tracer.task_id = len(records)
            t0 = clock()
            try:
                result = fn(ctx, *fargs)
            except Exception as exc:  # a failed task is counted, not fatal
                result = exc
            t1 = clock()
            records.append([kind, label, info, result, t1 - t0])
            starts.append(t0)
            if t1 - last_probe >= PROBE_EVERY_S:
                probe.sample()
                last_probe = clock()
        rounds += 1
        if args.rounds:
            if rounds >= args.rounds:
                break
        elif clock() - start >= args.seconds:
            break
    probe.sample()
    busy = clock() - start - sum(probe.samples)
    for record, t0 in zip(records, starts):
        record[4] *= probe.scale_at(t0)
    return records, rounds, busy


def verify(workloads, workload, records):
    """Check every verdict and hash them in task order.
    Returns (failures as (index, label, reason), hex digest)."""
    failures = []
    digest = hashlib.sha256()
    for i, (kind, label, info, result, _lat) in enumerate(records):
        if isinstance(result, Exception):
            reason = f"raised {type(result).__name__}: {result}"
            shown = {"raised": type(result).__name__}
        else:
            try:
                reason = workload.check(kind, info, result)
            except Exception as exc:  # the check itself broke on this result
                reason = f"check raised {type(exc).__name__}: {exc}"
            shown = workloads.summary(result)
        if reason is not None:
            failures.append((i, label, reason))
        line = json.dumps([kind, label, shown], sort_keys=True, default=str)
        digest.update(line.encode("utf-8") + b"\n")
    return failures, digest.hexdigest()


def tail(latencies):
    """(percentile, value, tasks beyond it) at the highest ladder percentile
    that leaves at least ten tasks beyond it (nearest-rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        idx = max(0, math.ceil(q / 100 * n) - 1)
        if n - idx - 1 >= 10 or q == TAIL_LADDER[-1]:
            return q, ordered[idx], n - idx - 1
    raise AssertionError("unreachable")


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def kind_table(records):
    by_kind = {}
    for kind, _label, _info, _result, lat in records:
        by_kind.setdefault(kind, []).append(lat)
    lines = ["  kind               tasks    p50_ms     max_ms   total_s"]
    for kind, lats in sorted(by_kind.items(), key=lambda kv: -sum(kv[1])):
        lines.append(f"  {kind:<18} {len(lats):>5} {statistics.median(lats) * 1e3:>9.3f}"
                     f" {max(lats) * 1e3:>10.3f} {sum(lats):>9.3f}")
    return lines


def untraced_rerun(args, rounds):
    """The same seed and rounds untraced, in a fresh process: (the sum of
    its scaled task times, digest)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--trace", "0",
           "--rounds", str(rounds)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, check=True)
    task_s = float(re.search(r"^measured: .* scaled ([0-9.]+) s",
                             done.stdout, re.M).group(1))
    digest = re.search(r"^digest: (\w+)", done.stdout, re.M).group(1)
    return task_s, digest


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        _, _, took = set_up(args.workload, args.seed, args.tiny)
        print(json.dumps({"setup_s": took}))
        return 0

    workloads, workload, own_setup = set_up(args.workload, args.seed, args.tiny)
    if not args.trace:
        setups = [own_setup] + probe_setups(args, SETUP_SAMPLES - 1)

    import speed  # loaded by set_up, after numpy, inside the timed set-up
    probe = speed.SpeedProbe(workload.REFERENCE)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(extra_namespaces=(workloads,))
    origin_ns = time.perf_counter_ns()
    try:
        records, rounds, busy = run_phase(workload, args, tracer, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss = peak_rss_mib()
    latencies = [r[4] for r in records]
    task_s = sum(latencies)

    failures, digest = verify(workloads, workload, records)
    attempted = len(records)
    failed = len(failures)

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}"
          f"  (closed loop, 1 caller, 1 thread)")
    print(f"measured: {attempted} tasks in {rounds} rounds, busy {busy:.6f} s,"
          f" scaled {task_s:.6f} s")
    print(f"reference: {len(probe.samples)} {probe.kind} slices, mean "
          f"{probe.mean_s() * 1e3:.4f} ms, mean scale {probe.scale():.4f}")
    for i, label, reason in failures[:10]:
        print(f"FAILED task {i} [{label}]: {reason}")
    print(f"digest: {digest}")
    print("\n".join(kind_table(records)))

    correct = failed == 0
    if not args.trace:
        q, tail_s, beyond = tail(latencies)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "tasks_per_s": (attempted / task_s, "1/s"),
            "task_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "task_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (rss, "MiB"),
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups: "
                       + ", ".join(f"{s:.4f}" for s in setups),
            "task_tail_ms": f"p{q:g}, {beyond} of {attempted} tasks beyond it",
        }
    else:
        untraced_s, untraced_digest = untraced_rerun(args, rounds)
        if untraced_digest != digest:
            correct = False
            print(f"FAILED: untraced digest {untraced_digest} differs")
        metrics = tracer.per_layer_metrics()
        metrics["trace.spans"] = (len(tracer.start), "count")
        metrics["trace.wall_s"] = (task_s, "s")
        metrics["trace.untraced_wall_s"] = (untraced_s, "s")
        metrics["trace.overhead_pct"] = (
            100 * (task_s - untraced_s) / untraced_s, "%")
        notes = {"trace.untraced_wall_s":
                 f"same {rounds} rounds untraced, digest "
                 f"{'equal' if untraced_digest == digest else 'DIFFERENT'}"}
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
        tracer.write_spans(stem + ".spans.tsv.gz", origin_ns)
        table = "\n".join(tracer.layer_table())
        with open(stem + ".layers.txt", "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        print(table)
        print(f"spans: {stem}.spans.tsv.gz")

    # failed_frac is 0 on a correct run, so it is not a bounded metric; the
    # JSON carries it as failed / attempted.
    metrics_shown = dict(metrics, failed_frac=(failed / attempted, "1"))
    notes["failed_frac"] = f"{failed} of {attempted} tasks failed their check"
    for name, (value, unit) in metrics_shown.items():
        note = notes.get(name)
        print(f"{name:<32} {value:>14.6f} {unit:<6}" + (f"  {note}" if note else ""))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
