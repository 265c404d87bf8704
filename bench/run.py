"""Benchmark of the grafenne package: one workload per run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs whole rounds of the workload until --seconds have passed, checks the
program's outputs after each round, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (see end_to_end), from
the rounds after the workload's WARMUP rounds, which are run and checked
but not reported. With --trace 1 untraced and traced rounds alternate. The
metrics are then the per-module ones, as per-round averages over the
traced rounds, plus trace.overhead_s: the median traced round's wall time
minus the median untraced round's, each round's wall time first divided
by its median reference time and the difference then multiplied by the
run's, so that the machine's drift between rounds cancels. Round 0, which
also pays one-off costs, is left out.

Exits 1 when a check fails and 2 when the program cannot be found. See
bench/README.md.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# The process environment the benchmark measures in; run.py re-executes
# itself once to get it. One BLAS thread: the benchmark runs on one core,
# and its timings do not depend on how many cores are free. A fixed glibc
# mmap threshold and no heap trimming: by default glibc hands freed memory
# back to the OS and faults it in again, 46k to 240k pages in identical
# static rounds (0.2 to 1.7 s of system time in a 5 s round), the largest
# source of spread between rounds. Memory in use, and so peak_rss_mib, is
# unchanged.
ENVIRONMENT = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}

ROOT = Path(__file__).resolve().parent.parent

# Time samples reported against the reference computation, by the name of
# the end-to-end metric each becomes (see end_to_end).
RELATIVE = {"epoch_s": "epoch_ref", "infer_s": "infer_ref", "run_s": "run_ref"}

# setup_s is given in seconds of a core on which reference_work takes this
# long: about its mean time over the runs that set the bounds, on a 2-vCPU
# x86-64 cloud VM. A fixed scale, so setup_s moves only with the set-up's
# cost relative to reference_work.
NOMINAL_REF_S = 0.0035


def reference_work(n=25000):
    """The fixed computation the time metrics are measured against: a
    pure Python integer loop, 3-4 ms on a 2-vCPU x86-64 cloud VM. It
    allocates no containers, so it never triggers a cyclic collection."""
    s = 0
    for i in range(n):
        s += i * 3 ^ (i >> 2)
    return s


def gc_phase(k, cycle=7000):
    """How many placeholder objects to allocate before round k.

    A dead tape is freed by a young-generation collection only if one runs
    before the tape is promoted; otherwise it stays until a full collection.
    Young collections come every 700 (generation 0) and 7000 (generation 1)
    allocations, so where they fall relative to the tapes decides a round's
    peak memory: 2.0 to 3.25 GB for the same static round. Each round shifts
    that phase along a low-discrepancy sequence over one generation-1 cycle,
    so that the process peak covers many phases and does not hinge on one.
    """
    return int((k * 0.6180339887) % 1.0 * cycle)


class Round:
    """Timing samples, reference times and the operation count of one round."""

    def __init__(self):
        self.samples = {}
        self.refs = []
        self.ops = 0
        self._in_refs = 0.0

    def clock(self):
        """Wall time less the time this round spent in reference(), so that
        a reference run inside a timed interval does not count in it."""
        return time.perf_counter() - self._in_refs

    def reference(self):
        """Time one reference_work."""
        t0 = time.perf_counter()
        reference_work()
        seconds = time.perf_counter() - t0
        self.refs.append(seconds)
        self._in_refs += seconds

    def add(self, metric, seconds):
        """Record a sample, then a reference time right after it, so that
        reference times are taken wherever and whenever samples are."""
        self.samples.setdefault(metric, []).append(seconds)
        self.reference()

    def timed(self, metric, fn, *args, **kwargs):
        """Call fn, record its wall time under `metric` and count it."""
        t0 = self.clock()
        result = fn(*args, **kwargs)
        self.add(metric, self.clock() - t0)
        self.ops += 1
        return result


def run_rounds(work, tracer, seconds):
    """Run and check rounds until `seconds` have passed.

    Returns (rounds, walls, attempted, failed); rounds holds each Round,
    walls the wall times over the median reference time of untraced (False)
    and traced (True) rounds after round 0. A failed check or an exception
    stops the run."""
    rounds, walls = [], {False: [], True: []}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rnd = Round()
        gc.collect()  # each round starts from a collected heap
        phase = [[] for _ in range(gc_phase(len(rounds)))]
        errors = []
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            work.round(rnd)
            if rounds and rnd.refs:
                walls[traced].append((time.perf_counter() - t0) / statistics.median(rnd.refs))
        except Exception:
            traceback.print_exc()
            errors = ["the round raised"]
        finally:
            if traced:
                tracer.uninstall()
        del phase
        if not errors:
            errors = work.check(first=not rounds)
            work.state = None  # the next round must not hold this one's tapes
        rounds.append(rnd)
        attempted += max(rnd.ops, 1)
        if errors:
            failed += max(rnd.ops, 1)
            for e in errors:
                print(f"check failed: {e}", file=sys.stderr)
            break
        if time.perf_counter() >= deadline and (
                (walls[True] and walls[False]) if tracer else len(rounds) > work.WARMUP):
            break
    return rounds, walls, attempted, failed


def end_to_end(rounds):
    """The end-to-end metrics of an untraced run.

    The cores of a shared cloud VM run slower or faster by tens of percent
    for tens of seconds at a time, as other tenants load the host. On a
    2-vCPU x86-64 VM, a fixed Python loop's median over 30 s windows spread
    18-24% between windows, and a GRAFENNE forward's by as much; the ratio
    of the two medians spread 3-5%. So each time metric but setup_s is the
    mean of its samples over the mean time of reference_work, run after
    every sample and inside long ones, in the same process: the cost of
    the operation in units of a fixed computation (unit `ref`). Means
    spread less between runs than medians did (about 5% against 9-10% on
    the static and grid epochs), as a median jumps between the fast and
    the slow spells of the machine. setup_s, which must be in seconds, is
    the mean set-up in those units times NOMINAL_REF_S: seconds on a core
    that runs reference_work at that speed. Raw seconds of the same
    set-ups drifted by 46-50% between two sets of ten runs 25 minutes
    apart."""
    samples, refs = {}, []
    for rnd in rounds:
        refs += rnd.refs
        for name, values in rnd.samples.items():
            samples.setdefault(name, []).extend(values)
    for name, values in [("reference_work", refs)] + list(samples.items()):
        if values:
            print(f"{name}: {len(values)} samples, mean {statistics.mean(values):.6g} s, "
                  f"median {statistics.median(values):.6g} s")
    metrics = {}
    if "setup_s" in samples:
        value = statistics.mean(samples["setup_s"]) / statistics.mean(refs) * NOMINAL_REF_S
        metrics["setup_s"] = {"value": value, "unit": "s"}
    for name, metric in RELATIVE.items():
        if name in samples:  # a run whose checks failed may lack some
            value = statistics.mean(samples[name]) / statistics.mean(refs)
            metrics[metric] = {"value": value, "unit": "ref"}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    metrics["peak_rss_mib"] = {"value": peak, "unit": "MiB"}
    return metrics


def main(argv=None):
    if any(os.environ.get(k) != v for k, v in ENVIRONMENT.items()):
        os.environ.update(ENVIRONMENT)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    parser = argparse.ArgumentParser(description="Benchmark of the grafenne package.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "grafenne", ROOT / "tests" / "naive_ref.py"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    tracer = tracing.Tracer() if args.trace else None
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, workdir)
        rounds, walls, attempted, failed = run_rounds(work, tracer, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    if tracer is None:
        metrics = end_to_end(rounds[work.WARMUP:])
    else:
        overhead = None
        if walls[True] and walls[False]:
            ref = statistics.median([t for rnd in rounds[1:] for t in rnd.refs])
            overhead = (statistics.median(walls[True]) - statistics.median(walls[False])) * ref
        metrics = tracer.metrics(max(len(walls[True]), 1), overhead)
        if tracer.absent:
            print("absent (wrapped name not found): " + ", ".join(sorted(tracer.absent)))

    for name, m in metrics.items():
        print(f"{args.workload:<20} {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<20} rounds {len(rounds)}, operations {attempted}, failed {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
