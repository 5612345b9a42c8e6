#!/usr/bin/env python3
"""Benchmark of evcharge: solver, simulator and the beta-selection pipeline.

    python3 perfbench/run.py --workload {solve-full,simulate-full,pipeline-desk}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.  The run
sets up, repeats whole rounds of the workload's operations for about S
seconds, checks the first round's outputs against the benchmark's own
reference computations, prints a digest of those outputs, and prints one JSON
object as its last line.
With --trace 0 that object holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of one extra, traced round (see README.md).
"""

import os

# One BLAS thread, set before numpy is first imported by this process or by
# the set-up probes it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("solve-full", "simulate-full", "pipeline-desk")
SETUP_PROBES = 3


def children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime + children_cpu_seconds()


class Op:
    """Times and counts the operations of the rounds.  Per kind it sums CPU
    seconds and units of work (states solved, paths scored); per round it sums
    the operations' CPU and wall seconds, less the time the host-speed
    sampler spent inside them."""

    def __init__(self, sampler: hostspeed.Sampler):
        self.attempted = 0
        self.failed = 0
        self.cpu = {}
        self.work = {}
        self.sampler = sampler
        self.begin_round()

    def begin_round(self):
        self.round_cpu = 0.0
        self.round_wall = 0.0

    def __call__(self, kind, fn, work=0):
        self.attempted += 1
        smp = self.sampler
        with smp.held():
            c0, w0, sc0, sw0 = cpu_seconds(), time.perf_counter(), smp.cpu_spent, smp.wall_spent
        try:
            result = fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            with smp.held():
                cpu = cpu_seconds() - c0 - (smp.cpu_spent - sc0)
                wall = time.perf_counter() - w0 - (smp.wall_spent - sw0)
            self.cpu[kind] = self.cpu.get(kind, 0.0) + cpu
            self.round_cpu += cpu
            self.round_wall += wall
        self.work[kind] = self.work.get(kind, 0) + work
        return result

    def fail(self):
        """Mark the last operation, which returned, as failed."""
        self.failed += 1


def probe_setup(workload: str, seed: int) -> float:
    """Wall seconds for a fresh interpreter to import, load the config and build
    the grid: the part of set-up every run of the workload pays."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                   check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return time.perf_counter() - start


def remove_outputs(wl) -> None:
    out_dir = getattr(wl, "out_dir", None)
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evcharge" / "__init__.py").is_file():
        print(f"error: no evcharge sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    # the host's speed is sampled around the set-up and throughout the rounds
    sampler = hostspeed.Sampler()
    probes = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        sampler.burst()
        probes.append(probe_setup(args.workload, args.seed))

    import tracing
    import workloads
    wl = workloads.make(args.workload, str(OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"))
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    sampler.burst()
    solve_s = wl.setup(args.seed)
    tracer.uninstall()
    sampler.burst()

    op = Op(sampler)
    walls, cpus, spans = [], [], []
    elapsed = 0.0
    children_cpu0 = children_cpu_seconds()
    # whole rounds only; stop before a round that would likely end after the
    # run's seconds, so that a run lasts about as long whatever the round size
    sampler.start()
    while not spans or elapsed + statistics.median(spans) <= args.seconds:
        w0 = time.perf_counter()
        op.begin_round()
        out = wl.round(op)
        spans.append(time.perf_counter() - w0)
        elapsed += spans[-1]
        walls.append(op.round_wall)
        cpus.append(op.round_cpu)
        if len(spans) == 1:
            checks = wl.check(out)
            # same seed, same digest: steady.py compares it between runs
            print(f"digest {wl.digest(out)}")
            if hasattr(wl, "csv_hashes"):
                for fn, h in wl.csv_hashes(out).items():
                    print(f"csv_sha256 {fn} {h}")
        del out
    sampler.stop()

    # The kernel tracks the host only while the program runs alone.  Threads,
    # child processes or CPU beyond wall time mean the program works in
    # parallel and competes with the kernel, so its times are reported as
    # measured rather than divided by an inflated factor.
    children_cpu = children_cpu_seconds() - children_cpu0
    parallel = []
    if not sampler.alone:
        parallel.append(f"{sampler.max_threads} threads, {sampler.max_children} children")
    if children_cpu > 0:
        parallel.append(f"{children_cpu:.3f} s child CPU")
    if sum(cpus) > 1.05 * sum(walls):
        parallel.append(f"CPU {sum(cpus):.3f} s over wall {sum(walls):.3f} s")
    factor = 1.0 if parallel else sampler.factor

    if args.trace:
        traced = Op(sampler)
        tracer.install()
        wl.round(traced)
        tracer.uninstall()

    remove_outputs(wl)
    correct = all(ok for _, ok, _ in checks)

    print(f"workload {args.workload} seed {args.seed} rounds {len(walls)} "
          f"attempted {op.attempted} failed {op.failed}")
    print("rounds: wall_s " + " ".join(f"{w:.3f}" for w in walls)
          + " | cpu_s " + " ".join(f"{c:.3f}" for c in cpus)
          + f" | host factor {sampler.factor:.4f} from {len(sampler.samples)} samples")
    if parallel:
        print("calibration off, the program ran in parallel (" + "; ".join(parallel)
              + "): the times below are uncalibrated")
    for name, ok, detail in checks:
        print(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})")

    if args.trace:
        metrics = tracer.per_layer(traced.round_wall - statistics.median(walls))
        tracer.dump(str(OUT / f"trace-{args.workload}-seed{args.seed}.json"), metrics)
        units = {name: tracing.unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": (statistics.median(probes) + solve_s) / factor,
            "wall_s": statistics.median(walls) / factor,
            "cpu_s": statistics.median(cpus) / factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
        print(f"uncalibrated setup_s {statistics.median(probes) + solve_s:.6g} s")
        print(f"uncalibrated wall_s {statistics.median(walls):.6g} s")
        print(f"uncalibrated cpu_s {statistics.median(cpus):.6g} s")
        # throughput of the layer a workload isolates; printed, not gated
        for kind, label, unit in (("solve_family", "solve_states_per_s", "states/s"),
                                  ("estimate", "sim_paths_per_s", "paths/s")):
            if op.work.get(kind):
                print(f"{label} {op.work[kind] / op.cpu[kind]:.1f} {unit}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    print(json.dumps({
        "correct": correct,
        "attempted": op.attempted,
        "failed": op.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
