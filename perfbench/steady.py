#!/usr/bin/env python3
"""Steadiness check: run every workload of BENCHMARK.json repeatedly, at its
run_seconds, in two sets, and report for each end-to-end metric the median
and the quartile spread (Q3 - Q1) / median of each set's runs.

    python3 perfbench/steady.py [--runs 10] [--seed0 1]

Each run of a set uses its own seed (seed0, seed0 + 1, ...); the second set
repeats the first set's seeds.  The check passes when every spread but that
of setup_s is within the metric's bound, the two sets' medians differ by at
most the bound, the share of failed operations is identical, and each seed
gives the same output digest, and the same pipeline-desk CSV hashes, in both
sets.  The report is printed and written to perfbench/out/steady-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(ln.split()[1] for ln in lines if ln.startswith("digest "))
    result["csv_sha256"] = {parts[1]: parts[2] for parts in (ln.split() for ln in lines)
                            if parts and parts[0] == "csv_sha256"}
    result["uncalibrated"] = {parts[1]: float(parts[2]) for parts in (ln.split() for ln in lines)
                              if parts and parts[0] == "uncalibrated"}
    return result


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = list(range(args.seed0, args.seed0 + args.runs))
    runs = {}  # (set, workload) -> list of results
    for s in range(2):
        for wl in workloads:
            for seed in seeds:
                t0 = time.perf_counter()
                res = run_once(wl, seed, seconds)
                runs.setdefault((s, wl), []).append(res)
                print(f"set {s + 1} {wl} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                      + f" [{time.perf_counter() - t0:.0f}s]", flush=True)

    ok = True
    report = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    print()
    for wl in workloads:
        entry = report["workloads"].setdefault(wl, {})
        sets = [runs[(s, wl)] for s in range(2)]
        for name, spec in metrics.items():
            rows = []
            for results in sets:
                med, q1, q3, spr = spread([r["metrics"][name]["value"] for r in results])
                rows.append({"median": med, "q1": q1, "q3": q3, "spread": spr})
            entry[name] = rows
            worst = max(r["spread"] for r in rows)
            # set-up is a few seconds, early in the run, while the host factor
            # comes mostly from the rounds: its spread across 10 runs ranged
            # 5-30% on the same code, so only its median is gated
            if name == "setup_s":
                verdict = ["spread not gated"]
            else:
                verdict = ["steady" if worst < spec["bound"] / 3
                           else "within bound" if worst <= spec["bound"] else "TOO WIDE"]
                ok &= worst <= spec["bound"]
            a, b = rows[0]["median"], rows[1]["median"]
            verdict.append(f"second set median {100 * (b - a) / a:+.1f}%")
            ok &= abs(b - a) / a <= spec["bound"]
            print(f"{wl:14s} {name:12s} " + " | ".join(
                f"median {r['median']:.4g} IQR/median {100 * r['spread']:.1f}%" for r in rows)
                + f"  bound {100 * spec['bound']:.0f}%  " + ", ".join(verdict))
        for name in sets[0][0]["uncalibrated"]:
            rows = [spread([r["uncalibrated"][name] for r in results]) for results in sets]
            entry["uncalibrated_" + name] = [dict(zip(("median", "q1", "q3", "spread"), row))
                                             for row in rows]
            print(f"{wl:14s} {name:12s} " + " | ".join(
                f"median {m:.4g} IQR/median {100 * x:.1f}%" for m, _, _, x in rows)
                + "  uncalibrated, not gated")
        correct = all(r["correct"] for results in sets for r in results)
        shares = [{r["failed"] / r["attempted"] for r in results} for results in sets]
        same_share = len(set().union(*shares)) == 1
        digests_ok = all(a["digest"] == b["digest"] for a, b in zip(*sets))
        hashes_ok = all(a["csv_sha256"] == b["csv_sha256"] for a, b in zip(*sets))
        entry.update(correct=correct, failed_shares=sorted(set().union(*shares)),
                     digests_agree=digests_ok, csv_hashes_agree=hashes_ok)
        ok &= correct and same_share and digests_ok and hashes_ok
        print(f"{wl:14s} correct={correct} failed share {sorted(set().union(*shares))} "
              f"per seed between sets: digests agree {digests_ok}, csv hashes agree {hashes_ok}")

    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"runs": {f"{s + 1}:{wl}": v for (s, wl), v in runs.items()},
                                "report": report}, indent=1))
    print(f"\nwrote {path.relative_to(ROOT)}; {'all within bounds' if ok else 'NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
