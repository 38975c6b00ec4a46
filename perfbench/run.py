"""odmap benchmark: one workload per call, each run in fresh processes.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The lines before it are a readable summary; the full report
goes to ``.bench_out/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep", "pack_solve", "disk_queries", "double_pack")
SETUP_PROBES = 3  # setup-only processes per run, besides the measuring one
RUN_LIMIT_S = 170.0  # a run gives up (exit 1) rather than pass the 180 s limit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args, until) -> tuple:
    """Run worker.py to completion; returns (monotonic start time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, until - start))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return start, json.loads(lines[-1])


def measure(workload, seed, seconds, trace, until) -> dict:
    common = ["--workload", workload, "--seed", seed]
    setups = []  # (seconds as measured, speed factor of the same process)
    for _ in range(SETUP_PROBES):
        start, res = spawn(common + ["--mode", "setup"], until)
        setups.append((res["ready"] - start, res["speed_factor"]))

    def run(secs, traced):
        extra = ["--spans", OUT / f"spans-{workload}-seed{seed}.csv.gz"] if traced else []
        start, res = spawn(common + ["--seconds", secs, "--trace", int(traced), *extra], until)
        setups.append((res["ready"] - start, res["speed_factor"]))
        return res

    if trace:
        # half the time untraced, half traced: the ratio is the tracing overhead
        base = run(seconds / 2, False)
        res = run(seconds / 2, True)
    else:
        base = res = run(seconds, False)
    raw, ref = res["raw"], res["ref"]
    # a workload that sends no queries counts as one query of its wall time
    query_ms = list(raw["query_ms"].values()) or [1000.0 * raw["wall"]]
    query_ref_ms = list(ref["query_ms"].values()) or [1000.0 * ref["wall"]]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "wall_s": raw["wall"],
        "wall_ref_s": ref["wall"],
        "charged_s": raw["charged"],
        "setup_raw_s": statistics.median(t for t, _ in setups),
        "setup_s": statistics.median(t * sf for t, sf in setups),
        "setup_samples": setups,
        "peak_rss_mb": res["peak_rss_mb"],
        "query_p50_ms": statistics.median(query_ms),
        "query_p50_ref_ms": statistics.median(query_ref_ms),
        **{k: res[k] for k in ("correct", "attempted", "failed", "fail_frac", "statuses",
                               "passes", "input_sets", "speed_factor", "speed_samples", "ops",
                               "failures", "reference_keys", "provenance")},
    }
    if trace:
        report.update(layers=res["layers"], absent=res["absent"], spans=res["spans"],
                      accounting_error=res["accounting_error"],
                      trace_overhead_frac=ref["wall"] / base["ref"]["wall"] - 1.0)
    return report


def metrics(report) -> dict:
    if report["trace"]:
        out = {k: {"value": v, "unit": u} for k, (v, u) in report["layers"].items()}
        out["trace_overhead_frac"] = {"value": report["trace_overhead_frac"], "unit": "ratio"}
        return out
    return {
        "wall_ref_s": {"value": report["wall_ref_s"], "unit": "s"},
        "setup_s": {"value": report["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        "query_p50_ref_ms": {"value": report["query_p50_ref_ms"], "unit": "ms"},
    }


def summary_lines(report):
    r = report
    yield (f"{r['workload']}: seed {r['seed']}, {r['input_sets']} input sets, {r['passes']} passes, "
           f"{r['attempted']} ops attempted, {r['failed']} failed, fail_frac {r['fail_frac']:.4f}, "
           f"correct {r['correct']}")
    yield (f"  wall_ref_s {r['wall_ref_s']:.4f} s   setup_s {r['setup_s']:.4f} s   "
           f"peak_rss_mb {r['peak_rss_mb']:.1f} MB   query_p50_ref_ms {r['query_p50_ref_ms']:.2f} ms")
    yield (f"  as measured (speed factor {r['speed_factor']:.3f}): wall_s {r['wall_s']:.4f} s   "
           f"setup_s {r['setup_raw_s']:.4f} s   query_p50_ms {r['query_p50_ms']:.2f} ms   "
           f"charged_s {r['charged_s']:.4f} s")
    for f in r["failures"][:5]:
        yield (f"  failed: pass {f['pass_']} input {f['input']} {f['name']}: "
               f"{f['status']} {f['detail'][:100]}")
    if r["trace"]:
        yield (f"  traced: trace_overhead_frac {r['trace_overhead_frac']:.4f}, {r['spans']} spans, "
               f"self-time accounting error {r['accounting_error']:.2e}, absent {r['absent']}")
        busiest = sorted(((v, k) for k, (v, u) in r["layers"].items() if k.endswith(".self_ms")),
                         reverse=True)[:8]
        for v, k in busiest:
            yield f"    {k:<48} {v:10.1f} ms/input set"
    yield "  provenance " + json.dumps(r["provenance"], sort_keys=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "odmap" / "__init__.py").is_file():
        print(f"error: no odmap sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        until = time.monotonic() + RUN_LIMIT_S
        try:
            report = measure(name, args.seed, args.seconds, args.trace, until)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1, sort_keys=True))
        for line in summary_lines(report):
            print(line)
        results[name] = {"correct": report["correct"], "attempted": report["attempted"],
                         "failed": report["failed"], "metrics": metrics(report)}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
