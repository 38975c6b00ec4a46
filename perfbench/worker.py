"""One workload run in a fresh process; prints one JSON object as its last line.

run.py starts it; by hand it is useful only to re-record reference values:

    python3 perfbench/worker.py --workload sweep --seed 1 --mode record

Modes: ``setup`` stops once the inputs are ready and reports the monotonic
clock at that moment, and the machine's speed just after it; ``run`` makes
the workload's input sets from the seed and goes over them in passes for
``--seconds``; ``record`` runs one pass and writes the first input set's key
outputs to reference.json.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
REFERENCE = HERE / "reference.json"
FAILURES_SHOWN = 20
SETUP_SPEED_SAMPLES = 3


def import_odmap():
    sys.path.insert(0, str(SRC))
    import odmap

    if not Path(odmap.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"odmap was imported from {odmap.__file__}, not from {SRC}")
    return odmap


def provenance() -> dict:
    import platform

    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    files = sorted((SRC / "odmap").glob("*.py"))
    return {
        "commit": commit,
        "src_sha256": hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()[:16],
        "src_lines": sum(len(f.read_bytes().splitlines()) for f in files),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--mode", choices=("setup", "run", "record"), default="run")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="gzipped CSV the traced run writes its spans to")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    import_odmap()
    import speed
    import workloads
    from harness import Runner, record_dicts, summarize

    wl = workloads.WORKLOADS[args.workload]()
    seeds = [workloads.input_seed(args.seed, k) for k in range(wl.INPUT_SETS)]
    sets = [wl.prepare(s) for s in seeds]
    ready = time.monotonic()
    if args.mode == "setup":
        probe = speed.SpeedProbe()
        probe.kernel()  # warm-up, not a sample
        for _ in range(SETUP_SPEED_SAMPLES):
            probe.sample()
        print(json.dumps({"ready": ready, "speed_factor": speed.factor(probe.samples)}))
        return 0

    reference = {}
    if args.mode == "run" and args.seed == DEFAULT_SEED and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    tracer, patches, absent = None, [], []
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        patches, absent = tracing.install(tracer)
    probe = speed.SpeedProbe()
    probe.kernel()  # warm-up, not a sample
    runner = Runner(tracer, reference, probe)
    passes = 0
    probe.sample()
    t0 = time.monotonic()
    # a traced run samples between passes only: a sample taken inside a span
    # would be charged to that layer
    sampling = probe.sampling() if tracer is None else contextlib.nullcontext()
    try:
        with sampling:
            while True:
                t_pass = time.monotonic()
                if passes:  # fresh objects, so no pass finds caches warmed by the one before
                    sets = [wl.prepare(s) for s in seeds]
                runner.pass_ = passes
                for k, inputs in enumerate(sets):
                    runner.input = k
                    runner.compare_reference = passes == 0 and k == 0 and args.seed == DEFAULT_SEED
                    wl.run_round(runner, inputs)
                passes += 1
                probe.sample()
                # the next pass repeats only the ops that completed in the first
                last = time.monotonic() - t_pass - sum(
                    r.seconds for r in runner.records
                    if r.pass_ == passes - 1 and r.status in Runner.NOT_REPEATED)
                if args.mode == "record" or time.monotonic() - t0 + last > args.seconds:
                    break
    finally:
        if patches:
            tracing.restore(patches)

    if args.mode == "record":
        data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        data[args.workload] = {k: float(v) for k, v in sorted(runner.keys.items())}
        REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"recorded": len(runner.keys)}))
        return 0

    speed_factor = speed.factor(probe.samples)
    result = summarize(runner.records, speed_factor)
    result.update(
        ready=ready,
        passes=passes,
        input_sets=len(seeds),
        speed_samples=probe.samples,
        speed_factor=speed_factor,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        failures=record_dicts(runner.records, FAILURES_SHOWN),
        # every op run: pass, input set, name, seconds, status
        ops=[[r.pass_, r.input, r.name, r.seconds, r.status] for r in runner.records],
        reference_keys=len(reference),
        provenance=provenance(),
    )
    if tracer is not None:
        layers, accounting_error = tracing.layer_metrics(tracer, passes * len(seeds), absent)
        result.update(layers=layers, absent=absent, accounting_error=accounting_error,
                      spans=len(tracer.names))
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
