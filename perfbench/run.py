"""permdesign benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload corpus-census --seed 1 \
        --seconds 10 --trace 0

Run from the repository root; the library is imported from ./src.  Set-up
writes the workload's inputs from the seed (three times, timed), then
passes run as a closed loop until --seconds have elapsed (at least one
pass); every pass parses the input files afresh and checks its results
against perfbench/expected/<workload>.json.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced pass,
then a traced set-up and a traced pass, and reports the per-layer metrics
(see tracing.py) plus the tracing overhead.  A machine record goes to
stdout before the result, which is always the last line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

# resource limits are read from PERMDESIGN_* variables; pin the defaults
for _name in [n for n in os.environ if n.startswith("PERMDESIGN_")]:
    del os.environ[_name]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3


def import_library():
    """Import permdesign from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "permdesign", "__init__.py")):
        sys.exit(f"error: no library source under {SRC}")
    sys.path.insert(0, SRC)
    import permdesign
    if os.path.dirname(os.path.dirname(permdesign.__file__)) != SRC:
        sys.exit(f"error: permdesign imported from {permdesign.__file__}")


def git_commit():
    """The checked-out commit, read from .git without running git; None
    when the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record():
    from permdesign import config
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "limits": {
            "element_limit": config.element_limit(),
            "index_limit": config.index_limit(),
            "point_limit": config.point_limit(),
            "exhaustive_limit": config.exhaustive_limit(),
        },
    }


def speed_probe_ns():
    """Degree-15 multiplication time, taken before and after the run so
    that drift in machine speed shows in the record."""
    import tracing
    from permdesign.perm import Permutation
    return tracing.perm_probe(random.Random(0), 15, Permutation.__mul__)


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, expected, work, seed, seconds, tally, record):
    setups = []
    for i in range(SETUP_REPEATS):
        directory = os.path.join(work, f"setup{i}")
        setups.append(timed(workload.setup, directory, seed))
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(timed(workload.run_pass, directory, expected, tally))
    record.update(setup_s_samples=setups, pass_s_samples=passes)
    return {
        "pass_s": metric(statistics.median(passes), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "ok_frac": metric(1 - tally.failed / tally.attempted, "ratio"),
        "exact_frac": metric(1 - tally.unknown / max(tally.fields, 1),
                             "ratio"),
    }


def per_layer(workload, expected, work, seed, tally, record):
    import tracing

    plain = os.path.join(work, "plain")
    workload.setup(plain, seed)
    untraced = timed(workload.run_pass, plain, expected, tally)
    traced_dir = os.path.join(work, "traced")
    with tracing.Tracer() as setup_trace:
        workload.setup(traced_dir, seed)
    with tracing.Tracer() as pass_trace:
        traced = timed(workload.run_pass, traced_dir, expected, tally)
    values = pass_trace.metrics()
    setup_values = setup_trace.metrics()
    values.update({m: setup_values[m] for m in tracing.SETUP_METRICS})
    values.update(tracing.perm_probes(seed))
    values["trace.overhead_frac"] = traced / untraced - 1
    record.update(untraced_pass_s=untraced, traced_pass_s=traced,
                  top_span_self_s=pass_trace.top_self_s(),
                  spans=len(pass_trace.spans))
    return {m: metric(values[m], u) for m, u in tracing.METRIC_UNITS.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    expected = workloads.load_expected(args.workload)
    record = dict(machine_record(), workload=args.workload, seed=args.seed,
                  trace=args.trace, load_1min_before=os.getloadavg()[0],
                  speed_probe_ns_before=speed_probe_ns())

    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    tally = workloads.Tally()
    try:
        if args.trace:
            metrics = per_layer(workload, expected, work, args.seed, tally,
                                record)
        else:
            metrics = end_to_end(workload, expected, work, args.seed,
                                 args.seconds, tally, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when no other run is using it

    correct = tally.failed == 0
    if args.trace and record["top_span_self_s"] > record["traced_pass_s"]:
        correct = False
        tally.problems.append("top-level span self times exceed the pass")
    record.update(
        load_1min_after=os.getloadavg()[0],
        speed_probe_ns_after=speed_probe_ns(),
        fail_frac=tally.failed / tally.attempted,
        unknown_frac=tally.unknown / max(tally.fields, 1),
        problems=tally.problems[:20])
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
