#!/usr/bin/env python3
"""Benchmark of sldkit: QFI sweeps, Fisher tensors and cold large-n set-up.

Usage (from the repository root):

    python3 perfbench/run.py --workload qfi_sweep --seed 1 --seconds 35 --trace 0

``--workload`` is one of qfi_sweep, fisher_tensor, cold_large_n, or ``all``
for each in turn.  With ``--trace 0`` the last line of output is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics; with ``--trace 1`` the metrics are the per-layer ones, from rounds
with every traced sldkit function wrapped, and the spans are written to
``perfbench/out/``.  The line before it records the seed, the numpy and BLAS
versions, the BLAS thread setting and nproc.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import procenv  # noqa: E402

procenv.configure()

from perfbench import inputs, tracer as tracing, workloads  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
#: fresh processes timed for set-up in each warm workload run, spread over
#: the run so that set-up is timed in the same minutes as the rounds
PROBES = 6
#: fewest rounds (cold_large_n: child processes) of each kind in a run
MIN_ROUNDS = 3
#: longest a child may take to get ready, and then to finish
CHILD_TIMEOUT = 120.0

END_TO_END = {"setup_s": "s", "sld_per_s": "1/s", "sweep_s": "s",
              "tensors_per_s": "1/s", "peak_rss_mb": "MB"}


def run_child(cfg: dict) -> dict:
    """Start a child, time it until it is ready, collect its result."""
    procenv.unpin()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(cfg)],
                            stdout=subprocess.PIPE, text=True,
                            cwd=procenv.ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"child did not get ready: {line!r}")
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with status {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup
    return result


def _median(values) -> float:
    return float(statistics.median(values))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(children: list, span_sets: list, traced: workloads.Tally,
                  untraced: workloads.Tally) -> dict:
    """Per-layer metrics from traced fresh processes and traced rounds.

    ``children`` are traced child results: their set-up spans give the
    lie_basis figures, their first solve the cold solve time.  ``span_sets``
    hold the spans of the traced rounds, one list per process.
    """
    constants_s, basis_s, share, cold = [], [], [], []
    for child in children:
        spans = [tuple(s) for s in child["spans"]]
        setup = spans[:child["setup_spans"]]
        constants_s.append(tracing.total_self(
            setup, {"lie_basis.compute_structure_constants"}))
        basis_s.append(tracing.total_self(setup, {"lie_basis.build_basis"}))
        share.append(constants_s[-1] / child["setup_s"])
        first = min(s for s in spans if s[2] == "sld_solver.solve")
        cold.append(first[4] - first[3])

    calls = {name: [] for name in tracing.CALL_METRICS}
    solve_calls = solve_self = 0.0
    for spans in span_sets:
        for name, names in tracing.CALL_METRICS.items():
            calls[name] += tracing.call_times(spans, names)
        solve_calls += tracing.count(spans, "sld_solver.solve")
        solve_self += tracing.total_self(spans, {"sld_solver.solve"})

    metrics = {
        "lie_basis.structure_constants_s": _metric(_median(constants_s), "s"),
        "lie_basis.build_basis_s": _metric(_median(basis_s), "s"),
        "lie_basis.structure_constants_share": _metric(_median(share), "ratio"),
        "lie_basis.dense_bytes": _metric(children[0]["dense_bytes"], "bytes"),
        "lie_basis.structure_entries": _metric(
            children[0]["structure_entries"], "count"),
        "sld_solver.solve_cold_s": _metric(_median(cold), "s"),
        "sld_solver.solve_calls": _metric(solve_calls / traced.rounds, "count"),
        "sld_solver.solve_share": _metric(solve_self / traced.busy_s(), "ratio"),
        "trace.overhead_ratio": _metric(
            traced.round_s() / untraced.round_s(), "ratio"),
    }
    for name, times in calls.items():
        metrics[name] = _metric(_median(times) if times else 0.0, "s")
    return metrics


def run_warm(workload: str, sldkit, args, workdir: Path):
    """qfi_sweep and fisher_tensor: rounds in this process, set-up probes
    in fresh processes between them."""
    for n in workloads.DIMS[workload]:
        sldkit.compute_structure_constants(sldkit.build_basis(n))
    rng = inputs.rng(args.seed, workloads.WORKLOADS.index(workload))

    def ops():
        return workloads.build_ops(workload, sldkit, rng, workdir)

    gc.collect()
    gc.freeze()  # the set-up's objects need no scanning in timed rounds
    warmup = workloads.Tally()
    workloads.run_round(ops(), warmup)

    probes = []
    untraced, traced = workloads.Tally(), workloads.Tally()
    tracer = tracing.Tracer(sldkit)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(probes) < PROBES and elapsed >= len(probes) * args.seconds / PROBES:
            probes.append(run_child({"mode": "probe", "workload": workload,
                                     "seed": args.seed, "trace": args.trace,
                                     "verify": not probes,
                                     "workdir": str(workdir)}))
        procenv.pin(untraced.rounds + traced.rounds)
        if args.trace and traced.rounds < untraced.rounds:
            tracer.install()
            try:
                workloads.run_round(ops(), traced, tracer)
            finally:
                tracer.uninstall()
        else:
            workloads.run_round(ops(), untraced)
        done = min(untraced.rounds, traced.rounds) if args.trace \
            else untraced.rounds
        if done >= MIN_ROUNDS and len(probes) == PROBES and \
                time.perf_counter() - start >= args.seconds:
            break

    procenv.unpin()
    errors = warmup.errors + untraced.errors + traced.errors
    errors += [e for p in probes for e in p["setup_errors"]]
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    if args.trace:
        metrics = layer_metrics(probes, [tracer.spans], traced, untraced)
        span_sets = [("probe", p["spans"]) for p in probes]
        span_sets.append(("rounds", tracer.spans))
    else:
        metrics = {"setup_s": min(p["setup_s"] for p in probes),
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024,
                   **untraced.summary()}
        span_sets = []
    rounds = untraced.rounds + traced.rounds
    return (metrics, attempted, failed, errors, rounds,
            warmup.attempted, span_sets)


def run_cold(workload: str, sldkit, args, workdir: Path):
    """cold_large_n: each round is one fresh child process."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        trace_next = args.trace and len(traced) < len(untraced)
        child = run_child({"mode": "cold", "workload": workload,
                           "seed": args.seed, "trace": trace_next,
                           "verify": False, "workdir": str(workdir)})
        (traced if trace_next else untraced).append(child)
        done = min(len(untraced), len(traced)) if args.trace else len(untraced)
        if done >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
            break

    def tally(children):
        total = workloads.Tally()
        for child in children:
            total.merge(child["tally"])
        return total

    untraced_tally, traced_tally = tally(untraced), tally(traced)
    children = untraced + traced
    errors = [e for c in children for e in c["setup_errors"]]
    errors += untraced_tally.errors + traced_tally.errors
    attempted = untraced_tally.attempted + traced_tally.attempted
    failed = untraced_tally.failed + traced_tally.failed
    if args.trace:
        round_spans = [[tuple(s) for s in c["spans"][c["setup_spans"]:]]
                       for c in traced]
        metrics = layer_metrics(traced, round_spans, traced_tally,
                                untraced_tally)
        span_sets = [(f"child{i}", c["spans"]) for i, c in enumerate(traced)]
    else:
        metrics = {"setup_s": min(c["setup_s"] for c in untraced),
                   "peak_rss_mb": _median(c["maxrss_mb"] for c in untraced),
                   **untraced_tally.summary()}
        span_sets = []
    return (metrics, attempted, failed, errors, len(children),
            children[0]["ops_per_round"], span_sets)


def write_spans(path: Path, span_sets) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for process, spans in span_sets:
            for sid, parent, name, start, end in spans:
                fh.write(json.dumps({"process": process, "id": sid,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def run_one(args) -> int:
    sldkit = procenv.import_sldkit()
    procenv.OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=procenv.OUT))
    runner = run_cold if args.workload == "cold_large_n" else run_warm
    try:
        (metrics, attempted, failed, errors, rounds, ops_per_round,
         span_sets) = runner(args.workload, sldkit, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if span_sets:
        path = procenv.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(path, span_sets)
    if not args.trace:
        metrics = {name: _metric(metrics[name], unit)
                   for name, unit in END_TO_END.items()}
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
            "ops_per_round": ops_per_round, "attempted": attempted,
            "failed": failed, **procenv.versions()}
    print(json.dumps(info))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=procenv.ROOT, check=False)
        if proc.returncode != 0:
            print(f"error: {workload} exited with status {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[-2:]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
