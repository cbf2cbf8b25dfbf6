#!/usr/bin/env python3
"""The fresh-process part of the benchmark, started by ``run.py``.

Imports sldkit and builds the bases and structure constants of a workload's
dimensions, then prints ``ready`` so the parent can time the set-up from
process start.  A ``probe`` child then checks the constants; a ``cold`` child
(the cold_large_n workload) first runs its rounds of operations.  The last
line of output is one JSON object with the results.

Usage: python3 perfbench/child.py '<json config>'
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import procenv  # noqa: E402

procenv.configure()

from perfbench import inputs, tracer as tracing, workloads  # noqa: E402


def _array_bytes(tensor) -> int:
    """Bytes of the numpy arrays a structure tensor holds, from array sizes."""
    return sum(v.nbytes for v in vars(tensor).values() if hasattr(v, "nbytes"))


def main() -> int:
    cfg = json.loads(sys.argv[1])
    workload, seed = cfg["workload"], cfg["seed"]
    dims = workloads.DIMS[workload]
    sldkit = procenv.import_sldkit()
    tracer = tracing.Tracer(sldkit) if cfg["trace"] else None
    if tracer:
        tracer.install()
    constants = [sldkit.compute_structure_constants(sldkit.build_basis(n))
                 for n in dims]
    print("ready", flush=True)

    result = {
        "dense_bytes": sum(_array_bytes(c.c) + _array_bytes(c.f)
                           for c in constants),
        "structure_entries": sum(len(c.c) + len(c.f) for c in constants),
        "setup_spans": len(tracer.spans) if tracer else 0,
    }
    if cfg["mode"] == "cold":
        rng = inputs.rng(seed, workloads.WORKLOADS.index(workload))
        gc.collect()
        gc.freeze()  # the set-up's objects need no scanning in timed rounds
        tally = workloads.Tally()
        for i in range(workloads.COLD_ROUNDS):
            ops = workloads.build_ops(workload, sldkit, rng, Path(cfg["workdir"]))
            procenv.pin(i)
            workloads.run_round(ops, tally, tracer)
        procenv.unpin()
        result["tally"] = vars(tally)
        result["ops_per_round"] = len(ops)
    elif tracer:
        # the first solve of a fresh process, at the largest dimension
        n = dims[-1]
        rng = inputs.rng(seed, 98)
        state = sldkit.DensityState.from_matrix(
            inputs.random_state(rng, n, n), sldkit.build_basis(n))
        form = sldkit.tangent_from_generator(inputs.gell_mann_halves(n)[0], state)
        sldkit.solve(sldkit.assemble(state, form, constants[-1]), state)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        result["spans"] = tracer.spans
    result["setup_errors"] = workloads.structure_check(
        sldkit, dims, seed, full=cfg["verify"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
