"""The three workloads: their operations, their checks and how a round runs.

An operation is one call sequence a user of sldkit makes, timed as a whole,
followed by an untimed check of its output against ``checks``.  A round runs
every operation of a workload once, in a fixed order, on inputs drawn for
that round, so the share of failed operations is the same in every run.

Workloads use only ``sldkit.cli.main`` and names exported from ``sldkit``.
"""

from __future__ import annotations

import io
import json
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import numpy as np

from . import checks, inputs

WORKLOADS = ("qfi_sweep", "fisher_tensor", "cold_large_n")

#: dimensions whose basis and structure constants each workload sets up
DIMS = {"qfi_sweep": (2, 3, 4, 6, 8),
        "fisher_tensor": (3, 4, 6, 8),
        "cold_large_n": (8, 10)}

QFI_SWEEP_THETAS = 24
TENSOR_DIMS = (4, 6, 8)
TENSOR_SWEEPS = 3           # sweep_s is the geometric mean of their costs
TENSOR_SWEEP_THETAS = 8
COLD_STATES = 8             # per (n, rank) pair
COLD_ROUNDS = 20            # rounds in each fresh process, after set-up
COLD_SWEEP_THETAS = 4

#: near-threshold states where solver and oracle disagree on gauge_dim
#: (4 vs 0 and 1 vs 0 for every unitary tried); fixed, not seeded by the run
FAULT_EPSILONS = (5.5e-11, 6e-11)
FAULT_UNITARY_SEED = 20200123


class KnownFault(str):
    """A check's message for the fault an operation is known to show."""


@dataclass
class Op:
    name: str
    run: Callable[[Callable[[], None]], Any]    # run(mark) -> output
    check: Callable[[Any], "str | None"]
    slds: int = 0           # SLD solutions the operation produces
    tensors: int = 0        # Fisher tensors it produces
    sweep: bool = False     # it is one ``sldkit qfi`` call
    known_fault: bool = False
    sld_parts: "int | None" = None  # leading parts that make the SLDs; all if None


@dataclass
class Tally:
    """Counts and timings of the rounds a process ran.

    ``records`` holds one dict per round, with an entry for each operation
    that passed its check: ``name -> [parts, sld_parts, slds, tensors,
    sweep]``.  ``parts`` are the times of the operation's parts: the spans
    between the calls it makes to ``mark`` (one part if it makes none).  The
    first ``sld_parts`` of them make its SLDs.

    A part's cost is its fastest run over the rounds, and an operation's cost
    is the sum of its parts' costs.  Each round has new inputs of the same
    make-up, so the fastest run is not a cache hit.  This machine is shared
    with other tenants and runs the same work at one of a few speeds, up to
    1.6 times apart, each held for seconds at a time.  A part of about a
    millisecond finds the fast speed in a run far more often than a whole
    60 ms operation does; see README.md.
    """

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    errors: list = field(default_factory=list)      # unexpected failures
    records: list = field(default_factory=list)

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.rounds += other["rounds"]
        self.errors += other["errors"]
        self.records += other["records"]

    def fastest(self) -> dict:
        """Each operation's record, with the fastest time of each part."""
        best = {}
        for ops in self.records:
            for name, record in ops.items():
                b = best.setdefault(name, [list(record[0]), *record[1:]])
                b[0] = [min(x, y) for x, y in zip(b[0], record[0])]
        return best

    def busy_s(self) -> float:
        """Total timed seconds over every operation that passed."""
        return sum(sum(r[0]) for ops in self.records for r in ops.values())

    def round_s(self) -> float:
        """A round made of every operation at its cost."""
        return sum(sum(b[0]) for b in self.fastest().values())

    def summary(self) -> dict:
        """sld_per_s, tensors_per_s and sweep_s from the operations' costs.

        SLDs per second count the parts of each SLD-producing operation that
        make its SLDs; tensors per second count the whole of each operation
        that produces a tensor; sweep_s is the geometric mean over the
        round's ``sldkit qfi`` calls of each call's cost.  Every call counts
        in it by its relative change, as in a median, but a mean over all the
        calls of a run spreads less between runs than the cost of the one
        call a median picks.
        """
        best = self.fastest().values()
        return {"sld_per_s": sum(b[2] for b in best)
                / sum(sum(b[0][:b[1]]) for b in best if b[2]),
                "tensors_per_s": sum(b[3] for b in best)
                / sum(sum(b[0]) for b in best if b[3]),
                "sweep_s": statistics.geometric_mean(
                    sum(b[0]) for b in best if b[4])}


def run_round(ops, tally: Tally, tracer=None) -> None:
    """Run every operation once: time it, check it, count it.

    An exception, or any failed check other than a known-fault operation's
    ``KnownFault``, is an error.
    """
    records = {}
    for op in ops:
        marks = [perf_counter()]

        def mark():
            marks.append(perf_counter())

        try:
            if tracer is None:
                out = op.run(mark)
            else:
                with tracer.span(f"bench.{op.name}"):
                    out = op.run(mark)
            marks.append(perf_counter())
            error = op.check(out)
        except Exception as exc:  # an operation that raises has failed
            error = f"raised {type(exc).__name__}: {exc}"
        tally.attempted += 1
        if error is None:
            parts = [b - a for a, b in zip(marks, marks[1:])]
            records[op.name] = [parts, op.sld_parts or len(parts),
                                op.slds, op.tensors, op.sweep]
            continue
        tally.failed += 1
        if not (op.known_fault and isinstance(error, KnownFault)):
            tally.errors.append(f"{op.name}: {error}")
    tally.records.append(records)
    tally.rounds += 1


# ---------------------------------------------------------------- operations

def _cli_run(sldkit, argv):
    def run(mark=None):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = sldkit.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()
    return run


def _cli_payload(result):
    code, out, err = result
    if code != 0:
        return None, f"exit status {code}: {err.strip()}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def sweep_op(sldkit, fam: inputs.Family) -> Op:
    """``sldkit qfi --theta-range ... --check-oracle`` over one family."""
    start, stop, count = fam.theta_range
    argv = ["qfi", "--input", str(fam.path),
            "--theta-range", f"{start!r}:{stop!r}:{count}", "--check-oracle"]

    def check(result):
        payload, error = _cli_payload(result)
        if error:
            return error
        rows = payload["rows"]
        thetas = np.array([row["theta"] for row in rows])
        if thetas.shape != fam.thetas.shape or \
                np.abs(thetas - fam.thetas).max() > 1e-12:
            return f"{fam.name}: rows at thetas {thetas.tolist()}"
        qfi = [row["qfi"] for row in rows]
        oracle = [row["qfi_oracle"] for row in rows]
        error = (checks.check_values(qfi, fam.expected, f"{fam.name} qfi")
                 or checks.check_values(oracle, fam.expected,
                                        f"{fam.name} qfi_oracle")
                 or (checks.check_orbit_invariance(qfi, f"{fam.name} qfi")
                     if fam.orbit else None))
        devs = [abs(a - b) for a, b in zip(qfi, oracle)]
        if error is None and ([row["abs_dev"] for row in rows] != devs
                              or payload["max_abs_dev"] != max(devs)):
            error = f"{fam.name}: abs_dev columns do not match qfi - qfi_oracle"
        return error

    return Op(f"qfi.{fam.name}", _cli_run(sldkit, argv), check,
              slds=count, sweep=True)


def cli_tensor_op(sldkit, weights, name: str) -> Op:
    """``sldkit tensor --weights k1,k2,k3``: six chart directions at n = 3."""
    argv = ["tensor", "--weights", ",".join(repr(float(v)) for v in weights)]

    def check(result):
        payload, error = _cli_payload(result)
        return error or checks.check_cli_tensor(payload, weights)

    return Op(f"tensor-cli.{name}", _cli_run(sldkit, argv), check,
              slds=6, tensors=1)


def _check_solutions(rho, drhos, sols, n, rank, name):
    for m, (drho, sol) in enumerate(zip(drhos, sols)):
        error = (checks.check_residual(rho, drho, sol.matrix, f"{name} SLD {m}")
                 or checks.check_gauge_dim(sol.gauge_dim, n, rank,
                                           f"{name} SLD {m}"))
        if error:
            return error
    return None


def state_tensor_op(sldkit, rho, rank: int, Ks, name: str) -> Op:
    """One state, one SLD per direction, then the scalar QFIs and the tensor.

    tangent_from_generator and assemble + solve per direction, then qfi_index
    per direction and fisher_tensor over all of them: the library path of the
    README quickstart.  The parts timed are the state, each direction up to
    its SLD, the scalar QFIs and the tensor.
    """
    n = rho.shape[0]
    basis = sldkit.build_basis(n)
    constants = sldkit.compute_structure_constants(basis)
    drhos = np.stack([checks.commutator_tangent(K, rho) for K in Ks])
    reference = checks.spectral_tensor(rho, drhos)

    def run(mark):
        state = sldkit.DensityState.from_matrix(rho, basis)
        mark()
        sols = []
        for K in Ks:
            form = sldkit.tangent_from_generator(K, state, basis)
            sols.append(sldkit.solve(sldkit.assemble(state, form, constants),
                                     state))
            mark()
        qfis = [sldkit.qfi_index(state, sol) for sol in sols]
        mark()
        return sldkit.fisher_tensor(state, sols), sols, qfis

    def check(out):
        tensor, sols, qfis = out
        return (_check_solutions(rho, drhos, sols, n, rank, name)
                or checks.check_values(qfis, np.diag(reference.real),
                                       f"{name} qfi_index")
                or checks.check_tensor(tensor.symmetric, tensor.antisymmetric,
                                       reference, name))

    return Op(f"tensor.{name}", run, check, slds=len(Ks), tensors=1,
              sld_parts=1 + len(Ks))


def fault_op(sldkit, epsilon: float) -> Op:
    """A near-threshold n = 4 state: solver and oracle must agree on gauge_dim."""
    rho = inputs.fault_state(epsilon, FAULT_UNITARY_SEED)
    K = inputs.gell_mann_halves(4)[0]
    drho = checks.commutator_tangent(K, rho)
    basis = sldkit.build_basis(4)
    constants = sldkit.compute_structure_constants(basis)

    def run(mark):
        state = sldkit.DensityState.from_matrix(rho, basis)
        form = sldkit.tangent_from_generator(K, state, basis)
        sol = sldkit.solve(sldkit.assemble(state, form, constants), state)
        return sol, sldkit.sld_eigenbasis(state, form)

    def check(out):
        sol, spectral = out
        what = f"eps={epsilon!r}"
        error = (checks.check_residual(rho, drho, sol.matrix, f"{what} solver")
                 or checks.check_residual(rho, drho, spectral.matrix,
                                          f"{what} oracle"))
        if error is None and sol.gauge_dim != spectral.gauge_dim:
            return KnownFault(f"solver gauge_dim {sol.gauge_dim}, "
                              f"oracle gauge_dim {spectral.gauge_dim}")
        return error or _check_solutions(rho, [drho, drho], [sol, spectral],
                                         4, 2, what)

    return Op(f"fault.eps{epsilon!r}", run, check, slds=2, known_fault=True)


# ----------------------------------------------------------------- workloads

def build_ops(workload: str, sldkit, rng, workdir) -> list:
    """The operations of one round, with inputs drawn from ``rng``.

    Each round draws new inputs, so no round can reuse a result of an
    earlier one; the same seed gives the same sequence of rounds.  The
    known-fault states are the exception: they do not depend on the seed.
    """
    ops = []

    def sweep(fam):
        fam.write(workdir)
        return sweep_op(sldkit, fam)

    if workload == "qfi_sweep":
        for n in DIMS["qfi_sweep"]:
            ops += [sweep(inputs.exp_family(rng, n, n, QFI_SWEEP_THETAS,
                                            f"exp-n{n}")),
                    sweep(inputs.exp_family(rng, n, inputs.deficient_rank(n),
                                            QFI_SWEEP_THETAS,
                                            f"exp-deficient-n{n}")),
                    sweep(inputs.explicit_family(rng, n, QFI_SWEEP_THETAS,
                                                 f"explicit-n{n}")),
                    sweep(inputs.weight_family(rng, n, QFI_SWEEP_THETAS,
                                               f"weight-n{n}"))]
        # the one tensor of the round, so that tensors_per_s has a value
        ops.append(cli_tensor_op(sldkit, inputs.distinct_weights(rng, 3),
                                 "generic"))
    elif workload == "fisher_tensor":
        for n in TENSOR_DIMS:
            Ks = inputs.gell_mann_halves(n)
            for rank in (n, n - 2):
                rho = inputs.random_state(rng, n, rank)
                ops.append(state_tensor_op(sldkit, rho, rank, Ks,
                                           f"n{n}-rank{rank}"))
        ops.append(cli_tensor_op(sldkit, inputs.distinct_weights(rng, 3),
                                 "generic"))
        ops.append(cli_tensor_op(sldkit, inputs.distinct_weights(rng, 2),
                                 "rank2"))
        ops += [fault_op(sldkit, eps) for eps in FAULT_EPSILONS]
        # the round's only sweeps, so that sweep_s has a value
        ops += [sweep(inputs.exp_family(rng, 4, 4, TENSOR_SWEEP_THETAS,
                                        f"exp-n4-{i}"))
                for i in range(TENSOR_SWEEPS)]
    elif workload == "cold_large_n":
        for n in DIMS["cold_large_n"]:
            for rank in (n, n - 2):
                for i in range(COLD_STATES):
                    rho = inputs.random_state(rng, n, rank)
                    K = inputs.random_direction(rng, n)
                    ops.append(state_tensor_op(sldkit, rho, rank, [K],
                                               f"n{n}-rank{rank}-{i}"))
        # the one sweep of the round, so that sweep_s has a value
        n = max(DIMS["cold_large_n"])
        ops.append(sweep(inputs.exp_family(rng, n, n, COLD_SWEEP_THETAS,
                                           f"exp-n{n}")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def structure_check(sldkit, dims, seed: int, full: bool) -> list:
    """Check bases and structure constants; messages for each failure.

    A seeded sample of products t_i t_j at every dimension; with ``full``,
    also ``verify_basis`` up to n = 8.  Beyond that its m^4 Jacobi tensor
    needs about 0.8 GB at n = 10, so the sample stands in for it.
    """
    rng = inputs.rng(seed, 99)
    errors = []
    for n in dims:
        basis = sldkit.build_basis(n)
        constants = sldkit.compute_structure_constants(basis)
        m = n * n - 1
        pairs = [(int(i), int(j)) for i, j in rng.integers(0, m, size=(48, 2))]
        pairs += [(int(i), int(i)) for i in rng.integers(0, m, size=8)]
        error = (checks.check_basis(basis.generators, n)
                 or checks.check_structure_sample(
                     basis.generators, constants.c.get, constants.f.get, n, pairs))
        if error:
            errors.append(error)
        if full and n <= 8:
            errors += [f"n={n} verify_basis: {msg}"
                       for msg in sldkit.verify_basis(basis, constants)]
    return errors
