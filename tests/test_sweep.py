"""A qfi sweep as one stack of thetas: its rows against per-theta solves.

``sldkit qfi`` evaluates, solves and cross-checks its thetas in blocks,
each block as a stack along a leading axis.  A row must not depend on the
block it lands in: each equals the single-state library path on the same
matrices (``DensityState.from_matrix``, ``solve``, ``qfi_index``,
``qfi_eigenbasis``), with L bit for bit and the same rejection, however
the thetas are ordered, repeated, subset or cut into blocks, and a state's
solve has the same bits in any chunk of the solver.  A sweep takes no
residual.  Peak memory grows with the block, not with the sweep.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_lu_solves, fresh_peak_mb, haar_unitary

from sldkit import (DensityState, KernelInconsistentError, TangentForm,
                    assemble, build_basis, cli, compute_structure_constants,
                    qfi_eigenbasis, qfi_index, sld_solver, solve)
from sldkit.lie_basis import matrix_to_pairs
from sldkit.state_space import DEFAULT_TOL

#: small levels, in units of the tolerance, on both sides of the cutoff
CUTOFF_LEVELS = (0.0, 0.3, 0.9, 1.01, 1.5, 2.0)


def _weights(draw, n):
    """Weights with ``big`` O(1) levels and the rest zero or near the
    cutoff, summing to one."""
    big = draw(st.integers(1, n))
    small = DEFAULT_TOL * np.array(draw(st.lists(
        st.sampled_from(CUTOFF_LEVELS), min_size=n - big, max_size=n - big)))
    counts = np.array(draw(st.lists(st.integers(1, 3), min_size=big,
                                    max_size=big)), dtype=float)
    return np.concatenate((counts / counts.sum() * (1.0 - small.sum()),
                           small))


@st.composite
def sweeps(draw):
    """(family, thetas): every family kind at n = 2..6, full and deficient
    rank, with levels near the rank cutoff."""
    kind = draw(st.sampled_from(cli._FAMILY_KINDS))
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = _weights(draw, n)
    if kind == "exp_generator":
        family = {"generator_coeffs": (0.5 * rng.normal(size=n * n - 1))
                  .tolist(), "weights": weights.tolist()}
        lo, hi = -2.0, 2.0
    elif kind == "explicit_matrices":
        samples = []
        for t in (0.0, 0.5, 1.0):
            U = haar_unitary(n, rng)
            samples.append([t, matrix_to_pairs((U * weights) @ U.conj().T)])
        family = {"matrices": samples}
        lo, hi = 0.0, 1.0
    else:
        rates = 0.1 * rng.normal(size=n)
        if draw(st.booleans()):
            # the small levels stay put; else they move, and are rejected
            # where a kernel level moves
            rates[weights < 1e-6] = 0.0
        moving = rates != 0
        rates[moving] -= rates[moving].mean() if moving.any() else 0.0
        up, down = rates > 0, rates < 0
        lo = max(-1.0, float(np.max(-weights[up] / rates[up],
                                    initial=-np.inf)))
        hi = min(1.0, float(np.min(-weights[down] / rates[down],
                                   initial=np.inf)))
        family = {"weights": weights.tolist(), "weight_rates": rates.tolist()}
    family.update(kind=kind, n=n)
    thetas = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=12))
    return family, thetas


def _single(spec, theta, constants):
    """The library's single-state path at one theta of the family:
    (qfi, qfi_oracle, L, gauge_dim), or the rejection message."""
    states, forms = cli.family_state_and_tangent(spec, np.array([theta]))
    basis = build_basis(spec.n)
    state = DensityState.from_matrix(states.matrix[0], basis)
    form = TangentForm.from_matrix(forms.matrix[0], basis)
    try:
        sol = solve(assemble(state, form, constants), state)
        return (qfi_index(state, sol), qfi_eigenbasis(state, form),
                sol.matrix, sol.gauge_dim)
    except KernelInconsistentError as exc:
        return str(exc)


def _sweep(spec, thetas, budget):
    """The sweep's (qfi, qfi_oracle, L) rows, or its error, with ``budget``
    bytes for the blocks of thetas and the solver's chunks."""
    thetas = np.sort(np.array(thetas, dtype=float), kind="stable")
    basis = build_basis(spec.n)
    constants = compute_structure_constants(basis)
    with mock.patch.object(sld_solver, "_BLOCK_BYTES", budget):
        size = max(1, budget // (16 * spec.n ** 2))
        rows = []
        try:
            for i in range(0, thetas.size, size):
                block = thetas[i:i + size]
                qfi, qfi_oracle = cli._first_failure(
                    lambda part: cli._sweep_block(spec, part, "general",
                                                  DEFAULT_TOL, True), block)
                L = sld_solver._solve_stack(
                    *cli.family_state_and_tangent(spec, block), constants,
                    DEFAULT_TOL, basis)
                rows += zip(qfi.tolist(), qfi_oracle.tolist(), L)
        except KernelInconsistentError as exc:
            return thetas, str(exc)
    return thetas, rows


def _close(a, b):
    return abs(a - b) <= 1e-14 * max(1.0, abs(b))


def _same_row(row, other):
    """QFI and oracle QFI within round-off; L bit for bit."""
    return (_close(row[0], other[0]) and _close(row[1], other[1])
            and row[2].tobytes() == other[2].tobytes())


@settings(deadline=None, max_examples=60)
@given(sweeps(), st.sampled_from([1 << 18, 2000, 1]),
       st.randoms(use_true_random=False))
def test_sweep_rows_match_single_state_solves(sweep, budget, random):
    family, thetas = sweep
    spec = cli.parse_family(family)
    constants = compute_structure_constants(build_basis(spec.n))
    ordered, rows = _sweep(spec, thetas, budget)
    singles = [_single(spec, theta, constants) for theta in ordered]
    rejected = [s for s in singles if isinstance(s, str)]
    if rejected:
        # the first rejecting theta's message, as a loop would give it
        assert rows == rejected[0]
        return
    assert len(rows) == len(singles)
    for row, single in zip(rows, singles):
        assert _same_row(row, single)
    # reversed, duplicated and subset thetas give the same rows
    by_theta = dict(zip(ordered.tolist(), rows))
    for variant in (thetas[::-1], thetas + thetas,
                    random.sample(thetas, random.randint(1, len(thetas)))):
        again, other = _sweep(spec, variant, budget)
        for theta, row in zip(again.tolist(), other):
            assert _same_row(row, by_theta[theta])


@pytest.mark.parametrize("budget", [1 << 18, 2000, 1])
def test_kernel_sizes_mixed_in_one_sweep(budget):
    # rank 2 on [0, 0.5], where the state stays put; rank 3 after it
    U = haar_unitary(4, np.random.default_rng(5))
    samples = [[t, matrix_to_pairs((U * w) @ U.conj().T)] for t, w in (
        (0.0, [0.6, 0.4, 0.0, 0.0]), (0.5, [0.6, 0.4, 0.0, 0.0]),
        (1.0, [0.5, 0.3, 0.2, 0.0]))]
    spec = cli.parse_family({"kind": "explicit_matrices", "n": 4,
                             "matrices": samples})
    constants = compute_structure_constants(build_basis(4))
    thetas = [0.8, 0.1, 0.7, 0.2, 0.9, 0.3]
    ordered, rows = _sweep(spec, thetas, budget)
    singles = [_single(spec, theta, constants) for theta in ordered]
    assert [single[3] for single in singles] == [4, 4, 4, 1, 1, 1]
    for row, single in zip(rows, singles):
        assert _same_row(row, single)


def _lu_calls_per_run(runs, chunk, n):
    """The (operator, right-hand side) shapes of one LU call per chunk of
    each run of states with one kernel size, in the stack's order."""
    return [((min(chunk, count - start), n * n, n * n),
             (min(chunk, count - start), n * n, 1))
            for count in runs for start in range(0, count, chunk)]


@pytest.mark.parametrize("n", [9, 10])
def test_solver_chunks_do_not_change_the_stack(monkeypatch, n):
    # kernel sizes 2 on [0, 0.4], 1 on (0.4, 0.7] and 0 after it, with
    # tangents on the support
    rng = np.random.default_rng(n)
    U = haar_unitary(n, rng)
    samples = []
    for t, zeros in ((0.0, 2), (0.4, 2), (0.7, 1), (1.0, 0)):
        w = np.zeros(n)
        w[:n - zeros] = 0.9 * rng.dirichlet(np.ones(n - zeros)) + 0.1 / n
        samples.append([t, matrix_to_pairs((U * (w / w.sum())) @ U.conj().T)])
    spec = cli.parse_family({"kind": "explicit_matrices", "n": n,
                             "matrices": samples})
    interleaved = np.array([0.9, 0.1, 0.5, 0.3, 0.8, 0.6, 0.2, 0.95, 0.45,
                            0.0, 0.65])
    order = np.argsort(interleaved)
    back = np.argsort(order)
    states, forms = cli.family_state_and_tangent(spec, interleaved[order])
    basis = build_basis(n)
    constants = compute_structure_constants(basis)
    calls, results = count_lu_solves(monkeypatch), []
    for chunk in (1, 2, 3, interleaved.size):
        calls.clear()
        monkeypatch.setattr(sld_solver, "_BLOCK_BYTES", chunk * 8 * n ** 4)
        results.append(sld_solver._solve_stack(states, forms, constants,
                                               DEFAULT_TOL, basis))
        # one LU call per chunk of each run, in theta order: 4 states of
        # r = 2, 4 of r = 1, 3 of r = 0
        assert calls == _lu_calls_per_run((4, 4, 3), chunk, n)
        # the interleaved stack, its kernel sizes in runs of one state,
        # gives the sorted stack's results permuted, bit for bit
        mixed = sld_solver._solve_stack(
            states._make(field[back] for field in states),
            forms._make(field[back] for field in forms), constants,
            DEFAULT_TOL, basis)
        assert results[-1].tobytes() == mixed[order].tobytes()
    for other in results[1:]:
        assert results[0].tobytes() == other.tobytes()
    # each L is the one-state solve's, at the kernel sizes above
    gauge_dims = []
    for i, L in enumerate(results[0]):
        state = DensityState.from_matrix(states.matrix[i], basis)
        sol = solve(assemble(state, TangentForm.from_matrix(forms.matrix[i],
                                                            basis),
                             constants), state)
        assert L.tobytes() == sol.matrix.tobytes()
        gauge_dims.append(sol.gauge_dim)
    assert gauge_dims == [4] * 4 + [1] * 4 + [0] * 3


@pytest.mark.parametrize("n", [4, 9])
@pytest.mark.parametrize("chunk", [2, 32], ids=["chunks-of-2", "whole-runs"])
def test_kernel_size_returning_in_one_block(tmp_path, capsys, monkeypatch,
                                            chunk, n):
    # kernel sizes 2 on [0, 0.3], 1 on (0.3, 0.5], 0 on (0.5, 0.85) and 1
    # again on [0.85, 1]: each run is solved on its own, in theta order,
    # and r = 1 twice
    rng = np.random.default_rng(n)
    U = haar_unitary(n, rng)
    samples = []
    for t, zeros in ((0.0, 2), (0.3, 2), (0.5, 1), (0.7, 0), (0.85, 1),
                     (1.0, 1)):
        w = np.zeros(n)
        w[:n - zeros] = 0.9 * rng.dirichlet(np.ones(n - zeros)) + 0.1 / n
        samples.append([t, matrix_to_pairs((U * (w / w.sum())) @ U.conj().T)])
    family = {"kind": "explicit_matrices", "n": n, "matrices": samples}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    # 40 thetas that stay 0.0125 from every sample, each tangent its
    # segment's slope: within 1e-10 of the oracle
    assert cli.main(["qfi", "--input", str(path), "--check-oracle",
                     "--theta-range", "0.0125:0.9875:40"]) == 0
    assert json.loads(capsys.readouterr().out)["max_abs_dev"] < 1e-10
    thetas = [0.1, 0.2, 0.35, 0.4, 0.45, 0.55, 0.6, 0.8, 0.9, 0.95]
    calls = count_lu_solves(monkeypatch)
    # the budget of ``chunk`` n^2 x n^2 operators holds all ten thetas as
    # one block of n x n complex matrices
    monkeypatch.setattr(sld_solver, "_BLOCK_BYTES", chunk * 8 * n ** 4)
    assert cli.main(["qfi", "--input", str(path), "--check-oracle",
                     "--thetas", ",".join(map(str, thetas))]) == 0
    assert calls == _lu_calls_per_run((2, 3, 3, 2), chunk, n)
    rows = json.loads(capsys.readouterr().out)["rows"]
    spec = cli.parse_family(family)
    constants = compute_structure_constants(build_basis(n))
    singles = [_single(spec, theta, constants) for theta in thetas]
    assert [single[3] for single in singles] == [4, 4, 1, 1, 1, 0, 0, 0, 1, 1]
    for row, (qfi, qfi_oracle, *_) in zip(rows, singles):
        assert _close(row["qfi"], qfi) and _close(row["qfi_oracle"],
                                                  qfi_oracle)


@pytest.mark.parametrize("method", ["general", "oracle", "closed"])
def test_sweep_takes_no_residual(tmp_path, monkeypatch, method):
    # a rank-2 state at n = 4: the kernel gauge runs, no residual does (it
    # is taken only where solutions are finalized)
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "kind": "exp_generator", "n": 4, "weights": [0.6, 0.4, 0.0, 0.0],
        "generator_coeffs": np.linspace(-0.7, 0.9, 15).tolist()}))
    calls = []
    finalize = sld_solver._finalize

    def counting(*args):
        calls.append(1)
        return finalize(*args)

    monkeypatch.setattr(sld_solver, "_finalize", counting)
    assert cli.main(["qfi", "--input", str(path), "--theta-range", "0:1:24",
                     "--check-oracle", "--method", method,
                     "--output", str(tmp_path / "out.json")]) == 0
    assert calls == []


def _sweep_peak(tmp_path, count):
    # CSV rows without the oracle columns: the rows are the one part of a
    # sweep's memory that must grow with the thetas, and kept small they
    # leave the blocks' arrays in view (an indented JSON payload holds about
    # 1 kB per row while it is written)
    family = {"kind": "exp_generator", "n": 8,
              "weights": (np.arange(8, 0, -1) / 36.0).tolist(),
              "generator_coeffs": np.linspace(-1.0, 1.0, 63).tolist()}
    path = tmp_path / "n8.json"
    path.write_text(json.dumps(family))
    argv = ["qfi", "--input", str(path), "--theta-range", f"0:1:{count}",
            "--format", "csv", "--output", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 0  # caches filled before measuring
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_grows_with_the_block_not_the_sweep(tmp_path):
    # the short sweep fills one whole block of 64 thetas at n = 8
    short, long = _sweep_peak(tmp_path, 64), _sweep_peak(tmp_path, 480)
    assert long < 2 * short, (short, long)


def _child_peak_mb(tmp_path, n, count):
    """Exit code and peak RSS in MB of ``python -m sldkit.cli qfi
    --check-oracle`` over ``count`` thetas of an n-level exp_generator
    family, in a fresh process with one BLAS thread."""
    path = tmp_path / f"n{n}.json"
    path.write_text(json.dumps({
        "kind": "exp_generator", "n": n,
        "weights": (np.arange(n, 0, -1) / (n * (n + 1) / 2)).tolist(),
        "generator_coeffs": np.linspace(-1, 1, n * n - 1).tolist()}))
    return fresh_peak_mb("-m", "sldkit.cli", "qfi", "--input", str(path),
                         "--theta-range", f"0:1:{count}", "--check-oracle")


@pytest.mark.parametrize("n, count", [(8, 2000), (10, 500)])
def test_sweep_peak_rss_in_a_fresh_process(tmp_path, n, count):
    # blocks of 64 thetas at n = 8 and of 40 at n = 10, solved one state
    # per chunk from n = 9 on: the peak stays under 60 MB (about 35 and
    # 34 MB on a 2-core x86-64 VM; one stack of every theta would take
    # about 240 MB at n = 8).  About 0.4 s each
    code, mb = _child_peak_mb(tmp_path, n, count)
    assert code == 0 and mb < 60, (code, mb)


def test_one_budget_sizes_the_blocks_and_the_chunks(tmp_path, capsys,
                                                    monkeypatch):
    # 4096 bytes hold 16 stacked 4 x 4 complex matrices and 2 stacked
    # 16 x 16 float operators: 40 thetas run as blocks of 16, 16 and 8,
    # each solved in chunks of 2 states
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "kind": "exp_generator", "n": 4, "weights": [0.4, 0.3, 0.2, 0.1],
        "generator_coeffs": np.linspace(-0.7, 0.9, 15).tolist()}))
    blocks = []
    evaluate = cli.family_state_and_tangent

    def counting(spec, thetas):
        blocks.append(thetas.size)
        return evaluate(spec, thetas)

    monkeypatch.setattr(cli, "family_state_and_tangent", counting)
    calls = count_lu_solves(monkeypatch)
    monkeypatch.setattr(sld_solver, "_BLOCK_BYTES", 4096)
    assert cli.main(["qfi", "--input", str(path),
                     "--theta-range", "0:1:40"]) == 0
    assert blocks == [16, 16, 8]
    assert calls == [((2, 16, 16), (2, 16, 1))] * 20


@pytest.mark.parametrize("budget", [1 << 18, 1])
def test_blocks_give_the_rows_of_one_stack(tmp_path, capsys, budget):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "kind": "exp_generator", "n": 4,
        "weights": [0.5, 0.3, 0.2, 0.0],
        "generator_coeffs": np.linspace(-0.7, 0.9, 15).tolist()}))
    argv = ["qfi", "--input", str(path), "--theta-range=-1:1:40",
            "--check-oracle"]
    assert cli.main(argv) == 0
    whole = capsys.readouterr().out
    with mock.patch.object(sld_solver, "_BLOCK_BYTES", budget):
        assert cli.main(argv) == 0
    assert capsys.readouterr().out == whole
