"""A qfi sweep as one stack of thetas: its rows against per-theta solves.

``sldkit qfi`` evaluates, solves and cross-checks its thetas in blocks,
each block as a stack along a leading axis.  A row must not depend on the
block it lands in: each equals the single-state library path on the same
matrices (``DensityState.from_matrix``, ``solve``, ``qfi_index``,
``qfi_eigenbasis``), with the same gauge dimension and the same rejection,
however the thetas are ordered, repeated, subset or cut into blocks.  Peak
memory grows with the block, not with the sweep.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import haar_unitary

from sldkit import (DensityState, KernelInconsistentError, TangentForm,
                    assemble, build_basis, cli, compute_structure_constants,
                    qfi_eigenbasis, qfi_index, solve)
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
        family = {"matrices": samples, "fd_step": 1e-3}
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
    """The library's single-state path at one theta of the family."""
    states, forms = cli.family_state_and_tangent(spec, np.array([theta]))
    basis = build_basis(spec.n)
    state = DensityState.from_matrix(states.matrix[0], basis)
    form = TangentForm.from_matrix(forms.matrix[0], basis)
    try:
        sol = solve(assemble(state, form, constants), state)
        return (qfi_index(state, sol), qfi_eigenbasis(state, form),
                sol.gauge_dim)
    except KernelInconsistentError as exc:
        return str(exc)


def _sweep(spec, thetas, budget):
    """The sweep's (qfi, qfi_oracle, gauge_dim) rows, or its error."""
    thetas = np.sort(np.array(thetas, dtype=float), kind="stable")
    with mock.patch.object(cli, "_BLOCK_BYTES", budget):
        size = max(1, cli._BLOCK_BYTES // (8 * spec.n ** 4))
        rows = []
        try:
            for i in range(0, thetas.size, size):
                block = thetas[i:i + size]
                qfi, qfi_oracle = cli._first_failure(
                    lambda part: cli._sweep_block(spec, part, "general",
                                                  DEFAULT_TOL, True), block)
                _, _, solutions = cli._solve_family(spec, block, "general",
                                                    DEFAULT_TOL)
                rows += zip(qfi.tolist(), qfi_oracle.tolist(),
                            solutions.gauge_dim.tolist())
        except KernelInconsistentError as exc:
            return thetas, str(exc)
    return thetas, rows


def _close(a, b):
    return abs(a - b) <= 1e-14 * max(1.0, abs(b))


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
    for (qfi, qfi_oracle, gauge_dim), (q, q_oracle, dim) in zip(rows,
                                                                singles):
        assert _close(qfi, q) and _close(qfi_oracle, q_oracle)
        assert gauge_dim == dim
    # reversed, duplicated and subset thetas give the same rows
    by_theta = dict(zip(ordered.tolist(), rows))
    for variant in (thetas[::-1], thetas + thetas,
                    random.sample(thetas, random.randint(1, len(thetas)))):
        again, other = _sweep(spec, variant, budget)
        for theta, row in zip(again.tolist(), other):
            assert all(_close(x, y) for x, y in zip(row, by_theta[theta]))


@pytest.mark.parametrize("budget", [1 << 18, 2000, 1])
def test_kernel_sizes_mixed_in_one_sweep(budget):
    # rank 2 on [0, 0.5], where the state stays put; rank 3 after it
    U = haar_unitary(4, np.random.default_rng(5))
    samples = [[t, matrix_to_pairs((U * w) @ U.conj().T)] for t, w in (
        (0.0, [0.6, 0.4, 0.0, 0.0]), (0.5, [0.6, 0.4, 0.0, 0.0]),
        (1.0, [0.5, 0.3, 0.2, 0.0]))]
    spec = cli.parse_family({"kind": "explicit_matrices", "n": 4,
                             "fd_step": 1e-3, "matrices": samples})
    constants = compute_structure_constants(build_basis(4))
    thetas = [0.8, 0.1, 0.7, 0.2, 0.9, 0.3]
    ordered, rows = _sweep(spec, thetas, budget)
    assert [row[2] for row in rows] == [4, 4, 4, 1, 1, 1]
    for row, theta in zip(rows, ordered):
        single = _single(spec, theta, constants)
        assert all(_close(x, y) for x, y in zip(row, single))


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
    short, long = _sweep_peak(tmp_path, 24), _sweep_peak(tmp_path, 480)
    assert long < 2 * short, (short, long)


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
    with mock.patch.object(cli, "_BLOCK_BYTES", budget):
        assert cli.main(argv) == 0
    assert capsys.readouterr().out == whole
