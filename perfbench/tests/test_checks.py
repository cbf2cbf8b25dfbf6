"""Each reference check accepts sldkit's output and rejects a perturbed one.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import checks, inputs, procenv, workloads  # noqa: E402

sldkit = procenv.import_sldkit()


def _random_case(n=4, rank=4, seed=0):
    rng = np.random.default_rng(seed)
    rho = inputs.random_state(rng, n, rank)
    Ks = inputs.gell_mann_halves(n)
    basis = sldkit.build_basis(n)
    constants = sldkit.compute_structure_constants(basis)
    state = sldkit.DensityState.from_matrix(rho, basis)
    sols = [sldkit.solve(sldkit.assemble(
        state, sldkit.tangent_from_generator(K, state, basis), constants), state)
        for K in Ks]
    drhos = np.stack([checks.commutator_tangent(K, rho) for K in Ks])
    return rho, drhos, state, sols


def _cli(argv, tmp_path=None):
    code, out, err = workloads._cli_run(sldkit, argv)(None)
    assert code == 0, err
    return json.loads(out)


def test_gell_mann_halves_match_the_documented_basis():
    for n in (2, 3, 4, 5):
        assert np.allclose(2 * inputs.gell_mann_halves(n),
                           sldkit.build_basis(n).generators)


def test_spectral_qfi_matches_orbit_formula_and_rejects_perturbation():
    rng = np.random.default_rng(1)
    fam = inputs.exp_family(rng, 4, 2, 3, "f")
    rho, drho = fam.state_and_tangent(0.4)
    qfi = checks.spectral_qfi(rho, drho)
    assert checks.check_values([qfi], fam.expected[:1], "qfi") is None
    assert checks.check_values([qfi * (1 + 1e-6)], fam.expected[:1], "qfi")


def test_orbit_invariance_rejects_a_varying_sweep():
    values = np.full(5, 1.7)
    assert checks.check_orbit_invariance(values, "qfi") is None
    values[3] *= 1 + 1e-6
    assert checks.check_orbit_invariance(values, "qfi")


def test_classical_fisher_checks_weight_path_sweep(tmp_path):
    fam = inputs.weight_family(np.random.default_rng(2), 3, 4, "w")
    fam.write(tmp_path)
    op = workloads.sweep_op(sldkit, fam)
    result = op.run(None)
    assert op.check(result) is None
    payload = json.loads(result[1])
    payload["rows"][2]["qfi"] *= 1 + 1e-6
    assert "qfi[2]" in op.check((0, json.dumps(payload), ""))


def test_sweep_check_rejects_a_non_invariant_orbit_sweep(tmp_path):
    fam = inputs.exp_family(np.random.default_rng(3), 3, 3, 4, "e")
    fam.write(tmp_path)
    op = workloads.sweep_op(sldkit, fam)
    result = op.run(None)
    assert op.check(result) is None
    payload = json.loads(result[1])
    payload["rows"][1]["qfi_oracle"] += 1e-3
    assert op.check((0, json.dumps(payload), ""))
    assert "exit status 2" in op.check((2, "", "error: boom"))


def test_explicit_family_reference_matches_sldkit(tmp_path):
    fam = inputs.explicit_family(np.random.default_rng(4), 3, 5, "x")
    fam.write(tmp_path)
    op = workloads.sweep_op(sldkit, fam)
    assert op.check(op.run(None)) is None


def test_residual_check_rejects_perturbed_sld():
    rho, drhos, _, sols = _random_case()
    L = sols[0].matrix
    assert checks.check_residual(rho, drhos[0], L) is None
    H = inputs.random_direction(np.random.default_rng(5), 4)
    assert "residual" in checks.check_residual(rho, drhos[0], L + 1e-7 * H)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1e-6
    assert "Hermitian" in checks.check_residual(rho, drhos[0], L + skew)


def test_tensor_check_rejects_each_broken_property():
    rho, drhos, state, sols = _random_case(rank=2)
    tensor = sldkit.fisher_tensor(state, sols)
    reference = checks.spectral_tensor(rho, drhos)
    g, omega = np.array(tensor.symmetric), np.array(tensor.antisymmetric)
    assert checks.check_tensor(g, omega, reference) is None

    w, V = np.linalg.eigh(g)
    w[0] = -1e-3 * w[-1]
    assert "PSD" in checks.check_tensor((V * w) @ V.T, omega, reference)
    sym = omega.copy()
    sym[0, 1] = sym[1, 0] = 0.5
    assert "antisymmetric" in checks.check_tensor(g, sym, reference)
    bumped = g.copy()
    bumped[2, 2] *= 1 + 1e-6
    assert "diag g" in checks.check_tensor(bumped, omega, reference)
    off = omega.copy()
    off[0, 3] += 1e-6
    off[3, 0] -= 1e-6
    assert "spectral tensor" in checks.check_tensor(g, off, reference)


def test_gauge_dim_check():
    _, _, _, sols = _random_case(rank=2)
    assert checks.check_gauge_dim(sols[0].gauge_dim, 4, 2) is None
    assert checks.check_gauge_dim(1, 4, 2)


@pytest.mark.parametrize("rank", [3, 2])
def test_cli_tensor_check_rejects_perturbed_output(rank):
    weights = inputs.distinct_weights(np.random.default_rng(6), rank)
    payload = _cli(["tensor", "--weights", ",".join(map(repr, weights))])
    assert checks.check_cli_tensor(payload, weights) is None

    bad = json.loads(json.dumps(payload))
    bad["closed_form"]["pairs"][1][1] *= 1 + 1e-9
    assert "pair 1" in checks.check_cli_tensor(bad, weights)
    bad = json.loads(json.dumps(payload))
    bad["max_deviation"] = 1e-8
    assert "max_deviation" in checks.check_cli_tensor(bad, weights)
    bad = json.loads(json.dumps(payload))
    bad["tensor"]["omega"][0][1] *= -1
    bad["tensor"]["omega"][1][0] *= -1
    assert checks.check_cli_tensor(bad, weights)


def test_structure_sample_rejects_a_wrong_constant():
    n = 4
    basis = sldkit.build_basis(n)
    constants = sldkit.compute_structure_constants(basis)
    m = n * n - 1
    pairs = [(i, j) for i in range(m) for j in range(m)]
    c, f = constants.c.get, constants.f.get
    assert checks.check_basis(basis.generators, n) is None
    assert checks.check_structure_sample(basis.generators, c, f, n, pairs) is None

    key = next(iter(dict(constants.f.items())))

    def f_bad(i, j, k):
        return f(i, j, k) + (1e-6 if tuple(sorted((i, j, k))) == key else 0.0)

    assert checks.check_structure_sample(basis.generators, c, f_bad, n, pairs)
    broken = np.array(basis.generators)
    broken[0, 0, 1] += 1e-6
    assert checks.check_basis(broken, n)


def test_fault_check_flags_gauge_dim_disagreement_as_the_known_fault():
    op = workloads.fault_op(sldkit, workloads.FAULT_EPSILONS[0])
    assert op.known_fault
    sol, spectral = op.run(lambda: None)
    error = op.check((sol, spectral))
    assert isinstance(error, workloads.KnownFault) and "gauge_dim" in error
    # a wrong SLD is an error even where the gauge_dim fault also shows
    broken = SimpleNamespace(matrix=sol.matrix + 1e-6, gauge_dim=sol.gauge_dim)
    error = op.check((broken, spectral))
    assert error and not isinstance(error, workloads.KnownFault)


def test_round_counts_only_known_faults_as_expected_failures():
    ok = workloads.Op("ok", lambda mark: 1, lambda out: None, slds=1)
    fault = workloads.Op("fault", lambda mark: 1,
                         lambda out: workloads.KnownFault("wrong"),
                         slds=2, known_fault=True)
    fault_wrong = workloads.Op("fault-wrong", lambda mark: 1,
                               lambda out: "residual", known_fault=True)
    fault_raises = workloads.Op("fault-raises", lambda mark: 1 / 0,
                                lambda out: None, known_fault=True)
    bad = workloads.Op("bad", lambda mark: 1 / 0, lambda out: None, slds=3)
    tally = workloads.Tally()
    workloads.run_round([ok, fault, fault_wrong, fault_raises, bad], tally)
    assert (tally.attempted, tally.failed) == (5, 4)
    assert len(tally.errors) == 3
    assert "residual" in tally.errors[0]
    assert all("ZeroDivisionError" in e for e in tally.errors[1:])
    # only the operation that passed is timed and counted
    assert list(tally.records[0]) == ["ok"]


def test_rates_count_only_the_operations_that_produce_them():
    tally = workloads.Tally(records=[
        {"state": [[0.3, 0.1], 1, 3, 1, False], "sweep": [[0.2], 1, 2, 0, True]},
        {"state": [[0.1, 0.1], 1, 3, 1, False], "sweep": [[0.5], 1, 2, 0, True]}])
    summary = tally.summary()
    assert summary["sld_per_s"] == pytest.approx(5 / 0.3)
    assert summary["tensors_per_s"] == pytest.approx(1 / 0.2)
    assert summary["sweep_s"] == pytest.approx(0.2)
    tally.records[0]["other"] = [[0.8], 1, 2, 0, True]
    assert tally.summary()["sweep_s"] == pytest.approx(0.4)


def test_cost_is_the_sum_of_each_part_at_its_fastest():
    tally = workloads.Tally(records=[
        {"state": [[0.1, 0.4, 0.3, 0.2], 2, 1, 1, False],
         "sweep": [[0.1], 1, 0, 0, True]},
        {"state": [[0.2, 0.3, 0.5, 0.1], 2, 1, 1, False],
         "sweep": [[0.1], 1, 0, 0, True]}])
    assert tally.fastest()["state"][0] == [0.1, 0.3, 0.3, 0.1]
    assert tally.round_s() == pytest.approx(0.9)
    assert tally.busy_s() == pytest.approx(2.3)
    assert tally.summary()["sld_per_s"] == pytest.approx(1 / 0.4)


def test_library_tensor_times_each_direction_as_a_part():
    rho = inputs.random_state(inputs.rng(3, 0), 3, 3)
    Ks = inputs.gell_mann_halves(3)[:4]
    op = workloads.state_tensor_op(sldkit, rho, 3, Ks, "n3")
    tally = workloads.Tally()
    workloads.run_round([op], tally)
    parts, sld_parts = tally.records[0]["tensor.n3"][:2]
    assert (len(parts), sld_parts) == (1 + 4 + 2, 1 + 4)
    assert not tally.errors
