"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import itertools
import json

import numpy as np
import pytest

from helpers import (GELL_MANN, SQ3, haar_unitary, random_distinct_weights,
                     random_full_rank_weights, random_hermitian)

from sldkit import (DensityState, MixingWeights, TangentForm,
                    adjoint_transport, assemble, base_point, build_basis,
                    chart_tangents, closed_form, closed_form_deviation,
                    closed_form_fisher, compute_structure_constants,
                    fisher_tensor, horizontal_transversal_split_check,
                    qfi_eigenbasis, qfi_index, sld_eigenbasis, solve,
                    tangent_from_generator, transversal_tangent)
from sldkit.cli import main

SU3_C = {
    (0, 1, 2): 1.0,
    (3, 4, 7): SQ3 / 2, (5, 6, 7): SQ3 / 2,
    (0, 3, 6): 0.5, (1, 3, 5): 0.5, (1, 4, 6): 0.5, (2, 3, 4): 0.5,
    (0, 4, 5): -0.5, (2, 5, 6): -0.5,
}
SU3_F = {
    (0, 0, 7): 1 / SQ3, (1, 1, 7): 1 / SQ3, (2, 2, 7): 1 / SQ3,
    (7, 7, 7): -1 / SQ3,
    (3, 3, 7): -1 / (2 * SQ3), (4, 4, 7): -1 / (2 * SQ3),
    (5, 5, 7): -1 / (2 * SQ3), (6, 6, 7): -1 / (2 * SQ3),
    (0, 3, 5): 0.5, (0, 4, 6): 0.5, (1, 3, 6): -0.5, (1, 4, 5): 0.5,
    (2, 3, 3): 0.5, (2, 4, 4): 0.5, (2, 5, 5): -0.5, (2, 6, 6): -0.5,
}


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


def general_sld(state, form, constants, tol=1e-10):
    return solve(assemble(state, form, constants), state, tol)


def test_criterion_01_su3_structure_constants(constants3):
    for triple, value in SU3_C.items():
        assert abs(constants3.c.get(*triple) - value) < 1e-12
    for triple, value in SU3_F.items():
        assert abs(constants3.f.get(*triple) - value) < 1e-12
    for triple in itertools.combinations_with_replacement(range(8), 3):
        if triple not in SU3_C:
            assert abs(constants3.c.get(*triple)) < 1e-12
        if triple not in SU3_F:
            assert abs(constants3.f.get(*triple)) < 1e-12
    report(1, "su(3) c and f tensors reproduce the reference tables, "
              "all unlisted triples vanish")


def test_criterion_02_defining_equation_and_oracle_agreement():
    rng = np.random.default_rng(20250808)
    worst_residual = 0.0
    worst_oracle = 0.0
    for n in (2, 3, 4, 5, 6):
        basis = build_basis(n)
        constants = compute_structure_constants(basis)
        for _ in range(200):
            k = random_full_rank_weights(n, rng)
            U = haar_unitary(n, rng)
            state = adjoint_transport(U, base_point(MixingWeights(k), basis),
                                      basis)
            form = tangent_from_generator(random_hermitian(n, rng), state,
                                          basis)
            sol = solve(assemble(state, form, constants), state, basis=basis)
            oracle_sol = sld_eigenbasis(state, form, basis=basis)
            worst_residual = max(worst_residual, sol.residual)
            worst_oracle = max(worst_oracle,
                               float(np.linalg.norm(sol.matrix -
                                                    oracle_sol.matrix)))
    assert worst_residual <= 1e-10
    assert worst_oracle <= 1e-9
    report(2, f"200 random pairs per n in 2..6: max residual "
              f"{worst_residual:.2e} <= 1e-10, max solver-vs-oracle "
              f"deviation {worst_oracle:.2e} <= 1e-9")


def test_criterion_03_closed_form_agreement(constants2, constants3):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        k = random_full_rank_weights(2, rng)
        weights = MixingWeights(k)
        state = base_point(weights)
        form = tangent_from_generator(random_hermitian(2, rng), state)
        closed = closed_form(weights, form)
        general = general_sld(state, form, constants2)
        worst = max(worst, float(np.abs(closed.matrix - general.matrix).max()))
    for _ in range(100):
        weights = MixingWeights(random_distinct_weights(rng, min_gap=1e-3))
        state = base_point(weights)
        form = tangent_from_generator(random_hermitian(3, rng), state)
        closed = closed_form(weights, form)
        general = general_sld(state, form, constants3)
        worst = max(worst, float(np.abs(closed.matrix - general.matrix).max()))
    assert worst <= 1e-12
    report(3, f"general solver equals the n=2 and n=3 closed forms on 100 "
              f"random tangents each (max deviation {worst:.2e})")


def test_criterion_04_determinant_identities(constants2, constants3):
    rng = np.random.default_rng(3)
    zero2 = TangentForm.from_coefficients(0.0, np.zeros(3))
    zero3 = TangentForm.from_coefficients(0.0, np.zeros(8))
    for _ in range(100):
        k2 = random_full_rank_weights(2, rng)
        det2 = np.linalg.det(assemble(base_point(MixingWeights(k2)), zero2,
                                      constants2).diagonal_block())
        assert abs(det2 - k2[0] * k2[1]) < 1e-12
        k3 = random_full_rank_weights(3, rng)
        det3 = np.linalg.det(assemble(base_point(MixingWeights(k3)), zero3,
                                      constants3).diagonal_block())
        assert abs(det3 - np.prod(k3)) < 1e-12
    # k3 -> 0: the block becomes singular and the gauge direction is
    # diag(0, 0, 1) up to scale
    weights = MixingWeights([0.6, 0.4, 0.0])
    state = base_point(weights)
    det = np.linalg.det(assemble(state, zero3, constants3).diagonal_block())
    assert abs(det) < 1e-12
    form = tangent_from_generator(random_hermitian(3, rng), state)
    sol = general_sld(state, form, constants3)
    assert sol.gauge_dim == 1
    overlap = abs(np.trace(sol.gauge_basis[0].conj().T
                           @ np.diag([0, 0, 1.0]).astype(complex)))
    assert abs(overlap - 1.0) < 1e-12
    report(4, "diagonal-block determinants equal k1*k2 (n=2) and k1*k2*k3 "
              "(n=3) over 100 random weights; k3=0 gives gauge_dim 1 along "
              "diag(0,0,1)")


def test_criterion_05_pure_state_behavior(constants3):
    rng = np.random.default_rng(4)
    state = base_point(MixingWeights([1.0, 0.0, 0.0]))
    worst_res = 0.0
    worst_gap = 0.0
    for _ in range(25):
        form = tangent_from_generator(random_hermitian(3, rng), state)
        sol = general_sld(state, form, constants3)
        worst_res = max(worst_res, sol.residual)
        diff = sol.matrix - 2.0 * form.matrix
        for g in sol.gauge_basis:
            diff = diff - np.trace(g.conj().T @ diff) * g
        worst_gap = max(worst_gap, float(np.linalg.norm(diff)))
    assert worst_res <= 1e-10
    assert worst_gap <= 1e-10
    report(5, f"pure n=3 minimum-norm solution: residual {worst_res:.2e} "
              f"<= 1e-10 and L = 2 drho up to gauge (remainder "
              f"{worst_gap:.2e} <= 1e-10)")


def test_criterion_06_qfi_values(constants2):
    sigma2 = np.array([[0, -1j], [1j, 0]])
    weights = MixingWeights([0.75, 0.25])
    rho0 = base_point(weights)
    for theta in (0.0, 0.4, 0.9, 1.7):
        w, V = np.linalg.eigh(sigma2 / 2)
        U = (V * np.exp(1j * theta * w)) @ V.conj().T  # transport by U^dag . U
        state = adjoint_transport(U, rho0)
        form = tangent_from_generator(sigma2 / 2, state)
        sol = general_sld(state, form, constants2)
        assert abs(qfi_index(state, sol) - 0.25) <= 1e-9
    trans = closed_form(weights, transversal_tangent([1.0, -1.0], rho0))
    assert abs(qfi_index(rho0, trans) - 16 / 3) <= 1e-9
    mixed = base_point(MixingWeights([0.5, 0.5]))
    form = tangent_from_generator(sigma2 / 2, mixed)
    sol = general_sld(mixed, form, constants2)
    assert abs(qfi_index(mixed, sol)) <= 1e-12
    report(6, "rotation family QFI = 0.25 at all sampled theta; transversal "
              "QFI = 16/3; maximally mixed QFI = 0")


def test_criterion_07_fisher_tensor_u3(constants3, basis3):
    weights = MixingWeights([0.5, 0.3, 0.2])
    state = base_point(weights, basis3)
    tangents = chart_tangents(weights, basis3)
    slds = [general_sld(state, f, constants3) for f in tangents]
    tensor = fisher_tensor(state, slds)
    assert closed_form_deviation(tensor, weights) <= 1e-9
    assert abs(tensor.symmetric[0, 0] - 0.2) <= 1e-9
    # cross-block entries vanish
    for i in range(6):
        for j in range(6):
            if i // 2 != j // 2:
                assert abs(tensor.components[i, j]) <= 1e-9

    cp2 = closed_form_fisher(MixingWeights([1.0, 0.0, 0.0]))
    assert np.allclose([g for g, _ in cp2], [4.0, 4.0, 0.0], atol=1e-9)
    assert np.allclose([abs(w) for _, w in cp2], [4.0, 4.0, 0.0], atol=1e-9)

    # k2 = k3 degeneration: first two pairs equal, third collapses
    k1 = 0.6
    deg = closed_form_fisher(MixingWeights([k1, 0.2, 0.2]))
    expected_g = 4 * (k1 - 0.2) ** 2 / (k1 + 0.2)
    assert abs(deg[0][0] - expected_g) <= 1e-9
    assert abs(deg[1][0] - expected_g) <= 1e-9
    assert deg[2] == (0.0, 0.0)

    # k3 = 0 degeneration: (4 k, -4 k) on the pairs with the empty level,
    # matching the pipeline
    weights_r2 = MixingWeights([0.6, 0.4, 0.0])
    rank2 = closed_form_fisher(weights_r2)
    assert np.allclose(rank2[1:], [(2.4, -2.4), (1.6, -1.6)], atol=1e-12)
    assert abs(rank2[1][0] - 2.4) <= 1e-9 and abs(rank2[2][0] - 1.6) <= 1e-9
    state_r2 = base_point(weights_r2, basis3)
    tangents_r2 = chart_tangents(weights_r2, basis3)
    slds_r2 = [general_sld(state_r2, f, constants3) for f in tangents_r2]
    tensor_r2 = fisher_tensor(state_r2, slds_r2)
    assert closed_form_deviation(tensor_r2, weights_r2) <= 1e-9

    # every degenerate subcase has its tensor: the collapsed pairs drop out
    for k, directions in (([k1, 0.2, 0.2], 4), ([1.0, 0.0, 0.0], 4),
                          ([1 / 3, 1 / 3, 1 / 3], 0)):
        sub = MixingWeights(k)
        at = base_point(sub, basis3)
        tensor_sub = fisher_tensor(at, [general_sld(at, f, constants3)
                                        for f in chart_tangents(sub, basis3)])
        assert tensor_sub.directions == directions
        assert closed_form_deviation(tensor_sub, sub) <= 1e-12
    report(7, "six-direction tensor at (0.5,0.3,0.2) is block diagonal and "
              "matches the closed form; projective, k2=k3 and k3=0 "
              "degenerations reproduce their formulas, and their tensors "
              "over the kept pairs match it to 1e-12")


def test_criterion_08_split_orthogonality():
    rng = np.random.default_rng(8)
    worst = 0.0
    for n in (2, 3, 4):
        basis = build_basis(n)
        constants = compute_structure_constants(basis)
        for _ in range(100):
            k = random_full_rank_weights(n, rng)
            weights = MixingWeights(k)
            state = base_point(weights, basis)
            horizontal = solve(
                assemble(state,
                         tangent_from_generator(random_hermitian(n, rng),
                                                state, basis),
                         constants), state, basis=basis)
            rates = rng.normal(size=n)
            rates -= rates.mean()
            trans = closed_form(weights,
                                transversal_tangent(rates, state, basis))
            cross = horizontal_transversal_split_check(state, horizontal,
                                                       trans)
            worst = max(worst, abs(cross))
    assert worst <= 1e-10
    report(8, f"horizontal/transversal cross term <= 1e-10 over 100 random "
              f"pairs at n = 2, 3, 4 (max {worst:.2e})")


def test_criterion_09_pure_state_fubini_study():
    rng = np.random.default_rng(9)
    worst = 0.0
    for n in (2, 3, 4):
        basis = build_basis(n)
        constants = compute_structure_constants(basis)
        for _ in range(50):
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            H = random_hermitian(n, rng)
            state = DensityState.from_matrix(np.outer(psi, psi.conj()), basis)
            form = tangent_from_generator(H, state, basis)
            sol = solve(assemble(state, form, constants), state, basis=basis)
            mean = np.real(psi.conj() @ H @ psi)
            second = np.real(psi.conj() @ H @ H @ psi)
            fubini_study = 4.0 * (second - mean ** 2)
            worst = max(worst, abs(qfi_index(state, sol) - fubini_study))
            worst = max(worst, abs(qfi_eigenbasis(state, form) - fubini_study))
    assert worst <= 1e-8
    report(9, f"pipeline QFI equals 4(<dpsi|dpsi> - |<psi|dpsi>|^2) for 50 "
              f"random pure families at n = 2, 3, 4 (max deviation "
              f"{worst:.2e})")


def test_criterion_10_cli_contract(tmp_path, capsys):
    # fixture 1: valid family
    family = tmp_path / "family.json"
    family.write_text(json.dumps({
        "kind": "exp_generator", "n": 2, "weights": [0.75, 0.25],
        "generator_coeffs": [0.0, 0.5, 0.0]}))
    # fixture 2: malformed JSON
    broken = tmp_path / "broken.json"
    broken.write_text('{"kind": "exp_generator", "n": 2,')
    # fixture 3: a weight_path tangent on the kernel of a pure state
    inconsistent = tmp_path / "inconsistent.json"
    inconsistent.write_text(json.dumps({
        "kind": "weight_path", "n": 2, "weights": [1, 0],
        "weight_rates": [-1, 1]}))

    outputs = {}
    for name, args in {
        "basis": ["basis", "--n", "3"],
        "sld": ["sld", "--input", str(family), "--theta", "0.2"],
        "qfi": ["qfi", "--input", str(family), "--thetas", "0,0.5"],
        "tensor": ["tensor", "--weights", "0.5,0.3,0.2"],
    }.items():
        code = main(args)
        out = capsys.readouterr().out
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2) + "\n" == out  # round-trip
        outputs[name] = parsed
    assert [0, 1, 2, 1.0] in outputs["basis"]["c"]
    assert outputs["qfi"]["rows"][0]["qfi"] == pytest.approx(0.25, abs=1e-9)

    code = main(["sld", "--input", str(broken)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:")

    code = main(["sld", "--input", str(inconsistent)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:")
    report(10, "all four commands round-trip their JSON and honor the "
               "0/1/2 exit-status contract on the canned fixtures")
