"""Assembly and solution of the SLD linear system."""

import dataclasses

import numpy as np
import pytest

from helpers import (anticommutator_matrix, assert_same_modulo_gauge,
                     assert_within_kappa_bound, condition_number,
                     count_lu_solves, haar_unitary, loop_kernel_gauge, random_full_rank_weights,
                     random_hermitian)

from sldkit import sld_solver
from sldkit import (DensityState, InconsistentSystemError,
                    KernelInconsistentError, MixingWeights, TangentForm,
                    adjoint_transport, assemble, base_point, build_basis,
                    closed_form, compute_structure_constants, expand,
                    qfi_eigenbasis, sld_eigenbasis, solve,
                    tangent_from_generator, transversal_tangent)


def orbit_form(state, rng, basis=None):
    n = state.dimension
    return tangent_from_generator(random_hermitian(n, rng), state, basis)


def zero_form(n, basis=None):
    return TangentForm.from_coefficients(0.0, np.zeros(n * n - 1), basis)


def transversal_sld(rates, weights):
    return closed_form(weights, transversal_tangent(rates, base_point(weights)))


def assert_closed_form_agrees(weights, form, constants):
    state = base_point(weights)
    assert_same_modulo_gauge(closed_form(weights, form),
                             solve(assemble(state, form, constants), state))


class TestAssemble:
    def test_two_level_block(self, constants2):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = random_full_rank_weights(2, rng)
            state = base_point(MixingWeights(k))
            system = assemble(state, zero_form(2), constants2)
            block = system.diagonal_block()
            rho_id, rho3 = state.coeff_identity, state.coeffs[2]
            assert np.allclose(block, [[rho_id, rho3], [rho3, rho_id]],
                               atol=1e-15)
            assert np.linalg.det(block) == pytest.approx(k[0] * k[1], abs=1e-12)

    def test_three_level_determinant(self, constants3):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = random_full_rank_weights(3, rng)
            state = base_point(MixingWeights(k))
            system = assemble(state, zero_form(3), constants3)
            assert np.linalg.det(system.diagonal_block()) == pytest.approx(
                np.prod(k), abs=1e-12)

    def test_three_level_offdiagonal_rows_decouple(self, constants3):
        k = [0.5, 0.3, 0.2]
        state = base_point(MixingWeights(k))
        system = assemble(state, zero_form(3), constants3)
        M = system.matrix
        # off-diagonal unknowns occupy system slots generator-index + 1
        scalars = {1: (k[0] + k[1]) / 2, 2: (k[0] + k[1]) / 2,
                   4: (k[0] + k[2]) / 2, 5: (k[0] + k[2]) / 2,
                   6: (k[1] + k[2]) / 2, 7: (k[1] + k[2]) / 2}
        for row, value in scalars.items():
            assert M[row, row] == pytest.approx(value, abs=1e-12)
            others = [j for j in range(9) if j != row]
            assert np.abs(M[row, others]).max() < 1e-12

    def test_dimension_mismatch(self, constants3):
        state = base_point(MixingWeights([0.6, 0.4]))
        with pytest.raises(ValueError, match="dimension"):
            assemble(state, zero_form(2), constants3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_determinant_vanishes_iff_rank_deficient(self, n):
        rng = np.random.default_rng(2)
        constants = compute_structure_constants(build_basis(n))
        k = random_full_rank_weights(n, rng)
        state = base_point(MixingWeights(k))
        det = np.linalg.det(assemble(state, zero_form(n), constants)
                            .diagonal_block())
        assert abs(det) > 1e-12
        k_def = np.zeros(n)
        k_def[:n - 1] = random_full_rank_weights(n - 1, rng)
        state = base_point(MixingWeights(k_def))
        det = np.linalg.det(assemble(state, zero_form(n), constants)
                            .diagonal_block())
        assert abs(det) < 1e-12

    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("rank", ["full", "deficient"])
    def test_matches_vectorised_anticommutator(self, n, rank):
        # Safranek, PRA 97, 042322 (2018): vec(1/2 {rho, X}) is linear in
        # vec(X), which checks M without the structure constants
        rng = np.random.default_rng(n)
        basis = build_basis(n)
        constants = compute_structure_constants(basis)
        r = n if rank == "full" else n // 2
        k = np.zeros(n)
        k[:r] = random_full_rank_weights(r, rng)
        U = haar_unitary(n, rng)
        rho = (U * k) @ U.conj().T
        state = DensityState.from_matrix(rho, basis)
        M = assemble(state, zero_form(n, basis), constants).matrix
        expected = anticommutator_matrix(state.matrix, basis)
        assert np.abs(expected.imag).max() < 1e-14
        assert np.abs(M - expected.real).max() < 1e-14


class TestPerStateOperator:
    """The per-state operator against its direct construction."""

    @pytest.mark.parametrize(
        "n, rank",
        [pytest.param(n, n, id=f"n{n}-full") for n in range(2, 9)]
        + [pytest.param(n, max(n - 2, 1), id=f"n{n}-deficient")
           for n in range(2, 9)])
    def test_matches_reference_construction(self, n, rank):
        rng = np.random.default_rng(40 + 10 * n + rank)
        basis = build_basis(n)
        constants = compute_structure_constants(basis)
        state = _random_state(n, rank, rng, basis)
        M = sld_solver._operator_matrix(state, constants)
        expected = np.zeros((n * n, n * n))
        expected[0, 0] = state.coeff_identity
        expected[0, 1:] = (2.0 / n) * state.coeffs
        expected[1:, 0] = state.coeffs
        expected[1:, 1:] = (state.coeff_identity * np.eye(n * n - 1)
                            + constants.f.contract(state.coeffs).T)
        assert np.array_equal(M, expected)

        system = assemble(state, zero_form(n, basis), constants)
        gauge, r, weights, projector, operator = (
            sld_solver._scaled_operator(system, state, 1e-10, basis))
        assert len(gauge) == (n - rank) ** 2 == r ** 2
        Z = weights * np.array([np.r_[expand(g, basis)] for g in gauge]
                               ).reshape(-1, n * n)
        reference = Z.T @ Z
        if gauge:
            assert np.abs(projector - reference).max() <= 1e-14
        else:
            assert projector is None
        assert np.abs(operator - (M * np.outer(weights, 1.0 / weights)
                                  + reference)).max() <= 1e-14


class TestSolve:
    def test_two_level_mixed(self, constants2):
        rng = np.random.default_rng(3)
        k = [0.75, 0.25]
        state = base_point(MixingWeights(k))
        for _ in range(20):
            form = orbit_form(state, rng)
            sol = solve(assemble(state, form, constants2), state)
            assert sol.gauge_dim == 0
            assert abs(sol.coeff_identity) < 1e-12
            assert abs(sol.coeffs[2]) < 1e-12
            expected = 2.0 * form.coeffs[:2] / (k[0] + k[1])
            assert np.allclose(sol.coeffs[:2], expected, atol=1e-12)
            assert sol.residual < 1e-12

    def test_two_level_pure_gauge(self, constants2):
        state = base_point(MixingWeights([1.0, 0.0]))
        sigma2 = np.array([[0, -1j], [1j, 0]])
        form = tangent_from_generator(sigma2 / 2, state)
        sol = solve(assemble(state, form, constants2), state)
        assert sol.gauge_dim == 1
        gauge = sol.gauge_basis[0]
        direction = np.diag([0.0, 1.0]).astype(complex)
        overlap = abs(np.trace(gauge.conj().T @ direction))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(gauge @ state.matrix + state.matrix @ gauge) < 1e-12

    def test_three_level_pure_minimum_norm(self, constants3):
        rng = np.random.default_rng(4)
        state = base_point(MixingWeights([1.0, 0.0, 0.0]))
        for _ in range(10):
            form = orbit_form(state, rng)
            sol = solve(assemble(state, form, constants3), state)
            assert sol.residual < 1e-10
            assert np.abs(sol.matrix - 2.0 * form.matrix).max() < 1e-10
            assert sol.gauge_dim == 4
            for g in sol.gauge_basis:
                assert np.linalg.norm(g @ state.matrix + state.matrix @ g) < 1e-10

    def test_gauge_basis_is_orthonormal(self, constants3):
        rng = np.random.default_rng(5)
        state = base_point(MixingWeights([0.7, 0.3, 0.0]))
        form = orbit_form(state, rng)
        sol = solve(assemble(state, form, constants3), state)
        assert sol.gauge_dim == 1
        assert isinstance(sol.gauge_basis, tuple)
        assert not any(g.flags.writeable for g in sol.gauge_basis)
        for gi in sol.gauge_basis:
            for gj in sol.gauge_basis:
                inner = np.trace(gi.conj().T @ gj).real
                expected = 1.0 if gi is gj else 0.0
                assert inner == pytest.approx(expected, abs=1e-12)

    def test_inconsistent_kernel_coupling(self, constants3):
        state = base_point(MixingWeights([1.0, 0.0, 0.0]))
        coeffs = np.zeros(8)
        coeffs[5] = 1.0  # couples the two kernel levels
        form = TangentForm.from_coefficients(0.0, coeffs)
        with pytest.raises(KernelInconsistentError):
            solve(assemble(state, form, constants3), state)

    def test_rejection_names_the_eigenframe_entry(self):
        # eigenvalues 0 < 2e-11 < 3e-11 <= tol are eigenframe levels 0, 1, 2
        lam = np.array([0.5, 0.3, 0.0, 2e-11, 0.2 - 5e-11, 3e-11])
        n = lam.size
        state = DensityState.from_matrix(np.diag(lam))
        drho = np.zeros((n, n), dtype=complex)
        drho[0, 1] = drho[1, 0] = 0.25
        drho[0, 2], drho[2, 0] = 0.1 - 0.2j, 0.1 + 0.2j  # kernel-range pair
        consistent = TangentForm.from_matrix(drho)
        drho[3, 5], drho[5, 3] = 0.5j, -0.5j  # levels 2e-11 and 3e-11
        form = TangentForm.from_matrix(drho)
        constants = compute_structure_constants(build_basis(n))
        message = ("kernel-inconsistent tangent: <1|drho|2> = "
                   "0.000e+00+5.000e-01j on a pair of kernel levels "
                   "(eigenvalues <= tol = 1.000e-10)")
        for route in (lambda: solve(assemble(state, form, constants), state),
                      lambda: sld_eigenbasis(state, form),
                      lambda: qfi_eigenbasis(state, form)):
            with pytest.raises(KernelInconsistentError) as excinfo:
                route()
            assert str(excinfo.value) == message
        sol = solve(assemble(state, consistent, constants), state)
        assert sol.gauge_dim == 9
        assert sol.residual < 1e-12

    def test_rejection_names_the_upper_mirror_entry(self):
        # |D_31| is one ulp above |D_13|; the message still names <1|drho|3>
        upper = 0.5j
        lower = -np.nextafter(0.5, 1.0) * 1j
        block = np.zeros((4, 4), dtype=complex)
        block[1, 3], block[3, 1] = upper, lower
        message = ("kernel-inconsistent tangent: <1|drho|3> = "
                   "0.000e+00+5.000e-01j on a pair of kernel levels "
                   "(eigenvalues <= tol = 1.000e-10)")
        with pytest.raises(KernelInconsistentError) as excinfo:
            sld_solver._reject_kernel_pairs(block, 1.0, 1e-10)
        assert str(excinfo.value) == message
        drho = np.zeros((4, 4), dtype=complex)
        drho[0, 2] = drho[2, 0] = 0.3
        drho[1, 3], drho[3, 1] = upper, lower
        with pytest.raises(KernelInconsistentError) as excinfo:
            closed_form(MixingWeights([0.5, 0.0, 0.5, 0.0]),
                        TangentForm.from_matrix(drho))
        assert str(excinfo.value) == message

    def test_closed_form_rejection_names_the_level_pair(self):
        # unsorted weights: the kernel levels 1 and 3 are not a prefix
        drho = np.zeros((4, 4), dtype=complex)
        drho[0, 1] = drho[1, 0] = 0.3
        drho[1, 3], drho[3, 1] = 0.5j, -0.5j
        with pytest.raises(KernelInconsistentError) as excinfo:
            closed_form(MixingWeights([0.5, 0.0, 0.5, 0.0]),
                        TangentForm.from_matrix(drho))
        assert str(excinfo.value) == (
            "kernel-inconsistent tangent: <1|drho|3> = 0.000e+00+5.000e-01j "
            "on a pair of kernel levels (eigenvalues <= tol = 1.000e-10)")

    def test_trace_changing_form_at_pure_state(self, constants2):
        state = base_point(MixingWeights([1.0, 0.0]))
        form = TangentForm.from_matrix(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(KernelInconsistentError):
            solve(assemble(state, form, constants2), state)

    @pytest.mark.parametrize("eps, gauge_dim", [
        (3e-11, 4), (5e-11, 4), (5.5e-11, 4), (6e-11, 4), (9e-11, 4),
        (1.1e-10, 0), (2e-10, 0)])
    def test_near_cutoff_kernel_agrees_with_oracle(self, eps, gauge_dim):
        # Spectrum (0.6, 0.4 - 2 eps, eps, eps): the two small levels are
        # kernel iff eps <= tol = 1e-10, whichever path decides.
        spectrum = np.array([0.6, 0.4 - 2.0 * eps, eps, eps])
        U = haar_unitary(4, np.random.default_rng(20200123))
        state = DensityState.from_matrix((U * spectrum) @ U.conj().T)
        basis = build_basis(4)
        form = tangent_from_generator(basis.generators[0] / 2, state)
        constants = compute_structure_constants(basis)
        sol = solve(assemble(state, form, constants), state)
        spectral = sld_eigenbasis(state, form)
        assert sol.gauge_dim == spectral.gauge_dim == gauge_dim
        assert (4 - MixingWeights(spectrum).rank) ** 2 == gauge_dim
        assert sol.residual < 1e-14
        assert spectral.residual < 1e-14

    def test_solves_off_base_point(self, constants3):
        rng = np.random.default_rng(6)
        k = random_full_rank_weights(3, rng)
        U = haar_unitary(3, rng)
        state = adjoint_transport(U, base_point(MixingWeights(k)))
        form = orbit_form(state, rng)
        sol = solve(assemble(state, form, constants3), state)
        oracle_sol = sld_eigenbasis(state, form)
        assert sol.residual < 1e-12
        assert np.abs(sol.matrix - oracle_sol.matrix).max() < 1e-10

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_oracle_higher_dimensions(self, n):
        rng = np.random.default_rng(n)
        constants = compute_structure_constants(build_basis(n))
        for _ in range(5):
            k = random_full_rank_weights(n, rng)
            U = haar_unitary(n, rng)
            state = adjoint_transport(U, base_point(MixingWeights(k)))
            form = orbit_form(state, rng)
            sol = solve(assemble(state, form, constants), state)
            oracle_sol = sld_eigenbasis(state, form)
            assert sol.residual < 1e-10
            assert np.linalg.norm(sol.matrix - oracle_sol.matrix) < 1e-9


def _random_state(n, rank, rng, basis=None):
    k = np.zeros(n)
    k[:rank] = random_full_rank_weights(rank, rng)
    U = haar_unitary(n, rng)
    return DensityState.from_matrix((U * k) @ U.conj().T, basis)


def assert_same_solution(a, b, atol=1e-13):
    assert a.gauge_dim == b.gauge_dim
    assert abs(a.coeff_identity - b.coeff_identity) <= atol
    assert np.abs(a.coeffs - b.coeffs).max() <= atol
    assert np.abs(a.matrix - b.matrix).max() <= atol
    assert abs(a.residual - b.residual) <= atol


class TestPerStateReuse:
    """Directions at one state share its eigenframe and operator."""

    @pytest.mark.parametrize(
        "n, small",
        [pytest.param(n, (), id=f"n{n}-full") for n in range(2, 9)]
        + [pytest.param(n, (1e-8, 0.0), id=f"n{n}-small")
           for n in range(3, 9)])
    def test_directions_in_turn_match_fresh_states(self, n, small):
        # with the small levels, rank n - 1 at tol 1e-10 and n - 2 at 1e-6
        rng = np.random.default_rng(100 * n + len(small))
        basis = build_basis(n)
        constants = compute_structure_constants(basis)
        k = np.concatenate((random_full_rank_weights(n - len(small), rng)
                            * (1.0 - sum(small)), small))
        U = haar_unitary(n, rng)
        state = DensityState.from_matrix((U * k) @ U.conj().T, basis)
        for a, generator in enumerate(basis.generators):
            # switch the tolerance mid-sequence, and back
            tol = 1e-6 if a % 3 == 1 else 1e-10
            form = tangent_from_generator(generator / 2, state, basis)
            shared = solve(assemble(state, form, constants), state, tol)
            fresh_state = DensityState.from_matrix(state.matrix, basis)
            fresh = solve(assemble(fresh_state, form, constants),
                          fresh_state, tol)
            assert_same_solution(shared, fresh)
            assert shared.gauge_dim == np.count_nonzero(k <= tol) ** 2

    def test_one_eigh_per_state(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh of rho was called")

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        rng = np.random.default_rng(31)
        basis = build_basis(4)
        constants = compute_structure_constants(basis)
        state = _random_state(4, 3, rng, basis)
        assert len(calls) == 1
        for generator in basis.generators[:5]:
            form = tangent_from_generator(generator / 2, state, basis)
            solve(assemble(state, form, constants), state)
            solve(assemble(state, form, constants), state, 1e-6)
            sld_eigenbasis(state, form)
            qfi_eigenbasis(state, form)
        assert len(calls) == 1

    def test_system_from_another_state_solves_by_fallback(self):
        rng = np.random.default_rng(32)
        basis = build_basis(4)
        constants = compute_structure_constants(basis)
        state = _random_state(4, 2, rng, basis)
        twin = DensityState.from_matrix(state.matrix, basis)
        form = tangent_from_generator(random_hermitian(4, rng), state, basis)
        system = assemble(state, form, constants)
        assert_same_solution(solve(system, twin),
                             solve(assemble(twin, form, constants), twin))
        # a full-rank system solved with another full-rank state, whose own
        # M is held: L comes from the system's M, as at its own state (the
        # residual is measured against the state passed in)
        full = _random_state(4, 4, rng, basis)
        other = _random_state(4, 4, rng, basis)
        assemble(other, form, constants)
        system = assemble(full, form, constants)
        moved, own = solve(system, other), solve(system, full)
        assert np.abs(moved.coeffs - own.coeffs).max() <= 1e-12
        assert np.abs(moved.matrix - own.matrix).max() <= 1e-12

    def test_new_constants_replace_the_held_operator(self):
        rng = np.random.default_rng(33)
        basis = build_basis(3)
        constants = compute_structure_constants(basis)
        copy = dataclasses.replace(constants)
        state = _random_state(3, 2, rng, basis)
        form = tangent_from_generator(random_hermitian(3, rng), state, basis)
        first = assemble(state, form, constants)
        second = assemble(state, form, copy)
        assert second.matrix is not first.matrix
        assert np.array_equal(second.matrix, first.matrix)
        # the earlier system no longer holds the state's M: it still solves
        assert_same_solution(solve(first, state), solve(second, state))
        assert assemble(state, form, copy).matrix is second.matrix


def _kernel_coupling(state, rng, scale=1e-3):
    """A Hermitian drho on the state's kernel levels only."""
    V = state.eigenvectors[:, state.eigenvalues <= 1e-10]
    return scale * V @ random_hermitian(V.shape[1], rng) @ V.conj().T


class TestStackedForms:
    """A sequence of forms at one state: one system, one LU solve."""

    @pytest.mark.parametrize("n, rank", [(3, 3), (4, 2), (6, 6), (6, 3)])
    @pytest.mark.parametrize("k", [1, 3, "all"])
    def test_one_lu_solve_per_state(self, monkeypatch, n, rank, k):
        rng = np.random.default_rng(50 + 10 * n + rank)
        basis = build_basis(n)
        constants = compute_structure_constants(basis)
        state = _random_state(n, rank, rng, basis)
        generators = basis.generators if k == "all" else basis.generators[:k]
        forms = [tangent_from_generator(t / 2, state, basis)
                 for t in generators]
        calls = count_lu_solves(monkeypatch)
        system = assemble(state, forms, constants)
        assert system.rhs.shape == (len(forms), n * n)
        assert system.form_matrix.shape == (len(forms), n, n)
        solutions = solve(system, state)
        assert calls == [((n * n, n * n), (n * n, len(forms)))]
        assert isinstance(solutions, tuple) and len(solutions) == len(forms)
        for form, sol in zip(forms, solutions):
            assert sol.gauge_dim == (n - rank) ** 2
            assert sol.residual <= 1e-12
            assert not (sol.matrix.flags.writeable or sol.coeffs.flags.writeable)
            assert_within_kappa_bound(
                sol, solve(assemble(state, form, constants), state),
                state.eigenvalues, 1e-10)

    @pytest.mark.parametrize("n", [6, 8, 12])
    def test_ill_conditioned_state_within_the_kappa_bound(self, n):
        # lambda_min = 1e-8, kappa ~ 1e8: the stacked and the single solves
        # differ by up to about 1e-10 here, where a fixed 1e-13 would not
        # hold, but within c kappa eps max(1, |L|)
        rng = np.random.default_rng(70 + n)
        basis = build_basis(n)
        constants = compute_structure_constants(basis)
        k = random_full_rank_weights(n, rng)
        k[0] = 1e-8
        k /= k.sum()
        U = haar_unitary(n, rng)
        state = DensityState.from_matrix((U * k) @ U.conj().T, basis)
        assert 1e7 < condition_number(state.eigenvalues, 1e-10) < 1e9
        forms = [tangent_from_generator(t / 2, state, basis)
                 for t in basis.generators]
        stacked = solve(assemble(state, forms, constants), state)
        for form, sol in zip(forms, stacked):
            assert_within_kappa_bound(
                sol, solve(assemble(state, form, constants), state),
                state.eigenvalues, 1e-10)

    @pytest.mark.parametrize("n, rank", [(3, 3), (4, 2), (6, 6), (6, 4)])
    def test_condition_number_is_the_operators(self, n, rank):
        # the held W M W^-1 + Z^T Z is symmetric up to rounding, so its
        # 2-norm condition number is the spectrum's kappa
        rng = np.random.default_rng(80 + n + rank)
        basis = build_basis(n)
        constants = compute_structure_constants(basis)
        state = _random_state(n, rank, rng, basis)
        solve(assemble(state, zero_form(n, basis), constants), state)
        operator = state._operator.scaled[1][-1]
        assert np.abs(operator - operator.T).max() <= 1e-15
        assert np.linalg.cond(operator) == pytest.approx(
            condition_number(state.eigenvalues, 1e-10), rel=1e-8)

    @pytest.mark.parametrize("rank", [4, 2])
    def test_one_element_sequence_is_the_single_form_bit_for_bit(self, rank):
        rng = np.random.default_rng(60 + rank)
        basis = build_basis(4)
        constants = compute_structure_constants(basis)
        state = _random_state(4, rank, rng, basis)
        form = orbit_form(state, rng, basis)
        single = solve(assemble(state, form, constants), state)
        assert isinstance(single, sld_solver.SLDSolution)
        (alone,) = solve(assemble(state, (form,), constants), state)
        assert alone.coeff_identity == single.coeff_identity
        assert alone.residual == single.residual
        assert alone.coeffs.tobytes() == single.coeffs.tobytes()
        assert alone.matrix.tobytes() == single.matrix.tobytes()
        assert alone.gauge_basis == single.gauge_basis

    def test_forms_may_be_any_iterable(self):
        rng = np.random.default_rng(61)
        basis = build_basis(3)
        constants = compute_structure_constants(basis)
        state = _random_state(3, 3, rng, basis)
        forms = [orbit_form(state, rng, basis) for _ in range(3)]
        from_list = solve(assemble(state, forms, constants), state)
        from_generator = solve(assemble(state, iter(forms), constants), state)
        for a, b in zip(from_list, from_generator):
            assert a.matrix.tobytes() == b.matrix.tobytes()
        assert solve(assemble(state, [], constants), state) == ()

    def test_first_inconsistent_form_is_reported(self):
        # forms 2 and 4 (1-based) couple the kernel levels; the error is the
        # one solving form 2 alone raises, as a loop over the forms would
        rng = np.random.default_rng(62)
        basis = build_basis(5)
        constants = compute_structure_constants(basis)
        state = _random_state(5, 2, rng, basis)
        forms = [orbit_form(state, rng, basis) for _ in range(5)]
        for i, scale in ((1, 1e-3), (3, 1.0)):
            forms[i] = TangentForm.from_matrix(
                forms[i].matrix + _kernel_coupling(state, rng, scale), basis)
        messages = []
        for form in forms:
            try:
                solve(assemble(state, form, constants), state)
            except KernelInconsistentError as exc:
                messages.append(str(exc))
        assert len(messages) == 2 and messages[0] != messages[1]
        with pytest.raises(KernelInconsistentError) as excinfo:
            solve(assemble(state, forms, constants), state)
        assert str(excinfo.value) == messages[0]

    def test_dimension_mismatch_names_the_form(self, constants3):
        state = base_point(MixingWeights([0.5, 0.3, 0.2]))
        forms = [zero_form(3), zero_form(2), zero_form(4)]
        with pytest.raises(ValueError, match="state 3, form 2, constants 3"):
            assemble(state, forms, constants3)


class TestClosedFormU2:
    def test_matches_general_solver(self, constants2):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = random_full_rank_weights(2, rng)
            weights = MixingWeights(k)
            state = base_point(weights)
            form = orbit_form(state, rng)
            closed = closed_form(weights, form)
            general = solve(assemble(state, form, constants2), state)
            assert np.abs(closed.matrix - general.matrix).max() < 1e-12

    def test_pure_agrees_with_solve(self, constants2):
        rng = np.random.default_rng(12)
        weights = MixingWeights([1.0, 0.0])
        assert_closed_form_agrees(weights, zero_form(2), constants2)
        for _ in range(10):
            form = orbit_form(base_point(weights), rng)
            assert_closed_form_agrees(weights, form, constants2)


class TestClosedFormU3:
    def test_single_direction_values(self):
        weights = MixingWeights([0.5, 0.3, 0.2])
        coeffs = np.zeros(8)
        coeffs[0] = 1.0
        sol = closed_form(weights, TangentForm.from_coefficients(0.0, coeffs))
        assert sol.coeffs[0] == pytest.approx(2.5, abs=1e-12)
        coeffs = np.zeros(8)
        coeffs[5] = 1.0
        sol = closed_form(weights, TangentForm.from_coefficients(0.0, coeffs))
        assert sol.coeffs[5] == pytest.approx(4.0, abs=1e-12)

    def test_zero_form(self):
        sol = closed_form(MixingWeights([0.5, 0.3, 0.2]), zero_form(3))
        assert np.abs(sol.matrix).max() == 0
        assert sol.residual == 0

    def test_agrees_with_solve(self, constants3):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = random_full_rank_weights(3, rng)
            if min(abs(k[0] - k[1]), abs(k[0] - k[2]), abs(k[1] - k[2])) < 1e-6:
                continue
            weights = MixingWeights(k)
            state = base_point(weights)
            form = orbit_form(state, rng)
            closed = closed_form(weights, form)
            general = solve(assemble(state, form, constants3), state)
            assert np.abs(closed.matrix - general.matrix).max() < 1e-12

    def test_repeated_or_zero_weights_agree_with_solve(self, constants3):
        rng = np.random.default_rng(13)
        for k in ([0.4, 0.3, 0.3], [0.6, 0.4, 0.0]):
            weights = MixingWeights(k)
            assert_closed_form_agrees(weights, zero_form(3), constants3)
            for _ in range(5):
                form = orbit_form(base_point(weights), rng)
                assert_closed_form_agrees(weights, form, constants3)

    def test_non_tangent_form_agrees_with_solve(self, constants3):
        coeffs = np.zeros(8)
        coeffs[2] = 1.0  # diagonal-generator component
        weights = MixingWeights([0.5, 0.3, 0.2])
        form = TangentForm.from_coefficients(0.0, coeffs)
        assert_closed_form_agrees(weights, form, constants3)
        # L_aa = D_aa / k_a for D = diag(1, -1, 0)
        assert np.allclose(np.diag(closed_form(weights, form).matrix),
                           [2.0, -10 / 3, 0.0], atol=1e-12)


class TestClosedFormU3Rank2:
    def test_single_direction_values(self):
        weights = MixingWeights([0.6, 0.4, 0.0])
        coeffs = np.zeros(8)
        coeffs[3] = 1.0
        sol = closed_form(weights, TangentForm.from_coefficients(0.0, coeffs))
        assert sol.coeffs[3] == pytest.approx(10 / 3, abs=1e-12)
        coeffs = np.zeros(8)
        coeffs[5] = 1.0
        sol = closed_form(weights, TangentForm.from_coefficients(0.0, coeffs))
        assert sol.coeffs[5] == pytest.approx(5.0, abs=1e-12)

    def test_gauge_direction(self):
        weights = MixingWeights([0.6, 0.4, 0.0])
        sol = closed_form(weights, zero_form(3))
        assert sol.gauge_dim == 1
        assert np.allclose(sol.gauge_basis[0], np.diag([0, 0, 1.0]), atol=1e-15)

    def test_solve_differs_only_inside_gauge_span(self, constants3):
        rng = np.random.default_rng(9)
        weights = MixingWeights([0.6, 0.4, 0.0])
        state = base_point(weights)
        for _ in range(10):
            form = orbit_form(state, rng)
            closed = closed_form(weights, form)
            general = solve(assemble(state, form, constants3), state)
            diff = general.matrix - closed.matrix
            for g in general.gauge_basis:
                diff = diff - np.trace(g.conj().T @ diff) * g
            assert np.abs(diff).max() < 1e-10

    def test_residual_structure(self, basis3):
        # the off-diagonal blocks reproduce the rate-weighted entries
        weights = MixingWeights([0.6, 0.4, 0.0])
        rng = np.random.default_rng(10)
        state = base_point(weights)
        form = orbit_form(state, rng, basis3)
        sol = closed_form(weights, form)
        assert sol.residual < 1e-12
        D = form.coeffs
        assert sol.matrix[0, 2] == pytest.approx(
            (D[3] - 1j * D[4]) * 2 / 0.6, abs=1e-12)
        assert sol.matrix[1, 2] == pytest.approx(
            (D[5] - 1j * D[6]) * 2 / 0.4, abs=1e-12)

    def test_other_degenerations_agree_with_solve(self, constants3):
        rng = np.random.default_rng(14)
        for k in ([0.6, 0.2, 0.2], [1.0, 0.0, 0.0]):
            weights = MixingWeights(k)
            assert_closed_form_agrees(weights, zero_form(3), constants3)
            for _ in range(5):
                form = orbit_form(base_point(weights), rng)
                assert_closed_form_agrees(weights, form, constants3)


class TestClosedFormU3Degenerate:
    def test_values(self):
        weights = MixingWeights([0.6, 0.2, 0.2])
        coeffs = np.zeros(8)
        coeffs[0] = 1.0
        sol = closed_form(weights, TangentForm.from_coefficients(0.0, coeffs))
        assert sol.coeffs[0] == pytest.approx(2.5, abs=1e-12)
        assert sol.coeffs[5] == 0.0 and sol.coeffs[6] == 0.0
        assert abs(sol.coeff_identity) < 1e-15

    def test_collapsed_directions_agree_with_solve(self, constants3):
        weights = MixingWeights([0.6, 0.2, 0.2])
        coeffs = np.zeros(8)
        coeffs[5] = 0.1
        form = TangentForm.from_coefficients(0.0, coeffs)
        assert_closed_form_agrees(weights, form, constants3)
        assert closed_form(weights, form).coeffs[5] == pytest.approx(
            0.5, abs=1e-12)

    def test_zero_form(self):
        sol = closed_form(MixingWeights([0.6, 0.2, 0.2]), zero_form(3))
        assert np.abs(sol.matrix).max() == 0

    def test_agrees_with_solve(self, constants3):
        rng = np.random.default_rng(11)
        weights = MixingWeights([0.6, 0.2, 0.2])
        state = base_point(weights)
        for _ in range(10):
            form = orbit_form(state, rng)  # D_6, D_7 vanish automatically
            sol = closed_form(weights, form)
            general = solve(assemble(state, form, constants3), state)
            assert np.abs(sol.matrix - general.matrix).max() < 1e-12


class TestTransversalSLD:
    def test_two_level(self):
        sol = transversal_sld([1.0, -1.0], MixingWeights([0.75, 0.25]))
        assert np.allclose(np.diag(sol.matrix).real, [4 / 3, -4.0], atol=1e-12)
        assert sol.residual < 1e-12
        assert sol.gauge_dim == 0

    def test_three_level(self):
        sol = transversal_sld([1.0, 0.0, -1.0], MixingWeights([0.5, 0.3, 0.2]))
        assert np.allclose(np.diag(sol.matrix).real, [2.0, 0.0, -5.0],
                           atol=1e-12)

    def test_zero_rates(self):
        sol = transversal_sld([0.0, 0.0], MixingWeights([0.5, 0.5]))
        assert np.abs(sol.matrix).max() == 0

    def test_rejects_rate_at_zero_weight(self):
        with pytest.raises(InconsistentSystemError):
            transversal_sld([0.0, 1.0, -1.0], MixingWeights([0.6, 0.4, 0.0]))

    def test_kernel_gauge(self):
        sol = transversal_sld([1.0, -1.0, 0.0], MixingWeights([0.6, 0.4, 0.0]))
        assert sol.gauge_dim == 1
        assert np.allclose(sol.gauge_basis[0], np.diag([0, 0, 1.0]), atol=1e-15)
        assert not sol.gauge_basis[0].flags.writeable


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0, 1e-12])
def test_rejects_invalid_tolerance(constants2, tol):
    weights = MixingWeights([0.75, 0.25])
    state = base_point(weights)
    form = tangent_from_generator(np.array([[0, -1j], [1j, 0]]) / 2, state)
    system = assemble(state, form, constants2)
    for call in (lambda: solve(system, state, tol),
                 lambda: closed_form(weights, form, tol),
                 lambda: sld_eigenbasis(state, form, tol),
                 lambda: qfi_eigenbasis(state, form, tol)):
        with pytest.raises(ValueError, match="tolerance"):
            call()


def test_solution_json_shape(constants2):
    state = base_point(MixingWeights([0.75, 0.25]))
    form = tangent_from_generator(np.array([[0, -1j], [1j, 0]]) / 2, state)
    sol = solve(assemble(state, form, constants2), state)
    payload = sol.to_json_dict()
    assert set(payload) == {"L_identity", "L", "matrix", "gauge_dim", "residual"}
    assert payload["gauge_dim"] == 0
    assert payload["L"][0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("r", range(10))
def test_kernel_gauge_matches_loop_reference(r):
    vectors = haar_unitary(10, np.random.default_rng(70 + r))[:, :r]
    gauge = sld_solver._kernel_gauge(vectors)
    reference = loop_kernel_gauge(vectors)
    assert gauge.shape == (r * r, 10, 10) and len(reference) == r * r
    for got, expected in zip(gauge, reference):
        assert np.abs(got - expected).max() <= 1e-15
