"""States, expansions, and tangent forms."""

from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (SQ3, einsum_expand, einsum_reconstruct, haar_unitary,
                     random_full_rank_weights, random_hermitian)

from sldkit import (DensityState, MixingWeights, TangentForm, adjoint_transport,
                    base_point, build_basis, expand, numeric_tangent,
                    qfi_eigenbasis, reconstruct, tangent_from_generator,
                    transversal_tangent)
from sldkit.state_space import INPUT_ATOL, POSITIVITY_FLOOR, check_tolerance


class TestMixingWeights:
    def test_padding(self):
        w = MixingWeights([0.7, 0.3], n=4)
        assert np.array_equal(w.values, [0.7, 0.3, 0.0, 0.0])
        assert w.rank == 2
        assert w.dimension == 4

    def test_sequence_protocol(self):
        w = MixingWeights([0.5, 0.3, 0.2], n=4)
        assert len(w) == 4
        assert (w[0], w[-1]) == (0.5, 0.0)
        assert np.array_equal(w[1:3], [0.3, 0.2])
        assert list(w) == [0.5, 0.3, 0.2, 0.0]
        assert repr(w) == "MixingWeights([0.5, 0.3, 0.2, 0.0])"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MixingWeights([1.2, -0.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            MixingWeights([0.6, 0.3])

    def test_rejects_too_many(self):
        with pytest.raises(ValueError):
            MixingWeights([0.5, 0.3, 0.2], n=2)

    @pytest.mark.parametrize("values", [[np.nan, 0.25], [np.inf, 0.0],
                                        [0.5, 0.5, np.nan]])
    def test_rejects_non_finite(self, values):
        with pytest.raises(ValueError, match="finite"):
            MixingWeights(values)


@pytest.mark.parametrize("build, number", [
    (lambda: MixingWeights([0.5, 0.6]), "1.1"),
    (lambda: transversal_tangent([1.0, 0.0],
                                 base_point(MixingWeights([0.75, 0.25]))),
     "1.0"),
    (lambda: DensityState.from_matrix(np.diag([0.5, 0.4])), "0.9"),
], ids=["weights-sum", "rates-sum", "trace"])
def test_messages_print_plain_numbers(build, number):
    with pytest.raises(ValueError) as info:
        build()
    message = str(info.value)
    assert message.endswith(f"got {number}")
    assert "np.float64" not in message


HALF_MIXED = np.diag([0.5, 0.5])

#: each input check, with its input off by ``e`` in the quantity it bounds
INPUT_CHECKS = {
    "expand": lambda e: expand(HALF_MIXED + [[0, e], [0, 0]]),
    "state-hermitian": lambda e: DensityState.from_matrix(
        HALF_MIXED + [[0, e], [0, 0]]),
    "state-trace": lambda e: DensityState.from_matrix(np.diag([0.5 + e, 0.5])),
    "form": lambda e: TangentForm.from_matrix([[0, e], [0, 0]]),
    "generator": lambda e: tangent_from_generator(
        np.array([[0, e], [0, 0]]), DensityState.from_matrix(HALF_MIXED)),
    "unitary": lambda e: adjoint_transport(
        np.diag([np.sqrt(1.0 + e), 1.0]), DensityState.from_matrix(HALF_MIXED)),
    "diagonal": lambda e: transversal_tangent(
        [1.0, -1.0], DensityState.from_matrix(HALF_MIXED + [[0, e], [e, 0]])),
}


@pytest.mark.parametrize("check", sorted(INPUT_CHECKS))
def test_every_input_check_uses_input_atol(check):
    # one absolute tolerance, set by no caller, bounds every input check
    INPUT_CHECKS[check](0.5 * INPUT_ATOL)
    with pytest.raises(ValueError):
        INPUT_CHECKS[check](2.0 * INPUT_ATOL)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf, "all-nan"])
@pytest.mark.parametrize("call", [
    DensityState.from_matrix,
    TangentForm.from_matrix,
    expand,
    lambda K: tangent_from_generator(K, base_point(MixingWeights([0.75, 0.25]))),
], ids=["state", "form", "expand", "generator"])
def test_rejects_non_finite_entries(call, bad):
    # a NaN fails every comparison, so it would pass the Hermitian check
    if bad == "all-nan":
        matrix = np.full((2, 2), np.nan)
    else:
        matrix = np.diag([0.5, 0.5]).astype(complex)
        matrix[0, 1] = matrix[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        call(matrix)


class TestBasePoint:
    def test_two_level(self):
        state = base_point(MixingWeights([0.75, 0.25]))
        assert state.coeff_identity == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(state.coeffs, [0.0, 0.0, 0.25], atol=1e-15)

    def test_three_level_expansion(self):
        k = [0.5, 0.3, 0.2]
        state = base_point(MixingWeights(k))
        assert state.coeff_identity == pytest.approx(1 / 3, abs=1e-15)
        expected = np.zeros(8)
        expected[2] = (k[0] - k[1]) / 2
        expected[7] = (k[0] + k[1] - 2 * k[2]) / (2 * SQ3)
        assert np.allclose(state.coeffs, expected, atol=1e-15)

    def test_pure_state_projector(self):
        state = base_point(MixingWeights([1.0], n=4))
        assert np.allclose(state.matrix, np.diag([1, 0, 0, 0]), atol=0)
        assert np.allclose(state.matrix @ state.matrix, state.matrix, atol=1e-15)


class TestExpand:
    def test_maximally_mixed(self):
        c_id, coeffs = expand(np.eye(3) / 3)
        assert c_id == pytest.approx(1 / 3, abs=1e-15)
        assert np.abs(coeffs).max() < 1e-15

    def test_two_level_diagonal(self):
        c_id, coeffs = expand(np.diag([0.75, 0.25]).astype(complex))
        assert c_id == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(coeffs, [0.0, 0.0, 0.25], atol=1e-15)

    def test_round_trip_random_hermitian(self):
        rng = np.random.default_rng(11)
        m = random_hermitian(4, rng)
        c_id, coeffs = expand(m)
        assert np.abs(reconstruct(c_id, coeffs) - m).max() < 1e-12

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            expand(m)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_matmul_matches_einsum_reference(self, n):
        rng = np.random.default_rng(100 + n)
        basis = build_basis(n)
        m = random_hermitian(n, rng)
        m /= np.linalg.norm(m)
        c_id, coeffs = expand(m, basis)
        ref_id, ref_coeffs = einsum_expand(m, basis)
        assert abs(c_id - ref_id) <= 1e-15
        assert np.abs(coeffs - ref_coeffs).max() <= 1e-15
        y = rng.normal(size=n * n)
        y /= np.linalg.norm(y)
        rebuilt = reconstruct(y[0], y[1:], basis)
        assert np.abs(rebuilt - einsum_reconstruct(y[0], y[1:], basis)).max() <= 1e-15
        # round trips in both directions
        assert np.abs(reconstruct(c_id, coeffs, basis) - m).max() <= 1e-14
        back_id, back = expand(rebuilt, basis)
        assert abs(back_id - y[0]) <= 1e-14
        assert np.abs(back - y[1:]).max() <= 1e-14


class TestDensityState:
    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityState.from_matrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive"):
            DensityState.from_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_keeps_its_eigenframe_read_only(self):
        rng = np.random.default_rng(11)
        U = haar_unitary(4, rng)
        k = random_full_rank_weights(4, rng)
        state = DensityState.from_matrix((U * k) @ U.conj().T)
        lam, V = state.eigenvalues, state.eigenvectors
        assert np.allclose(lam, np.sort(k), atol=1e-15)
        assert np.allclose((V * lam) @ V.conj().T, state.matrix, atol=1e-15)
        for array in (lam, V):
            assert not array.flags.writeable


class TestToleranceFloor:
    """A kernel level may sit at POSITIVITY_FLOOR, so tol must not be below
    its magnitude, or a kept pair could have a negative sum."""

    # n = 3, a kept level at 1e-11 next to a kernel level at -5e-11
    SPECTRUM = (1.0 + 4e-11, 1e-11, -5e-11)

    def state_and_form(self):
        rng = np.random.default_rng(12)
        U = haar_unitary(3, rng)
        state = DensityState.from_matrix((U * self.SPECTRUM) @ U.conj().T)
        return state, tangent_from_generator(random_hermitian(3, rng), state)

    def test_rejects_tolerance_below_the_floor(self):
        state, form = self.state_and_form()
        with pytest.raises(ValueError, match="1e-10"):
            check_tolerance(1e-12)
        with pytest.raises(ValueError, match="tolerance"):
            qfi_eigenbasis(state, form, 1e-12)

    def test_smallest_tolerance_keeps_positive_pair_sums(self):
        tol = check_tolerance(-POSITIVITY_FLOOR)
        state, form = self.state_and_form()
        lam = state.eigenvalues
        kernel = lam <= tol
        kept = ~(kernel[:, None] & kernel[None, :])
        assert (lam[:, None] + lam[None, :])[kept].min() > 0.5
        assert qfi_eigenbasis(state, form, tol) >= 0.0


class TestAdjointTransport:
    def test_identity(self):
        state = base_point(MixingWeights([0.6, 0.4]))
        moved = adjoint_transport(np.eye(2), state)
        assert np.allclose(moved.matrix, state.matrix, atol=1e-15)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(3)
        k = random_full_rank_weights(4, rng)
        state = base_point(MixingWeights(k))
        U = haar_unitary(4, rng)
        moved = adjoint_transport(U, state)
        assert np.allclose(np.linalg.eigvalsh(moved.matrix), np.sort(k),
                           atol=1e-12)

    def test_transports_forms(self):
        rng = np.random.default_rng(4)
        state = base_point(MixingWeights([0.6, 0.4]))
        form = tangent_from_generator(random_hermitian(2, rng), state)
        U = haar_unitary(2, rng)
        moved = adjoint_transport(U, form)
        assert np.abs(moved.matrix - U.conj().T @ form.matrix @ U).max() < 1e-12

    def test_rejects_non_unitary(self):
        state = base_point(MixingWeights([0.6, 0.4]))
        with pytest.raises(ValueError, match="unitary"):
            adjoint_transport(np.diag([2.0, 1.0]), state)


class TestTangentFromGenerator:
    def test_commuting_generator_gives_zero(self):
        state = base_point(MixingWeights([0.6, 0.4]))
        form = tangent_from_generator(state.matrix, state)
        assert np.abs(form.matrix).max() < 1e-15

    def test_two_level_rotation(self):
        k1, k2 = 0.75, 0.25
        state = base_point(MixingWeights([k1, k2]))
        sigma2 = np.array([[0, -1j], [1j, 0]])
        form = tangent_from_generator(sigma2 / 2, state)
        assert form.coeffs[0] == pytest.approx((k1 - k2) / 2, abs=1e-15)
        assert np.abs(form.coeffs[1:]).max() < 1e-15

    def test_three_level_gap_weighting(self, basis3):
        rng = np.random.default_rng(5)
        k = [0.5, 0.3, 0.2]
        state = base_point(MixingWeights(k), basis3)
        x = rng.normal(size=8)
        x[2] = x[7] = 0.0  # off-diagonal generators only
        K = reconstruct(0.0, x, basis3)
        form = tangent_from_generator(K, state, basis3)
        r1, r2, r3 = k[0] - k[1], k[0] - k[2], k[1] - k[2]
        assert form.matrix[0, 1] == pytest.approx(r1 * (x[1] + 1j * x[0]), abs=1e-12)
        assert form.matrix[0, 2] == pytest.approx(r2 * (x[4] + 1j * x[3]), abs=1e-12)
        assert form.matrix[1, 2] == pytest.approx(r3 * (x[6] + 1j * x[5]), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_equals_from_matrix_of_the_hermitised_commutator(self, n):
        rng = np.random.default_rng(20 + n)
        basis = build_basis(n)
        U = haar_unitary(n, rng)
        weights = random_full_rank_weights(n, rng)
        state = DensityState.from_matrix((U * weights) @ U.conj().T, basis)
        K = random_hermitian(n, rng)
        form = tangent_from_generator(K, state, basis)
        a = -1j * (K @ state.matrix - state.matrix @ K)
        ref = TangentForm.from_matrix(0.5 * (a + a.conj().T), basis)
        assert form.coeff_identity == ref.coeff_identity
        assert np.array_equal(form.coeffs, ref.coeffs)
        assert np.array_equal(form.matrix, ref.matrix)
        assert not form.coeffs.flags.writeable
        assert not form.matrix.flags.writeable

    def test_rejects_non_hermitian_generator(self):
        state = base_point(MixingWeights([0.6, 0.4]))
        K = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="generator is not Hermitian"):
            tangent_from_generator(K, state)

    def test_orbit_tangency_kills_diagonal_components(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 4):
            state = base_point(MixingWeights(random_full_rank_weights(n, rng)))
            form = tangent_from_generator(random_hermitian(n, rng), state)
            assert abs(form.coeff_identity) < 1e-12
            for i in build_basis(n).diagonal_indices:
                assert abs(form.coeffs[i]) < 1e-12


class TestNumericTangent:
    def test_constant_family(self):
        state = base_point(MixingWeights([0.6, 0.4]))
        form = numeric_tangent(lambda theta: state.matrix, 0.3)
        assert np.abs(form.matrix).max() < 1e-12

    def test_matches_analytic_rotation(self):
        k1, k2 = 0.75, 0.25
        rho0 = np.diag([k1, k2]).astype(complex)
        sigma2 = np.array([[0, -1j], [1j, 0]])

        def family(theta):
            w, V = np.linalg.eigh(sigma2 / 2)
            U = (V * np.exp(-1j * theta * w)) @ V.conj().T
            return U @ rho0 @ U.conj().T

        form = numeric_tangent(family, 0.0, 1e-5)
        assert form.coeffs[0] == pytest.approx((k1 - k2) / 2, abs=1e-8)

    def test_exact_on_affine_families(self):
        a = np.diag([0.5, 0.5]).astype(complex)
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        form = numeric_tangent(lambda theta: a + theta * b, 0.2)
        assert np.abs(form.matrix - b).max() < 1e-10

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            numeric_tangent(lambda theta: np.eye(2), 0.0, 0.0)
        with pytest.raises(ValueError):
            numeric_tangent(lambda theta: np.eye(2), 0.0, np.nan)


class TestTransversalTangent:
    def test_two_level(self):
        state = base_point(MixingWeights([0.75, 0.25]))
        form = transversal_tangent([1.0, -1.0], state)
        assert np.allclose(form.matrix, np.diag([1.0, -1.0]), atol=1e-15)
        assert form.coeffs[2] == pytest.approx(1.0, abs=1e-15)
        assert abs(form.coeff_identity) < 1e-15

    def test_three_level_expansion(self):
        state = base_point(MixingWeights([0.5, 0.3, 0.2]))
        form = transversal_tangent([1.0, 0.0, -1.0], state)
        assert form.coeffs[2] == pytest.approx(0.5, abs=1e-15)
        assert form.coeffs[7] == pytest.approx(SQ3 / 2, abs=1e-15)

    def test_zero_rates(self):
        state = base_point(MixingWeights([0.5, 0.5]))
        form = transversal_tangent([0.0, 0.0], state)
        assert np.abs(form.matrix).max() == 0

    def test_rejects_nonzero_sum(self):
        state = base_point(MixingWeights([0.5, 0.5]))
        with pytest.raises(ValueError, match="sum to zero"):
            transversal_tangent([1.0, 0.0], state)

    def test_rejects_non_diagonal_state(self):
        rng = np.random.default_rng(8)
        U = haar_unitary(2, rng)
        state = adjoint_transport(U, base_point(MixingWeights([0.7, 0.3])))
        with pytest.raises(ValueError, match="diagonal"):
            transversal_tangent([1.0, -1.0], state)

    def test_orthogonal_to_orbit_tangents(self):
        rng = np.random.default_rng(9)
        state = base_point(MixingWeights([0.5, 0.3, 0.2]))
        orbit = tangent_from_generator(random_hermitian(3, rng), state)
        trans = transversal_tangent([0.4, -0.1, -0.3], state)
        overlap = np.trace(trans.matrix @ orbit.matrix)
        assert abs(overlap) < 1e-12


def test_equivariant_expansion():
    # coefficients of a conjugated matrix reconstruct the conjugated matrix
    rng = np.random.default_rng(10)
    m = random_hermitian(3, rng)
    U = haar_unitary(3, rng)
    c_id, coeffs = expand(U.conj().T @ m @ U)
    assert np.abs(reconstruct(c_id, coeffs) - U.conj().T @ m @ U).max() < 1e-12


def test_state_json_form():
    state = base_point(MixingWeights([0.75, 0.25]))
    payload = state.to_json_dict()
    assert set(payload) == {"n", "matrix"}
    assert payload["matrix"][0][0] == [0.75, 0.0]
    form = transversal_tangent([1.0, -1.0], state)
    assert form.to_json_dict()["matrix"][1][1] == [-1.0, 0.0]


def test_tangent_form_from_coefficients_round_trip(basis3):
    rng = np.random.default_rng(12)
    coeffs = rng.normal(size=8)
    form = TangentForm.from_coefficients(0.1, coeffs, basis3)
    c_id, back = expand(form.matrix, basis3)
    assert c_id == pytest.approx(0.1, abs=1e-12)
    assert np.allclose(back, coeffs, atol=1e-12)


@pytest.mark.parametrize("coeff_identity, coeff", [
    (np.nan, 0.0), (np.inf, 0.0), (0.0, np.nan), (0.0, -np.inf)],
    ids=["identity-nan", "identity-inf", "coeffs-nan", "coeffs-minus-inf"])
def test_tangent_form_from_coefficients_rejects_non_finite(basis3,
                                                           coeff_identity,
                                                           coeff):
    # as from_matrix does, rather than yield an SLD of NaNs
    coeffs = np.zeros(8)
    coeffs[3] = coeff
    with pytest.raises(ValueError, match="tangent coefficients must be finite"):
        TangentForm.from_coefficients(coeff_identity, coeffs, basis3)


_QUBIT = DensityState.from_matrix(np.diag([0.6, 0.4]))


@pytest.mark.parametrize("build, message", [
    (lambda: DensityState.from_matrix(np.eye(3) / 3, build_basis(2)),
     "basis dimension 2 does not match operand dimension 3"),
    (lambda: DensityState.from_matrix(np.ones((2, 3)) / 3),
     "expected a square matrix, got shape (2, 3)"),
    (lambda: MixingWeights([]), "weights must be a nonempty 1-D sequence"),
    (lambda: reconstruct(0.0, np.zeros(4)),
     "coefficient vector of length 4 does not match any dimension"),
    # an object with a matrix that is neither a state nor a form
    (lambda: adjoint_transport(np.eye(2), SimpleNamespace(
        matrix=_QUBIT.matrix)),
     "cannot transport object of type SimpleNamespace"),
    (lambda: adjoint_transport(np.eye(2), np.eye(2)),
     "cannot transport object of type ndarray"),
    (lambda: adjoint_transport(np.eye(2), object()),
     "cannot transport object of type object"),
    (lambda: transversal_tangent([0.5, -0.5, 0.0], _QUBIT),
     "expected 2 weight rates, got shape (3,)"),
], ids=["basis-dimension", "not-square", "no-weights", "coeffs-length",
        "transport-type", "transport-array", "transport-object",
        "rates-shape"])
def test_rejects_mismatched_input(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
