"""Fisher index, Fisher tensor, flag chart, and closed forms."""

import numpy as np
import pytest

from helpers import (einsum_fisher_tensor, haar_unitary,
                     random_distinct_weights, random_full_rank_weights,
                     random_hermitian)

from sldkit import (DensityState, MixingWeights, TangentForm,
                    adjoint_transport, assemble, base_point, build_basis,
                    chart_tangents, closed_form, closed_form_deviation,
                    closed_form_fisher,
                    compute_structure_constants, fisher_tensor,
                    horizontal_transversal_split_check, qfi_index, solve,
                    tangent_from_generator, transversal_tangent)

from sldkit.fisher import GAP_FLOOR

PAIRS = ((0, 1), (0, 2), (1, 2))


def general_sld(state, form, constants):
    return solve(assemble(state, form, constants), state)


def transversal_sld(rates, weights):
    return closed_form(weights, transversal_tangent(rates, base_point(weights)))


def chart_tensor(weights, constants, basis):
    state = base_point(weights, basis)
    tangents = chart_tangents(weights, basis)
    slds = [general_sld(state, form, constants) for form in tangents]
    return fisher_tensor(state, slds)


class TestQFIIndex:
    def test_rotation_family(self, constants2):
        state = base_point(MixingWeights([0.75, 0.25]))
        sigma2 = np.array([[0, -1j], [1j, 0]])
        form = tangent_from_generator(sigma2 / 2, state)
        sol = general_sld(state, form, constants2)
        assert qfi_index(state, sol) == pytest.approx(0.25, abs=1e-12)

    def test_zero_sld(self, constants2):
        state = base_point(MixingWeights([0.5, 0.5]))
        sigma2 = np.array([[0, -1j], [1j, 0]])
        form = tangent_from_generator(sigma2 / 2, state)
        sol = general_sld(state, form, constants2)
        assert qfi_index(state, sol) == pytest.approx(0.0, abs=1e-15)

    def test_pure_three_level_fubini_study(self, constants3):
        rng = np.random.default_rng(0)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        H = random_hermitian(3, rng)
        state = DensityState.from_matrix(np.outer(psi, psi.conj()))
        form = tangent_from_generator(H, state)
        sol = general_sld(state, form, constants3)
        mean = np.real(psi.conj() @ H @ psi)
        second = np.real(psi.conj() @ H @ H @ psi)
        assert qfi_index(state, sol) == pytest.approx(
            4.0 * (second - mean ** 2), abs=1e-8)


class TestFisherTensor:
    def test_single_direction(self, constants2):
        rng = np.random.default_rng(1)
        state = base_point(MixingWeights([0.7, 0.3]))
        form = tangent_from_generator(random_hermitian(2, rng), state)
        sol = general_sld(state, form, constants2)
        result = fisher_tensor(state, [sol])
        assert result.directions == 1
        assert result.symmetric[0, 0] == pytest.approx(qfi_index(state, sol),
                                                       abs=1e-12)
        assert result.antisymmetric[0, 0] == 0.0

    def test_two_level_structure(self, constants2):
        # unit tangents along t_1 and t_2: L_i = (2/s) t_i, so
        # g = (4/s^2) * 1 on the diagonal and omega_12 = (4/s^2) * r
        k1, k2 = 0.7, 0.3
        r, s = k1 - k2, k1 + k2
        weights = MixingWeights([k1, k2])
        state = base_point(weights)
        forms = [TangentForm.from_coefficients(0.0, np.eye(3)[i])
                 for i in (0, 1)]
        slds = [general_sld(state, f, constants2) for f in forms]
        result = fisher_tensor(state, slds)
        assert np.allclose(np.diag(result.symmetric), 4 / s ** 2 * np.ones(2),
                           atol=1e-12)
        assert abs(result.antisymmetric[0, 1]) == pytest.approx(
            4 * abs(r) / s ** 2, abs=1e-12)
        # the antisymmetric entry scales with the eigenvalue gap
        weights2 = MixingWeights([0.9, 0.1])
        state2 = base_point(weights2)
        slds2 = [general_sld(state2, f, constants2) for f in forms]
        result2 = fisher_tensor(state2, slds2)
        assert result2.antisymmetric[0, 1] / result.antisymmetric[0, 1] == \
            pytest.approx(0.8 / r, abs=1e-9)

    @pytest.mark.parametrize("n, rank", [(3, 3), (4, 2), (8, 8), (8, 6)])
    def test_matches_einsum_reference(self, n, rank):
        rng = np.random.default_rng(40 + n + rank)
        basis = build_basis(n)
        constants = compute_structure_constants(basis)
        k = np.zeros(n)
        k[:rank] = random_full_rank_weights(rank, rng)
        U = haar_unitary(n, rng)
        state = DensityState.from_matrix((U * k) @ U.conj().T, basis)
        slds = [general_sld(state, tangent_from_generator(g / 2, state, basis),
                            constants) for g in basis.generators]
        result = fisher_tensor(state, slds)
        reference = einsum_fisher_tensor(state.matrix,
                                         [sol.matrix for sol in slds])
        assert np.abs(result.components - reference).max() <= 1e-14

    def test_hermitian_complex_tensor(self, constants3):
        rng = np.random.default_rng(2)
        weights = MixingWeights(random_distinct_weights(rng))
        state = base_point(weights)
        slds = [general_sld(state,
                            tangent_from_generator(random_hermitian(3, rng),
                                                   state), constants3)
                for _ in range(4)]
        result = fisher_tensor(state, slds)
        F = result.components
        assert np.abs(F - F.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(result.symmetric).min() > -1e-12
        assert np.abs(result.antisymmetric + result.antisymmetric.T).max() == 0

    def test_no_directions(self):
        result = fisher_tensor(base_point(MixingWeights([0.5, 0.5])), [])
        assert result.directions == 0
        assert result.components.shape == result.symmetric.shape == (0, 0)
        assert result.to_json_dict()["g"] == []


class TestSplitCheck:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_vanishes_at_base_point(self, n):
        rng = np.random.default_rng(n + 10)
        constants = compute_structure_constants(build_basis(n))
        k = random_full_rank_weights(n, rng)
        weights = MixingWeights(k)
        state = base_point(weights)
        horizontal = general_sld(
            state, tangent_from_generator(random_hermitian(n, rng), state),
            constants)
        rates = rng.normal(size=n)
        rates -= rates.mean()
        trans = transversal_sld(rates, weights)
        cross = horizontal_transversal_split_check(state, horizontal, trans)
        assert abs(cross) < 1e-10

    def test_invariant_under_conjugation(self, constants3):
        rng = np.random.default_rng(20)
        weights = MixingWeights(random_distinct_weights(rng))
        state = base_point(weights)
        horizontal = general_sld(
            state, tangent_from_generator(random_hermitian(3, rng), state),
            constants3)
        rates = rng.normal(size=3)
        rates -= rates.mean()
        trans = transversal_sld(rates, weights)
        U = haar_unitary(3, rng)
        moved_state = adjoint_transport(U, state)
        conj = U.conj().T
        moved_h = type(horizontal)(horizontal.coeff_identity, horizontal.coeffs,
                                   conj @ horizontal.matrix @ U,
                                   horizontal.gauge_basis, horizontal.residual)
        moved_t = type(trans)(trans.coeff_identity, trans.coeffs,
                              conj @ trans.matrix @ U, trans.gauge_basis,
                              trans.residual)
        cross = horizontal_transversal_split_check(moved_state, moved_h, moved_t)
        assert abs(cross) < 1e-10


class TestChartTangents:
    def test_gap_weighted_entries(self, basis3):
        weights = MixingWeights([0.5, 0.3, 0.2])
        forms = chart_tangents(weights, basis3)
        assert len(forms) == 6
        assert forms[0].matrix[0, 1] == pytest.approx(0.2, abs=1e-15)
        gaps = (0.2, 0.3, 0.1)
        for i, (a, b) in enumerate(PAIRS):
            assert forms[2 * i].matrix[a, b] == pytest.approx(gaps[i],
                                                              abs=1e-15)
            assert forms[2 * i + 1].matrix[a, b] == pytest.approx(
                -1j * gaps[i], abs=1e-15)

    def test_repeated_weights_drop_their_pair(self):
        forms = chart_tangents(MixingWeights([0.6, 0.2, 0.2]))
        assert len(forms) == 4
        for i, (a, b) in enumerate(PAIRS[:2]):
            assert forms[2 * i].matrix[a, b] == pytest.approx(0.4, abs=1e-15)
            assert forms[2 * i + 1].matrix[a, b] == pytest.approx(-0.4j,
                                                                  abs=1e-15)
            assert np.abs(forms[2 * i].matrix[1:, 1:]).max() == 0

    def test_equal_weights_have_no_directions(self):
        assert chart_tangents(MixingWeights([0.25] * 4)) == []

    @pytest.mark.parametrize("n", range(2, 17))
    def test_forms_are_the_expanded_gap_weighted_generators(self, n):
        # each form is built from its slot, bit for bit what expanding the
        # gap-weighted generator gives; distinct, repeated and zero weights
        basis = build_basis(n)
        slot = {label: i for i, label in enumerate(basis.labels)}
        counts = np.random.default_rng(300 + n).integers(0, 4, n)
        counts[0], counts[-1] = 3, 0
        for c in (np.arange(n, 0, -1), counts, np.ones(n)):
            weights = MixingWeights(c / c.sum())
            k = weights.values
            expected = [TangentForm.from_matrix(
                float(k[a] - k[b]) * basis.generators[slot[kind, a, b]], basis)
                for a in range(n) for b in range(a + 1, n)
                if abs(k[a] - k[b]) > GAP_FLOOR for kind in ("sym", "antisym")]
            forms = chart_tangents(weights, basis)
            assert len(forms) == len(expected)
            for form, reference in zip(forms, expected):
                assert form.coeff_identity == reference.coeff_identity == 0.0
                assert form.coeffs.tobytes() == reference.coeffs.tobytes()
                assert form.matrix.tobytes() == reference.matrix.tobytes()
                assert not (form.coeffs.flags.writeable
                            or form.matrix.flags.writeable)

    def test_lexicographic_pairs_at_n4(self):
        k = [0.4, 0.3, 0.3, 0.0]
        forms = chart_tangents(MixingWeights(k))
        kept = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
        assert len(forms) == 2 * len(kept)
        for i, (a, b) in enumerate(kept):
            for form, generator in ((forms[2 * i], 1.0),
                                    (forms[2 * i + 1], -1j)):
                expected = np.zeros((4, 4), dtype=complex)
                expected[a, b] = (k[a] - k[b]) * generator
                expected[b, a] = np.conj(expected[a, b])
                assert np.abs(form.matrix - expected).max() <= 1e-15


class TestClosedFormU3:
    def test_pure_state_projective_limit(self):
        coeffs = closed_form_fisher(MixingWeights([1.0, 0.0, 0.0]))
        assert [g for g, _ in coeffs] == pytest.approx([4.0, 4.0, 0.0],
                                                       abs=1e-12)
        assert [abs(w) for _, w in coeffs] == pytest.approx([4.0, 4.0, 0.0],
                                                            abs=1e-12)

    def test_generic_values(self):
        coeffs = closed_form_fisher(MixingWeights([0.5, 0.3, 0.2]))
        assert coeffs[0][0] == pytest.approx(0.2, abs=1e-12)
        assert coeffs[0][1] == pytest.approx(-0.05, abs=1e-12)

    def test_degenerate_pair_collapses(self):
        coeffs = closed_form_fisher(MixingWeights([0.6, 0.2, 0.2]))
        assert coeffs[2] == (0.0, 0.0)
        assert coeffs[0] == pytest.approx(coeffs[1], abs=1e-15)

    def test_maximally_mixed(self):
        coeffs = closed_form_fisher(MixingWeights([1 / 3, 1 / 3, 1 / 3]))
        assert all(g == 0.0 and w == 0.0 for g, w in coeffs)


class TestClosedFormU3Rank2:
    def test_values(self):
        coeffs = closed_form_fisher(MixingWeights([0.6, 0.4, 0.0]))
        assert coeffs[0][0] == pytest.approx(0.16, abs=1e-12)
        assert coeffs[1] == pytest.approx((2.4, -2.4), abs=1e-12)
        assert coeffs[2] == pytest.approx((1.6, -1.6), abs=1e-12)

    def test_reduces_to_projective_case(self):
        coeffs = closed_form_fisher(MixingWeights([1.0, 0.0, 0.0]))
        assert [g for g, _ in coeffs] == pytest.approx([4.0, 4.0, 0.0],
                                                       abs=1e-12)

    def test_matches_generic_formula(self):
        # pairs coupling the empty third level reduce to (4 k, -4 k)
        rng = np.random.default_rng(3)
        for _ in range(10):
            k1 = rng.uniform(0.55, 0.95)
            k2 = 1 - k1
            rank2 = closed_form_fisher(MixingWeights([k1, k2, 0.0]))
            expected = ((4 * (k1 - k2) ** 2 / (k1 + k2),
                         -4 * (k1 - k2) ** 3 / (k1 + k2) ** 2),
                        (4 * k1, -4 * k1), (4 * k2, -4 * k2))
            assert np.allclose(rank2, expected, atol=1e-12)


class TestClosedFormU2:
    def test_base_point(self):
        (g, w), = closed_form_fisher(MixingWeights([0.75, 0.25]))
        assert g == pytest.approx(1.0, abs=1e-12)
        assert w == pytest.approx(-0.5, abs=1e-12)

    def test_maximally_mixed(self):
        assert closed_form_fisher(MixingWeights([0.5, 0.5])) == ((0.0, 0.0),)

    def test_pure_is_fubini_study_normalized(self):
        (g, _), = closed_form_fisher(MixingWeights([1.0, 0.0]))
        assert g == pytest.approx(4.0, abs=1e-12)

    def test_chart_factor_scales(self):
        # callers scale the base-point coefficients by the chart factor
        (g, w), = closed_form_fisher(MixingWeights([0.75, 0.25]))
        g1, w1 = 0.25 * g, 0.25 * w
        assert g1 == pytest.approx(0.25, abs=1e-12)
        assert w1 == pytest.approx(-0.125, abs=1e-12)


class TestNumericAgainstClosedForm:
    def test_reference_weights(self, constants3, basis3):
        weights = MixingWeights([0.5, 0.3, 0.2])
        tensor = chart_tensor(weights, constants3, basis3)
        assert closed_form_deviation(tensor, weights) < 1e-9
        assert tensor.symmetric[0, 0] == pytest.approx(0.2, abs=1e-9)

    def test_random_weights(self, constants3, basis3):
        rng = np.random.default_rng(4)
        for _ in range(10):
            weights = MixingWeights(random_distinct_weights(rng))
            tensor = chart_tensor(weights, constants3, basis3)
            assert closed_form_deviation(tensor, weights) < 1e-9

    def test_rank2_pipeline(self, constants3, basis3):
        weights = MixingWeights([0.6, 0.4, 0.0])
        tensor = chart_tensor(weights, constants3, basis3)
        assert closed_form_deviation(tensor, weights) < 1e-9

    def test_su2_block_shape(self, constants3, basis3):
        rng = np.random.default_rng(5)
        k = random_distinct_weights(rng)
        tensor = chart_tensor(MixingWeights(k), constants3, basis3)
        for i, (a, b) in enumerate(PAIRS):
            r, s = k[a] - k[b], k[a] + k[b]
            block_g = tensor.symmetric[2 * i:2 * i + 2, 2 * i:2 * i + 2]
            assert np.allclose(block_g, (4 * r * r / s) * np.eye(2), atol=1e-9)
            block_w = tensor.antisymmetric[2 * i:2 * i + 2, 2 * i:2 * i + 2]
            assert abs(abs(block_w[0, 1]) - 4 * abs(r) ** 3 / s ** 2) < 1e-9

    @pytest.mark.parametrize("k, directions", [
        ([0.6, 0.2, 0.2], 4), ([0.6, 0.4, 0.0], 6), ([1.0, 0.0, 0.0], 4),
        ([1 / 3, 1 / 3, 1 / 3], 0), ([0.4, 0.3, 0.2, 0.1], 12),
        ([0.4, 0.4, 0.2, 0.0], 10), ([0.5, 0.2, 0.2, 0.1, 0.0], 18),
        ([0.6, 0.4, 0.0, 0.0, 0.0], 14),
    ])
    def test_degenerate_and_larger_weights(self, k, directions):
        weights = MixingWeights(k)
        basis = build_basis(len(k))
        tensor = chart_tensor(weights, compute_structure_constants(basis),
                              basis)
        assert tensor.directions == directions
        assert closed_form_deviation(tensor, weights) <= 1e-12

    def test_deviation_needs_the_chart_directions(self, constants3, basis3):
        tensor = chart_tensor(MixingWeights([0.5, 0.3, 0.2]), constants3,
                              basis3)
        with pytest.raises(ValueError, match="4-direction"):
            closed_form_deviation(tensor, MixingWeights([0.6, 0.2, 0.2]))


class TestGaugeIndependence:
    def test_qfi_insensitive_to_gauge(self, constants3):
        rng = np.random.default_rng(6)
        weights = MixingWeights([0.6, 0.4, 0.0])
        state = base_point(weights)
        for _ in range(10):
            form = tangent_from_generator(random_hermitian(3, rng), state)
            sol = general_sld(state, form, constants3)
            assert sol.gauge_dim == 1
            for X in sol.gauge_basis:
                anti = sol.matrix @ X + X @ sol.matrix
                assert abs(np.trace(state.matrix @ anti)) < 1e-10
                assert abs(np.trace(state.matrix @ X @ X)) < 1e-10


def test_equivariant_qfi(constants3):
    rng = np.random.default_rng(7)
    weights = MixingWeights(random_full_rank_weights(3, rng))
    state = base_point(weights)
    form = tangent_from_generator(random_hermitian(3, rng), state)
    sol = general_sld(state, form, constants3)
    base_value = qfi_index(state, sol)
    U = haar_unitary(3, rng)
    moved_state = adjoint_transport(U, state)
    moved_form = adjoint_transport(U, form)
    moved = general_sld(moved_state, moved_form, constants3)
    assert qfi_index(moved_state, moved) == pytest.approx(base_value,
                                                          abs=1e-10)


def test_tensor_json_shape(constants3, basis3):
    weights = MixingWeights([0.5, 0.3, 0.2])
    tensor = chart_tensor(weights, constants3, basis3)
    payload = tensor.to_json_dict()
    # F = g + i omega, so the components are not written out a second time
    assert set(payload) == {"g", "omega", "directions"}
    assert payload["directions"] == 6
    assert payload["g"][0][0] == pytest.approx(0.2, abs=1e-9)


def _qubit_sld():
    return transversal_sld([1.0, -1.0], MixingWeights([0.6, 0.4]))


@pytest.mark.parametrize("build, message", [
    (lambda state: qfi_index(state, _qubit_sld()),
     "state and SLD dimensions do not match"),
    (lambda state: fisher_tensor(state, [_qubit_sld()]),
     "all SLDs must match the state dimension"),
], ids=["qfi_index", "fisher_tensor"])
def test_rejects_mismatched_dimensions(build, message):
    with pytest.raises(ValueError) as info:
        build(base_point(MixingWeights([0.5, 0.3, 0.2])))
    assert str(info.value) == message
