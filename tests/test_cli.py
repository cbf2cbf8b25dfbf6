"""Command-line interface: commands, formats, exit-status contract."""

import json
import warnings

import numpy as np
import pytest

from helpers import count_lu_solves

from sldkit import (MixingWeights, assemble, base_point, build_basis,
                    chart_tangents, cli, compute_structure_constants,
                    fisher_tensor, sld_solver, solve)
from sldkit.cli import build_parser, main, parse_family
from sldkit.lie_basis import matrix_to_pairs
from sldkit.state_space import DEFAULT_TOL

QUBIT_FAMILY = {
    "kind": "exp_generator",
    "n": 2,
    "weights": [0.75, 0.25],
    "generator_coeffs": [0.0, 0.5, 0.0],
}

MIXED_FAMILY = {
    "kind": "exp_generator",
    "n": 2,
    "weights": [0.5, 0.5],
    "generator_coeffs": [0.0, 0.5, 0.0],
}

WEIGHT_PATH_FAMILY = {
    "kind": "weight_path",
    "n": 2,
    "weights": [0.75, 0.25],
    "weight_rates": [1.0, -1.0],
}

SAMPLED_FAMILY = {
    "kind": "explicit_matrices",
    "n": 2,
    "matrices": [[0.0, matrix_to_pairs(np.diag([0.7, 0.3]))],
                 [0.1, matrix_to_pairs(np.diag([0.6, 0.4]))]],
}

QUTRIT_FAMILY = {
    "kind": "exp_generator",
    "n": 3,
    "weights": [0.5, 0.3, 0.2],
    "generator_coeffs": [0.1, -0.2, 0.0, 0.3, 0.4, -0.1, 0.25, 0.0],
}

QUQUART_FAMILY = {
    "kind": "exp_generator",
    "n": 4,
    "weights": [0.4, 0.3, 0.2, 0.1],
    "generator_coeffs": [0.1, -0.2, 0.0, 0.3, 0.4, -0.1, 0.25, 0.0,
                         0.2, -0.3, 0.15, 0.05, -0.1, 0.0, 0.35],
}

PURE_QUTRIT_FAMILY = {
    "kind": "exp_generator",
    "n": 3,
    "weights": [1.0, 0.0, 0.0],
    "generator_coeffs": [0.3, 0.1, 0.0, 0.2, -0.4, 0.0, 0.0, 0.0],
}


def write_family(tmp_path, payload, name="family.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasisCommand:
    def test_su3_constants_emitted(self, tmp_path, capsys):
        out_path = tmp_path / "basis.json"
        code, _, _ = run(["basis", "--n", "3", "--output", str(out_path)], capsys)
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["n"] == 3
        assert [0, 1, 2, 1.0] in data["c"]
        assert len(data["generators"]) == 8

    def test_su2_has_no_symmetric_constants(self, capsys):
        code, out, _ = run(["basis", "--n", "2"], capsys)
        assert code == 0
        assert json.loads(out)["f"] == []

    def test_rejects_invalid_dimension(self, capsys):
        code, _, err = run(["basis", "--n", "1"], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert "\n" not in err.strip()


class TestSldCommand:
    def test_qubit_rotation(self, tmp_path, capsys):
        family = write_family(tmp_path, QUBIT_FAMILY)
        code, out, _ = run(["sld", "--input", family, "--theta", "0"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["L_identity"] == pytest.approx(0.0, abs=1e-12)
        assert data["L"][0] == pytest.approx(0.5, abs=1e-12)
        assert np.abs(data["L"][1:]).max() < 1e-12
        assert data["gauge_dim"] == 0
        assert data["residual"] < 1e-10

    @pytest.mark.parametrize("theta", ["-0.5", "-1e-3", "-.25"])
    def test_negative_theta(self, tmp_path, capsys, theta):
        # --theta took a negative number before the qfi theta values did;
        # both spellings still give the solve at that theta
        family = write_family(tmp_path, QUBIT_FAMILY)
        spaced = run(["sld", "--input", family, "--theta", theta], capsys)
        joined = run(["sld", "--input", family, f"--theta={theta}"], capsys)
        assert spaced == joined and spaced[0] == 0
        _, _, solutions = cli._solve_family(
            parse_family(QUBIT_FAMILY), np.array([float(theta)]), "general",
            DEFAULT_TOL)
        assert json.loads(spaced[1]) == json.loads(
            json.dumps(solutions.to_json_dict(0)))

    @staticmethod
    def assert_closed_matches_general(tmp_path, capsys, payload, theta):
        family = write_family(tmp_path, payload)
        results = {}
        for method in ("general", "closed"):
            code, out, _ = run(["sld", "--input", family, "--theta", str(theta),
                                "--method", method], capsys)
            assert code == 0
            results[method] = json.loads(out)
        general = np.array(results["general"]["L"])
        closed = np.array(results["closed"]["L"])
        assert np.abs(general - closed).max() < 1e-12
        assert results["general"]["gauge_dim"] == results["closed"]["gauge_dim"]

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_closed_u2_matches_general(self, tmp_path, capsys, theta):
        self.assert_closed_matches_general(tmp_path, capsys, QUBIT_FAMILY,
                                           theta)

    def test_closed_u3_matches_general(self, tmp_path, capsys):
        self.assert_closed_matches_general(tmp_path, capsys, QUTRIT_FAMILY,
                                           0.4)

    @pytest.mark.parametrize("weights", [[0.4, 0.3, 0.2, 0.1],
                                         [0.5, 0.5, 0.0, 0.0]],
                             ids=["distinct", "repeated"])
    def test_closed_matches_general_at_n4(self, tmp_path, capsys, weights):
        self.assert_closed_matches_general(
            tmp_path, capsys, dict(QUQUART_FAMILY, weights=weights), -0.9)

    @pytest.mark.parametrize("method", ["closed-u2", "closed-u3"])
    def test_old_closed_method_names_are_usage_errors(self, tmp_path, capsys,
                                                      method):
        family = write_family(tmp_path, QUBIT_FAMILY)
        code, out, err = run(["sld", "--input", family, "--method", method],
                             capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "invalid choice" in err

    def test_closed_needs_exp_generator(self, tmp_path, capsys):
        family = write_family(tmp_path, WEIGHT_PATH_FAMILY)
        code, _, err = run(["sld", "--input", family, "--method", "closed"],
                           capsys)
        assert code == 1
        assert "requires an exp_generator family" in err

    def test_pure_qutrit_gauge(self, tmp_path, capsys):
        family = write_family(tmp_path, PURE_QUTRIT_FAMILY)
        code, out, _ = run(["sld", "--input", family], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["gauge_dim"] >= 1
        assert data["residual"] < 1e-10
        # the representative coincides with 2 drho up to the gauge class
        from sldkit import MixingWeights, base_point, reconstruct, \
            tangent_from_generator
        from sldkit.lie_basis import pairs_to_matrix
        state = base_point(MixingWeights(PURE_QUTRIT_FAMILY["weights"]))
        K = reconstruct(0.0, PURE_QUTRIT_FAMILY["generator_coeffs"])
        form = tangent_from_generator(K, state)
        L = pairs_to_matrix(data["matrix"])
        assert np.abs(L - 2.0 * form.matrix).max() < 1e-10

    def test_oracle_method(self, tmp_path, capsys):
        family = write_family(tmp_path, QUBIT_FAMILY)
        code, out, _ = run(["sld", "--input", family, "--method", "oracle"],
                           capsys)
        assert code == 0
        assert json.loads(out)["L"][0] == pytest.approx(0.5, abs=1e-12)

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "exp_generator"')
        code, _, err = run(["sld", "--input", str(bad)], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(["sld", "--input", str(tmp_path / "nope.json")],
                           capsys)
        assert code == 1
        assert err.startswith("error:")


class TestQfiCommand:
    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate 72.8 TiB for an array with shape "
                    "(10000000000000,) and data type float64"),
        MemoryError()])
    def test_out_of_memory_is_a_usage_error(self, tmp_path, capsys,
                                            monkeypatch, error):
        def no_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(np, "linspace", no_memory)
        family = write_family(tmp_path, QUBIT_FAMILY)
        code, out, err = run(["qfi", "--input", family, "--theta-range",
                              "0:1:10000000000000"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: out of memory")
        assert err.count("\n") == 1
        assert str(error) in err

    def test_rotation_family_sweep(self, tmp_path, capsys):
        family = write_family(tmp_path, QUBIT_FAMILY)
        code, out, _ = run(["qfi", "--input", family,
                            "--thetas", "0,0.5,1.0"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["theta"] for row in rows] == [0.0, 0.5, 1.0]
        for row in rows:
            assert row["qfi"] == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("args, thetas", [
        (["--theta-range", "-1:1:3"], [-1.0, 0.0, 1.0]),
        (["--theta-range=-1:1:3"], [-1.0, 0.0, 1.0]),
        (["--theta-range", "-1:1:40"], np.linspace(-1, 1, 40).tolist()),
        (["--thetas", "-0.5,0.5"], [-0.5, 0.5]),
        (["--thetas", "-1e-3,-.5", "--theta-range", "-2:-1:2"],
         [-2.0, -1.0, -0.5, -1e-3]),
    ], ids=["range", "range-equals", "range-40", "thetas", "both"])
    def test_negative_first_theta(self, tmp_path, capsys, args, thetas):
        # a value that starts with "-" and a digit is read as a value
        family = write_family(tmp_path, QUBIT_FAMILY)
        code, out, err = run(["qfi", "--input", family] + args, capsys)
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert [row["theta"] for row in rows] == thetas
        for row in rows:
            assert row["qfi"] == pytest.approx(0.25, abs=1e-9)

    def test_option_is_no_theta_value(self, tmp_path, capsys):
        family = write_family(tmp_path, QUBIT_FAMILY)
        code, out, err = run(["qfi", "--input", family, "--thetas",
                              "--check-oracle"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: argument --thetas: expected one argument\n"

    def test_maximally_mixed_is_zero(self, tmp_path, capsys):
        family = write_family(tmp_path, MIXED_FAMILY)
        code, out, _ = run(["qfi", "--input", family, "--thetas", "0,1"],
                           capsys)
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert abs(row["qfi"]) < 1e-12

    def test_transversal_path(self, tmp_path, capsys):
        family = write_family(tmp_path, WEIGHT_PATH_FAMILY)
        code, out, _ = run(["qfi", "--input", family, "--thetas", "0"], capsys)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["qfi"] == pytest.approx(16 / 3, abs=1e-9)

    def test_check_oracle_csv(self, tmp_path, capsys):
        family = write_family(tmp_path, QUBIT_FAMILY)
        code, out, _ = run(["qfi", "--input", family, "--thetas", "0,0.5",
                            "--check-oracle", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,qfi,qfi_oracle,abs_dev"
        for line in lines[1:]:
            cells = [float(tok) for tok in line.split(",")]
            assert cells[1] == pytest.approx(0.25, abs=1e-9)
            assert cells[3] < 1e-9

    def test_check_oracle_summary(self, tmp_path, capsys):
        family = write_family(tmp_path, QUBIT_FAMILY)
        code, out, _ = run(["qfi", "--input", family,
                            "--theta-range", "0:1:5", "--check-oracle"],
                           capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data["rows"]) == 5
        assert data["max_abs_dev"] < 1e-9

    def test_explicit_matrices_family(self, tmp_path, capsys):
        # diagonal family linear in theta: rho = diag(0.75 - t/10, 0.25 + t/10)
        thetas = np.linspace(-0.5, 0.5, 11)
        samples = [[float(t),
                    matrix_to_pairs(np.diag([0.75 - 0.1 * t, 0.25 + 0.1 * t]))]
                   for t in thetas]
        family = write_family(tmp_path, {
            "kind": "explicit_matrices", "n": 2,
            "matrices": samples, "fd_step": 1e-3,
        })
        code, out, _ = run(["qfi", "--input", family, "--thetas", "0"], capsys)
        assert code == 0
        row = json.loads(out)["rows"][0]
        expected = 0.01 / 0.75 + 0.01 / 0.25  # sum dk_i^2 / k_i
        assert row["qfi"] == pytest.approx(expected, abs=1e-8)

    def test_rows_ordered_by_theta(self, tmp_path, capsys):
        family = write_family(tmp_path, QUBIT_FAMILY)
        code, out, _ = run(["qfi", "--input", family,
                            "--thetas", "1.0,0,0.5"], capsys)
        assert code == 0
        assert [row["theta"] for row in json.loads(out)["rows"]] == \
            [0.0, 0.5, 1.0]

    def test_sampled_range_exceeded(self, tmp_path, capsys):
        samples = [[0.0, matrix_to_pairs(np.diag([0.7, 0.3]))],
                   [0.1, matrix_to_pairs(np.diag([0.6, 0.4]))]]
        family = write_family(tmp_path, {
            "kind": "explicit_matrices", "n": 2, "matrices": samples,
        })
        code, _, err = run(["qfi", "--input", family, "--thetas", "5"], capsys)
        assert code == 1
        assert "range" in err

    def test_sampled_range_ends(self, tmp_path, capsys):
        # within fd_step of an end the difference takes the end segment's
        # slope instead of stepping outside the sampled range
        from sldkit import DensityState, TangentForm, qfi_eigenbasis
        mats = [np.diag([0.7, 0.3]), np.array([[0.6, 0.1j], [-0.1j, 0.4]]),
                np.array([[0.5, 0.2], [0.2, 0.5]])]
        family = write_family(tmp_path, {
            "kind": "explicit_matrices", "n": 2,
            "matrices": [[t, matrix_to_pairs(m)]
                         for t, m in zip((0.0, 0.1, 0.3), mats)]})
        code, out, err = run(["qfi", "--input", family, "--theta-range",
                              "0:0.3:4"], capsys)
        assert code == 0, err
        rows = json.loads(out)["rows"]
        slopes = [(mats[1] - mats[0]) / 0.1, (mats[2] - mats[1]) / 0.2]
        for row, state, slope in zip([rows[0], rows[3]], [mats[0], mats[2]],
                                     slopes):
            expected = qfi_eigenbasis(DensityState.from_matrix(state),
                                      TangentForm.from_matrix(slope))
            assert row["qfi"] == pytest.approx(expected, rel=1e-8)
        code, out, err = run(["sld", "--input", family, "--theta", "0.3"],
                             capsys)
        assert code == 0, err
        assert json.loads(out)["residual"] < 1e-10
        code, _, err = run(["sld", "--input", family, "--theta", "0.1",
                            "--fd-step", "0.2"], capsys)
        assert code == 1
        assert "fd_step 0.2 exceeds half the sampled range" in err

    @pytest.mark.parametrize("command", [["qfi", "--thetas", "0"],
                                         ["sld", "--theta", "0"]],
                             ids=["qfi", "sld"])
    def test_repeated_lowest_sample_warns_nothing(self, tmp_path, capsys,
                                                  command):
        # two samples at the lowest theta make a zero-width first segment:
        # theta 0 takes the first sample, and no numpy warning reaches
        # stderr (pytest's own capture would hide it, so warnings raise)
        first, second = np.diag([0.7, 0.3]), np.diag([0.6, 0.4])
        family = write_family(tmp_path, {
            "kind": "explicit_matrices", "n": 2,
            "matrices": [[0.0, matrix_to_pairs(first)],
                         [0.0, matrix_to_pairs(second)],
                         [1.0, matrix_to_pairs(np.diag([0.5, 0.5]))]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(command[:1] + ["--input", family]
                                 + command[1:], capsys)
        assert (code, err) == (0, "")
        # the difference spans theta 0 (the first sample) and 2 fd_step
        # (on the segment from the second sample)
        plus = (1 - 2e-5) * second + 2e-5 * np.diag([0.5, 0.5])
        rates = np.diag(plus - first) / 2e-5
        if command[0] == "qfi":
            assert json.loads(out)["rows"][0]["qfi"] == pytest.approx(
                np.sum(rates ** 2 / np.diag(first)), rel=1e-8)
        else:
            # L = diag(dk / k), whose sigma_z coefficient is half the gap
            assert json.loads(out)["L"][-1] == pytest.approx(
                (rates[0] / 0.7 - rates[1] / 0.3) / 2, rel=1e-8)

    @pytest.mark.parametrize("thetas, code, message", [
        ("0,1", 2, "kernel-inconsistent tangent: <0|drho|0> = "
                   "2.000e-01+0.000e+00j on a pair of kernel levels "
                   "(eigenvalues <= tol = 1.000e-10)"),
        ("1,0", 2, "kernel-inconsistent tangent: <0|drho|0> = "
                   "2.000e-01+0.000e+00j on a pair of kernel levels "
                   "(eigenvalues <= tol = 1.000e-10)"),
        ("1", 1, "matrix is not Hermitian (max deviation 3.000e-01)"),
    ], ids=["both", "both-unsorted", "second-only"])
    def test_first_failing_theta_reports_its_first_error(
            self, tmp_path, capsys, thetas, code, message):
        # theta 0 is pure and its tangent couples the kernel level to
        # itself (a solve-stage error); theta 1 is not Hermitian (a
        # state-stage error).  The first theta in sweep order decides,
        # whatever stage each fails at.
        family = write_family(tmp_path, {
            "kind": "explicit_matrices", "n": 2, "fd_step": 1e-3,
            "matrices": [[0.0, matrix_to_pairs(np.diag([1.0, 0.0]))],
                         [0.5, matrix_to_pairs(np.diag([0.9, 0.1]))],
                         [1.0, matrix_to_pairs([[0.5, 0.3], [0.0, 0.5]])]]})
        got = run(["qfi", "--input", family, "--thetas", thetas], capsys)
        assert got == (code, "", f"error: {message}\n")

    def test_first_failure_after_a_passing_prefix(self, tmp_path, capsys):
        # thetas up to 0.4 pass; 0.5 is pure and its tangent sits on the
        # kernel level (a solve-stage error); 0.8 is not Hermitian (a
        # state-stage error, which the run of the whole block meets first).
        # Only halves searched in order, the first before the second, and
        # split down to one theta reach 0.5.
        family = write_family(tmp_path, {
            "kind": "explicit_matrices", "n": 2,
            "matrices": [[0.0, matrix_to_pairs(np.diag([0.9, 0.1]))],
                         [0.5, matrix_to_pairs(np.diag([1.0, 0.0]))],
                         [1.0, matrix_to_pairs([[0.5, 0.3], [0.0, 0.5]])]]})
        got = run(["qfi", "--input", family,
                   "--thetas", "0.1,0.2,0.3,0.4,0.5,0.8"], capsys)
        assert got == (2, "", "error: kernel-inconsistent tangent: "
                              "<0|drho|0> = 4.000e-01+0.000e+00j on a pair "
                              "of kernel levels (eigenvalues <= tol = "
                              "1.000e-10)\n")

    def test_failing_last_theta_of_a_block_costs_three_blocks(
            self, tmp_path, capsys, monkeypatch):
        # 0:1:1024 is one block at n = 2 and only theta 1 (not Hermitian)
        # fails: halving in order evaluates each half of every failing
        # part once, 1024 + 2 (512 + 256 + ... + 1) = 3070 thetas
        family = write_family(tmp_path, {
            "kind": "explicit_matrices", "n": 2,
            "matrices": [[0.0, matrix_to_pairs(np.diag([0.7, 0.3]))],
                         [0.9995, matrix_to_pairs(np.diag([0.6, 0.4]))],
                         [1.0, matrix_to_pairs([[0.5, 0.3], [0.0, 0.5]])]]})
        evaluated = []
        evaluate = cli.family_state_and_tangent

        def counting(spec, thetas):
            evaluated.append(thetas.size)
            return evaluate(spec, thetas)

        monkeypatch.setattr(cli, "family_state_and_tangent", counting)
        got = run(["qfi", "--input", family, "--theta-range", "0:1:1024"],
                  capsys)
        assert got == (1, "", "error: matrix is not Hermitian "
                              "(max deviation 3.000e-01)\n")
        assert evaluated[0] == 1024 and sum(evaluated) <= 3 * 1024

    def test_requires_thetas(self, tmp_path, capsys):
        family = write_family(tmp_path, QUBIT_FAMILY)
        code, _, err = run(["qfi", "--input", family], capsys)
        assert code == 1
        assert err.startswith("error:")


class TestTensorCommand:
    def test_reference_weights(self, capsys):
        code, out, _ = run(["tensor", "--weights", "0.5,0.3,0.2"], capsys)
        assert code == 0
        data = json.loads(out)
        pairs = data["closed_form"]["pairs"]
        assert pairs[0][0] == pytest.approx(0.2, abs=1e-12)
        assert data["max_deviation"] < 1e-9
        assert data["tensor"]["directions"] == 6

    def test_pure_weights_closed_form(self, capsys):
        code, out, _ = run(["tensor", "--weights", "1,0,0"], capsys)
        assert code == 0
        data = json.loads(out)
        assert [p[0] for p in data["closed_form"]["pairs"]] == \
            pytest.approx([4.0, 4.0, 0.0], abs=1e-12)
        # the pair of the two empty levels collapses: two pairs remain
        assert data["tensor"]["directions"] == 4
        assert np.diag(data["tensor"]["g"]) == pytest.approx([4.0] * 4,
                                                             abs=1e-12)
        assert data["max_deviation"] <= 1e-12

    def test_maximally_mixed_closed_form(self, capsys):
        code, out, _ = run(["tensor", "--weights", "0.3333333333333333,"
                            "0.3333333333333333,0.3333333333333334"], capsys)
        assert code == 0
        data = json.loads(out)
        assert np.abs(data["closed_form"]["pairs"]).max() < 1e-12
        assert data["tensor"]["directions"] == 0
        assert data["tensor"]["g"] == []
        assert data["max_deviation"] == 0.0

    def test_repeated_weights_agree_with_closed_form(self, capsys):
        code, out, _ = run(["tensor", "--weights", "0.6,0.2,0.2"], capsys)
        assert code == 0
        data = json.loads(out)
        g, w = 4 * 0.4 ** 2 / 0.8, -4 * 0.4 ** 3 / 0.8 ** 2
        assert np.allclose(data["closed_form"]["pairs"],
                           [[g, w], [g, w], [0.0, 0.0]], rtol=0, atol=1e-12)
        assert data["tensor"]["directions"] == 4
        assert np.diag(data["tensor"]["g"]) == pytest.approx([g] * 4,
                                                             abs=1e-12)
        assert data["max_deviation"] <= 1e-12

    @pytest.mark.parametrize("weights, directions", [
        ("0.75,0.25", 2), ("0.4,0.3,0.2,0.1", 12), ("0.5,0.5,0,0", 8),
        ("0.5,0.2,0.2,0.1,0", 18), ("0.6,0.4,0,0,0", 14),
    ])
    def test_any_dimension(self, capsys, weights, directions):
        code, out, _ = run(["tensor", "--weights", weights], capsys)
        assert code == 0
        data = json.loads(out)
        n = len(weights.split(","))
        assert len(data["closed_form"]["pairs"]) == n * (n - 1) // 2
        assert data["tensor"]["directions"] == directions
        assert data["max_deviation"] <= 1e-12

    @pytest.mark.parametrize("weights", [
        "0.5,0.3,0.2", "0.5,0.5,0,0", "0.6,0.4,0,0,0",
        ",".join(repr(float(v)) for v in np.arange(16, 0, -1) / 136),
    ], ids=["n3", "n4-rank2", "n5-rank2", "n16"])
    def test_one_lu_solve_for_every_direction(self, capsys, monkeypatch,
                                              weights):
        calls = count_lu_solves(monkeypatch)
        code, out, _ = run(["tensor", "--weights", weights], capsys)
        assert code == 0
        data = json.loads(out)
        n, directions = len(weights.split(",")), data["tensor"]["directions"]
        assert calls == [((n * n, n * n), (n * n, directions))]
        assert data["max_deviation"] < 1e-9

    @pytest.mark.parametrize("weights", [
        "0.75,0.25", "0.5,0.3,0.2", "1,0,0", "0.6,0.2,0.2",
        "0.4,0.3,0.2,0.1", "0.5,0.2,0.2,0.1,0", "0.3,0.25,0.2,0.15,0.1,0"])
    def test_tensor_matches_direction_by_direction_solves(self, capsys,
                                                         weights):
        # the chart solved in one call against one solve per direction
        code, out, _ = run(["tensor", "--weights", weights], capsys)
        assert code == 0
        tensor = json.loads(out)["tensor"]
        k = MixingWeights([float(v) for v in weights.split(",")])
        basis = build_basis(k.dimension)
        constants = compute_structure_constants(basis)
        state = base_point(k, basis)
        reference = fisher_tensor(state, [
            solve(assemble(state, form, constants), state)
            for form in chart_tangents(k, basis)])
        assert tensor["directions"] == reference.directions
        g = np.array(tensor["g"]).reshape(reference.symmetric.shape)
        omega = np.array(tensor["omega"]).reshape(g.shape)
        assert np.abs(g - reference.symmetric).max(initial=0.0) <= 1e-14
        assert np.abs(omega - reference.antisymmetric).max(initial=0.0) \
            <= 1e-14

    @pytest.mark.parametrize("args, message", [
        (["--weights", "1"], "tensor needs 2 to 16 weights, got 1"),
        (["--weights", ",".join(["0.05"] * 17)],
         "tensor needs 2 to 16 weights, got 17"),
        (["--weights", "0.5,0.3,0.2", "--allow-degenerate"],
         "unrecognized arguments: --allow-degenerate"),
    ], ids=["one", "seventeen", "allow-degenerate"])
    def test_usage_errors(self, capsys, args, message):
        code, out, err = run(["tensor"] + args, capsys)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_rank2_dispatch(self, capsys):
        code, out, _ = run(["tensor", "--weights", "0.6,0.4,0"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["closed_form"]["pairs"][1] == pytest.approx([2.4, -2.4],
                                                                abs=1e-12)
        assert data["max_deviation"] < 1e-9


class TestInvalidNumbers:
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "1e-12",
                                     "abc", ""])
    def test_rejects_tolerance(self, tmp_path, capsys, monkeypatch, tol):
        family = write_family(tmp_path, QUBIT_FAMILY)
        numeric = tol not in ("abc", "")
        code, _, err = run(["sld", "--input", family, "--tol", tol], capsys)
        assert code == 1
        # argparse itself rejects a --tol that is not a number
        assert ("tolerance" if numeric else "argument --tol") in err
        monkeypatch.setenv("SLDKIT_TOL", tol)
        code, _, err = run(["sld", "--input", family], capsys)
        assert code == 1
        assert "tolerance" in err
        assert err.startswith("error: SLDKIT_TOL: ")
        if not numeric:
            assert err == ("error: SLDKIT_TOL: tolerance must be a number, "
                           f"got {tol!r}\n")

    @pytest.mark.parametrize("field, value, family", [
        ("weights", [float("nan"), 0.25], QUBIT_FAMILY),
        ("generator_coeffs", [0.0, float("inf"), 0.0], QUBIT_FAMILY),
        ("weight_rates", [float("nan"), -1.0], WEIGHT_PATH_FAMILY),
        ("matrices", [[0.0, matrix_to_pairs(np.diag([0.7, 0.3]))],
                      [0.1, matrix_to_pairs(np.diag([np.nan, 0.4]))]], None),
        ("fd_step", float("nan"), None),
    ])
    def test_rejects_non_finite_family(self, tmp_path, capsys, field, value,
                                       family):
        path = write_family(tmp_path, dict(family or SAMPLED_FAMILY,
                                           **{field: value}))
        code, _, err = run(["qfi", "--input", path, "--thetas", "0.05"],
                           capsys)
        assert code == 1
        assert field in err and "finite" in err

    @pytest.mark.parametrize("field, value, family, message", [
        ("n", [2], QUBIT_FAMILY, "n must be a single number"),
        ("n", 2.9, QUBIT_FAMILY, "n must be an integer"),
        ("generator_coeffs", {"a": 1}, QUBIT_FAMILY,
         "generator_coeffs must be numeric"),
        ("matrices", [[[0.0], matrix_to_pairs(np.diag([0.7, 0.3]))],
                      [[0.1], matrix_to_pairs(np.diag([0.6, 0.4]))]],
         SAMPLED_FAMILY, "sample theta must be a single number"),
        ("weights", {"a": 1}, QUBIT_FAMILY, "weights must be numeric"),
        ("matrices", 5, SAMPLED_FAMILY, "matrices must be a list"),
        ("fd_step", [1e-3, 1e-4], SAMPLED_FAMILY,
         "fd_step must be a single number"),
    ], ids=["n-list", "n-fraction", "coeffs-dict", "theta-list", "weights-dict",
            "matrices-int", "fd_step-list"])
    def test_rejects_wrong_types(self, tmp_path, capsys, field, value, family,
                                 message):
        path = write_family(tmp_path, dict(family, **{field: value}))
        code, out, err = run(["sld", "--input", path], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("args", [
        ["sld", "--theta", "nan"],
        ["qfi", "--thetas", "0,nan"],
        ["qfi", "--theta-range", "0:inf:3"],
    ])
    def test_rejects_non_finite_theta(self, tmp_path, capsys, args):
        family = write_family(tmp_path, QUBIT_FAMILY)
        code, _, err = run(args[:1] + ["--input", family] + args[1:], capsys)
        assert code == 1
        assert "theta must be finite" in err

    @pytest.mark.parametrize("args, message", [
        (["--theta-range", "0:1:1e3"],
         "theta range count must be an integer, got '1e3'"),
        (["--theta-range", "0:1:3.0"],
         "theta range count must be an integer, got '3.0'"),
        (["--theta-range", "0:1:"],
         "theta range count must be an integer, got ''"),
        (["--thetas", "0.1,abc"], "thetas must be numeric, got 'abc'"),
        (["--theta-range", "0:1"], "theta range must be START:STOP:COUNT"),
        (["--theta-range", "0:1:0"], "theta range count must be at least 1"),
    ], ids=["count-float", "count-decimal", "count-empty", "thetas-word",
            "range-parts", "count-zero"])
    def test_rejects_unparsable_thetas(self, tmp_path, capsys, args,
                                       message):
        family = write_family(tmp_path, QUBIT_FAMILY)
        got = run(["qfi", "--input", family] + args, capsys)
        assert got == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("weights, message", [
        ("0.5,0.3,nan", "weights must be finite"),
        ("0.5,abc", "weights must be numeric, got 'abc'"),
    ], ids=["nan", "word"])
    def test_rejects_non_finite_tensor_weights(self, capsys, weights,
                                               message):
        got = run(["tensor", "--weights", weights], capsys)
        assert got == (1, "", f"error: {message}\n")


class TestJsonRoundTrip:
    def test_emitted_json_reparses_identically(self, tmp_path, capsys):
        family = write_family(tmp_path, QUBIT_FAMILY)
        # 100 thetas at n = 8 are two blocks of the sweep
        octet = write_family(tmp_path, {
            "kind": "exp_generator", "n": 8,
            "weights": (np.arange(8, 0, -1) / 36).tolist(),
            "generator_coeffs": np.linspace(-1, 1, 63).tolist()}, "n8.json")
        assert 100 > sld_solver._BLOCK_BYTES // (16 * 8 ** 2)
        cases = [
            ["basis", "--n", "3"],
            ["sld", "--input", family, "--theta", "0.3"],
            ["qfi", "--input", family, "--thetas", "0,0.25"],
            ["qfi", "--input", family, "--thetas", "-0.0,0.25",
             "--check-oracle"],
            ["qfi", "--input", octet, "--theta-range", "0:1:100",
             "--check-oracle"],
            ["tensor", "--weights", "0.5,0.3,0.2"],
        ]
        for args in cases:
            code, out, _ = run(args, capsys)
            assert code == 0
            parsed = json.loads(out)
            assert json.dumps(parsed, indent=2) + "\n" == out

    @pytest.mark.parametrize("tail", [True, False], ids=["tail", "no-tail"])
    def test_rows_writer_matches_the_indented_encoder(self, tail):
        values = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
                  1e16, 0.1, 1 / 3]
        columns = {"theta": values, "qfi": values[::-1],
                   "qfi_oracle": values[2:] + values[:2],
                   "abs_dev": values[5:] + values[:5]}
        payload = {"rows": [dict(zip(columns, row))
                            for row in zip(*columns.values())]}
        if tail:
            payload["max_abs_dev"] = float("inf")
        expected = json.dumps(payload, indent=2) + "\n"
        assert cli._rows_json(columns, payload.get("max_abs_dev")) == expected

    def test_csv_rows_are_the_json_rows(self, tmp_path, capsys):
        family = write_family(tmp_path, QUTRIT_FAMILY)
        args = ["qfi", "--input", family, "--thetas", "-0.0,0.3,1e-300",
                "--check-oracle"]
        _, out, _ = run(args, capsys)
        rows = json.loads(out)["rows"]
        code, out, _ = run(args + ["--format", "csv"], capsys)
        assert code == 0
        assert out == "theta,qfi,qfi_oracle,abs_dev\r\n" + "".join(
            ",".join(map(repr, row.values())) + "\r\n" for row in rows)


class TestFamilyValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            parse_family({"kind": "nope", "n": 2})

    def test_missing_fields(self):
        with pytest.raises(ValueError, match="missing"):
            parse_family({"kind": "exp_generator", "n": 2,
                          "weights": [0.5, 0.5]})

    def test_foreign_fields_rejected(self):
        spec = dict(QUBIT_FAMILY)
        spec["weight_rates"] = [1.0, -1.0]
        with pytest.raises(ValueError, match="does not accept"):
            parse_family(spec)

    def test_coefficient_length_checked(self):
        spec = dict(QUBIT_FAMILY)
        spec["generator_coeffs"] = [0.0, 0.5]
        with pytest.raises(ValueError, match="length"):
            parse_family(spec)

    @pytest.mark.parametrize("payload, message", [
        ([QUBIT_FAMILY], "family description must be a JSON object"),
        ({"kind": "exp_generator"}, "family description is missing 'n'"),
        (dict(QUBIT_FAMILY, n=1), "dimension must be at least 2, got 1"),
        (dict(SAMPLED_FAMILY, matrices=[[0.0], [0.1]]),
         "each sample must be a [theta, matrix] pair"),
        (dict(SAMPLED_FAMILY, matrices=[
            [0.0, matrix_to_pairs(np.eye(3) / 3)],
            [0.1, matrix_to_pairs(np.eye(3) / 3)]]),
         "sample matrix has shape (3, 3), expected (2, 2)"),
        (dict(SAMPLED_FAMILY, matrices=SAMPLED_FAMILY["matrices"][:1]),
         "explicit_matrices needs at least two samples"),
        (dict(WEIGHT_PATH_FAMILY, weight_rates=[0.5, -0.25, -0.25]),
         "weight_rates must have length 2, got shape (3,)"),
    ], ids=["not-object", "no-n", "n-1", "not-pair", "sample-shape",
            "one-sample", "rates-length"])
    def test_rejects_malformed_family(self, tmp_path, capsys, payload,
                                      message):
        family = write_family(tmp_path, payload)
        got = run(["sld", "--input", family], capsys)
        assert got == (1, "", f"error: {message}\n")

    def test_weight_path_validates_rates(self, tmp_path, capsys):
        family = write_family(tmp_path, {
            "kind": "weight_path", "n": 2,
            "weights": [0.75, 0.25], "weight_rates": [1.0, 0.0],
        })
        for thetas in ("0", "0.1"):
            code, _, err = run(["qfi", "--input", family, "--thetas", thetas],
                               capsys)
            assert code == 1
            assert "sum to zero" in err

    @pytest.mark.parametrize("args, theta, level, value", [
        (["qfi", "--thetas", "0,0.7"], "0.7", 2, "-0.2"),
        (["sld", "--theta", "-0.6"], "-0.6", 1, "-0.1"),
    ], ids=["qfi", "sld"])
    def test_weight_path_domain_checked_before_first_solve(
            self, tmp_path, capsys, monkeypatch, args, theta, level, value):
        family = write_family(tmp_path, dict(WEIGHT_PATH_FAMILY,
                                             weights=[0.5, 0.5]))
        evaluated = []
        evaluate = cli.family_state_and_tangent

        def counting(spec, theta, **kwargs):
            evaluated.append(theta)
            return evaluate(spec, theta, **kwargs)

        monkeypatch.setattr(cli, "family_state_and_tangent", counting)
        code, out, err = run(args[:1] + ["--input", family] + args[1:], capsys)
        assert code == 1
        assert out == ""
        assert err == (f"error: theta {theta} drives weight {level} of the "
                       f"weight_path to {value}; its weights stay nonnegative "
                       "for theta in [-0.5, 0.5]\n")
        assert evaluated == []

    @pytest.mark.parametrize("value, message", [
        (0.0, "fd_step must be positive, got 0.0"),
        (-1e-3, "fd_step must be positive, got -0.001"),
        (float("nan"), "fd_step must be finite"),
        (float("inf"), "fd_step must be finite")])
    def test_fd_step_must_be_finite_and_positive(self, value, message):
        with pytest.raises(ValueError, match=message):
            parse_family(dict(SAMPLED_FAMILY, fd_step=value))

    @staticmethod
    def count_evaluations(monkeypatch):
        evaluated = []
        evaluate = cli.family_state_and_tangent

        def counting(spec, thetas, **kwargs):
            evaluated.append(thetas)
            return evaluate(spec, thetas, **kwargs)

        monkeypatch.setattr(cli, "family_state_and_tangent", counting)
        return evaluated

    @pytest.mark.parametrize("payload", [QUBIT_FAMILY, SAMPLED_FAMILY,
                                         WEIGHT_PATH_FAMILY],
                             ids=["exp_generator", "explicit", "weight_path"])
    @pytest.mark.parametrize("step, message", [
        ("-5", "fd_step must be positive, got -5.0"),
        ("0", "fd_step must be positive, got 0.0"),
        ("nan", "fd_step must be finite")])
    @pytest.mark.parametrize("command", [["qfi", "--thetas", "0,0.05"],
                                         ["sld", "--theta", "0.05"]],
                             ids=["qfi", "sld"])
    def test_fd_step_flag_checked_for_every_kind(
            self, tmp_path, capsys, monkeypatch, payload, step, message,
            command):
        family = write_family(tmp_path, payload)
        evaluated = self.count_evaluations(monkeypatch)
        got = run(command[:1] + ["--input", family, "--fd-step", step]
                  + command[1:], capsys)
        assert got == (1, "", f"error: {message}\n")
        assert evaluated == []

    def test_fd_step_range_checked_before_first_theta(
            self, tmp_path, capsys, monkeypatch):
        # the first sample is not Hermitian: evaluating theta 0 would fail
        # there, but the step is checked before any theta is evaluated
        family = write_family(tmp_path, dict(SAMPLED_FAMILY, fd_step=0.2,
                                             matrices=[
            [0.0, matrix_to_pairs([[0.7, 0.3], [0.0, 0.3]])],
            [0.1, matrix_to_pairs(np.diag([0.6, 0.4]))]]))
        evaluated = self.count_evaluations(monkeypatch)
        code, out, err = run(["qfi", "--input", family, "--thetas", "0,0.1"],
                             capsys)
        assert (code, out) == (1, "")
        assert err == ("error: fd_step 0.2 exceeds half the sampled range "
                       "[0.0, 0.1]\n")
        assert evaluated == []

    def test_usage_error_on_unknown_flag(self, capsys):
        code, _, err = run(["basis", "--n", "2", "--bogus"], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_csv_only_for_qfi(self, capsys):
        code, _, err = run(["basis", "--n", "2", "--format", "csv"], capsys)
        assert code == 1
        assert "csv" in err


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    # a huge tolerance makes every eigenvalue kernel: every level pair is
    # dropped, the rejection limit tol * max(1, ||drho||_F) admits the form,
    # and the minimum-norm representative is zero
    family = write_family(tmp_path, QUBIT_FAMILY)
    monkeypatch.setenv("SLDKIT_TOL", "1e3")
    code, out, _ = run(["sld", "--input", family], capsys)
    assert code == 0
    assert np.abs(json.loads(out)["L"]).max() < 1e-12
    monkeypatch.delenv("SLDKIT_TOL")
    code, out, _ = run(["sld", "--input", family], capsys)
    assert code == 0
    assert json.loads(out)["L"][0] == pytest.approx(0.5, abs=1e-12)
    # explicit flag wins over the environment
    monkeypatch.setenv("SLDKIT_TOL", "1e3")
    code, out, _ = run(["sld", "--input", family, "--tol", "1e-10"], capsys)
    assert code == 0
    assert json.loads(out)["L"][0] == pytest.approx(0.5, abs=1e-12)


class TestParserReuse:
    """main builds its parser once per process; every call parses afresh."""

    def test_one_parser_per_process(self, capsys, monkeypatch):
        built = []

        def counting_build():
            built.append(1)
            return build_parser()

        cli._shared_parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build)
        for args in (["basis", "--n", "2"], ["basis", "--bogus"],
                     ["tensor", "--weights", "0.5,0.3,0.2"]):
            run(args, capsys)
        assert len(built) == 1
        assert build_parser() is not build_parser()

    def test_reused_parser_matches_fresh_parser(self, tmp_path, capsys,
                                                monkeypatch):
        family = write_family(tmp_path, QUBIT_FAMILY)
        calls = [
            (["qfi", "--input", family, "--thetas", "0,0.5", "--check-oracle"],
             None),
            (["qfi", "--input", family, "--thetas", "0,0.5"], None),
            (["sld", "--input", family, "--tol", "1e-6"], None),
            (["sld", "--input", family], "1e3"),
            (["basis", "--n", "2", "--bogus"], None),
            (["basis", "--n", "2"], None),
            (["--help"], None),
            (["qfi", "--help"], None),
        ]

        def run_calls():
            results = []
            for args, env_tol in calls:
                monkeypatch.delenv("SLDKIT_TOL", raising=False)
                if env_tol is not None:
                    monkeypatch.setenv("SLDKIT_TOL", env_tol)
                results.append(run(args, capsys))
            return results

        shared = run_calls()
        parser = cli._shared_parser()
        monkeypatch.setattr(cli, "_shared_parser", build_parser)
        fresh = run_calls()
        assert shared == fresh
        # what each call had to show, so equal results are not equally wrong
        assert "qfi_oracle" in shared[0][1] and "qfi_oracle" not in shared[1][1]
        assert json.loads(shared[2][1])["L"][0] == pytest.approx(0.5, abs=1e-12)
        assert np.abs(json.loads(shared[3][1])["L"]).max() < 1e-12
        assert shared[4][0] == 1 and shared[4][2].startswith("error:")
        assert shared[5][0] == 0 and shared[6][0] == 0
        assert "usage: sldkit" in shared[6][1]
        assert "--check-oracle" in shared[7][1]
        for args, _ in calls[:4]:
            assert vars(parser.parse_args(args)) == \
                vars(build_parser().parse_args(args))


SHUFFLED_THETAS = [0.9, -0.3, 0.45, 0.0, 1.3, 0.45, 0.1]


class TestPerThetaWork:
    """A parsed family holds what theta does not change."""

    @pytest.mark.parametrize("count", [1, 3, 8, 900])
    def test_exp_generator_sweep_eigh_calls(self, tmp_path, capsys,
                                            monkeypatch, count):
        family = write_family(tmp_path, PURE_QUTRIT_FAMILY)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        code, _, _ = run(["qfi", "--input", family, "--theta-range",
                          f"0:1:{count}", "--check-oracle"], capsys)
        assert code == 0
        # K's eigh once, then one stacked eigh per block of thetas
        block = sld_solver._BLOCK_BYTES // (16 * 3 ** 2)
        assert len(calls) == 1 + -(-count // block)
        assert (count > block) == (len(calls) > 2)

    @pytest.mark.parametrize("payload, method, thetas", [
        (QUBIT_FAMILY, "general", SHUFFLED_THETAS),
        (QUBIT_FAMILY, "oracle", SHUFFLED_THETAS),
        (QUBIT_FAMILY, "closed", SHUFFLED_THETAS),
        (PURE_QUTRIT_FAMILY, "general", SHUFFLED_THETAS),
        (QUTRIT_FAMILY, "closed", SHUFFLED_THETAS),
        ({"kind": "explicit_matrices", "n": 2, "fd_step": 1e-4,
          "matrices": [[0.0, matrix_to_pairs(np.diag([0.7, 0.3]))],
                       [0.1, matrix_to_pairs([[0.6, 0.1j], [-0.1j, 0.4]])],
                       [0.3, matrix_to_pairs([[0.5, 0.2], [0.2, 0.5]])]]},
         "general", [0.2, 0.05, 0.29, 0.1, 0.01, 0.25]),
        (WEIGHT_PATH_FAMILY, "general", [0.1, -0.2, 0.0, 0.2, -0.05]),
    ], ids=["exp-general", "exp-oracle", "closed-u2", "exp-pure",
            "closed-u3", "explicit", "weight_path"])
    def test_one_spec_matches_fresh_spec_per_theta(self, payload, method,
                                                   thetas):
        spec = parse_family(payload)
        for theta in thetas:
            shared = cli._solve_family(spec, np.array([theta]), method,
                                       DEFAULT_TOL)
            fresh = cli._solve_family(parse_family(payload),
                                      np.array([theta]), method, DEFAULT_TOL)
            for a, b in zip(shared, fresh):
                assert np.array_equal(a.matrix, b.matrix)
                assert np.array_equal(a.coeffs, b.coeffs)
            assert np.array_equal(shared[2].residual, fresh[2].residual)
            assert np.array_equal(shared[2].gauge_dim, fresh[2].gauge_dim)
