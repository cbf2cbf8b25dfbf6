"""Command-line interface: commands, formats, exit-status contract."""

import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_lu_solves

import sldkit
from sldkit import (DensityState, MixingWeights, TangentForm, assemble,
                    base_point, build_basis, chart_tangents, cli,
                    compute_structure_constants, fisher_tensor,
                    sld_eigenbasis, sld_solver, solve)
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

#: rank 2 at n = 4, so the kernel gauge and its projector run
RANK2_QUQUART_FAMILY = {
    "kind": "exp_generator",
    "n": 4,
    "weights": [0.6, 0.4, 0.0, 0.0],
    "generator_coeffs": [0.3, 0.0, 0.5, 0.0, 0.0, 0.2, 0.0, 0.0, 0.1, 0.0,
                         0.0, 0.0, 0.4, 0.0, 0.0],
}

PURE_QUTRIT_FAMILY = {
    "kind": "exp_generator",
    "n": 3,
    "weights": [1.0, 0.0, 0.0],
    "generator_coeffs": [0.3, 0.1, 0.0, 0.2, -0.4, 0.0, 0.0, 0.0],
}


def library_sld(spec, theta, method):
    """The SLD at ``theta`` from the library's one-state calls on the
    family's state and tangent there."""
    thetas = np.array([theta])
    states, forms = cli.family_state_and_tangent(spec, thetas)
    basis = build_basis(spec.n)
    state = DensityState.from_matrix(states.matrix[0], basis)
    form = TangentForm.from_matrix(forms.matrix[0], basis)
    if method == "general":
        return solve(assemble(state, form, compute_structure_constants(basis)),
                     state)
    if method == "oracle":
        return sld_eigenbasis(state, form)
    U = cli._rotation(spec, thetas)[0]
    return sld_solver._pair_rule_solution(
        spec.weights.values, U, sld_solver._in_frame(U, form.matrix),
        state.matrix, form.matrix, DEFAULT_TOL, basis)


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
        solution = library_sld(parse_family(QUBIT_FAMILY), float(theta),
                               "general")
        assert spaced[1] == json.dumps(solution.to_json_dict(),
                                       indent=2) + "\n"

    @pytest.mark.parametrize("method", ["general", "oracle", "closed"])
    @pytest.mark.parametrize("payload, gauge_dim", [
        (QUTRIT_FAMILY, 0),
        (dict(QUTRIT_FAMILY, weights=[0.6, 0.4, 0.0]), 1),
        (dict(QUQUART_FAMILY, weights=[0.5, 0.5, 0.0, 0.0]), 4),
        ({"kind": "explicit_matrices", "n": 3, "matrices": [
            [0.0, matrix_to_pairs(np.diag([0.5, 0.3, 0.2]))],
            [1.0, matrix_to_pairs([[0.4, 0.1j, 0.05], [-0.1j, 0.3, 0.0],
                                   [0.05, 0.0, 0.3]])]]}, 0),
        ({"kind": "explicit_matrices", "n": 3, "matrices": [
            [0.0, matrix_to_pairs(np.diag([0.6, 0.4, 0.0]))],
            [1.0, matrix_to_pairs([[0.5, 0.1j, 0.0], [-0.1j, 0.5, 0.0],
                                   [0.0, 0.0, 0.0]])]]}, 1),
        ({"kind": "weight_path", "n": 3, "weights": [0.5, 0.3, 0.2],
          "weight_rates": [0.1, -0.05, -0.05]}, 0),
        ({"kind": "weight_path", "n": 3, "weights": [0.6, 0.4, 0.0],
          "weight_rates": [0.1, -0.1, 0.0]}, 1),
        (RANK2_QUQUART_FAMILY, 4),
    ], ids=["exp-full", "exp-deficient", "exp-rank2", "explicit-full",
            "explicit-deficient", "weight_path-full",
            "weight_path-deficient", "exp-rank2-sparse"])
    def test_sld_is_the_library_solve(self, tmp_path, capsys, payload,
                                      gauge_dim, method):
        # the one-state library call on the family's state and tangent,
        # written as it is: general solve, oracle, or the closed form in
        # the frame U(theta)
        family = write_family(tmp_path, payload)
        got = run(["sld", "--input", family, "--theta", "0.3", "--method",
                   method], capsys)
        spec = parse_family(payload)
        if method == "closed" and spec.kind != "exp_generator":
            assert got == (1, "", "error: method 'closed' requires an "
                                  "exp_generator family\n")
            return
        solution = library_sld(spec, 0.3, method)
        assert solution.gauge_dim == gauge_dim
        assert got == (0, json.dumps(solution.to_json_dict(), indent=2)
                       + "\n", "")

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

    @pytest.mark.parametrize("raw, reason", [
        (b"not json", "Expecting value: line 1 column 1 (char 0)"),
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position "
                        "0: invalid start byte"),
        (b"[" * 100000, "maximum recursion depth exceeded while decoding a "
                        "JSON array from a unicode string"),
    ], ids=["text", "empty", "not-utf8", "deep"])
    def test_unreadable_input_names_the_file(self, tmp_path, capsys, raw,
                                             reason):
        path = tmp_path / "family.json"
        path.write_bytes(raw)
        for command in (["sld"], ["qfi", "--thetas", "0"]):
            got = run(command[:1] + ["--input", str(path)] + command[1:],
                      capsys)
            assert got == (1, "", f"error: cannot read family file "
                                  f"{str(path)!r}: {reason}\n")

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

    @pytest.mark.parametrize("payload, bound", [
        (QUBIT_FAMILY, 1e-9), (RANK2_QUQUART_FAMILY, 1e-10)],
        ids=["qubit", "n4-rank2"])
    def test_check_oracle_summary(self, tmp_path, capsys, payload, bound):
        family = write_family(tmp_path, payload)
        code, out, _ = run(["qfi", "--input", family,
                            "--theta-range", "0:1:5", "--check-oracle"],
                           capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data["rows"]) == 5
        assert data["max_abs_dev"] < bound

    def test_explicit_matrices_family(self, tmp_path, capsys):
        # diagonal family linear in theta: rho = diag(0.75 - t/10, 0.25 + t/10),
        # sampled every 0.1: theta 0 is a knot, and 0.2 lies 7e-17 below one
        thetas = np.linspace(-0.5, 0.5, 11)
        samples = [[float(t),
                    matrix_to_pairs(np.diag([0.75 - 0.1 * t, 0.25 + 0.1 * t]))]
                   for t in thetas]
        family = write_family(tmp_path, {
            "kind": "explicit_matrices", "n": 2, "matrices": samples,
        })
        code, out, _ = run(["qfi", "--input", family,
                            "--thetas", "0,0.13,0.2,0.37"], capsys)
        assert code == 0
        for row in json.loads(out)["rows"]:
            t = row["theta"]
            # sum dk_i^2 / k_i
            expected = 0.01 / (0.75 - 0.1 * t) + 0.01 / (0.25 + 0.1 * t)
            assert row["qfi"] == pytest.approx(expected, rel=1e-13)

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
        # the tangent is the slope of the segment that holds theta: each end
        # takes its end segment's slope, and the knot 0.1 its left segment's
        from sldkit import DensityState, TangentForm, qfi_eigenbasis
        mats = [np.diag([0.7, 0.3]), np.array([[0.6, 0.1j], [-0.1j, 0.4]]),
                np.array([[0.5, 0.2], [0.2, 0.5]])]
        payload = {"kind": "explicit_matrices", "n": 2,
                   "matrices": [[t, matrix_to_pairs(m)]
                                for t, m in zip((0.0, 0.1, 0.3), mats)]}
        family = write_family(tmp_path, payload)
        thetas = [0.0, 0.05, 0.1, 0.2, 0.3]
        code, out, err = run(["qfi", "--input", family, "--thetas",
                              ",".join(map(str, thetas))], capsys)
        assert code == 0, err
        spec = parse_family(payload)
        samples = spec.sample_matrices
        slopes = [(samples[1] - samples[0]) / (0.1 - 0.0),
                  (samples[2] - samples[1]) / (0.3 - 0.1)]
        segments = [0, 0, 0, 1, 1]
        states = [mats[0], (mats[0] + mats[1]) / 2, mats[1],
                  (mats[1] + mats[2]) / 2, mats[2]]
        for row, state, segment in zip(json.loads(out)["rows"], states,
                                       segments):
            expected = qfi_eigenbasis(DensityState.from_matrix(state),
                                      TangentForm.from_matrix(slopes[segment]))
            assert row["qfi"] == pytest.approx(expected, rel=1e-12)
        # each tangent is its segment's slope, Hermitised, bit for bit
        _, forms = cli.family_state_and_tangent(spec, np.array(thetas))
        for form, coeffs, segment in zip(forms.matrix, forms.coeffs,
                                         segments):
            slope = 0.5 * (slopes[segment] + slopes[segment].conj().T)
            assert form.tobytes() == slope.tobytes()
            assert coeffs.tobytes() == TangentForm.from_matrix(
                slope).coeffs.tobytes()
        code, out, err = run(["sld", "--input", family, "--theta", "0.3"],
                             capsys)
        assert code == 0, err
        assert json.loads(out)["residual"] < 1e-10

    @pytest.mark.parametrize("command", [["qfi", "--thetas", "0"],
                                         ["sld", "--theta", "0"]],
                             ids=["qfi", "sld"])
    @pytest.mark.parametrize("repeated", [0.0, 0.5], ids=["lowest", "inner"])
    def test_repeated_sample_theta_is_refused(self, tmp_path, capsys, command,
                                              repeated):
        # two samples at one theta make a zero-width segment, a jump with
        # no slope: the family is refused, whichever theta is asked for
        family = write_family(tmp_path, {
            "kind": "explicit_matrices", "n": 2,
            "matrices": [[repeated, matrix_to_pairs(np.diag([0.7, 0.3]))],
                         [1.0, matrix_to_pairs(np.diag([0.5, 0.5]))],
                         [repeated, matrix_to_pairs(np.diag([0.6, 0.4]))],
                         [0.0 if repeated else 0.5,
                          matrix_to_pairs(np.diag([0.65, 0.35]))]]})
        got = run(command[:1] + ["--input", family] + command[1:], capsys)
        assert got == (1, "", f"error: sample theta {repeated!r} is repeated: "
                              "explicit_matrices needs distinct sample "
                              "thetas\n")

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
            "kind": "explicit_matrices", "n": 2,
            "matrices": [[0.0, matrix_to_pairs(np.diag([1.0, 0.0]))],
                         [0.5, matrix_to_pairs(np.diag([0.9, 0.1]))],
                         [1.0, matrix_to_pairs([[0.5, 0.3], [0.0, 0.5]])]]})
        got = run(["qfi", "--input", family, "--thetas", thetas], capsys)
        assert got == (code, "", f"error: {message}\n")

    def test_first_failure_after_a_passing_prefix(self, tmp_path, capsys):
        # thetas up to 0.4 pass; 0.5 is pure and its tangent, the slope of
        # its left segment, sits on the kernel level (a solve-stage error);
        # 0.8 is not Hermitian (a state-stage error, which the run of the
        # whole block meets first).  Only halves searched in order, the
        # first before the second, and split down to one theta reach 0.5.
        family = write_family(tmp_path, {
            "kind": "explicit_matrices", "n": 2,
            "matrices": [[0.0, matrix_to_pairs(np.diag([0.9, 0.1]))],
                         [0.5, matrix_to_pairs(np.diag([1.0, 0.0]))],
                         [1.0, matrix_to_pairs([[0.5, 0.3], [0.0, 0.5]])]]})
        got = run(["qfi", "--input", family,
                   "--thetas", "0.1,0.2,0.3,0.4,0.5,0.8"], capsys)
        assert got == (2, "", "error: kernel-inconsistent tangent: "
                              "<0|drho|0> = -2.000e-01+0.000e+00j on a pair "
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
        # n = 16 in one LU solve: weights 16..1 keep all 120 pairs, and two
        # zero weights drop the pair of the kernel levels
        pytest.param(",".join(repr(k / 136) for k in range(16, 0, -1)), 240,
                     id="n16"),
        pytest.param(",".join([repr(k / 105) for k in range(14, 0, -1)]
                              + ["0", "0"]), 238, id="n16-rank14"),
    ])
    def test_any_dimension(self, capsys, weights, directions):
        code, out, _ = run(["tensor", "--weights", weights], capsys)
        assert code == 0
        data = json.loads(out)
        n = len(weights.split(","))
        assert len(data["closed_form"]["pairs"]) == n * (n - 1) // 2
        assert data["tensor"]["directions"] == directions
        assert data["max_deviation"] <= 1e-12
        assert out == json.dumps(data, indent=2) + "\n"

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
        # the one state's held operator, every direction a column of its
        # stack of one right-hand-side block
        assert calls == [((n * n, n * n), (1, n * n, directions))]
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
        # a field the kind does not read is refused by name, whatever its
        # value holds
        ("fd_step", [1e-3, 1e-4], SAMPLED_FAMILY,
         "family kind 'explicit_matrices' does not accept fields: fd_step"),
        # numpy reads true and false as 1 and 0: before, the weights solved
        # as diag(1, 0) and n as "got 1"
        ("weights", [True, False], WEIGHT_PATH_FAMILY,
         "weights must be numeric"),
        ("weight_rates", [1.0, True], WEIGHT_PATH_FAMILY,
         "weight_rates must be numeric"),
        ("generator_coeffs", [True, 0, 0], QUBIT_FAMILY,
         "generator_coeffs must be numeric"),
        ("n", True, QUBIT_FAMILY, "n must be numeric"),
        ("matrices", [[True, SAMPLED_FAMILY["matrices"][0][1]],
                      SAMPLED_FAMILY["matrices"][1]],
         SAMPLED_FAMILY, "sample theta must be numeric"),
        ("matrices", [[0.0, [[[False, 0], [0, 0]], [[0, 0], [1, 0]]]],
                      SAMPLED_FAMILY["matrices"][1]],
         SAMPLED_FAMILY, "matrices must be numeric"),
        ("fd_step", True, SAMPLED_FAMILY,
         "family kind 'explicit_matrices' does not accept fields: fd_step"),
        # numpy parses numeric strings: before, these solved
        ("weights", ["0.75", "0.25"], WEIGHT_PATH_FAMILY,
         "weights must be numeric"),
        ("weight_rates", [1.0, "-1"], WEIGHT_PATH_FAMILY,
         "weight_rates must be numeric"),
        ("generator_coeffs", ["0", 0.5, 0], QUBIT_FAMILY,
         "generator_coeffs must be numeric"),
        ("n", "2", QUBIT_FAMILY, "n must be numeric"),
        ("matrices", [["0", SAMPLED_FAMILY["matrices"][0][1]],
                      SAMPLED_FAMILY["matrices"][1]],
         SAMPLED_FAMILY, "sample theta must be numeric"),
        ("matrices", [[0.0, [[["0.7", 0], [0, 0]], [[0, 0], [0.3, 0]]]],
                      SAMPLED_FAMILY["matrices"][1]],
         SAMPLED_FAMILY, "matrices must be numeric"),
        ("fd_step", "1e-3", SAMPLED_FAMILY,
         "family kind 'explicit_matrices' does not accept fields: fd_step"),
        ("n", 10 ** 400, QUBIT_FAMILY, "n must be finite"),
    ], ids=["n-list", "n-fraction", "coeffs-dict", "theta-list", "weights-dict",
            "matrices-int", "fd_step-list", "weights-bool", "rates-bool",
            "coeffs-bool", "n-bool", "theta-bool", "matrix-bool",
            "fd_step-bool", "weights-str", "rates-str", "coeffs-str", "n-str",
            "theta-str", "matrix-str", "fd_step-str", "n-huge-int"])
    def test_rejects_wrong_types(self, tmp_path, capsys, field, value, family,
                                 message):
        path = write_family(tmp_path, dict(family, **{field: value}))
        code, out, err = run(["sld", "--input", path], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")

    def test_boolean_free_file_is_not_walked(self, tmp_path, monkeypatch):
        # the walk reads every value of the file: it runs only for a file
        # with a true or false token, such as a kind that holds one
        walked = []
        monkeypatch.setattr(cli, "_booleans_as_text", walked.append)
        assert cli._load_family(write_family(tmp_path, QUTRIT_FAMILY))
        assert walked == []
        with pytest.raises(ValueError, match="unknown family kind 'untrue'"):
            cli._load_family(write_family(tmp_path,
                                          dict(QUTRIT_FAMILY, kind="untrue")))
        assert len(walked) == 1

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
        (["--theta-range", "a:1:3"], "theta must be numeric, got 'a'"),
        (["--theta-range", "0:1x:3"], "theta must be numeric, got '1x'"),
    ], ids=["count-float", "count-decimal", "count-empty", "thetas-word",
            "range-parts", "count-zero", "start-word", "stop-word"])
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


#: str-keyed JSON values: runs of numbers, with ragged and empty rows among
#: them, mixed lists, and strings that hold the writer's separators
_JSON_NUMBERS = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308, 1e16, 0.1]))
_JSON_VALUES = st.recursive(
    st.one_of(_JSON_NUMBERS, st.booleans(), st.none(),
              st.text(max_size=4) | st.sampled_from([", ", "], [", "[]"]),
              st.lists(_JSON_NUMBERS, max_size=5),
              st.lists(st.lists(_JSON_NUMBERS, max_size=4), max_size=4)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.text(max_size=3) | st.sampled_from(['"', "é", "a\\b", "\n"]),
        inner, max_size=3),
    max_leaves=16)


class TestJsonRoundTrip:
    def test_emitted_json_reparses_identically(self, tmp_path, capsys):
        family = write_family(tmp_path, QUBIT_FAMILY)
        # 100 and 200 thetas at n = 8 are two and four blocks of the sweep
        octet = write_family(tmp_path, {
            "kind": "exp_generator", "n": 8,
            "weights": (np.arange(8, 0, -1) / 36).tolist(),
            "generator_coeffs": np.linspace(-1, 1, 63).tolist()}, "n8.json")
        block = sld_solver._BLOCK_BYTES // (16 * 8 ** 2)
        assert (-(-100 // block), -(-200 // block)) == (2, 4)
        cases = [
            ["basis", "--n", "3"],
            ["sld", "--input", family, "--theta", "0.3"],
            ["qfi", "--input", family, "--thetas", "0,0.25"],
            ["qfi", "--input", family, "--thetas", "-0.0,0.25",
             "--check-oracle"],
            ["qfi", "--input", octet, "--theta-range", "0:1:100",
             "--check-oracle"],
            ["qfi", "--input", octet, "--theta-range", "0:1:200",
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

    @settings(deadline=None, max_examples=300)
    @given(_JSON_VALUES)
    def test_writer_matches_the_indented_encoder(self, obj):
        assert cli._dump_json(obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("obj", [
        [[], [1.0], []], [[]], [[1, 2], [], [3.5, -0.0]], [[], []],
        [(1, 2.5), [3]], (1, 2), {"é\"\\": {}, "": []},
        ["], [", "a, b", ", "], [[1.0], ["], ["]], [1, [2, 3], 4.5],
        [[1.0, True]], [[1.0, None]], [[[1.0, 2.0], []], [[3.0, 4.0]]],
        [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308],
        [[float("nan")], [float("-inf"), 1e16, 1]], 7, -0.0, None, "x",
        [np.float64(0.1), 1.0], [[np.float64(-0.0)]], {"x": np.float64(2)},
    ])
    def test_writer_edge_cases(self, obj):
        assert cli._dump_json(obj) == json.dumps(obj, indent=2) + "\n"

    def test_writer_runs_numbers_through_the_c_encoder(self, monkeypatch):
        # one json.dumps per run of numbers: a list of number lists is one
        # call, and so is each flat list; Python walks only the containers
        calls = []
        dumps = json.dumps
        monkeypatch.setattr(cli.json, "dumps",
                            lambda obj: calls.append(obj) or dumps(obj))
        payload = {"g": [[1.0, 2.0], [3.0, 4.0]], "w": [0.5, 0.5],
                   "m": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        assert cli._dump_json(payload) == dumps(payload, indent=2) + "\n"
        assert calls == [payload["g"], payload["w"], *payload["m"]]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_basis_payload_is_the_indented_encoding(self, capsys, n):
        code, out, _ = run(["basis", "--n", str(n)], capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("payload", [
        QUTRIT_FAMILY, PURE_QUTRIT_FAMILY, QUQUART_FAMILY,
        dict(QUQUART_FAMILY, weights=[0.6, 0.4, 0.0, 0.0]), QUBIT_FAMILY],
        ids=["n3", "n3-rank1", "n4", "n4-rank2", "n2"])
    @pytest.mark.parametrize("method", ["general", "oracle", "closed"])
    def test_sld_payload_is_the_indented_encoding(self, tmp_path, capsys,
                                                  payload, method):
        family = write_family(tmp_path, payload)
        code, out, _ = run(["sld", "--input", family, "--theta", "0.3",
                            "--method", method], capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("n", range(2, 17))
    @pytest.mark.parametrize("shape", ["distinct", "repeated", "zeros"])
    def test_tensor_payload_is_the_indented_encoding(self, capsys, n, shape):
        weights = np.arange(n, 0, -1.0)
        if shape == "repeated":
            weights = np.repeat(weights[::2], 2)[:n]
        elif shape == "zeros":
            weights[n // 2:] = 0.0
        weights = weights / weights.sum()
        code, out, _ = run(["tensor", "--weights",
                            ",".join(repr(float(w)) for w in weights)],
                           capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

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

    def test_foreign_fields_rejected(self, tmp_path, capsys):
        for payload, field in [
                (dict(QUBIT_FAMILY, weight_rates=[1.0, -1.0]), "weight_rates"),
                (dict(SAMPLED_FAMILY, fd_step=1e-3), "fd_step")]:
            message = (f"family kind {payload['kind']!r} does not accept "
                       f"fields: {field}")
            with pytest.raises(ValueError, match=message):
                parse_family(payload)
            got = run(["sld", "--input", write_family(tmp_path, payload)],
                      capsys)
            assert got == (1, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("payload", [QUBIT_FAMILY, SAMPLED_FAMILY,
                                         WEIGHT_PATH_FAMILY],
                             ids=["exp_generator", "explicit", "weight_path"])
    @pytest.mark.parametrize("step", ["1e-3", "-5", "0", "nan"])
    @pytest.mark.parametrize("command", [["qfi", "--thetas", "0,0.05"],
                                         ["sld", "--theta", "0.05"]],
                             ids=["qfi", "sld"])
    def test_fd_step_flag_refused_for_every_kind(
            self, tmp_path, capsys, monkeypatch, payload, step, command):
        # no kind reads a step, whatever its value: the parser refuses the
        # flag before any theta is evaluated
        family = write_family(tmp_path, payload)
        evaluated = []
        monkeypatch.setattr(cli, "family_state_and_tangent",
                            lambda *args, **kwargs: evaluated.append(args))
        got = run(command[:1] + ["--input", family, "--fd-step", step]
                  + command[1:], capsys)
        assert got == (1, "", f"error: unrecognized arguments: --fd-step "
                              f"{step}\n")
        assert evaluated == []

    def test_usage_error_on_unknown_flag(self, capsys):
        code, _, err = run(["basis", "--n", "2", "--bogus"], capsys)
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv, message", [
        (["basis", "--n", "2", "--tol", "nan"], "--tol nan"),
        (["basis", "--n", "2", "--tol", "1e-8"], "--tol 1e-8"),
        (["basis", "--n", "2", "--format", "json"], "--format json"),
        (["basis", "--n", "2", "--format", "csv"], "--format csv"),
        (["sld", "--input", "f.json", "--format", "json"], "--format json"),
        (["tensor", "--weights", "0.5,0.5", "--format", "csv"],
         "--format csv"),
        (["sld", "--input", "f.json", "--fd-step", "1e-3"], "--fd-step 1e-3"),
        (["qfi", "--input", "f.json", "--thetas", "0", "--fd-step", "1e-3"],
         "--fd-step 1e-3"),
        # a prefix of a flag is no spelling of it
        (["qfi", "--input", "f.json", "--thetas", "0", "--form", "csv"],
         "--form csv"),
        (["basis", "--n", "2", "--out", "b.json"], "--out b.json"),
        (["sld", "--inp", "f.json", "--the", "0.1", "--meth", "oracle"],
         None),
    ], ids=["basis-tol-nan", "basis-tol", "basis-json", "basis-csv",
            "sld-json", "tensor-csv", "sld-fd-step", "qfi-fd-step",
            "qfi-form", "basis-out", "sld-prefixes"])
    def test_flag_the_command_does_not_read(self, tmp_path, monkeypatch,
                                            capsys, argv, message):
        # refused by the parser, before any file is read or written
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err == ("error: the following arguments are required: --input\n"
                       if message is None
                       else f"error: unrecognized arguments: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flags", [
        ("basis", ["--n", "--output"]),
        ("sld", ["--input", "--method", "--theta", "--output", "--tol"]),
        ("qfi", ["--input", "--method", "--thetas", "--theta-range",
                 "--check-oracle", "--output", "--format", "--tol"]),
        ("tensor", ["--weights", "--output", "--tol"]),
    ], ids=["basis", "sld", "qfi", "tensor"])
    def test_each_command_lists_only_its_flags(self, capsys, command, flags):
        code, out, _ = run([command, "-h"], capsys)
        assert code == 0
        assert re.findall(r"^  (?:-h, )?(--[a-z-]+)", out, re.M) == [
            "--help", *flags]
        assert ("--format {json,csv}" in out) == (command == "qfi")


def _run_child(argv, preexec_fn=None):
    """``python -m sldkit.cli argv`` in a fresh process, where numpy's
    warnings print to stderr (pytest turns them into errors)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(sldkit.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-m", "sldkit.cli", *argv],
                            env=env, preexec_fn=preexec_fn,
                            capture_output=True, text=True, timeout=30)
    return result.returncode, result.stdout, result.stderr


def _basis_size(n):
    return (f"the generator basis at n = {n} takes 16 n^4 = "
            f"{16 * n ** 4:.3g} bytes")


@pytest.mark.parametrize("argv, message", [
    (["basis", "--n", "100000"], _basis_size(100000)),
    (["sld", "--input", {"kind": "weight_path", "n": 10 ** 6,
                         "weights": [1.0], "weight_rates": [0.0]}],
     _basis_size(10 ** 6)),
    # the basis fits (1.6 GB), the joins of its structure constants do not
    # (before: numpy's "Unable to allocate 155. MiB ..." line)
    (["basis", "--n", "100"], "the structure constants at n = 100"),
], ids=["basis", "sld", "constants"])
def test_huge_n_fails_at_once(tmp_path, argv, message):
    # in a child limited to 2 GiB of address space, set in that child only:
    # the generator stack is allocated before its labels are made, so the
    # size fails at once (before, basis died after seconds with a bare
    # MemoryError line, and the family ran on past 30 s), and names n
    argv = [write_family(tmp_path, a) if isinstance(a, dict) else a
            for a in argv]
    limit = 2 << 30

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    assert _run_child(argv, limited) == (
        1, "", f"error: out of memory: {message}\n")


def test_basis_json_out_of_memory_names_n(capsys, monkeypatch):
    # the JSON of the basis and its constants outgrows memory long before
    # their arrays: under 2 GiB of address space, basis --n 60 ran about
    # 13 s before it failed with a bare "error: out of memory" (too slow to
    # run here; failing it at once from n is still open)
    def exhausted(payload):
        raise MemoryError

    monkeypatch.setattr(cli, "_dump_json", exhausted)
    assert main(["basis", "--n", "3"]) == 1
    assert capsys.readouterr() == ("", "error: out of memory: the basis and "
                                   "structure constants at n = 3 as JSON\n")


@pytest.mark.parametrize("family, command, expected", [
    # before: two RuntimeWarnings and exit 0 with "qfi": NaN
    (dict(QUBIT_FAMILY, generator_coeffs=[1e308, 1e308, 0]),
     ["qfi", "--thetas", "1"],
     (1, "error: generator_coeffs must not exceed 1.19e+153 in magnitude at "
         "n = 2, got 1e+308: the Fisher information would overflow\n")),
    (dict(QUBIT_FAMILY, generator_coeffs=[1e308, 1e308, 0]),
     ["qfi", "--thetas", "0"],
     (1, "error: generator_coeffs must not exceed 1.19e+153 in magnitude at "
         "n = 2, got 1e+308: the Fisher information would overflow\n")),
    # before: numpy's overflow warning (two lines) ahead of the error
    (dict(WEIGHT_PATH_FAMILY, weights=[1e308, 1e308], weight_rates=[0, 0]),
     ["qfi", "--thetas", "0"], (1, "error: weights must sum to 1, got inf\n")),
    # before: exit 2 with "error: floating-point overflow encountered in
    # matmul", which named no field
    (dict(WEIGHT_PATH_FAMILY, weight_rates=[1e200, -1e200]),
     ["qfi", "--thetas", "0"],
     (1, "error: weight_rates must not exceed 1.19e+143 in magnitude at "
         "n = 2, got 1e+200: the Fisher information would overflow\n")),
    # before: solved, exit 0
    (dict(WEIGHT_PATH_FAMILY, weights=["0.75", "0.25"]),
     ["qfi", "--thetas", "0"], (1, "error: weights must be numeric\n")),
    (dict(WEIGHT_PATH_FAMILY, weights=["0.75", "0.25"],
          weight_rates=["1", "-1"]),
     ["qfi", "--thetas", "0"], (1, "error: weights must be numeric\n")),
    # a pure state whose tangent moves weight onto its kernel level
    (dict(WEIGHT_PATH_FAMILY, weights=[1.0, 0.0], weight_rates=[-1.0, 1.0]),
     ["sld", "--theta", "0"],
     (2, "error: kernel-inconsistent tangent: <0|drho|0> = "
         "1.000e+00+0.000e+00j on a pair of kernel levels (eigenvalues <= "
         "tol = 1.000e-10)\n")),
], ids=["generator-overflow", "generator-overflow-theta0", "weights-overflow",
        "rates-overflow", "numeric-strings", "numeric-strings-rates",
        "kernel-inconsistent"])
def test_out_of_range_family_fails_with_one_line(tmp_path, family, command,
                                                 expected):
    path = write_family(tmp_path, family)
    code, out, err = _run_child([*command, "--input", path])
    assert (code, err) == expected
    assert out == ""


@pytest.mark.parametrize("n", [2, 16])
@pytest.mark.parametrize("method", ["general", "oracle", "closed"])
def test_largest_generator_coefficients_solve_cleanly(tmp_path, capsys, n,
                                                      method):
    # at the bound, every method runs with nothing on stderr
    coeffs = np.full(n * n - 1, cli._COEFF_LIMIT / n ** 2)
    coeffs[::2] *= -1
    weights = np.arange(n, 0, -1.0)
    path = write_family(tmp_path, {
        "kind": "exp_generator", "n": n,
        "weights": (weights / weights.sum()).tolist(),
        "generator_coeffs": coeffs.tolist()})
    code, out, err = run(["qfi", "--input", path, "--thetas", "0,1",
                          "--check-oracle", "--method", method], capsys)
    assert (code, err) == (0, "")
    assert np.isfinite(json.loads(out)["max_abs_dev"])


@pytest.mark.parametrize("n", [2, 16])
@pytest.mark.parametrize("smallest", [None, 2e-10],
                         ids=["spread", "near-tol"])
def test_largest_weight_rates_solve_cleanly(tmp_path, capsys, n, smallest):
    # at the bound, each method runs with nothing on stderr, also where a
    # level sits just above the tolerance and L = dk / k is largest there
    weights = np.arange(n, 0, -1.0)
    weights /= weights.sum()
    if smallest is not None:
        weights = np.append(weights[:-1] / weights[:-1].sum()
                            * (1.0 - smallest), smallest)
    rates = np.full(n, cli._RATE_LIMIT / n ** 2)
    rates[::2] *= -1
    path = write_family(tmp_path, {
        "kind": "weight_path", "n": n, "weights": weights.tolist(),
        "weight_rates": rates.tolist()})
    for method in ("general", "oracle"):
        code, out, err = run(["qfi", "--input", path, "--thetas", "0",
                              "--check-oracle", "--method", method], capsys)
        assert (code, err) == (0, "")
        assert np.isfinite(json.loads(out)["max_abs_dev"])


#: JSON values of the wrong kind for a family field
_JUNK = st.recursive(
    st.one_of(st.booleans(), st.none(), st.text(max_size=3),
              st.integers(-3, 6), st.sampled_from([0.5, 2.5, -1.0, 1e-3]),
              st.just(float("nan")), st.just(float("inf"))),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12)


@st.composite
def _broken_families(draw):
    """A valid family of each kind at n = 2..4, then a few of: a field
    replaced by junk (n by zero, negative or fractional values among
    them), dropped, added, or a list field resized or holding junk."""
    kind = draw(st.sampled_from(cli._FAMILY_KINDS))
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    weights = rng.dirichlet(np.ones(n)).tolist()
    if kind == "exp_generator":
        family = {"weights": weights,
                  "generator_coeffs": rng.normal(size=n * n - 1).tolist()}
    elif kind == "explicit_matrices":
        family = {"matrices": [
            [t, matrix_to_pairs(np.diag(rng.dirichlet(np.ones(n))))]
            for t in (0.0, 1.0)]}
    else:
        rates = rng.normal(size=n)
        family = {"weights": weights,
                  "weight_rates": (0.01 * (rates - rates.mean())).tolist()}
    family.update(kind=kind, n=n)
    fields = sorted(family)
    for _ in range(draw(st.integers(0, 3))):
        field = draw(st.sampled_from(fields))
        action = draw(st.sampled_from(["junk", "drop", "extra", "resize",
                                       "element", "n"]))
        if action == "junk":
            family[field] = draw(_JUNK)
        elif action == "drop":
            family.pop(field, None)
        elif action == "extra":
            family[draw(st.sampled_from(["weights", "weight_rates",
                                         "generator_coeffs", "matrices",
                                         "fd_step", "x"]))] = draw(_JUNK)
        elif action == "n":
            family["n"] = draw(st.sampled_from([0, -1, 1, 1.5, 2.0, 6]))
        elif isinstance(family.get(field), list) and family[field]:
            items = family[field]
            if action == "resize":
                family[field] = (items[:-1] if draw(st.booleans())
                                 else items + items[-1:])
            else:
                items[draw(st.integers(0, len(items) - 1))] = draw(_JUNK)
    return family


@settings(deadline=None, max_examples=150)
@given(_broken_families(), st.sampled_from(["general", "oracle", "closed"]),
       st.sampled_from([["sld", "--theta", "0.5"],
                        ["qfi", "--thetas", "0,0.5,1", "--check-oracle"]]))
def test_fuzzed_family_fails_with_one_error_line(tmp_path_factory, family,
                                                 method, command):
    path = tmp_path_factory.mktemp("fuzz") / "family.json"
    path.write_text(json.dumps(family))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command[:1] + ["--input", str(path), "--method", method]
                    + command[1:])
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


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
        ({"kind": "explicit_matrices", "n": 2,
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
            fresh, block = parse_family(payload), np.array([theta])
            for a, b in zip(cli.family_state_and_tangent(spec, block),
                            cli.family_state_and_tangent(fresh, block)):
                assert np.array_equal(a.matrix, b.matrix)
                assert np.array_equal(a.coeffs, b.coeffs)
            shared = library_sld(spec, theta, method)
            again = library_sld(fresh, theta, method)
            for field in ("matrix", "coeffs", "residual", "gauge_dim"):
                assert np.array_equal(getattr(shared, field),
                                      getattr(again, field))
            for a, b in zip(cli._sweep_block(spec, block, method,
                                             DEFAULT_TOL, True),
                            cli._sweep_block(fresh, block, method,
                                             DEFAULT_TOL, True)):
                assert a.tobytes() == b.tobytes()
