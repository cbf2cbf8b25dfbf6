"""Command-line front end: bases, SLDs, Fisher information, Fisher tensors.

Commands
--------
basis   Emit a generator basis and its structure constants as JSON.
sld     Solve for the SLD of a one-parameter family at a given theta.
qfi     Tabulate the quantum Fisher information over a theta sweep.
tensor  Fisher tensor over the orbit chart of diag(k), 2 <= n <= 16, with
        closed-form comparison.

``sld`` and ``qfi`` take ``--method``: ``general`` (structure-constant
solve), ``oracle`` (spectral), or ``closed``, which applies the pair-rule
closed form at the diagonal base point of an exp_generator family of any n
and transports the result to theta.

``tensor`` takes one direction pair per level pair a < b with distinct
weights (lexicographic; directions 2i and 2i + 1 are the gap-weighted
symmetric and antisymmetric generators of the i-th kept pair) and solves
every direction in one call: one LU solve at the base point, with the
directions as the columns of its right-hand side.  Repeated
weights drop their pairs, which gives the partial flag manifold
U(n)/(U(n_1) x ... x U(n_j)); equal weights give a 0-direction tensor.

Families are described by a kind-tagged JSON object:

    {"kind": "exp_generator", "n": 2, "weights": [0.75, 0.25],
     "generator_coeffs": [0.0, 0.5, 0.0]}

for rho(theta) = exp(-i theta K) rho0 exp(i theta K) with K expanded on the
generator basis;

    {"kind": "explicit_matrices", "n": 2, "fd_step": 1e-5,
     "matrices": [[0.0, [[[re, im], ...], ...]], ...]}

for sampled matrices (linearly interpolated, tangents by central
differences, one-sided within fd_step of either end); and

    {"kind": "weight_path", "n": 2, "weights": [0.75, 0.25],
     "weight_rates": [1.0, -1.0]}

for transversal weight variation rho(theta) = diag(k + theta dk).

Exit status: 0 success (nothing on stderr), 1 usage error, 2 numerical error;
diagnostics are a single stderr line prefixed "error:".  SLDKIT_TOL overrides
the default tolerance 1e-10 (an explicit --tol wins; an error in SLDKIT_TOL
names it); a tolerance that is not a number, not finite or below 1e-10, any
non-finite number in a family, a theta or the tensor weights, a
finite-difference step (fd_step or --fd-step, for any family kind) that is not
positive or exceeds half the sampled range, and a theta outside the family's
domain (the sampled range of explicit_matrices, or where a weight_path weight
turns negative) are usage errors.  Every theta and the step are checked before
the first theta is evaluated.  A request too large for memory (such as a
--theta-range COUNT of 10**13) is a usage error too.  An argument that starts
with "-" and a digit is a value, so a sweep may start below zero:
--theta-range -1:1:40, --thetas -0.5,0.5.

A family is parsed once per command: :class:`FamilySpec` holds what does not
depend on theta, with the command's finite-difference step.  ``sld`` and
``qfi`` then work on blocks of sorted thetas as stacks along a leading axis:
per block, :func:`family_state_and_tangent` evaluates every state and
tangent at once (one stacked ``eigh``), the solve runs the rejection test
once per run of consecutive thetas with one kernel size and rebuilds every
L and its residual at once, and the QFI and the oracle's QFI are stacked
too.  A block holds as many thetas as fit one stacked n x n complex array
into ``sld_solver._BLOCK_BYTES`` (64 at n = 8, 40 at n = 10).  Only M, the
scaled operator and the stacked LU, which hold an n^2 x n^2 array per
state, run in chunks of a run of states with one kernel size: as many as
fit one stacked n^2 x n^2 float array into the same budget (2 at n = 8,
one from n = 9 on).  When a block fails, it is split in halves, in order,
down to the first failing theta, so the error is the one a loop over the
thetas in order would meet first.  :func:`main` builds its parser on the
first call and reuses it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import fisher, oracle, sld_solver
from .lie_basis import build_basis, compute_structure_constants, pairs_to_matrix
from .state_space import (DEFAULT_FD_STEP, DEFAULT_TOL, MixingWeights,
                          TangentForm, _check_unit_sum, _difference_quotient,
                          _FormStack, _orbit_tangent, _StateStack, base_point,
                          check_tolerance, reconstruct, transversal_tangent)

_FAMILY_KINDS = ("exp_generator", "explicit_matrices", "weight_path")
#: slack on both ends of a sampled theta range
_RANGE_SLACK = 1e-12
#: the largest dimension ``tensor`` accepts
_TENSOR_MAX_N = 16


@dataclass(frozen=True, eq=False)
class FamilySpec:
    """Parsed one-parameter family description.

    :func:`parse_family` computes what does not depend on theta once, as
    read-only arrays: K = sum_k c_k t_k, its eigh and diag(k); the sorted
    sample thetas and samples; the weight_path tangent diag(dk).
    ``fd_step`` is the command's: the family's, or ``--fd-step``.
    """

    kind: str
    n: int
    weights: MixingWeights | None = None
    weight_rates: np.ndarray | None = None
    fd_step: float = DEFAULT_FD_STEP
    generator: np.ndarray | None = None
    generator_eigh: tuple | None = None
    base_matrix: np.ndarray | None = None
    sample_thetas: np.ndarray | None = None
    sample_matrices: np.ndarray | None = None
    tangent: TangentForm | None = None


def _finite(name: str, values) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be numeric") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _number(name: str, value) -> float:
    arr = _finite(name, value)
    if arr.ndim != 0:
        raise ValueError(f"{name} must be a single number")
    return float(arr)


def parse_family(data: dict) -> FamilySpec:
    """Validate a family mapping: exactly the fields of its kind are allowed."""
    if not isinstance(data, dict):
        raise ValueError("family description must be a JSON object")
    kind = data.get("kind")
    if kind not in _FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}; "
                         f"expected one of {', '.join(_FAMILY_KINDS)}")
    if "n" not in data:
        raise ValueError("family description is missing 'n'")
    n = _number("n", data["n"])
    if not n.is_integer():
        raise ValueError(f"n must be an integer, got {data['n']!r}")
    n = int(n)
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")

    required = {"exp_generator": {"weights", "generator_coeffs"},
                "explicit_matrices": {"matrices"},
                "weight_path": {"weights", "weight_rates"}}[kind]
    optional = {"fd_step"} if kind == "explicit_matrices" else set()
    present = set(data) - {"kind", "n"}
    missing = required - present
    if missing:
        raise ValueError(f"family kind {kind!r} is missing fields: "
                         f"{', '.join(sorted(missing))}")
    extra = present - required - optional
    if extra:
        raise ValueError(f"family kind {kind!r} does not accept fields: "
                         f"{', '.join(sorted(extra))}")

    basis = build_basis(n)
    fields = {}
    if "weights" in required:
        fields["weights"] = MixingWeights(_finite("weights", data["weights"]), n)
    if kind == "exp_generator":
        coeffs = _finite("generator_coeffs", data["generator_coeffs"])
        if coeffs.shape != (n * n - 1,):
            raise ValueError(
                f"generator_coeffs must have length {n * n - 1}, "
                f"got shape {coeffs.shape}")
        K = reconstruct(0.0, coeffs, basis)
        base = np.diag(fields["weights"].values).astype(complex)
        fields.update(generator=K, generator_eigh=np.linalg.eigh(K),
                      base_matrix=base)
    elif kind == "explicit_matrices":
        if not isinstance(data["matrices"], list):
            raise ValueError("matrices must be a list of [theta, matrix] pairs")
        samples = []
        for entry in data["matrices"]:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError("each sample must be a [theta, matrix] pair")
            theta, mat = entry
            matrix = pairs_to_matrix(_finite("matrices", mat))
            if matrix.shape != (n, n):
                raise ValueError(f"sample matrix has shape {matrix.shape}, "
                                 f"expected ({n}, {n})")
            samples.append((_number("sample theta", theta), matrix))
        if len(samples) < 2:
            raise ValueError("explicit_matrices needs at least two samples")
        samples.sort(key=lambda s: s[0])
        fields.update(sample_thetas=np.array([s[0] for s in samples]),
                      sample_matrices=np.stack([s[1] for s in samples]),
                      fd_step=_positive_step(data.get("fd_step",
                                                      DEFAULT_FD_STEP)))
    else:
        rates = _finite("weight_rates", data["weight_rates"])
        if rates.shape != (n,):
            raise ValueError(f"weight_rates must have length {n}, "
                             f"got shape {rates.shape}")
        fields.update(weight_rates=rates, tangent=transversal_tangent(
            rates, base_point(fields["weights"], basis), basis))
    for value in (*fields.values(), *fields.get("generator_eigh", ())):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return FamilySpec(kind=kind, n=n, **fields)


def _positive_step(value) -> float:
    step = _number("fd_step", value)
    if step <= 0:
        raise ValueError(f"fd_step must be positive, got {step!r}")
    return step


def _with_fd_step(spec: FamilySpec, override) -> FamilySpec:
    """``spec`` with the finite-difference step of a command: ``--fd-step``
    if given, else the family's.  An explicit_matrices family needs the
    sampled range to hold a central difference."""
    step = spec.fd_step if override is None else _positive_step(override)
    if spec.kind == "explicit_matrices":
        lo, hi = (float(t) for t in spec.sample_thetas[[0, -1]])
        if hi - lo < 2.0 * step:
            raise ValueError(f"fd_step {step!r} exceeds half the sampled range "
                             f"[{lo!r}, {hi!r}]")
    return replace(spec, fd_step=step)


def _check_thetas(spec: FamilySpec, thetas: np.ndarray) -> None:
    """Reject the first theta outside the family's domain with a ValueError.

    explicit_matrices are defined on their sampled range; a weight_path
    only where every weight k_i + theta dk_i stays nonnegative.
    """
    if spec.kind == "explicit_matrices":
        lo, hi = (float(t) for t in spec.sample_thetas[[0, -1]])
        outside = (thetas < lo - _RANGE_SLACK) | (thetas > hi + _RANGE_SLACK)
        if outside.any():
            theta = float(thetas[outside.argmax()])
            raise ValueError(f"theta {theta!r} outside the sampled range "
                             f"[{lo!r}, {hi!r}]")
    elif spec.kind == "weight_path":
        k, rates = spec.weights.values, spec.weight_rates
        values = k + thetas[:, None] * rates
        negative = values < 0
        if negative.any():
            i = negative.any(axis=1).argmax()
            level, theta = negative[i].argmax(), float(thetas[i])
            up, down = rates > 0, rates < 0
            lo = float(np.max(-k[up] / rates[up], initial=-np.inf)) + 0.0
            hi = float(np.min(-k[down] / rates[down], initial=np.inf))
            raise ValueError(
                f"theta {theta!r} drives weight {level + 1} of the weight_path "
                f"to {values[i, level]:.3g}; its weights stay "
                f"nonnegative for theta in [{lo!r}, {hi!r}]")


def _rotation(spec: FamilySpec, thetas: np.ndarray) -> np.ndarray:
    """U(theta) = exp(-i theta K) at each theta, from the held
    eigendecomposition of K."""
    w, V = spec.generator_eigh
    return (V * np.exp(-1j * thetas[:, None, None] * w)) @ V.conj().T


def _interpolate(spec: FamilySpec, thetas: np.ndarray) -> np.ndarray:
    """An explicit_matrices family at each theta, linear between its
    samples (thetas clamped into the sampled range).  A zero-width first
    segment is met only at its left end, which takes the first sample."""
    samples, mats = spec.sample_thetas, spec.sample_matrices
    thetas = np.minimum(np.maximum(thetas, samples[0]), samples[-1])
    j = np.clip(np.searchsorted(samples, thetas), 1, samples.size - 1)
    t0, t1 = samples[j - 1], samples[j]
    frac = ((thetas - t0) / np.where(t1 > t0, t1 - t0, 1.0))[:, None, None]
    inside = (1.0 - frac) * mats[j - 1] + frac * mats[j]
    return np.where((thetas <= samples[0])[:, None, None], mats[0], inside)


def family_state_and_tangent(spec: FamilySpec, thetas):
    """Evaluate the states and tangents of a family at an array of thetas.

    Returns a :class:`state_space._StateStack` and a
    :class:`state_space._FormStack`, stacked along the thetas.  Only
    theta-dependent work is done here: exp_generator families get
    rho(theta) = U diag(k) U^dag, with U from the eigendecomposition of K
    held on ``spec``, and the analytic tangent -i[K, rho(theta)];
    explicit_matrices use central differences with ``spec.fd_step`` on
    the interpolated samples, taken at theta clamped into [lo + step,
    hi - step] so that they stay in the sampled range (the end segment's
    slope near an end); weight_path families get diag(k + theta dk) and
    the held transversal tangent sum dk_i P_i.
    """
    thetas = np.asarray(thetas, dtype=float)
    basis = build_basis(spec.n)
    if spec.kind == "exp_generator":
        U = _rotation(spec, thetas)
        states = _StateStack.from_matrices(
            U @ spec.base_matrix @ U.conj().swapaxes(-1, -2), basis)
        return states, _FormStack(*_orbit_tangent(spec.generator,
                                                  states.matrix, basis))
    if spec.kind == "explicit_matrices":
        step = spec.fd_step
        states = _StateStack.from_matrices(_interpolate(spec, thetas), basis)
        lo, hi = spec.sample_thetas[[0, -1]]
        centres = np.minimum(np.maximum(thetas, lo + step), hi - step)
        return states, _FormStack(*_difference_quotient(
            _interpolate(spec, centres + step),
            _interpolate(spec, centres - step), step, basis))
    values = spec.weights.values + thetas[:, None] * spec.weight_rates
    _check_unit_sum(values)
    matrices = np.zeros(values.shape + (spec.n,), dtype=complex)
    levels = np.arange(spec.n)
    matrices[:, levels, levels] = values
    tangent = spec.tangent
    return _StateStack.from_matrices(matrices, basis), _FormStack(
        np.full(thetas.shape, tangent.coeff_identity),
        *(np.broadcast_to(a, thetas.shape + a.shape)
          for a in (tangent.coeffs, tangent.matrix)))


def _solve_family(spec: FamilySpec, thetas: np.ndarray, method: str,
                  tol: float):
    """Return (states, forms, solutions) at the thetas for the selected
    method, each stacked along the thetas."""
    states, forms = family_state_and_tangent(spec, thetas)
    basis = build_basis(spec.n)
    if method == "general":
        constants = compute_structure_constants(basis)
        return states, forms, sld_solver._solve_stack(states, forms,
                                                      constants, tol, basis)
    if method == "oracle":
        levels, frame = states.eigenvalues, states.eigenvectors
    elif method != "closed":
        raise ValueError(f"unknown method {method!r}")
    elif spec.kind != "exp_generator":
        raise ValueError("method 'closed' requires an exp_generator family")
    else:
        # rho(theta) = U diag(k) U^dag: the closed form at the base point,
        # in the frame U, is the pair rule with the weights as eigenvalues.
        levels, frame = spec.weights.values, _rotation(spec, thetas)
    L, kernel = sld_solver._pair_rule(
        levels, frame, sld_solver._in_frame(frame, forms.matrix), tol)
    return states, forms, sld_solver._SolutionStack.from_matrices(
        L, states.matrix, forms.matrix, kernel, basis)


def _sweep_block(spec: FamilySpec, thetas: np.ndarray, method: str,
                 tol: float, check_oracle: bool) -> tuple:
    """The QFI at each theta of a block, and the oracle's if asked for."""
    states, forms, solutions = _solve_family(spec, thetas, method, tol)
    qfi = fisher._qfi(states.matrix, solutions.matrix)
    if not check_oracle:
        return qfi, None
    return qfi, oracle._qfi(states.eigenvalues, states.eigenvectors,
                            forms.matrix, tol)


def _first_failure(run, thetas: np.ndarray):
    """``run(thetas)``; if it fails, the error of the first theta that fails.

    A stacked step raises for some failing theta, not necessarily the
    first.  So a failing block is split in halves, in order: the first half
    is searched before the second, down to the first failing theta on its
    own, whose run raises that theta's error at the first step it fails, as
    in a loop over the thetas in order.  The block's own error is raised
    only if neither half fails.
    """
    try:
        return run(thetas)
    except (ValueError, sld_solver.NumericalError):
        if thetas.size > 1:
            half = thetas.size // 2
            _first_failure(run, thetas[:half])
            _first_failure(run, thetas[half:])
        raise


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors raise, and which reads an argument
    that starts with ``-`` and a digit (``-1:1:40``, ``-0.5,0.5``) as a
    value, never as an option: no option of ours starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d.*")

    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _rows_json(columns: dict, max_abs_dev: float | None) -> str:
    """``_dump_json({"rows": rows, "max_abs_dev": max_abs_dev})`` for the rows
    of ``columns`` (lists of floats of one length, at least one row), without
    the tail if ``max_abs_dev`` is None.

    Every row fills one template of the keys at the indent=2 strings.  The
    float text is the C encoder's, ``json.dumps`` of each column: as in the
    pure-Python encoder that indent=2 runs, ``float.__repr__``, or ``NaN``,
    ``Infinity`` and ``-Infinity``.
    """
    row = ",\n".join(f"      {json.dumps(key)}: {{}}" for key in columns)
    texts = [json.dumps(column)[1:-1].split(", ") for column in columns.values()]
    body = "\n    },\n    {\n".join(map(row.format, *texts))
    tail = ("" if max_abs_dev is None
            else f',\n  "max_abs_dev": {json.dumps(max_abs_dev)}')
    return f'{{\n  "rows": [\n    {{\n{body}\n    }}\n  ]{tail}\n}}\n'


def _load_family(path: str) -> FamilySpec:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_family(data)


def _tolerance(args) -> float:
    if args.tol is not None:
        return check_tolerance(args.tol)
    try:
        return check_tolerance(os.environ.get("SLDKIT_TOL", DEFAULT_TOL))
    except ValueError as exc:
        raise ValueError(f"SLDKIT_TOL: {exc}") from None


def _require_json_format(args):
    if args.format != "json":
        raise ValueError("csv format is only supported by the qfi command")


def cmd_basis(args) -> int:
    _require_json_format(args)
    basis = build_basis(args.n)
    constants = compute_structure_constants(basis)
    payload = basis.to_json_dict()
    payload.update(constants.to_json_dict())
    _emit(_dump_json(payload), args.output)
    return 0


def cmd_sld(args) -> int:
    _require_json_format(args)
    spec = _load_family(args.input)
    tol = _tolerance(args)
    thetas = np.array([_number("theta", args.theta)])
    _check_thetas(spec, thetas)
    spec = _with_fd_step(spec, args.fd_step)
    _, _, solutions = _solve_family(spec, thetas, args.method, tol)
    _emit(_dump_json(solutions.to_json_dict(0)), args.output)
    return 0


def _parsed(convert, text: str, message: str):
    """``convert(text)``; its ValueError becomes ``message`` with ``text``
    quoted."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{message}, got {text!r}") from None


def _theta_values(args) -> np.ndarray:
    values = [_parsed(float, tok, "thetas must be numeric")
              for tok in map(str.strip, (args.thetas or "").split(",")) if tok]
    if args.theta_range:
        parts = args.theta_range.split(":")
        if len(parts) != 3:
            raise ValueError("theta range must be START:STOP:COUNT")
        start, stop = _finite("theta", parts[:2])
        count = _parsed(int, parts[2], "theta range count must be an integer")
        if count < 1:
            raise ValueError("theta range count must be at least 1")
        values.extend(np.linspace(start, stop, count).tolist())
    if not values:
        raise ValueError("no theta values given; use --thetas or --theta-range")
    return np.sort(_finite("theta", values), kind="stable")


def cmd_qfi(args) -> int:
    spec = _load_family(args.input)
    tol = _tolerance(args)
    thetas = _theta_values(args)
    _check_thetas(spec, thetas)
    run = functools.partial(_sweep_block, _with_fd_step(spec, args.fd_step),
                            method=args.method, tol=tol,
                            check_oracle=args.check_oracle)
    # as many thetas as fit one stacked n x n complex array: the solver
    # chunks the n^2 x n^2 arrays of a block by the same budget
    size = max(1, sld_solver._BLOCK_BYTES // (16 * spec.n ** 2))
    blocks = [_first_failure(run, thetas[i:i + size])
              for i in range(0, thetas.size, size)]
    qfi = np.concatenate([q for q, _ in blocks])
    columns = {"theta": thetas.tolist(), "qfi": qfi.tolist()}
    if args.check_oracle:
        qfi_oracle = np.concatenate([o for _, o in blocks])
        columns["qfi_oracle"] = qfi_oracle.tolist()
        columns["abs_dev"] = np.abs(qfi - qfi_oracle).tolist()
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows(zip(*(map(repr, c) for c in columns.values())))
        _emit(buf.getvalue(), args.output)
    else:
        max_abs_dev = max(columns["abs_dev"]) if args.check_oracle else None
        _emit(_rows_json(columns, max_abs_dev), args.output)
    return 0


def cmd_tensor(args) -> int:
    _require_json_format(args)
    values = [_parsed(float, tok, "weights must be numeric")
              for tok in map(str.strip, args.weights.split(",")) if tok]
    if not 2 <= len(values) <= _TENSOR_MAX_N:
        raise ValueError(f"tensor needs 2 to {_TENSOR_MAX_N} weights, "
                         f"got {len(values)}")
    weights = MixingWeights(values)
    tol = _tolerance(args)
    basis = build_basis(weights.dimension)
    state = base_point(weights, basis)
    system = sld_solver.assemble(state, fisher.chart_tangents(weights, basis),
                                 compute_structure_constants(basis))
    tensor = fisher.fisher_tensor(state, sld_solver.solve(system, state, tol))
    closed = fisher.closed_form_fisher(weights)
    payload = {
        "weights": [float(v) for v in weights.values],
        "closed_form": {"pairs": [[float(g), float(w)] for g, w in closed]},
        "tensor": tensor.to_json_dict(),
        "max_deviation": fisher.closed_form_deviation(tensor, weights),
    }
    _emit(_dump_json(payload), args.output)
    return 0


def _add_common_flags(parser):
    parser.add_argument("--output", help="write to this path instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--tol", type=float, default=None,
                        help="numerical tolerance (default 1e-10 or SLDKIT_TOL)")


def _add_family_flags(parser):
    parser.add_argument("--input", required=True,
                        help="path to a family-spec JSON file")
    parser.add_argument("--method", default="general",
                        choices=("general", "closed", "oracle"))
    parser.add_argument("--fd-step", type=float, default=None,
                        help="finite-difference step for sampled families")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sldkit",
                     description="Symmetric logarithmic derivatives and "
                                 "quantum Fisher information")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="emit a generator basis and its "
                                     "structure constants")
    p.add_argument("--n", type=int, required=True)
    _add_common_flags(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("sld", help="solve for the SLD of a family at theta")
    _add_family_flags(p)
    p.add_argument("--theta", type=float, default=0.0)
    _add_common_flags(p)
    p.set_defaults(func=cmd_sld)

    p = sub.add_parser("qfi", help="tabulate the Fisher information over theta")
    _add_family_flags(p)
    p.add_argument("--thetas", help="comma-separated theta values")
    p.add_argument("--theta-range", help="START:STOP:COUNT sweep")
    p.add_argument("--check-oracle", action="store_true",
                   help="add a spectral-method column and deviation summary")
    _add_common_flags(p)
    p.set_defaults(func=cmd_qfi)

    p = sub.add_parser("tensor", help="Fisher tensor over the orbit chart "
                                      "of diag(k), two directions per level "
                                      "pair with distinct weights")
    p.add_argument("--weights", required=True,
                   help="comma-separated weights k_1..k_n, "
                        f"2 <= n <= {_TENSOR_MAX_N}")
    _add_common_flags(p)
    p.set_defaults(func=cmd_tensor)
    return parser


def _fail(message: str, code: int) -> int:
    text = " ".join(str(message).split())
    print(f"error: {text}", file=sys.stderr)
    return code


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses: built on its first call, then reused."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(str(exc), 1)
    except SystemExit as exc:  # --help
        code = exc.code
        return 0 if code in (None, 0) else int(code)
    try:
        return int(args.func(args))
    except sld_solver.NumericalError as exc:
        return _fail(str(exc), 2)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), 1)
    except MemoryError as exc:  # e.g. a --theta-range COUNT too large to hold
        return _fail(f"out of memory: {exc}" if str(exc) else "out of memory", 1)


if __name__ == "__main__":
    raise SystemExit(main())
