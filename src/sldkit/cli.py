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

``tensor`` solves one direction pair per level pair a < b with distinct
weights (lexicographic; directions 2i and 2i + 1 are the gap-weighted
symmetric and antisymmetric generators of the i-th kept pair).  Repeated
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

Exit status: 0 success, 1 usage error, 2 numerical error; diagnostics are a
single stderr line prefixed "error:".  SLDKIT_TOL overrides the default
tolerance 1e-10 (an explicit --tol wins over the environment); a tolerance
that is not finite or is below 1e-10, any non-finite number in a family, a
theta or the tensor weights, and a theta outside the family's domain (the
sampled range of explicit_matrices, or where a weight_path weight turns
negative) are usage errors.  Every theta is checked before the first solve.
A request too large for memory (such as a --theta-range COUNT of 10**13)
is a usage error too.

A family is parsed once per command: :class:`FamilySpec` holds what does not
depend on theta, so :func:`family_state_and_tangent` does only the per-theta
work.  :func:`main` builds its parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import fisher, oracle, sld_solver
from .lie_basis import build_basis, compute_structure_constants, pairs_to_matrix
from .sld_solver import NumericalError, SLDSolution
from .state_space import (DEFAULT_FD_STEP, DEFAULT_TOL, DensityState,
                          MixingWeights, TangentForm, base_point,
                          check_tolerance, expand, numeric_tangent, reconstruct,
                          tangent_from_generator, transversal_tangent)

_FAMILY_KINDS = ("exp_generator", "explicit_matrices", "weight_path")
#: slack on both ends of a sampled theta range
_RANGE_SLACK = 1e-12
#: the largest dimension ``tensor`` accepts
_TENSOR_MAX_N = 16


@dataclass(frozen=True, eq=False)
class FamilySpec:
    """Parsed one-parameter family description.

    What does not depend on theta is computed once, on construction: for
    exp_generator, K = sum_k c_k t_k, its eigendecomposition and diag(k);
    for explicit_matrices, the sample thetas and the stacked samples; for
    weight_path, the tangent diag(dk), the same at every theta.
    """

    kind: str
    n: int
    weights: MixingWeights | None = None
    generator_coeffs: np.ndarray | None = None
    matrices: list | None = None
    weight_rates: np.ndarray | None = None
    fd_step: float = DEFAULT_FD_STEP
    _generator: np.ndarray | None = field(default=None, init=False, repr=False)
    _generator_eigh: tuple = field(default=(), init=False, repr=False)
    _base_matrix: np.ndarray | None = field(default=None, init=False,
                                            repr=False)
    _sample_thetas: np.ndarray | None = field(default=None, init=False,
                                              repr=False)
    _sample_matrices: np.ndarray | None = field(default=None, init=False,
                                                repr=False)
    _tangent: TangentForm | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        basis = build_basis(self.n)
        if self.kind == "exp_generator":
            K = reconstruct(0.0, self.generator_coeffs, basis)
            w, V = np.linalg.eigh(K)
            base = np.diag(self.weights.values).astype(complex)
            held = {"_generator": K, "_generator_eigh": (w, V),
                    "_base_matrix": base}
            arrays = (K, w, V, base)
        elif self.kind == "explicit_matrices":
            thetas = np.array([s[0] for s in self.matrices])
            mats = np.stack([s[1] for s in self.matrices])
            held = {"_sample_thetas": thetas, "_sample_matrices": mats}
            arrays = (thetas, mats)
        else:
            tangent = transversal_tangent(
                self.weight_rates, base_point(self.weights, basis), basis)
            held, arrays = {"_tangent": tangent}, ()
        for array in arrays:
            array.setflags(write=False)
        for name, value in held.items():
            object.__setattr__(self, name, value)


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

    fields = {}
    if "weights" in required:
        fields["weights"] = MixingWeights(_finite("weights", data["weights"]), n)
    if kind == "exp_generator":
        coeffs = _finite("generator_coeffs", data["generator_coeffs"])
        if coeffs.shape != (n * n - 1,):
            raise ValueError(
                f"generator_coeffs must have length {n * n - 1}, "
                f"got shape {coeffs.shape}")
        fields["generator_coeffs"] = coeffs
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
        fields["matrices"] = samples
        fields["fd_step"] = _number("fd_step",
                                    data.get("fd_step", DEFAULT_FD_STEP))
    else:
        rates = _finite("weight_rates", data["weight_rates"])
        if rates.shape != (n,):
            raise ValueError(f"weight_rates must have length {n}, "
                             f"got shape {rates.shape}")
        fields["weight_rates"] = rates
    return FamilySpec(kind=kind, n=n, **fields)


def _check_theta(spec: FamilySpec, theta: float) -> None:
    """Reject a theta outside the family's domain with a ValueError.

    explicit_matrices are defined on their sampled range; a weight_path
    only where every weight k_i + theta dk_i stays nonnegative.
    """
    if spec.kind == "explicit_matrices":
        lo, hi = (float(t) for t in spec._sample_thetas[[0, -1]])
        if theta < lo - _RANGE_SLACK or theta > hi + _RANGE_SLACK:
            raise ValueError(f"theta {theta!r} outside the sampled range "
                             f"[{lo!r}, {hi!r}]")
    elif spec.kind == "weight_path":
        k, rates = spec.weights.values, spec.weight_rates
        negative = np.flatnonzero(k + theta * rates < 0)
        if negative.size:
            level = negative[0]
            up, down = rates > 0, rates < 0
            lo = float(np.max(-k[up] / rates[up], initial=-np.inf)) + 0.0
            hi = float(np.min(-k[down] / rates[down], initial=np.inf))
            raise ValueError(
                f"theta {theta!r} drives weight {level + 1} of the weight_path "
                f"to {k[level] + theta * rates[level]:.3g}; its weights stay "
                f"nonnegative for theta in [{lo!r}, {hi!r}]")


def _rotation(spec: FamilySpec, theta: float) -> np.ndarray:
    """U(theta) = exp(-i theta K), from the held eigendecomposition of K."""
    w, V = spec._generator_eigh
    return (V * np.exp(-1j * theta * w)) @ V.conj().T


def _interpolate(spec: FamilySpec, theta: float) -> np.ndarray:
    """An explicit_matrices family at theta, linear between its samples."""
    _check_theta(spec, theta)
    thetas, mats = spec._sample_thetas, spec._sample_matrices
    theta = min(max(theta, thetas[0]), thetas[-1])
    j = int(np.searchsorted(thetas, theta))
    if j == 0:
        return mats[0]
    if thetas[j - 1] == theta:
        return mats[j - 1]
    t0, t1 = thetas[j - 1], thetas[j]
    frac = (theta - t0) / (t1 - t0)
    return (1.0 - frac) * mats[j - 1] + frac * mats[j]


def family_state_and_tangent(spec: FamilySpec, theta: float, *,
                             fd_step: float | None = None):
    """Evaluate (state, tangent) of a family at theta.

    Only theta-dependent work is done here: exp_generator families get
    rho(theta) = U diag(k) U^dag, with U from the eigendecomposition of K
    held on ``spec``, and the analytic tangent -i[K, rho(theta)];
    explicit_matrices use central differences on the interpolated samples,
    taken at theta clamped into [lo + step, hi - step] so that they stay in
    the sampled range (the end segment's slope near an end);
    weight_path families get diag(k + theta dk) and the held transversal
    tangent sum dk_i P_i.
    """
    basis = build_basis(spec.n)
    if spec.kind == "exp_generator":
        U = _rotation(spec, theta)
        state = DensityState.from_matrix(U @ spec._base_matrix @ U.conj().T,
                                         basis)
        return state, tangent_from_generator(spec._generator, state, basis)
    if spec.kind == "explicit_matrices":
        step = spec.fd_step if fd_step is None else fd_step
        state = DensityState.from_matrix(_interpolate(spec, theta), basis)
        lo, hi = (float(t) for t in spec._sample_thetas[[0, -1]])
        if hi - lo < 2.0 * step:
            raise ValueError(f"fd_step {step!r} exceeds half the sampled range "
                             f"[{lo!r}, {hi!r}]")
        centre = min(max(theta, lo + step), hi - step)
        form = numeric_tangent(functools.partial(_interpolate, spec), centre,
                               step, basis)
        return state, form
    values = spec.weights.values + theta * spec.weight_rates
    return base_point(MixingWeights(values), basis), spec._tangent


def _solve_general(state, form, tol) -> SLDSolution:
    constants = compute_structure_constants(build_basis(state.dimension))
    system = sld_solver.assemble(state, form, constants)
    return sld_solver.solve(system, state, tol)


def _solve_family(spec: FamilySpec, theta: float, method: str, tol: float, *,
                  fd_step: float | None = None):
    """Return (state, form, solution) at theta for the selected method."""
    state, form = family_state_and_tangent(spec, theta, fd_step=fd_step)
    if method == "general":
        return state, form, _solve_general(state, form, tol)
    if method == "oracle":
        return state, form, oracle.sld_eigenbasis(state, form, tol)
    if method != "closed":
        raise ValueError(f"unknown method {method!r}")
    if spec.kind != "exp_generator":
        raise ValueError("method 'closed' requires an exp_generator family")
    basis = build_basis(spec.n)
    # rho(theta) = U diag(k) U^dag: the closed form at the base point, in the
    # frame U, is the pair rule with the weights as eigenvalues.
    U = _rotation(spec, theta)
    L, gauge = sld_solver._pair_rule(spec.weights.values, U,
                                     U.conj().T @ form.matrix @ U, tol)
    solution = sld_solver._finalize(L, *expand(L, basis), state.matrix,
                                    form.matrix, gauge)
    return state, form, solution


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
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


def _load_family(path: str) -> FamilySpec:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_family(data)


def _tolerance(args) -> float:
    if args.tol is not None:
        return check_tolerance(args.tol)
    env = os.environ.get("SLDKIT_TOL")
    if env is not None:
        return check_tolerance(env)
    return DEFAULT_TOL


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
    theta = _number("theta", args.theta)
    _check_theta(spec, theta)
    _, _, solution = _solve_family(spec, theta, args.method, tol,
                                   fd_step=args.fd_step)
    _emit(_dump_json(solution.to_json_dict()), args.output)
    return 0


def _theta_values(args) -> list:
    values = []
    if args.thetas:
        for tok in args.thetas.split(","):
            tok = tok.strip()
            if tok:
                values.append(float(tok))
    if args.theta_range:
        parts = args.theta_range.split(":")
        if len(parts) != 3:
            raise ValueError("theta range must be START:STOP:COUNT")
        start, stop = _finite("theta", parts[:2])
        count = int(parts[2])
        if count < 1:
            raise ValueError("theta range count must be at least 1")
        values.extend(np.linspace(start, stop, count).tolist())
    if not values:
        raise ValueError("no theta values given; use --thetas or --theta-range")
    return sorted(_finite("theta", values).tolist())


def cmd_qfi(args) -> int:
    spec = _load_family(args.input)
    tol = _tolerance(args)
    thetas = _theta_values(args)
    for theta in thetas:
        _check_theta(spec, theta)
    rows = []
    for theta in thetas:
        state, form, solution = _solve_family(spec, theta, args.method, tol,
                                              fd_step=args.fd_step)
        row = {"theta": float(theta),
               "qfi": fisher.qfi_index(state, solution)}
        if args.check_oracle:
            row["qfi_oracle"] = oracle.qfi_eigenbasis(state, form, tol)
            row["abs_dev"] = abs(row["qfi"] - row["qfi_oracle"])
        rows.append(row)

    if args.format == "csv":
        columns = ["theta", "qfi"]
        if args.check_oracle:
            columns += ["qfi_oracle", "abs_dev"]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(row[c]) for c in columns])
        _emit(buf.getvalue(), args.output)
    else:
        payload = {"rows": rows}
        if args.check_oracle:
            payload["max_abs_dev"] = max(row["abs_dev"] for row in rows)
        _emit(_dump_json(payload), args.output)
    return 0


def cmd_tensor(args) -> int:
    _require_json_format(args)
    values = [float(tok) for tok in args.weights.split(",") if tok.strip()]
    if not 2 <= len(values) <= _TENSOR_MAX_N:
        raise ValueError(f"tensor needs 2 to {_TENSOR_MAX_N} weights, "
                         f"got {len(values)}")
    weights = MixingWeights(values)
    tol = _tolerance(args)
    basis = build_basis(weights.dimension)
    state = base_point(weights, basis)
    slds = [_solve_general(state, form, tol)
            for form in fisher.chart_tangents(weights, basis)]
    tensor = fisher.fisher_tensor(state, slds)
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
    except NumericalError as exc:
        return _fail(str(exc), 2)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), 1)
    except MemoryError as exc:  # e.g. a --theta-range COUNT too large to hold
        return _fail(f"out of memory: {exc}" if str(exc) else "out of memory", 1)


if __name__ == "__main__":
    raise SystemExit(main())
