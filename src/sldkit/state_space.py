"""Density states on isospectral orbits and their tangent one-forms.

A density matrix and a tangent direction are both carried together with their
expansion on the generator basis,

    rho  = rho_id * 1 + sum_k rho_k t_k,      rho_id = Tr(rho)/n,
    drho = D_id * 1   + sum_k D_k t_k,        rho_k  = Tr(rho t_k)/2,

so the structure-constant solver can work purely on coefficient vectors.
Tangents along the orbit are commutators -i[K, rho] with Hermitian K; tangents
transversal to the orbit vary the mixing weights at a diagonal base point.

The numeric steps behind :class:`DensityState` and :class:`TangentForm`
(the checks, the expansion, the eigenframe, the tangents) also take a stack
of matrices along leading axes, one item per theta of a sweep.  Each product
keeps its per-item shape, so an item of a stack gets bit for bit what the
single-matrix call gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lie_basis import GeneratorBasis, _frozen, build_basis, matrix_to_pairs

#: eigenvalues above this (negative) floor count as nonnegative
POSITIVITY_FLOOR = -1e-10
#: default central-difference step for numeric tangents
DEFAULT_FD_STEP = 1e-5
#: default tolerance of the rank rule, relative to Tr(rho) = 1
DEFAULT_TOL = 1e-10
#: absolute tolerance of the input checks (Hermitian, unit trace, unitary)
INPUT_ATOL = 1e-10


def check_tolerance(tol) -> float:
    """Return ``tol`` as a float; reject NaN, infinities and values below
    ``-POSITIVITY_FLOOR``.

    States may carry eigenvalues down to ``POSITIVITY_FLOOR``, so a smaller
    tolerance would keep a level pair whose sum lam_a + lam_b is negative.
    """
    try:
        tol = float(tol)
    except (TypeError, ValueError):
        raise ValueError(f"tolerance must be a number, got {tol!r}") from None
    if not -POSITIVITY_FLOOR <= tol < np.inf:  # False for NaN too
        raise ValueError(
            f"tolerance must be finite and at least {-POSITIVITY_FLOOR:g} "
            f"(eigenvalues are trusted only down to {POSITIVITY_FLOOR:g}), "
            f"got {tol!r}")
    return tol


def kernel_mask(eigenvalues, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The rank rule: an eigenvalue of a state is kernel iff it is <= ``tol``.

    ``tol`` is relative to Tr(rho) = 1.  The solver, the pair rule, the
    oracle and :attr:`MixingWeights.rank` all decide the kernel by it.
    """
    return np.asarray(eigenvalues, dtype=float) <= check_tolerance(tol)


def _resolve_basis(n: int, basis: GeneratorBasis | None) -> GeneratorBasis:
    if basis is None:
        return build_basis(n)
    if basis.dimension != n:
        raise ValueError(
            f"basis dimension {basis.dimension} does not match operand dimension {n}")
    return basis


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _any(bad) -> bool:
    """Whether ``bad`` holds anywhere in a stack; for one item (size 1),
    its truth value, which is much cheaper than its ``any()``."""
    return bool(bad.any() if bad.size != 1 else bad)


def _raise_first(bad, values, message) -> None:
    """Raise ``ValueError(message(v))`` for the first item where ``bad`` holds.

    ``bad`` and ``values`` have a stack's leading shape (0-d for one
    matrix); ``v`` is that item's value as a Python float.
    """
    if _any(bad):
        first = np.ravel(bad).argmax()
        raise ValueError(message(float(np.ravel(values)[first])))


def _check_hermitian(m: np.ndarray, what: str = "matrix") -> None:
    """Reject a matrix, or the first of a stack, not Hermitian to INPUT_ATOL."""
    deviation = np.abs(m - m.conj().swapaxes(-1, -2)).max((-2, -1))
    _raise_first(deviation > INPUT_ATOL, deviation,
                 lambda d: f"{what} is not Hermitian (max deviation {d:.3e})")


def _check_unit_sum(values) -> None:
    """Reject weights, or the first row of a stack, not summing to one."""
    total = np.sum(values, axis=-1)
    _raise_first(np.abs(total - 1.0) > 1e-12, total,
                 lambda t: f"weights must sum to 1, got {t!r}")


class MixingWeights:
    """Ordered mixing weights k_1..k_m, zero-padded to the matrix dimension n.

    Weights must be finite, nonnegative and sum to one (within 1e-12).
    """

    def __init__(self, values, n: int | None = None):
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("weights must be a nonempty 1-D sequence")
        n = vals.size if n is None else int(n)
        if vals.size > n:
            raise ValueError(f"got {vals.size} weights for dimension {n}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("weights must be finite")
        if np.any(vals < 0):
            raise ValueError("weights must be nonnegative")
        with np.errstate(over="ignore"):  # finite weights can sum to inf
            _check_unit_sum(vals)
        padded = np.zeros(n)
        padded[:vals.size] = vals
        padded.setflags(write=False)
        self.values = padded

    @property
    def dimension(self) -> int:
        return self.values.size

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(~kernel_mask(self.values)))

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return f"MixingWeights({self.values.tolist()})"


def expand(matrix, basis: GeneratorBasis | None = None):
    """Expand a Hermitian matrix on the identity and the generator basis.

    Each call checks Hermiticity, then takes all n^2 - 1 traces in one
    real matrix-vector product with the generators viewed as an
    (n^2 - 1) x 2n^2 matrix of real and imaginary parts.

    Returns
    -------
    (float, numpy.ndarray)
        The identity coefficient Tr(M)/n and the generator coefficients
        Tr(M t_k)/2.

    Raises
    ------
    ValueError
        If the matrix is not Hermitian within ``INPUT_ATOL``.
    """
    m = _as_square(matrix)
    _check_hermitian(m)
    coeff_identity, coeffs = _coefficients(
        m, _resolve_basis(m.shape[0], basis))
    return float(coeff_identity), coeffs


def _coefficients(m: np.ndarray, basis: GeneratorBasis):
    """:func:`expand` without the Hermitian check.

    ``m`` is a square complex matrix, a stack (k, n, n) of them expanded in
    one matrix product, or such stacks along further leading axes, one
    product each; both results gain the leading axes.
    """
    n = m.shape[-1]
    # Re Tr(t_k M) = sum_ij Re(t_k)_ij Re M_ij + Im(t_k)_ij Im M_ij, as t_k
    # is Hermitian: one product with the flat matrices' real views (the
    # generators' is held on the basis)
    flat = basis._real_rows
    real = np.ascontiguousarray(m).view(float).reshape(
        m.shape[:-2] + (2 * n * n,))
    if real.ndim == 1:
        coeffs = flat @ real
    else:
        coeffs = np.matmul(flat, real.swapaxes(-1, -2)).swapaxes(-1, -2)
    return m.trace(0, -2, -1).real / n, coeffs / 2.0


def _expand_each(m: np.ndarray, basis: GeneratorBasis):
    """:func:`_coefficients` with one product per matrix, so that a matrix
    of a stack gets bit for bit what it gets alone."""
    if m.ndim == 2:
        return _coefficients(m, basis)
    coeff_identity, coeffs = _coefficients(m[..., None, :, :], basis)
    return coeff_identity[..., 0], coeffs[..., 0, :]


def reconstruct(coeff_identity: float, coeffs,
                basis: GeneratorBasis | None = None) -> np.ndarray:
    """Rebuild the matrix ``c_id * 1 + sum_k coeffs[k] t_k``.

    Each call is one vector-matrix product with the generators viewed as an
    (n^2 - 1) x n^2 matrix, plus ``c_id`` on the diagonal.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = int(round(np.sqrt(coeffs.size + 1)))
    if n * n - 1 != coeffs.size:
        raise ValueError(f"coefficient vector of length {coeffs.size} "
                         "does not match any dimension")
    return _reconstruct(coeff_identity, coeffs, _resolve_basis(n, basis))


def _reconstruct(coeff_identity, coeffs: np.ndarray,
                 basis: GeneratorBasis) -> np.ndarray:
    """:func:`reconstruct` for a coefficient vector or a stack of them.

    A (k, n^2 - 1) block of rows is one product with the generators viewed
    as an (n^2 - 1) x n^2 matrix, a vector one such row, and further leading
    axes give one product per block; so a stack of (1, n^2 - 1) rows gets
    bit for bit what each row gets alone.
    """
    n = basis.dimension
    matrix = np.matmul(coeffs[None] if coeffs.ndim == 1 else coeffs,
                       basis.generators.reshape(n * n - 1, n * n))
    # the diagonal is every (n + 1)-th entry of each flat matrix
    diagonal = matrix[..., ::n + 1]
    diagonal += np.asarray(coeff_identity)[..., None]
    return matrix.reshape(coeffs.shape[:-1] + (n, n))


def _state_parts(m: np.ndarray, basis: GeneratorBasis) -> tuple:
    """Check a density matrix or a stack of them; expand and diagonalise.

    The checks run in this order over the whole stack: Hermitian within
    ``INPUT_ATOL``, unit trace within ``INPUT_ATOL``, smallest eigenvalue
    at least ``POSITIVITY_FLOOR``; a failure names the first matrix that
    fails that check.  Returns the identity and generator coefficients and
    the ascending eigenvalues and eigenvectors from one (stacked) ``eigh``.
    """
    _check_hermitian(m)
    coeff_identity, coeffs = _expand_each(m, basis)
    trace = m.trace(0, -2, -1).real
    _raise_first(np.abs(trace - 1.0) > INPUT_ATOL, trace,
                 lambda t: f"density matrix must have unit trace, got {t!r}")
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    lowest = eigenvalues[..., 0]
    _raise_first(lowest < POSITIVITY_FLOOR, lowest,
                 lambda v: "density matrix is not positive semidefinite "
                           f"(smallest eigenvalue {v:.3e})")
    return coeff_identity, coeffs, eigenvalues, eigenvectors


class _StateStack(NamedTuple):
    """Density states of a sweep: the fields of :class:`DensityState`, each
    with a leading axis over the states."""

    matrix: np.ndarray
    coeff_identity: np.ndarray
    coeffs: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_matrices(cls, matrices: np.ndarray,
                      basis: GeneratorBasis) -> "_StateStack":
        """The checks and eigenframes of :meth:`DensityState.from_matrix`,
        for a stack of matrices at once."""
        return cls(matrices, *_state_parts(matrices, basis))


class _FormStack(NamedTuple):
    """Tangent directions of a sweep: the fields of :class:`TangentForm`,
    each with a leading axis over the directions."""

    coeff_identity: np.ndarray
    coeffs: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class DensityState:
    """Hermitian unit-trace PSD matrix with its generator expansion.

    ``eigenvalues`` (ascending) and ``eigenvectors`` (columns) are rho's
    eigenframe from one ``eigh``; the solver and the oracle read it.  The
    private ``_operator`` slot holds the SLD solver's operator for this
    state (see :func:`sld_solver.assemble`).
    """

    matrix: np.ndarray
    coeff_identity: float
    coeffs: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    _operator: object = field(default=None, init=False, repr=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix,
                    basis: GeneratorBasis | None = None) -> "DensityState":
        m = _as_square(matrix)
        coeff_identity, coeffs, eigenvalues, eigenvectors = _state_parts(
            m, _resolve_basis(m.shape[0], basis))
        m = m.copy()
        _frozen(m, coeffs, eigenvalues, eigenvectors)
        return cls(m, float(coeff_identity), coeffs, eigenvalues, eigenvectors)

    def to_json_dict(self) -> dict:
        return {"n": int(self.dimension), "matrix": matrix_to_pairs(self.matrix)}


@dataclass(frozen=True, eq=False)
class TangentForm:
    """One tangent direction: a Hermitian matrix with its expansion."""

    coeff_identity: float
    coeffs: np.ndarray
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix,
                    basis: GeneratorBasis | None = None) -> "TangentForm":
        m = np.asarray(matrix, dtype=complex)  # expand checks it
        coeff_identity, coeffs = expand(m, basis)
        return cls(coeff_identity, *_frozen(coeffs, m.copy()))

    @classmethod
    def from_coefficients(cls, coeff_identity: float, coeffs,
                          basis: GeneratorBasis | None = None) -> "TangentForm":
        coeff_identity = float(coeff_identity)
        coeffs = np.asarray(coeffs, dtype=float).copy()
        if not (np.isfinite(coeff_identity) and np.isfinite(coeffs).all()):
            raise ValueError("tangent coefficients must be finite")
        return cls(coeff_identity, *_frozen(
            coeffs, reconstruct(coeff_identity, coeffs, basis)))

    def to_json_dict(self) -> dict:
        return {"n": int(self.dimension), "matrix": matrix_to_pairs(self.matrix)}


def base_point(weights: MixingWeights,
               basis: GeneratorBasis | None = None) -> DensityState:
    """Diagonal density state diag(k_1, ..., k_n) with its expansion.

    Only the identity and diagonal-generator coefficients are nonzero.
    """
    matrix = np.diag(weights.values).astype(complex)
    return DensityState.from_matrix(matrix, basis)


def adjoint_transport(U, obj, basis: GeneratorBasis | None = None):
    """Conjugate a state or tangent form by a unitary: X -> U^dag X U.

    Coefficients are recomputed from the transported matrix; the spectrum of
    a state is unchanged.
    """
    U = _as_square(U)
    n = U.shape[0]
    unit_dev = np.abs(U.conj().T @ U - np.eye(n)).max()
    if unit_dev > INPUT_ATOL:
        raise ValueError(f"matrix is not unitary (max deviation {unit_dev:.3e})")
    if not isinstance(obj, (DensityState, TangentForm)):
        raise ValueError(f"cannot transport object of type {type(obj).__name__}")
    return type(obj).from_matrix(U.conj().T @ obj.matrix @ U, basis)


def tangent_from_generator(K, state: DensityState,
                           basis: GeneratorBasis | None = None) -> TangentForm:
    """Orbit tangent -i[K, rho] generated by a Hermitian K.

    Each call checks that K is Hermitian within ``INPUT_ATOL``, forms the
    commutator, Hermitises it as 0.5 (A + A^dag) and expands that matrix
    once; it is Hermitian by construction, so no second check or copy is
    made.  At a diagonal base point the result has vanishing identity and
    diagonal-generator coefficients.
    """
    K = _as_square(K)
    _check_hermitian(K, "generator")
    coeff_identity, coeffs, mat = _orbit_tangent(
        K, state.matrix, _resolve_basis(K.shape[0], basis))
    return TangentForm(float(coeff_identity), *_frozen(coeffs, mat))


def _orbit_tangent(K: np.ndarray, rho: np.ndarray,
                   basis: GeneratorBasis) -> tuple:
    """-i[K, rho] Hermitised as 0.5 (A + A^dag), with its expansion, for a
    state matrix or a stack of them: (identity coefficient, coefficients,
    matrix)."""
    mat = -1j * (K @ rho - rho @ K)
    mat = 0.5 * (mat + mat.conj().swapaxes(-1, -2))
    return (*_expand_each(mat, basis), mat)


def numeric_tangent(family, theta: float, step: float = DEFAULT_FD_STEP,
                    basis: GeneratorBasis | None = None) -> TangentForm:
    """Central-difference tangent of a parameter -> matrix family.

    The difference quotient is Hermitized by averaging with its adjoint
    before expansion.  Exact (up to rounding) for families affine in theta.
    """
    if not np.isfinite(step) or step <= 0:
        raise ValueError("finite-difference step must be finite and positive")
    plus = _as_square(family(theta + step))
    coeff_identity, coeffs, diff = _difference_quotient(
        plus, _as_square(family(theta - step)), 2.0 * step,
        _resolve_basis(plus.shape[0], basis))
    return TangentForm(float(coeff_identity), *_frozen(coeffs, diff))


def _difference_quotient(plus: np.ndarray, minus: np.ndarray,
                         divisor: float | np.ndarray,
                         basis: GeneratorBasis) -> tuple:
    """(plus - minus) / divisor Hermitised, with its expansion, for one
    pair of matrices or two stacks (``divisor`` a number, or one per item
    shaped to broadcast): (identity coefficient, coefficients, matrix).
    Hermitian by construction, so it is not checked again."""
    diff = (plus - minus) / divisor
    diff = 0.5 * (diff + diff.conj().swapaxes(-1, -2))
    return (*_expand_each(diff, basis), diff)


def transversal_tangent(weight_rates, state: DensityState,
                        basis: GeneratorBasis | None = None) -> TangentForm:
    """Tangent sum_i dk_i P_i along the mixing weights at a diagonal state.

    The rates must sum to zero (trace preservation) within 1e-12, and the
    state must be diagonal; the expansion then has only diagonal-generator
    coefficients, with identity coefficient zero.
    """
    rates = np.asarray(weight_rates, dtype=float)
    n = state.dimension
    if rates.shape != (n,):
        raise ValueError(f"expected {n} weight rates, got shape {rates.shape}")
    total = float(rates.sum())
    if abs(total) > 1e-12:
        raise ValueError(f"weight rates must sum to zero, got {total!r}")
    offdiag = np.abs(state.matrix - np.diag(np.diag(state.matrix))).max()
    if offdiag > INPUT_ATOL:
        raise ValueError("transversal tangents are defined at diagonal base "
                         f"points only (max off-diagonal entry {offdiag:.3e})")
    return TangentForm.from_matrix(np.diag(rates).astype(complex), basis)
