"""Density states on isospectral orbits and their tangent one-forms.

A density matrix and a tangent direction are both carried together with their
expansion on the generator basis,

    rho  = rho_id * 1 + sum_k rho_k t_k,      rho_id = Tr(rho)/n,
    drho = D_id * 1   + sum_k D_k t_k,        rho_k  = Tr(rho t_k)/2,

so the structure-constant solver can work purely on coefficient vectors.
Tangents along the orbit are commutators -i[K, rho] with Hermitian K; tangents
transversal to the orbit vary the mixing weights at a diagonal base point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lie_basis import GeneratorBasis, build_basis, matrix_to_pairs

#: eigenvalues above this (negative) floor count as nonnegative
POSITIVITY_FLOOR = -1e-10
#: default central-difference step for numeric tangents
DEFAULT_FD_STEP = 1e-5
#: default tolerance of the rank rule, relative to Tr(rho) = 1
DEFAULT_TOL = 1e-10


def check_tolerance(tol) -> float:
    """Return ``tol`` as a float; reject NaN, infinities and values below
    ``-POSITIVITY_FLOOR``.

    States may carry eigenvalues down to ``POSITIVITY_FLOOR``, so a smaller
    tolerance would keep a level pair whose sum lam_a + lam_b is negative.
    """
    tol = float(tol)
    if not np.isfinite(tol) or tol < -POSITIVITY_FLOOR:
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
        total = float(vals.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total!r}")
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


def expand(matrix, basis: GeneratorBasis | None = None, *,
           atol: float = 1e-10):
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
        If the matrix is not Hermitian within ``atol``.
    """
    m = _as_square(matrix)
    herm_dev = np.abs(m - m.conj().T).max()
    if herm_dev > atol:
        raise ValueError(f"matrix is not Hermitian (max deviation {herm_dev:.3e})")
    coeff_identity, coeffs = _coefficients(
        m, _resolve_basis(m.shape[0], basis))
    return float(coeff_identity), coeffs


def _coefficients(m: np.ndarray, basis: GeneratorBasis):
    """:func:`expand` without the Hermitian check.

    ``m`` is a square complex matrix or a stack of them; for a stack both
    results gain its leading axes.
    """
    n = m.shape[-1]
    # Re Tr(t_k M) = sum_ij Re(t_k)_ij Re M_ij + Im(t_k)_ij Im M_ij, as t_k
    # is Hermitian: one product of the flat matrices' real views (for the
    # C-contiguous generator stack, a view)
    flat = basis.generators.view(float).reshape(n * n - 1, 2 * n * n)
    real = np.ascontiguousarray(m).view(float).reshape(
        m.shape[:-2] + (2 * n * n,))
    coeffs = (flat @ real.T).T / 2.0
    return m.trace(0, -2, -1).real / n, coeffs


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
    basis = _resolve_basis(n, basis)
    matrix = (coeffs @ basis.generators.reshape(n * n - 1, n * n)).reshape(n, n)
    matrix.flat[::n + 1] += coeff_identity
    return matrix


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
    def from_matrix(cls, matrix, basis: GeneratorBasis | None = None, *,
                    atol: float = 1e-10) -> "DensityState":
        m = np.asarray(matrix, dtype=complex)  # expand checks it
        coeff_identity, coeffs = expand(m, basis, atol=atol)
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > atol:
            raise ValueError(f"density matrix must have unit trace, got {trace!r}")
        eigenvalues, eigenvectors = np.linalg.eigh(m)
        if eigenvalues[0] < POSITIVITY_FLOOR:
            raise ValueError(
                f"density matrix is not positive semidefinite "
                f"(smallest eigenvalue {eigenvalues[0]:.3e})")
        m = m.copy()
        for array in (m, coeffs, eigenvalues, eigenvectors):
            array.setflags(write=False)
        return cls(m, coeff_identity, coeffs, eigenvalues, eigenvectors)

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
    def from_matrix(cls, matrix, basis: GeneratorBasis | None = None, *,
                    atol: float = 1e-10) -> "TangentForm":
        m = np.asarray(matrix, dtype=complex)  # expand checks it
        coeff_identity, coeffs = expand(m, basis, atol=atol)
        m = m.copy()
        m.setflags(write=False)
        coeffs.setflags(write=False)
        return cls(coeff_identity, coeffs, m)

    @classmethod
    def from_coefficients(cls, coeff_identity: float, coeffs,
                          basis: GeneratorBasis | None = None) -> "TangentForm":
        coeffs = np.asarray(coeffs, dtype=float).copy()
        matrix = reconstruct(coeff_identity, coeffs, basis)
        matrix.setflags(write=False)
        coeffs.setflags(write=False)
        return cls(float(coeff_identity), coeffs, matrix)

    def to_json_dict(self) -> dict:
        return {"n": int(self.dimension), "matrix": matrix_to_pairs(self.matrix)}


def base_point(weights: MixingWeights,
               basis: GeneratorBasis | None = None) -> DensityState:
    """Diagonal density state diag(k_1, ..., k_n) with its expansion.

    Only the identity and diagonal-generator coefficients are nonzero.
    """
    matrix = np.diag(weights.values).astype(complex)
    return DensityState.from_matrix(matrix, basis)


def adjoint_transport(U, obj, basis: GeneratorBasis | None = None, *,
                      atol: float = 1e-10):
    """Conjugate a state or tangent form by a unitary: X -> U^dag X U.

    Coefficients are recomputed from the transported matrix; the spectrum of
    a state is unchanged.
    """
    U = _as_square(U)
    n = U.shape[0]
    unit_dev = np.abs(U.conj().T @ U - np.eye(n)).max()
    if unit_dev > atol:
        raise ValueError(f"matrix is not unitary (max deviation {unit_dev:.3e})")
    transported = U.conj().T @ obj.matrix @ U
    if isinstance(obj, DensityState):
        return DensityState.from_matrix(transported, basis, atol=atol)
    if isinstance(obj, TangentForm):
        return TangentForm.from_matrix(transported, basis, atol=atol)
    raise ValueError(f"cannot transport object of type {type(obj).__name__}")


def tangent_from_generator(K, state: DensityState,
                           basis: GeneratorBasis | None = None, *,
                           atol: float = 1e-10) -> TangentForm:
    """Orbit tangent -i[K, rho] generated by a Hermitian K.

    Each call checks that K is Hermitian within ``atol``, forms the
    commutator, Hermitises it as 0.5 (A + A^dag) and expands that matrix
    once; it is Hermitian by construction, so no second check or copy is
    made.  At a diagonal base point the result has vanishing identity and
    diagonal-generator coefficients.
    """
    K = _as_square(K)
    herm_dev = np.abs(K - K.conj().T).max()
    if herm_dev > atol:
        raise ValueError(f"generator is not Hermitian (max deviation {herm_dev:.3e})")
    comm = K @ state.matrix - state.matrix @ K
    mat = -1j * comm
    mat = 0.5 * (mat + mat.conj().T)
    coeff_identity, coeffs = _coefficients(
        mat, _resolve_basis(mat.shape[0], basis))
    mat.setflags(write=False)
    coeffs.setflags(write=False)
    return TangentForm(float(coeff_identity), coeffs, mat)


def numeric_tangent(family, theta: float, step: float = DEFAULT_FD_STEP,
                    basis: GeneratorBasis | None = None) -> TangentForm:
    """Central-difference tangent of a parameter -> matrix family.

    The difference quotient is Hermitized by averaging with its adjoint
    before expansion.  Exact (up to rounding) for families affine in theta.
    """
    if not np.isfinite(step) or step <= 0:
        raise ValueError("finite-difference step must be finite and positive")
    plus = _as_square(family(theta + step))
    minus = _as_square(family(theta - step))
    diff = (plus - minus) / (2.0 * step)
    diff = 0.5 * (diff + diff.conj().T)
    return TangentForm.from_matrix(diff, basis)


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
    if offdiag > 1e-10:
        raise ValueError("transversal tangents are defined at diagonal base "
                         f"points only (max off-diagonal entry {offdiag:.3e})")
    return TangentForm.from_matrix(np.diag(rates).astype(complex), basis)
