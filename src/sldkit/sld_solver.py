"""Linear-system solver for the symmetric logarithmic derivative (SLD).

Expanding ``drho = 1/2 {rho, L}`` on the generator basis turns the implicit
definition of the SLD into n**2 linear equations for the n**2 unknown
coefficients (L_id, L_1, ..., L_{n^2-1}):

    D_id = rho_id L_id + (2/n) sum_j rho_j L_j
    D_l  = rho_l L_id + rho_id L_l + sum_{j,k} rho_k L_j f_kjl

with f the symmetric structure constants.  For full-rank states the system is
uniquely solvable; on rank-deficient states the solution is fixed only up to
Hermitian matrices anticommuting with rho (the gauge subspace), and the solver
returns the minimum-Frobenius-norm representative together with a
Frobenius-orthonormal basis of the gauge subspace.

At a diagonal base point diag(k) every level pair decouples into an SU(2)
block, and the SLD has the closed form

    L_ab = 2 D_ab / (k_a + k_b)

for any n; :func:`closed_form` applies it there, and the spectral oracle
applies the same pair rule in the eigenframe of an arbitrary state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie_basis import GeneratorBasis, StructureConstants, matrix_to_pairs
from .state_space import (DensityState, MixingWeights, TangentForm,
                          _resolve_basis, expand, reconstruct)

DEFAULT_TOL = 1e-10


class NumericalError(Exception):
    """Numerical failure (inconsistency, degeneracy), as opposed to bad usage."""


class InconsistentSystemError(NumericalError):
    """The right-hand side has a component outside the operator range."""


class KernelInconsistentError(InconsistentSystemError):
    """The tangent couples kernel directions the state cannot support."""


class DegenerateWeightsError(NumericalError):
    """Repeated weights collapse the three-level flag chart (a zero gap)."""


@dataclass(frozen=True, eq=False)
class SLDSystem:
    """Assembled linear system M x = d over (L_id, L_1, ..., L_{n^2-1})."""

    matrix: np.ndarray
    rhs: np.ndarray
    dimension: int
    diagonal_indices: tuple

    def diagonal_block(self) -> np.ndarray:
        """Sub-block over the identity and diagonal-generator slots.

        At a diagonal base point this block decouples from the off-diagonal
        unknowns; its determinant is prod_i k_i for n = 2, 3 and vanishes
        exactly when the state is rank deficient.
        """
        idx = [0] + [i + 1 for i in self.diagonal_indices]
        return self.matrix[np.ix_(idx, idx)]


@dataclass(frozen=True, eq=False)
class SLDSolution:
    """An SLD representative with its gauge subspace and residual.

    ``gauge_basis`` is a Frobenius-orthonormal tuple of Hermitian matrices X
    with {X, rho} = 0; it is empty for full-rank states.  ``residual`` is
    ||drho - 1/2 {rho, L}||_F.
    """

    coeff_identity: float
    coeffs: np.ndarray
    matrix: np.ndarray
    gauge_basis: tuple
    residual: float

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def gauge_dim(self) -> int:
        return len(self.gauge_basis)

    def to_json_dict(self) -> dict:
        return {
            "L_identity": float(self.coeff_identity),
            "L": [float(v) for v in self.coeffs],
            "matrix": matrix_to_pairs(self.matrix),
            "gauge_dim": int(self.gauge_dim),
            "residual": float(self.residual),
        }


def _frobenius_weights(n: int) -> np.ndarray:
    # Tr(X^2) = n x_id^2 + 2 sum_k x_k^2 for X = x_id 1 + sum x_k t_k
    w = np.full(n * n, np.sqrt(2.0))
    w[0] = np.sqrt(float(n))
    return w


def _finalize(L: np.ndarray, coeff_identity: float, coeffs: np.ndarray,
              state_matrix: np.ndarray, form_matrix: np.ndarray,
              gauge) -> SLDSolution:
    """Freeze L, its coefficients and the gauge basis; attach the residual."""
    coeffs = np.asarray(coeffs, dtype=float).copy()
    recon = 0.5 * (state_matrix @ L + L @ state_matrix)
    residual = float(np.linalg.norm(form_matrix - recon))
    for array in (L, coeffs, *gauge):
        array.setflags(write=False)
    return SLDSolution(float(coeff_identity), coeffs, L, tuple(gauge), residual)


def assemble(state: DensityState, form: TangentForm,
             constants: StructureConstants) -> SLDSystem:
    """Assemble the n^2 x n^2 system M x = d for the SLD coefficients."""
    n = state.dimension
    if form.dimension != n or constants.dimension != n:
        raise ValueError(
            f"dimension mismatch: state {n}, form {form.dimension}, "
            f"constants {constants.dimension}")
    m = n * n - 1
    rho_id = state.coeff_identity
    rho = state.coeffs
    M = np.zeros((n * n, n * n))
    M[0, 0] = rho_id
    M[0, 1:] = (2.0 / n) * rho
    M[1:, 0] = rho
    M[1:, 1:] = rho_id * np.eye(m) + constants.f.contract(rho).T
    rhs = np.concatenate(([form.coeff_identity], form.coeffs))
    M.setflags(write=False)
    rhs.setflags(write=False)
    return SLDSystem(M, rhs, n, tuple(constants.diagonal_indices))


def solve(system: SLDSystem, state: DensityState, tol: float = DEFAULT_TOL,
          basis: GeneratorBasis | None = None) -> SLDSolution:
    """Solve the assembled system for the SLD coefficients.

    Full-rank states give the unique solution with an empty gauge basis.
    Rank-deficient states give the minimum-Frobenius-norm representative via
    a rank-revealing SVD with singular-value cutoff ``tol * sigma_max``; the
    null space, mapped back through the generator expansion, spans the
    Hermitian matrices anticommuting with rho.

    Raises
    ------
    ValueError
        If ``tol`` is not finite and positive.
    InconsistentSystemError
        If the right-hand side has a component outside the range of M
        exceeding ``tol`` (relative to max(1, ||d||)); this signals a form
        that is not tangent where the state is rank deficient, e.g. a
        trace-changing direction with no transversal handling.
    """
    n = system.dimension
    if state.dimension != n:
        raise ValueError("state dimension does not match system")
    tol = check_tolerance(tol)
    basis = _resolve_basis(n, basis)
    weights = _frobenius_weights(n)
    scaled = system.matrix / weights  # column scaling: unknowns y = w * x
    u, s, vh = np.linalg.svd(scaled)
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.count_nonzero(s > tol * smax)) if smax > 0.0 else 0
    rhs = system.rhs
    if rank:
        y = vh[:rank].T @ ((u[:, :rank].T @ rhs) / s[:rank])
    else:
        y = np.zeros(n * n)
    x = y / weights

    misfit = float(np.linalg.norm(system.matrix @ x - rhs))
    if misfit > tol * max(1.0, float(np.linalg.norm(rhs))):
        raise InconsistentSystemError(
            f"inconsistent system: rhs component outside the operator range "
            f"(misfit {misfit:.3e}); the form is not tangent at this state")

    # vh rows are orthonormal in the scaled coordinates, so the mapped
    # matrices are already Frobenius-orthonormal.
    gauge = [reconstruct(g[0], g[1:], basis) for g in vh[rank:] / weights]
    form_matrix = reconstruct(rhs[0], rhs[1:], basis)
    L = reconstruct(x[0], x[1:], basis)
    return _finalize(L, x[0], x[1:], state.matrix, form_matrix, gauge)


def check_tolerance(tol) -> float:
    """Return ``tol`` as a float; reject NaN, infinities and values <= 0."""
    tol = float(tol)
    if not np.isfinite(tol) or tol <= 0.0:
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    return tol


def _kept_pairs(lam: np.ndarray, form: np.ndarray, tol: float):
    """Pair sums lam_a + lam_b and the mask of pairs the SLD keeps.

    ``form`` is drho in the frame where the state is diag(lam).  A pair is
    kept when lam_a + lam_b > tol; on a dropped pair the equation
    D_ab = (lam_a + lam_b) L_ab / 2 has a solution only if D_ab vanishes.

    Raises
    ------
    KernelInconsistentError
        If ``form`` exceeds ``tol * max(1, ||form||_F)`` on a dropped pair.
    """
    tol = check_tolerance(tol)
    pair_sums = lam[:, None] + lam[None, :]
    kept = pair_sums > tol
    blocked = np.abs(form) * (~kept)
    limit = tol * max(1.0, float(np.linalg.norm(form)))
    if blocked.max() > limit:
        i, j = np.unravel_index(np.argmax(blocked), blocked.shape)
        raise KernelInconsistentError(
            f"kernel-inconsistent tangent: <{i}|drho|{j}> = "
            f"{form[i, j]:.3e} but eigenvalue pair sum is "
            f"{pair_sums[i, j]:.3e}")
    return pair_sums, kept


def _pair_rule(lam: np.ndarray, form: np.ndarray, tol: float):
    """Minimum-norm SLD and kernel gauge basis in the eigenframe of the state.

    With the state diag(lam) and ``form`` = drho in the same frame,
    L_ab = 2 D_ab / (lam_a + lam_b) on kept pairs and 0 on dropped ones.  The
    gauge basis spans the Hermitian matrices supported on the kernel indices
    lam_a <= tol / 2, Frobenius-orthonormal: E_aa, then (E_ab + E_ba)/sqrt(2)
    and i(E_ba - E_ab)/sqrt(2) for each kernel pair a < b.
    """
    pair_sums, kept = _kept_pairs(lam, form, tol)
    L = np.where(kept, 2.0 * form / np.where(kept, pair_sums, 1.0), 0.0)
    n = lam.size
    kernel = np.flatnonzero(lam <= 0.5 * tol)
    gauge = []
    for i, a in enumerate(kernel):
        g = np.zeros((n, n), dtype=complex)
        g[a, a] = 1.0
        gauge.append(g)
        for b in kernel[i + 1:]:
            g = np.zeros((n, n), dtype=complex)
            g[a, b] = g[b, a] = 1.0 / np.sqrt(2.0)
            gauge.append(g)
            g = np.zeros((n, n), dtype=complex)
            g[a, b] = -1j / np.sqrt(2.0)
            g[b, a] = 1j / np.sqrt(2.0)
            gauge.append(g)
    return L, gauge


def closed_form(weights: MixingWeights, form: TangentForm,
                tol: float = DEFAULT_TOL) -> SLDSolution:
    """Closed-form SLD at the diagonal base point diag(k_1, ..., k_n).

    Every level pair decouples into an SU(2) block, so

        L_ab = 2 D_ab / (k_a + k_b)

    for any n, any form and any weights, including repeated and zero ones.
    The diagonal entries L_aa = D_aa / k_a are the transversal SLD; pairs
    with k_a + k_b <= tol are set to zero (minimum norm) and the gauge basis
    spans the Hermitian matrices on the kernel levels k_a <= tol / 2.

    Raises
    ------
    KernelInconsistentError
        If the form is nonzero on a pair of kernel levels, where no SLD
        exists (e.g. a weight rate at a zero weight).
    """
    n = weights.dimension
    if form.dimension != n:
        raise ValueError(f"dimension mismatch: weights {n}, form {form.dimension}")
    basis = _resolve_basis(n, None)
    L, gauge = _pair_rule(weights.values, form.matrix, tol)
    state_matrix = np.diag(weights.values).astype(complex)
    return _finalize(L, *expand(L, basis), state_matrix, form.matrix, gauge)
