"""Spectral route to the SLD and the quantum Fisher information.

Works entirely in the eigenbasis of the state and never touches the
structure-constant machinery, so it serves as an independent cross-check of
the linear-system solver.  With rho = sum_i lambda_i |i><i|, the SLD is the
pair rule shared with :func:`sld_solver.closed_form`, applied in that frame:

    L_ij = 0                                      if lambda_i, lambda_j <= tol
    L_ij = 2 <i|drho|j> / (lambda_i + lambda_j)   otherwise

An eigenvalue is kernel iff it is <= tol (:func:`state_space.kernel_mask`,
the rule the solver uses too), and a pair is dropped exactly when both its
levels are kernel.  This is the minimum-norm representative, matching the
solver.  The scalar Fisher information is
sum_ij 2 |<i|drho|j>|^2 / (lambda_i + lambda_j) over the kept pairs.
"""

from __future__ import annotations

import numpy as np

from .lie_basis import GeneratorBasis
from .sld_solver import (SLDSolution, _in_frame, _kept_pairs,
                         _pair_rule_solution)
from .state_space import (DEFAULT_TOL, DensityState, TangentForm,
                          _resolve_basis)


def sld_eigenbasis(state: DensityState, form: TangentForm,
                   tol: float = DEFAULT_TOL,
                   basis: GeneratorBasis | None = None) -> SLDSolution:
    """SLD from the eigendecomposition of the state.

    Matrix elements on pairs of kernel eigenvalues (both <= tol) are set to
    zero; the returned gauge basis spans the Hermitian matrices supported on
    the kernel of the state.
    """
    vectors = state.eigenvectors
    return _pair_rule_solution(
        state.eigenvalues, vectors, _in_frame(vectors, form.matrix),
        state.matrix, form.matrix, tol, _resolve_basis(state.dimension, basis))


def qfi_eigenbasis(state: DensityState, form: TangentForm,
                   tol: float = DEFAULT_TOL) -> float:
    """Quantum Fisher information from the eigendecomposition of the state."""
    return float(_qfi(state.eigenvalues, state.eigenvectors, form.matrix, tol))


def _qfi(lam: np.ndarray, vectors: np.ndarray, drho: np.ndarray,
         tol: float):
    """:func:`qfi_eigenbasis` from the eigenframe (lam, vectors) and drho;
    every argument may carry a leading stack axis."""
    dtil = _in_frame(vectors, drho)
    pair_sums, kept, _ = _kept_pairs(lam, dtil, tol)
    terms = 2.0 * np.abs(dtil) ** 2 / np.where(kept, pair_sums, 1.0)
    return np.where(kept, terms, 0.0).sum((-2, -1))
