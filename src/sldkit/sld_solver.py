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
Frobenius-orthonormal basis of the gauge subspace.  Every path decides the
kernel by one rule, :func:`state_space.kernel_mask`: an eigenvalue of rho is
kernel iff it is <= tol.

At a diagonal base point diag(k) every level pair decouples into an SU(2)
block, and the SLD has the closed form

    L_ab = 2 D_ab / (k_a + k_b)

for any n; :func:`closed_form` applies it there, and the spectral oracle
applies the same pair rule in the eigenframe of an arbitrary state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lie_basis import GeneratorBasis, StructureConstants, matrix_to_pairs
from .state_space import (DEFAULT_TOL, DensityState, MixingWeights,
                          TangentForm, _any, _coefficients, _expand_each,
                          _reconstruct, _resolve_basis, check_tolerance,
                          expand, kernel_mask)


class NumericalError(Exception):
    """Numerical failure (an inconsistent system), as opposed to bad usage."""


class InconsistentSystemError(NumericalError):
    """The right-hand side has a component outside the operator range."""


class KernelInconsistentError(InconsistentSystemError):
    """The tangent couples kernel directions the state cannot support."""


@dataclass(frozen=True, eq=False)
class SLDSystem:
    """Assembled linear system M x = d over (L_id, L_1, ..., L_{n^2-1}).

    ``rhs`` is d, (n^2,) for one form or (k, n^2) for a sequence of k, and
    ``form_matrix`` drho, the matrix whose coefficients are d, (n, n) or
    (k, n, n).
    """

    matrix: np.ndarray
    rhs: np.ndarray
    form_matrix: np.ndarray
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
        return _solution_json(self.coeff_identity, self.coeffs, self.matrix,
                              self.gauge_dim, self.residual)


def _solution_json(coeff_identity, coeffs, matrix, gauge_dim,
                   residual) -> dict:
    return {
        "L_identity": float(coeff_identity),
        "L": coeffs.tolist(),
        "matrix": matrix_to_pairs(matrix),
        "gauge_dim": int(gauge_dim),
        "residual": float(residual),
    }


class _SolutionStack(NamedTuple):
    """SLDs of a stack of states, one direction each: the fields of
    :class:`SLDSolution` with a leading axis, and the gauge dimension in
    place of the gauge basis."""

    coeff_identity: np.ndarray
    coeffs: np.ndarray
    matrix: np.ndarray
    gauge_dim: np.ndarray
    residual: np.ndarray

    @classmethod
    def from_matrices(cls, L: np.ndarray, state_matrix: np.ndarray,
                      form_matrix: np.ndarray, kernel: np.ndarray,
                      basis: GeneratorBasis) -> "_SolutionStack":
        """Expand each L and take its residual; ``kernel`` is the mask of
        kernel levels, per state or shared."""
        gauge_dim = np.count_nonzero(kernel, axis=-1) ** 2
        return cls(*_expand_each(L, basis), L,
                   np.broadcast_to(gauge_dim, L.shape[:-2]),
                   _residual(state_matrix, L, form_matrix))

    def to_json_dict(self, i: int) -> dict:
        """Item ``i`` as :meth:`SLDSolution.to_json_dict` writes it."""
        return _solution_json(*(field[i] for field in self))


def _frobenius(x: np.ndarray):
    """||x||_F of a matrix, or of each matrix of a stack: one
    (1, 2n^2) x (2n^2, 1) product of its flat real view per matrix."""
    flat = np.ascontiguousarray(x).reshape(
        x.shape[:-2] + (1, x.shape[-2] * x.shape[-1])).view(float)
    return np.sqrt(np.matmul(flat, flat.swapaxes(-1, -2))[..., 0, 0])


def _residual(state_matrix: np.ndarray, L: np.ndarray,
              form_matrix: np.ndarray):
    """||drho - 1/2 {rho, L}||_F, per item of a stack."""
    return _frobenius(form_matrix
                      - 0.5 * (state_matrix @ L + L @ state_matrix))


def _finalize(L: np.ndarray, coeff_identity, coeffs: np.ndarray,
              state_matrix: np.ndarray, form_matrix: np.ndarray, gauge):
    """Freeze L, its coefficients and the gauge basis; attach the residual.

    One L gives one :class:`SLDSolution`; a stack of them (with their
    coefficients and forms) a tuple, every item sharing the gauge basis.
    """
    residual = _residual(state_matrix, L, form_matrix)
    gauge = tuple(gauge)
    for array in (L, coeffs, *gauge):
        array.setflags(write=False)
    if L.ndim == 2:
        return SLDSolution(float(coeff_identity), coeffs, L, gauge,
                           float(residual))
    return tuple(map(SLDSolution, coeff_identity.tolist(), coeffs, L,
                     itertools.repeat(gauge), residual.tolist()))


@dataclass(eq=False)
class _StateOperator:
    """The part of the SLD system that rho alone fixes, held on the state.

    ``matrix`` is M for ``constants``.  ``scaled`` is ((tol, basis), parts)
    with parts the kernel gauge basis, the kernel size r, the Frobenius
    weights W, the projector Z^T Z (None when the gauge is empty) and
    W M W^-1 + Z^T Z for that tolerance and basis; it is replaced as one
    tuple, so a key is never paired with another tolerance's parts.
    """

    constants: StructureConstants
    matrix: np.ndarray
    scaled: tuple = ((), ())


def assemble(state: DensityState, forms,
             constants: StructureConstants) -> SLDSystem:
    """Assemble the n^2 x n^2 system M x = d for the SLD coefficients.

    ``forms`` is one :class:`TangentForm` or a sequence of them; the system
    holds one right-hand side per form, and :func:`solve` answers in kind.
    M depends on rho alone: it is built on the first call for a state and
    held on it for these ``constants``, so further directions at the same
    state share M and, in :func:`solve`, its kernel gauge and scaling.
    """
    n = state.dimension
    single = isinstance(forms, TangentForm)
    if not single:
        forms = list(forms)
    # the first form of another dimension, if any
    other = (forms.dimension if single else
             next((f.dimension for f in forms if f.dimension != n), n))
    if other != n or constants.dimension != n:
        raise ValueError(
            f"dimension mismatch: state {n}, form {other}, "
            f"constants {constants.dimension}")
    held = state._operator
    if held is None or held.constants is not constants:
        M = _operator_matrix(state, constants)
        M.setflags(write=False)
        held = _StateOperator(constants, M)
        object.__setattr__(state, "_operator", held)
    if single:
        rhs = np.concatenate(([forms.coeff_identity], forms.coeffs))
        form_matrix = forms.matrix
    else:
        rhs = np.empty((len(forms), n * n))
        form_matrix = np.empty((len(forms), n, n), dtype=complex)
        for i, form in enumerate(forms):
            rhs[i, 0] = form.coeff_identity
            rhs[i, 1:] = form.coeffs
            form_matrix[i] = form.matrix
        form_matrix.setflags(write=False)
    rhs.setflags(write=False)
    return SLDSystem(held.matrix, rhs, form_matrix, n,
                     tuple(constants.diagonal_indices))


def _operator_matrix(state, constants: StructureConstants) -> np.ndarray:
    """M: rho_id 1 + the rho_k f_kjl rows, with the identity couplings.

    ``state`` is a :class:`DensityState` or a stack of states (its fields
    with a leading axis), which gets a stack of M from one ``bincount``.
    The contraction of the totally symmetric f is symmetric bit for bit
    (each (j, l) and (l, j) sums the same products in the same order), so
    it is written into M as it is.
    """
    n = constants.dimension
    rho_id = np.asarray(state.coeff_identity)
    rho = state.coeffs
    M = np.empty(rho_id.shape + (n * n, n * n))
    M[..., 0, 0] = rho_id
    M[..., 0, 1:] = (2.0 / n) * rho
    M[..., 1:, 0] = rho
    M[..., 1:, 1:] = constants.f.contract(rho)
    # the diagonal past M[0, 0]: every (n^2 + 1)-th entry of the flat M
    M.reshape(rho_id.shape + (-1,))[..., n * n + 1::n * n + 1] += \
        rho_id[..., None]
    return M


def solve(system: SLDSystem, state: DensityState, tol: float = DEFAULT_TOL,
          basis: GeneratorBasis | None = None):
    """Solve the assembled system for the SLD coefficients.

    Returns one :class:`SLDSolution` for a system assembled from one form,
    and a tuple of them, in the forms' order, for a sequence of forms.

    The kernel is decided by :func:`state_space.kernel_mask` (an eigenvalue
    of rho is kernel iff it is <= ``tol``); the gauge basis spans the
    Hermitian matrices on the kernel block, built in rho's eigenframe as in
    the oracle.  With Z those directions in Frobenius-scaled coordinates
    y = W x, one LU solve of (W M W^-1 + Z^T Z) y = W d - Z^T Z W d gives the
    minimum-norm representative: W M W^-1, the anticommutator in an
    orthonormal basis, keeps the kernel block and its complement apart, so
    the projector Z^T Z makes it invertible and leaves y zero on the block.

    When ``system`` was assembled at ``state``, the gauge, the kernel
    size and the scaled operator are built once per state and tolerance
    and reused.  Each call then validates ``tol`` once and runs one body
    for its k forms (k = 1 for a single form): it rotates every drho onto
    the kernel levels for the rejection test (nothing at a full-rank
    state), removes the gauge component of each W d (only when the gauge
    is non-empty), does one LU solve with the k right-hand sides as
    columns, rebuilds every L in one product and takes the residuals.  A
    one-element sequence gives bit for bit the single form's solution.

    Raises
    ------
    ValueError
        If ``tol`` is not finite or below ``-POSITIVITY_FLOOR``.
    KernelInconsistentError
        If, in rho's eigenframe, a form exceeds ``tol * max(1, ||drho||_F)``
        on a pair of kernel levels, where no SLD exists (e.g. a trace-changing
        direction at a pure state); for a sequence, the first such form's
        error, as a loop over the forms would raise it.
    """
    n = system.dimension
    if state.dimension != n:
        raise ValueError("state dimension does not match system")
    basis = _resolve_basis(n, basis)
    tol = check_tolerance(tol)
    gauge, r, *parts = _scaled_operator(system, state, tol, basis)
    x, L = _solve_directions(parts, r, state.eigenvectors, system.rhs,
                             system.form_matrix, basis, tol)
    return _finalize(L, x[..., 0], x[..., 1:], state.matrix,
                     system.form_matrix, gauge)


def _solve_stack(states, forms, constants: StructureConstants, tol: float,
                 basis: GeneratorBasis) -> _SolutionStack:
    """:func:`solve` for a stack of states, one direction at each.

    ``states`` and ``forms`` hold the fields of :class:`DensityState` and
    :class:`TangentForm` with a leading axis.  M is built for every state
    at once; the scaled operator, the rejection test and the LU solve run
    once per group of states with the same kernel size r.  ``eigh`` sorts
    eigenvalues in ascending order, so the kernel is each state's leading
    r levels.  Every step is the one :func:`solve` takes, with a stack axis.

    Raises
    ------
    KernelInconsistentError
        As :func:`solve`, for some state of the stack.
    """
    tol = check_tolerance(tol)
    M = _operator_matrix(states, constants)
    sizes = np.count_nonzero(kernel_mask(states.eigenvalues, tol), axis=-1)
    rhs = np.concatenate((forms.coeff_identity[:, None], forms.coeffs), -1)
    x = np.empty(rhs.shape)
    L = np.empty(forms.matrix.shape, dtype=complex)
    groups = np.flatnonzero(np.bincount(sizes))  # np.unique imports numpy.ma
    for r in groups:
        # one group scales M itself; several scale copies of their rows
        group = np.flatnonzero(sizes == r) if groups.size > 1 else slice(None)
        vectors = states.eigenvectors[group]
        _, *parts = _scaled_parts(M[group], vectors[..., :r], basis)
        x[group], L[group] = _solve_directions(
            parts, r, vectors, rhs[group], forms.matrix[group], basis, tol)
    return _SolutionStack(x[:, 0], x[:, 1:], L, sizes ** 2,
                          _residual(states.matrix, L, forms.matrix))


def _solve_directions(parts, r: int, eigenvectors: np.ndarray,
                      rhs: np.ndarray, form: np.ndarray,
                      basis: GeneratorBasis, tol: float) -> tuple:
    """The per-direction steps of :func:`solve`: (x, L).

    ``parts`` are W, Z^T Z (None for an empty gauge) and the scaled
    operator; the kernel is the leading ``r`` levels of the eigenframe.
    One operator (one state) takes ``rhs`` (n^2,) and ``form`` (n, n) for
    one direction, or (k, n^2) and (k, n, n) for k: its directions are the
    columns of one LU solve, and every L comes from one product.  A stack
    of operators (the states of a sweep) takes one direction per state, as
    (n^2, 1) columns and (1, n^2 - 1) rows, so that each state gets the
    bits of its own solve.
    """
    weights, projector, operator = parts
    if r:  # copied contiguous: strided columns round differently in BLAS
        kernel = np.ascontiguousarray(eigenvectors[..., :r])
        _reject_kernel_pairs(_in_frame(kernel, form), _frobenius(form), tol)
    wd = weights * rhs
    one = operator.ndim == 2
    columns = wd.T if one else wd[..., None]  # .T of one direction: itself
    if projector is not None:
        columns -= projector @ columns
    columns = np.linalg.solve(operator, columns)
    if one:
        x = np.ascontiguousarray(columns.T) / weights
        return x, _reconstruct(x[..., 0], x[..., 1:], basis)
    x = columns[..., 0] / weights
    return x, _reconstruct(x[:, None, 0], x[:, None, 1:], basis)[:, 0]


def _scaled_operator(system: SLDSystem, state: DensityState, tol: float,
                     basis: GeneratorBasis) -> tuple:
    """The kernel gauge, the kernel size r, W, Z^T Z and W M W^-1 + Z^T Z.

    The kernel is the leading r levels of rho's eigenframe (``eigh`` sorts
    eigenvalues ascending).  Taken from the state's held operator when
    ``system`` carries its M, and built there once per (tol, basis); a
    system assembled elsewhere gets them built from its own M.
    """
    held = state._operator
    own = held is not None and system.matrix is held.matrix
    if own and held.scaled[0] == (tol, basis):
        return held.scaled[1]
    r = int(np.count_nonzero(kernel_mask(state.eigenvalues, tol)))
    gauge, *parts = _scaled_parts(system.matrix.copy(),
                                  state.eigenvectors[:, :r], basis)
    parts = (tuple(gauge), r, *parts)
    if own:
        held.scaled = ((tol, basis), parts)
    return parts


def _scaled_parts(operator: np.ndarray, vectors: np.ndarray,
                  basis: GeneratorBasis) -> tuple:
    """The kernel gauge, W, Z^T Z and W M W^-1 + Z^T Z.

    ``operator`` is M, turned into W M W^-1 + Z^T Z in place; ``vectors``
    are the kernel levels' eigenvectors; both may carry a leading stack
    axis.  W M W^-1 differs from M only on the identity row and column,
    since every generator weight is sqrt(2).  Z expands the whole gauge as
    one stack; with no kernel levels no gauge is built, the projector
    Z^T Z is None and nothing is added.
    """
    n = basis.dimension
    # Tr(X^2) = n x_id^2 + 2 sum_k x_k^2 for X = x_id 1 + sum x_k t_k
    weights = np.sqrt(np.concatenate(([n], np.full(n * n - 1, 2.0))))
    operator[..., 0, 1:] *= weights[0] * (1.0 / weights[1])
    operator[..., 1:, 0] *= weights[1] * (1.0 / weights[0])
    gauge, projector = (), None
    if vectors.shape[-1]:
        gauge = _kernel_gauge(vectors)
        coeff_identity, coeffs = _coefficients(gauge, basis)
        Z = weights * np.concatenate((coeff_identity[..., None], coeffs), -1)
        projector = np.matmul(Z.swapaxes(-1, -2), Z)
        operator += projector
    return gauge, weights, projector, operator


def _kept_pairs(lam: np.ndarray, form: np.ndarray, tol: float):
    """Pair sums lam_a + lam_b, the mask of kept pairs and the kernel mask.

    ``form`` is drho in the frame where the state is diag(lam); both may
    carry leading stack axes.  The kernel levels are those of
    :func:`state_space.kernel_mask`, lam_a <= tol; a pair is dropped exactly
    when both its levels are kernel, and there D_ab = (lam_a + lam_b) L_ab / 2
    has a solution only if D_ab vanishes.

    Raises
    ------
    KernelInconsistentError
        If ``form`` exceeds ``tol * max(1, ||form||_F)`` on a dropped pair.
    """
    kernel = kernel_mask(lam, tol)
    dropped = kernel[..., :, None] & kernel[..., None, :]
    if _any(kernel):
        # the kept pairs zeroed: the largest entry left is on a dropped pair
        _reject_kernel_pairs(np.where(dropped, form, 0.0), _frobenius(form),
                             float(tol))
    return lam[..., :, None] + lam[..., None, :], ~dropped, kernel


def _reject_kernel_pairs(block: np.ndarray, norm, tol: float) -> None:
    """The rejection test on drho's kernel block in rho's eigenframe.

    ``block`` is drho on the leading levels of rho's eigenframe, zero off
    the pairs of kernel levels, and ``norm`` is ||drho||_F, or a stack of
    both.  On a pair of kernel levels D_ab = (lam_a + lam_b) L_ab / 2 has a
    solution only if D_ab vanishes.

    Raises
    ------
    KernelInconsistentError
        If some |D_ab| on the block exceeds ``tol * max(1, norm)``; for a
        stack, at the first such item.  The message names the largest
        entry's mirror with a <= b, so rounding between D_ab and D_ba cannot
        change it.
    """
    blocked = np.abs(block)
    bad = blocked.max((-2, -1)) > tol * np.maximum(1.0, norm)
    if _any(bad):
        size = blocked.shape[-1]
        item = np.ravel(bad).argmax()
        blocked = blocked.reshape(-1, size, size)[item]
        a, b = sorted(np.unravel_index(np.argmax(blocked), blocked.shape))
        value = block.reshape(-1, size, size)[item, a, b]
        raise KernelInconsistentError(
            f"kernel-inconsistent tangent: <{a}|drho|{b}> = "
            f"{value:.3e} on a pair of kernel levels "
            f"(eigenvalues <= tol = {tol:.3e})")


@lru_cache(maxsize=None)
def _hermitian_units(r: int) -> np.ndarray:
    """The r^2 Hermitian unit matrices on r levels, in the gauge's order."""
    a, b = np.triu_indices(r)
    pair, half = np.arange(a.size), np.sqrt(0.5)
    units = np.zeros((a.size, 2, r, r), dtype=complex)
    units[pair, 0, a, b] = units[pair, 0, b, a] = np.where(a == b, 1.0, half)
    units[pair, 1, a, b], units[pair, 1, b, a] = -1j * half, 1j * half
    units = units[np.stack((a == a, a != b), 1)]  # E_aa is one unit, not two
    units.setflags(write=False)
    return units


def _kernel_gauge(vectors: np.ndarray) -> np.ndarray:
    """Frobenius-orthonormal Hermitian basis on the span of ``vectors``.

    The stack V E V^dag over the units E: for orthonormal columns v_a,
    v_a v_a^dag, then (v_a v_b^dag + v_b v_a^dag) / sqrt(2) and
    i(v_b v_a^dag - v_a v_b^dag) / sqrt(2) for each b > a.  A stack of
    (n, r) blocks gives a stack of bases.
    """
    *lead, n, r = vectors.shape
    # V E as one (r^2 n) x r block takes V^dag in one product
    block = np.matmul(vectors[..., None, :, :], _hermitian_units(r))
    return (block.reshape(*lead, r * r * n, r)
            @ vectors.conj().swapaxes(-1, -2)).reshape(*lead, r * r, n, n)


def _in_frame(vectors: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """V^dag X V: ``matrix`` on the columns of ``vectors`` (or stacks)."""
    return vectors.conj().swapaxes(-1, -2) @ matrix @ vectors


def _pair_rule(lam: np.ndarray, vectors: np.ndarray, form: np.ndarray,
               tol: float):
    """Minimum-norm SLD of the state V diag(lam) V^dag and its kernel mask.

    ``vectors`` is V and ``form`` is drho in its frame, where
    L_ab = 2 D_ab / (lam_a + lam_b), except on pairs of two kernel levels
    (lam <= tol, :func:`state_space.kernel_mask`), where L_ab = 0.  L is
    returned in the state's own frame; every argument may carry a leading
    stack axis.
    """
    pair_sums, kept, kernel = _kept_pairs(lam, form, tol)
    L = np.where(kept, 2.0 * form / np.where(kept, pair_sums, 1.0), 0.0)
    L = vectors @ L @ vectors.conj().swapaxes(-1, -2)
    return 0.5 * (L + L.conj().swapaxes(-1, -2)), kernel


def _pair_rule_solution(lam, vectors, frame_form, state_matrix, form, tol,
                        basis) -> SLDSolution:
    """:func:`_pair_rule` as an :class:`SLDSolution`, its gauge on the kernel
    columns of V = ``vectors``; ``frame_form`` is drho in V's frame."""
    L, kernel = _pair_rule(lam, vectors, frame_form, tol)
    return _finalize(L, *expand(L, basis), state_matrix, form,
                     _kernel_gauge(vectors[:, kernel]))


def closed_form(weights: MixingWeights, form: TangentForm,
                tol: float = DEFAULT_TOL) -> SLDSolution:
    """Closed-form SLD at the diagonal base point diag(k_1, ..., k_n).

    Every level pair decouples into an SU(2) block, so

        L_ab = 2 D_ab / (k_a + k_b)

    for any n, any form and any weights, including repeated and zero ones.
    The diagonal entries L_aa = D_aa / k_a are the transversal SLD.  Pairs
    of two kernel levels (k_a <= tol, :func:`state_space.kernel_mask`) are
    set to zero (minimum norm); the gauge basis spans the Hermitian matrices
    on the kernel levels.

    Raises
    ------
    KernelInconsistentError
        If the form is nonzero on a pair of kernel levels, where no SLD
        exists (e.g. a weight rate at a zero weight).
    """
    n = weights.dimension
    if form.dimension != n:
        raise ValueError(f"dimension mismatch: weights {n}, form {form.dimension}")
    return _pair_rule_solution(
        weights.values, np.eye(n, dtype=complex), form.matrix,
        np.diag(weights.values).astype(complex), form.matrix, tol, None)
