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

The system is solved in one body, :func:`_solve_runs`, over S states with
k directions at each: :func:`solve` is its S = 1 case, with the parts of
the system that rho alone fixes held on the state and reused across
calls, and the ``sldkit qfi`` sweep (:func:`_solve_stack`) its k = 1
case, building those parts afresh for each chunk of states.  The body
follows a plan of runs of states with one kernel size (:func:`_plan`),
runs the rejection test once per run, and makes one LU solve per chunk
with every direction as a column, through :func:`_lu_solve`, the one
call of LAPACK's gesv.  That is a state's first solve, and the sweep's
every solve.  From a held state's second solve on, :func:`_solve_held`
takes the same steps for that one state, with A^-1 of its scaled
operator A, inverted once (:func:`_inverse`), in place of the LU, and
two steps of iterative refinement; its solutions agree with a first
solve's to the LU's forward-error bound, not bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError
# LAPACK's gesv beneath np.linalg.solve and np.linalg.inv: numpy keeps the
# gufuncs private, so they are imported here alone and called from
# _lu_solve and _inverse alone
from numpy.linalg._umath_linalg import inv as _inv, solve as _gesv

from .lie_basis import (GeneratorBasis, StructureConstants, _frozen,
                        matrix_to_pairs)
from .state_space import (DEFAULT_TOL, DensityState, MixingWeights,
                          TangentForm, _any, _coefficients, _reconstruct,
                          _resolve_basis, check_tolerance, kernel_mask)

#: bytes of one n^2 x n^2 float array stacked over a chunk of states: 2
#: states at n = 8, 6 at n = 6, one from n = 9 on.  :func:`_solve_runs`
#: runs its LU solve a chunk at a time, each chunk a slice of a run of
#: states with one kernel size (:func:`_plan`), and the sweep builds each
#: chunk's M, scaled operator and Z^T Z just before its solve.
#: ``sldkit qfi`` sizes its blocks of thetas from the same budget, as one
#: stacked n x n complex array (64 thetas at n = 8, 40 at n = 10), so a
#: sweep's memory grows with the block, not with the sweep.  Larger
#: chunks cost time: arrays above malloc's mmap threshold are mapped and
#: page-faulted afresh for every chunk.  A stacked ``f.contract`` took
#: 74 us for 4 states at n = 8, but 334 us with 132 minor page faults per
#: call for 8 states, and 1,278 us with 394 faults for 8 states at n = 10
#: (``timeit`` minima, one BLAS thread, 2-core x86-64 VM).
_BLOCK_BYTES = 1 << 16


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
        return {
            "L_identity": float(self.coeff_identity),
            "L": self.coeffs.tolist(),
            "matrix": matrix_to_pairs(self.matrix),
            "gauge_dim": self.gauge_dim,
            "residual": float(self.residual),
        }


def _frobenius(x: np.ndarray):
    """||x||_F of an n x n matrix, or of each matrix of a stack: one
    (1, 2n^2) x (2n^2, 1) product of its flat real view per matrix."""
    flat = x.reshape(x.shape[:-2] + (1, x.shape[-1] ** 2)).view(float)
    return np.sqrt(np.matmul(flat, flat.swapaxes(-1, -2))[..., 0, 0])


def _finalize(L: np.ndarray, coeff_identity, coeffs: np.ndarray,
              state_matrix: np.ndarray, form_matrix: np.ndarray, gauge):
    """One frozen :class:`SLDSolution` per L of a stack, with its residual
    ||drho - 1/2 {rho, L}||_F.

    ``L``, ``coeff_identity``, ``coeffs`` and ``form_matrix`` carry one
    leading axis over the solutions, which share the gauge basis (a tuple
    of read-only matrices, frozen where it is built); without that axis
    (L an n x n matrix) they give the one solution itself.
    """
    residual = _frobenius(form_matrix
                          - 0.5 * (state_matrix @ L + L @ state_matrix))
    _frozen(L, coeffs)
    if L.ndim == 2:
        return SLDSolution(float(coeff_identity), coeffs, L, gauge,
                           float(residual))
    return tuple(map(SLDSolution, coeff_identity.tolist(), coeffs, L,
                     itertools.repeat(gauge), residual.tolist()))


@dataclass(eq=False)
class _StateOperator:
    """The part of the SLD system that rho alone fixes, held on the state.

    ``matrix`` is M for ``constants``, set by :func:`assemble`.
    :func:`solve` completes the record for one ``tol`` and ``basis`` (None
    until then) with:
    - ``kernel``, the r kernel columns of rho's eigenframe as a contiguous
      (1, n, r) stack, the rejection test's frame;
    - ``gauge``, the kernel gauge basis, frozen once, when it is built;
    - ``weights``, the Frobenius weights W, shaped (1, 1, n^2);
    - ``projector``, Z^T Z (None when the gauge is empty);
    - ``operator``, the scaled operator A = W M W^-1 + Z^T Z;
    - ``inverse``, A^-1, from the record's second solve on (None until
      then), which every later solve multiplies by (:func:`_solve_held`).
    Another tolerance or basis replaces the whole record, inverse and all,
    so its parts never belong to two tolerances.  The record is n^4 floats
    three times over (M, A and A^-1; 1.5 MB at n = 16) for as long as the
    state lives; it is kept because a caller that solves one direction per
    call at a state (the README quickstart, a Fisher tensor built direction
    by direction) would otherwise pay for M, its scaling and an LU on every
    call.
    """

    constants: StructureConstants | None
    matrix: np.ndarray
    tol: float | None = None
    basis: GeneratorBasis | None = None
    kernel: np.ndarray | None = None
    gauge: tuple = ()
    weights: np.ndarray | None = None
    projector: np.ndarray | None = None
    operator: np.ndarray | None = None
    inverse: np.ndarray | None = None

    def parts(self, part: slice, r: int) -> tuple:
        """W, Z^T Z and the scaled operator, for the one chunk of
        :func:`_solve_runs`."""
        return self.weights, self.projector, self.operator


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
        raise ValueError(f"dimension mismatch: state {n}, form {other}, "
                         f"constants {constants.dimension}")
    held = state._operator
    if held is None or held.constants is not constants:
        held = _StateOperator(constants, *_frozen(
            _operator_matrix(state.coeff_identity, state.coeffs, constants)))
        object.__setattr__(state, "_operator", held)
    if single:
        rhs = np.empty(n * n)
        rhs[0], rhs[1:] = forms.coeff_identity, forms.coeffs
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


def _operator_matrix(rho_id, rho: np.ndarray,
                     constants: StructureConstants) -> np.ndarray:
    """M: rho_id 1 + the rho_k f_kjl rows, with the identity couplings.

    ``rho_id`` and ``rho`` are a state's coefficients, or a stack of them
    along a leading axis, which gets a stack of M from one ``bincount``.
    The contraction of the totally symmetric f is symmetric bit for bit
    (each (j, l) and (l, j) sums the same products in the same order), so
    it is written into M as it is.
    """
    n = constants.dimension
    rho_id = np.asarray(rho_id)
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
    the oracle, and the solution is its minimum-norm representative.

    The first solve of a state's record is the one-state case of
    :func:`_solve_runs`, with the k forms as its directions (k = 1 for a
    single form): one run, one chunk and one LU solve (gesv) with the k
    right-hand sides as columns, whose bits do not depend on what the state
    solved before.  When ``system`` was assembled at ``state``, the record
    held there (the kernel, the frozen gauge, W, Z^T Z and the scaled
    operator A) is built once per state, tolerance and basis and reused.
    From its second solve on, the record also holds A^-1, inverted once,
    and a solve costs the rejection test (nothing at a full-rank state),
    five products with A and A^-1 (two steps of iterative refinement), one
    product for every L and the residuals (:func:`_solve_held`).  Such a
    later solve agrees with the same forms solved first at a fresh state to
    the forward-error bound c kappa eps max(1, |L|), not bit for bit; a
    one-element sequence gives bit for bit the single form's solution at
    the same place in a state's calls.

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
    held = state._operator
    record = _scaled_operator(system, state, check_tolerance(tol), basis)
    if record is held:  # built by an earlier solve
        return _solve_held(system, state, record)
    x = _solve_runs(_plan((record.kernel.shape[-1],), n * n), record.kernel,
                    system.form_matrix.reshape(1, -1, n, n),
                    system.rhs.reshape(1, -1, n * n), record.parts,
                    record.tol)[0]
    solutions = _finalize(_reconstruct(x[:, 0], x[:, 1:], basis), x[:, 0],
                          x[:, 1:], state.matrix, system.form_matrix,
                          record.gauge)
    return solutions if system.rhs.ndim == 2 else solutions[0]


def _solve_held(system: SLDSystem, state: DensityState,
                held: _StateOperator):
    """:func:`solve` at the state's held record, from its second solve on.

    The steps of :func:`_solve_runs` for one state, written for it: the
    rejection test, w = W d - Z^T Z W d, then y = A^-1 w refined twice,
    y += A^-1 (w - A y), and x = y / W.  A^-1 is inverted on the first
    call here and held.  The plain product y = A^-1 w errs by about
    kappa eps ||A^-1|| ||w||, far above the LU's kappa eps ||y|| when w is
    small on the near-kernel pairs, as orbit tangents are.  Each step of
    fixed-precision refinement cuts that error by about kappa eps (Skeel,
    Math. Comp. 35, 817 (1980); Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 12).  Over 1,500 states at
    n = 2..8 with kernel levels at 0 to 0.99 tol next to kept ones at 1.01
    to 2 tol (kappa up to about 2e10), one step left L up to 265 kappa eps
    max(1, |L|) from the oracle's, two steps 3.98, as the LU did, and a
    third gained nothing.
    """
    forms, rhs = system.form_matrix, system.rhs
    if held.kernel.shape[-1]:
        D = forms.reshape(1, -1, *forms.shape[-2:])
        _reject_kernel_pairs(_in_frame(held.kernel[:, None], D), D, held.tol)
    if held.inverse is None:
        held.inverse = _inverse(held.operator)
    weights = held.weights[0, 0]
    w = weights * rhs  # W d, one row per form
    if held.projector is not None:
        w -= w.dot(held.projector)  # Z^T Z is symmetric
    # rows times A^-T and A^T: A^-1 and A on each column; ``dot`` costs
    # less per call than ``@`` at these sizes
    inverse, operator = held.inverse.T, held.operator.T
    y = w.dot(inverse)
    for _ in range(2):
        y += (w - y.dot(operator)).dot(inverse)
    x = y / weights
    coeff_identity, coeffs = x[..., 0], x[..., 1:]
    return _finalize(_reconstruct(coeff_identity, coeffs, held.basis),
                     coeff_identity, coeffs, state.matrix, forms, held.gauge)


def _solve_stack(states, forms, constants: StructureConstants, tol: float,
                 basis: GeneratorBasis) -> np.ndarray:
    """The SLD matrices L of a stack of states, one direction at each.

    ``states`` and ``forms`` hold the fields of :class:`DensityState` and
    :class:`TangentForm` with a leading axis.  This is the one-direction
    case of :func:`_solve_runs`: the kernel sizes come from each state's
    spectrum, and every chunk builds its states' M and scaled parts
    afresh, so a sweep holds no operator past its chunk.  L is rebuilt
    once for the stack; no coefficients are kept and no residual is taken,
    as the sweep reads L alone.  Every state gets its own M, LU and
    products, so its bits do not depend on the stack, the run or the
    chunk, and each L has the bits of the one-state solve's
    :attr:`SLDSolution.matrix`.

    Raises
    ------
    KernelInconsistentError
        As :func:`solve`, for the first state of the stack that fails.
    """
    sizes = np.count_nonzero(kernel_mask(states.eigenvalues, tol), axis=-1)

    def parts(part: slice, r: int) -> tuple:
        M = _operator_matrix(states.coeff_identity[part],
                             states.coeffs[part], constants)
        return _scaled_parts(M, states.eigenvectors[part, :, :r], basis)[1:]

    n = basis.dimension
    x = _solve_runs(_plan(sizes.tolist(), n * n), states.eigenvectors,
                    forms.matrix[:, None],
                    np.concatenate((forms.coeff_identity[:, None, None],
                                    forms.coeffs[:, None]), -1), parts, tol)
    return _reconstruct(x[..., 0], x[..., 1:], basis)[:, 0]


def _plan(sizes, unknowns: int) -> tuple:
    """The runs and chunks of :func:`_solve_runs` for states with these
    kernel sizes r, with ``unknowns`` = n^2.

    The states are taken in their own order, as runs of consecutive states
    with one r (a sorted sweep changes r only where the family's rank
    does), and each run is cut into chunks, slices of as many states as fit
    one stacked n^2 x n^2 float array into ``_BLOCK_BYTES``.  One
    ``(r, run, chunks)`` per run, with ``run`` a slice over the states and
    ``chunks`` a tuple of slices.
    """
    chunk = max(1, _BLOCK_BYTES // (8 * unknowns ** 2))
    plan, stop = [], 0
    for r, run in itertools.groupby(sizes):
        start, stop = stop, stop + len(list(run))
        plan.append((r, slice(start, stop),
                     tuple(slice(lo, min(lo + chunk, stop))
                           for lo in range(start, stop, chunk))))
    return tuple(plan)


def _lu_solve(operator: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(operator, columns)`` for float stacks of
    right-hand-side columns, without its Python wrapper.

    The same gufunc (LAPACK's gesv) under the same error state as
    ``np.linalg.solve``, so the same bits, and ``LinAlgError`` for a
    singular operator.  The wrapper's checks and casts, which these
    operands never need, cost about as much as the LU of an n = 4 system
    (8.4 against 3.9 us).
    """
    with _lapack_errors():
        return _gesv(operator, columns, signature="dd->d")


def _inverse(operator: np.ndarray) -> np.ndarray:
    """``np.linalg.inv(operator)`` for a float operator, without its Python
    wrapper: the same gufunc (gesv against the identity) under the same
    error state as :func:`_lu_solve`, so the same bits, and
    ``LinAlgError`` for a singular operator."""
    with _lapack_errors():
        return _inv(operator, signature="d->d")


def _lapack_errors():
    """numpy.linalg's error state around its gufuncs: a singular operator
    raises ``LinAlgError``, and no other floating-point flag warns."""
    return np.errstate(call=_singular, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def _singular(error, flag):
    raise LinAlgError("Singular matrix")


def _solve_runs(plan, vectors: np.ndarray, forms: np.ndarray,
                rhs: np.ndarray, parts, tol: float) -> np.ndarray:
    """x of M x = d for S states and k directions at each: (S, k, n^2).

    ``plan`` is the states' runs and chunks from :func:`_plan`,
    ``vectors`` the states' eigenvectors (S, n, m),
    ``forms`` the drho (S, k, n, n) and ``rhs`` the d (S, k, n^2).
    ``eigh`` sorts eigenvalues in ascending order, so the kernel is each
    state's leading r levels, and ``vectors`` needs only those (m >= r).
    For each run:
    - the rejection test runs once, on every drho in the kernel block of
      its state's eigenframe (nothing when r = 0);
    - ``parts(part, r)`` gives each chunk's W, Z^T Z (None for an empty
      gauge) and W M W^-1 + Z^T Z, stacked over the chunk or shared by it;
    - the gauge component is taken off every W d, and one LU solve per
      chunk (:func:`_lu_solve`) takes every direction as a column.
    With Z the gauge directions in Frobenius-scaled coordinates y = W x,
    the solve of (W M W^-1 + Z^T Z) y = W d - Z^T Z W d gives the
    minimum-norm x: W M W^-1, the anticommutator in an orthonormal basis,
    keeps the kernel block and its complement apart, so the projector
    Z^T Z makes it invertible and leaves y zero on the block.  Every state
    gets its own LU and products, so its bits do not depend on S, the run
    or the chunk.

    Raises
    ------
    KernelInconsistentError
        From :func:`_reject_kernel_pairs`, at the first run that fails.
    """
    x = np.empty(rhs.shape)
    for r, run, chunks in plan:
        if r:  # V copied contiguous: strided columns round differently
            V = np.ascontiguousarray(vectors[run, None, :, :r])
            D = forms[run]
            _reject_kernel_pairs(_in_frame(V, D), D, tol)
        for part in chunks:
            weights, projector, operator = parts(part, r)
            wd = (weights * rhs[part]).swapaxes(-1, -2)  # W d, as columns
            if projector is not None:
                wd -= projector @ wd
            x[part] = _lu_solve(operator, wd).swapaxes(-1, -2) / weights
            del projector, operator  # freed before the next chunk's M
    return x


def _scaled_operator(system: SLDSystem, state: DensityState, tol: float,
                     basis: GeneratorBasis) -> _StateOperator:
    """The state's record, completed for ``tol`` and ``basis``.

    The kernel is the leading r levels of rho's eigenframe (``eigh`` sorts
    eigenvalues ascending).  Taken from the state's held record when
    ``system`` carries its M, and built there once per (tol, basis); a
    system assembled elsewhere gets a record of its own M, not held.
    """
    held = state._operator
    own = held is not None and system.matrix is held.matrix
    if own and held.tol == tol and held.basis is basis:
        return held
    r = int(np.count_nonzero(kernel_mask(state.eigenvalues, tol)))
    vectors = state.eigenvectors[:, :r]
    record = _StateOperator(
        held.constants if own else None, system.matrix, tol, basis,
        np.ascontiguousarray(vectors[None]),
        *_scaled_parts(system.matrix.copy(), vectors, basis))
    if own:
        object.__setattr__(state, "_operator", record)
    return record


def _scaled_parts(operator: np.ndarray, vectors: np.ndarray,
                  basis: GeneratorBasis) -> tuple:
    """The kernel gauge (a tuple over its leading axis, read-only), W,
    Z^T Z and W M W^-1 + Z^T Z.

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
        gauge, = _frozen(_kernel_gauge(vectors))
        coeff_identity, coeffs = _coefficients(gauge, basis)
        Z = weights * np.concatenate((coeff_identity[..., None], coeffs), -1)
        projector = np.matmul(Z.swapaxes(-1, -2), Z)
        operator += projector
    # W with the three axes of the right-hand sides, (S, k, n^2): a ufunc is
    # cheaper on operands of one rank
    return tuple(gauge), weights[None, None], projector, operator


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
        _reject_kernel_pairs(np.where(dropped, form, 0.0), form, float(tol))
    return lam[..., :, None] + lam[..., None, :], ~dropped, kernel


def _reject_kernel_pairs(block: np.ndarray, form: np.ndarray,
                         tol: float) -> None:
    """The rejection test on drho's kernel block in rho's eigenframe.

    ``block`` is drho on the leading levels of rho's eigenframe, zero off
    the pairs of kernel levels, and ``form`` is drho, or a stack of both.
    On a pair of kernel levels D_ab = (lam_a + lam_b) L_ab / 2 has a
    solution only if D_ab vanishes.

    Raises
    ------
    KernelInconsistentError
        If some |D_ab| on the block exceeds ``tol * max(1, ||drho||_F)``;
        for a stack, at the first such item.  The message names the largest
        entry's mirror with a <= b, so rounding between D_ab and D_ba cannot
        change it, and a diagonal D_aa with a zero imaginary part, so the
        round-off of the product that formed the block cannot either.
    """
    blocked = np.abs(block)
    # every item's limit is at least tol: a block all below it passes
    # before any norm is taken
    if blocked.max(initial=0.0) > tol and _any(
            bad := blocked.max((-2, -1))
            > tol * np.maximum(1.0, _frobenius(form))):
        size = blocked.shape[-1]
        item = np.ravel(bad).argmax()
        blocked = blocked.reshape(-1, size, size)[item]
        a, b = sorted(np.unravel_index(np.argmax(blocked), blocked.shape))
        value = block.reshape(-1, size, size)[item, a, b]
        if a == b:
            value = complex(value.real)
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
    # E_aa is one unit, not two
    return _frozen(units[np.stack((a == a, a != b), 1)])[0]


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
    columns of V = ``vectors``; ``frame_form`` is drho in V's frame.  L is
    Hermitian by construction, so it is expanded without a check."""
    L, kernel = _pair_rule(lam, vectors, frame_form, tol)
    c_id, coeffs = _coefficients(L, _resolve_basis(L.shape[0], basis))
    gauge, = _frozen(_kernel_gauge(vectors[:, kernel]))
    return _finalize(L[None], c_id[None], coeffs[None], state_matrix,
                     form[None], tuple(gauge))[0]


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
