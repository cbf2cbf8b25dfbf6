"""Shared test utilities: random draws, reference matrices and reference
computations."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sldkit
from sldkit import sld_solver

SQ3 = np.sqrt(3.0)

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

GELL_MANN = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / SQ3,
]


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(n, rng, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (m + m.conj().T)


def random_full_rank_weights(n, rng):
    """Random spectrum summing to 1 with every entry at least 1/(2n)."""
    return 0.5 * rng.dirichlet(np.ones(n)) + 0.5 / n


def random_distinct_weights(rng, min_gap=0.02):
    """Random full-rank three-level weights with pairwise-distinct entries."""
    while True:
        k = random_full_rank_weights(3, rng)
        gaps = [abs(k[0] - k[1]), abs(k[0] - k[2]), abs(k[1] - k[2])]
        if min(gaps) > min_gap:
            return k


def assert_same_modulo_gauge(closed, general, atol=1e-10):
    """Two SLD solutions agree up to the gauge span of ``general``."""
    assert closed.gauge_dim == general.gauge_dim
    diff = general.matrix - closed.matrix
    for g in general.gauge_basis:
        diff = diff - np.trace(g.conj().T @ diff) * g
    assert np.abs(diff).max() < atol


def dense_structure_constants(generators, drop_tol=1e-12):
    """Reference c and f from the dense trace of every generator triple.

    O(n^9): T_abc = Tr(t_a t_b t_c) for all triples, then
    c = (T_abc - T_bac) / 4i and f = (T_abc + T_bac) / 4.  Returns dicts of
    canonical triples (i < j < k for c, i <= j <= k for f) whose magnitude
    is at least ``drop_tol``.
    """
    t = np.asarray(generators)
    tr_abc = np.einsum("aij,bjk,cki->abc", t, t, t, optimize=True)
    tr_bac = tr_abc.transpose(1, 0, 2)
    c_dense = ((tr_abc - tr_bac) / 4j).real
    f_dense = ((tr_abc + tr_bac) / 4.0).real
    i, j, k = np.indices(c_dense.shape)
    sorted_ = (i <= j) & (j <= k)
    distinct = (i < j) & (j < k)

    def entries(dense, mask):
        keep = mask & (np.abs(dense) >= drop_tol)
        return {(int(a), int(b), int(c)): float(dense[a, b, c])
                for a, b, c in zip(*np.nonzero(keep))}

    return entries(c_dense, distinct), entries(f_dense, sorted_)


def anticommutator_matrix(rho, basis):
    """The map x -> coefficients of 1/2 {rho, X} in generator coordinates.

    Uses vec(1/2 {rho, X}) = 1/2 (I (x) rho + rho^T (x) I) vec(X) with
    column-stacking vec, independent of the structure constants.  The
    coordinates are (x_id, x_1, ..., x_m) with X = x_id 1 + sum x_k t_k, and
    a matrix Y maps to (Tr Y / n, Tr(t_k Y) / 2).
    """
    n = rho.shape[0]
    elements = np.concatenate([np.eye(n)[None], basis.generators])
    eye = np.eye(n)
    vec_map = 0.5 * (np.kron(eye, rho) + np.kron(rho.T, eye))
    to_vec = np.stack([e.ravel(order="F") for e in elements], axis=1)
    # Tr(A Y) = A.ravel() . vec(Y) for column-stacking vec
    weights = np.array([1.0 / n] + [0.5] * (n * n - 1))
    from_vec = weights[:, None] * np.stack([e.ravel() for e in elements])
    return from_vec @ vec_map @ to_vec


def einsum_fisher_tensor(rho, Ls):
    """Reference F_mn = Tr(rho L_m L_n) as one contraction over a, b, c."""
    return np.einsum("ab,mbc,nca->mn", rho, np.asarray(Ls), np.asarray(Ls),
                     optimize=True)


def einsum_expand(matrix, basis):
    """Reference expansion (Tr(M)/n, Tr(M t_k)/2) as one einsum per call."""
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    coeffs = np.einsum("kij,ji->k", basis.generators, m).real / 2.0
    return float(np.trace(m).real) / n, coeffs


def einsum_reconstruct(coeff_identity, coeffs, basis):
    """Reference ``c_id * 1 + sum_k coeffs[k] t_k`` as one einsum."""
    n = basis.dimension
    return coeff_identity * np.eye(n, dtype=complex) + np.einsum(
        "k,kij->ij", np.asarray(coeffs, dtype=float), basis.generators)


def loop_kernel_gauge(vectors):
    """Reference kernel gauge as a Python loop of outer products.

    For orthonormal columns v_a: v_a v_a^dag, then (v_a v_b^dag + v_b v_a^dag)
    / sqrt(2) and i(v_b v_a^dag - v_a v_b^dag) / sqrt(2) for each a < b.
    """
    columns = vectors.T
    gauge = []
    for i, a in enumerate(columns):
        gauge.append(np.outer(a, a.conj()))
        for b in columns[i + 1:]:
            ab = np.outer(a, b.conj()) / np.sqrt(2.0)
            gauge.append(ab + ab.conj().T)
            gauge.append(1j * (ab.conj().T - ab))
    return gauge


def count_lu_solves(monkeypatch):
    """Record the (operator, right-hand side) shapes of every LU solve from
    here on, at the solver's gesv call site (``sld_solver._lu_solve``);
    returns the growing list."""
    return _count_shapes(monkeypatch, "_lu_solve")


def count_inverses(monkeypatch):
    """Record the (operator,) shape of every inversion from here on, at the
    solver's inverse call site (``sld_solver._inverse``); returns the
    growing list."""
    return _count_shapes(monkeypatch, "_inverse")


def _count_shapes(monkeypatch, name):
    calls = []
    call = getattr(sld_solver, name)

    def counting(*operands):
        calls.append(tuple(map(np.shape, operands)))
        return call(*operands)

    monkeypatch.setattr(sld_solver, name, counting)
    return calls


#: runs argv and prints its exit code and peak RSS in kB.  A child's
#: ru_maxrss starts at the RSS of the process that spawned it, which for
#: pytest is far above the bounds; spawned from this bare interpreter, the
#: measured child starts near 13 MB
_PEAK_RSS = ("import os, subprocess, sys\n"
             "child = subprocess.Popen(sys.argv[1:],\n"
             "                         stdout=subprocess.DEVNULL)\n"
             "_, status, usage = os.wait4(child.pid, 0)\n"
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def fresh_peak_mb(*args, timeout=120):
    """Exit code and peak RSS in MB of ``python *args`` in a fresh process
    with one BLAS thread and this sldkit on its path, spawned through the
    bare launcher above."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(sldkit.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, *args], env=env,
        capture_output=True, text=True, timeout=timeout)
    code, kb = map(int, result.stdout.split())
    return code, kb / 1024


def condition_number(eigenvalues, tol):
    """kappa of the solver's scaled operator W M W^-1 + Z^T Z, read off the
    state's spectrum.

    W M W^-1 is the anticommutator X -> 1/2 {rho, X} in Frobenius-orthonormal
    coordinates, symmetric, with the pair half-sums (lam_a + lam_b) / 2 as
    eigenvalues; Z^T Z adds 1 on the gauge directions, the pairs of two
    kernel levels (lam <= tol), whose half-sums are at most tol.  So kappa is
    the largest over the smallest of the kept half-sums and, with a kernel,
    1.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    kernel = lam <= tol
    dropped = kernel[:, None] & kernel[None, :]
    values = np.where(dropped, 1.0, 0.5 * (lam[:, None] + lam[None, :]))
    return values.max() / values.min()


#: c of the stacked-against-single bound |dL| <= c kappa eps max(1, |L|),
#: chosen once from the worst case over the property strategies of
#: test_properties.py (stacked_problems and the chart's diagonal_weights):
#: three runs of 3,000 examples each, about 172,000 solves at n = 2..6, gave
#: a largest ratio of 1.40 (at kappa = 2, n = 6).  Chart, full-rank, rank
#: n - 2 and lambda_min = 1e-8 states at n = 4..16, all n^2 - 1 directions,
#: stayed below 0.42.  c = 4 leaves a factor of about 3.
KAPPA_C = 4.0


def kappa_bound(L, eigenvalues, tol, c=KAPPA_C):
    """c kappa eps max(1, |L|_max), the LU forward-error bound (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 9), for
    an SLD matrix L of the state with these eigenvalues."""
    return (c * condition_number(eigenvalues, tol) * np.finfo(float).eps
            * max(1.0, np.abs(L).max()))


def assert_within_kappa_bound(a, b, eigenvalues, tol, c=KAPPA_C):
    """Two SLD solutions of one system agree to :func:`kappa_bound` of b's
    L, with the same gauge dimension."""
    assert a.gauge_dim == b.gauge_dim
    bound = kappa_bound(b.matrix, eigenvalues, tol, c)
    assert abs(a.coeff_identity - b.coeff_identity) <= bound
    assert np.abs(a.coeffs - b.coeffs).max(initial=0.0) <= bound
    assert np.abs(a.matrix - b.matrix).max() <= bound
