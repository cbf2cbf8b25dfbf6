"""Reference computations and checks for sldkit outputs, in numpy alone.

Nothing here imports sldkit: every expected value is computed from the
inputs by a route of its own (eigendecompositions, closed forms, classical
Fisher information).  Each ``check_*`` returns ``None`` when the output
passes and a message naming the violated property otherwise.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(float).eps
#: eigenvalue pairs summing to less than this are kernel pairs (unit-trace
#: states; every benchmark weight is either 0 or at least 1e-3)
KERNEL_CUT = 1e-12
#: relative tolerance for Fisher information values against a reference
QFI_RTOL = 1e-8
QFI_ATOL = 1e-10
#: SLD residual bound, in units of eps * (|drho| + |rho| |L|)
RESIDUAL_ULPS = 1e4
#: negative eigenvalues of g allowed, relative to its largest eigenvalue
PSD_RTOL = 1e-10
#: omega + omega^T allowed, relative to the largest tensor entry
ASYM_RTOL = 1e-12
#: bound on the deviation reported by ``sldkit tensor``
MAX_DEVIATION = 1e-9


def expm_hermitian(K: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i theta K) for Hermitian K."""
    w, V = np.linalg.eigh(K)
    return (V * np.exp(-1j * theta * w)) @ V.conj().T


def commutator_tangent(K: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Orbit tangent -i[K, rho]."""
    return -1j * (K @ rho - rho @ K)


def _spectral(rho: np.ndarray, drhos: np.ndarray):
    lam, V = np.linalg.eigh(rho)
    D = np.einsum("ai,mab,bj->mij", V.conj(), drhos, V)
    sums = lam[:, None] + lam[None, :]
    keep = sums > KERNEL_CUT
    return lam, D, sums, keep


def spectral_qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """sum_ij 2 |D_ij|^2 / (l_i + l_j) in the eigenbasis of rho."""
    _, D, sums, keep = _spectral(rho, drho[None])
    return float(np.sum(2.0 * np.abs(D[0][keep]) ** 2 / sums[keep]))


def spectral_tensor(rho: np.ndarray, drhos) -> np.ndarray:
    """F_mn = Tr(rho L_m L_n) with the minimum-norm spectral SLDs."""
    lam, D, sums, keep = _spectral(rho, np.asarray(drhos))
    Lt = np.where(keep, 2.0 * D / np.where(keep, sums, 1.0), 0.0)
    return np.einsum("i,mij,nji->mn", lam, Lt, Lt)


def orbit_qfi(weights, K: np.ndarray) -> float:
    """QFI along exp(-i theta K) diag(k) exp(i theta K), the same for every theta.

    In the eigenbasis of diag(k) the tangent is D_ij = -i K_ij (k_j - k_i), so
    the QFI is sum_ij 2 |K_ij|^2 (k_i - k_j)^2 / (k_i + k_j).
    """
    k = np.asarray(weights, dtype=float)
    sums = k[:, None] + k[None, :]
    keep = sums > KERNEL_CUT
    gaps = (k[:, None] - k[None, :]) ** 2
    return float(np.sum(2.0 * np.abs(K[keep]) ** 2 * gaps[keep] / sums[keep]))


def classical_fisher(weights, rates) -> float:
    """sum_i dk_i^2 / k_i over the nonzero weights."""
    k = np.asarray(weights, dtype=float)
    dk = np.asarray(rates, dtype=float)
    kept = k > 0.0
    return float(np.sum(dk[kept] ** 2 / k[kept]))


def pair_coefficients(ka: float, kb: float):
    """Three-level Fisher tensor pair coefficients (g, omega)."""
    return (4.0 * (ka - kb) ** 2 / (ka + kb),
            -4.0 * (ka - kb) ** 3 / (ka + kb) ** 2)


def _close(value: float, reference: float, rtol: float = QFI_RTOL,
           atol: float = QFI_ATOL) -> bool:
    return bool(abs(value - reference) <= atol + rtol * abs(reference))


def check_values(values, references, what: str) -> str | None:
    """Each value equals its reference within QFI_RTOL."""
    values = np.asarray(values, dtype=float)
    references = np.asarray(references, dtype=float)
    if values.shape != references.shape:
        return f"{what}: got {values.size} values, expected {references.size}"
    for i, (v, r) in enumerate(zip(values, references)):
        if not np.isfinite(v) or not _close(v, r):
            return f"{what}[{i}] = {float(v)!r}, reference {float(r)!r}"
    return None


def check_orbit_invariance(values, what: str) -> str | None:
    """The QFI does not change along an isospectral orbit."""
    values = np.asarray(values, dtype=float)
    spread = float(values.max() - values.min())
    if spread > QFI_ATOL + QFI_RTOL * float(np.abs(values).max()):
        return f"{what} varies along the orbit by {spread:.3e}"
    return None


def check_residual(rho: np.ndarray, drho: np.ndarray, L: np.ndarray,
                   what: str = "SLD") -> str | None:
    """L is Hermitian and drho = 1/2 {rho, L} up to round-off."""
    L = np.asarray(L)
    scale = np.linalg.norm(drho) + np.linalg.norm(rho) * np.linalg.norm(L)
    bound = RESIDUAL_ULPS * EPS * max(scale, 1.0)
    herm = float(np.abs(L - L.conj().T).max())
    if herm > bound:
        return f"{what} not Hermitian (deviation {herm:.3e})"
    residual = float(np.linalg.norm(drho - 0.5 * (rho @ L + L @ rho)))
    if not residual <= bound:
        return f"{what} residual {residual:.3e} above round-off bound {bound:.3e}"
    return None


def check_tensor(g, omega, reference: np.ndarray, what: str = "tensor"
                 ) -> str | None:
    """g PSD, omega antisymmetric, both equal to the spectral tensor."""
    g = np.asarray(g, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if g.shape != reference.shape or omega.shape != reference.shape:
        return f"{what}: shape {g.shape}, expected {reference.shape}"
    eig = np.linalg.eigvalsh(0.5 * (g + g.T))
    if eig.min() < -PSD_RTOL * max(float(np.abs(eig).max()), QFI_ATOL):
        return f"{what}: g not PSD (smallest eigenvalue {eig.min():.3e})"
    scale = max(float(np.abs(reference).max()), 1.0)
    asym = float(np.abs(omega + omega.T).max())
    if asym > ASYM_RTOL * scale:
        return f"{what}: omega not antisymmetric (deviation {asym:.3e})"
    err = check_values(np.diag(g), np.diag(reference.real), f"{what} diag g")
    if err:
        return err
    dev = max(float(np.abs(g - reference.real).max()),
              float(np.abs(omega - reference.imag).max()))
    if dev > QFI_ATOL + QFI_RTOL * scale:
        return f"{what}: deviates from the spectral tensor by {dev:.3e}"
    return None


def check_gauge_dim(gauge_dim: int, n: int, rank: int, what: str = "SLD"
                    ) -> str | None:
    """gauge_dim == (n - rank)^2."""
    if gauge_dim != (n - rank) ** 2:
        return f"{what}: gauge_dim {gauge_dim}, expected {(n - rank) ** 2}"
    return None


def chart_tangents(weights) -> np.ndarray:
    """The six coordinate tangents of the three-level flag chart at diag(k).

    Direction 2i (2i + 1) is the symmetric (antisymmetric) generator of level
    pair i in ((1,2), (1,3), (2,3)), weighted by the gap k_a - k_b.
    """
    k = [float(v) for v in weights]
    forms = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        sym = np.zeros((3, 3), dtype=complex)
        sym[a, b] = sym[b, a] = 1.0
        anti = np.zeros((3, 3), dtype=complex)
        anti[a, b], anti[b, a] = -1j, 1j
        forms += [(k[a] - k[b]) * sym, (k[a] - k[b]) * anti]
    return np.stack(forms)


def check_cli_tensor(payload: dict, weights) -> str | None:
    """Output of ``sldkit tensor`` for pairwise-distinct weights (k1, k2, k3)."""
    k = [float(v) for v in weights]
    pairs = payload["closed_form"]["pairs"]
    expected = [pair_coefficients(k[a], k[b]) for a, b in ((0, 1), (0, 2), (1, 2))]
    if len(pairs) != 3:
        return f"{len(pairs)} pair coefficients, expected 3"
    for i, ((g, w), (ge, we)) in enumerate(zip(pairs, expected)):
        if not (_close(g, ge, 1e-12, 1e-14) and _close(w, we, 1e-12, 1e-14)):
            return f"pair {i}: ({g!r}, {w!r}), expected ({ge!r}, {we!r})"
    deviation = payload["max_deviation"]
    if deviation is None or not deviation <= MAX_DEVIATION:
        return f"max_deviation {deviation!r} above {MAX_DEVIATION}"
    reference = spectral_tensor(np.diag(k).astype(complex), chart_tangents(k))
    return check_tensor(payload["tensor"]["g"], payload["tensor"]["omega"],
                        reference, "sldkit tensor")


def check_basis(generators: np.ndarray, n: int) -> str | None:
    """Generators are Hermitian, traceless and trace-orthonormal (Tr = 2)."""
    t = np.asarray(generators)
    m = n * n - 1
    if t.shape != (m, n, n):
        return f"basis has shape {t.shape}, expected {(m, n, n)}"
    herm = float(np.abs(t - t.conj().transpose(0, 2, 1)).max())
    trace = float(np.abs(np.einsum("kii->k", t)).max())
    gram = np.einsum("aij,bji->ab", t, t)
    ortho = float(np.abs(gram - 2.0 * np.eye(m)).max())
    worst = max(herm, trace, ortho)
    if worst > 1e-12:
        return (f"n={n} basis: hermiticity {herm:.1e}, trace {trace:.1e}, "
                f"orthonormality {ortho:.1e}")
    return None


def check_structure_sample(generators: np.ndarray, c_get, f_get, n: int,
                           pairs) -> str | None:
    """t_i t_j = (2/n) delta_ij 1 + sum_k (f_ijk + i c_ijk) t_k on given pairs.

    ``c_get`` and ``f_get`` look up one entry by index triple.  A sample of
    pairs costs O(pairs * m) lookups, where the full identity (and the m^4
    Jacobi tensor of a complete verification) grows far faster with n.
    """
    t = np.asarray(generators)
    m = t.shape[0]
    for i, j in pairs:
        coeffs = np.array([f_get(i, j, k) + 1j * c_get(i, j, k)
                           for k in range(m)])
        expected = np.einsum("k,kab->ab", coeffs, t)
        if i == j:
            expected = expected + (2.0 / n) * np.eye(n)
        dev = float(np.abs(t[i] @ t[j] - expected).max())
        if dev > 1e-10:
            return (f"n={n}: product t_{i} t_{j} deviates from its "
                    f"structure-constant expansion by {dev:.3e}")
    return None
