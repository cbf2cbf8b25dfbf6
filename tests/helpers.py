"""Shared test utilities: random draws and reference matrices."""

import numpy as np

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
