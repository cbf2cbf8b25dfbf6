"""Seeded inputs: states, directions and one-parameter families.

Everything here is numpy only; the program under test receives the
generated matrices and JSON files, never the seed.  Each family carries the
expected QFI of every theta it is swept over, computed by ``checks``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checks

#: share of every random spectrum that is spread evenly over its support,
#: so no weight falls below 0.1 / rank and no state nears the rank cutoff
SPECTRUM_FLOOR = 0.1


def rng(seed: int, *keys: int) -> np.random.Generator:
    """Generator for one stream of inputs; any integer seed is accepted."""
    return np.random.default_rng([seed % 2 ** 64, *keys])


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def spectrum(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Dirichlet(1) weights on the first ``rank`` levels, floored, zero-padded."""
    k = np.zeros(n)
    k[:rank] = (1.0 - SPECTRUM_FLOOR) * rng.dirichlet(np.ones(rank)) \
        + SPECTRUM_FLOOR / rank
    return k / k.sum()


def deficient_rank(n: int) -> int:
    """Rank n - 2, or 1 (a pure state) at n = 2."""
    return max(1, n - 2)


def random_state(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    U = haar_unitary(rng, n)
    rho = (U * spectrum(rng, n, rank)) @ U.conj().T
    return 0.5 * (rho + rho.conj().T)


def random_direction(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random traceless Hermitian generator of unit Frobenius norm."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    K = 0.5 * (z + z.conj().T)
    K -= np.trace(K).real / n * np.eye(n)
    return K / np.linalg.norm(K)


def gell_mann_halves(n: int) -> np.ndarray:
    """The n^2 - 1 orbit directions t_k / 2 (generalized Gell-Mann matrices).

    Built here from their definition, in sldkit's documented slot order: for
    n <= 3 the Pauli / Gell-Mann numbering, where diagonal generator l follows
    the pairs within the first l + 1 levels; for n > 3 all off-diagonal
    symmetric/antisymmetric pairs (j, k) first, then the diagonal generators.
    """
    def pair(j, k):
        sym = np.zeros((n, n), dtype=complex)
        sym[j, k] = sym[k, j] = 1.0
        anti = np.zeros((n, n), dtype=complex)
        anti[j, k], anti[k, j] = -1j, 1j
        return [sym, anti]

    def diagonal(l):
        d = np.zeros(n)
        d[:l] = 1.0
        d[l] = -l
        return [np.diag(np.sqrt(2.0 / (l * (l + 1))) * d).astype(complex)]

    mats = []
    if n <= 3:
        for l in range(1, n):
            for j in range(l):
                mats += pair(j, l)
            mats += diagonal(l)
    else:
        for j in range(n):
            for k in range(j + 1, n):
                mats += pair(j, k)
        for l in range(1, n):
            mats += diagonal(l)
    return 0.5 * np.stack(mats)


def _pairs(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


@dataclass
class Family:
    """A family spec for ``sldkit qfi`` and the expected QFI along its sweep."""

    name: str
    n: int
    rank: int
    spec: dict
    theta_range: tuple          # (start, stop, count) for --theta-range
    expected: np.ndarray        # reference QFI at each swept theta
    orbit: bool                 # QFI must be constant along the sweep
    path: Path | None = None

    @property
    def thetas(self) -> np.ndarray:
        return np.linspace(*self.theta_range)

    def write(self, directory: Path) -> Path:
        self.path = directory / f"{self.name}.json"
        self.path.write_text(json.dumps(self.spec), encoding="utf-8")
        return self.path

    def state_and_tangent(self, theta: float):
        """Reference (rho, drho) at theta for an exp_generator family."""
        k = np.asarray(self.spec["weights"])
        K = self._generator()
        U = checks.expm_hermitian(K, theta)
        rho = (U * k) @ U.conj().T
        return rho, checks.commutator_tangent(K, rho)

    def _generator(self) -> np.ndarray:
        coeffs = np.asarray(self.spec["generator_coeffs"])
        return 2.0 * np.einsum("k,kij->ij", coeffs, gell_mann_halves(self.n))


def exp_family(rng, n: int, rank: int, count: int, name: str) -> Family:
    """rho(theta) = exp(-i theta K) diag(k) exp(i theta K), K random."""
    weights = spectrum(rng, n, rank)
    coeffs = rng.standard_normal(n * n - 1) / np.sqrt(n)
    spec = {"kind": "exp_generator", "n": n, "weights": weights.tolist(),
            "generator_coeffs": coeffs.tolist()}
    fam = Family(name, n, rank, spec, (0.0, 1.5, count), np.empty(0), True)
    fam.expected = np.full(count, checks.orbit_qfi(weights, fam._generator()))
    return fam


def explicit_family(rng, n: int, count: int, name: str,
                    samples: int = 5, fd_step: float = 1e-5) -> Family:
    """Five full-rank orbit samples on [0, 1], linearly interpolated."""
    weights = spectrum(rng, n, n)
    U0 = haar_unitary(rng, n)
    K = random_direction(rng, n)
    knots = np.linspace(0.0, 1.0, samples)
    mats = []
    for theta in knots:
        U = checks.expm_hermitian(K, theta) @ U0
        m = (U * weights) @ U.conj().T
        mats.append(0.5 * (m + m.conj().T))
    spec = {"kind": "explicit_matrices", "n": n,
            "matrices": [[float(t), _pairs(m)] for t, m in zip(knots, mats)]}

    def interpolate(theta: float) -> np.ndarray:
        j = min(max(int(np.searchsorted(knots, theta)), 1), samples - 1)
        frac = (theta - knots[j - 1]) / (knots[j] - knots[j - 1])
        return (1.0 - frac) * mats[j - 1] + frac * mats[j]

    fam = Family(name, n, n, spec, (0.05, 0.95, count), np.empty(0), False)
    expected = []
    for theta in fam.thetas:
        diff = (interpolate(theta + fd_step) - interpolate(theta - fd_step)) \
            / (2.0 * fd_step)
        expected.append(checks.spectral_qfi(interpolate(theta),
                                            0.5 * (diff + diff.conj().T)))
    fam.expected = np.array(expected)
    return fam


def weight_family(rng, n: int, count: int, name: str) -> Family:
    """rho(theta) = diag(k + theta dk), a convex path between two spectra."""
    weights = spectrum(rng, n, n)
    rates = spectrum(rng, n, n) - weights
    spec = {"kind": "weight_path", "n": n, "weights": weights.tolist(),
            "weight_rates": rates.tolist()}
    fam = Family(name, n, n, spec, (0.0, 0.9, count), np.empty(0), False)
    fam.expected = np.array([checks.classical_fisher(weights + t * rates, rates)
                             for t in fam.thetas])
    return fam


def distinct_weights(rng, rank: int, min_gap: float = 0.05) -> list:
    """Three-level weights of the given rank (2 or 3), pairwise distinct."""
    while True:
        k = spectrum(rng, 3, rank)
        if min(abs(k[0] - k[1]), abs(k[0] - k[2]), abs(k[1] - k[2])) > min_gap:
            return k.tolist()


def fault_state(epsilon: float, unitary_seed: int) -> np.ndarray:
    """n = 4 spectrum (0.6, 0.4 - 2 eps, eps, eps) under a fixed Haar unitary.

    The unitary comes from a fixed seed, not the run's seed: these states
    show a known disagreement of rank rules and must fail on every run.
    """
    U = haar_unitary(rng(unitary_seed), 4)
    rho = (U * np.array([0.6, 0.4 - 2.0 * epsilon, epsilon, epsilon])) @ U.conj().T
    return 0.5 * (rho + rho.conj().T)
