"""Quantum Fisher information index, Fisher tensor, and closed-form coefficients.

The scalar index along one direction is I = Tr(rho L^2).  Over several
directions the complex tensor

    F_mn = Tr(rho L_m L_n)

is Hermitian; its real part g is the symmetric (metric) component, with the
scalar index on the diagonal, and its imaginary part omega is antisymmetric
(1/2 Tr(rho {L_m, L_n}) is real symmetric; 1/2 Tr(rho [L_m, L_n]) is imaginary
antisymmetric).

At a diagonal base point each level pair (a, b) contributes an SU(2) copy of
the tensor with coefficients

    g     = 4 (k_a - k_b)^2 / (k_a + k_b)
    omega = -4 (k_a - k_b)^3 / (k_a + k_b)^2

for every n; a 0/0 pair (k_a = k_b = 0) contributes zero because the
corresponding coordinate direction collapses.

The chart of the orbit at diag(k) exponentiates the off-diagonal pair
generators, U(z) = exp(i sum_{a<b} (Re z_ab s_ab + Im z_ab t_ab)), with s_ab
and t_ab the symmetric and antisymmetric generators of level pair (a, b).
A pair with equal weights leaves diag(k) fixed, so it is no coordinate: with
repeated weights the orbit is the partial flag manifold
U(n)/(U(n_1) x ... x U(n_j)), n_i the multiplicities.  At the base point the
coordinate tangents of a kept pair are its generators weighted by the gap
k_a - k_b; directions 2i and 2i + 1 belong to the i-th kept pair in
lexicographic order, and the tensor is block diagonal with the pair
coefficients above on the blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lie_basis import GeneratorBasis, _frozen
from .sld_solver import SLDSolution
from .state_space import DensityState, MixingWeights, TangentForm, _resolve_basis

#: eigenvalue gaps at or below this collapse a level pair of the chart
GAP_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class FisherTensorResult:
    """Fisher tensor over a finite list of directions."""

    directions: int
    components: np.ndarray
    symmetric: np.ndarray
    antisymmetric: np.ndarray

    def to_json_dict(self) -> dict:
        """``g``, ``omega`` and ``directions``; F = g + i omega, so the
        components are not written twice."""
        return {
            "g": self.symmetric.tolist(),
            "omega": self.antisymmetric.tolist(),
            "directions": int(self.directions),
        }


def qfi_index(state: DensityState, sld: SLDSolution) -> float:
    """Scalar quantum Fisher information Tr(rho L^2) along one direction.

    For Hermitian L, Tr(rho L^2) = Tr(L^dag (rho L)), one product and one
    ``vdot``.
    """
    if sld.dimension != state.dimension:
        raise ValueError("state and SLD dimensions do not match")
    return float(_qfi(state.matrix, sld.matrix))


def _qfi(rho: np.ndarray, L: np.ndarray):
    """Tr(rho L^2) for Hermitian L, or per item of stacks of rho and L.

    A stack takes one (1, n^2) x (n^2, 1) product per item, the same inner
    product as ``vdot`` of one matrix, bit for bit.
    """
    rho_L = rho @ L
    if L.ndim == 2:
        return np.vdot(L, rho_L).real
    lead, n = L.shape[:-2], L.shape[-1]
    return np.matmul(L.conj().reshape(lead + (1, n * n)),
                     rho_L.reshape(lead + (n * n, 1)))[..., 0, 0].real


def fisher_tensor(state: DensityState, slds) -> FisherTensorResult:
    """Fisher tensor F_mn = Tr(rho L_m L_n) over a direction list.

    All solutions must belong to the same state; the symmetric part is
    positive semidefinite and carries the scalar index on its diagonal, the
    antisymmetric part vanishes for a single direction.  No directions give
    a 0 x 0 tensor.
    """
    slds = list(slds)
    n = state.dimension
    for sol in slds:
        if sol.dimension != n:
            raise ValueError("all SLDs must match the state dimension")
    k = len(slds)
    Ls = np.array([sol.matrix for sol in slds], dtype=complex).reshape(k, n, n)
    # F_mn = sum_ac (rho L_m)_ac (L_n^T)_ac: one batched and one plain matmul
    F = ((state.matrix @ Ls).reshape(k, n * n)
         @ Ls.transpose(0, 2, 1).reshape(k, n * n).T)
    g = 0.5 * (F.real + F.real.T)
    omega = 0.5 * (F.imag - F.imag.T)
    return FisherTensorResult(len(slds), *_frozen(F, g, omega))


def horizontal_transversal_split_check(state: DensityState,
                                       horizontal: SLDSolution,
                                       transversal: SLDSolution) -> float:
    """Cross term Tr(rho {L_h, L_T}) of the orbit/weight split.

    Vanishes at a diagonal base point because diagonal and off-diagonal
    generator products are trace-orthogonal, and is conjugation invariant.
    """
    Lh, Lt = horizontal.matrix, transversal.matrix
    return float(np.real(np.trace(state.matrix @ (Lh @ Lt + Lt @ Lh))))


def _chart_pairs(weights: MixingWeights) -> list:
    """Level pairs a < b, in lexicographic order, with gap above GAP_FLOOR."""
    k = weights.values
    return [(a, b) for a, b in itertools.combinations(range(k.size), 2)
            if abs(k[a] - k[b]) > GAP_FLOOR]


def chart_tangents(weights: MixingWeights,
                   basis: GeneratorBasis | None = None) -> list:
    """The real coordinate tangents of the orbit chart at diag(k).

    Two per level pair a < b whose gap |k_a - k_b| exceeds ``GAP_FLOOR``,
    in lexicographic order of the pairs: direction 2i (Re z) carries the
    symmetric and 2i + 1 (Im z) the antisymmetric generator of the i-th
    kept pair, each weighted by the gap k_a - k_b.  Pairs of equal weights
    are left out, so repeated weights give the tangents of the partial flag
    manifold, and equal weights none.

    Each form is built from its slot: coefficients gap * e_slot and matrix
    gap * t_slot, what expanding that matrix gives bit for bit (t_slot is
    trace-orthogonal to every other generator and to the identity).
    """
    basis = _resolve_basis(weights.dimension, basis)
    k = weights.values
    slot = {label: i for i, label in enumerate(basis.labels)}
    forms = []
    for a, b in _chart_pairs(weights):
        gap = float(k[a] - k[b])
        for kind in ("sym", "antisym"):
            i = slot[kind, a, b]
            coeffs = np.zeros(len(basis.generators))
            coeffs[i] = gap
            matrix = gap * basis.generators[i]
            forms.append(TangentForm(0.0, *_frozen(coeffs, matrix)))
    return forms


def _pair_coefficients(ka: float, kb: float):
    s = ka + kb
    if s <= 0.0:
        # both weights vanish: the coordinate direction collapses
        return 0.0, 0.0
    r = ka - kb
    return 4.0 * r * r / s, -4.0 * r ** 3 / (s * s)


def closed_form_fisher(weights: MixingWeights) -> tuple:
    """Per-pair (g, omega) Fisher coefficients at a diagonal base point.

    Returns one (g, omega) pair for every level pair a < b in lexicographic
    order, which at n = 3 is (1,2), (1,3), (2,3).  The values are those of a
    unit chart factor; a caller with chart factor |mu|^2 scales both.
    Degenerate weights are handled by continuity: a repeated pair gives
    zero coefficients, and k_a = k_b = 0 is defined as zero.
    """
    k = weights.values
    return tuple(_pair_coefficients(k[a], k[b])
                 for a, b in itertools.combinations(range(k.size), 2))


def closed_form_deviation(tensor: FisherTensorResult,
                          weights: MixingWeights) -> float:
    """Largest deviation of a chart tensor from the closed-form block shape.

    ``tensor`` is over :func:`chart_tangents` of ``weights``.  The closed
    form is block diagonal: G has g_i on both diagonal slots of block i,
    Omega has omega_i on both off-diagonal slots, and every other entry is
    zero.  Returns the largest entry of |g - G| and of ||omega| - |Omega||.
    """
    pairs = _chart_pairs(weights)
    if tensor.directions != 2 * len(pairs):
        raise ValueError(f"expected a {2 * len(pairs)}-direction chart "
                         f"tensor, got {tensor.directions} directions")
    k, d = weights.values, tensor.directions
    # scalar per pair: numpy's vectorised power may differ in the last bit
    g_pair, omega_pair = np.array([_pair_coefficients(k[a], k[b])
                                   for a, b in pairs]).reshape(-1, 2).T
    G, Omega = np.zeros((2, d, d))
    G.flat[::d + 1] = np.repeat(g_pair, 2)
    # block i starts at flat index 2i (d + 1); its off-diagonal slots
    # (2i, 2i + 1) and (2i + 1, 2i) follow 1 and d entries later
    Omega.flat[1::2 * d + 2] = Omega.flat[d::2 * d + 2] = omega_pair
    return float(max(
        np.abs(tensor.symmetric - G).max(initial=0.0),
        np.abs(np.abs(tensor.antisymmetric) - np.abs(Omega)).max(initial=0.0)))
