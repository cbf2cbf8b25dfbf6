"""Property tests: the closed form against the general solver and the oracle.

Diagonal weights are drawn from small integer counts, so zeros and repeated
values are common; forms are random Hermitian matrices that vanish on the
kernel block, the only forms with an SLD there.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import assert_same_modulo_gauge

from sldkit import (MixingWeights, TangentForm, assemble, base_point,
                    build_basis, closed_form, compute_structure_constants,
                    sld_eigenbasis, solve)


@st.composite
def diagonal_problems(draw):
    n = draw(st.integers(2, 6))
    counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                  .filter(any))
    weights = MixingWeights(np.array(counts, dtype=float) / sum(counts))
    parts = draw(arrays(float, (2, n, n), elements=st.floats(-1.0, 1.0)))
    D = parts[0] + 1j * parts[1]
    D = D + D.conj().T
    kernel = weights.values == 0.0
    D[np.ix_(kernel, kernel)] = 0.0
    return weights, TangentForm.from_matrix(D)


@settings(deadline=None)
@given(diagonal_problems())
def test_closed_form_matches_solver_and_oracle(problem):
    weights, form = problem
    n = weights.dimension
    state = base_point(weights)
    constants = compute_structure_constants(build_basis(n))
    closed = closed_form(weights, form)
    assert_same_modulo_gauge(closed,
                             solve(assemble(state, form, constants), state))
    assert np.abs(closed.matrix - sld_eigenbasis(state, form).matrix).max() \
        <= 1e-12
    assert closed.residual <= 1e-10
    assert closed.gauge_dim == (n - weights.rank) ** 2
