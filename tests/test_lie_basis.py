"""Generator bases and structure constants."""

import dataclasses
import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest

from helpers import (GELL_MANN, PAULI, SQ3, dense_structure_constants,
                     fresh_peak_mb)

from sldkit import (GeneratorBasis, StructureTensor, build_basis,
                    compute_structure_constants, verify_basis)
from sldkit.lie_basis import (DROP_TOL, _jacobi_sums, matrix_to_pairs,
                              pairs_to_matrix)

# 0-based canonical triples of the su(3) reference tables
SU3_C = {
    (0, 1, 2): 1.0,
    (3, 4, 7): SQ3 / 2, (5, 6, 7): SQ3 / 2,
    (0, 3, 6): 0.5, (1, 3, 5): 0.5, (1, 4, 6): 0.5, (2, 3, 4): 0.5,
    (0, 4, 5): -0.5, (2, 5, 6): -0.5,
}
SU3_F = {
    (0, 0, 7): 1 / SQ3, (1, 1, 7): 1 / SQ3, (2, 2, 7): 1 / SQ3,
    (7, 7, 7): -1 / SQ3,
    (3, 3, 7): -1 / (2 * SQ3), (4, 4, 7): -1 / (2 * SQ3),
    (5, 5, 7): -1 / (2 * SQ3), (6, 6, 7): -1 / (2 * SQ3),
    (0, 3, 5): 0.5, (0, 4, 6): 0.5, (1, 3, 6): -0.5, (1, 4, 5): 0.5,
    (2, 3, 3): 0.5, (2, 4, 4): 0.5, (2, 5, 5): -0.5, (2, 6, 6): -0.5,
}


def test_build_basis_n2_is_pauli(basis2):
    assert basis2.dimension == 2
    assert len(basis2.generators) == 3
    for got, expected in zip(basis2.generators, PAULI):
        assert np.allclose(got, expected, atol=1e-15)
    assert basis2.diagonal_indices == (2,)
    assert basis2.offdiagonal_indices == (0, 1)


def test_build_basis_n3_is_gell_mann(basis3):
    assert len(basis3.generators) == 8
    for i, expected in enumerate(GELL_MANN):
        assert np.allclose(basis3.generators[i], expected, atol=1e-15)
        assert np.array_equal(basis3.generator(i), basis3.generators[i])
    assert basis3.diagonal_indices == (2, 7)


def test_build_basis_rejects_small_n():
    with pytest.raises(ValueError):
        build_basis(1)
    with pytest.raises(ValueError):
        build_basis(0)


def test_labels_published_for_large_n():
    basis = build_basis(5)
    assert basis.labels[0] == ("sym", 0, 1)
    assert basis.labels[1] == ("antisym", 0, 1)
    # diagonal generators appended for n > 3
    assert basis.diagonal_indices == (20, 21, 22, 23)
    assert all(basis.labels[i][0] == "diag" for i in basis.diagonal_indices)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_basis_invariants(n):
    basis = build_basis(n)
    t = basis.generators
    assert t.shape == (n * n - 1, n, n)
    for g in t:
        assert np.abs(g - g.conj().T).max() < 1e-12
        assert abs(np.trace(g)) < 1e-12
    gram = np.einsum("aij,bji->ab", t, t).real
    assert np.abs(gram - 2 * np.eye(n * n - 1)).max() < 1e-12
    for i in basis.diagonal_indices:
        assert np.abs(t[i] - np.diag(np.diag(t[i]))).max() == 0
    for i in basis.offdiagonal_indices:
        assert np.abs(np.diag(t[i])).max() == 0


def test_su3_constants_match_reference_tables(constants3):
    for triple, value in SU3_C.items():
        assert constants3.c.get(*triple) == pytest.approx(value, abs=1e-12)
    for triple, value in SU3_F.items():
        assert constants3.f.get(*triple) == pytest.approx(value, abs=1e-12)
    # every stored canonical triple must be in the tables
    for triple, value in constants3.c.items():
        assert triple in SU3_C, f"unexpected c entry {triple} = {value}"
    for triple, value in constants3.f.items():
        assert triple in SU3_F, f"unexpected f entry {triple} = {value}"


def test_su3_unlisted_triples_vanish(constants3):
    for triple in itertools.combinations_with_replacement(range(8), 3):
        if triple not in SU3_C:
            assert abs(constants3.c.get(*triple)) < 1e-12
        if triple not in SU3_F:
            assert abs(constants3.f.get(*triple)) < 1e-12


def test_su2_constants(constants2):
    assert len(constants2.f) == 0
    assert len(constants2.c) == 1
    assert constants2.c.get(0, 1, 2) == pytest.approx(1.0, abs=1e-12)
    # antisymmetry through the accessor
    assert constants2.c.get(1, 0, 2) == pytest.approx(-1.0, abs=1e-12)
    assert constants2.c.get(2, 0, 1) == pytest.approx(1.0, abs=1e-12)
    assert constants2.c.get(0, 0, 2) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetry_and_jacobi(n):
    constants = compute_structure_constants(build_basis(n))
    c = constants.c.to_dense()
    f = constants.f.to_dense()
    for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        assert np.abs(c + c.transpose(axes)).max() < 1e-12
        assert np.abs(f - f.transpose(axes)).max() < 1e-12
    cc = np.einsum("ijm,mkl->ijkl", c, c)
    jacobi = cc + cc.transpose(1, 2, 0, 3) + cc.transpose(2, 0, 1, 3)
    assert np.abs(jacobi).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 12, 16])
def test_product_reconstruction_identity(n):
    # t_i t_j = (2/n) delta_ij 1 + sum_l (f_ijl + i c_ijl) t_l; every pair
    # up to n = 5, a seeded sample of pairs (a tenth on the diagonal) beyond
    basis = build_basis(n)
    constants = compute_structure_constants(basis)
    t = basis.generators
    m = len(t)
    if n <= 5:
        pairs = list(itertools.product(range(m), repeat=2))
    else:
        rng = np.random.default_rng(n)
        pairs = [tuple(p) for p in rng.integers(0, m, size=(36, 2))]
        pairs += [(i, i) for i in rng.integers(0, m, size=4)]
    for i, j in pairs:
        coeff = np.array([constants.f.get(i, j, l) + 1j * constants.c.get(i, j, l)
                          for l in range(m)])
        expected = np.einsum("l,lac->ac", coeff, t)
        if i == j:
            expected += (2.0 / n) * np.eye(n)
        assert np.abs(t[i] @ t[j] - expected).max() < 1e-12, (i, j)


@pytest.mark.parametrize("n", range(2, 9))
def test_matches_dense_trace_reference(n):
    basis = build_basis(n)
    constants = compute_structure_constants(basis)
    ref_c, ref_f = dense_structure_constants(basis.generators, DROP_TOL)
    for tensor, ref in ((constants.c, ref_c), (constants.f, ref_f)):
        got = dict(tensor.items())
        assert got.keys() == ref.keys()
        assert len(tensor) == len(ref)
        assert max((abs(got[key] - ref[key]) for key in ref), default=0.0) < 1e-15


def test_tensor_stores_coordinates_only():
    constants = compute_structure_constants(build_basis(10))
    for tensor in (constants.c, constants.f):
        arrays = [v for v in vars(tensor).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.shape == tensor.keys.shape for a in arrays)
        # every ordering of each canonical triple, one row per entry
        assert len(tensor) < tensor.keys.size <= 6 * len(tensor)
        dense = tensor.to_dense()
        assert np.count_nonzero(dense) == tensor.keys.size
        assert not np.shares_memory(dense, tensor.values)


def test_tensor_lookup_follows_permutation_rule():
    c = StructureTensor(4, [(0, 1, 3)], [0.5], symmetric=False)
    f = StructureTensor(4, [(0, 0, 2), (1, 2, 3)], [0.25, -1.0], symmetric=True)
    for perm in itertools.permutations((0, 1, 3)):
        parity = 1 if perm in ((0, 1, 3), (1, 3, 0), (3, 0, 1)) else -1
        assert c.get(*perm) == parity * 0.5
    assert [f.get(*p) for p in ((0, 0, 2), (0, 2, 0), (2, 0, 0))] == [0.25] * 3
    assert f.get(3, 1, 2) == -1.0
    assert f.get(0, 2, 2) == 0.0
    assert len(c) == 1 and len(f) == 2
    assert f.to_json_list() == [[0, 0, 2, 0.25], [1, 2, 3, -1.0]]
    v = np.array([0.3, -1.1, 0.7, 2.0])
    for tensor in (c, f):
        assert np.array_equal(tensor.contract(v),
                              np.einsum("i,ijk->jk", v, tensor.to_dense()))
    with pytest.raises(IndexError):
        c.get(0, 1, 4)
    with pytest.raises(ValueError, match="distinct"):
        StructureTensor(4, [(0, 0, 2)], [1.0], symmetric=False)


@pytest.mark.parametrize("n", [3, 5])
def test_contract_matches_dense_on_real_bases(n):
    constants = compute_structure_constants(build_basis(n))
    v = np.random.default_rng(n).standard_normal(n * n - 1)
    for tensor in (constants.c, constants.f):
        expected = np.einsum("i,ijk->jk", v, tensor.to_dense())
        assert np.abs(tensor.contract(v) - expected).max() <= 1e-14


@pytest.mark.parametrize("n", [3, 4])
def test_vanishing_patterns(n):
    basis = build_basis(n)
    constants = compute_structure_constants(basis)
    diag = basis.diagonal_indices
    for triple in itertools.product(diag, repeat=3):
        assert constants.c.get(*triple) == 0.0
    for i in diag:
        for k in diag:
            for j in basis.offdiagonal_indices:
                assert abs(constants.f.get(i, j, k)) < 1e-12


def test_verify_basis_clean(basis3, constants3):
    assert verify_basis(basis3, constants3, 1e-12) == []
    basis4 = build_basis(4)
    assert verify_basis(basis4, compute_structure_constants(basis4), 1e-10) == []


def test_verify_basis_n10_is_sparse_and_fast():
    # n = 16 too, where dense m^3 copies of c and f and all m^2 products
    # t_i t_j took 1.3 GB
    for n in (10, 16):
        basis = build_basis(n)
        constants = compute_structure_constants(basis)
        if n == 10:
            start = time.perf_counter()
            assert verify_basis(basis, constants) == []
            assert time.perf_counter() - start < 1.0
        # a dense m^4 Jacobi tensor alone would take 768 MB at m = 99
        tracemalloc.start()
        try:
            report = verify_basis(basis, constants)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == [] and peak < 100e6


def test_verify_basis_n16_peak_rss_in_a_fresh_process():
    # the basis, its structure constants and verify_basis at n = 16 in a
    # fresh process: no violation, and the peak RSS under 100 MB.  About 1.6 s
    code, mb = fresh_peak_mb("-c", (
        "import sys, sldkit\n"
        "basis = sldkit.build_basis(16)\n"
        "constants = sldkit.compute_structure_constants(basis)\n"
        "sys.exit(0 if sldkit.verify_basis(basis, constants) == [] else 1)\n"))
    assert code == 0 and mb < 100, (code, mb)


@pytest.mark.parametrize("n", [3, 4])
def test_verify_basis_detects_jacobi_violation(n):
    basis = build_basis(n)
    good = compute_structure_constants(basis)
    triples, values = map(np.array, zip(*good.c.items()))
    values[0] *= 1.01
    bad_c = StructureTensor(good.c.size, triples, values, symmetric=False)
    report = verify_basis(basis, dataclasses.replace(good, c=bad_c))
    assert any("Jacobi identity violated" in msg for msg in report)
    assert any("product reconstruction" in msg for msg in report)
    # the sparse cyclic sums, gathered over every l, equal the dense ones
    dense = bad_c.to_dense()
    cc = np.einsum("ijm,mkl->ijkl", dense, dense)
    jacobi = (cc + cc.transpose(1, 2, 0, 3) + cc.transpose(2, 0, 1, 3)).ravel()
    keys, sums = map(np.concatenate, zip(*_jacobi_sums(bad_c)))
    assert np.unique(keys).size == keys.size
    assert np.abs(jacobi).max() > 1e-3
    assert np.abs(jacobi[keys] - sums).max() < 1e-15
    assert np.abs(np.delete(jacobi, keys)).max() < 1e-15


def _with_entry(tensor, triple, value):
    triples, values = map(np.array, zip(*tensor.items()))
    return StructureTensor(tensor.size, np.vstack([triples, [triple]]),
                           np.append(values, value), tensor.symmetric)


def test_verify_basis_detects_diagonal_triples():
    basis = build_basis(4)
    good = compute_structure_constants(basis)
    assert basis.diagonal_indices == (12, 13, 14)
    bad_c = dataclasses.replace(
        good, c=_with_entry(good.c, (12, 13, 14), 0.25))
    assert [msg for msg in verify_basis(basis, bad_c)
            if "diagonal triple" in msg] == [
        "c nonzero on diagonal triple (12, 13, 14)"]
    bad_f = dataclasses.replace(
        good, f=_with_entry(good.f, (0, 12, 13), 0.25))
    assert [msg for msg in verify_basis(basis, bad_f)
            if "diagonal triple" in msg] == [
        "f nonzero on mixed diagonal triple (12, 0, 13)",
        "f nonzero on mixed diagonal triple (13, 0, 12)"]


def test_verify_basis_detects_scaled_generator(basis3, constants3):
    generators = basis3.generators.copy()
    generators[0] = 2.0 * generators[0]
    broken = GeneratorBasis(3, generators, basis3.diagonal_indices,
                            basis3.offdiagonal_indices, basis3.labels)
    report = verify_basis(broken, constants3, 1e-12)
    assert any("trace orthonormality" in msg and "(0, 0)" in msg
               for msg in report)


@pytest.mark.parametrize("shift, message", [
    (np.array([[0, 0.1, 0], [0, 0, 0], [0, 0, 0]]),
     "generator 0 not Hermitian (max deviation 1.000e-01)"),
    (0.1 * np.eye(3), "generator 0 not traceless (|trace| 3.000e-01)"),
], ids=["hermitian", "traceless"])
def test_verify_basis_reports_broken_generator(basis3, constants3, shift,
                                               message):
    generators = basis3.generators.copy()
    generators[0] = generators[0] + shift
    broken = GeneratorBasis(3, generators, basis3.diagonal_indices,
                            basis3.offdiagonal_indices, basis3.labels)
    assert message in verify_basis(broken, constants3, 1e-12)


def test_json_round_trip(basis3, constants3):
    payload = basis3.to_json_dict()
    payload.update(constants3.to_json_dict())
    decoded = json.loads(json.dumps(payload))
    assert decoded["n"] == 3
    for row, g in zip(decoded["generators"], basis3.generators):
        assert np.array_equal(pairs_to_matrix(row), g)
    assert [0, 1, 2, 1.0] in decoded["c"]
    rebuilt_c = {tuple(e[:3]): e[3] for e in decoded["c"]}
    assert rebuilt_c == {k: v for k, v in constants3.c.items()}


def test_matrix_pair_codec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pairs_to_matrix([[1.0, 2.0]])
    round_tripped = pairs_to_matrix(matrix_to_pairs(np.eye(2) * (1 + 2j)))
    assert np.array_equal(round_tripped, np.eye(2) * (1 + 2j))
    # plain floats, signed zeros kept: the text JSON writes is unchanged
    pairs = matrix_to_pairs([[complex(-0.0, 1.5), 2], [0.25j, -1e-300]])
    assert json.dumps(pairs) == ("[[[-0.0, 1.5], [2.0, 0.0]], "
                                 "[[0.0, 0.25], [-1e-300, 0.0]]]")


@pytest.mark.parametrize("basis_n, constants_n", [(2, 3), (3, 2)])
def test_verify_basis_rejects_constants_of_another_dimension(basis_n,
                                                             constants_n):
    constants = compute_structure_constants(build_basis(constants_n))
    with pytest.raises(ValueError) as info:
        verify_basis(build_basis(basis_n), constants)
    assert str(info.value) == "basis and constants dimensions do not match"
