import math
import os

import numpy as np
import pytest

from cantorkit import core, fileio, graphs, spectral
from cantorkit.errors import LevelOutOfRange, NoConvergence, Reducible, UsageError

SQRT2 = math.sqrt(2.0)
GRAPH3 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "inputs", "graph3.txt")


def eig_oracle(matrix):
    """Independent spectral data straight from numpy's dense eigensolver."""
    vals, vecs = np.linalg.eig(matrix.array.astype(float))
    i = int(np.argmax(vals.real))
    r = float(vals[i].real)
    p = np.abs(vecs[:, i].real)
    return r, p / p.sum()


def test_full2_is_lebesgue(full2_pd):
    assert full2_pd.radius == pytest.approx(2.0, abs=1e-12)
    assert full2_pd.delta == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(full2_pd.p, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(full2_pd.omega, [0.5, 0.5], atol=1e-12)


def test_schottky_oracle(schottky4_pd):
    # every row and column sums to 3, so r = 3 and p is uniform
    assert schottky4_pd.radius == pytest.approx(3.0, abs=1e-10)
    assert schottky4_pd.delta == pytest.approx(0.7924812503605781, abs=1e-10)
    np.testing.assert_allclose(schottky4_pd.p, [0.25] * 4, atol=1e-10)


def test_tri3_oracle(tri3_pd):
    # characteristic polynomial gives r = 1 + sqrt(2) and
    # p = ((2-sqrt2)/2, sqrt2-1, (2-sqrt2)/2) after sum-1 normalization
    assert tri3_pd.radius == pytest.approx(1 + SQRT2, abs=1e-10)
    expected_p = np.array([(2 - SQRT2) / 2, SQRT2 - 1, (2 - SQRT2) / 2])
    np.testing.assert_allclose(tri3_pd.p, expected_p, atol=1e-10)
    assert tri3_pd.delta == pytest.approx(math.log(1 + SQRT2) / math.log(3), abs=1e-12)


@pytest.mark.parametrize("rows", [
    ((1, 1), (1, 1)),
    ((1, 1, 0), (1, 1, 1), (0, 1, 1)),
    ((1, 1, 0, 1), (1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1)),
    ((1, 1, 0, 0), (1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 0, 1)),
])
def test_against_dense_eigensolver(rows):
    m = core.validate_matrix(rows)
    pd = spectral.perron_data(m)
    r, p = eig_oracle(m)
    assert pd.radius == pytest.approx(r, abs=1e-10)
    np.testing.assert_allclose(pd.p, p, atol=1e-9)
    assert pd.tol <= 1e-12
    # omega is the Perron vector of the transpose
    _, omega = eig_oracle(core.validate_matrix(tuple(zip(*rows))))
    np.testing.assert_allclose(pd.omega, omega, atol=1e-9)


def test_periodic_edge_matrix_converges():
    # a pure 3-cycle is irreducible but not primitive; the shifted iteration
    # must still land on r = 1 with the uniform eigenvector
    m = core.validate_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]], strict=False)
    pd = spectral.perron_data(m)
    assert pd.radius == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(pd.p, [1 / 3] * 3, atol=1e-10)


def test_reducible_raises():
    m = core.validate_matrix([[1, 1], [0, 1]], strict=False)
    with pytest.raises(Reducible):
        spectral.perron_data(m)


def test_no_convergence_raises(tri3):
    with pytest.raises(NoConvergence):
        spectral.perron_data(tri3, tol=1e-300)


def _band(n):
    return core.validate_matrix([[int(abs(i - j) <= 2) for j in range(n)] for i in range(n)])


def _cycle(n):
    return core.validate_matrix([[int(j == (i + 1) % n) for j in range(n)] for i in range(n)],
                                strict=False)


def _positive_to_rounding(pd):
    assert np.all(pd.p > 0) and np.all(pd.omega > 0)
    assert pd.tol <= 1e-15
    assert pd.iterations == 4


def test_strict_matrices_are_checked_for_irreducibility_once(monkeypatch):
    checks = []
    check = core._is_irreducible
    monkeypatch.setattr(core, "_is_irreducible", lambda rows: checks.append(1) or check(rows))
    band = _band(20)
    assert len(checks) == 1   # validate_matrix's check
    spectral.perron_data(band)
    spectral.perron_data(band.transpose)
    assert len(checks) == 1
    spectral.perron_data(_cycle(2))
    assert len(checks) == 2
    with pytest.raises(Reducible):
        spectral.perron_data(core.validate_matrix([[1, 1], [0, 1]], strict=False))
    assert len(checks) == 3


def test_tri3_closed_form_to_rounding(tri3_pd):
    _positive_to_rounding(tri3_pd)
    assert abs(tri3_pd.radius - (1 + SQRT2)) <= 1e-15
    want = np.array([1.0, SQRT2, 1.0]) / (2 + SQRT2)
    assert np.max(np.abs(tri3_pd.p - want)) <= 1e-15
    assert np.max(np.abs(tri3_pd.omega - want)) <= 1e-15


def test_graph3_radius_is_the_golden_ratio():
    with open(GRAPH3) as fh:
        pd = graphs.graph_perron(fileio.parse_graph(fh.read()))
    _positive_to_rounding(pd)
    assert abs(pd.radius - (1 + math.sqrt(5)) / 2) <= 1e-15


def test_fifty_cycle_is_uniform():
    # non-strict and periodic: the other 49 eigenvalues lie on the unit circle
    pd = spectral.perron_data(_cycle(50))
    _positive_to_rounding(pd)
    assert abs(pd.radius - 1.0) <= 1e-15
    assert np.max(np.abs(pd.p - 1 / 50)) <= 1e-15
    assert np.max(np.abs(pd.omega - 1 / 50)) <= 1e-15


@pytest.mark.parametrize("n", [20, 57, 120, 240])
def test_banded_residual_at_rounding(n):
    pd = spectral.perron_data(_band(n))
    _positive_to_rounding(pd)
    # symmetric: the left vector is the right one
    assert np.max(np.abs(pd.p - pd.omega)) <= 1e-15


def test_single_letter_matrix():
    m = core.validate_matrix([[1]], strict=False)
    pd = spectral.perron_data(m)
    assert pd.radius == pytest.approx(1.0)
    assert pd.delta == 0.0


# --- cylinder measure ----------------------------------------------------------


def test_full_shift_measure_is_interval_length(full2_pd):
    for k in range(1, 9):
        for w in core.enumerate_words(full2_pd.matrix, k):
            assert spectral.cylinder_measure(full2_pd, w) == pytest.approx(
                2.0 ** -k, abs=1e-12)


def test_tri3_measure_value(tri3_pd):
    # mu(Lambda(12)) = r^-1 p_2 = (sqrt2-1)(2-sqrt2)/2 = (3 sqrt2 - 4)/2
    assert spectral.cylinder_measure(tri3_pd, (1, 2)) == pytest.approx(
        (3 * SQRT2 - 4) / 2, abs=1e-10)
    assert spectral.cylinder_measure(tri3_pd, ()) == 1.0


def test_total_mass_every_level(tri3_pd, schottky4_pd):
    for pd in (tri3_pd, schottky4_pd):
        for k in range(1, 7):
            assert spectral.measure_array(pd, k).sum() == pytest.approx(
                1.0, abs=1e-10)


def test_additivity(tri3_pd):
    # mu(w) = sum over admissible one-digit extensions w.j
    for w in core.enumerate_words(tri3_pd.matrix, 3):
        ext = sum(spectral.cylinder_measure(tri3_pd, w + (j,))
                  for j in tri3_pd.matrix.successors[w[-1]])
        assert ext == pytest.approx(
            spectral.cylinder_measure(tri3_pd, w), abs=1e-12)


def test_measure_array_matches_scalar(schottky4_pd):
    arr = spectral.measure_array(schottky4_pd, 3)
    for w, v in zip(core.enumerate_words(schottky4_pd.matrix, 3), arr):
        assert v == pytest.approx(
            spectral.cylinder_measure(schottky4_pd, w), abs=1e-15)


def test_self_similarity_residual_small(full2_pd, tri3_pd, schottky4_pd):
    for pd in (full2_pd, tri3_pd, schottky4_pd):
        for k in (1, 2, 3, 4):
            assert spectral.self_similarity_residual(pd, k) <= 1e-10


def test_self_similarity_level_check(tri3_pd):
    with pytest.raises(LevelOutOfRange):
        spectral.self_similarity_residual(tri3_pd, 0)


# --- inner products ----------------------------------------------------------


def test_inner_product_indicator_mass(tri3_pd):
    f = core.CylinderFunction.indicator(tri3_pd.matrix, (1, 2))
    assert spectral.inner_product(f, f, tri3_pd).real == pytest.approx(
        spectral.cylinder_measure(tri3_pd, (1, 2)), abs=1e-12)


def test_inner_product_conjugate_linearity(full2_pd):
    m = full2_pd.matrix
    f = core.CylinderFunction.indicator(m, (0,)) * (2 + 1j)
    g = core.CylinderFunction.indicator(m, (0,)) * (1 - 3j)
    ip = spectral.inner_product(f, g, full2_pd)
    assert ip == pytest.approx((2 - 1j) * (1 - 3j) * 0.5)


def test_norm_of_constant_is_one(schottky4_pd):
    one = core.CylinderFunction.constant(schottky4_pd.matrix, 1.0)
    assert spectral.norm(one, schottky4_pd) == pytest.approx(1.0, abs=1e-10)


def test_tolerance_must_be_finite_and_positive(tri3):
    for tol in (math.nan, math.inf, 0.0, -1e-12):
        with pytest.raises(UsageError):
            spectral.perron_data(tri3, tol=tol)
