import math

import numpy as np
import pytest

from cantorkit import core, operators, ruelle, spectral
from cantorkit.errors import (
    CapExceeded,
    EmptyWord,
    InadmissibleWord,
    LevelOutOfRange,
    NegativePotential,
)


def test_constant_potential_reproduces_transfer_operator(tri3_pd):
    # W == 1/r turns the weighted preimage sum into the plain transfer operator
    pd = tri3_pd
    w = core.refine(core.CylinderFunction.constant(pd.matrix, 1.0 / pd.radius), 1)
    for word in core.enumerate_words(pd.matrix, 2):
        f = core.CylinderFunction.indicator(pd.matrix, word)
        lhs = ruelle.ruelle_apply(w, f, pd)
        rhs = operators.pf_operator(f, pd)
        m = max(lhs.level, rhs.level)
        diff = core.refine(lhs, m).coeffs - core.refine(rhs, m).coeffs
        assert np.max(np.abs(diff)) <= 1e-14


def test_ruelle_apply_hand_value(full2_pd):
    # N = 2 full shift, W = chi_{R_0}: (R f)(x) = f(0.x), so R chi_{00} = chi_0
    pd = full2_pd
    w = core.CylinderFunction.indicator(pd.matrix, (0,))
    f = core.CylinderFunction.indicator(pd.matrix, (0, 0))
    g = ruelle.ruelle_apply(w, f, pd)
    expect = core.CylinderFunction.indicator(pd.matrix, (0,))
    m = max(g.level, 1)
    assert np.allclose(core.refine(g, m).coeffs,
                       core.refine(expect, m).coeffs)


def test_keane_residual_of_uniform_weight(full2_pd):
    # W == 1/2 on the full 2-shift satisfies Keane exactly
    w = core.refine(core.CylinderFunction.constant(full2_pd.matrix, 0.5), 1)
    assert ruelle.keane_residual(w, full2_pd) <= 1e-15


def test_keane_residual_detects_defect(full2_pd):
    w = core.refine(core.CylinderFunction.constant(full2_pd.matrix, 0.4), 1)
    assert ruelle.keane_residual(w, full2_pd) == pytest.approx(0.2, abs=1e-12)


def test_negative_potential_rejected():
    with pytest.raises(NegativePotential):
        ruelle.constant_potential(-0.1)
    # evaluators are only checkable pointwise, at call time
    pot = ruelle.PointwisePotential(evaluator=lambda digits, value: -1.0)
    with pytest.raises(NegativePotential):
        pot((0,), 0.0)


def test_trig_potential_keane_full_shift(full2_pd):
    # column sums are all 2, so W(x) = (1 - cos(2 pi 2x)) / 2 and the two
    # preimages x/2, (x+1)/2 make the cosines cancel exactly
    cyl, pointwise = ruelle.trig_potential(full2_pd, 4)
    assert ruelle.keane_residual(cyl, full2_pd) <= 1e-12
    assert ruelle.preimage_keane_residual(pointwise, full2_pd, 4) <= 1e-12


def test_trig_potential_keane_tridiagonal(tri3_pd):
    cyl, pointwise = ruelle.trig_potential(tri3_pd, 4)
    assert ruelle.keane_residual(cyl, tri3_pd) <= 1e-12
    assert ruelle.preimage_keane_residual(pointwise, tri3_pd, 4) <= 1e-12


def test_trig_potential_fails_keane_on_schottky(schottky4_pd):
    # the 4-digit matrix has column supports {0,1,3}, {0,1,2}, {1,2,3},
    # {0,2,3}: never a complete residue system mod the column sum 3, so the
    # root-of-unity cancellation behind the trigonometric weight breaks down;
    # at x = 0 the preimage sum is 1/2, not 1
    cyl, pointwise = ruelle.trig_potential(schottky4_pd, 3)
    res = ruelle.preimage_keane_residual(pointwise, schottky4_pd, 3)
    assert res == pytest.approx(0.5, abs=1e-12)


def test_trig_potential_values(full2_pd):
    _, pointwise = ruelle.trig_potential(full2_pd, 2)
    # n1 = 2 everywhere on the full shift; W(y) = (1 - cos(2 pi y)) / 2
    assert pointwise((0, 0), 0.0) == pytest.approx(0.0, abs=1e-15)
    assert pointwise((1, 0), 0.5) == pytest.approx(1.0, abs=1e-15)
    assert pointwise((0, 1), 0.25) == pytest.approx(0.5, abs=1e-15)
    # the two preimages of x = 0 then sum to exactly 1
    assert (pointwise((0,), 0.0) + pointwise((1,), 0.5)) == pytest.approx(1.0)


def test_trig_cylinder_matches_pointwise_samples(full2_pd, tri3_pd, schottky4_pd,
                                                 strict5_pd):
    for pd in (full2_pd, tri3_pd, schottky4_pd, strict5_pd):
        for k in range(1, 7):
            cyl, pointwise = ruelle.trig_potential(pd, k)
            assert cyl.level == k
            samples = np.array(
                [pointwise(a, core.nadic_value(a, pd.matrix.n).value)
                 for a in core.enumerate_words(pd.matrix, k)], dtype=np.complex128)
            assert cyl.coeffs.tobytes() == samples.tobytes()


# --- transpose words and the walk ------------------------------------------------


def reference_transpose_words(matrix, k):
    """Level-k words admissible for A^t, walking the columns of A directly."""
    if k == 0:
        return ((),)
    words = [(i,) for i in range(matrix.n)]
    for _ in range(k - 1):
        # successors of digit i in A^t are the predecessors of i in A
        words = [w + (j,) for w in words for j in matrix.predecessors[w[-1]]]
    return tuple(words)


def test_transpose_words_tridiagonal(tri3):
    # A is symmetric, so transpose words and words agree
    assert tri3.transpose == tri3
    for k in range(5):
        assert (core.enumerate_words(tri3.transpose, k)
                == core.enumerate_words(tri3, k))


def test_transpose_words_asymmetric():
    m = core.validate_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]], strict=False)
    words = core.enumerate_words(m.transpose, 2)
    assert words == ((0, 0), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2))
    assert core.word_count(m.transpose, 2) == 6
    with pytest.raises(InadmissibleWord):
        core.check_word(m.transpose, (0, 1))
    with pytest.raises(InadmissibleWord):
        core.check_word(m.transpose, (0, 3))


def test_transpose_cap(schottky4):
    with pytest.raises(CapExceeded):
        core.enumerate_words(schottky4.transpose, 10, cap=50)
    with pytest.raises(LevelOutOfRange):
        core.word_count(schottky4.transpose, -1)
    with pytest.raises(LevelOutOfRange):
        core.enumerate_words(schottky4.transpose, -2, cap=50)


def test_transpose_matches_column_walk(full2, tri3, schottky4, strict5):
    asymmetric = core.validate_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]], strict=False)
    for m in (full2, tri3, schottky4, strict5, asymmetric):
        t = m.transpose
        assert t == core.validate_matrix(m.array.T.tolist(), strict=m.strict)
        assert t.transpose == m
        for k in range(8):
            words = reference_transpose_words(m, k)
            assert core.enumerate_words(t, k) == words
            assert core.word_count(t, k) == len(words)


def reference_ruelle_apply(w_fn, f, pd):
    """R_W f as one prepend loop of its own, the form core.preimage_sum replaced."""
    mat = pd.matrix
    m = max(w_fn.level, f.level, 2)
    wc = core.refine(w_fn, m).coeffs.real
    fc = core.refine(f, m).coeffs
    out = np.zeros(core.word_count(mat, m - 1), dtype=np.complex128)
    for i in range(mat.n):
        pia = core.prepend_index_array(mat, m - 1, i)
        valid = pia >= 0
        out[valid] += wc[pia[valid]] * fc[pia[valid]]
    return out


def reference_keane_residual(w_fn, pd):
    mat = pd.matrix
    m = max(w_fn.level, 2)
    wc = core.refine(w_fn, m).coeffs.real
    total = np.zeros(core.word_count(mat, m - 1))
    for i in range(mat.n):
        pia = core.prepend_index_array(mat, m - 1, i)
        valid = pia >= 0
        total[valid] += wc[pia[valid]]
    return float(np.max(np.abs(total - 1.0)))


def test_preimage_sums_match_prepend_loops(full2_pd, tri3_pd, schottky4_pd, strict5_pd):
    rng = np.random.default_rng(7)
    for pd in (full2_pd, tri3_pd, schottky4_pd, strict5_pd):
        for K in range(1, 8):
            size = core.word_count(pd.matrix, K)
            w_fn = core.CylinderFunction(pd.matrix, K, rng.random(size) / pd.matrix.n)
            f = core.CylinderFunction(pd.matrix, K, rng.normal(size=size)
                                      + 1j * rng.normal(size=size))
            applied = ruelle.ruelle_apply(w_fn, f, pd)
            assert applied.coeffs.tobytes() == reference_ruelle_apply(w_fn, f, pd).tobytes()
            assert ruelle.keane_residual(w_fn, pd) == reference_keane_residual(w_fn, pd)


def test_walk_needs_a_point_with_digits(full2_pd):
    pot = ruelle.constant_potential(0.5)
    with pytest.raises(EmptyWord):
        ruelle.walk_measure(core.Point((), 0.0), pot, (0,), full2_pd.matrix)


def test_walk_gate(tri3):
    # first step must be able to sit in front of x: A[a_1, x_1] = 1
    pot = ruelle.constant_potential(1.0)
    x = core.nadic_value((0,), 3)
    assert ruelle.walk_measure(x, pot, (2,), tri3) == 0.0
    assert ruelle.walk_measure(x, pot, (1,), tri3) == 1.0


def test_walk_is_multiplicative_along_orbit(full2_pd):
    # W(y) = value of y's first digit: the walk multiplies W along the orbit
    def w(digits, value):
        return 0.25 if digits[0] == 0 else 0.75

    pot = ruelle.PointwisePotential(w)
    x = core.nadic_value((1,), 2)
    assert ruelle.walk_measure(x, pot, (0, 1), full2_pd.matrix) == pytest.approx(
        0.25 * 0.75)
    # the word is applied outside-in: first digit of a = last prepended
    assert ruelle.walk_measure(x, pot, (1, 0), full2_pd.matrix) == pytest.approx(
        0.75 * 0.25)


def test_walk_additivity(tri3_pd):
    # P_x(a) = sum of P_x over one-step extensions a.j in the transpose shift
    _, pot = ruelle.trig_potential(tri3_pd, 1)
    x = core.nadic_value((1, 2), 3)
    m = tri3_pd.matrix
    for a in core.enumerate_words(m.transpose, 2):
        parent = ruelle.walk_measure(x, pot, a, m)
        kids = sum(ruelle.walk_measure(x, pot, a + (j,), m)
                   for j in m.predecessors[a[-1]])
        assert kids == pytest.approx(parent, abs=1e-12)


def test_walk_unit_layer_mass_with_keane_weight(tri3_pd, full2_pd):
    for pd in (tri3_pd, full2_pd):
        _, pot = ruelle.trig_potential(pd, 1)
        for start in core.enumerate_words(pd.matrix, 2):
            x = core.nadic_value(start, pd.matrix.n)
            for k in (1, 2, 3, 4):
                mass = ruelle.walk_layer_mass(x, pot, pd.matrix, k)
                assert mass == pytest.approx(1.0, abs=1e-12)


def test_harmonic_truncated_geometric_oracle(schottky4_pd):
    # constant W = c on a matrix with all column sums 3 gives layer mass
    # (3c)^k, so the truncated series is a plain geometric sum
    m = schottky4_pd.matrix
    c = 0.2
    pot = ruelle.constant_potential(c)
    x = core.nadic_value((0,), 4)
    expect = sum((3 * c) ** k for k in range(1, 5))
    assert ruelle.harmonic_truncated(x, pot, m, 4) == pytest.approx(
        expect, abs=1e-12)


def test_harmonic_layer_recursion(tri3_pd):
    # summing the walk gate over first digits reproduces layer k from k-1:
    # sum_j A[j, x_1] W(j.x) h_{k-1}(j.x) = (layer k mass at x)
    _, pot = ruelle.trig_potential(tri3_pd, 1)
    m = tri3_pd.matrix
    x = core.nadic_value((1,), 3)
    k = 3
    direct = ruelle.walk_layer_mass(x, pot, m, k)
    total = 0.0
    for j in m.predecessors[x.word[0]]:
        y = core.Point((j,) + x.word, (x.value + j) / m.n)
        total += pot(y.word, y.value) * ruelle.walk_layer_mass(y, pot, m, k - 1)
    assert total == pytest.approx(direct, abs=1e-12)
