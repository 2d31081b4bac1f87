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
from conftest import TRI3, tables_in


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
    pot = ruelle.PointwisePotential(evaluator=lambda first, second, value: -1.0)
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
    with pytest.raises(CapExceeded), core.budget(50):
        core.enumerate_words(schottky4.transpose, 10)
    with pytest.raises(LevelOutOfRange):
        core.word_count(schottky4.transpose, -1)
    with pytest.raises(LevelOutOfRange), core.budget(50):
        core.enumerate_words(schottky4.transpose, -2)


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
    def w(first, second, value):
        return np.where(first == 0, 0.25, 0.75)

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


# --- the array forms against per-point reference loops ----------------------------


def reference_preimage_keane_residual(potential, pd, level):
    """One scalar potential call per word and preimage, in predecessor order."""
    mat = pd.matrix
    level = max(level, 1)
    worst = 0.0
    for a in core.enumerate_words(mat, level):
        v = core.nadic_value(a, mat.n).value
        s = 0.0
        for j in mat.predecessors[a[0]]:
            s += potential((j,) + a, (v + j) / mat.n)
        worst = max(worst, abs(s - 1.0))
    return worst


def reference_walk_layer(x, potential, matrix, k):
    """P_x of every depth-k A^t word, rebuilding each product along its word."""
    out = []
    for a in core.enumerate_words(matrix.transpose, k):
        if a and not matrix.rows[a[0]][x.word[0]]:
            out.append(0.0)
            continue
        digits, v, prod = tuple(x.word), x.value, 1.0
        for d in a:
            digits = (d,) + digits
            v = (v + d) / matrix.n
            prod *= potential(digits, v)
        out.append(prod)
    return out


def running_sum(values):
    """0.0 + v_1 + v_2 + ... in order, on every Python (sum() compensates from 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _three_input_potential(first, second, value):
    # depends on all three inputs, so a misrouted digit or value shows
    return 0.1 + 0.2 * (first == 1) + 0.05 * second + 0.25 * value


def _potentials(pd):
    return (ruelle.trig_potential(pd, 1)[1], ruelle.constant_potential(1.0 / pd.radius),
            ruelle.PointwisePotential(_three_input_potential))


def test_keane_defect_matches_the_per_point_loop(full2_pd, tri3_pd, schottky4_pd, strict5_pd):
    for pd in (full2_pd, tri3_pd, schottky4_pd, strict5_pd):
        for pot, top in zip(_potentials(pd), (8, 3, 5)):
            for level in range(0, top + 1):
                assert (ruelle.preimage_keane_residual(pot, pd, level)
                        == reference_preimage_keane_residual(pot, pd, level))


def test_walk_layers_match_the_per_word_loop(full2_pd, tri3_pd, schottky4_pd, strict5_pd):
    for pd in (full2_pd, tri3_pd, schottky4_pd, strict5_pd):
        m = pd.matrix
        # x_1 = 0 gates some first steps off on all but the full shift
        x = core.nadic_value(core.enumerate_words(m, 2)[1], m.n)
        for pot in _potentials(pd)[::2]:
            layers = ruelle.walk_layers(x, pot, m, 6)
            assert len(layers) == 7
            masses = []
            for k in range(7):
                ref = reference_walk_layer(x, pot, m, k)
                assert layers[k].tolist() == ref
                masses.append(running_sum(ref))
                assert ruelle.walk_layer_mass(x, pot, m, k) == masses[-1]
            assert ruelle.harmonic_truncated(x, pot, m, 6) == running_sum(masses[1:])
            for a in core.enumerate_words(m.transpose, 3):
                idx = core.word_index(m.transpose, 3)[a]
                assert ruelle.walk_measure(x, pot, a, m) == layers[3][idx]


def test_layer_mass_is_the_running_sum_in_word_order(tri3_pd):
    # at tri3 depth 10 the rounded running sum and the exact sum differ
    pot = ruelle.trig_potential(tri3_pd, 1)[1]
    x = core.nadic_value((1,), 3)
    layers = ruelle.walk_layers(x, pot, tri3_pd.matrix, 10)
    masses = [running_sum(layer.tolist()) for layer in layers]
    assert masses[10] != math.fsum(layers[10].tolist())
    assert ruelle.walk_layer_mass(x, pot, tri3_pd.matrix, 10) == masses[10]
    assert ruelle.harmonic_truncated(x, pot, tri3_pd.matrix, 10) == running_sum(masses[1:])


def test_walk_skips_the_potential_behind_the_gate(tri3):
    # W < 0 on words starting with 2, which cannot sit in front of x_1 = 0
    pot = ruelle.PointwisePotential(lambda first, second, value: 1.0 - 2.0 * (first == 2))
    x = core.nadic_value((0,), 3)
    layer = ruelle.walk_layers(x, pot, tri3, 1)[1]
    assert layer.tolist() == [1.0, 1.0, 0.0]
    with pytest.raises(NegativePotential):
        ruelle.walk_layers(core.nadic_value((1,), 3), pot, tri3, 1)


def test_walk_checks_level_cap_and_start(tri3):
    pot = ruelle.constant_potential(0.5)
    x = core.nadic_value((1,), 3)
    assert [a.tolist() for a in ruelle.walk_layers(x, pot, tri3, 0)] == [[1.0]]
    with pytest.raises(LevelOutOfRange):
        ruelle.walk_layer_mass(x, pot, tri3, -1)
    with pytest.raises(CapExceeded), core.budget(40):
        ruelle.walk_layer_mass(x, pot, tri3, 4)
    with core.budget(41):
        assert ruelle.walk_layer_mass(x, pot, tri3, 4) == pytest.approx(41 / 16)
    with pytest.raises(EmptyWord):
        ruelle.walk_layers(core.Point((), 0.0), pot, tri3, 2)
    with pytest.raises(InadmissibleWord):
        ruelle.walk_layers(core.nadic_value((0, 2), 3), pot, tri3, 2)


def test_potentials_refuse_non_finite_values(tri3_pd):
    for c in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(NegativePotential):
            ruelle.constant_potential(c)
    for bad in (math.nan, math.inf, -1e-300):
        pot = ruelle.PointwisePotential(lambda first, second, value, bad=bad: bad)
        with pytest.raises(NegativePotential):
            ruelle.preimage_keane_residual(pot, tri3_pd, 2)
        with pytest.raises(NegativePotential):
            pot((1, 2), 0.5)
    # a scalar result is broadcast to one value per point
    flat = ruelle.PointwisePotential(lambda first, second, value: 0.5)
    assert ruelle.preimage_keane_residual(flat, tri3_pd, 3) == 0.5
    assert flat.values(np.zeros(4, dtype=np.intp), np.zeros(4, dtype=np.intp),
                       np.zeros(4)).tolist() == [0.5] * 4


def test_scalar_call_reads_two_digits(full2_pd):
    seen = []

    def record(first, second, value):
        seen.append((first.tolist(), second.tolist(), value.tolist()))
        return np.ones(len(value))

    pot = ruelle.PointwisePotential(record)
    assert pot((1, 0, 1), 0.625) == 1.0
    assert pot((1,), 0.5) == 1.0
    assert pot((), 0.0) == 1.0
    assert seen == [([1], [0], [0.625]), ([1], [0], [0.5]), ([0], [0], [0.0])]


def test_walk_refuses_before_building():
    tri3 = core.validate_matrix(TRI3)   # a fresh instance: its tables start cold
    pot = ruelle.constant_potential(0.5)
    x = core.nadic_value((1,), 3)
    with pytest.raises(CapExceeded), core.budget(10 ** 5):
        ruelle.walk_layers(x, pot, tri3, 40)
    # the walk runs on A^t: neither matrix holds a table
    assert tables_in(tri3._memo) == tables_in(tri3.transpose._memo) == set()
