import math

import numpy as np
import pytest

from cantorkit import core, spectral, wavelets
from cantorkit.errors import (
    CapExceeded,
    IndexOutOfRange,
    LevelTooLow,
    NonPositiveWeight,
    NotComposable,
)
from conftest import TRI3, tables_in

SQRT2 = math.sqrt(2.0)


def test_complement_basis_full_support():
    # uniform weights on {0,1}: the complement of the constant is the
    # sign vector (1, -1), already unit in the weighted product
    vecs = wavelets.weighted_complement_basis([0.5, 0.5], (0, 1))
    assert len(vecs) == 1
    v = vecs[0]
    assert v[0] == pytest.approx(1.0)
    assert v[1] == pytest.approx(-1.0)
    # weighted mean zero and weighted norm one
    assert 0.5 * v[0] + 0.5 * v[1] == pytest.approx(0.0, abs=1e-14)
    assert 0.5 * v[0] ** 2 + 0.5 * v[1] ** 2 == pytest.approx(1.0)


def test_complement_basis_partial_support():
    vecs = wavelets.weighted_complement_basis([0.2, 0.3, 0.5], (0, 2))
    assert len(vecs) == 1
    v = vecs[0]
    assert v[1] == 0.0
    assert 0.2 * v[0] + 0.5 * v[2] == pytest.approx(0.0, abs=1e-14)
    assert 0.2 * v[0] ** 2 + 0.5 * v[2] ** 2 == pytest.approx(1.0)


def test_complement_basis_is_orthonormal():
    w = [0.1, 0.2, 0.3, 0.4]
    sup = (0, 1, 2, 3)
    vecs = wavelets.weighted_complement_basis(w, sup)
    assert len(vecs) == 3
    for i, v in enumerate(vecs):
        assert float(np.sum(np.array(w) * v)) == pytest.approx(0.0, abs=1e-13)
        for j, u in enumerate(vecs):
            expect = 1.0 if i == j else 0.0
            assert float(np.sum(np.array(w) * v * u)) == pytest.approx(
                expect, abs=1e-13)


def test_complement_basis_rejects_bad_weights():
    with pytest.raises(NonPositiveWeight):
        wavelets.weighted_complement_basis([0.5, 0.0], (0, 1))
    with pytest.raises(NonPositiveWeight):
        wavelets.weighted_complement_basis([0.5, 0.5], ())


def test_mother_counts(full2_pd, tri3_pd, schottky4_pd):
    # one mother per letter per extra branch: d_k - 1 each
    for pd, d in ((full2_pd, (2, 2)), (tri3_pd, (2, 3, 2)),
                  (schottky4_pd, (3, 3, 3, 3))):
        mw = wavelets.build_mother_wavelets(pd)
        assert mw.d == d
        assert [len(c) for c in mw.c] == [x - 1 for x in d]
        assert [f_r.shape for f_r in mw.fmat] == [(x - 1, x) for x in d]
        mothers = wavelets.detail_keys(mw, 2)
        assert len(mothers) == sum(d) - pd.matrix.n
        assert all(a == () for (a, l, r) in mothers)


def test_full_shift_mothers_are_haar(full2_pd):
    mw = wavelets.build_mother_wavelets(full2_pd)
    f = mw.funcs[(0, 1)]
    # supported on 00 and 01 with opposite signs, unit norm
    assert f.coeff((0, 0)) == pytest.approx(SQRT2)
    assert f.coeff((0, 1)) == pytest.approx(-SQRT2)
    assert f.coeff((1, 0)) == 0 and f.coeff((1, 1)) == 0
    assert spectral.norm(f, full2_pd) == pytest.approx(1.0, abs=1e-12)


def test_mothers_have_zero_mean_and_unit_norm(tri3_pd):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    one = core.CylinderFunction.constant(tri3_pd.matrix, 1.0)
    for key, f in mw.funcs.items():
        assert spectral.norm(f, tri3_pd) == pytest.approx(1.0, abs=1e-10)
        mean = spectral.inner_product(one, f, tri3_pd)
        assert abs(mean) <= 1e-12


def test_wavelet_translate_keeps_norm(tri3_pd):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    psi = wavelets.wavelet((0, 1), 1, 2, mw)  # S_{01} f^{1,2}; A[1,2] = 1
    assert psi.level == 4
    assert spectral.norm(psi, tri3_pd) == pytest.approx(1.0, abs=1e-10)


def test_wavelet_rejects_incomposable(tri3_pd):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    with pytest.raises(NotComposable):
        wavelets.wavelet((0,), 1, 2, mw)  # A[0,2] = 0
    with pytest.raises(IndexOutOfRange):
        wavelets.wavelet((0,), 5, 1, mw)


def test_basis_cardinality_telescopes(full2_pd, tri3_pd, schottky4_pd):
    for pd in (full2_pd, tri3_pd, schottky4_pd):
        mw = wavelets.build_mother_wavelets(pd)
        for K in range(1, 6):
            labels = wavelets.basis_labels(mw, K)
            assert len(labels) == core.word_count(pd.matrix, K)
            assert len(set(labels)) == len(labels)


def gram_residual(pd, K):
    mw = wavelets.build_mother_wavelets(pd)
    labels = wavelets.basis_labels(mw, K)
    fs = [core.refine(wavelets.basis_function(mw, lab), K) for lab in labels]
    mat = np.array([f.coeffs for f in fs])
    mu = spectral.measure_array(pd, K)
    gram = (np.conj(mat) * mu[None, :]) @ mat.T
    return float(np.max(np.abs(gram - np.eye(len(labels)))))


def test_gram_identity(full2_pd, tri3_pd, schottky4_pd):
    for pd in (full2_pd, tri3_pd, schottky4_pd):
        for K in (1, 2, 4):
            assert gram_residual(pd, K) <= 1e-10


def test_analyze_constant_hits_scaling_layer_only(tri3_pd):
    pd = tri3_pd
    mw = wavelets.build_mother_wavelets(pd)
    one = core.refine(core.CylinderFunction.constant(pd.matrix, 1.0), 3)
    wc = wavelets.analyze(one, mw)
    # <mu(R_i)^{-1/2} chi_{R_i}, 1> = sqrt(p_i)
    np.testing.assert_allclose(wc.scaling.real, np.sqrt(pd.p), atol=1e-12)
    for v in wc.detail.values():
        assert abs(v) <= 1e-12


def test_round_trip_and_parseval(tri3_pd):
    pd = tri3_pd
    mw = wavelets.build_mother_wavelets(pd)
    rng = np.random.default_rng(7)
    K = 4
    nwords = core.word_count(pd.matrix, K)
    for _ in range(5):
        coeffs = rng.normal(size=nwords) + 1j * rng.normal(size=nwords)
        f = core.CylinderFunction(pd.matrix, K, coeffs)
        wc = wavelets.analyze(f, mw)
        g = wavelets.synthesize(wc, mw, K)
        assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-10
        assert wc.energy() == pytest.approx(
            spectral.inner_product(f, f, pd).real, abs=1e-10)


def test_synthesize_rejects_stray_keys(tri3_pd):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    zero = np.zeros(3, dtype=np.complex128)
    for key, K in ((((0,), 1, 1), 2),   # |a| = 1 needs K >= 3
                   (((), 1, 0), 1),     # mothers need K >= 2
                   (((0,), 1, 2), 4),   # A[0,2] = 0
                   (((1,), 2, 0), 4),   # d_0 = 2: l = 1 only
                   (((), 1, 3), 4)):    # no letter 3
        wc = wavelets.WaveletCoefficients(scaling=zero, detail={key: 1.0})
        with pytest.raises(IndexOutOfRange):
            wavelets.synthesize(wc, mw, K)
    short = wavelets.WaveletCoefficients(scaling=zero[:2], detail={})
    with pytest.raises(IndexOutOfRange):
        wavelets.synthesize(short, mw, 3)


def test_synthesize_reads_keys_in_any_order_at_any_level():
    # the key table grows from level 3 to 5 after its slot map was used
    tri3 = core.validate_matrix(TRI3)   # a fresh instance: its key table starts empty
    mw = wavelets.build_mother_wavelets(spectral.perron_data(tri3))
    rng = np.random.default_rng(12)
    for K in (3, 5):
        n = core.word_count(tri3, K)
        f = core.CylinderFunction(tri3, K, rng.normal(size=n))
        wc = wavelets.analyze(f, mw)
        flipped = wavelets.WaveletCoefficients(
            scaling=wc.scaling, detail=dict(reversed(list(wc.detail.items()))))
        assert (wavelets.synthesize(flipped, mw, K).coeffs.tobytes()
                == wavelets.synthesize(wc, mw, K).coeffs.tobytes())


def test_synthesize_rejects_low_level(tri3_pd):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    wc = wavelets.WaveletCoefficients(
        scaling=np.zeros(3, dtype=np.complex128), detail={})
    for K in (0, -1):
        with pytest.raises(LevelTooLow):
            wavelets.synthesize(wc, mw, K)


def test_level_zero_signal_analyzes_at_level_one(tri3_pd):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    wc = wavelets.analyze(core.CylinderFunction.constant(tri3_pd.matrix, 2.0), mw)
    np.testing.assert_allclose(wc.scaling, 2.0 * np.sqrt(tri3_pd.p), atol=1e-14)
    assert wc.detail == {}
    assert wavelets.synthesize(wc, mw, 1).level == 1
    # a level-1 system is the scaling family alone: no mothers, no keys
    assert wavelets.detail_keys(mw, 1) == []
    f = core.CylinderFunction(tri3_pd.matrix, 1, np.array([1.0, -2.0 + 0.5j, 0.25]))
    back = wavelets.synthesize(wavelets.analyze(f, mw), mw, 1)
    assert float(np.max(np.abs(back.coeffs - f.coeffs))) <= 1e-12


def flat_coefficients(wc, mw, K):
    """analyze() output in basis_labels order."""
    out = list(wc.scaling) + [wc.detail[key] for key in wavelets.detail_keys(mw, K)]
    return np.array(out, dtype=np.complex128)


def test_pyramid_matches_quadratic_oracle(full2_pd, tri3_pd, schottky4_pd, strict5_pd):
    # the oracle pairs f with every basis function refined to level K
    pds = (full2_pd, tri3_pd, schottky4_pd, strict5_pd)
    rng = np.random.default_rng(5)
    for pd in pds:
        mw = wavelets.build_mother_wavelets(pd)
        for K in range(1, 6):
            labels = wavelets.basis_labels(mw, K)
            basis = np.array([core.refine(wavelets.basis_function(mw, lab), K).coeffs
                              for lab in labels])
            nw = core.word_count(pd.matrix, K)
            f = core.CylinderFunction(
                pd.matrix, K, rng.normal(size=nw) + 1j * rng.normal(size=nw))
            mu = spectral.measure_array(pd, K)
            oracle = np.conj(basis) @ (f.coeffs * mu)
            wc = wavelets.analyze(f, mw)
            got = flat_coefficients(wc, mw, K)
            assert float(np.max(np.abs(got - oracle))) <= 1e-12
            back = wavelets.synthesize(wc, mw, K)
            assert float(np.max(np.abs(back.coeffs - got @ basis))) <= 1e-12
            # the round trip also carries the basis' own Gram defect
            assert float(np.max(np.abs(back.coeffs - f.coeffs))) <= 1e-10


def test_round_trip_and_parseval_at_large_level(tri3_pd):
    pd = tri3_pd
    mw = wavelets.build_mother_wavelets(pd)
    K = 11
    nw = core.word_count(pd.matrix, K)
    assert nw == 19601
    rng = np.random.default_rng(11)
    f = core.CylinderFunction(
        pd.matrix, K, rng.normal(size=nw) + 1j * rng.normal(size=nw))
    wc = wavelets.analyze(f, mw)
    assert len(wc.detail) + pd.matrix.n == nw
    g = wavelets.synthesize(wc, mw, K)
    assert float(np.max(np.abs(g.coeffs - f.coeffs))) <= 1e-10
    assert wc.energy() == pytest.approx(
        spectral.inner_product(f, f, pd).real, abs=1e-10)


def test_detail_keys_order(tri3_pd):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    keys = wavelets.detail_keys(mw, 4)
    # |a| ascending first, then a lexicographic
    lens = [len(a) for (a, l, r) in keys]
    assert lens == sorted(lens)
    # the mothers come first, letters ascending, then l ascending
    assert keys[:4] == [((), 1, 0), ((), 1, 1), ((), 2, 1), ((), 1, 2)]
    assert lens.count(0) == 4
    # a coarser system's keys are a prefix of a finer one's
    coarse = wavelets.detail_keys(mw, 3)
    assert keys[:len(coarse)] == coarse
    level1 = [k for k in keys if len(k[0]) == 1]
    assert level1[0] == ((0,), 1, 0)
    assert ((0,), 1, 1) in level1 and ((0,), 2, 1) in level1
    # no (a, l, 2) with a ending in 0: A[0,2] = 0
    assert all(not (a and a[-1] == 0 and r == 2) for (a, l, r) in keys)


def test_synthesize_under_a_budget():
    tri3 = core.validate_matrix(TRI3)   # a fresh instance: its tables start cold
    mw = wavelets.build_mother_wavelets(spectral.perron_data(tri3))
    empty = wavelets.WaveletCoefficients(scaling=np.zeros(3), detail={})
    keys = wavelets._key_table(tri3)   # the levels its keys reach
    ends = list(keys.ends)
    before = tables_in(tri3._memo)
    with core.budget(1000):
        for K in (14, 40):
            with pytest.raises(CapExceeded):
                wavelets.synthesize(empty, mw, K)
    assert tables_in(tri3._memo) == before
    assert keys.ends == ends
    # |W_7| = 577 and |W_8| = 1393: the budget admits the one and refuses the other
    with core.budget(1000):
        assert len(wavelets.synthesize(empty, mw, 7).coeffs) == 577
        with pytest.raises(CapExceeded):
            wavelets.synthesize(empty, mw, 8)
    assert len(wavelets.synthesize(empty, mw, 8).coeffs) == 1393
