import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorkit import core, operators, ruelle, spectral
from cantorkit.errors import CapExceeded, IndexOutOfRange, LevelOutOfRange, MatrixMismatch
from conftest import tables_in
import oracles


def basis(matrix, k):
    return [core.CylinderFunction.indicator(matrix, w)
            for w in core.enumerate_words(matrix, k)]


def test_apply_S_explicit(full2_pd):
    m = full2_pd.matrix
    f = core.CylinderFunction.indicator(m, (1,))
    g = operators.apply_S(0, f, full2_pd)
    # (S_0 f)(x) = sqrt(2) chi_{R_0}(x) f(sigma x): mass moves onto 01
    assert g.level == 2
    assert oracles.coeff(g, (0, 1)) == pytest.approx(math.sqrt(2))
    for w in ((0, 0), (1, 0), (1, 1)):
        assert oracles.coeff(g, w) == 0


def test_apply_S_star_explicit(tri3_pd):
    f = core.CylinderFunction.indicator(tri3_pd.matrix, (0, 1))
    g = operators.apply_S_star(0, f, tri3_pd)
    # value at word b is f(0.b)/sqrt(r) when 0.b is admissible
    assert g.level == 1
    assert oracles.coeff(g, (1,)) == pytest.approx(1 / math.sqrt(tri3_pd.radius))
    assert oracles.coeff(g, (0,)) == 0
    assert oracles.coeff(g, (2,)) == 0  # 0.2 inadmissible: chi_{D_0} kills digit 2


def test_apply_S_star_outside_domain_is_zero(tri3_pd):
    # S_2* annihilates anything supported in R_0 (A[2,0] = 0)
    f = core.CylinderFunction.indicator(tri3_pd.matrix, (0,))
    g = operators.apply_S_star(2, f, tri3_pd)
    assert np.max(np.abs(g.coeffs)) == 0


def test_adjointness(tri3_pd):
    # <S_i* f, g> == <f, S_i g> over a whole basis pair
    pd = tri3_pd
    for i in range(3):
        for f in basis(pd.matrix, 3):
            for g in basis(pd.matrix, 2):
                lhs = spectral.inner_product(operators.apply_S_star(i, f, pd), g, pd)
                rhs = spectral.inner_product(f, operators.apply_S(i, g, pd), pd)
                assert lhs == pytest.approx(rhs, abs=1e-12)


def test_isometry_on_domain(tri3_pd):
    # S_i* S_i f = f for f supported in D_i
    pd = tri3_pd
    f = core.CylinderFunction.indicator(pd.matrix, (1, 2))  # inside D_0 and D_2
    for i in (0, 2):
        g = operators.apply_S_star(i, operators.apply_S(i, f, pd), pd)
        diff = core.refine(f, g.level).coeffs - g.coeffs
        assert np.max(np.abs(diff)) <= 1e-12


def test_word_operator_matches_composition(schottky4_pd):
    pd = schottky4_pd
    f = core.CylinderFunction.indicator(pd.matrix, (2,))
    w = (0, 1, 2)
    via_word = operators.apply_S_word(w, f, pd)
    via_steps = operators.apply_S(
        0, operators.apply_S(1, operators.apply_S(2, f, pd), pd), pd)
    assert np.allclose(via_word.coeffs, via_steps.coeffs)
    # S_a 1 = sqrt(r)^k chi_{Lambda(a)} on the cylinder of a
    one = core.CylinderFunction.constant(pd.matrix, 1.0)
    g = operators.apply_S_word(w, one, pd)
    ind = core.refine(core.CylinderFunction.indicator(pd.matrix, w), g.level)
    assert np.allclose(g.coeffs, pd.radius ** 1.5 * ind.coeffs)


def test_projection_two_routes(tri3_pd):
    # P(a) = S_a S_a* equals multiplication by the cylinder indicator
    pd = tri3_pd
    a = (1, 0)
    chi = core.CylinderFunction.indicator(pd.matrix, a)
    for f in basis(pd.matrix, 3):
        lhs = operators.apply_S_word(
            a, operators.apply_S_word(a, f, pd, adjoint=True), pd)
        rhs = oracles.multiply(chi, f)
        m = max(lhs.level, rhs.level)
        diff = core.refine(lhs, m).coeffs - core.refine(rhs, m).coeffs
        assert np.max(np.abs(diff)) <= 1e-12


def test_projection_nesting(tri3_pd):
    # P(ab) P(a) = P(ab): finer cylinders sit inside coarser ones
    pd = tri3_pd
    f = core.CylinderFunction.constant(pd.matrix, 1.0)

    def proj(word, g):
        return operators.apply_S_word(
            word, operators.apply_S_word(word, g, pd, adjoint=True), pd)

    lhs = proj((1, 0), proj((1,), f))
    rhs = proj((1, 0), f)
    m = max(lhs.level, rhs.level)
    assert np.allclose(core.refine(lhs, m).coeffs, core.refine(rhs, m).coeffs,
                       atol=1e-12)


@pytest.mark.parametrize("fixture", ["full2_pd", "tri3_pd", "schottky4_pd"])
@pytest.mark.parametrize("K", [2, 3, 4])
def test_ck_relations(fixture, K, request):
    pd = request.getfixturevalue(fixture)
    assert operators.ck_relations_residual(pd, K) <= 1e-11


def batched_s(i, arr, k, pd):
    """S_i on an array whose axis 0 runs over level-k words -> level k+1."""
    fd = core.first_digit_array(pd.matrix, k + 1)
    si = core.shift_index_array(pd.matrix, k + 1)
    out = np.zeros((len(fd),) + arr.shape[1:], dtype=np.complex128)
    mask = fd == i
    out[mask] = math.sqrt(pd.radius) * arr[si[mask]]
    return out


def batched_sstar(i, arr, k, pd):
    """S_i* on an array whose axis 0 runs over level-k words (k >= 1) -> level k-1."""
    pia = core.prepend_index_array(pd.matrix, k - 1, i)
    out = np.zeros((len(pia),) + arr.shape[1:], dtype=np.complex128)
    valid = pia >= 0
    out[valid] = arr[pia[valid]] / math.sqrt(pd.radius)
    return out


def dense_ck_residual(pd, K):
    """The CK residual with the whole level-K identity pushed through the generators."""
    mat = pd.matrix
    eye = np.eye(core.word_count(mat, K), dtype=np.complex128)
    mu = spectral.measure_array(pd, K)

    def worst(diff):
        norms_sq = (np.abs(diff) ** 2 * mu[:, None]).sum(axis=0)
        return math.sqrt(float(norms_sq.max()))

    range_proj = []
    for i in range(mat.n):
        down = batched_sstar(i, eye, K, pd)
        range_proj.append(batched_s(i, down, K - 1, pd))
    res = worst(sum(range_proj) - eye)
    for i in range(mat.n):
        up = batched_s(i, eye, K, pd)
        lhs = batched_sstar(i, up, K + 1, pd)
        rhs = sum(range_proj[j] for j in mat.successors[i])
        res = max(res, worst(lhs - rhs))
    return res


def test_ck_relations_match_dense_oracle(full2_pd, tri3_pd, schottky4_pd, strict5_pd):
    for pd in (full2_pd, tri3_pd, schottky4_pd, strict5_pd):
        for K in range(2, 6):
            assert operators.ck_relations_residual(pd, K) == dense_ck_residual(pd, K)


def test_ck_relations_memory_is_linear(schottky4_pd):
    # the dense identity alone would take 8748^2 * 16 bytes, about 1.1 GiB
    tracemalloc.start()
    try:
        res = operators.ck_relations_residual(schottky4_pd, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res <= 1e-11
    assert peak < 20e6


def test_ck_relations_level_check(full2_pd):
    with pytest.raises(LevelOutOfRange):
        operators.ck_relations_residual(full2_pd, 1)


def test_digit_range_checked(full2_pd):
    f = core.CylinderFunction.constant(full2_pd.matrix, 1.0)
    with pytest.raises(IndexOutOfRange):
        operators.apply_S(2, f, full2_pd)


def test_matrix_mismatch(full2_pd, tri3):
    f = core.CylinderFunction.constant(tri3, 1.0)
    with pytest.raises(MatrixMismatch):
        operators.apply_S(0, f, full2_pd)


# --- transfer operator ----------------------------------------------------------


def test_pf_fixed_point_residual(full2_pd, tri3_pd, schottky4_pd):
    for pd in (full2_pd, tri3_pd, schottky4_pd):
        h = operators.pf_fixed_point(pd)
        res = spectral.norm(operators.pf_operator(h, pd) - h, pd)
        assert res <= 1e-10


def reference_pf(f, pd):
    """(1/sqrt(r)) sum_i S_i* f as one batched S_i* per letter, summed."""
    g = core.refine(f, 2) if f.level <= 1 else f
    acc = None
    for i in range(pd.matrix.n):
        term = batched_sstar(i, g.coeffs, g.level, pd)
        acc = term if acc is None else acc + term
    return acc / math.sqrt(pd.radius)


def test_generators_and_pf_match_batched_loops(full2_pd, tri3_pd, schottky4_pd, strict5_pd):
    rng = np.random.default_rng(11)
    for pd in (full2_pd, tri3_pd, schottky4_pd, strict5_pd):
        for K in range(8):
            size = core.word_count(pd.matrix, K)
            f = core.CylinderFunction(pd.matrix, K, rng.normal(size=size)
                                      + 1j * rng.normal(size=size))
            assert (operators.pf_operator(f, pd).coeffs.tobytes()
                    == reference_pf(f, pd).tobytes())
            g = core.refine(f, 2) if K <= 1 else f
            for i in range(pd.matrix.n):
                assert (operators.apply_S(i, f, pd).coeffs.tobytes()
                        == batched_s(i, f.coeffs, K, pd).tobytes())
                assert (operators.apply_S_star(i, f, pd).coeffs.tobytes()
                        == batched_sstar(i, g.coeffs, g.level, pd).tobytes())


def test_pf_zero_sign_on_full_columns(full2_pd):
    # a preimage sum starts from +0.0, so a -0.0 on every preimage of a word
    # gives +0.0 there, where the letter-by-letter sum kept -0.0
    f = core.CylinderFunction(full2_pd.matrix, 2, np.full(4, complex(0.0, -0.0)))
    out = operators.pf_operator(f, full2_pd).coeffs
    assert not np.signbit(out.real).any() and not np.signbit(out.imag).any()
    assert np.signbit(reference_pf(f, full2_pd).imag).all()
    assert np.array_equal(out, reference_pf(f, full2_pd))


def test_pf_fixes_constants_on_full_shift(full2_pd):
    one = core.CylinderFunction.constant(full2_pd.matrix, 1.0)
    g = operators.pf_operator(one, full2_pd)
    assert np.allclose(core.refine(one, g.level).coeffs, g.coeffs, atol=1e-12)


def test_pf_adjoint_identity(tri3_pd):
    # <P f, g> = <f, (1/sqrt r) sum_i S_i g>
    pd = tri3_pd
    r = pd.radius
    for f in basis(pd.matrix, 3):
        for g in basis(pd.matrix, 2):
            lhs = spectral.inner_product(operators.pf_operator(f, pd), g, pd)
            sg = None
            for i in range(pd.matrix.n):
                term = operators.apply_S(i, g, pd)
                sg = term if sg is None else sg + term
            rhs = spectral.inner_product(f, sg * (1 / math.sqrt(r)), pd)
            assert lhs == pytest.approx(rhs, abs=1e-12)


# --- the canonical state ----------------------------------------------------------


def test_kms_state_values(tri3_pd):
    value = operators.kms_state((1, 2), (1, 2), tri3_pd)
    assert value.real == pytest.approx(
        spectral.cylinder_measure(tri3_pd, (1, 2)), abs=1e-12)
    assert operators.kms_state((1, 2), (1, 0), tri3_pd) == 0j


def test_kms_ratio_is_radius(full2_pd, tri3_pd, schottky4_pd):
    for pd in (full2_pd, tri3_pd, schottky4_pd):
        for i in range(pd.matrix.n):
            assert operators.kms_letter_ratio(i, pd) == pytest.approx(
                pd.radius, abs=1e-9)


# --- spectral measure and Fourier transform --------------------------------------


def test_borel_set_dedupes_and_sorts(tri3):
    b = oracles.borel_set(tri3, 2, [(1, 0), (0, 1), (1, 0)])
    assert b.words == ((0, 1), (1, 0))
    with pytest.raises(LevelOutOfRange):
        oracles.borel_set(tri3, 2, [(0,)])


def test_measure_mu_f_is_weighted_mass(tri3_pd):
    pd = tri3_pd
    f = core.CylinderFunction.indicator(pd.matrix, (1,))
    f = f * (1 / spectral.norm(f, pd))
    full = oracles.borel_set(pd.matrix, 1, [(0,), (1,), (2,)])
    assert oracles.measure_mu_f(f, full, pd) == pytest.approx(1.0, abs=1e-12)
    only1 = oracles.borel_set(pd.matrix, 1, [(1,)])
    assert oracles.measure_mu_f(f, only1, pd) == pytest.approx(1.0, abs=1e-12)
    only0 = oracles.borel_set(pd.matrix, 1, [(0,)])
    assert oracles.measure_mu_f(f, only0, pd) == 0.0


def test_measure_mu_f_warns_off_unit(tri3_pd):
    f = core.CylinderFunction.constant(tri3_pd.matrix, 2.0)
    b = oracles.borel_set(tri3_pd.matrix, 1, [(0,)])
    with pytest.warns(UserWarning):
        oracles.measure_mu_f(f, b, tri3_pd)


def test_fourier_matches_projection_route(tri3_pd):
    # sum_a e^{itx(a)} <f, S_a S_a* f> computed with actual operators
    pd = tri3_pd
    f = core.CylinderFunction.indicator(pd.matrix, (1,)) \
        + core.CylinderFunction.indicator(pd.matrix, (2,)) * 0.5j
    f = f * (1 / spectral.norm(f, pd))
    k = 2
    t = 3.7
    slow = 0j
    for a in core.enumerate_words(pd.matrix, k):
        saf = operators.apply_S_word(a, f, pd, adjoint=True)
        mass = spectral.inner_product(saf, saf, pd).real
        slow += np.exp(1j * t * core.nadic_value(a, 3).value) * mass
    fast = operators.fourier_approx(f, t, k, pd)
    assert fast == pytest.approx(slow, abs=1e-12)


def test_fourier_at_zero_is_one(schottky4_pd):
    f = core.CylinderFunction.indicator(schottky4_pd.matrix, (0, 1))
    f = f * (1 / spectral.norm(f, schottky4_pd))
    for k in range(1, 5):
        assert operators.fourier_approx(f, 0.0, k, schottky4_pd) == pytest.approx(
            1.0, abs=1e-12)


def test_fourier_scaling_recursion(tri3_pd):
    # F_k(f, t) = sum_j e^{itj/N} F_{k-1}(S_j* f, t/N)
    pd = tri3_pd
    n = pd.matrix.n
    f = core.CylinderFunction.indicator(pd.matrix, (1, 1)) \
        - core.CylinderFunction.indicator(pd.matrix, (0, 1))
    f = f * (1 / spectral.norm(f, pd))
    for t in (-11.0, 0.3, 7.9):
        for k in (2, 3, 4):
            direct = operators.fourier_approx(f, t, k, pd)
            rec = 0j
            for j in range(n):
                rec += (np.exp(1j * t * j / n)
                        * operators.fourier_approx(
                            operators.apply_S_star(j, f, pd), t / n, k - 1, pd))
            assert direct == pytest.approx(rec, abs=1e-12)


def test_fourier_full_shift_closed_form(full2_pd):
    # with f = 1, mu_f = Lebesgue on the level-k grid:
    # F_k(t) = prod_{m=1..k} (1 + e^{it 2^-m}) / 2
    one = core.CylinderFunction.constant(full2_pd.matrix, 1.0)
    for t in (-20.0, -4.2, 1.0, 13.5):
        for k in (1, 3, 6):
            prod = 1.0 + 0j
            for m in range(1, k + 1):
                prod *= (1 + np.exp(1j * t * 2.0 ** -m)) / 2
            assert operators.fourier_approx(one, t, k, full2_pd) == pytest.approx(
                prod, abs=1e-12)


def test_fourier_tail_bound(schottky4_pd):
    pd = schottky4_pd
    f = core.CylinderFunction.indicator(pd.matrix, (3,))
    f = f * (1 / spectral.norm(f, pd))
    for t in np.linspace(-20, 20, 9):
        for k in (1, 2, 3):
            gap = abs(operators.fourier_approx(f, t, k, pd)
                      - operators.fourier_approx(f, t, k + 4, pd))
            assert gap <= operators.fourier_tail_bound(t, k, 4) + 1e-12


def reference_fourier_approx(f, t, k, pd):
    """The direct form: one exp per level-k word, masses binned by prefix."""
    m = max(k, f.level)
    weights = np.abs(core.refine(f, m).coeffs) ** 2 * spectral.measure_array(pd, m)
    masses = np.bincount(core.prefix_index_array(pd.matrix, m, k), weights=weights,
                         minlength=core.word_count(pd.matrix, k))
    return complex(np.sum(np.exp(1j * t * core.value_array(pd.matrix, k)) * masses))


def _unit_signal(pd, level, seed):
    rng = np.random.default_rng(seed)
    size = core.word_count(pd.matrix, level)
    f = core.CylinderFunction(pd.matrix, level, rng.normal(size=size)
                              + 1j * rng.normal(size=size))
    return f * (1 / spectral.norm(f, pd))


FOURIER_TS = (0.0, 2.5, -2.5, 40.0, -40.0, 1e3, -1e3, 1e4, -1e4)


def test_fourier_digit_split_matches_direct_exp(full2_pd, tri3_pd, schottky4_pd, strict5_pd):
    for pd in (full2_pd, tri3_pd, schottky4_pd, strict5_pd):
        for level in range(1, 7):
            f = _unit_signal(pd, level, level)
            for k in range(10):
                for t in FOURIER_TS:
                    fast = operators.fourier_approx(f, t, k, pd)
                    slow = reference_fourier_approx(f, t, k, pd)
                    if t == 0.0:
                        assert fast == slow
                    assert abs(fast - slow) <= 1e-15 * max(1.0, abs(t))


@given(t=st.floats(min_value=-1e4, max_value=1e4), k=st.integers(min_value=0, max_value=11),
       level=st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_fourier_digit_split_any_t_and_level(tri3_pd, schottky4_pd, t, k, level):
    for pd in (tri3_pd, schottky4_pd):
        f = _unit_signal(pd, level, 3)
        slow = reference_fourier_approx(f, t, k, pd)
        assert abs(operators.fourier_approx(f, t, k, pd) - slow) <= 1e-15 * max(1.0, abs(t))


def test_fourier_sweep_is_fourier_approx_per_t(tri3_pd):
    f = _unit_signal(tri3_pd, 4, 11)
    ts = np.linspace(-30, 30, 13).tolist()
    for k in (0, 3, 4, 7):
        sweep = operators.fourier_sweep(f, ts, k, tri3_pd)
        assert sweep == [operators.fourier_approx(f, t, k, tri3_pd) for t in ts]
    with pytest.raises(LevelOutOfRange):
        operators.fourier_sweep(f, [], -1, tri3_pd)


def _bits(values):
    return np.array(values, dtype=np.complex128).tobytes()


def _counting_binnings(monkeypatch):
    calls = []
    bin_masses = operators._cylinder_masses
    monkeypatch.setattr(operators, "_cylinder_masses",
                        lambda f, k, pd: calls.append(f) or bin_masses(f, k, pd))
    return calls


def test_fourier_memo_hit_is_bit_equal_to_a_fresh_function(tri3_pd, schottky4_pd, monkeypatch):
    calls = _counting_binnings(monkeypatch)
    for pd in (tri3_pd, schottky4_pd):
        for level, k in ((0, 3), (3, 3), (5, 2), (4, 7)):
            f = _unit_signal(pd, level, level + k)
            operators.fourier_sweep(f, [1.0], k, pd)
            before = len(calls)
            hits = [operators.fourier_approx(f, t, k, pd) for t in FOURIER_TS]
            assert len(calls) == before   # every t read the memo
            fresh = [operators.fourier_approx(core.CylinderFunction(pd.matrix, level, f.coeffs),
                                              t, k, pd) for t in FOURIER_TS]
            assert len(calls) == before + len(FOURIER_TS)
            assert _bits(hits) == _bits(fresh)


def test_fourier_memo_rebins_for_another_perron_data_or_level(tri3, monkeypatch):
    calls = _counting_binnings(monkeypatch)
    pd, other = spectral.perron_data(tri3), spectral.perron_data(tri3, tol=1e-10)
    f = _unit_signal(pd, 4, 5)
    for q, k, binned in ((pd, 4, 1), (pd, 4, 1), (other, 4, 2), (other, 4, 2), (other, 5, 3),
                         (other, 4, 4), (pd, 4, 5)):
        out = operators.fourier_sweep(f, FOURIER_TS, k, q)
        assert sum(g is f for g in calls) == binned
        fresh = core.CylinderFunction(tri3, 4, f.coeffs)
        assert _bits(out) == _bits(operators.fourier_sweep(fresh, FOURIER_TS, k, q))


def test_fourier_memo_hit_still_checks_the_budget(tri3_pd):
    m = tri3_pd.matrix
    f = _unit_signal(tri3_pd, 6, 1)
    for k in (3, 6):
        expected = operators.fourier_sweep(f, FOURIER_TS, k, tri3_pd)
        with core.budget(core.word_count(m, 6) - 1), pytest.raises(CapExceeded, match="level 6 "):
            operators.fourier_approx(f, 1.0, k, tri3_pd)
        with core.budget(core.word_count(m, 6)):
            assert operators.fourier_sweep(f, FOURIER_TS, k, tri3_pd) == expected
    with core.budget(core.word_count(m, 7) - 1), pytest.raises(CapExceeded, match="level 7 "):
        operators.fourier_approx(f, 1.0, 7, tri3_pd)


def test_fourier_memo_is_freed_with_the_function(tri3_pd):
    f = _unit_signal(tri3_pd, 5, 2)
    operators.fourier_sweep(f, FOURIER_TS, 5, tri3_pd)
    masses = weakref.ref(f._masses[2])
    assert masses() is not None
    del f
    assert masses() is None


def test_fourier_of_a_constant_past_700000_words_stays_in_band(schottky4_pd):
    # 708,588 near-equal masses: a prefix's c_j terms of mass x cos, added in a row,
    # round past the band at t = 1e-6
    one = core.CylinderFunction.constant(schottky4_pd.matrix, 1.0)
    ts = (1e-6, 1e-3, 1.0) + FOURIER_TS
    for t, fast in zip(ts, operators.fourier_sweep(one, ts, 12, schottky4_pd)):
        slow = reference_fourier_approx(one, t, 12, schottky4_pd)
        assert abs(fast - slow) <= 1e-15 * max(1.0, abs(t)), t


def test_ck_residual_refuses_level_k_plus_one_before_any_table():
    # a matrix no other test uses, so its tables start cold
    ring = core.validate_matrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])
    pd = spectral.perron_data(ring)
    w3, w4 = core.word_count(ring, 3), core.word_count(ring, 4)
    assert tables_in(ring._memo) == set()
    with pytest.raises(CapExceeded, match="level 4 "), core.budget(w3):
        operators.ck_relations_residual(pd, 3)
    assert tables_in(ring._memo) == set()
    with core.budget(w4):
        assert operators.ck_relations_residual(pd, 3) < 1e-12


def test_generators_and_preimage_sums_refuse_before_allocating(tri3_pd):
    # every kernel below reads or writes level 12; a budget one word short of
    # |W_12| refuses it before any |W_11|-sized array is made
    pd, K = tri3_pd, 12
    mat = pd.matrix
    f = core.CylinderFunction(mat, K, np.ones(core.word_count(mat, K)))
    h = core.CylinderFunction(mat, K - 1, np.ones(core.word_count(mat, K - 1)))
    pointwise = ruelle.trig_potential(pd, 1)[1]
    calls = [lambda: operators.apply_S(0, h, pd), lambda: operators.apply_S_star(1, f, pd),
             lambda: operators.pf_operator(f, pd), lambda: ruelle.ruelle_apply(f, f, pd),
             lambda: ruelle.keane_residual(f, pd),
             lambda: ruelle.preimage_keane_residual(pointwise, pd, K - 1)]
    smallest = 8 * core.word_count(mat, K - 1)
    for call in calls:
        call()   # outside the budget, so every table below level 12 is warm
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="level 12 "), \
                    core.budget(core.word_count(mat, K) - 1):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < smallest / 4
