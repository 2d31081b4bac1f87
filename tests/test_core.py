import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorkit import core
from cantorkit.errors import (
    CapExceeded,
    DeadRow,
    EmptyWord,
    InadmissibleWord,
    LevelOutOfRange,
    LevelTooLow,
    MissingDiagonal,
    NonBinaryEntry,
    NotInDomain,
    Reducible,
)


def test_validate_rejects_non_binary():
    with pytest.raises(NonBinaryEntry):
        core.validate_matrix([[1, 2], [1, 1]])


def test_validate_rejects_missing_diagonal():
    with pytest.raises(MissingDiagonal):
        core.validate_matrix([[0, 1], [1, 1]])


def test_validate_rejects_dead_row():
    with pytest.raises(DeadRow):
        core.validate_matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]], strict=False)


def test_validate_rejects_reducible():
    # two strict blocks with no connection
    with pytest.raises(Reducible):
        core.validate_matrix([[1, 0], [0, 1]])


def test_lax_mode_allows_cycle():
    m = core.validate_matrix([[0, 1], [1, 0]], strict=False)
    assert m.n == 2 and not m.strict


def test_successor_tables(tri3):
    assert tri3.successors == ((0, 1), (0, 1, 2), (1, 2))
    assert tri3.predecessors == ((0, 1), (0, 1, 2), (1, 2))
    assert tri3.row_sums == (2, 3, 2)
    assert tri3.col_sums == (2, 3, 2)


def test_is_admissible(tri3):
    assert core.is_admissible(tri3, (0, 1, 2))
    assert not core.is_admissible(tri3, (0, 2))
    assert core.is_admissible(tri3, ())
    assert not core.is_admissible(tri3, (3,))


def test_check_word_raises(tri3):
    with pytest.raises(InadmissibleWord):
        core.check_word(tri3, (2, 0))


def test_shift_and_prepend(tri3):
    assert core.shift((0, 1, 2)) == (1, 2)
    with pytest.raises(EmptyWord):
        core.shift(())
    assert core.prepend(1, (2, 2), tri3) == (1, 2, 2)
    with pytest.raises(NotInDomain):
        core.prepend(0, (2, 2), tri3)


def test_nadic_value():
    pt = core.nadic_value((1, 0, 1), 2)
    assert pt.word == (1, 0, 1)
    assert pt.value == 0.5 + 0.125
    assert core.nadic_value((), 3).value == 0.0


# level-k word counts: full 2x2 doubles, tridiagonal follows the Pell
# recursion t_{k+1} = 2 t_k + t_{k-1} (3, 7, 17, 41, 99), Schottky triples.
def test_word_counts(full2, tri3, schottky4):
    assert [core.word_count(full2, k) for k in range(5)] == [1, 2, 4, 8, 16]
    assert [core.word_count(tri3, k) for k in range(6)] == [1, 3, 7, 17, 41, 99]
    assert [core.word_count(schottky4, k) for k in range(4)] == [1, 4, 12, 36]


def test_enumeration_is_lexicographic_and_complete(tri3):
    words = core.enumerate_words(tri3, 2)
    assert words == ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2))
    assert list(words) == sorted(words)
    for k in range(5):
        ws = core.enumerate_words(tri3, k)
        assert len(ws) == core.word_count(tri3, k)
        assert all(core.is_admissible(tri3, w) for w in ws)


def test_negative_levels_are_rejected(tri3):
    for k in (-1, -2):
        with pytest.raises(LevelOutOfRange):
            core.word_count(tri3, k)
        with pytest.raises(LevelOutOfRange):
            core.enumerate_words(tri3, k)
        with pytest.raises(LevelOutOfRange), core.budget(100):
            core.enumerate_words(tri3, k)


def test_enumeration_cap(schottky4):
    with pytest.raises(CapExceeded), core.budget(100):
        core.enumerate_words(schottky4, 9)


def test_word_index_round_trip(tri3):
    idx = core.word_index(tri3, 3)
    for w in core.enumerate_words(tri3, 3):
        assert core.enumerate_words(tri3, 3)[idx[w]] == w


TABLE_LEVELS = range(8)


def test_prefix_shift_prepend_arrays(full2, tri3, schottky4, strict5):
    # each array-built table against its definition on the word tuples
    for m in (full2, tri3, schottky4, strict5):
        for k in TABLE_LEVELS:
            words = core.enumerate_words(m, k)
            if k >= 1:
                shorter = core.word_index(m, k - 1)
                assert core.first_digit_array(m, k).tolist() == [w[0] for w in words]
                assert core.last_digit_array(m, k).tolist() == [w[-1] for w in words]
                assert core.shift_index_array(m, k).tolist() == [
                    shorter[w[1:]] for w in words]
            for k0 in range(k + 1):
                idx = core.word_index(m, k0)
                assert core.prefix_index_array(m, k, k0).tolist() == [
                    idx[w[:k0]] for w in words]
                assert core.suffix_index_array(m, k, k0).tolist() == [
                    idx[w[k - k0:]] for w in words]
            # prepend: index of i.b at level k + 1 for each level-k word b, -1 if i.b invalid
            longer = core.word_index(m, k + 1)
            for i in range(m.n):
                assert core.prepend_index_array(m, k, i).tolist() == [
                    longer.get((i,) + w, -1) for w in words]


def test_value_array_matches_scalar(full2, tri3, schottky4, strict5):
    for m in (full2, tri3, schottky4, strict5):
        for k in TABLE_LEVELS:
            scalar = np.array([core.nadic_value(w, m.n).value
                               for w in core.enumerate_words(m, k)])
            assert core.value_array(m, k).tobytes() == scalar.tobytes()


def test_tables_never_touch_word_tuples(tri3, monkeypatch):
    for obj in vars(core).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()

    def refuse(matrix, k):
        raise AssertionError("word tuples enumerated at level %d" % k)

    monkeypatch.setattr(core, "_enumerate_words_cached", refuse)
    assert len(core.prepend_index_array(tri3, 12, 1)) == core.word_count(tri3, 12)
    assert len(core.value_array(tri3, 12)) == core.word_count(tri3, 12)
    assert len(core.suffix_index_array(tri3, 12, 6)) == core.word_count(tri3, 12)


def test_table_levels_are_checked(tri3):
    for table in (core.first_digit_array, core.last_digit_array, core.shift_index_array):
        with pytest.raises(LevelOutOfRange):
            table(tri3, 0)
    for table in (core.prefix_index_array, core.suffix_index_array):
        with pytest.raises(LevelOutOfRange):
            table(tri3, 2, 3)
        with pytest.raises(LevelOutOfRange):
            table(tri3, 2, -1)
    with pytest.raises(LevelOutOfRange):
        core.value_array(tri3, -1)
    with pytest.raises(NotInDomain):
        core.prepend_index_array(tri3, 2, 3)


def test_bounded_word_count(full2, tri3, schottky4):
    for m in (full2, tri3, schottky4):
        for k in range(8):
            n = core.word_count(m, k)
            for bound in (-1, 0, n - 1, n, n + 1, 10 ** 30):
                assert core.bounded_word_count(m, k, bound) == min(n, bound + 1)
    # counting stops at the bound, however deep the level
    assert core.bounded_word_count(tri3, 10 ** 7, 1000) == 1001
    starts_02 = int(np.isin(core.first_digit_array(tri3, 6), (0, 2)).sum())
    assert core.bounded_word_count(tri3, 6, 10 ** 9, first=(0, 2)) == starts_02
    assert core.bounded_word_count(tri3, 6, starts_02 - 1, first=(0, 2)) == starts_02
    with pytest.raises(LevelOutOfRange):
        core.bounded_word_count(tri3, -1, 10)


def test_budget_checks_every_table_call(tri3):
    # |W_4| = 41 and |W_5| = 99 on tri3; tables built outside a budget are
    # refused inside one all the same
    tables = (core._enumerate_words_cached, core.word_index, core.first_digit_array,
              core.last_digit_array, core.shift_index_array, core.value_array)
    for table in tables:
        table(tri3, 5)
    core.prepend_index_array(tri3, 4, 1)
    with core.budget(98):
        for table in tables:
            with pytest.raises(CapExceeded, match="level 5 is over the cap of 98 words"):
                table(tri3, 5)
        for table in (core.prefix_index_array, core.suffix_index_array):
            with pytest.raises(CapExceeded):
                table(tri3, 5, 2)
        with pytest.raises(CapExceeded):   # the words i.w live at level 5
            core.prepend_index_array(tri3, 4, 1)
        with core.budget(None):
            assert len(core.enumerate_words(tri3, 5)) == 99
        with core.budget(99):
            assert len(core.prepend_index_array(tri3, 4, 1)) == 41
        assert len(core.value_array(tri3, 4)) == 41
    assert len(core.value_array(tri3, 5)) == 99
    with pytest.raises(CapExceeded), core.budget(0):
        core.enumerate_words(tri3, 0)
    assert core.enumerate_words(tri3, 0) == ((),)


def test_budget_refuses_before_building(tri3):
    tables = [obj for obj in vars(core).values() if hasattr(obj, "cache_info")]
    before = [t.cache_info().currsize for t in tables]
    with core.budget(10 ** 6):
        for table in (core.value_array, core.last_digit_array, core.word_index):
            with pytest.raises(CapExceeded):
                table(tri3, 10 ** 5)
    assert [t.cache_info().currsize for t in tables] == before


def test_indicator_and_refine(full2):
    f = core.CylinderFunction.indicator(full2, (0, 1))
    g = core.refine(f, 4)
    assert g.level == 4
    for w in core.enumerate_words(full2, 4):
        assert g.coeff(w) == (1.0 if w[:2] == (0, 1) else 0.0)
    with pytest.raises(LevelTooLow):
        core.refine(g, 2)


def test_arithmetic_refines_to_common_level(full2):
    f = core.CylinderFunction.indicator(full2, (0,))
    g = core.CylinderFunction.indicator(full2, (1, 0))
    h = f + g * 2.0
    assert h.level == 2
    assert h.coeff((0, 1)) == 1.0
    assert h.coeff((1, 0)) == 2.0


def test_multiply_is_pointwise(full2):
    f = core.CylinderFunction.indicator(full2, (0,))
    g = core.CylinderFunction.indicator(full2, (0, 1))
    h = core.multiply(f, g)
    assert h.coeff((0, 1)) == 1.0
    assert h.coeff((0, 0)) == 0.0


def test_compose_shift(tri3):
    f = core.CylinderFunction.indicator(tri3, (2,))
    g = core.compose_shift(f)  # g(x) = f(sigma x), one level finer
    assert g.level == 2
    for w in core.enumerate_words(tri3, 2):
        assert g.coeff(w) == (1.0 if w[1] == 2 else 0.0)


def test_coeffs_are_immutable(full2):
    f = core.CylinderFunction.indicator(full2, (0,))
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0
    with pytest.raises(AttributeError):
        f.level = 3


@st.composite
def irreducible_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    rows = [[1] * n for _ in range(n)]
    # knock out some off-diagonal entries, keeping the unit diagonal
    for i in range(n):
        for j in range(n):
            if i != j and draw(st.booleans()):
                rows[i][j] = 0
    try:
        return core.validate_matrix(rows)
    except Reducible:
        return core.validate_matrix([[1] * n for _ in range(n)])


@given(m=irreducible_matrices(), k=st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_word_count_matches_enumeration(m, k):
    assert core.word_count(m, k) == len(core.enumerate_words(m, k))
    # counting via powers of A: sum of A^{k-1} entries
    a = np.linalg.matrix_power(m.array, k - 1)
    assert core.word_count(m, k) == int(a.sum())
