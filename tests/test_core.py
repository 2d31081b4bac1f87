import gc
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorkit import core, fileio, graphs, operators, ruelle, spectral, wavelets
from cantorkit.errors import (
    CapExceeded,
    DeadRow,
    EmptyWord,
    InadmissibleWord,
    IndexOutOfRange,
    LevelOutOfRange,
    LevelTooLow,
    MissingDiagonal,
    NonBinaryEntry,
    Reducible,
)
from conftest import TRI3, tables_in
import oracles


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


def test_irreducible_is_reachability():
    # against (I + A)^(n-1) > 0, on seeded 0-1 grids with and without a diagonal
    rng = np.random.default_rng(13)
    for n in range(1, 8):
        for density in (0.2, 0.4, 0.6):
            for _ in range(30):
                a = (rng.random((n, n)) < density).astype(int)
                reach = np.linalg.matrix_power(np.eye(n, dtype=int) + a, max(n - 1, 1))
                assert core._is_irreducible(a.tolist()) == bool((reach > 0).all())


def test_lax_mode_allows_cycle():
    m = core.validate_matrix([[0, 1], [1, 0]], strict=False)
    assert m.n == 2 and not m.strict


def test_successor_tables(tri3):
    assert tri3.successors == ((0, 1), (0, 1, 2), (1, 2))
    assert tri3.transpose.successors == ((0, 1), (0, 1, 2), (1, 2))
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
    assert oracles.shift((0, 1, 2)) == (1, 2)
    with pytest.raises(EmptyWord):
        oracles.shift(())
    assert oracles.prepend(1, (2, 2), tri3) == (1, 2, 2)
    with pytest.raises(oracles.NotInDomain):
        oracles.prepend(0, (2, 2), tri3)


def test_nadic_value():
    pt = oracles.nadic_value((1, 0, 1), 2)
    assert pt.word == (1, 0, 1)
    assert pt.value == 0.5 + 0.125
    assert oracles.nadic_value((), 3).value == 0.0


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


def _lax(rows):
    return core.validate_matrix(rows, strict=False)


def test_rank_is_the_position_in_the_enumeration(full2, tri3, schottky4, strict5, strict12):
    for m in (full2, tri3, schottky4, strict5, strict12,
              _lax([[0, 1], [1, 0]]), _lax([[1]])):
        for k in range(7):
            words = core.enumerate_words(m, k)
            assert [core.rank(m, w) for w in words] == list(range(len(words)))
    # strict12 writes its words with dots; they parse back to the same rank
    for pos, w in enumerate(core.enumerate_words(strict12, 3)):
        assert core.rank(strict12, fileio.parse_word(fileio.format_word(w, 12), 12)) == pos


def test_digit_table_and_word_column_spell_the_enumeration(full2, tri3, schottky4, strict5,
                                                           strict12):
    rng = np.random.default_rng(11)   # eleven letters, so dotted words: 4,972 at level 6
    rows = (rng.random((11, 11)) < 0.1) | np.eye(11, dtype=bool) | np.eye(11, k=1, dtype=bool)
    rows[10, 0] = True   # the cycle 0 -> 1 -> ... -> 10 -> 0 makes it irreducible
    for m in (full2, tri3, schottky4, strict5, strict12, core.validate_matrix(rows.tolist()),
              _lax([[0, 1], [1, 0]]), _lax([[1]])):
        for k in range(7):
            words = core.enumerate_words(m, k)
            table = core._digit_table(m, k)
            assert table.dtype == np.uint8 and table.shape == (len(words), k)
            assert list(map(tuple, table.tolist())) == list(words)
            assert [core.rank(m, row) for row in table.tolist()] == list(range(len(words)))
            assert fileio.word_column(m, k) == tuple(fileio.format_word(w, m.n) for w in words)
    # past 256 letters the digits take two bytes
    cycle = _lax([[int(j == (i + 1) % 257) for j in range(257)] for i in range(257)])
    table = core._digit_table(cycle, 3)
    assert table.dtype == np.uint16 and table[-1].tolist() == [256, 0, 1]
    assert fileio.word_column(cycle, 3)[-1] == "256.0.1"


def test_rank_refuses_inadmissible_words(tri3, strict12):
    for m, word in ((tri3, (0, 2)), (tri3, (2, 1, 0, 2)), (tri3, (3,)), (tri3, (-1, 0)),
                    (tri3, (1, 5)), (strict12, (12,)), (_lax([[0, 1], [1, 0]]), (0, 0))):
        with pytest.raises(InadmissibleWord):
            core.rank(m, word)


def test_rank_of_a_deep_word_on_the_two_cycle():
    # level 20,000: the counts are carried on level by level, not recounted per letter
    m = _lax([[0, 1], [1, 0]])
    start = time.perf_counter()
    assert core.rank(m, (1, 0) * 10000) == 1
    assert core.rank(m, (0, 1) * 10000) == 0
    assert time.perf_counter() - start < 1.0


def test_rank_keeps_no_level_counts():
    # rank carries the counts itself: a level-20,000 word leaves the memo's two levels
    m = _lax([[0, 1], [1, 0]])
    assert core.rank(m, (1, 0) * 10000) == 1
    assert len(m._memo["counts"]) <= 3
    tri3 = core.validate_matrix(TRI3)
    before = dict(tri3._memo["counts"])
    assert core.rank(tri3, (2,) * 40) == core.word_count(tri3, 40) - 1
    assert set(tri3._memo["counts"]) - set(before) == {40}   # word_count's own level


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
                assert oracles.suffix_index_array(m, k, k0).tolist() == [
                    idx[w[k - k0:]] for w in words]
            # prepend: index of i.b at level k + 1 for each level-k word b, -1 if i.b invalid
            longer = core.word_index(m, k + 1)
            for i in range(m.n):
                assert core.prepend_index_array(m, k, i).tolist() == [
                    longer.get((i,) + w, -1) for w in words]


def test_split_layout_groups_words_by_the_last_prefix_letter(full2, tri3, schottky4, strict5):
    # a = p.s with |s| = k // 2: each letter j's block holds, row by row, the words of
    # the prefixes p ending in j, each row followed by the same suffixes s
    for m in (full2, tri3, schottky4, strict5):
        for k in TABLE_LEVELS:
            k0 = k - k // 2
            words, prefixes = core.enumerate_words(m, k), core.word_index(m, k0)
            order, x, p, letters = core.split_layout(m, k)
            assert sorted(order.tolist()) == list(range(len(words)))
            assert p == len(prefixes)
            stops = [rows.stop for _, rows, _, _ in letters]
            assert [rows.start for _, rows, _, _ in letters] == [0] + stops[:-1]
            assert stops[-1] == p
            ends = []
            for mass, rows, suffixes, shape in letters:
                block = [[words[a] for a in row] for row in order[mass].reshape(shape).tolist()]
                tails = [w[k0:] for w in block[0]]
                assert rows.stop - rows.start == shape[0]
                ends.append(block[0][0][k0 - 1] if k0 else 0)
                for row, xp in zip(block, x[rows].tolist()):
                    assert [w[:k0] for w in row] == [row[0][:k0]] * len(row)
                    assert (row[0][k0 - 1] if k0 else 0) == ends[-1]
                    assert [w[k0:] for w in row] == tails
                    assert xp == core.value_array(m, k0)[prefixes[row[0][:k0]]]
                scalar = np.array([oracles.nadic_value(s, m.n).value for s in tails])
                assert x[suffixes].tobytes() == (scalar * float(m.n) ** -k0).tobytes()
            assert ends == sorted(set(ends))


def test_branch_runs_match_shift_and_prepend(full2, tri3, schottky4, strict5):
    # schottky4's digit 0 has the successors 0, 1, 3: two runs, not one
    assert core.branch_runs(schottky4, 3)[0] == ((0, 0, 18), (18, 27, 36))
    for m in (full2, tri3, schottky4, strict5):
        for k in range(8):
            first = core.first_digit_array(m, k + 1)
            for i, runs in enumerate(core.branch_runs(m, k)):
                assert all(a < z for _, a, z in runs)
                assert all(z < a for (_, _, z), (_, a, _) in zip(runs, runs[1:]))   # merged
                shifted = np.concatenate([np.arange(a, z) for _, a, z in runs])
                block = np.concatenate([np.arange(b, b + z - a) for b, a, z in runs])
                assert block.tolist() == np.flatnonzero(first == i).tolist()
                assert core.shift_index_array(m, k + 1)[block].tolist() == shifted.tolist()
                pia = core.prepend_index_array(m, k, i)
                assert pia[shifted].tolist() == block.tolist()
                assert np.count_nonzero(pia >= 0) == len(shifted)


def test_value_array_matches_scalar(full2, tri3, schottky4, strict5):
    for m in (full2, tri3, schottky4, strict5):
        for k in TABLE_LEVELS:
            scalar = np.array([oracles.nadic_value(w, m.n).value
                               for w in core.enumerate_words(m, k)])
            assert core.value_array(m, k).tobytes() == scalar.tobytes()


def test_tables_never_touch_word_tuples(monkeypatch):
    tri3 = core.validate_matrix(TRI3)   # a fresh instance: its tables start cold

    def refuse(matrix, k):
        raise AssertionError("word tuples enumerated at level %d" % k)

    monkeypatch.setattr(core, "_enumerate_words_cached", refuse)
    assert len(core.prepend_index_array(tri3, 12, 1)) == core.word_count(tri3, 12)
    assert len(core.value_array(tri3, 12)) == core.word_count(tri3, 12)
    assert len(core.split_layout(tri3, 12)[0]) == core.word_count(tri3, 12)
    # and no listing or spelling of words outside core builds them either
    assert len(fileio.word_column(tri3, 12)) == core.word_count(tri3, 12)
    assert len(fileio._key_column(tri3, 12)) == core.word_count(tri3, 12)
    assert len(wavelets._keys(tri3, 12)) == core.word_count(tri3, 12) - tri3.n
    loops = graphs.directed_graph(1, [(0, 0)] * 3)
    assert graphs.path_integrals(graphs.build_graph_wavelets(loops, 0, 0), 4).n_paths == 81


def test_table_levels_are_checked(tri3):
    for table in (core.first_digit_array, core.last_digit_array, core.shift_index_array):
        with pytest.raises(LevelOutOfRange):
            table(tri3, 0)
    with pytest.raises(LevelOutOfRange):
        core.prefix_index_array(tri3, 2, 3)
    with pytest.raises(LevelOutOfRange):
        core.prefix_index_array(tri3, 2, -1)
    for table in (core.value_array, core.split_layout):
        with pytest.raises(LevelOutOfRange):
            table(tri3, -1)
    with pytest.raises(IndexOutOfRange):
        core.prepend_index_array(tri3, 2, 3)


def test_bounded_word_count(full2, tri3, schottky4):
    for m in (full2, tri3, schottky4):
        for k in range(8):
            n = core.word_count(m, k)
            for bound in (-1, 0, n - 1, n, n + 1, 10 ** 30):
                assert core.bounded_word_count(m, k, bound) == min(n, bound + 1)
    # counting stops at the bound, however deep the level
    assert core.bounded_word_count(tri3, 10 ** 7, 1000) == 1001
    with pytest.raises(LevelOutOfRange):
        core.bounded_word_count(tri3, -1, 10)


def _light_job(m):
    """Tables of several kinds, both key tables, a transpose and a budget check."""
    core.value_array(m, 4)
    core.prefix_index_array(m, 4, 2)
    core.prepend_index_array(m, 3, 0)
    core.last_digit_array(m.transpose, 4)
    wavelets._keys(m, 4)
    fileio._key_column(m, 4)
    with core.budget(10 ** 4):
        core.enumerate_words(m, 3)
    return core.value_array(m, 4)


def test_equal_matrices_hash_alike_and_die_with_their_tables():
    rows = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    m = core.validate_matrix(rows)
    twin = core.validate_matrix(rows)
    assert twin is not m and twin == m and hash(twin) == hash(m)
    assert core.validate_matrix(rows, strict=False) != m
    # each instance keeps its own tables
    assert core.value_array(twin, 5).tobytes() == core.value_array(m, 5).tobytes()
    assert core.value_array(twin, 5) is not core.value_array(m, 5)
    table = _light_job(m)
    dead = [weakref.ref(m), weakref.ref(m.transpose), weakref.ref(table)]
    gc.disable()   # reference counting alone must free them: nothing refers back
    try:
        del m, table
        assert [ref() for ref in dead] == [None] * 3
    finally:
        gc.enable()


def _held_by_memo_alone(m, table, k):
    """Whether the level-k entry of a memoised table is referred to by m's memo and by
    nothing else, so that it is freed with m.  For tuples, which take no weak reference."""
    return sys.getrefcount(m._memo[(table.__wrapped__, k)]) == 2   # the memo and the argument


def _wavelet_round_trip(m):
    """analyze -> format -> parse -> synthesize at level 4; a weak reference to a
    pyramid layout array it leaves in the memo.  The key tables it leaves there
    are held by the memo alone."""
    mw = wavelets.build_mother_wavelets(spectral.perron_data(m))
    f = core.CylinderFunction(m, 4, np.arange(core.word_count(m, 4), dtype=complex))
    text = fileio.format_coefficients(wavelets.analyze(f, mw), mw, 4)
    wavelets.synthesize(fileio.parse_coefficients(text, m)[0], mw, 4)
    assert len(fileio._key_column(m, 4)) == core.word_count(m, 4)
    assert _held_by_memo_alone(m, wavelets._keys, 4)
    assert _held_by_memo_alone(m, fileio._key_column, 4)
    return [weakref.ref(wavelets._pyramid_layout(m, 3)[0])]


def test_no_table_outlives_its_matrix():
    # a long-lived loop over many matrices holds nothing once each is dropped
    rng = np.random.default_rng(4)
    dead = []
    gc.disable()
    try:
        for _ in range(1000):
            rows = (rng.random((4, 4)) < 0.4) | np.eye(4, dtype=bool)
            m = core.validate_matrix(rows.astype(int).tolist(), strict=False)
            dead += [weakref.ref(m), weakref.ref(m.transpose), weakref.ref(_light_job(m))]
            if core._is_irreducible(m.rows):   # wavelets need Perron data
                dead += _wavelet_round_trip(m)
            del m
        assert sum(ref() is not None for ref in dead) == 0
    finally:
        gc.enable()


def test_budget_checks_every_table_call(tri3):
    # |W_4| = 41 and |W_5| = 99 on tri3; tables built outside a budget are
    # refused inside one all the same
    tables = (core._enumerate_words_cached, core.word_index, core.first_digit_array,
              core.last_digit_array, core.shift_index_array, core.value_array,
              core.split_layout, wavelets._keys, fileio._key_column)
    for table in tables:
        table(tri3, 5)
    core.prepend_index_array(tri3, 4, 1)
    core.branch_runs(tri3, 4)
    wavelets._pyramid_layout(tri3, 4)
    with core.budget(98):
        for table in tables:
            with pytest.raises(CapExceeded, match="level 5 is over the cap of 98 words"):
                table(tri3, 5)
        with pytest.raises(CapExceeded):
            core.prefix_index_array(tri3, 5, 2)
        with pytest.raises(CapExceeded):   # the words i.w live at level 5
            core.prepend_index_array(tri3, 4, 1)
        with pytest.raises(CapExceeded, match="level 5 is over the cap of 98 words"):
            core.branch_runs(tri3, 4)
        with pytest.raises(CapExceeded, match="level 5 is over the cap of 98 words"):
            wavelets._pyramid_layout(tri3, 4)   # the children of level-4 words
        with core.budget(None):
            assert len(core.enumerate_words(tri3, 5)) == 99
        with core.budget(99):
            assert len(core.prepend_index_array(tri3, 4, 1)) == 41
            assert len(core.branch_runs(tri3, 4)) == 3
            assert wavelets._pyramid_layout(tri3, 4)[2] == 99 - 41
        assert len(core.value_array(tri3, 4)) == 41
    assert len(core.value_array(tri3, 5)) == 99
    with pytest.raises(CapExceeded), core.budget(0):
        core.enumerate_words(tri3, 0)
    assert core.enumerate_words(tri3, 0) == ((),)


def test_budget_refuses_before_building():
    tri3 = core.validate_matrix(TRI3)   # a fresh instance, with a few levels built
    core.value_array(tri3, 3)
    core.last_digit_array(tri3, 3)
    before = tables_in(tri3._memo)
    with core.budget(10 ** 6):
        for table in (core.value_array, core.last_digit_array, core.word_index):
            with pytest.raises(CapExceeded):
                table(tri3, 10 ** 5)
    assert tables_in(tri3._memo) == before


def _two_cycle():
    return core.validate_matrix([[0, 1], [1, 0]], strict=False)


def test_levelled_tables_build_upward_without_recursion():
    # 3,000 levels, deeper than Python's recursion limit; the words are 0101... and 1010...
    assert core.last_digit_array(_two_cycle(), 3000).tolist() == [1, 0]
    assert core.value_array(_two_cycle(), 3000) == pytest.approx([1 / 3, 2 / 3], abs=1e-15)
    assert core.last_digit_array(_two_cycle(), 3001).tolist() == [0, 1]


def test_level_counts_carry_on(monkeypatch):
    # asking for the levels 1..k in turn takes O(k) count steps, not O(k^2)
    cycle, steps = _two_cycle(), []
    step = core._next_counts
    monkeypatch.setattr(core, "_next_counts", lambda m, c: steps.append(1) or step(m, c))
    builds = [t.cache_info().misses for t in (core.last_digit_array, core.value_array)]
    with core.budget(200000):
        for k in range(1, 2001):
            assert core.word_count(cycle, k) == 2
            core.first_digit_array(cycle, k)
            core.last_digit_array(cycle, k)
            core.value_array(cycle, k)
            core.prefix_index_array(cycle, k, k - 1)
            core.prepend_index_array(cycle, k, 1)
    assert len(steps) <= 2 * 2000
    # each level of each table is built once; value_array also at level 0
    assert [t.cache_info().misses - b for t, b in zip(
        (core.last_digit_array, core.value_array), builds)] == [2000, 2001]


def test_indicator_and_refine(full2):
    f = core.CylinderFunction.indicator(full2, (0, 1))
    g = core.refine(f, 4)
    assert g.level == 4
    for w in core.enumerate_words(full2, 4):
        assert oracles.coeff(g, w) == (1.0 if w[:2] == (0, 1) else 0.0)
    with pytest.raises(LevelTooLow):
        core.refine(g, 2)


def test_coeff_refuses_words_of_another_level_or_inadmissible(tri3):
    f = core.CylinderFunction.indicator(tri3, (1, 2))
    assert [oracles.coeff(f, w) for w in core.enumerate_words(tri3, 2)] == [0, 0, 0, 0, 1, 0, 0]
    for word in ((0,), (0, 1, 1), ()):
        with pytest.raises(LevelOutOfRange):
            oracles.coeff(f, word)
    for word in ((0, 2), (5, 1), (2, 0)):
        with pytest.raises(InadmissibleWord):
            oracles.coeff(f, word)


def test_indicator_of_a_deep_word_builds_no_word_table():
    # tri3 at level 13 has 114,243 words: 1.8 MB of coefficients, and no word tuples
    tri3 = core.validate_matrix(TRI3)
    word = (1,) * 13
    tracemalloc.start()
    try:
        f = core.CylinderFunction.indicator(tri3, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert oracles.coeff(f, word) == 1 and f.coeffs.sum() == 1


def test_arithmetic_refines_to_common_level(full2):
    f = core.CylinderFunction.indicator(full2, (0,))
    g = core.CylinderFunction.indicator(full2, (1, 0))
    h = f + g * 2.0
    assert h.level == 2
    assert oracles.coeff(h, (0, 1)) == 1.0
    assert oracles.coeff(h, (1, 0)) == 2.0


def test_multiply_is_pointwise(full2):
    f = core.CylinderFunction.indicator(full2, (0,))
    g = core.CylinderFunction.indicator(full2, (0, 1))
    h = oracles.multiply(f, g)
    assert oracles.coeff(h, (0, 1)) == 1.0
    assert oracles.coeff(h, (0, 0)) == 0.0


def test_compose_shift(tri3):
    f = core.CylinderFunction.indicator(tri3, (2,))
    g = oracles.compose_shift(f)  # g(x) = f(sigma x), one level finer
    assert g.level == 2
    for w in core.enumerate_words(tri3, 2):
        assert oracles.coeff(g, w) == (1.0 if w[1] == 2 else 0.0)


def test_coeffs_are_immutable(full2, full2_pd):
    f = core.CylinderFunction.indicator(full2, (0,))
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0
    with pytest.raises(AttributeError):
        f.level = 3
    # a writeable array, or a read-only view of one, is copied
    raw = np.arange(4, dtype=np.complex128)
    view = raw[:]
    view.setflags(write=False)
    for given in (raw, view):
        before = given.copy()
        g = core.CylinderFunction(full2, 2, given)
        raw[0] += 9.0
        assert g.coeffs.tobytes() == before.tobytes()
    # kernel results are read-only, and a frozen array that owns its memory is kept
    g = core.CylinderFunction(full2, 2, raw)
    w = core.CylinderFunction(full2, 3, np.ones(8))
    for out in (operators.apply_S(0, g, full2_pd), operators.apply_S_star(1, g, full2_pd),
                operators.pf_operator(g, full2_pd), core.refine(g, 4),
                ruelle.ruelle_apply(w, g, full2_pd)):
        assert not out.coeffs.flags.writeable and out.coeffs.base is None
    assert np.shares_memory(core.CylinderFunction(full2, 2, g.coeffs).coeffs, g.coeffs)


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
