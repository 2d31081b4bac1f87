import math

import numpy as np
import pytest

from cantorkit import cli, core, fileio, operators, sierpinski, spectral
from cantorkit.errors import CapExceeded, WordTooShort
import oracles


def test_pair_counts(full2, tri3, schottky4):
    assert sierpinski.sierpinski_spec(full2).D == 4
    assert sierpinski.sierpinski_spec(tri3).D == 7
    assert sierpinski.sierpinski_spec(schottky4).D == 12


def test_dimensions(tri3):
    spec = sierpinski.sierpinski_spec(tri3)
    assert spec.pair_dimension == pytest.approx(math.log(7) / (2 * math.log(3)))
    assert spec.similarity_dimension == pytest.approx(math.log(7) / math.log(3))
    assert spec.similarity_dimension == pytest.approx(2 * spec.pair_dimension)


def test_letter_map_row_major(tri3):
    spec = sierpinski.sierpinski_spec(tri3)
    assert spec.letter_map == ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2),
                               (2, 1), (2, 2))
    assert oracles.pair_index(spec)[(1, 2)] == 4


def test_cell_counts_and_validity(tri3):
    spec = sierpinski.sierpinski_spec(tri3)
    for depth in (1, 2, 3, 4):
        cs = sierpinski.cells(spec, depth)
        assert len(cs) == spec.D ** depth
        assert all(sierpinski.cell_is_valid(spec, c) for c in cs)
        assert len({(tuple(x), tuple(y)) for x, y in cs}) == len(cs)


def test_cells_are_the_product_enumeration(full2, tri3, schottky4, strict12, tmp_path, capsys):
    # the digit-table cells, and the verb's two spelled columns, against the tuple loop;
    # strict12 (D = 57) spells its words with dots
    cycle = core.validate_matrix([[0, 1], [1, 0]], strict=False)
    path = tmp_path / "m.txt"
    for m, deepest in ((cycle, 4), (full2, 4), (tri3, 4), (schottky4, 4), (strict12, 2)):
        spec = sierpinski.sierpinski_spec(m)
        path.write_text(fileio.format_matrix(m))
        for depth in range(1, deepest + 1):
            expect = oracles.sierpinski_cells(spec, depth)
            cs = sierpinski.cells(spec, depth)
            assert cs.shape == (spec.D ** depth, 2, depth)
            assert [(tuple(x), tuple(y)) for x, y in cs.tolist()] == expect
            assert cli.run(["sierpinski", "cells", "--matrix", str(path), "--lax",
                            "--depth", str(depth)]) == 0
            assert capsys.readouterr().out == "".join(
                "%s %s\n" % (fileio.format_word(x, m.n), fileio.format_word(y, m.n))
                for x, y in expect)


def test_cells_cap_and_depth_check(schottky4):
    spec = sierpinski.sierpinski_spec(schottky4)
    with pytest.raises(CapExceeded), core.budget(10000):
        sierpinski.cells(spec, 6)
    with pytest.raises(WordTooShort):
        sierpinski.cells(spec, 0)


def test_cell_is_valid_rejects(tri3):
    spec = sierpinski.sierpinski_spec(tri3)
    assert not sierpinski.cell_is_valid(spec, ((0,), (2,)))
    assert not sierpinski.cell_is_valid(spec, ((0, 1), (1,)))


def test_induced_matrix_row_sums(tri3, schottky4):
    # row of pair (i,j) has d_j ones: the next pair must start with j
    for m in (tri3, schottky4):
        spec = sierpinski.sierpinski_spec(m)
        ind = sierpinski.induced_matrix(spec)
        assert ind.n == spec.D
        for t, (_, j) in enumerate(spec.letter_map):
            assert sum(ind.rows[t]) == m.row_sums[j]


def test_induced_matrix_entries(full2):
    spec = sierpinski.sierpinski_spec(full2)
    ind = sierpinski.induced_matrix(spec)
    # pairs in row-major order: 00, 01, 10, 11; (i,j) -> (l,k) iff l = j
    assert ind.rows == ((1, 1, 0, 0), (0, 0, 1, 1),
                        (1, 1, 0, 0), (0, 0, 1, 1))


def test_induced_matrix_spectral_radius(full2):
    # the induced shift has the same entropy as pairs of the base shift:
    # radius 2 for the full 2x2 matrix
    spec = sierpinski.sierpinski_spec(full2)
    ind = sierpinski.induced_matrix(spec)
    pd = spectral.perron_data(ind)
    assert pd.radius == pytest.approx(2.0, abs=1e-10)


def test_embed_diagonal_words(tri3):
    spec = sierpinski.sierpinski_spec(tri3)
    for w in core.enumerate_words(tri3, 6):
        cell = sierpinski.embed_xi(w)
        assert sierpinski.cell_is_valid(spec, cell)
    # injectivity on W_6
    images = {sierpinski.embed_xi(w) for w in core.enumerate_words(tri3, 6)}
    assert len(images) == core.word_count(tri3, 6)
    with pytest.raises(WordTooShort):
        sierpinski.embed_xi((0,))


def test_render_exact_dark_fraction(tri3, schottky4):
    for m in (tri3, schottky4):
        spec = sierpinski.sierpinski_spec(m)
        n = m.n
        for depth in (1, 2):
            res = n ** depth * 2  # multiple of N^depth: every pixel interior
            img = sierpinski.render_pgm(spec, depth, res)
            assert img.shape == (res, res)
            frac = float((img == 0).mean())
            assert frac == pytest.approx((spec.D / n ** 2) ** depth, abs=1e-12)


def test_render_orientation(full2):
    # mask the pair (0, 1) away: x in [0, 1/2), y in [1/2, 1) goes white,
    # which is the top-left quadrant of the image
    m = core.validate_matrix([[1, 0], [1, 1]], strict=False)
    spec = sierpinski.sierpinski_spec(m)
    img = sierpinski.render_pgm(spec, 1, 4)
    assert (img[:2, :2] == 255).all()   # top-left: x small, y large
    assert (img[2:, :2] == 0).all()     # bottom-left: pair (0,0) kept
    assert (img[:2, 2:] == 0).all()     # top-right: pair (1,1) kept
    assert (img[2:, 2:] == 0).all()     # bottom-right: pair (1,0) kept


def test_cells_cap_boundary_at_every_alphabet_size(full2, tri3, schottky4):
    cycle = core.validate_matrix([[0, 1], [1, 0]], strict=False)   # D = 2 pairs
    for m in (cycle, full2, tri3, schottky4):
        spec = sierpinski.sierpinski_spec(m)
        for depth in range(1, 6):
            size = spec.D ** depth
            with core.budget(size):
                assert len(sierpinski.cells(spec, depth)) == size
            with pytest.raises(CapExceeded, match="over the cap of %d cells" % (size - 1)), \
                    core.budget(size - 1):
                sierpinski.cells(spec, depth)


def test_render_cap(tri3):
    spec = sierpinski.sierpinski_spec(tri3)
    with core.budget(200000):
        with pytest.raises(CapExceeded):
            sierpinski.render_pgm(spec, 3, 1000)
        # the documented reference size passes under the default cap
        img = sierpinski.render_pgm(spec, 3, 243)
    assert img.shape == (243, 243)


def test_render_reads_exact_digits_at_any_depth(tri3, full2):
    # 3^646 overflows a float; the pixel centers' digits stay exact integers
    spec = sierpinski.sierpinski_spec(tri3)
    deep = sierpinski.render_pgm(spec, 100000, 1)
    assert deep.tolist() == [[0]]   # 1/2 = 0.111... in base 3, and A[1, 1] = 1
    assert (sierpinski.render_pgm(spec, 2000, 9) == sierpinski.render_pgm(spec, 60, 9)).all()
    # the full shift keeps every cell: no depth leaves a pixel light
    assert (sierpinski.render_pgm(sierpinski.sierpinski_spec(full2), 5000, 6) == 0).all()


def test_cuntz_rep_matrix(tri3):
    spec = sierpinski.sierpinski_spec(tri3)
    m = oracles.sierpinski_cuntz_rep(spec)
    assert m.n == 7
    assert all(all(row) for row in m.rows)
    pd = spectral.perron_data(m)
    assert pd.radius == pytest.approx(7.0, abs=1e-10)
    np.testing.assert_allclose(pd.p, [1 / 7] * 7, atol=1e-10)
    assert operators.ck_relations_residual(pd, 2) <= 1e-11


def test_render_budget_boundary(tri3):
    spec = sierpinski.sierpinski_spec(tri3)
    with core.budget(3 * 20 * 20):
        assert sierpinski.render_pgm(spec, 3, 20).shape == (20, 20)
    with pytest.raises(CapExceeded, match=r"res\^2 \* depth is over the cap of 1199"), \
            core.budget(3 * 20 * 20 - 1):
        sierpinski.render_pgm(spec, 3, 20)
    # outside a budget the library has no limit
    assert sierpinski.render_pgm(spec, 1, 500).shape == (500, 500)
