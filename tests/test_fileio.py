import numpy as np
import pytest

from cantorkit import core, fileio, graphs, sierpinski, spectral, wavelets
from cantorkit.errors import FileFormatError


def test_word_format_small_alphabet():
    assert fileio.format_word((0, 1, 2), 3) == "012"
    assert fileio.format_word((), 3) == "-"
    assert fileio.parse_word("012", 3) == (0, 1, 2)
    assert fileio.parse_word("-", 3) == ()


def test_word_format_wide_alphabet():
    # digits above 9 need a separator; dots are the canonical one
    assert fileio.format_word((3, 11, 0), 12) == "3.11.0"
    assert fileio.parse_word("3.11.0", 12) == (3, 11, 0)
    # dotted form is accepted for small alphabets too
    assert fileio.parse_word("0.1.2", 3) == (0, 1, 2)


def test_parse_word_rejects_garbage():
    with pytest.raises(FileFormatError):
        fileio.parse_word("01x", 2)
    with pytest.raises(FileFormatError):
        fileio.parse_word("0.12.", 13)


def test_matrix_round_trip(tri3):
    text = fileio.format_matrix(tri3)
    rows = fileio.parse_matrix_rows(text)
    assert core.validate_matrix(rows).rows == tri3.rows


def test_matrix_parse_ignores_comments():
    rows = fileio.parse_matrix_rows("# heading\n\n2\n1 1\n# middle\n1 1\n")
    assert tuple(tuple(r) for r in rows) == ((1, 1), (1, 1))


def test_matrix_parse_errors():
    with pytest.raises(FileFormatError):
        fileio.parse_matrix_rows("2\n1 1\n")  # missing a row
    with pytest.raises(FileFormatError):
        fileio.parse_matrix_rows("2\n1 1\n1 1 1\n")  # ragged
    with pytest.raises(FileFormatError):
        fileio.parse_matrix_rows("x\n1\n")


def test_signal_round_trip_exact(tri3):
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
    f = core.CylinderFunction(tri3, 2, coeffs)
    g = fileio.parse_signal(fileio.format_signal(f), tri3)
    assert g.level == 2
    assert np.array_equal(g.coeffs, f.coeffs)  # repr() round-trips floats


def test_signal_requires_every_word(tri3):
    f = core.CylinderFunction.indicator(tri3, (0, 1))
    text = fileio.format_signal(f)
    body = [ln for ln in text.splitlines() if ln]
    with pytest.raises(FileFormatError):
        fileio.parse_signal("\n".join(body[:-1]), tri3)  # one word missing
    with pytest.raises(FileFormatError):
        fileio.parse_signal("\n".join(body + [body[-1]]), tri3)  # duplicated


def test_signal_line_count_is_checked_before_tables(tri3):
    # |W_14| = 275,807 and |W_40| is about 10^15: a header alone builds nothing
    tables = [core._enumerate_words_cached, core.word_index]
    for table in tables:
        table.cache_clear()
    for k in (14, 40):   # level 14 first: a missing guard fails before level 40
        with pytest.raises(FileFormatError, match="lists 0 of the"):
            fileio.parse_signal("3 %d\n" % k, tri3)
        assert [t.cache_info().currsize for t in tables] == [0, 0]


def test_signal_checks_alphabet(tri3, full2):
    f = core.CylinderFunction.indicator(full2, (0,))
    with pytest.raises(FileFormatError):
        fileio.parse_signal(fileio.format_signal(f), tri3)


def test_coefficients_round_trip(tri3_pd):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    rng = np.random.default_rng(11)
    f = core.CylinderFunction(tri3_pd.matrix, 3,
                              rng.normal(size=17).astype(np.complex128))
    wc = wavelets.analyze(f, mw)
    text = fileio.format_coefficients(wc, mw, 3)
    # the a = () keys are the M lines, one per mother, right after the S lines
    kinds = [ln.split()[0] for ln in text.splitlines()[1:]]
    assert kinds == ["S"] * 3 + ["M"] * 4 + ["D"] * 10
    wc2, level = fileio.parse_coefficients(text, tri3_pd.matrix)
    assert level == 3
    assert np.array_equal(wc2.scaling, wc.scaling)
    assert wc2.detail == wc.detail
    assert list(wc2.detail) == wavelets.detail_keys(mw, 3)
    g = wavelets.synthesize(wc2, mw, 3)
    assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-10


def test_coefficients_reject_repeated_keys(tri3_pd):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    f = core.CylinderFunction.indicator(tri3_pd.matrix, (1, 2, 1))
    lines = fileio.format_coefficients(wavelets.analyze(f, mw), mw, 3).splitlines()
    for kind in "SMD":
        line = next(ln for ln in lines if ln.startswith(kind + " "))
        with pytest.raises(FileFormatError):
            fileio.parse_coefficients("\n".join(lines + [line]), tri3_pd.matrix)
    # "D - l r" names the same wavelet as the mother line "M r l"
    with pytest.raises(FileFormatError):
        fileio.parse_coefficients("\n".join(lines + ["D - 1 0 0.0 0.0"]), tri3_pd.matrix)


def test_level_one_coefficients_round_trip(tri3_pd):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    f = core.CylinderFunction(tri3_pd.matrix, 1, np.array([1.0, -2.0 + 0.5j, 0.25]))
    text = fileio.format_coefficients(wavelets.analyze(f, mw), mw, 1)
    assert [ln.split()[0] for ln in text.splitlines()[1:]] == ["S"] * 3
    wc, level = fileio.parse_coefficients(text, tri3_pd.matrix)
    g = wavelets.synthesize(wc, mw, level)
    assert float(np.max(np.abs(g.coeffs - f.coeffs))) <= 1e-12


def test_graph_round_trip():
    g = graphs.directed_graph(2, ((0, 1), (1, 0), (1, 1)))
    text = fileio.format_graph(g)
    g2 = fileio.parse_graph(text)
    assert g2.vertex_count == 2 and g2.edges == g.edges


def test_graph_parse_errors():
    with pytest.raises(FileFormatError):
        fileio.parse_graph("2\n0 1\n")  # header must be 'V E'
    with pytest.raises(FileFormatError):
        fileio.parse_graph("2 2\n0 1\n")  # edge count mismatch


def test_pgm_format(tri3):
    spec = sierpinski.sierpinski_spec(tri3)
    img = sierpinski.render_pgm(spec, 1, 6)
    text = fileio.format_pgm(img)
    lines = text.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "6 6"
    assert lines[2] == "255"
    assert len(lines) == 3 + 6
    flat = [int(v) for row in lines[3:] for v in row.split()]
    assert flat == [int(v) for v in img.ravel()]
