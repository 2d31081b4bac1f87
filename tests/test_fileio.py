import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorkit import core, fileio, graphs, sierpinski, spectral, wavelets
from cantorkit.errors import FileFormatError, IndexOutOfRange
from conftest import TRI3, seeded_strict_matrix, tables_in

# --- the per-line reference: one format_word / parse_word per line --------------


def reference_format_signal(f):
    n = f.matrix.n
    lines = ["%d %d" % (n, f.level)]
    for w, c in zip(core.enumerate_words(f.matrix, f.level), f.coeffs):
        lines.append("%s %s %s" % (fileio.format_word(w, n), repr(float(c.real)),
                                   repr(float(c.imag))))
    return "\n".join(lines) + "\n"


def reference_format_coefficients(wc, mw, level):
    n = mw.matrix.n
    lines = ["%d %d" % (n, level)]
    for i in range(n):
        c = complex(wc.scaling[i])
        lines.append("S %d %s %s" % (i, repr(c.real), repr(c.imag)))
    for (a, l, r) in wavelets.detail_keys(mw, level):
        c = complex(wc.detail.get((a, l, r), 0j))
        key = "D %s %d %d" % (fileio.format_word(a, n), l, r) if a else "M %d %d" % (r, l)
        lines.append("%s %s %s" % (key, repr(c.real), repr(c.imag)))
    return "\n".join(lines) + "\n"


def reference_parse_signal(text, matrix):
    lines = fileio._data_lines(text)
    n, k = (int(t) for t in lines[0].split())
    idx = core.word_index(matrix, k)
    if len(lines) - 1 < len(idx):
        raise FileFormatError("signal lists %d of the %d level-%d words"
                              % (len(lines) - 1, len(idx), k))
    coeffs = np.zeros(len(idx), dtype=np.complex128)
    seen = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise FileFormatError("signal line %r needs 'word re im'" % line)
        w = fileio.parse_word(parts[0], n)
        if w not in idx:
            raise FileFormatError("word %r is not admissible at level %d" % (parts[0], k))
        if w in seen:
            raise FileFormatError("word %r listed twice" % (parts[0],))
        seen.add(w)
        coeffs[idx[w]] = complex(fileio._float(parts[1], line),
                                 fileio._float(parts[2], line))
    return core.CylinderFunction(matrix, k, coeffs)


def reference_parse_coefficients(text, matrix):
    lines = fileio._data_lines(text)
    n, level = (int(t) for t in lines[0].split())
    scaling, detail = {}, {}
    for line in lines[1:]:
        parts = line.split()
        kind = parts[0]
        if kind == "S" and len(parts) == 4:
            layer, key = scaling, int(parts[1])
        elif kind == "M" and len(parts) == 5:
            layer, key = detail, ((), int(parts[2]), int(parts[1]))
        elif kind == "D" and len(parts) == 6:
            layer, key = detail, (fileio.parse_word(parts[1], n), int(parts[2]),
                                  int(parts[3]))
        else:
            raise FileFormatError("bad coefficient line %r" % line)
        if key in layer:
            raise FileFormatError("%s key %r listed twice" % (kind, key))
        layer[key] = complex(fileio._float(parts[-2], line),
                             fileio._float(parts[-1], line))
    scaling = np.array([scaling.get(i, 0j) for i in range(n)], dtype=np.complex128)
    return wavelets.WaveletCoefficients(scaling=scaling, detail=detail), level


def same_outcome(parse, reference, text, matrix):
    """parse and its reference give equal results, or the same error."""
    try:
        want = reference(text, matrix)
    except FileFormatError as exc:
        with pytest.raises(FileFormatError) as got:
            parse(text, matrix)
        assert str(got.value) == str(exc)
        return str(exc)
    got = parse(text, matrix)
    if isinstance(want, core.CylinderFunction):
        assert (got.level, got.coeffs.tobytes()) == (want.level, want.coeffs.tobytes())
    else:
        assert got[1] == want[1]
        assert got[0].scaling.tobytes() == want[0].scaling.tobytes()
        assert got[0].detail == want[0].detail
    return None


def random_signal(matrix, k, seed):
    rng = np.random.default_rng(seed)
    n = core.word_count(matrix, k)
    return core.CylinderFunction(matrix, k, rng.normal(size=n) + 1j * rng.normal(size=n))


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
    # over more than ten letters a token without a dot is one letter
    for d in range(12):
        assert fileio.parse_word(fileio.format_word((d,), 12), 12) == (d,)
    assert fileio.parse_word("10", 11) == (10,)
    assert fileio.parse_word("10", 10) == (1, 0)
    with pytest.raises(FileFormatError):
        fileio.parse_word("12", 12)


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


def test_signal_line_count_is_checked_before_tables():
    # |W_14| = 275,807 and |W_40| is about 10^15: a header alone builds nothing
    tri3 = core.validate_matrix(TRI3)   # a fresh instance: its tables start cold
    for k in (14, 40):   # level 14 first: a missing guard fails before level 40
        with pytest.raises(FileFormatError, match="lists 0 of the"):
            fileio.parse_signal("3 %d\n" % k, tri3)
        assert tables_in(tri3._memo) == set()


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


# strict12 writes a lone letter >= 10 as "10", which parse_word reads as one letter
@pytest.mark.parametrize("name, levels", [
    ("full2", (1, 2, 3, 6)), ("tri3", (1, 2, 3, 6, 9)), ("schottky4", (1, 2, 3, 6)),
    ("strict5", (1, 2, 3, 6)), ("strict12", (1, 2, 3))])
def test_files_match_the_per_line_reference(name, levels, request):
    matrix = request.getfixturevalue(name)
    mw = wavelets.build_mother_wavelets(spectral.perron_data(matrix))
    for k in (0,) + levels:
        f = random_signal(matrix, k, seed=k)
        text = fileio.format_signal(f)
        assert text == reference_format_signal(f)
        assert fileio.parse_signal(text, matrix).coeffs.tobytes() == f.coeffs.tobytes()
        wc = wavelets.analyze(f, mw)
        text = fileio.format_coefficients(wc, mw, max(k, 1))
        assert text == reference_format_coefficients(wc, mw, max(k, 1))
        wc2, level = fileio.parse_coefficients(text, matrix)
        assert (level, wc2.detail) == (max(k, 1), wc.detail)
        assert wc2.scaling.tobytes() == wc.scaling.tobytes()
        g = wavelets.synthesize(wc2, mw, level)
        assert g.coeffs.tobytes() == wavelets.synthesize(wc, mw, level).coeffs.tobytes()


def _spelled(key, n):
    a, l, r = key
    return "D %s %d %d" % (fileio.format_word(a, n), l, r) if a else "M %d %d" % (r, l)


@pytest.mark.parametrize("fresh", [lambda: core.validate_matrix(TRI3),
                                   lambda: seeded_strict_matrix(12, 2026)],
                         ids=["tri3", "strict12"])
def test_key_column_grows_in_any_level_order(fresh):
    matrix = fresh()
    for K in (5, 3, 7):   # one table grows to 5, is read at 3, grows again to 7
        column = fileio._key_column(matrix, K)
        assert column == fileio._key_column(fresh(), K)
        keys = wavelets._key_table(matrix).at(matrix, K)
        assert column[matrix.n:] == [_spelled(key, matrix.n) for key in keys]


def test_sparse_file_reads_lone_wide_letters(strict12):
    mw = wavelets.build_mother_wavelets(spectral.perron_data(strict12))
    wc = wavelets.analyze(random_signal(strict12, 3, seed=5), mw)
    head, *body = fileio.format_coefficients(wc, mw, 3).splitlines()
    kept = [ln for ln in body if ln.startswith("D 10 ")]
    assert len(kept) == sum(strict12.row_sums[r] - 1 for r in strict12.successors[10])
    sparse, level = fileio.parse_coefficients("\n".join([head] + kept) + "\n", strict12)
    assert level == 3
    assert sparse.detail == {key: v for key, v in wc.detail.items() if key[0] == (10,)}


def _edit_lines(text, edit):
    head, *body = text.splitlines()
    return "\n".join([head] + edit(body)) + "\n"


def _respell(line, key):
    return " ".join([key] + line.split()[-2:])


def _dotted(line):
    """"D 012 l r re im" as "D 0.1.2 l r re im"; other lines unchanged."""
    kind, word, *rest = line.split()
    return " ".join([kind, ".".join(word)] + rest) if kind == "D" else line


def _mother_as_d(line):
    """"M r l re im" as "D - l r re im"."""
    _, r, l, re, im = line.split()
    return " ".join(["D", "-", l, r, re, im])


def _first_mother(body):
    return next(ln for ln in body if ln.startswith("M "))


NON_CANONICAL = {
    "shuffled": lambda body: np.random.default_rng(4).permutation(body).tolist(),
    "comments and blanks": lambda body: ["# first", ""] + [ln + " # note" for ln in body],
    "tabs and spaces": lambda body: [" " + "\t ".join(ln.split()) + "\t" for ln in body],
    "dotted words": lambda body: [_dotted(ln) for ln in body],
    "D - for M": lambda body: [_mother_as_d(ln) if ln.startswith("M ") else ln
                               for ln in body],
    # these two keep one line per key, so a repeat leaves some key unlisted
    "one key spelled twice": lambda body: body[:-1] + [_mother_as_d(_first_mother(body))],
    "one line repeated": lambda body: body[:-1] + [body[-2]],
    "bad number": lambda body: body[:5] + [body[5].rsplit(None, 1)[0] + " 1.0x"] + body[6:],
    "sparse": lambda body: body[::3],
}


@pytest.mark.parametrize("variant", sorted(NON_CANONICAL))
def test_non_canonical_coefficient_files_match_the_reference(variant, tri3_pd):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    wc = wavelets.analyze(random_signal(tri3_pd.matrix, 4, seed=9), mw)
    text = _edit_lines(fileio.format_coefficients(wc, mw, 4), NON_CANONICAL[variant])
    error = same_outcome(fileio.parse_coefficients, reference_parse_coefficients,
                         text, tri3_pd.matrix)
    if variant in ("one key spelled twice", "one line repeated"):
        assert "listed twice" in error
    elif variant == "bad number":
        assert error == "bad number '1.0x' in %s" % text.splitlines()[6]
    else:
        assert error is None


@pytest.mark.parametrize("variant", ["shuffled", "comments and blanks", "tabs and spaces",
                                     "one line repeated", "bad number", "sparse"])
def test_non_canonical_signal_files_match_the_reference(variant, tri3):
    text = _edit_lines(fileio.format_signal(random_signal(tri3, 4, seed=9)),
                       NON_CANONICAL[variant])
    error = same_outcome(fileio.parse_signal, reference_parse_signal, text, tri3)
    assert (error is None) == (variant in ("shuffled", "comments and blanks",
                                           "tabs and spaces"))


def test_signal_words_in_other_spellings(tri3):
    text = fileio.format_signal(random_signal(tri3, 3, seed=9))
    dotted = _edit_lines(text, lambda body: [_respell(ln, ".".join(ln.split()[0]))
                                             for ln in body])
    assert same_outcome(fileio.parse_signal, reference_parse_signal, dotted, tri3) is None
    # "0.1.1" is the word 011 again, in place of the last word
    twice = _edit_lines(text, lambda body: body[:-1] + ["0.1.1 2.0 0.0"])
    assert same_outcome(fileio.parse_signal, reference_parse_signal, twice,
                        tri3) == "word '0.1.1' listed twice"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_any_subset_and_order_of_lines_parses_like_the_reference(tri3_pd, data):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    k = data.draw(st.integers(1, 4))
    wc = wavelets.analyze(random_signal(tri3_pd.matrix, k, seed=k), mw)
    head, *body = fileio.format_coefficients(wc, mw, k).splitlines()
    body = data.draw(st.permutations(body))
    body = body[:data.draw(st.integers(0, len(body)))]
    text = "\n".join([head] + body) + "\n"
    same_outcome(fileio.parse_coefficients, reference_parse_coefficients, text,
                 tri3_pd.matrix)


def _refuse(*args):
    raise AssertionError("a canonical file took the slow path")


def _same_coefficients(wc2, wc):
    return (wc2.scaling.tobytes() == wc.scaling.tobytes() and list(wc2.detail) == list(wc.detail)
            and np.array(list(wc2.detail.values())).tobytes()
            == np.array(list(wc.detail.values())).tobytes())


def test_canonical_files_are_read_in_one_pass(monkeypatch, tri3, strict12):
    files = []
    for matrix, levels in ((tri3, (1, 2, 5, 8)), (strict12, (1, 2, 3))):
        mw = wavelets.build_mother_wavelets(spectral.perron_data(matrix))
        for k in levels:
            f = random_signal(matrix, k, seed=k)
            wc = wavelets.analyze(f, mw)
            files.append((matrix, fileio.format_signal(f), f,
                          fileio.format_coefficients(wc, mw, k), wc))
    monkeypatch.setattr(fileio, "_parse_signal_lines", _refuse)
    monkeypatch.setattr(fileio, "_parse_coefficient_lines", _refuse)
    with monkeypatch.context() as in_order:   # no key -> slot map either
        in_order.setattr(fileio, "_slots", _refuse)
        for matrix, signal, f, coefficients, wc in files:
            assert fileio.parse_signal(signal, matrix).coeffs.tobytes() == f.coeffs.tobytes()
            assert _same_coefficients(fileio.parse_coefficients(coefficients, matrix)[0], wc)
    shuffle = NON_CANONICAL["shuffled"]
    for matrix, signal, f, coefficients, wc in files:   # out of order: through the map
        g = fileio.parse_signal(_edit_lines(signal, shuffle), matrix)
        assert g.coeffs.tobytes() == f.coeffs.tobytes()
        wc2, _ = fileio.parse_coefficients(_edit_lines(coefficients, shuffle), matrix)
        assert _same_coefficients(wc2, wc)


def test_sparse_deep_coefficient_file_builds_no_tables():
    tri3 = core.validate_matrix(TRI3)   # a fresh instance: its tables start cold
    for k in (14, 40):   # level 14 first: a missing guard fails before level 40
        wc, level = fileio.parse_coefficients("3 %d\nS 0 1.0 0.0\n" % k, tri3)
        assert (level, wc.scaling.tolist(), wc.detail) == (k, [1, 0, 0], {})
        assert tables_in(tri3._memo) == set()


@pytest.mark.parametrize("token", ["nan", "-inf", "inf", "1e400", "NaN"])
def test_non_finite_numbers_are_refused(token, tri3_pd):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    f = random_signal(tri3_pd.matrix, 3, seed=2)
    for text, parse in ((fileio.format_signal(f), fileio.parse_signal),
                        (fileio.format_coefficients(wavelets.analyze(f, mw), mw, 3),
                         fileio.parse_coefficients),
                        ("3 3\nS 0 0.5 0.5\nS 1 0.5 0.5\n", fileio.parse_coefficients)):
        # canonical signal and coefficient files, then a sparse coefficient file
        lines = text.splitlines()
        lines[2] = lines[2].rsplit(None, 2)[0] + " 0.0 " + token
        with pytest.raises(FileFormatError, match=re.escape(
                "non-finite number %r in %s" % (token, lines[2]))):
            parse("\n".join(lines) + "\n", tri3_pd.matrix)


def test_format_refuses_foreign_keys(tri3_pd):
    mw = wavelets.build_mother_wavelets(tri3_pd)
    wc = wavelets.analyze(random_signal(tri3_pd.matrix, 4, seed=3), mw)
    with pytest.raises(IndexOutOfRange, match="invalid at level 2"):
        fileio.format_coefficients(wc, mw, 2)
    short = wavelets.WaveletCoefficients(scaling=wc.scaling[:2], detail={})
    with pytest.raises(IndexOutOfRange, match="scaling layer has 2 entries"):
        fileio.format_coefficients(short, mw, 4)
    # a sparse set of keys of the level is written with zeros elsewhere
    key = wavelets.detail_keys(mw, 4)[-1]
    sparse = wavelets.WaveletCoefficients(scaling=wc.scaling,
                                          detail={key: wc.detail[key]})
    assert (fileio.format_coefficients(sparse, mw, 4)
            == reference_format_coefficients(sparse, mw, 4))


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
