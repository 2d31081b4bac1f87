import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cantorkit import core, fileio, ruelle, spectral
from cantorkit.cli import run
from conftest import tables_in
import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRI3 = os.path.join(ROOT, "inputs", "tri3.txt")
FULL2 = os.path.join(ROOT, "inputs", "full2.txt")
SCHOTTKY4 = os.path.join(ROOT, "inputs", "schottky4.txt")
SIGNAL3 = os.path.join(ROOT, "inputs", "signal_tri3.txt")
SIGNAL2 = os.path.join(ROOT, "inputs", "signal_full2.txt")
GRAPH3 = os.path.join(ROOT, "inputs", "graph3.txt")
LOOPS3 = os.path.join(ROOT, "inputs", "loops3.txt")


def keys(out):
    d = {}
    for line in out.splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            d[k.strip()] = v.strip()
    return d


def test_perron_output(capsys):
    assert run(["perron", "--matrix", TRI3]) == 0
    d = keys(capsys.readouterr().out)
    assert float(d["radius"]) == pytest.approx(1 + math.sqrt(2), abs=1e-10)
    assert float(d["delta"]) == pytest.approx(
        math.log(1 + math.sqrt(2)) / math.log(3), abs=1e-10)
    assert float(d["p_1"]) == pytest.approx(math.sqrt(2) - 1, abs=1e-9)
    assert int(d["iterations"]) > 0


def test_words_listing(tmp_path, capsys, strict12):
    assert run(["words", "--matrix", TRI3, "--level", "2"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["00", "01", "10", "11", "12", "21", "22"]
    # more than ten letters: dotted words, and "-" for the empty word
    path = tmp_path / "strict12.txt"
    path.write_text(fileio.format_matrix(strict12))
    for k in range(4):
        assert run(["words", "--matrix", str(path), "--level", str(k)]) == 0
        assert capsys.readouterr().out == "".join(
            fileio.format_word(w, 12) + "\n" for w in core.enumerate_words(strict12, k))
    # the refusal names the level asked for, the empty word included
    for k, cap in ((12, 100), (0, 0)):
        assert run(["words", "--matrix", str(path), "--level", str(k), "--cap", str(cap)]) == 66
        assert "level %d is over the cap of %d words" % (k, cap) in capsys.readouterr().err


def test_measure_value(capsys):
    assert run(["measure", "--matrix", TRI3, "--word", "12"]) == 0
    d = keys(capsys.readouterr().out)
    assert float(d["measure"]) == pytest.approx(
        (3 * math.sqrt(2) - 4) / 2, abs=1e-9)


def test_op_and_signal_files(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run(["op", "s", "--matrix", TRI3, "--i", "1",
                "--signal", SIGNAL3, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("3 3\n")
    capsys.readouterr()
    # applying S then S* recovers the signal values on D_1 (here: everything)
    back = tmp_path / "h.txt"
    assert run(["op", "sstar", "--matrix", TRI3, "--i", "1",
                "--signal", str(out), "--out", str(back)]) == 0
    assert run(["op", "word", "--matrix", TRI3, "--word", "1", "--adjoint",
                "--signal", str(out)]) == 0
    assert capsys.readouterr().out == back.read_text()


def test_op_ck_residual_small(capsys):
    assert run(["op", "ck", "--matrix", SCHOTTKY4, "--level", "3"]) == 0
    d = keys(capsys.readouterr().out)
    assert float(d["residual"]) < 1e-11


def test_fixed_point_residual(capsys):
    assert run(["op", "fixed-point", "--matrix", TRI3]) == 0
    out = capsys.readouterr().out
    assert float(keys(out)["pf_residual"]) < 1e-10


def test_fourier_csv(capsys):
    assert run(["fourier", "--matrix", FULL2, "--signal", SIGNAL2,
                "--level", "5", "--tmin", "0", "--tmax", "10",
                "--tcount", "3"]) == 0
    rows = [ln.split(", ") for ln in capsys.readouterr().out.splitlines()]
    assert len(rows) == 3
    assert [r[0] for r in rows] == ["0", "5", "10"]
    # t = 0 gives the total mass ||f||^2 = 1/2 for this two-cylinder signal
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-12)
    assert float(rows[0][2]) == 0.0


def test_kms_outputs(capsys):
    assert run(["kms", "--matrix", TRI3, "--a", "12", "--b", "12"]) == 0
    d = keys(capsys.readouterr().out)
    assert float(d["value_re"]) == pytest.approx(
        (3 * math.sqrt(2) - 4) / 2, abs=1e-9)
    assert run(["kms", "--matrix", TRI3, "--letter", "1"]) == 0
    d = keys(capsys.readouterr().out)
    assert float(d["ratio"]) == pytest.approx(float(d["radius"]), abs=1e-9)


@pytest.mark.parametrize("extra", [["--a", "12", "--b", "10"], ["--a", "12"], ["--b", "10"]])
def test_kms_letter_with_a_word_is_a_usage_error(extra, capsys):
    # --letter would otherwise print the letter ratio and drop --a and --b unread
    assert run(["kms", "--matrix", TRI3, "--letter", "1"] + extra) == 64
    out, err = capsys.readouterr()
    assert out == "" and "not both" in err


def test_wavelet_pipeline(tmp_path, capsys):
    coeffs = tmp_path / "c.txt"
    resynth = tmp_path / "r.txt"
    assert run(["wavelets", "analyze", "--matrix", TRI3, "--signal", SIGNAL3,
                "--out", str(coeffs)]) == 0
    d = keys(capsys.readouterr().out)
    assert float(d["parseval_residual"]) < 1e-9
    assert run(["wavelets", "synthesize", "--matrix", TRI3,
                "--coeffs", str(coeffs), "--compare", SIGNAL3,
                "--out", str(resynth)]) == 0
    d = keys(capsys.readouterr().out)
    assert float(d["max_error"]) < 1e-9


def test_level_one_wavelet_pipeline(tmp_path, capsys):
    # a level-1 system has no wavelets, so the file holds no M lines
    signal = tmp_path / "s1.txt"
    signal.write_text("3 1\n0 1.0 0.0\n1 -2.0 0.5\n2 0.25 0.0\n")
    coeffs = tmp_path / "c1.txt"
    assert run(["wavelets", "analyze", "--matrix", TRI3, "--signal", str(signal),
                "--out", str(coeffs)]) == 0
    assert [ln.split()[0] for ln in coeffs.read_text().splitlines()[1:]] == ["S"] * 3
    capsys.readouterr()
    assert run(["wavelets", "synthesize", "--matrix", TRI3, "--coeffs", str(coeffs),
                "--compare", str(signal), "--out", str(tmp_path / "r1.txt")]) == 0
    assert float(keys(capsys.readouterr().out)["max_error"]) <= 1e-12


def test_synthesize_at_another_level(tmp_path, capsys, tri3):
    # level-4 coefficients give at level 6 the refinement of their level-4 synthesis;
    # at level 3 the keys with |a| = 2 have no place, and level 0 has no system at all
    coeffs, s4, s6 = (tmp_path / name for name in ("c4.txt", "s4.txt", "s6.txt"))
    assert run(["wavelets", "analyze", "--matrix", TRI3, "--signal", SIGNAL3,
                "--level", "4", "--out", str(coeffs)]) == 0
    synthesize = ["wavelets", "synthesize", "--matrix", TRI3, "--coeffs", str(coeffs)]
    assert run(synthesize + ["--out", str(s4)]) == 0
    assert run(synthesize + ["--level", "6", "--out", str(s6)]) == 0
    refined = core.refine(fileio.parse_signal(s4.read_text(), tri3), 6)
    assert s6.read_text() == fileio.format_signal(refined)
    capsys.readouterr()
    for level, message in (("3", "detail key ((0, 0), 1, 0) invalid at level 3"),
                           ("0", "synthesis needs level K >= 1, got 0")):
        assert run(synthesize + ["--level", level]) == 65
        out, err = capsys.readouterr()
        assert out == "" and message in err


def test_ruelle_roundtrip(tmp_path, capsys):
    pot = tmp_path / "w.txt"
    assert run(["ruelle", "trig", "--matrix", TRI3, "--level", "3",
                "--out", str(pot)]) == 0
    d = keys(capsys.readouterr().out)
    assert float(d["pointwise_keane_residual"]) < 1e-12
    assert float(d["cylinder_keane_residual"]) < 1e-12
    assert run(["ruelle", "keane", "--matrix", TRI3,
                "--potential", str(pot)]) == 0
    assert float(keys(capsys.readouterr().out)["residual"]) < 1e-12
    assert run(["ruelle", "apply", "--matrix", TRI3, "--potential", str(pot),
                "--signal", SIGNAL3]) == 0
    assert capsys.readouterr().out.startswith("3 2\n")


def test_walk_layer_mass_line(capsys):
    assert run(["walk", "--matrix", TRI3, "--x", "1", "--depth", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("# layer_mass = ")
    assert float(lines[-1].split(" = ")[1]) == pytest.approx(1.0, abs=1e-12)
    data = [ln.split() for ln in lines if not ln.startswith("#")]
    assert sum(float(v) for _, v in data) == pytest.approx(1.0, abs=1e-12)


def test_walk_lines_are_the_per_word_loop(capsys):
    # per-word P_x and a running total in word order; at depth 10 a pairwise
    # sum of the same values prints 1 instead of 0.999999999999995
    tri3 = core.validate_matrix(fileio.parse_matrix_rows(Path(TRI3).read_text()))
    pot = ruelle.trig_potential(spectral.perron_data(tri3), 1)[1]
    for x, depth in (("1", 10), ("01", 6), ("2", 0)):
        point = oracles.nadic_value(fileio.parse_word(x, 3), 3)
        expect, total = [], 0.0
        for a in core.enumerate_words(tri3.transpose, depth):
            v = oracles.walk_measure(point, pot, a, tri3)
            total += v
            expect.append("%s %.15g" % (fileio.format_word(a, 3), v))
        expect.append("# layer_mass = %.15g" % total)
        assert run(["walk", "--matrix", TRI3, "--x", x, "--depth", str(depth)]) == 0
        assert capsys.readouterr().out.splitlines() == expect


def test_walk_alias_matches(capsys):
    assert run(["ruelle", "walk", "--matrix", TRI3, "--x", "1",
                "--depth", "2"]) == 0
    a = capsys.readouterr().out
    assert run(["walk", "--matrix", TRI3, "--x", "1", "--depth", "2"]) == 0
    assert capsys.readouterr().out == a


def test_sierpinski_info_and_render(tmp_path, capsys):
    assert run(["sierpinski", "info", "--matrix", SCHOTTKY4]) == 0
    d = keys(capsys.readouterr().out)
    assert d["D"] == "12"
    assert float(d["pair_dimension"]) == pytest.approx(
        math.log(12) / (2 * math.log(4)), abs=1e-12)
    pgm = tmp_path / "s.pgm"
    assert run(["sierpinski", "render", "--matrix", SCHOTTKY4, "--depth", "1",
                "--res", "8", "--out", str(pgm)]) == 0
    d = keys(capsys.readouterr().out)
    assert float(d["dark_fraction"]) == pytest.approx(12 / 16, abs=1e-12)
    assert pgm.read_text().startswith("P2\n8 8\n255\n")


def test_graph_commands(capsys):
    assert run(["graph", "perron", "--graph", GRAPH3]) == 0
    d = keys(capsys.readouterr().out)
    assert float(d["radius"]) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-10)
    assert run(["graph", "wavelets", "--graph", LOOPS3, "--v0", "0",
                "--e0", "0", "--depth", "2"]) == 0
    d = keys(capsys.readouterr().out)
    assert d["n_paths"] == "9" and d["n_tuples"] == "4"
    assert float(d["max_gram_residual"]) < 1e-11


def test_graph_wavelets_cap_counts_psi_entries(capsys):
    # depth 7 on loops3: 2,187 paths x 128 level tuples, one line per entry
    depth7 = ["graph", "wavelets", "--graph", LOOPS3, "--v0", "0", "--e0", "0",
              "--depth", "7", "--cap"]
    assert run(depth7 + ["279935"]) == 66
    out, err = capsys.readouterr()
    assert out == "" and "paths of length 7 are over the cap of 279935" in err
    assert run(depth7 + ["279936"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2187 * 128 + 4
    assert lines[-4:-2] == ["n_paths = 2187", "n_tuples = 128"]


def test_fourier_cap_counts_t_values(capsys):
    fourier = ["fourier", "--matrix", FULL2, "--signal", SIGNAL2, "--level", "2",
               "--tmin", "0", "--tmax", "1", "--tcount"]
    assert run(fourier + ["11", "--cap", "10"]) == 66
    assert "11 t values are over the cap of 10" in capsys.readouterr().err
    assert run(fourier + ["10", "--cap", "10"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10


# --- failure modes ----------------------------------------------------------


def test_exit_codes(tmp_path, capsys):
    assert run(["nonsense"]) == 64
    assert run(["perron"]) == 64
    assert run(["perron", "--matrix", str(tmp_path / "absent.txt")]) == 65
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 1\n1 0\n")
    assert run(["perron", "--matrix", str(bad)]) == 65
    assert run(["words", "--matrix", SCHOTTKY4, "--level", "12",
                "--cap", "100"]) == 66
    assert run(["perron", "--matrix", TRI3, "--tol", "1e-300"]) == 70
    assert run(["measure", "--matrix", TRI3, "--word", "02"]) == 65
    fourier = ["fourier", "--matrix", FULL2, "--signal", SIGNAL2, "--level", "2",
               "--tmin", "0", "--tmax", "1", "--tcount"]
    assert run(fourier + ["-1"]) == 64
    assert run(fourier + ["x"]) == 64
    err = capsys.readouterr().err
    assert "--tcount: -1 is negative" in err
    assert "--tcount: invalid int value: 'x'" in err


def test_non_finite_numbers_exit_64(capsys):
    fourier = ["fourier", "--matrix", FULL2, "--signal", SIGNAL2, "--level", "2",
               "--tcount", "3"]
    walk = ["walk", "--matrix", TRI3, "--x", "1", "--depth", "2"]
    bad = [["perron", "--matrix", TRI3, "--tol", tol] for tol in ("nan", "inf", "0")]
    bad += [["perron", "--matrix", TRI3, "--tol=-1e-3"],
            fourier + ["--tmin", "nan", "--tmax", "1"],
            fourier + ["--tmin", "0", "--tmax", "inf"],
            fourier + ["--tmin", "x", "--tmax", "1"],
            walk + ["--constant", "nan"], walk + ["--constant=-inf"]]
    for argv in bad:
        assert run(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("is not finite") == 6
    assert captured.err.count("tolerance must be finite and > 0") == 2
    assert "argument --tmin: invalid float value: 'x'" in captured.err
    assert run(walk + ["--constant", "-0.5"]) == 65
    assert "constant potential must be finite and >= 0" in capsys.readouterr().err


def test_measure_reads_a_lone_wide_letter(strict12, tmp_path, capsys):
    path = tmp_path / "strict12.txt"
    path.write_text(fileio.format_matrix(strict12))
    assert run(["measure", "--matrix", str(path), "--word", "10"]) == 0
    measure = float(keys(capsys.readouterr().out)["measure"])
    pd = spectral.perron_data(strict12)
    assert measure == float("%.15g" % spectral.cylinder_measure(pd, (10,)))
    # A[1, 0] = 0, so the digits 1, 0 are no word of strict12
    assert run(["measure", "--matrix", str(path), "--word", "1.0"]) == 65


def test_ck_and_trig_are_capped(tmp_path, capsys, new_memos):
    header_only = tmp_path / "header14.txt"
    header_only.write_text("3 14\nS 0 1.0 0.0\n")
    # the verbs read their level-2 signal before they refuse: what that builds
    tri3 = core.validate_matrix(fileio.parse_matrix_rows(Path(TRI3).read_text()))
    fileio.parse_signal(Path(SIGNAL3).read_text(), tri3)
    signal_tables = tables_in(tri3._memo)
    assert signal_tables
    del new_memos[:]
    assert run(["op", "ck", "--matrix", TRI3, "--level", "40"]) == 66
    assert run(["ruelle", "trig", "--matrix", TRI3, "--level", "40"]) == 66
    assert run(["fourier", "--matrix", TRI3, "--signal", SIGNAL3, "--level", "40",
                "--tmin", "0", "--tmax", "1", "--tcount", "2"]) == 66
    assert run(["wavelets", "analyze", "--matrix", TRI3, "--signal", SIGNAL3,
                "--level", "40"]) == 66
    # S_a raises the level-2 signal by |a| = 25
    assert run(["op", "word", "--matrix", TRI3, "--word", "1" * 25,
                "--signal", SIGNAL3]) == 66
    # the file header asks for level 14, 275,807 words
    assert run(["wavelets", "synthesize", "--matrix", TRI3,
                "--coeffs", str(header_only)]) == 66
    assert len(new_memos) >= 6   # one matrix per command, and any transpose
    assert all(tables_in(memo) <= signal_tables for memo in new_memos)
    assert capsys.readouterr().err.count("over the cap") == 6
    # K = 4 builds the level-5 tables, 99 words
    assert run(["op", "ck", "--matrix", TRI3, "--level", "4", "--cap", "98"]) == 66
    assert run(["op", "ck", "--matrix", TRI3, "--level", "4", "--cap", "99"]) == 0
    # with --out, trig K = 4 also samples W at level 5
    trig4 = ["ruelle", "trig", "--matrix", TRI3, "--level", "4", "--cap"]
    assert run(trig4 + ["41"]) == 0
    assert run(trig4 + ["98", "--out", str(tmp_path / "trig4.txt")]) == 66
    assert run(trig4 + ["99", "--out", str(tmp_path / "trig4.txt")]) == 0
    fourier5 = ["fourier", "--matrix", TRI3, "--signal", SIGNAL3, "--level", "5",
                "--tmin", "0", "--tmax", "1", "--tcount", "2", "--cap"]
    assert run(fourier5 + ["98"]) == 66
    assert run(fourier5 + ["99"]) == 0
    # a forward word of length 1 takes the level-2 signal to level 3, 17 words
    word1 = ["op", "word", "--matrix", TRI3, "--word", "1", "--signal", SIGNAL3, "--cap"]
    assert run(word1 + ["16"]) == 66
    assert run(word1 + ["17"]) == 0
    assert run(word1 + ["16", "--adjoint"]) == 0
    capsys.readouterr()


def test_signal_header_alone_builds_no_tables(tmp_path, capsys, new_memos):
    for k in (14, 40):   # level 14 first: a missing guard fails before level 40
        header_only = tmp_path / ("signal%d.txt" % k)
        header_only.write_text("3 %d\n" % k)
        assert run(["op", "pf", "--matrix", TRI3, "--signal", str(header_only)]) == 65
        assert new_memos and not any(map(tables_in, new_memos))
    assert capsys.readouterr().err.count("lists 0 of the") == 2


def test_non_finite_input_exits_65(tmp_path, capsys):
    signal = tmp_path / "nan.txt"
    signal.write_text(Path(SIGNAL3).read_text().replace("2.0 0.0", "nan 0.0", 1))
    assert run(["op", "pf", "--matrix", TRI3, "--signal", str(signal)]) == 65
    coeffs = tmp_path / "c.txt"
    coeffs.write_text("3 2\nS 0 1e400 0.0\n")
    assert run(["wavelets", "synthesize", "--matrix", TRI3,
                "--coeffs", str(coeffs)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite number 'nan' in 00 nan 0.0" in captured.err
    assert "non-finite number '1e400' in S 0 1e400 0.0" in captured.err


def test_negative_levels_exit_65(capsys):
    assert run(["words", "--matrix", TRI3, "--level", "-1"]) == 65
    assert run(["fourier", "--matrix", FULL2, "--signal", SIGNAL2,
                "--level", "-2", "--tmin", "0", "--tmax", "1",
                "--tcount", "2"]) == 65
    assert run(["walk", "--matrix", TRI3, "--x", "1", "--depth", "-1"]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("level") == 3


def test_lax_flag_for_nonstrict_matrix(tmp_path, capsys):
    cyc = tmp_path / "cycle.txt"
    cyc.write_text("2\n0 1\n1 0\n")
    assert run(["perron", "--matrix", str(cyc)]) == 65
    assert run(["perron", "--matrix", str(cyc), "--lax"]) == 0
    d = keys(capsys.readouterr().out)
    assert float(d["radius"]) == pytest.approx(1.0, abs=1e-10)


def test_one_letter_and_two_cycle_run_every_lax_verb(tmp_path, capsys):
    # N = 1 has no dimension exponent to divide out: both are reported as 0
    for name, text in (("one", "1\n1\n"), ("cycle", "2\n0 1\n1 0\n")):
        path = tmp_path / ("%s.txt" % name)
        path.write_text(text)
        for argv in (["sierpinski", "info"], ["sierpinski", "cells", "--depth", "2"],
                     ["sierpinski", "render", "--depth", "2", "--res", "8"],
                     ["sierpinski", "induced"], ["perron"], ["measure", "--word", "0"],
                     ["words", "--level", "3"]):
            assert run(argv + ["--matrix", str(path), "--lax"]) == 0, (name, argv)
        d = keys(capsys.readouterr().out)
        if name == "one":
            assert d["pair_dimension"] == d["similarity_dimension"] == "0"


def test_negative_cap_is_a_usage_error(capsys):
    assert run(["words", "--matrix", TRI3, "--level", "0", "--cap", "-1"]) == 64
    assert "--cap: -1 is negative" in capsys.readouterr().err


def test_subprocess_determinism():
    cmd = [sys.executable, "-m", "cantorkit", "wavelets", "build",
           "--matrix", TRI3]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == 0
    assert a.stdout == b.stdout and a.stdout


def test_huge_levels_are_refused_at_once(tmp_path, capsys):
    header_only = tmp_path / "header20000.txt"
    header_only.write_text("3 20000\n")
    huge = [["words", "--matrix", TRI3, "--level", "20000"],
            ["words", "--matrix", TRI3, "--level", "1000000"],
            ["op", "ck", "--matrix", TRI3, "--level", "20000"],
            ["fourier", "--matrix", TRI3, "--signal", SIGNAL3, "--level", "20000",
             "--tmin", "0", "--tmax", "1", "--tcount", "2"],
            ["walk", "--matrix", TRI3, "--x", "1", "--depth", "30000"],
            ["sierpinski", "cells", "--matrix", TRI3, "--depth", "20000"],
            ["graph", "wavelets", "--graph", LOOPS3, "--v0", "0", "--e0", "0",
             "--depth", "20000"],
            ["graph", "wavelets", "--graph", LOOPS3, "--v0", "0", "--e0", "0",
             "--depth", "10"],
            ["fourier", "--matrix", FULL2, "--signal", SIGNAL2, "--level", "2",
             "--tmin", "0", "--tmax", "1", "--tcount", "1000000000000"],
            ["wavelets", "synthesize", "--matrix", TRI3, "--coeffs", str(header_only)]]
    for argv in huge:
        start = time.perf_counter()
        assert run(argv) == 66
        assert time.perf_counter() - start < 1.0, argv
    assert capsys.readouterr().err.count("over the cap") == len(huge)
    # a signal file holding only such a header fails its line count, counted no further
    for k in (20000, 1000000):
        header_only.write_text("3 %d\n" % k)
        start = time.perf_counter()
        assert run(["op", "pf", "--matrix", TRI3, "--signal", str(header_only)]) == 65
        assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.count("lists 0 of the over ") == 2


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_refusals_precede_the_tables_in_a_fresh_process(tmp_path):
    # a fresh process has no warm tables, so a refusal that came after a build
    # would run out of the 1 GiB address space and end in a traceback
    pytest.importorskip("resource")
    header_only = tmp_path / "header14.txt"
    header_only.write_text("3 14\nS 0 1.0 0.0\n")
    over_cap = [["op", "ck", "--matrix", TRI3, "--level", "40"],
                ["ruelle", "trig", "--matrix", TRI3, "--level", "40"],
                ["fourier", "--matrix", TRI3, "--signal", SIGNAL3, "--level", "40",
                 "--tmin", "0", "--tmax", "1", "--tcount", "2"],
                ["wavelets", "analyze", "--matrix", TRI3, "--signal", SIGNAL3, "--level", "40"],
                ["op", "word", "--matrix", TRI3, "--word", "1" * 25, "--signal", SIGNAL3],
                ["wavelets", "synthesize", "--matrix", TRI3, "--coeffs", str(header_only)],
                ["graph", "wavelets", "--graph", LOOPS3, "--v0", "0", "--e0", "0",
                 "--depth", "10"],
                ["fourier", "--matrix", FULL2, "--signal", SIGNAL2, "--level", "2",
                 "--tmin", "0", "--tmax", "1", "--tcount", "1000000000000"]]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.join(ROOT, "src"))
    for argv in over_cap:
        proc = subprocess.run([sys.executable, "-m", "cantorkit"] + argv, capture_output=True,
                              text=True, env=env, preexec_fn=_limit_address_space, timeout=120)
        assert proc.returncode == 66, (argv, proc.stderr[-500:])
        assert "over the cap" in proc.stderr


# one command per verb group, and the modules its process loads beyond the package,
# cli, core, errors, fileio and spectral, which the parser needs
VERB_MODULES = [
    (["perron", "--matrix", TRI3], ()),
    (["words", "--matrix", TRI3, "--level", "2"], ()),
    (["measure", "--matrix", TRI3, "--word", "12"], ()),
    (["op", "s", "--matrix", TRI3, "--i", "1", "--signal", SIGNAL3], ("operators",)),
    (["fourier", "--matrix", FULL2, "--signal", SIGNAL2, "--level", "2",
      "--tmin", "0", "--tmax", "1", "--tcount", "2"], ("operators",)),
    (["kms", "--matrix", TRI3, "--letter", "1"], ("operators",)),
    # in the test's working directory: analyze writes the file that synthesize reads
    (["wavelets", "analyze", "--matrix", TRI3, "--signal", SIGNAL3, "--out", "c3.txt"],
     ("wavelets",)),
    (["wavelets", "synthesize", "--matrix", TRI3, "--coeffs", "c3.txt"], ("wavelets",)),
    (["ruelle", "trig", "--matrix", TRI3, "--level", "2"], ("ruelle",)),
    (["walk", "--matrix", TRI3, "--x", "1", "--depth", "2"], ("ruelle",)),
    (["sierpinski", "info", "--matrix", SCHOTTKY4], ("sierpinski",)),
    (["graph", "perron", "--graph", GRAPH3], ("graphs", "wavelets")),
    (["graph", "wavelets", "--graph", LOOPS3, "--v0", "0", "--e0", "0", "--depth", "2"],
     ("graphs", "wavelets")),
]


# a fresh process lists its modules on stderr's last line, after `import cantorkit`
# or after `python -m cantorkit` run as runpy runs it
_LIST = "print(*sorted(sys.modules), file=sys.stderr)"
_IMPORT = "import sys, cantorkit\n" + _LIST
_RUN = ("import runpy, sys\ntry:\n"
        "    runpy.run_module('cantorkit', run_name='__main__', alter_sys=True)\n"
        "finally:\n    " + _LIST)


def _loaded(code, argv, cwd):
    """(exit code, stderr before its last line, the modules listed on that line) of a
    fresh `python -c code argv`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code] + argv, capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)
    *err, modules = proc.stderr.splitlines() or [""]
    return proc.returncode, err, set(modules.split())


def test_each_verb_loads_only_its_own_modules(tmp_path):
    # in-process tests run with every module loaded; a fresh process shows an import
    # cycle that depends on import order, and every module a verb does not need
    base = {"cantorkit", "cantorkit.cli", "cantorkit.core", "cantorkit.errors",
            "cantorkit.fileio", "cantorkit.spectral"}
    for argv, own in VERB_MODULES:
        code, err, modules = _loaded(_RUN, argv, tmp_path)
        assert (code, err) == (0, []), argv
        assert {m for m in modules if m.startswith("cantorkit")} == base | {
            "cantorkit." + m for m in own}, argv
    code, err, modules = _loaded(_IMPORT, [], tmp_path)
    assert (code, err) == (0, [])
    assert {m for m in modules if m.startswith(("cantorkit", "numpy"))} == {"cantorkit"}
