"""Derandomized fuzzing of the command table.

Every row of VERBS is driven with drawn flags on the bundled strict matrices
and graphs, and on three matrices written to a temporary directory: the lax
2-cycle and the lax 1x1 matrix (drawn for the verbs that take `--lax`, and
given it) and a strict 12-letter matrix, whose words are written with dots.
The flags are levels and depths from -3 to 100,000, `--tcount` and `--res`
up to 10^12, a `--cap` from -1 to the default (so no example builds a huge
table for real), a `--tol` from 1e-300 (no convergence) to 0 and nan (usage
errors), and small signal and coefficient files with mutated lines.
Whatever the input, `run` returns a documented exit code and no exception
escapes; `hypothesis.event` names each example's matrix and exit code.

Graph files are drawn too, with V <= 4 and E <= 8, sinks (exit 65) and parallel
edges included, and run through `graph perron` and `graph wavelets` with drawn
base vertex and edge, depth and `--cap`: each run exits 0, 65 or 66.

Beside the draws, every 0-1 matrix with no zero row and N <= 3, one per class
up to relabelling the letters, runs through every matrix verb with its required
flags at level or depth 2, and with `--lax` where the verb takes it.
"""

import functools
import itertools
import os
from collections import Counter

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from cantorkit import cli, core, fileio, spectral, wavelets
from cantorkit.cli import VERBS, run
from cantorkit.errors import CantorError
from conftest import seeded_strict_matrix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUNDLED = ("full2", "tri3", "schottky4")
WRITTEN = {"two-cycle": core.validate_matrix([[0, 1], [1, 0]], strict=False),
           "one-letter": core.validate_matrix([[1]], strict=False),
           "strict12": seeded_strict_matrix(12, 2026)}
MATRICES = BUNDLED + tuple(WRITTEN)
STRICT = BUNDLED + ("strict12",)
GRAPHS = [os.path.join(ROOT, "inputs", name) for name in ("graph3.txt", "loops3.txt")]
EXIT_CODES = {0, 64, 65, 66, 70}

_texts = {}


def _matrix_file(name, tmp):
    """The path of matrix `name`: a bundled input, or a file written under tmp."""
    if name in BUNDLED:
        return os.path.join(ROOT, "inputs", name + ".txt")
    path = tmp / ("%s.txt" % name)
    if not path.exists():
        path.write_text(fileio.format_matrix(WRITTEN[name]))
    return str(path)


def _base_texts(name, level):
    """A valid (signal, coefficient) text pair over matrix `name`."""
    if (name, level) not in _texts:
        if name in BUNDLED:
            with open(_matrix_file(name, None)) as fh:
                matrix = core.validate_matrix(fileio.parse_matrix_rows(fh.read()))
        else:
            matrix = WRITTEN[name]
        f = core.CylinderFunction(matrix, level, 1.0 + core.value_array(matrix, level))
        mw = wavelets.build_mother_wavelets(spectral.perron_data(matrix))
        _texts[name, level] = (fileio.format_signal(f), fileio.format_coefficients(
            wavelets.analyze(f, mw), mw, max(level, 1)))
    return _texts[name, level]


NUMBERS = st.sampled_from(["-1", "0", "0.5", "2", "1e400", "nan", "x"])


@st.composite
def mutated(draw, text):
    """text with up to three of its lines dropped, repeated, swapped or garbled."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "swap", "token", "level", "cut"]))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(NUMBERS)
            lines[i] = " ".join(tokens)
        elif op == "level":
            lines[0] = "%s %d" % (lines[0].split()[0], draw(st.integers(-3, 100000)))
        else:
            lines = lines[:i]
        if not lines:
            break
    return "\n".join(lines) + "\n"


def _flag_value(draw, flag, matrix, tmp):
    """A drawn value for one of a verb's own flags."""
    if flag in ("--level", "--depth"):
        return str(draw(st.integers(-3, 100000)))
    if flag in ("--i", "--letter", "--v0", "--e0"):
        return str(draw(st.integers(-1, 4)))
    if flag in ("--word", "--a", "--b", "--x"):
        return draw(st.text("0123.-", max_size=4))
    if flag in ("--tmin", "--tmax", "--constant"):
        return draw(NUMBERS)
    if flag in ("--tcount", "--res"):
        return str(draw(st.integers(-1, 40) | st.sampled_from((10 ** 6, 10 ** 9, 10 ** 12))))
    if flag == "--out":
        return str(tmp / "out.txt")
    signal, coeffs = _base_texts(matrix, draw(st.integers(0, 3)))
    text = draw(mutated(coeffs if flag == "--coeffs" else signal))
    path = tmp / ("%s.txt" % flag.strip("-"))
    path.write_text(text)
    return str(path)


@st.composite
def commands(draw, tmp):
    # a lax matrix goes to a verb that takes --lax, and always with it
    matrix = draw(st.sampled_from(MATRICES))
    lax = matrix not in STRICT
    verb = draw(st.sampled_from([v for v in VERBS if v.reads == "lax"] if lax else VERBS))
    argv = list(verb.path)
    if verb.reads == "graph":
        argv.append("--graph=" + draw(st.sampled_from(GRAPHS)))
    else:
        event("matrix: %s" % matrix)
        argv.append("--matrix=" + _matrix_file(matrix, tmp))
        if verb.reads == "lax" and (lax or draw(st.booleans())):
            argv.append("--lax")
    if verb.spectral and draw(st.integers(0, 9)) == 0:
        argv.append("--tol=" + draw(st.sampled_from(["1e-300", "1e-12", "0", "nan"])))
    cap = draw(st.none() | st.just(-1) | st.integers(0, core.DEFAULT_CAP))
    if verb.cap and cap is not None:
        argv.append("--cap=%d" % cap)
    for flag, kw in verb.flags:
        # required flags are mostly given, optional ones half the time
        if not draw(st.integers(0, 9) if kw.get("required") else st.booleans()):
            continue
        if kw.get("action") == "store_true":
            argv.append(flag)
        else:
            argv.append("%s=%s" % (flag, _flag_value(draw, flag, matrix, tmp)))
    return argv


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_ends_in_a_documented_exit_code(tmp_path, capsys, data):
    argv = data.draw(commands(tmp_path))
    code = run(argv)
    capsys.readouterr()
    event("exit %d" % code)
    assert code in EXIT_CODES, argv


@st.composite
def graph_commands(draw, tmp):
    """`graph perron` or `graph wavelets` on a drawn file with V <= 4 and E <= 8: sinks and
    repeated (parallel) edges come as drawn, and half the files lead a cycle through every
    vertex, so that they have Perron data and wavelets."""
    v = draw(st.integers(1, 4))
    vertex = st.integers(0, v - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=8))
    if draw(st.booleans()):
        edges = [(i, (i + 1) % v) for i in range(v)] + edges[:8 - v]
    event("graph %s" % ("with a sink" if len({s for s, _ in edges}) < v else "no sink"))
    event("graph %s" % ("parallel edges" if len(set(edges)) < len(edges) else "simple"))
    path = tmp / "graph.txt"
    path.write_text("%d %d\n" % (v, len(edges)) + "".join("%d %d\n" % e for e in edges))
    argv = ["graph", draw(st.sampled_from(["perron", "wavelets"])), "--graph", str(path)]
    if argv[1] == "wavelets":
        e0 = draw(st.integers(-1, len(edges)))
        into = st.just(edges[e0][1]) if 0 <= e0 < len(edges) else st.nothing()
        argv += ["--v0", str(draw(into | st.integers(-1, v))), "--e0", str(e0),
                 "--depth", str(draw(st.integers(0, 4)))]
        cap = draw(st.none() | st.integers(0, 30) | st.integers(0, core.DEFAULT_CAP))
        argv += [] if cap is None else ["--cap", str(cap)]
    return argv


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_drawn_graph_files_end_in_a_documented_exit_code(tmp_path, capsys, data):
    argv = data.draw(graph_commands(tmp_path))
    code = run(argv)
    capsys.readouterr()
    event("exit %d" % code)
    assert code in {0, 65, 66}, argv


def small_matrix_classes():
    """The least relabelling of each 0-1 grid with no zero row and N <= 3."""
    classes = set()
    for n in (1, 2, 3):
        rows = [row for row in itertools.product((0, 1), repeat=n) if any(row)]
        for grid in itertools.product(rows, repeat=n):
            classes.add(min(tuple(tuple(grid[i][j] for j in p) for i in p)
                            for p in itertools.permutations(range(n))))
    return sorted(classes)


SMALL_FLAGS = {"--level": "2", "--depth": "2", "--i": "0", "--word": "0", "--x": "0",
               "--tmin": "-1", "--tmax": "1", "--tcount": "3", "--res": "8"}


def _small_files(grid, tmp):
    """The matrix file of grid and, where it is strict, level-2 signal and coefficient
    files over it (a verb without --lax refuses any other matrix before reading them)."""
    name = "".join(map(str, itertools.chain(*grid)))
    files = {"--matrix": tmp / ("m%s.txt" % name), "--signal": tmp / ("s%s.txt" % name),
             "--coeffs": tmp / ("c%s.txt" % name)}
    files["--matrix"].write_text(fileio.format_matrix(core.validate_matrix(grid, strict=False)))
    files["--signal"].write_text("%d 2\n" % len(grid))
    files["--coeffs"].write_text("%d 2\n" % len(grid))
    try:
        matrix = core.validate_matrix(grid)
    except CantorError:
        return files
    f = core.CylinderFunction(matrix, 2, 1.0 + core.value_array(matrix, 2))
    mw = wavelets.build_mother_wavelets(spectral.perron_data(matrix))
    files["--signal"].write_text(fileio.format_signal(f))
    files["--coeffs"].write_text(fileio.format_coefficients(wavelets.analyze(f, mw), mw, 2))
    return files


def test_every_small_matrix_runs_through_every_matrix_verb(tmp_path, capsys, monkeypatch):
    # one parser for all 1,694 runs: building it is most of a run's time
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache()(cli.build_parser))
    classes = small_matrix_classes()
    assert len(classes) == 77
    codes = Counter()
    for grid in classes:
        files = _small_files(grid, tmp_path)
        files["--potential"] = files["--signal"]
        for verb in VERBS:
            if verb.reads == "graph":
                continue
            argv = list(verb.path) + ["--matrix=%s" % files["--matrix"]]
            if verb.reads == "lax":
                argv.append("--lax")
            argv += ["%s=%s" % (flag, files.get(flag) or SMALL_FLAGS[flag])
                     for flag, kw in verb.flags if kw.get("required")]
            codes[cli.run(argv)] += 1
            capsys.readouterr()
            assert set(codes) <= EXIT_CODES, argv
    assert sum(codes.values()) == 77 * 22 and codes[0] > 0
