"""The three workloads: seeded inputs, job lists and the per-job oracle.

A workload's `setup()` generates its inputs from the seed, computes Perron
data and builds the word tables its jobs use, and returns the job list of one
pass.  A job's `work` is the timed part; its `check` runs afterwards, raises
`CheckFailed` when the output is wrong and returns residuals worth recording.
"""

import contextlib
import functools
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import probes

ROUNDTRIP_TOL = 1e-10   # wavelet round trip and Parseval on unit-norm signals
RESIDUAL_TOL = 1e-10    # pf fixed point, CK relations, operator identities
EXACT_TOL = 1e-12       # Fourier at t = 0, self-similarity, Keane cross-checks


class CheckFailed(Exception):
    """A job's output failed the oracle."""


@dataclass
class Job:
    name: str
    work: Callable[[], object]      # the timed part
    check: Callable[[object], dict]  # oracle; returns {gauge name: value}
    prepare: Callable[[], None] = None  # untimed, runs right before `work`


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def _accepts(ck):
    def accepts(rows):
        try:
            ck.core.validate_matrix(rows)
        except ck.CantorError:
            return False
        return True
    return accepts


def _warm_level_tables(core, m, K):
    """The tables a level-K wavelet or operator job reads, for levels 1..K."""
    for k in range(1, K + 1):
        core.enumerate_words(m, k)
        core.word_index(m, k)
        core.first_digit_array(m, k)
        core.shift_index_array(m, k)
        if k < K:
            core.prefix_index_array(m, K, k)
    core.last_digit_array(m, K)


class WaveletRoundtrip:
    """analyze -> format_coefficients -> parse_coefficients -> synthesize."""

    name = "wavelet-roundtrip"
    tables = "warm"
    runs_processes = False
    probe = staticmethod(probes.python_objects)
    PROBE_REF_S = 0.0529      # probe medians, all taken together on the reference host
    # (label, matrix, levels); |W_K| runs from 16 to 3,363 (tri3 at K = 9)
    FIXED = (("full2", inputs.FULL2, (6, 8, 10, 11)),
             ("tri3", inputs.TRI3, (5, 7, 8, 9)),
             ("schottky4", inputs.SCHOTTKY4, (4, 5, 6, 7)))
    # seeded random strict matrices: (N, |W_K| the level is chosen to be near).
    # The targets are small so that the seed cannot reorder the big jobs that
    # set p50 and p90.
    RANDOM = ((3, 40), (4, 60), (5, 80))

    def __init__(self, ck, seed, workdir):
        self.ck = ck
        self.rng = np.random.default_rng(seed)

    def setup(self):
        ck = self.ck
        specs = list(self.FIXED)
        for n, target in self.RANDOM:
            rows = inputs.random_strict_matrix(self.rng, n, _accepts(ck))
            specs.append(("random%d" % n, rows, (inputs.level_for(rows, target),)))
        jobs = []
        for label, rows, levels in specs:
            m = ck.core.validate_matrix(rows)
            pd = ck.spectral.perron_data(m)
            mw = ck.wavelets.build_mother_wavelets(pd)
            for K in levels:
                _warm_level_tables(ck.core, m, K)
                f = ck.core.CylinderFunction(m, K, inputs.unit_signal(self.rng, rows, K))
                norm2 = ck.spectral.inner_product(f, f, pd).real
                jobs.append(Job("%s K=%d" % (label, K),
                                functools.partial(self.roundtrip, f, mw),
                                functools.partial(self.check, f, norm2)))
        return [jobs[i] for i in self.rng.permutation(len(jobs))]

    def roundtrip(self, f, mw):
        wavelets, fileio = self.ck.wavelets, self.ck.fileio
        wc = wavelets.analyze(f, mw)
        text = fileio.format_coefficients(wc, mw, f.level)
        parsed, level = fileio.parse_coefficients(text, mw.matrix)
        return parsed, level, wavelets.synthesize(parsed, mw, level)

    @staticmethod
    def check(f, norm2, out):
        wc, level, g = out
        expect(level == f.level, "coefficient file says level %d, not %d" % (level, f.level))
        err = float(np.max(np.abs(g.coeffs - f.coeffs)))
        parseval = abs(wc.energy() - norm2)
        expect(err <= ROUNDTRIP_TOL, "round-trip error %.3e" % err)
        expect(parseval <= ROUNDTRIP_TOL, "Parseval residual %.3e" % parseval)
        return {"wavelets.roundtrip_residual": err}


class TransferSweep:
    """Vectorised gathers over |W_K|-sized arrays, tables warmed in set-up.

    One job is one step on one ladder entry: the Fourier sweep, the transfer
    operator (with its fixed point and the measure's self-similarity), the
    trigonometric Ruelle/Keane step, or the generators S_i and S_i*.  Each
    pass adds one CK relation residual on schottky4, whose memory is
    quadratic in |W_K|.
    """

    name = "transfer-sweep"
    tables = "warm"
    runs_processes = False
    probe = staticmethod(probes.gathers)
    PROBE_REF_S = 0.0575
    # |W_K| from 972 to 114,243 (tri3 at K = 13); schottky4 tops out at 78,732
    LADDER = (("tri3", inputs.TRI3, (9, 11, 13)),
              ("schottky4", inputs.SCHOTTKY4, (6, 8, 10)))
    CK_LEVEL = 6
    T_GRID = np.linspace(-40.0, 40.0, 17)   # symmetric, so t = 0 is on it
    KEANE_DROP = 3                          # pointwise Keane sampled at K - 3

    def __init__(self, ck, seed, workdir):
        self.ck = ck
        self.rng = np.random.default_rng(seed)

    def setup(self):
        ck = self.ck
        core = ck.core
        jobs = []
        for label, rows, levels in self.LADDER:
            m = core.validate_matrix(rows)
            pd = ck.spectral.perron_data(m)
            for K in levels:
                self._warm(m, K)
                f = core.CylinderFunction(m, K, inputs.unit_signal(self.rng, rows, K))
                h = core.CylinderFunction(m, K - 1, inputs.unit_signal(self.rng, rows, K - 1))
                norm2 = ck.spectral.inner_product(f, f, pd).real
                keane = inputs.trig_keane_defect(rows, K - self.KEANE_DROP)
                tag = "%s K=%d " % (label, K)
                jobs += [
                    Job(tag + "fourier", functools.partial(self.fourier, f, pd),
                        functools.partial(self.check_fourier, norm2)),
                    Job(tag + "pf", functools.partial(self.pf, f, pd),
                        functools.partial(self.check_pf, f, h, pd)),
                    Job(tag + "ruelle", functools.partial(self.ruelle, f, pd),
                        functools.partial(self.check_ruelle, f, pd, keane)),
                    Job(tag + "shifts", functools.partial(self.shifts, f, pd),
                        functools.partial(self.check_shifts, f, pd)),
                ]
        m4 = core.validate_matrix(inputs.SCHOTTKY4)
        pd4 = ck.spectral.perron_data(m4)
        for k in (self.CK_LEVEL - 1, self.CK_LEVEL, self.CK_LEVEL + 1):
            self._warm_generators(m4, k)
        jobs.append(Job("schottky4 K=%d ck" % self.CK_LEVEL,
                        functools.partial(self.ck_residual, pd4), self.check_ck))
        return [jobs[i] for i in self.rng.permutation(len(jobs))]

    def _warm_generators(self, m, k):
        core = self.ck.core
        core.enumerate_words(m, k)
        core.word_index(m, k)
        core.first_digit_array(m, k)
        core.last_digit_array(m, k)
        core.shift_index_array(m, k)
        for i in range(m.n):
            core.prepend_index_array(m, k - 1, i)

    def _warm(self, m, K):
        """Tables for levels K - 1 .. K + 1 (S_i raises a level-K input by one)."""
        core = self.ck.core
        for k in (K - 1, K, K + 1):
            self._warm_generators(m, k)
        core.prefix_index_array(m, K, K)
        core.value_array(m, K)
        core.enumerate_words(m, K - self.KEANE_DROP)

    # -- jobs and their checks --

    def fourier(self, f, pd):
        ops = self.ck.operators
        return [ops.fourier_approx(f, float(t), f.level, pd) for t in self.T_GRID]

    def check_fourier(self, norm2, values):
        at_zero = values[len(values) // 2]
        expect(abs(at_zero - norm2) <= EXACT_TOL,
               "fourier_approx(f, 0, k) = %r, not ||f||^2 = %r" % (at_zero, norm2))
        worst = max(abs(v) for v in values)
        expect(worst <= norm2 + EXACT_TOL, "|fourier_approx| %r exceeds ||f||^2" % worst)
        return {}

    def pf(self, f, pd):
        ck = self.ck
        g = ck.operators.pf_operator(f, pd)
        fixed = ck.operators.pf_fixed_point(pd)
        moved = ck.operators.pf_operator(fixed, pd) - fixed
        return (g, ck.spectral.norm(moved, pd),
                ck.spectral.self_similarity_residual(pd, f.level))

    def check_pf(self, f, h, pd, out):
        ck = self.ck
        g, fixed_residual, selfsim = out
        # duality: <pf f, h> = r^-1/2 sum_i <f, S_i h>, since pf = r^-1/2 sum_i S_i*
        lhs = ck.spectral.inner_product(h, g, pd)
        rhs = sum(ck.spectral.inner_product(ck.operators.apply_S(i, h, pd), f, pd)
                  for i in range(pd.matrix.n)) / math.sqrt(pd.radius)
        expect(abs(lhs - rhs) <= RESIDUAL_TOL, "pf duality defect %.3e" % abs(lhs - rhs))
        expect(fixed_residual <= RESIDUAL_TOL, "pf fixed-point residual %.3e" % fixed_residual)
        expect(selfsim <= EXACT_TOL, "self-similarity residual %.3e" % selfsim)
        return {}

    def ruelle(self, f, pd):
        ruelle = self.ck.ruelle
        cylinder, pointwise = ruelle.trig_potential(pd, f.level)
        applied = ruelle.ruelle_apply(cylinder, f, pd)
        return (cylinder, applied, ruelle.keane_residual(cylinder, pd),
                ruelle.preimage_keane_residual(pointwise, pd, f.level - self.KEANE_DROP))

    def check_ruelle(self, f, pd, keane_reference, out):
        ck = self.ck
        cylinder, applied, keane, pointwise = out
        one = ck.core.CylinderFunction.constant(pd.matrix, 1.0)
        r_one = ck.ruelle.ruelle_apply(cylinder, one, pd)
        direct = float(np.max(np.abs(r_one.coeffs - 1.0)))
        expect(abs(direct - keane) <= EXACT_TOL,
               "keane_residual %r, but max |R_W 1 - 1| = %r" % (keane, direct))
        expect(abs(pointwise - keane_reference) <= EXACT_TOL,
               "preimage_keane_residual %r, reference %r" % (pointwise, keane_reference))
        # with the constant weight 1/r the Ruelle operator is the transfer operator
        flat = ck.core.CylinderFunction.constant(pd.matrix, 1.0 / pd.radius)
        gap = np.max(np.abs(ck.ruelle.ruelle_apply(flat, f, pd).coeffs
                            - ck.operators.pf_operator(f, pd).coeffs))
        expect(gap <= RESIDUAL_TOL, "R_{1/r} differs from pf_operator by %.3e" % gap)
        expect(applied.level == f.level - 1, "R_W f at level %d" % applied.level)
        return {}

    def shifts(self, f, pd):
        ops = self.ck.operators
        return [(ops.apply_S(i, f, pd), ops.apply_S_star(i, f, pd))
                for i in range(pd.matrix.n)]

    def check_shifts(self, f, pd, out):
        ck = self.ck
        first = ck.core.first_digit_array(pd.matrix, f.level)
        for i, (up, down) in enumerate(out):
            # S_i* S_i is multiplication by the indicator of D_i
            back = ck.operators.apply_S_star(i, up, pd).coeffs
            want = np.where(pd.matrix.array[i][first] == 1, f.coeffs, 0)
            err = float(np.max(np.abs(back - want)))
            expect(err <= RESIDUAL_TOL, "S_%d* S_%d f differs by %.3e" % (i, i, err))
            expect(down.level == f.level - 1, "S_%d* f at level %d" % (i, down.level))
        return {}

    def ck_residual(self, pd):
        return self.ck.operators.ck_relations_residual(pd, self.CK_LEVEL)

    @staticmethod
    def check_ck(residual):
        expect(residual <= RESIDUAL_TOL, "CK relation residual %.3e" % residual)
        return {}


def _kv(text):
    """The `key = value` lines of a CLI transcript."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.lstrip("# ")] = value
    return out


def _at_most(values, key, bound):
    v = float(values[key])
    expect(v <= bound, "%s = %r exceeds %g" % (key, v, bound))
    return v


class CliCold:
    """One fresh `python -m cantorkit` process per job, strictly one at a time.

    A pass runs the 25 documented commands of the CLI determinism test and
    then 20 seeded larger ones; 45 jobs put p50 and p90 in the middle of one
    command's latencies rather than between two.  Jobs run in a fixed order
    because `synthesize` and the Ruelle commands read files that earlier jobs
    wrote.  Every output must also be byte-identical to the one the same
    command gave on the first pass.  The environment run.py gives the worker
    (PYTHONPATH=src, BLAS on one thread) passes on to every process.
    """

    name = "cli-cold"
    tables = "cold"
    runs_processes = True         # a job is a process; in_process runs it here
    # A fresh interpreter's time moves in steps that CLI jobs do not follow,
    # so no probe tracks this workload's slow phases: its timings stay unscaled.
    probe = None
    BANDS = ((20, 26), (38, 44), (54, 60))   # seeded N of the banded matrices

    def __init__(self, ck, seed, workdir):
        self.ck = ck
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.root = os.getcwd()
        self.in_process = False
        self.reference = {}
        self.matrices = {}
        self._caches = [obj.cache_clear for mod in ck.MODULES
                        for obj in vars(mod).values() if hasattr(obj, "cache_clear")]

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _write(self, name, text):
        with open(self._path(name), "w") as fh:
            fh.write(text)
        return self._path(name)

    def setup(self):
        def given(name):
            return os.path.join(self.root, "inputs", name)

        tri3, full2, schottky4 = given("tri3.txt"), given("full2.txt"), given("schottky4.txt")
        sig3, sig2 = given("signal_tri3.txt"), given("signal_full2.txt")
        out = self._path
        commands = [
            ["perron", "--matrix", tri3],
            ["words", "--matrix", tri3, "--level", "3"],
            ["measure", "--matrix", tri3, "--word", "12"],
            ["op", "s", "--matrix", tri3, "--i", "1", "--signal", sig3],
            ["op", "sstar", "--matrix", tri3, "--i", "0", "--signal", sig3],
            ["op", "word", "--matrix", tri3, "--word", "11", "--adjoint", "--signal", sig3],
            ["op", "pf", "--matrix", tri3, "--signal", sig3],
            ["op", "fixed-point", "--matrix", tri3],
            ["op", "ck", "--matrix", schottky4, "--level", "3"],
            ["fourier", "--matrix", full2, "--signal", sig2,
             "--level", "6", "--tmin", "-20", "--tmax", "20", "--tcount", "11"],
            ["kms", "--matrix", tri3, "--a", "12", "--b", "12"],
            ["kms", "--matrix", tri3, "--letter", "1"],
            ["wavelets", "build", "--matrix", tri3],
            ["wavelets", "analyze", "--matrix", tri3, "--signal", sig3,
             "--out", out("coeffs.txt")],
            ["wavelets", "synthesize", "--matrix", tri3, "--coeffs", out("coeffs.txt"),
             "--compare", sig3, "--out", out("resynth.txt")],
            ["ruelle", "trig", "--matrix", tri3, "--level", "3", "--out", out("trig.txt")],
            ["ruelle", "keane", "--matrix", tri3, "--potential", out("trig.txt")],
            ["ruelle", "apply", "--matrix", tri3, "--potential", out("trig.txt"),
             "--signal", sig3, "--out", out("applied.txt")],
            ["walk", "--matrix", tri3, "--x", "1", "--depth", "3"],
            ["sierpinski", "info", "--matrix", schottky4],
            ["sierpinski", "cells", "--matrix", tri3, "--depth", "2"],
            ["sierpinski", "induced", "--matrix", full2],
            ["sierpinski", "render", "--matrix", schottky4, "--depth", "2",
             "--res", "32", "--out", out("carpet.pgm")],
            ["graph", "perron", "--graph", given("graph3.txt")],
            ["graph", "wavelets", "--graph", given("loops3.txt"), "--v0", "0",
             "--e0", "0", "--depth", "2"],
        ]
        rng = self.rng
        for lo, hi in self.BANDS:
            n = int(rng.integers(lo, hi + 1))
            band = self._write("band%d.txt" % n, inputs.format_matrix(inputs.banded_matrix(n)))
            commands += [["perron", "--matrix", band],
                         ["kms", "--matrix", band, "--letter", str(int(rng.integers(n)))]]
        sig10 = self._write("signal10.txt", inputs.format_signal(
            inputs.TRI3, 10, inputs.unit_signal(rng, inputs.TRI3, 10)))
        sig8 = self._write("signal8.txt", inputs.format_signal(
            inputs.TRI3, 8, inputs.unit_signal(rng, inputs.TRI3, 8)))
        start = inputs.words(inputs.TRI3, 4)
        x = start[int(rng.integers(len(start)))]
        commands += [
            ["words", "--matrix", tri3, "--level", "12"],
            ["op", "pf", "--matrix", tri3, "--signal", sig10, "--out", out("pf10.txt")],
            ["fourier", "--matrix", tri3, "--signal", sig10, "--level", "10",
             "--tmin", "-30", "--tmax", "30", "--tcount", "21"],
            ["wavelets", "analyze", "--matrix", tri3, "--signal", sig8, "--level", "8",
             "--out", out("coeffs8.txt")],
            ["wavelets", "synthesize", "--matrix", tri3, "--coeffs", out("coeffs8.txt"),
             "--compare", sig8, "--out", out("resynth8.txt")],
            ["ruelle", "trig", "--matrix", tri3, "--level", "10", "--out", out("trig10.txt")],
            ["ruelle", "keane", "--matrix", tri3, "--potential", out("trig10.txt")],
            ["ruelle", "apply", "--matrix", tri3, "--potential", out("trig10.txt"),
             "--signal", sig10, "--out", out("applied10.txt")],
            ["op", "sstar", "--matrix", tri3, "--i", str(int(rng.integers(3))),
             "--signal", sig10, "--out", out("sstar10.txt")],
            ["op", "ck", "--matrix", schottky4, "--level", "5"],
            ["sierpinski", "cells", "--matrix", tri3, "--depth", "4"],
            ["walk", "--matrix", tri3, "--x", "".join(map(str, x)), "--depth", "9"],
            ["graph", "wavelets", "--graph", given("loops3.txt"), "--v0", "0",
             "--e0", "0", "--depth", "5"],
            ["sierpinski", "render", "--matrix", schottky4, "--depth", "4",
             "--res", "200", "--out", out("carpet4.pgm")],
        ]
        unit_signals = {sig10, sig8}
        return [Job(" ".join(os.path.basename(a) if a.startswith(self.root) else a
                             for a in argv),
                    functools.partial(self.execute, argv),
                    functools.partial(self.check, argv, bool(unit_signals & set(argv))),
                    self.prepare)
                for argv in commands]

    def prepare(self):
        """In-process runs start each job with empty word-table caches."""
        if self.in_process:
            for clear in self._caches:
                clear()

    def execute(self, argv):
        """Run one command; returns (exit code, stdout bytes, stderr text)."""
        if self.in_process:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.ck.cli.run(argv)
            return code, stdout.getvalue().encode(), stderr.getvalue()
        proc = subprocess.run([sys.executable, "-m", "cantorkit"] + argv, cwd=self.workdir,
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")

    # -- the oracle --

    def _matrix(self, path):
        if path not in self.matrices:
            with open(path) as fh:
                rows = self.ck.fileio.parse_matrix_rows(fh.read())
            self.matrices[path] = self.ck.core.validate_matrix(rows)
        return self.matrices[path]

    def check(self, argv, unit_signal, result):
        code, stdout, stderr = result
        expect(code == 0, "exit code %d: %s" % (code, stderr.strip()[-300:]))
        text = stdout.decode()
        opts = dict(zip(argv, argv[1:]))
        out_path = opts.get("--out")
        written = b""
        if out_path:
            with open(out_path, "rb") as fh:
                written = fh.read()
        gauges = self._check_output(argv, opts, text, written.decode(), unit_signal)
        key = (self.in_process, tuple(argv))
        first = self.reference.setdefault(key, (stdout, written))
        expect(first == (stdout, written), "output differs from the first pass")
        return gauges

    def _check_output(self, argv, opts, text, written, unit_signal):
        ck = self.ck
        verb = tuple(a for a in argv[:2] if not a.startswith("-"))
        values = _kv(text)
        matrix = self._matrix(opts["--matrix"]) if "--matrix" in opts else None
        if verb[0] == "perron":
            _at_most(values, "residual", RESIDUAL_TOL)
        elif verb[0] == "words":
            rows = matrix.rows
            count = inputs.word_count(rows, int(opts["--level"]))
            expect(len(text.splitlines()) == count, "words printed %d lines, want %d"
                   % (len(text.splitlines()), count))
        elif verb[0] == "measure":
            expect(float(values["measure"]) > 0, "cylinder measure is not positive")
        elif verb == ("op", "fixed-point"):
            _at_most(values, "pf_residual", RESIDUAL_TOL)
            ck.fileio.parse_signal(text.rsplit("pf_residual", 1)[0], matrix)
        elif verb == ("op", "ck"):
            _at_most(values, "residual", RESIDUAL_TOL)
        elif verb[0] == "op":
            ck.fileio.parse_signal(written or text, matrix)
        elif verb[0] == "fourier":
            rows = [[float(v) for v in line.split(",")] for line in text.splitlines()]
            expect(len(rows) == int(opts["--tcount"]), "fourier printed %d rows" % len(rows))
            if unit_signal:
                # the generator normalised f with its own Perron vector, which
                # agrees with the package's to about 1e-11
                t0 = rows[len(rows) // 2]
                expect(t0[0] == 0.0 and abs(t0[1] - 1.0) <= RESIDUAL_TOL
                       and abs(t0[2]) <= EXACT_TOL,
                       "fourier at t = 0 is %r, not ||f||^2 = 1" % (t0,))
        elif verb[0] == "kms":
            if "--letter" in opts:
                ratio, radius = float(values["ratio"]), float(values["radius"])
                expect(abs(ratio - radius) <= 1e-9 * radius,
                       "letter ratio %r differs from the radius %r" % (ratio, radius))
            else:
                expect(float(values["value_re"]) > 0, "state of S_a S_a* is not positive")
        elif verb == ("wavelets", "build"):
            want = sum(d - 1 for d in matrix.row_sums)
            expect(int(values["total_mothers"]) == want, "wrong number of mothers")
        elif verb == ("wavelets", "analyze"):
            _at_most(values, "parseval_residual", ROUNDTRIP_TOL)
            ck.fileio.parse_coefficients(written, matrix)
        elif verb == ("wavelets", "synthesize"):
            err = _at_most(values, "max_error", ROUNDTRIP_TOL)
            ck.fileio.parse_signal(written, matrix)
            return {"wavelets.roundtrip_residual": err}
        elif verb == ("ruelle", "trig"):
            _at_most(values, "pointwise_keane_residual", EXACT_TOL)
            _at_most(values, "cylinder_keane_residual", EXACT_TOL)
            ck.fileio.parse_signal(written, matrix)
        elif verb == ("ruelle", "keane"):
            _at_most(values, "residual", EXACT_TOL)
        elif verb == ("ruelle", "apply"):
            ck.fileio.parse_signal(written, matrix)
        elif verb[0] == "walk":
            mass = float(values["layer_mass"])
            expect(abs(mass - 1.0) <= EXACT_TOL, "walk layer mass %r, not 1" % mass)
            want = inputs.word_count(matrix.rows, int(opts["--depth"])) + 1  # A^t = A here
            expect(len(text.splitlines()) == want, "walk printed %d lines" % len(text.splitlines()))
        elif verb == ("sierpinski", "induced"):
            ck.fileio.parse_matrix_rows(text)
        elif verb == ("sierpinski", "render"):
            res = int(opts["--res"])
            lines = written.splitlines()
            expect(lines[:3] == ["P2", "%d %d" % (res, res), "255"] and len(lines) == res + 3,
                   "render wrote a malformed PGM")
            expect(0 < int(values["dark_pixels"]) < res * res, "render is blank")
        elif verb == ("graph", "perron"):
            _at_most(values, "residual", RESIDUAL_TOL)
        elif verb == ("graph", "wavelets"):
            _at_most(values, "max_mean_residual", RESIDUAL_TOL)
            _at_most(values, "max_gram_residual", RESIDUAL_TOL)
        else:
            expect(text.strip() != "", "no output")
        return {}


WORKLOADS = {w.name: w for w in (WaveletRoundtrip, TransferSweep, CliCold)}
