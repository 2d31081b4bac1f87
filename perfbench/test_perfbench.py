"""Tests of the benchmark itself: oracle, failure accounting, spans, inputs.

    python3 -m pytest perfbench -q
"""

import os
import sys
import time
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import worker  # noqa: E402
from spans import SpanRecorder, growth_exponent, per_pass, within  # noqa: E402
from workloads import Job, WaveletRoundtrip, _accepts  # noqa: E402

ck = worker.load_package(ROOT)


@pytest.fixture(scope="module")
def roundtrip_job():
    jobs = WaveletRoundtrip(ck, seed=7, workdir=None).setup()
    return next(j for j in jobs if j.name == "tri3 K=5")


def test_roundtrip_job_passes_its_oracle(roundtrip_job):
    tally = worker.Tally()
    worker.run_pass([roundtrip_job], tally)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_one_perturbed_coefficient_is_a_failure(roundtrip_job, monkeypatch):
    parse = ck.fileio.parse_coefficients

    def perturbed(text, matrix):
        wc, level = parse(text, matrix)
        key = next(iter(wc.detail))
        wc.detail[key] += 1e-6
        return wc, level

    monkeypatch.setattr(ck.fileio, "parse_coefficients", perturbed)
    tally = worker.Tally()
    worker.run_pass([roundtrip_job], tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "round-trip error" in tally.errors[0]


def test_an_exception_fails_the_job_and_the_pass_goes_on():
    def boom():
        raise ck.CantorError("injected")

    ran = []
    jobs = [Job("boom", boom, lambda out: {}),
            Job("fine", lambda: ran.append(1), lambda out: {})]
    tally = worker.Tally()
    worker.run_pass(jobs, tally)
    assert (tally.attempted, tally.failed, ran) == (2, 1, [1])


def test_timings_are_scaled_by_the_host_speed():
    class Slow:
        runs_processes = False
        PROBE_REF_S = 0.01

        @staticmethod
        def probe():
            return 0.02   # the host runs at half the reference speed

    jobs = [Job("nap", lambda: time.sleep(0.001), lambda out: {})]
    _, metrics, notes = worker.untraced(Slow, jobs, seconds=0)
    assert notes["host_speed"] == pytest.approx(0.5)
    assert metrics["jobs_per_s"] == pytest.approx(2 * notes["unscaled"]["jobs_per_s"])
    assert metrics["job_ms.p90"] == pytest.approx(0.5 * notes["unscaled"]["job_ms.p90"])


def _module(name, **functions):
    mod = types.ModuleType(name)
    for fname, fn in functions.items():
        fn.__module__ = name
        setattr(mod, fname, fn)
    return mod


def test_self_time_excludes_child_spans_and_same_layer_calls_join_the_entry():
    def leaf():
        time.sleep(0.02)

    outer_mod = _module("pkg.outer")
    inner_mod = _module("pkg.inner", leaf=leaf)

    def helper():
        time.sleep(0.01)
        inner_mod.leaf()

    def entry():
        time.sleep(0.01)
        outer_mod.helper()

    outer_mod.helper, outer_mod.entry = helper, entry
    helper.__module__ = entry.__module__ = "pkg.outer"
    seen = []
    rec = SpanRecorder(hooks={"inner.leaf": lambda *a: seen.append(a[3])})
    rec.install([outer_mod, inner_mod])
    outer_mod.entry()
    rec.uninstall()
    totals = rec.snapshot()
    assert outer_mod.entry is entry
    assert set(totals["self_s"]) == {"outer.entry", "inner.leaf"}
    assert totals["self_s"]["outer.entry"] == pytest.approx(0.02, abs=0.008)
    assert totals["self_s"]["inner.leaf"] == pytest.approx(0.02, abs=0.008)
    names = [r["name"] for r in rec.span_records()]
    assert names == ["inner.leaf", "outer.entry"]
    parent = {r["id"]: r["parent"] for r in rec.span_records()}
    assert parent[0] == -1 and parent[1] == 0
    assert len(seen) == 1


def test_table_builders_keep_their_own_core_calls():
    assert within("core.tables", "core") and within("core", "core")
    assert not within("core", "core.tables") and not within("operators", "core")


def test_per_pass_keeps_setup_once_and_averages_passes():
    setup = {"self_s": {"a": 1.0}, "counts": {"n": 10}, "spans": 5}
    total = {"self_s": {"a": 7.0}, "counts": {"n": 40}, "spans": 25}
    agg = per_pass(setup, total, passes=3)
    assert agg["self_s"]["a"] == pytest.approx(3.0)
    assert agg["counts"]["n"] == pytest.approx(20)
    assert agg["spans"] == pytest.approx(11.67, abs=0.01)


def test_growth_exponent_recovers_a_power_law():
    samples = [(n, 3e-9 * n ** 2) for n in (1000, 2000, 4000, 8000)] + [(10, 1.0)]
    assert growth_exponent(samples) == pytest.approx(2.0)
    assert growth_exponent([(5000, 1.0), (6000, 1.2)]) == 0.0


def test_inputs_depend_only_on_the_seed():
    def draw(seed):
        rng = np.random.default_rng(seed)
        rows = inputs.random_strict_matrix(rng, 4, lambda r: True)
        return rows, inputs.unit_signal(rng, inputs.TRI3, 4)

    (r1, s1), (r2, s2), (_, s3) = draw(5), draw(5), draw(6)
    assert r1 == r2 and np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)


def test_generated_signal_has_unit_norm_in_the_package_measure():
    m = ck.core.validate_matrix(inputs.TRI3)
    pd = ck.spectral.perron_data(m)
    c = inputs.unit_signal(np.random.default_rng(1), inputs.TRI3, 6)
    f = ck.core.CylinderFunction(m, 6, c)
    assert ck.spectral.norm(f, pd) == pytest.approx(1.0, abs=1e-10)
    assert inputs.words(inputs.TRI3, 6) == list(ck.core.enumerate_words(m, 6))


def test_random_matrices_are_admitted_by_validate_matrix():
    rng = np.random.default_rng(3)
    for n in (3, 4, 5):
        rows = inputs.random_strict_matrix(rng, n, _accepts(ck))
        assert ck.core.validate_matrix(rows).rows == rows


def test_trig_keane_reference_matches_the_package():
    for rows in (inputs.TRI3, inputs.SCHOTTKY4):
        m = ck.core.validate_matrix(rows)
        pd = ck.spectral.perron_data(m)
        _, pointwise = ck.ruelle.trig_potential(pd, 2)
        ours = inputs.trig_keane_defect(rows, 4)
        assert ck.ruelle.preimage_keane_residual(pointwise, pd, 4) == pytest.approx(ours, abs=1e-12)
