"""Per-layer metrics: the hooks that count work at each layer boundary, and
the table that turns recorded self time, counts and samples into the named
per-layer figures of BENCHMARK.json.

Every figure covers the traced set-up plus one pass over the workload's job
list (the average of the traced passes).  A layer the workload never calls
reports 0.
"""

from spans import TABLE_BUILDERS, growth_exponent

FILEIO_FORMAT = ("format_word", "format_matrix", "format_signal",
                 "format_coefficients", "format_graph", "format_pgm")
FILEIO_PARSE = ("parse_word", "parse_matrix_rows", "parse_signal",
                "parse_coefficients", "parse_graph")

# metric name -> entry points whose self time it sums
SELF_TIME = {
    "core.tables.s": sorted(TABLE_BUILDERS),
    "spectral.perron_data.s": ["spectral.perron_data"],
    "spectral.measure.s": ["spectral.measure_array", "spectral.inner_product", "spectral.norm"],
    "operators.apply_S.s": ["operators.apply_S", "operators.apply_S_star",
                            "operators.apply_S_word"],
    "operators.fourier_approx.s": ["operators.fourier_approx"],
    "operators.pf_operator.s": ["operators.pf_operator"],
    "operators.ck_relations_residual.s": ["operators.ck_relations_residual"],
    "wavelets.analyze.s": ["wavelets.analyze"],
    "wavelets.synthesize.s": ["wavelets.synthesize"],
    "wavelets.build_mother_wavelets.s": ["wavelets.build_mother_wavelets"],
    "ruelle.ruelle_apply.s": ["ruelle.ruelle_apply"],
    "ruelle.keane_residual.s": ["ruelle.keane_residual"],
    "ruelle.trig_potential.s": ["ruelle.trig_potential"],
    "ruelle.preimage_keane_residual.s": ["ruelle.preimage_keane_residual"],
    "ruelle.walk_layer_mass.s": ["ruelle.walk_layer_mass", "ruelle.walk_measure",
                                 "ruelle.enumerate_transpose_words",
                                 "ruelle.harmonic_truncated"],
    "graphs.path_integrals.s": ["graphs.path_integrals"],
    "sierpinski.render_pgm.s": ["sierpinski.render_pgm"],
    "fileio.parse.s": ["fileio." + n for n in FILEIO_PARSE],
    "fileio.format.s": ["fileio." + n for n in FILEIO_FORMAT],
}

GATHERS = ("operators.apply_S", "operators.apply_S_star", "operators.pf_operator")

# (name, unit, better) of every per-layer metric, in reporting order
PER_LAYER = [
    ("core.tables.s", "s", "lower"),
    ("core.tables.words", "count", "lower"),
    ("core.tables.words_per_s", "1/s", "higher"),
    ("core.tables.slope", "1", "lower"),
    ("spectral.perron_data.s", "s", "lower"),
    ("spectral.perron_data.iterations", "count", "lower"),
    ("spectral.perron_data.residual", "1", "lower"),
    ("spectral.measure.s", "s", "lower"),
    ("operators.apply_S.s", "s", "lower"),
    ("operators.fourier_approx.s", "s", "lower"),
    ("operators.pf_operator.s", "s", "lower"),
    ("operators.ck_relations_residual.s", "s", "lower"),
    ("operators.ck_relations_residual.peak_mb", "MB", "lower"),
    ("operators.words_per_s", "1/s", "higher"),
    ("operators.gathers.slope", "1", "lower"),
    ("wavelets.analyze.s", "s", "lower"),
    ("wavelets.synthesize.s", "s", "lower"),
    ("wavelets.build_mother_wavelets.s", "s", "lower"),
    ("wavelets.analyze.slope", "1", "lower"),
    ("wavelets.synthesize.slope", "1", "lower"),
    ("wavelets.roundtrip_residual", "1", "lower"),
    ("ruelle.ruelle_apply.s", "s", "lower"),
    ("ruelle.keane_residual.s", "s", "lower"),
    ("ruelle.trig_potential.s", "s", "lower"),
    ("ruelle.preimage_keane_residual.s", "s", "lower"),
    ("ruelle.walk_layer_mass.s", "s", "lower"),
    ("graphs.path_integrals.s", "s", "lower"),
    ("sierpinski.render_pgm.s", "s", "lower"),
    ("fileio.parse.s", "s", "lower"),
    ("fileio.format.s", "s", "lower"),
    ("fileio.bytes", "count", "lower"),
    ("fileio.parse.mb_per_s", "MB/s", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.process_s", "s", "lower"),
    ("cli.work_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.traced_jobs_per_s", "1/s", "higher"),
    ("trace.untraced_jobs_per_s", "1/s", "higher"),
    ("trace.spans", "count", "lower"),
]


def table_caches(ck):
    """The lru caches behind the word-table builders, probed to tell a build
    from a lookup."""
    core = ck.core
    caches = {"core.enumerate_words": core._enumerate_words_cached}
    for name in ("word_index", "first_digit_array", "last_digit_array",
                 "prefix_index_array", "shift_index_array", "prepend_index_array",
                 "value_array"):
        caches["core." + name] = getattr(core, name)
    return caches


def make_hooks():
    """Hooks on the boundaries where the per-layer counts and samples live.

    A word-table builder's hook runs only when the call built a table.
    """
    hooks = {}

    def table_after(rec, args, result, dur, own):
        rec.sample("core.tables", len(result), own)

    def words_after(rec, args, result, dur, own):
        rec.count("core.tables.words", len(result))
        table_after(rec, args, result, dur, own)

    for name in TABLE_BUILDERS:
        hooks[name] = table_after
    hooks["core.enumerate_words"] = words_after

    def perron_after(rec, args, result, dur, own):
        rec.count("spectral.perron_data.iterations", result.iterations)
        rec.gauge("spectral.perron_data.residual", result.tol)

    hooks["spectral.perron_data"] = perron_after

    def operator_hook(name, pos):
        def after(rec, args, result, dur, own):
            size = len(args[pos].coeffs)
            rec.count("operators.words", size)
            if name in GATHERS:
                rec.sample("operators.gathers", size, dur)
        return after

    for name, pos in (("apply_S", 1), ("apply_S_star", 1), ("apply_S_word", 1),
                      ("pf_operator", 0), ("fourier_approx", 0)):
        hooks["operators." + name] = operator_hook("operators." + name, pos)

    def ck_after(rec, args, result, dur, own):
        rec.last_args["operators.ck_relations_residual"] = args

    hooks["operators.ck_relations_residual"] = ck_after
    hooks["wavelets.analyze"] = lambda rec, args, result, dur, own: rec.sample(
        "wavelets.analyze", len(args[0].coeffs), dur)
    hooks["wavelets.synthesize"] = lambda rec, args, result, dur, own: rec.sample(
        "wavelets.synthesize", len(result.coeffs), dur)

    def fileio_hook(counter, of_result):
        def after(rec, args, result, dur, own):
            if rec.parent_group() != "fileio":   # count each text once, at entry
                rec.count(counter, len(result if of_result else args[0]))
        return after

    for name in FILEIO_FORMAT:
        hooks["fileio." + name] = fileio_hook("fileio.format_bytes", True)
    for name in FILEIO_PARSE:
        hooks["fileio." + name] = fileio_hook("fileio.parse_bytes", False)
    return hooks


def per_layer_metrics(agg, rec, extra):
    """Named per-layer values from per-pass totals `agg` and run-level `extra`."""
    self_s, counts = agg["self_s"], agg["counts"]

    def total(names):
        return sum(self_s.get(n, 0.0) for n in names)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m = {name: total(names) for name, names in SELF_TIME.items()}
    m["core.tables.words"] = counts.get("core.tables.words", 0)
    m["core.tables.words_per_s"] = rate(m["core.tables.words"], m["core.tables.s"])
    m["core.tables.slope"] = growth_exponent(rec.samples["core.tables"])
    m["spectral.perron_data.iterations"] = counts.get("spectral.perron_data.iterations", 0)
    m["spectral.perron_data.residual"] = rec.gauges.get("spectral.perron_data.residual", 0.0)
    m["operators.words_per_s"] = rate(
        counts.get("operators.words", 0),
        m["operators.apply_S.s"] + m["operators.fourier_approx.s"] + m["operators.pf_operator.s"])
    m["operators.gathers.slope"] = growth_exponent(rec.samples["operators.gathers"])
    m["wavelets.analyze.slope"] = growth_exponent(rec.samples["wavelets.analyze"])
    m["wavelets.synthesize.slope"] = growth_exponent(rec.samples["wavelets.synthesize"])
    m["wavelets.roundtrip_residual"] = rec.gauges.get("wavelets.roundtrip_residual", 0.0)
    parse_bytes = counts.get("fileio.parse_bytes", 0)
    m["fileio.bytes"] = parse_bytes + counts.get("fileio.format_bytes", 0)
    m["fileio.parse.mb_per_s"] = rate(parse_bytes / 1e6, m["fileio.parse.s"])
    m["trace.spans"] = agg["spans"]
    m.update(extra)
    return {name: m.get(name, 0.0) for name, _, _ in PER_LAYER}
