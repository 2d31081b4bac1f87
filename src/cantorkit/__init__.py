"""Harmonic analysis on Cantor sets cut out by 0-1 admissibility matrices.

A matrix A picks the closed subset of [0,1] of n-adic expansions whose
consecutive digit pairs satisfy A[d_k, d_{k+1}] = 1.  The package computes
the Perron eigendata and measure of maximal entropy, represents the
Cuntz-Krieger generators on cylinder functions, builds the associated
wavelet bases, runs weighted transfer operators and their walk measures,
lifts matrices to planar fractals, and does the same constructions on the
edge shift of a finite directed graph.

`import cantorkit` loads none of its modules.  _EXPORTS names the module that
defines each exported name, and the module `__getattr__` (PEP 562) loads that
module on the first use of one of its names, or of the module itself, so that
`cantorkit.validate_matrix` is `cantorkit.core.validate_matrix`.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("AdmissibilityMatrix", "CylinderFunction", "enumerate_words", "is_admissible",
             "refine", "validate_matrix", "word_count", "word_index"),
    "errors": ("CantorError", "CapExceeded", "DataError", "NoConvergence", "UsageError"),
    "graphs": ("DirectedGraph", "GraphWaveletSet", "build_graph_wavelets", "directed_graph",
               "edge_matrix", "graph_perron", "path_integrals"),
    "operators": ("apply_S", "apply_S_star", "apply_S_word", "ck_relations_residual",
                  "fourier_approx", "fourier_sweep", "kms_letter_ratio", "kms_state",
                  "pf_fixed_point", "pf_operator"),
    "ruelle": ("PointwisePotential", "constant_potential", "keane_residual",
               "preimage_keane_residual", "ruelle_apply", "trig_potential", "walk_layers"),
    "sierpinski": ("SierpinskiSpec", "cells", "induced_matrix", "render_pgm", "sierpinski_spec"),
    "spectral": ("PerronData", "cylinder_measure", "inner_product", "measure_array", "norm",
                 "perron_data", "self_similarity_residual"),
    "wavelets": ("MotherWaveletSet", "WaveletCoefficients", "analyze", "build_mother_wavelets",
                 "detail_keys", "synthesize", "weighted_complement_basis"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULE_OF.update((module, module) for module in (*_EXPORTS, "cli", "fileio"))
__all__ = sorted(name for name, module in _MODULE_OF.items() if name != module)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    full = "%s.%s" % (__name__, _MODULE_OF[name])
    __import__(full)   # as an import statement does, so that -X importtime lists it
    return sys.modules[full] if name == _MODULE_OF[name] else getattr(sys.modules[full], name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
