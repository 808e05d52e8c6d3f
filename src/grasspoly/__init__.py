"""grasspoly: exact bracket tensors, scissor-congruence coproducts, and
Tate iterated integrals for Grassmannian polylogarithms.

The package splits into an exact layer and a numeric layer.

Exact layer (rational / Gaussian-rational arithmetic throughout; float
and complex input is refused, not rounded):

- configurations: vector and point configurations with determinant
  brackets, cross-ratios, projections, and seeded generic sampling.
- tensors: multiplicative tensors of bracket symbols with canonical
  dict stores, alternation, and wedge (K2) projections.
- aomoto: the scissor-congruence coalgebra on simplex pairs, the
  coproduct, and its iteration down to pure tensor words.
- elements: the sliding-window bracket element, the identity checks
  (comparison, omission relations, scale invariance, integrability,
  Steinberg wedge), and mutation helpers for the test harness.
- forms: exact evaluation of d log bracket symbols and graded wedge
  pairs on tangent assignments with exact entries.

Numeric layer (float/complex with error estimates):

- iterint: piecewise-polynomial paths, d log pullbacks, the batched
  adaptive iterated-integral engine, shuffle and homotopy drivers.
- polylogs: classical Li_n, the real dilogarithm normalization, the
  single-valued dilogarithm, five-term machinery, and the Grassmannian
  evaluator built on the exact element.

The cli module exposes all of it as the `grasspoly` command.

Importing the package runs none of the modules above. Each is
registered in `sys.modules` as a lazily loaded module (the
standard-library `importlib.util.LazyLoader` recipe) and runs on the
first access to one of its attributes, directly or through a name
exported here; so `grasspoly element` runs `tensors` and `elements`
alone. numpy is bound the same way: it loads when the numeric engine
first runs (a `PathSpec` is built or an iterated integral is computed),
and the exact layer never needs it. The dilogarithm is evaluated in
plain floats, so the package never imports mpmath.
"""

import importlib.util
import sys

# each module of the package and the names it exports here
_EXPORTS = {
    "aomoto": ("AomotoExpr", "AomotoGen", "additivity_residue", "coproduct",
               "coproduct_higher", "coproduct_weight2", "expand_to_tensor",
               "make_gen", "pairing_element", "pairing_element_labels"),
    "configurations": ("Configuration", "GaussianRational", "as_scalar",
                       "cross_ratio", "exact_det", "random_generic",
                       "scalar_to_complex"),
    "elements": ("GrassElement", "Report", "build_element",
                 "check_comparison", "check_integrability",
                 "check_omission_relations", "check_scale_invariance",
                 "check_steinberg_wedge", "flip_first_term",
                 "omission_residues", "scale_label",
                 "steinberg_wedge_sides"),
    "errors": ("BudgetError", "ContractViolation", "DegeneracyError",
               "PathError", "PoleError"),
    "forms": ("TangentAssignment", "dlog_eval", "random_tangent",
              "tensor_slot_eval", "wedge_eval", "wedge_eval_graded"),
    "iterint": ("IterIntResult", "PathSpec", "homotopy_test",
                "iterate_element", "iterate_word", "iterate_words",
                "monodromy_probe", "normalize_word", "shuffle_test",
                "shuffles"),
    "polylogs": ("BranchedValue", "aomoto_a1", "bloch_wigner",
                 "bloch_wigner_five_term", "grassmannian_tate", "l2g",
                 "l2g_family_values", "l2g_five_term", "li2", "li_n",
                 "li_series", "omit_cross_ratios", "rogers_five_term",
                 "rogers_l2", "rogers_l2_closed_form", "rogers_l2_slope"),
    "tensors": ("MultTensor", "WedgeTensor", "alt", "bracket_symbol",
                "equal", "tensor_of_slots", "wedge_project"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
__all__ = list(_HOME)


def _lazy_module(name):
    """The module `name`, registered in `sys.modules` and run on its first
    attribute access (the standard-library `importlib.util.LazyLoader`
    recipe); a module already imported is returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"grasspoly needs {name}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


for _module in _EXPORTS:
    globals()[_module] = _lazy_module(f"{__name__}.{_module}")
del _module


def __getattr__(name):
    """An exported name, taken from its module (which runs it, the first
    time) and kept here for the next lookup."""
    if name not in _HOME:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
