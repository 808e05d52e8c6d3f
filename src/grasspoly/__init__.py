"""grasspoly: exact bracket tensors, scissor-congruence coproducts, and
Tate iterated integrals for Grassmannian polylogarithms.

The package splits into an exact layer and a numeric layer.

Exact layer (rational / Gaussian-rational arithmetic throughout):

- configurations: vector and point configurations with determinant
  brackets, cross-ratios, projections, and seeded generic sampling.
- tensors: multiplicative tensors of bracket symbols with canonical
  dict stores, alternation, and wedge (K2) projections.
- aomoto: the scissor-congruence coalgebra on simplex pairs, the
  coproduct, and its iteration down to pure tensor words.
- elements: the sliding-window bracket element, the identity checks
  (comparison, omission relations, scale invariance, integrability,
  Steinberg wedge), and mutation helpers for the test harness.
- forms: evaluation of bracket symbols and graded wedge pairs on
  tangent assignments.

Numeric layer (float/complex with error estimates):

- iterint: piecewise-polynomial paths, d log pullbacks, the batched
  adaptive iterated-integral engine, shuffle and homotopy drivers.
- polylogs: classical Li_n, the real dilogarithm normalization, the
  single-valued dilogarithm, five-term machinery, and the Grassmannian
  evaluator built on the exact element.

The cli module exposes all of it as the `grasspoly` command.
"""

from .aomoto import (AomotoExpr, AomotoGen, additivity_residue, coproduct,
                     coproduct_higher, coproduct_weight2, expand_to_tensor,
                     make_gen, pairing_element, pairing_element_labels)
from .configurations import (Configuration, GaussianRational, as_scalar,
                             cross_ratio, exact_det, exact_rank,
                             random_generic, scalar_to_complex)
from .elements import (GrassElement, Report, build_element,
                       check_comparison, check_integrability,
                       check_omission_relations, check_scale_invariance,
                       check_steinberg_wedge, flip_first_term,
                       integrability_residues, omission_residues,
                       scale_label, steinberg_wedge_sides)
from .errors import (BudgetError, ContractViolation, DegeneracyError,
                     PathError, PoleError)
from .forms import (TangentAssignment, dlog_eval, random_tangent,
                    tensor_slot_eval, wedge_eval, wedge_eval_graded)
from .iterint import (IterIntResult, PathSpec, homotopy_test,
                      iterate_element, iterate_word, iterate_words,
                      monodromy_probe, normalize_word, shuffle_test,
                      shuffles)
from .polylogs import (BranchedValue, aomoto_a1, bloch_wigner,
                       bloch_wigner_five_term, grassmannian_tate, l2g,
                       l2g_family_values, l2g_five_term, li2, li_n,
                       li_series, omit_cross_ratios, rogers_five_term,
                       rogers_l2, rogers_l2_closed_form, rogers_l2_slope)
from .tensors import (MultTensor, WedgeTensor, alt, bracket_symbol, equal,
                      tensor_of_slots, wedge_project)

__all__ = [
    "AomotoExpr", "AomotoGen", "additivity_residue", "coproduct",
    "coproduct_higher", "coproduct_weight2", "expand_to_tensor",
    "make_gen", "pairing_element", "pairing_element_labels",
    "Configuration", "GaussianRational", "as_scalar", "cross_ratio",
    "exact_det", "exact_rank", "random_generic", "scalar_to_complex",
    "GrassElement", "Report", "build_element", "check_comparison",
    "check_integrability", "check_omission_relations",
    "check_scale_invariance", "check_steinberg_wedge", "flip_first_term",
    "integrability_residues", "omission_residues", "scale_label",
    "steinberg_wedge_sides",
    "BudgetError", "ContractViolation", "DegeneracyError", "PathError",
    "PoleError",
    "TangentAssignment", "dlog_eval", "random_tangent", "tensor_slot_eval",
    "wedge_eval", "wedge_eval_graded",
    "IterIntResult", "PathSpec", "homotopy_test", "iterate_element",
    "iterate_word", "iterate_words", "monodromy_probe", "normalize_word",
    "shuffle_test", "shuffles",
    "BranchedValue", "aomoto_a1", "bloch_wigner", "bloch_wigner_five_term",
    "grassmannian_tate", "l2g", "l2g_family_values", "l2g_five_term",
    "li2", "li_n", "li_series", "omit_cross_ratios", "rogers_five_term",
    "rogers_l2", "rogers_l2_closed_form", "rogers_l2_slope",
    "MultTensor", "WedgeTensor", "alt", "bracket_symbol", "equal",
    "tensor_of_slots", "wedge_project",
]
