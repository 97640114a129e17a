"""wordmaplab: exact verification of word-map agreement bounds.

The package measures how well word maps on finite groups can be matched by
homomorphisms and verifies, with exact rational arithmetic, the guaranteed
solution counts of the associated triple equations.  See the README for the
CLI and report formats.
"""

from .bounds import (BoundTriple, ceil_two_over, commuting_bound, f, f1, f2,
                     parse_rat, rat_str)
from .census import (CensusResult, CommutingReport, FiberStats, TheoremReport,
                     count_solutions_exact, estimate_solutions, fiber_stats,
                     power_equation_count, translate_counts,
                     verify_commuting_corollary, verify_theorem)
from .errors import BudgetExceededError
from .familycheck import (FamilyInstance, InfeasibleParametersError,
                          LemmaReport, adversarial_families, fuzz_instances,
                          load_family, random_family, save_family,
                          verify_lemma)
from .freeword import (Word, WordParseError, derived_word, invert,
                       is_nontrivial_derived, parse_word, reduce,
                       substitute)
from .group import (GroupSpecError, GroupTable, build, centralizer_size,
                    closure, commuting_probability, conjugacy_class_count,
                    is_abelian)
from .homset import (agreement_set, automorphisms, best_agreement,
                     endomorphisms, homs_power, power_agreement_profile)

__version__ = "0.1.0"

__all__ = [
    "BoundTriple", "ceil_two_over", "commuting_bound", "f", "f1", "f2",
    "parse_rat", "rat_str",
    "Word", "WordParseError", "parse_word", "reduce", "invert", "substitute",
    "derived_word", "is_nontrivial_derived",
    "GroupTable", "GroupSpecError", "build", "closure", "is_abelian",
    "centralizer_size", "commuting_probability", "conjugacy_class_count",
    "endomorphisms", "automorphisms", "homs_power", "agreement_set",
    "best_agreement", "power_agreement_profile",
    "CensusResult", "FiberStats", "TheoremReport", "CommutingReport",
    "fiber_stats", "count_solutions_exact", "estimate_solutions",
    "translate_counts", "verify_theorem", "verify_commuting_corollary",
    "power_equation_count",
    "FamilyInstance", "LemmaReport", "InfeasibleParametersError",
    "verify_lemma", "random_family", "fuzz_instances",
    "adversarial_families", "save_family", "load_family",
    "BudgetExceededError",
]
