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
                          load_family, random_family, verify_lemma)
from .freeword import (Word, WordParseError, derived_word, invert, parse_word,
                       reduce, substitute)
from .group import (GroupSpecError, GroupTable, build, closure,
                    commuting_probability)
from .homset import best_agreement, endomorphisms, homs_power

__version__ = "0.1.0"

__all__ = [
    "BoundTriple", "ceil_two_over", "commuting_bound", "f", "f1", "f2",
    "parse_rat", "rat_str",
    "Word", "WordParseError", "parse_word", "reduce", "invert", "substitute",
    "derived_word",
    "GroupTable", "GroupSpecError", "build", "closure",
    "commuting_probability",
    "endomorphisms", "homs_power", "best_agreement",
    "CensusResult", "FiberStats", "TheoremReport", "CommutingReport",
    "fiber_stats", "count_solutions_exact", "estimate_solutions",
    "translate_counts", "verify_theorem", "verify_commuting_corollary",
    "power_equation_count",
    "FamilyInstance", "LemmaReport", "InfeasibleParametersError",
    "verify_lemma", "random_family", "fuzz_instances",
    "adversarial_families", "load_family",
    "BudgetExceededError",
]
