"""coxdesc: exact descent-algebra computations for finite Coxeter groups."""

from .coxeter import (
    CoxeterSpec,
    CoxeterSystem,
    ParabolicAtlas,
    build_group,
)
from .descent import (
    DescentElement,
    SpectrumReport,
    StructureConstants,
    ajkk_formula,
    ajkk_matrix,
    ajkk_matrix_bruteforce,
    action_matrix,
    class_sizes_from_A,
    multiply,
    spectrum,
    x_to_y,
    y_to_x,
)
from .errors import GroupTooLargeError, InvariantError
from .exact import Rational, cyclo_field, rational_from_string, rational_to_string
from .modular import DEFAULT_PRIMES, charpoly_mod
from .oracle import (
    GroupAlgebraElement,
    VerificationVerdict,
    convolve,
    expand,
    regular_rep,
    verify_lemma_same_spectrum,
    verify_spectrum,
)
from .subsets import bergeron_compare, bergeron_sorted, subset_from_name, subset_name

__version__ = "0.1.0"

__all__ = [
    "CoxeterSpec", "CoxeterSystem", "ParabolicAtlas", "build_group",
    "DescentElement", "SpectrumReport", "StructureConstants",
    "ajkk_formula", "ajkk_matrix", "ajkk_matrix_bruteforce", "action_matrix",
    "class_sizes_from_A", "multiply", "spectrum", "x_to_y", "y_to_x",
    "GroupTooLargeError", "InvariantError",
    "Rational", "cyclo_field", "rational_from_string", "rational_to_string",
    "DEFAULT_PRIMES", "charpoly_mod",
    "GroupAlgebraElement", "VerificationVerdict", "convolve", "expand",
    "regular_rep", "verify_lemma_same_spectrum", "verify_spectrum",
    "bergeron_compare", "bergeron_sorted", "subset_from_name", "subset_name",
    "__version__",
]
