"""Exact computation of pushforward decompositions of line bundles under
finite toric endomorphisms, with Cox-ring machinery and independent
verification oracles."""

from .cox import (CoxEndomorphism, CoxRing, contracting_exponent, cox_ring,
                  graded_dimension, induced_cox_endo, module_shifts,
                  pic_coset_decomposition, rank_bookkeeping)
from .divisors import (PicLattice, Positivity, class_group, h0, h0_class,
                       is_projective, positivity)
from .endos import (ToricEndomorphism, build_endo, compose, degree,
                    is_int_amplified, multiplication_endo, pullback_divisor,
                    pullback_matrix)
from .errors import (EndoError, FanError, InputError, LatticeError,
                     ToricError, VerificationError)
from .fans import (Fan, FanReport, hirzebruch, product_fan, projective_space,
                   validate_fan)
from .lattice import (IntMatrix, SnfResult, coset_representatives,
                      smith_normal_form)
from .pushforward import (Decomposition, VerificationReport,
                          decompose_pushforward, iterate_coherence,
                          verify_decomposition)

__version__ = "0.1.0"

__all__ = [
    "CoxEndomorphism", "CoxRing", "Decomposition", "EndoError", "Fan",
    "FanError", "FanReport", "InputError", "IntMatrix", "LatticeError",
    "PicLattice", "Positivity", "SnfResult", "ToricEndomorphism",
    "ToricError", "VerificationError", "VerificationReport", "build_endo",
    "class_group", "compose", "contracting_exponent",
    "coset_representatives", "cox_ring",
    "decompose_pushforward", "degree", "graded_dimension",
    "h0", "h0_class", "hirzebruch", "induced_cox_endo", "is_int_amplified",
    "is_projective", "iterate_coherence", "module_shifts",
    "multiplication_endo", "pic_coset_decomposition", "positivity",
    "product_fan", "projective_space", "pullback_divisor", "pullback_matrix",
    "rank_bookkeeping", "smith_normal_form", "validate_fan",
    "verify_decomposition",
]
