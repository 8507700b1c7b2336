"""Exact arithmetic for monomial semigroup dynamics over the rationals.

Places and heights of Q, polynomial factorization, radical points and their
Galois orbits, canonical heights for map sequences, explicit linear-form
bounds and the S-integral finiteness scan.
"""

from .errors import MonodynError
from .exactreal import PosReal
from .places import INF, LogAbs, Place, height_rational, log_abs, product_formula_check
from .polynomials import UniPoly, cyclotomic_poly, newton_polygon_root_valuations
from .polyfactor import factor_poly
from .primes import euler_phi, factor_fraction, factorint, is_prime
from .radical import RadicalPoint
from .semigroup import MonomialMap, Semigroup, compose_word, good_reduction
from .orbits import is_preperiodic, orbit_tree, window_radius_exact
from .galois import ConjugacyClass, class_of_point, decompose_binomial_roots
from .preper import (CollisionBinomial, StructuredPreper, capelli_reducible,
                     collision_binomial, conjugates, degree_lower_bound,
                     enumerate_preperiodic, minimal_polynomial,
                     structure_decompose)
from .heights import (HeightEstimate, SequenceSpec, canonical_height_closed,
                      canonical_height_iterative, equilibrium_radius,
                      height_drift, height_lower_bound_nonpreperiodic,
                      jensen_check, witness_sequence_height)
from .bounds import (LinFormInstance, DistanceBoundCert, disc_count_check,
                     discrepancy_exact, distance_lower_bound, linform_bound,
                     linform_degree_constant, test_function_energy,
                     test_function_lipschitz, theta, unity_neighbor_count,
                     verify_linform)
from .scan import (GammaReport, ScanConfig, ScanReport, bad_primes,
                   gamma_decomposition, gamma_sum, is_S_integral,
                   meets_at_prime, run_scan)

__version__ = "0.1.0"
