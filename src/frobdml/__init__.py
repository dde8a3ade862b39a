"""Exact arithmetic for Frobenius-lifting endomorphisms of P^N over k[[t]].

The package is organized bottom-up:

    poly      dense polynomials and row echelon form over small finite
              rings; Rabin's sieve
    field     finite fields F_(p^m) with explicit moduli
    series    truncated power series k[[t]]/(t^prec) and the Galois action
    geometry  projective points, homogeneous polynomials, subvarieties
    dynamics  the structured map family, validation, orbits, composition
    twist     the semilinear equation B^(q) = A*B and map normalization
    lifting   sigma-fixed lifts, witnesses, periods
    returns   return sets and arithmetic-progression decompositions
    instances JSON instance files and shipped fixtures
    cli       the frobdml command
"""

from .errors import (DegreeMismatch, DegreeOverflow, DimensionMismatch,
                     DivisionByZero, FieldMismatch, FrobdmlError,
                     IndistinguishableFromZero, NonCanonicalBasePoint,
                     NonConstantMatrix, NonFlattenableExtension, NonPrimeP,
                     NonUnitDivisor, NotInImage, NotInvertible, ParseError,
                     PrecisionBelowThreshold, PrecisionExhausted,
                     PrecisionTooLow, PreconditionMatrixNotIdentityModT,
                     ReducibleModulus, ResidueDegreeUnknown, SearchExhausted,
                     UnsupportedQ, ValidationFailure)
from .field import FieldSpec, FqElem, format_element, make_field, parse_element
from .series import (AtPrecisionZero, GaloisAction, TruncSeries, format_series,
                     parse_series)
from .geometry import (HomogPoly, ProjPoint, Subvariety, eval_hom, format_poly,
                       point_variety, proj_eq, reduce_point)
from .dynamics import (ConditionsReport, DmlMap, GeneralMap, NotInForm,
                       apply_map, check_conditions, compose_maps,
                       iterate_map, orbit, preimage_qp, recognize_dml_form,
                       validate_map)
from .twist import (TwistSolution, count_solutions_exhaustive,
                    normalize_conjugate, solve_twist)
from .lifting import (SigmaFixedLift, critical_witness, detect_residue_degree,
                      invariance_evidence, minimal_period, point_galois,
                      sigma_fixed_lift)
from .returns import (APDecomposition, ReturnSet, ap_decompose,
                      decompose_oracle, default_threshold, return_set)
from .instances import (Instance, fixture_path, format_instance,
                        parse_instance, parse_twist_file, render_instance)

__version__ = "0.1.0"
