"""Exact arithmetic for Frobenius-lifting endomorphisms of P^N over k[[t]].

The package is organized bottom-up:

    poly      dense polynomials over small finite rings, powers and
              digits; Rabin's sieve
    field     finite fields F_(p^m) with explicit moduli; the packed digit
              layout and its kernels, which every element, series and
              tower element uses; row echelon form over F_q
    series    truncated power series k[[t]]/(t^prec) and the Galois action
    geometry  projective points and the Galois action on them,
              homogeneous polynomials, subvarieties
    dynamics  the structured map family, validation, orbits, composition;
              determinants over O_K
    twist     the semilinear equation B^(q) = A*B and map normalization;
              inverses over k
    returns   return sets and arithmetic-progression decompositions
    lifting   sigma-fixed lifts, witnesses, periods, invariance evidence
    instances JSON instance files and shipped fixtures
    cli       the frobdml command

The names exported here load on first use: ``import frobdml`` imports no
submodule, and ``frobdml.solve_twist`` imports ``frobdml.twist`` the first
time it is read.
"""
import importlib

_EXPORTS = {
    "errors": "DegreeMismatch DegreeOverflow DimensionMismatch DivisionByZero "
              "FieldMismatch FrobdmlError IndistinguishableFromZero "
              "NonCanonicalBasePoint NonConstantMatrix NonFlattenableExtension "
              "NonPrimeP NonUnitDivisor NotInImage NotInvertible ParseError "
              "PrecisionBelowThreshold PrecisionExhausted PrecisionTooLow "
              "PreconditionMatrixNotIdentityModT ReducibleModulus "
              "SearchExhausted UnsupportedQ ValidationFailure",
    "field": "FieldSpec FqElem format_element make_field parse_element",
    "series": "AtPrecisionZero TruncSeries format_series parse_series",
    "geometry": "HomogPoly ProjPoint Subvariety eval_hom format_poly point_galois "
                "point_variety proj_eq reduce_point",
    "dynamics": "ConditionsReport DmlMap GeneralMap NotInForm apply_map "
                "check_conditions compose_maps iterate_map orbit preimage_qp "
                "recognize_dml_form validate_map",
    "twist": "TwistSolution count_solutions_exhaustive normalize_conjugate solve_twist",
    "lifting": "SigmaFixedLift critical_witness detect_residue_degree "
               "invariance_evidence minimal_period sigma_fixed_lift",
    "returns": "APDecomposition ReturnSet ap_decompose decompose_oracle "
               "default_threshold return_set",
    "instances": "Instance fixture_path format_instance parse_instance "
                 "parse_twist_file render_instance",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
