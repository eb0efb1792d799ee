from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
# the decoder-equivalence property at depth, for CI on every Python:
#   pytest --hypothesis-profile decoder tests/test_fields.py::test_fast_decode_matches_element
settings.register_profile(
    "decoder",
    max_examples=2000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the exhaustive check against brute force on many drawn maps, the
# radical's closed form per column against the determinant scan, `det`
# against the defining routes, the sweep against elimination, elimination
# on residues against exact elimination, `lambda_coeffs`
# against column substitution, and the defining routes and their integer
# `det_square` against the oracles, and the symbolic sweep's product bound
# against a reference count, for CI on every Python:
#   pytest --hypothesis-profile exhaustive tests/test_exhaustive.py::test_exhaustive_equals_brute_force_on_drawn_maps
#   pytest --hypothesis-profile exhaustive tests/test_lambdapoly.py::test_one_column_scan_equals_determinants
#   pytest --hypothesis-profile exhaustive tests/test_kernel.py::test_det_equals_every_defining_route_and_the_oracle
#   (and ::test_sweep_and_elimination_agree_on_integers,
#   ::test_residue_elimination_equals_exact_elimination,
#   ::test_lambda_coeffs_equals_column_substitution_and_evaluation)
#   pytest --hypothesis-profile exhaustive tests/test_determinant.py::test_det_square_equals_the_leibniz_sum
#   (and ::test_each_route_equals_the_oracle_with_the_fields_value_type)
#   pytest --hypothesis-profile exhaustive tests/test_sympoly.py::test_product_bound_is_at_least_the_products_made
settings.register_profile(
    "exhaustive",
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the argument-vector fuzz of the map constructors and the document fuzz of
# make-two-sided and factor, for CI on every Python:
#   pytest --hypothesis-profile cli tests/test_cli.py::test_fuzz_construction_arguments
#   (and ::test_fuzz_make_two_sided_documents, ::test_fuzz_factor_documents)
settings.register_profile(
    "cli",
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
