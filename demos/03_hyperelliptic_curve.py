"""Walkthrough: local expansions at a Weierstrass point and the Fock-type
subalgebra of functions on the punctured curve.

Run with  python3 demos/03_hyperelliptic_curve.py
"""

import json

from focklab import (
    Derivation,
    KMinusVector,
    build_model,
    build_quotient,
    closure_falsifier,
    curve_fock_data,
    format_series,
    scalar_action,
    wzw_gram,
)

# y^2 = x^3 - x, expanded at the Weierstrass point over x = infinity with
# x = t^{-2}; u is the unit with y = t^{-3} u(t^2)^{-1}.
model = build_model([0, -1, 0, 1], genus=1, window=40)
print("u(t)   =", format_series(model.u, max_terms=5))
print("x(t)   =", format_series(model.x))
print("y(t)   =", format_series(model.y, max_terms=5))

data = curve_fock_data(model, degree_bound=8)
print("\nphi_-1 =", format_series(data.phis[-1], max_terms=5))
print("phi_1  =", format_series(data.phis[1], max_terms=5))

# The function algebra A_p is of Fock type; certify the machine-checkable
# conditions with the curve's tangent field 2y d/dx + f'(x) d/dy.
sub = data.subalgebra()
record = sub.certify(
    derivations={"tangent": model.tangent_field()},
    perp_reps=list(data.phis.values()),
)
print("\nFT certificates:", record["ft2"], "FT3:", record["ft3"])
print("FT4 (tangent field):", record["ft4"]["tangent"])

# The symplectic quotient has rank 2g with Gram i delta_{i+j,0}.
q = build_quotient(sub)
print("\nquotient lifts:")
print("  e_-1 =", format_series(q.neg_lifts[0], max_terms=4))
print("  e_1  =", format_series(q.pos_lifts[0], max_terms=4))
print("  Gram =", q.gram())

# K^- = A_p + span(phi_-1) is not multiplicatively closed: a certified witness,
# printed in the text grammar as the hyperelliptic suite records it.
print("\nnon-closure witness:", json.dumps(closure_falsifier(model, data), default=str))

# A vertical derivation preserving A_p acts on covariants by a scalar.
probes = [KMinusVector.vacuum(), KMinusVector({(("q", 1),): 1})]
print("covariant scalar of the tangent field:", scalar_action(model.tangent_field(), q, probes))

# The residue Gram of the connection operator, certified symmetric.
print("\nwzw Gram (D_2):          ", wzw_gram(model, Derivation.D(2)))
print("wzw Gram (tangent field):", wzw_gram(model, model.tangent_field()))
