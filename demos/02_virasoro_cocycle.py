"""Walkthrough: the oscillator algebra of R((t)) and the Virasoro cocycle.

Run with  python3 demos/02_virasoro_cocycle.py
"""

from focklab import (
    Derivation,
    LaurentSeries,
    OscFockVector,
    tau_hat_Dk,
    virasoro_bracket,
)
from focklab.oscillator import series_multiply

# tau_hat(D_k) is the normally ordered quadratic operator of the derivation
# D_k = t^{k+1} d/dt; it acts exactly on any vector of bounded grade.
v = OscFockVector.basis((-2, -1))
print("v =", v)
print("tau_hat(D_0) v =", tau_hat_Dk(0).apply(v), "  (minus the energy operator)")
print("tau_hat(D_1) v =", tau_hat_Dk(1).apply(v))
print("tau_hat(D_-2) v_0 =", tau_hat_Dk(-2).apply(OscFockVector.vacuum()))

# The module commutator with a multiplication operator is the derivative.
f, v0, op = LaurentSeries.t_power(-3), OscFockVector.vacuum(), tau_hat_Dk(2)
print("\n[tau_hat(D_2), t^-3] v_0 =", op.apply(series_multiply(f, v0)) - series_multiply(f, op.apply(v0)))
print("D_2(t^-3) v_0          =", series_multiply(Derivation.D(2).apply(f), v0))

# Brackets close up to the central term (k^3 - k)/12 delta_{k+l,0};
# virasoro_bracket certifies the identity on every basis vector of the
# requested grade and returns the certified operator with its central scalar.
for k, l in [(1, -1), (2, -2), (3, -3), (4, -4)]:
    op, central = virasoro_bracket(k, l, probe_grade=6)
    print(f"[tau_hat(D_{k}), tau_hat(D_{l})] = ({l - k})*tau_hat(D_0) + {central}*id")
