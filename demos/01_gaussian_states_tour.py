"""
Gaussian states and the double-homodyne circuit
===============================================

A walk through the covariance-matrix toolbox: thermal and squeezed states,
displacement, the balanced beam splitter, and the homodyne marginals that the
estimation scheme actually measures.
"""

import numpy as np

from dispest import (beamsplit_balanced, displace, homodyne_marginal,
                     heterodyne_outcome_cov, make_thermal, make_tmst, vacuum)

np.set_printoptions(precision=4, suppress=True)

# %% Thermal states: cov = (2N+1)/2 * identity, purity 1/(2N+1)^modes
for N in (0.0, 0.5, 1.0):
    st = make_thermal(N, 1)
    print(f"thermal N={N}: Var(q) = {st.cov[0, 0]:.3f}, purity = {st.purity:.3f}")

# %% A two-mode squeezed thermal state stores its correlations in the
# off-diagonal covariance block: q1 + q2 and p1 - p2 are squeezed.
r, N = 0.8, 0.3
probe = make_tmst(r, N)
print("\nTMST covariance (r=0.8, N=0.3):")
print(probe.cov)
u_var = probe.cov[0, 0] + probe.cov[2, 2] + 2 * probe.cov[0, 2]
print(f"Var(q1 + q2) = {u_var:.4f} = (2N+1)e^(-2r) = "
      f"{(2 * N + 1) * np.exp(-2 * r):.4f}")

# %% Displace mode 0 by the unknown parameters and mix on the beam splitter.
# The output factorizes: mode 0 is p-squeezed, mode 1 is q-squeezed, and both
# means carry the displacement divided by sqrt(2).
q0, p0 = 1.2, -0.7
out = beamsplit_balanced(displace(probe, 0, q0, p0), (0, 1))
print("\ninter-mode covariance block after the beam splitter "
      f"(max |entry| = {np.abs(out.cov[:2, 2:]).max():.2e})")
print("output means:", out.mean, "  vs (q0, p0)/sqrt(2) =",
      np.array([q0, p0, q0, p0]) / np.sqrt(2))

mean_p, var_p = homodyne_marginal(out, 0, "p")
mean_q, var_q = homodyne_marginal(out, 1, "q")
print(f"\nhomodyne p on mode 0: mean {mean_p:.4f}, var {var_p:.4f}")
print(f"homodyne q on mode 1: mean {mean_q:.4f}, var {var_q:.4f}")
print(f"scaled estimator variances sum to 2(2N+1)e^(-2r) = "
      f"{2 * (var_p + var_q):.4f}")

# %% Heterodyne on a single mode adds one vacuum unit of noise per quadrature;
# for the vacuum probe the outcome covariance is the identity, variance sum 2.
print("\nheterodyne outcome covariance of the vacuum probe:")
print(heterodyne_outcome_cov(vacuum(1), 0))
