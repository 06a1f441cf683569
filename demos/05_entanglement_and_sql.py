"""
Entanglement as the resource behind sub-SQL estimation
======================================================

The EPR variance sum tested by the Duan criterion at a = 1 is numerically the
same quantity as the scheme's summed variance, so beating the SQL requires an
entangled probe.  For symmetric probes the converse holds too; an asymmetric
probe shows entanglement alone is not enough.
"""

import numpy as np

from dispest import (asym_n2_threshold, duan_best, duan_check, make_tmst,
                     random_unsqueezed_two_mode, scheme_variance_propagated,
                     sql_beating_vs_entanglement)

# %% Symmetric probes: Duan at a = 1 is necessary and sufficient.
for r, N in [(0.3, 0.0), (0.4, 1.0), (0.8, 1.0)]:
    rep = sql_beating_vs_entanglement(r, N=N)
    print(f"r={r}, N={N}: E = {rep.variance_sum:.4f}  beats SQL: "
          f"{str(rep.beats_sql):5s}  Duan(a=1) flags entanglement: "
          f"{rep.duan_a1.entangled_sufficient}")

# %% The identity behind it: lhs(a=1) equals the scheme variance sum exactly.
st = make_tmst(0.6, 0.7)
print(f"\nlhs(a=1) = {duan_check(st, 1.0).lhs:.12f}")
print(f"scheme E = {scheme_variance_propagated(st):.12f}")

# %% Asymmetric probe with one vacuum input: entangled for every r > 0 (the
# optimized Duan witness certifies it), yet it stops beating the SQL once the
# hot mode passes a threshold.
r = 0.5
thr = asym_n2_threshold(r)
print(f"\nasymmetric probe at r = {r}: N2 threshold = {thr:.4f} "
      f"(closed form e^(2r) - 1 = {np.exp(2 * r) - 1:.4f})")
for n2 in (0.5 * thr, 2.0 * thr):
    rep = sql_beating_vs_entanglement(r, 0.0, n2)
    print(f"  N2 = {n2:.3f}: beats SQL: {str(rep.beats_sql):5s}  entangled "
          f"(optimized Duan, a* = {rep.duan_opt.a:+.3f}): "
          f"{rep.duan_opt.entangled_sufficient}")

# %% Necessity on random locally-unsqueezed probes: every state whose scheme
# variance sum dips below 2 is flagged entangled by Duan at a = 1.
rng = np.random.default_rng(0)
beating, flagged = 0, 0
for _ in range(2000):
    state = random_unsqueezed_two_mode(rng)
    if scheme_variance_propagated(state) < 2.0:
        beating += 1
        flagged += duan_check(state, 1.0).entangled_sufficient
print(f"\n{beating} of 2000 random probes beat the SQL; "
      f"{flagged} of those are Duan-entangled (expected: all)")
