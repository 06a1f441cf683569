"""
Brute-force Fock oracle vs closed Gaussian forms
================================================

The truncated Fock-space oracle evaluates the spectral SLD sum and the RLD
trace formula directly on probes built in a truncated Fock space, over the
thermal-adjacent level pairs that the generators couple, so the RLD needs no
floor on the probe inverse.  This demo compares it entrywise against the
covariance-based closed forms on a small grid and shows how the truncation
is chosen.
"""

import numpy as np

from dispest import (PureStateError, build_probe_fock, gaussian_fisher,
                     make_tmst, moment_fock, rld_fisher_fock, sld_fisher_fock)

# %% Moments of the constructed probe match the Gaussian covariance entries.
probe = build_probe_fock("tmst", 0.5, 0.2)
cov = make_tmst(0.5, 0.2).cov
print(f"truncation chosen: dim = {probe.dim} per mode, "
      f"tail mass = {probe.tail_mass():.2e}")
print(f"<q1 q2>: oracle {moment_fock(probe, [('q', 0), ('q', 1)]).real:+.6f}  "
      f"covariance {cov[0, 2]:+.6f}")

# %% Fisher matrices, entrywise.
for r, N in [(0.3, 0.5), (0.8, 1.0)]:
    probe = build_probe_fock("tmst", r, N)
    fm = gaussian_fisher(make_tmst(r, N))
    H = sld_fisher_fock(probe)
    j_inv = np.linalg.inv(rld_fisher_fock(probe))
    print(f"r={r}, N={N}: |H - H_gauss| = {np.abs(H - fm.H).max():.2e}, "
          f"|Jinv - Jinv_gauss| = {np.abs(j_inv - fm.j_inv).max():.2e}")

# %% The RLD needs the probe inverse; pure probes are rejected.
try:
    rld_fisher_fock(build_probe_fock("tmst", 0.5, 0.0))
except PureStateError as err:
    print(f"pure probe: {err}")

# %% Truncation bookkeeping: the builder chooses the dimension from an analytic
# bound on the tail mass and checks the measured tail on the built probe; if
# the check fails it escalates until the tolerance holds, or reports the
# measured tail if it cannot.
probe = build_probe_fock("single", 1.0, 2.0)
print(f"hot squeezed thermal probe: analytic dim = {probe.dim}, "
      f"tail = {probe.tail_mass():.2e}")
