"""Comparing N coherent states at once on a balanced multiport.

The N-port discrete-Fourier network bunches identical inputs into output
mode 0 and leaves modes 1..N-1 dark, so a photon in any nonzero mode proves
the inputs were not all equal.  The success probability has three equivalent
closed forms, and it always beats the input-agnostic symmetric-subspace test.
"""

import numpy as np

from qcompare.linear import CoherentRegister, apply_network, make_balanced_multiport
from qcompare.detection import run_trials
from qcompare.comparison import compare_report, multiport_success_forms, p_success_multiport

print("=== bunching of identical inputs (N = 4) ===")
net = make_balanced_multiport(4)
out = apply_network(net, CoherentRegister([0.5] * 4))
print("  outputs:", np.round(out.amplitudes, 12))

print()
print("=== one mismatched input lights up the dark modes ===")
out = apply_network(net, CoherentRegister([0.5, 0.5, 0.5, -0.5]))
print("  output means:", np.round(out.mode_means(), 6))

print()
print("=== three routes to the same success probability ===")
amps = [1.0, 1.0, -1.0]
pairwise, per_mode, overlap_product = multiport_success_forms(amps)
print(f"  pairwise-difference form : {pairwise:.12f}")
print(f"  per-mode vacuum product  : {per_mode:.12f}")
print(f"  overlap-product form     : {overlap_product:.12f}")

print()
print("=== always ahead of the universal strategy ===")
report = compare_report(amps)
print(f"  p_succ (multiport) = {report.p_succ_coherent:.6f}")
print(f"  p_succ (universal) = {report.p_succ_universal:.6f}")
amgm = report.amgm
print(f"  failure probabilities: {amgm.lhs:.6f} <= {amgm.rhs:.6f}  (holds: {amgm.holds})")
print("  the multiport failure probability is the geometric mean of the same")
print("  permutation terms whose arithmetic mean the symmetry test fails with")

print()
print("=== Monte Carlo cross-check (N = 3) ===")
amps3 = [0.9, -0.3 + 0.4j, 0.1]
stats = run_trials(CoherentRegister(amps3), make_balanced_multiport(3),
                   watched_modes=[1, 2], trials=100_000, rng=3)
print(f"  empirical difference rate {stats.rate:.4f} vs analytic "
      f"{p_success_multiport(amps3):.4f}")
