"""The truncated number-basis simulator, and what it certifies.

Everything analytic in this package can be replayed photon by photon: the
oracle expands states in the number basis with a hard cutoff and applies the
beam splitter exactly inside each total-photon-number block.  This script
uses it to verify the coherent-state transformation, to compare squeezed
vacua by parity, and to exhibit the entangled states that always pass.
"""

import numpy as np

from qcompare.linear import CoherentRegister, apply_network, make_beam_splitter
from qcompare.fock import (
    apply_bs_fock,
    coherent_fock,
    fidelity,
    odd_photon_probability,
    photon_distribution,
    product_state,
    squeezed_pass_state,
    squeezed_vacuum_fock,
    su2_pass_state,
)

CUTOFF = 40

print("=== oracle vs analytic amplitudes ===")
alpha, beta = 1.1, 0.4 - 0.6j
joint = product_state(coherent_fock(alpha, CUTOFF), coherent_fock(beta, CUTOFF))
evolved = apply_bs_fock(joint, 0.5)
gamma = apply_network(make_beam_splitter(0.5), CoherentRegister([alpha, beta])).amplitudes
target = product_state(coherent_fock(gamma[0], CUTOFF), coherent_fock(gamma[1], CUTOFF))
print(f"  fidelity(oracle, analytic) = {fidelity(evolved, target):.15f}")
print(f"  truncation deficit in/out  = {max(0.0, joint.deficit):.2e} / "
      f"{max(0.0, evolved.deficit):.2e}")

print()
print("=== squeezed vacua compared by photon parity ===")
sq, norm_const = squeezed_vacuum_fock(0.2, CUTOFF)
print(f"  squeezed vacuum xi = 0.2: normalization {norm_const:.6f}, "
      f"odd-number amplitudes all zero: {np.all(sq.amps[1::2] == 0)}")
print("  xi1    xi2    P(odd count after splitter)")
for xi1, xi2 in [(0.2, 0.2), (0.2, 0.1), (0.2, -0.2), (0.3, 0.25)]:
    print(f"  {xi1:5.2f}  {xi2:5.2f}  {odd_photon_probability(xi1, xi2, CUTOFF):.3e}")
print("  equal squeezing gives even counts only; an odd photon certifies xi1 != xi2")

print()
print("=== states that always pass the comparison ===")
for n in (1, 2, 3):
    state = su2_pass_state(n, 12)
    after = apply_bs_fock(state, 0.5)
    dist = photon_distribution(after, 1)
    print(f"  binomial-entangled n={n}: P(photons in the difference mode) = "
          f"{max(0.0, 1 - dist[0]):.2e}")
state = squeezed_pass_state(2, 2, 16)
after = apply_bs_fock(state, 0.5)
probs = np.abs(after.amps) ** 2
print(f"  squeezed pass state (m,n)=(2,2): odd-count probability after splitter = "
      f"{max(0.0, probs.sum() - probs[0::2, 0::2].sum()):.2e}")
print("  entangled inputs can fool the test, which is why key positions are")
print("  tested one by one against independently random phases")
