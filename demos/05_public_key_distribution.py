"""Distributing quantum public keys, with and without a trusted center.

The public key is the coherent string encoding a private key; limited copy
counts keep the private key information-theoretically hidden.  This script
runs both distribution schemes honestly, then exercises the two cheating
scenarios: a sender trying to split the recipients' verdicts, and a
recipient trying to frame the sender.
"""

import numpy as np

from qcompare.lockkey import KeyString
from qcompare.pkd import (
    AliceCenterAttack,
    CharlieTamper,
    cheat_bound,
    distributed_exchange,
    simulate_dishonest_alice_center,
    simulate_dishonest_charlie,
    trusted_center_distribute,
    verify_against_private,
)

M, N, AMP, COPIES = 8, 8, 1.0, 3

print("=== trusted center: honest distribution ===")
key = KeyString(N, AMP, np.random.default_rng(5).integers(0, N, size=M))
pubkey = trusted_center_distribute(key, copies=COPIES)
print(f"  {COPIES} copies, all identical: {np.all(pubkey == pubkey[0])}")
for r in range(COPIES):
    result = verify_against_private(pubkey[r], key, security_s=0.5, rng=r)
    print(f"  recipient {r}: errors = {result.errors}, verdict = {result.verdict}")

print()
print("=== dishonest sender vs the verdict-splitting bound ===")
print("  positions  s*M   empirical split rate   bound (1/2)^(sM-1)")
for positions, s in [(1, 1.0 / M), (4, 4.0 / M), (10, 1.0)]:
    length = max(M, positions)
    stats = simulate_dishonest_alice_center(
        AliceCenterAttack(positions=positions, overlap=0.5),
        security_s=s, length=length, trials=200_000, rng=positions)
    print(f"  {positions:9d}  {s * length:4.0f}   {stats.disagreement_rate:12.5f}"
          f"         {stats.bound:.5f}")
print("  splitting the verdicts needs every error on one side: exponentially rare")

print()
print("=== no center: distributed comparison ===")
alpha = key.amplitudes()
parties = distributed_exchange([alpha.copy() for _ in range(COPIES)], rng=11)
for party in parties:
    print(f"  {party.name}: clicks = {int(party.clicks.sum())}, "
          f"recovered == sent: {np.allclose(party.held, alpha, atol=1e-12)}")
print("  the comparison multiports double as the recovery stage; honesty costs nothing")

print()
print("=== dishonest recipient trying to frame the sender ===")
print("  tamper            Bob rejects   Bob sees clicks")
for label, tamper in [
    ("none", CharlieTamper(kind="none")),
    ("phase 0.3 rad", CharlieTamper(kind="phase", value=0.3)),
    ("full flip", CharlieTamper(kind="flip")),
    ("vacuum", CharlieTamper(kind="vacuum")),
]:
    stats = simulate_dishonest_charlie(tamper, security_s=0.5, length=M,
                                       amplitude=AMP, trials=50_000, rng=13)
    print(f"  {label:16s}  {stats.bob_reject_rate:10.4f}   {stats.bob_detection_rate:10.4f}")
print("  any tamper strong enough to force a rejection floods Bob's comparison")
print(f"  detectors first; the sM = {0.5 * M:.0f} threshold keeps false frames at bay")

print()
print(f"=== the generic bound: cheat probability <= {cheat_bound(0.5, M):.4f} "
      f"at s = 0.5, M = {M} ===")
