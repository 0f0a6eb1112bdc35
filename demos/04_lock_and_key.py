"""The lock-and-key scheme: forging odds and information leakage.

A key is M coherent states with random phases from an N-point alphabet; the
lock is an identical string, and validation is position-wise comparison.
Two attack surfaces are quantified: guessing a key outright (exponentially
suppressed in M) and measuring a stolen copy (capped by the single-position
entropy, which saturates at log2 N).
"""

import math

import numpy as np

from qcompare.lockkey import (
    attack_pass_probability,
    forgery_string_probability,
    generate_key,
    holevo_entropy_finite,
    holevo_entropy_infinite,
    lock_test,
    lock_test_pass_rate,
    optimal_coherent_attack,
    stirling_entropy_approx,
)

M, N, AMP = 10, 8, 1.0
key = generate_key(M, N, AMP, rng=7)
print(f"=== a key: M = {M}, N = {N}, |alpha| = {AMP} ===")
print("  phase indices:", key.phases)

print()
print("=== the rightful key opens the lock ===")
result = lock_test(key, key.amplitudes(), rng=0)
print(f"  passed: {result.passed}, clicks: {result.clicks}")
print("  recovered == original:", np.allclose(result.recovered, key.amplitudes()))

print()
print("=== the best blind forgery ===")
print("  amp    best |beta|   single-position pass   whole-string pass (M=10)")
for amp in (0.5, 1.0, math.sqrt(2), 2.0, 5.0):
    best = optimal_coherent_attack(amp)
    p_string = forgery_string_probability(best.p_star, M)
    print(f"  {amp:5.3f}  {best.beta_star:9.4f}    {best.p_star:12.6f}        {p_string:.3e}")
print("  below amp = sqrt(2) the smartest forgery is no light at all; far above,")
print("  the pass probability decays like 1/(sqrt(2 pi) amp)")

print()
print("=== Monte Carlo: vacuum attack on the full string ===")
stats = lock_test_pass_rate(key, np.zeros(M), trials=200_000, rng=8)
analytic = attack_pass_probability(AMP, 0.0) ** M
print(f"  empirical pass rate {stats.rate:.5f} vs analytic {analytic:.5f}")

print()
print("=== what a stolen key copy reveals (bits per position) ===")
print("  |alpha|^2   N=2     N=4     N=8     phase-randomized   Stirling")
for amp_sq in (1.0, 4.0, 10.0, 25.0):
    amp = math.sqrt(amp_sq)
    row = [holevo_entropy_finite(amp, n).bits for n in (2, 4, 8)]
    print(f"  {amp_sq:8.1f}  {row[0]:6.3f}  {row[1]:6.3f}  {row[2]:6.3f}"
          f"       {holevo_entropy_infinite(amp).bits:6.3f}       "
          f"{stirling_entropy_approx(amp):6.3f}")
print("  each curve saturates at log2 N: a copy can never reveal more than the")
print("  alphabet holds, and small amplitudes reveal far less")
