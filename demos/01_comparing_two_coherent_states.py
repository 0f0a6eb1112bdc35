"""Comparing two coherent states with a single balanced beam splitter.

A 50/50 splitter maps |alpha>|beta> to |(alpha+beta)/sqrt(2)>|(alpha-beta)/sqrt(2)>.
Equal inputs leave the second output dark, so *any* photon there is an
unambiguous "the states were different".  This script walks through the
transformation, the closed-form success probability, a Monte Carlo check with
realistic detectors, and the non-demolition recovery of untouched inputs.
"""

from qcompare import (
    CoherentRegister,
    DetectorModel,
    apply_network,
    make_beam_splitter,
    p_success_two,
    p_success_universal,
    run_trials,
)

bs = make_beam_splitter(0.5)

print("=== the transformation ===")
for alpha, beta in [(0.8, 0.8), (0.8, -0.8), (1.0, 0.3 + 0.4j)]:
    out = apply_network(bs, CoherentRegister([alpha, beta]))
    print(f"  ({alpha}, {beta}) -> ({out.amplitudes[0]:.4f}, {out.amplitudes[1]:.4f})")

print()
print("=== success probability vs the universal baseline ===")
print("  |a-b|    beam splitter   universal (symmetry test)")
for d in (0.5, 1.0, 2.0, 3.0):
    p_bs = p_success_two(d / 2, -d / 2)
    p_univ = p_success_universal([d / 2, -d / 2])
    print(f"  {d:4.1f}      {p_bs:8.5f}        {p_univ:8.5f}")
print("  the universal strategy saturates at 1/2; the splitter reaches 1")

print()
print("=== Monte Carlo with detectors ===")
reg = CoherentRegister([1.0, -1.0])
for label, model in [
    ("ideal", DetectorModel()),
    ("eta = 0.6", DetectorModel(efficiency=0.6)),
    ("dark mean 0.01", DetectorModel(dark_mean=0.01)),
]:
    stats = run_trials(reg, bs, watched_modes=[1], model=model, trials=100_000, rng=1)
    low, high = stats.wilson
    print(f"  {label:15s} empirical rate {stats.rate:.4f}  95% CI [{low:.4f}, {high:.4f}]")
print("  inefficiency only lowers the rate; dark counts would also fire on equal inputs,")
print("  which is why they are the one imperfection that breaks the unambiguous verdict")

print()
print("=== non-demolition recovery ===")
alpha = 0.7 + 0.2j
first = apply_network(bs, CoherentRegister([alpha, alpha]))
second = apply_network(bs, first)
print(f"  input ({alpha}, {alpha})")
print(f"  after compare + undo: ({second.amplitudes[0]:.4f}, {second.amplitudes[1]:.4f})")
print("  a silent test on equal inputs hands the original states back")
