import contextlib
import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from qcompare import pkd
from qcompare.detection import Estimate, bernoulli_counts, click_probabilities, stream
from qcompare.domain import BLOCK_ENTRIES, CHUNK_ROWS, WORK_BUDGET
from qcompare.errors import InvariantError
from qcompare.lockkey import KeyString, generate_key
from qcompare.pkd import (
    ACCEPT,
    REJECT,
    TRIAL_COLUMNS,
    UNSURE,
    VERDICTS,
    AliceCenterAttack,
    CharlieTamper,
    ProtocolTranscript,
    TrialTable,
    _exchange_outputs,
    _split_verdicts,
    cheat_bound,
    coherent_with_overlap,
    distributed_exchange,
    run_center_protocol,
    run_distributed_protocol,
    simulate_dishonest_alice_center,
    simulate_dishonest_charlie,
    trusted_center_distribute,
    verdicts,
    verify_against_private,
)
from support import three_sigma, traced_peak

RNG = np.random.default_rng(2718)


class TestTrustedCenter:
    def test_single_copy_is_identity(self):
        phases = [0, 3, 1]
        pub = trusted_center_distribute(KeyString(4, 1.0, phases), copies=1)
        assert np.allclose(pub[0], KeyString(4, 1.0, phases).amplitudes())

    def test_copies_identical_with_unit_magnitude(self):
        phases = RNG.integers(0, 8, size=6)
        pub = trusted_center_distribute(KeyString(8, 1.0, phases), copies=4)
        assert pub.shape == (4, 6)
        assert np.all(pub == pub[0])
        assert np.allclose(np.abs(pub), 1.0, atol=1e-12)
        assert np.allclose(pub, KeyString(8, 1.0, phases).amplitudes()[None, :], atol=1e-12)
        with pytest.raises(ValueError):  # read-only
            pub[0, 0] = 0.0

    def test_copies_are_one_read_only_view_of_the_key(self):
        # np.tile held T M amplitudes; every copy is the key string, held once.
        key = KeyString(8, 1.0, [0, 3, 5, 1])
        pub = trusted_center_distribute(key, copies=1000)
        assert pub.shape == (1000, 4) and pub.strides == (0, pub.itemsize)
        assert not pub.flags.writeable
        assert pub[999].tolist() == key.amplitudes().tolist()

    def test_energy_conservation(self):
        copies = 4
        amp = 1.3
        pub = trusted_center_distribute(KeyString(4, amp, [0, 1]), copies=copies)
        per_copy = np.sum(np.abs(pub) ** 2, axis=1)
        total_in = copies * 2 * amp**2  # |sqrt(T) alpha_j|^2 summed over positions
        assert np.sum(per_copy) == pytest.approx(total_in, rel=1e-12)

    def test_invalid_copy_count(self):
        with pytest.raises(ValueError):
            trusted_center_distribute(KeyString(4, 1.0, [0]), copies=0)


class TestVerification:
    def test_honest_copy_yields_zero_errors(self):
        phases = RNG.integers(0, 8, size=10)
        pub = trusted_center_distribute(KeyString(8, 1.0, phases), copies=2)
        for seed in range(10):
            result = verify_against_private(pub[0], KeyString(8, 1.0, phases),
                                            security_s=0.5, rng=seed)
            assert result.errors == 0
            assert result.verdict == "accept"

    @pytest.mark.parametrize("amp", [1e16, 1e20, 1e30])
    @pytest.mark.parametrize("copies", [2, 3])
    def test_honest_copy_verifies_at_large_amplitude(self, amp, copies):
        # Each copy is the key string itself: no eps * amp residue to test.
        phases = [0, 3, 5, 1, 7, 2]
        pub = trusted_center_distribute(KeyString(8, amp, phases), copies=copies)
        for r in range(copies):
            result = verify_against_private(pub[r], KeyString(8, amp, phases), 0.5, rng=r)
            assert (result.errors, result.verdict) == (0, "accept")

    # verify_against_private counts one trial of independent incorrect outcomes
    # (test_draw_matches_a_direct_uniform_table); bernoulli_counts draws the
    # same count's distribution, so the two tests below draw all their trials at once.
    def test_half_overlap_position_splits_evenly(self):
        phases = [0] * 4
        amp = 1.0
        target = KeyString(8, amp, phases).amplitudes()
        held = target.copy()
        held[0] = coherent_with_overlap(held[0], 0.5)
        trials = 100_000
        errors = bernoulli_counts(click_probabilities(np.abs(held - target) ** 2), trials, 17)
        assert set(np.unique(errors)) <= {0, 1}
        rate = np.count_nonzero(errors) / trials
        assert abs(rate - 0.5) < three_sigma(0.5, trials)

    def test_wrong_phase_error_probability(self):
        amp, n_phases = 2.0, 4
        claimed = [1]
        held = KeyString(n_phases, amp, [0]).amplitudes()
        target = KeyString(n_phases, amp, claimed).amplitudes()
        expected = 1.0 - math.exp(-abs(held[0] - target[0]) ** 2)
        trials = 50_000
        p_incorrect = click_probabilities(np.abs(held - target) ** 2)
        errs = int(bernoulli_counts(p_incorrect, trials, 0).sum())
        assert abs(errs / trials - expected) < three_sigma(expected, trials)

    def test_draw_matches_a_direct_uniform_table(self):
        # trial_clicks reads one uniform per position, as the former
        # ``gen.random(M) < p`` table did: same errors, same next draw.
        from qcompare.detection import stream

        phases = [0, 3, 5, 1, 7, 2]
        target = KeyString(8, 1.0, phases).amplitudes()
        held = target + np.array([0.0, 0.3, 0.8j, 1.2, -0.5 + 0.5j, 2.0])
        p_incorrect = 1.0 - np.exp(-np.abs(held - target) ** 2)
        for seed in range(300):
            gen, reference = stream(seed), stream(seed)
            result = verify_against_private(held, KeyString(8, 1.0, phases), 0.5, rng=gen)
            assert result.errors == np.count_nonzero(reference.random(held.size) < p_incorrect)
            assert gen.random() == reference.random()

    def test_non_integer_phase_index_rejected(self):
        with pytest.raises(ValueError, match="phase index"):
            KeyString(4, 1.0, [0, 1.5]).amplitudes()
        assert np.array_equal(KeyString(4, 1.0, [0.0, 2.0]).amplitudes(),
                              KeyString(4, 1.0, [0, 2]).amplitudes())

    def test_verdict_thresholds(self):
        codes = verdicts(np.array([0, 3, 5, 7]), 0.5, 10)
        assert [VERDICTS[c] for c in codes] == ["accept", "unsure", "reject", "reject"]
        # s M = 7.000000000000001: seven errors are not enough, whatever the count dtype.
        for dtype in (np.uint8, np.int64):
            codes = verdicts(np.array([0, 7, 8], dtype=dtype), 0.28, 25)
            assert codes.dtype == np.uint8
            assert [VERDICTS[c] for c in codes] == ["accept", "unsure", "reject"]
        with pytest.raises(ValueError):
            verdicts(1, 0.0, 10)
        with pytest.raises(ValueError):
            verdicts(np.array([1, 2]), 1.5, 10)

    def test_overlap_constructor(self):
        alpha = 0.7 + 0.2j
        beta = coherent_with_overlap(alpha, 0.5)
        assert math.exp(-abs(beta - alpha) ** 2) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("alpha", [math.nan, complex(0.0, math.nan), math.inf, 1e101])
    def test_overlap_constructor_rejects_alpha_outside_the_domain(self, alpha):
        # A NaN alpha came back as a NaN amplitude.
        with pytest.raises(ValueError, match="alpha must be finite"):
            coherent_with_overlap(alpha, 0.5)

    def test_overlap_constructor_rejects_several_amplitudes(self):
        # coherent_with_overlap([1.0, 7.0], 0.5) returned 1.83, ignoring the 7.
        with pytest.raises(ValueError, match="alpha must be a single complex number"):
            coherent_with_overlap([1.0, 7.0], 0.5)


def where_verdicts(errors, security_s, length):
    """Reference: the two-``np.where`` rule that ``verdicts`` computed before its code arithmetic."""
    errors = np.asarray(errors)
    reject_at = math.ceil(security_s * length)
    code = np.uint8
    return np.where(errors == 0, code(ACCEPT),
                    np.where(errors >= reject_at, code(REJECT), code(UNSURE)))


class TestVerdictProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(dtype=st.sampled_from([np.uint8, np.uint16, np.int64]),
           s=st.floats(0.0, 1.0, exclude_min=True), length=st.integers(0, 300), data=st.data())
    @example(dtype=np.uint8, s=1.0, length=300, data=None)  # a threshold no uint8 count reaches
    @example(dtype=np.uint8, s=0.001, length=5, data=None)  # s M < 1: one error rejects
    @example(dtype=np.int64, s=0.5, length=0, data=None)  # threshold 0
    def test_property_equals_the_where_rule_and_is_monotone(self, dtype, s, length, data):
        top = int(np.iinfo(dtype).max)
        if data is None:
            errors = np.array([0, 1, 2, top, 5, 255, 0], dtype=dtype)
        else:
            count = st.one_of(st.integers(0, min(top, 2 * length + 2)), st.just(top))
            errors = np.array(data.draw(st.lists(count, max_size=300)), dtype=dtype)
        codes = verdicts(errors, s, length)
        assert codes.dtype == np.uint8 and codes.shape == errors.shape
        np.testing.assert_array_equal(codes, where_verdicts(errors, s, length))
        ordered = codes[np.argsort(errors, kind="stable")]
        assert np.all(ordered[1:] >= ordered[:-1])  # more errors never soften the verdict
        for e in errors[:3].tolist():
            assert verdicts(e, s, length) == where_verdicts(e, s, length)

    def test_split_verdicts_on_every_code_pair(self):
        a, b = np.array(list(itertools.product(range(3), repeat=2)), dtype=np.uint8).T
        reference = ((a == ACCEPT) & (b == REJECT)) | ((b == ACCEPT) & (a == REJECT))
        np.testing.assert_array_equal(_split_verdicts(a, b), reference)
        assert np.count_nonzero(reference) == 2


class TestDishonestAlice:
    def test_single_position_splits_with_probability_half(self):
        attack = AliceCenterAttack(positions=1, overlap=0.5)
        stats = simulate_dishonest_alice_center(attack, security_s=1.0, length=1,
                                                trials=100_000, rng=4)
        assert stats.bound == 1.0
        assert abs(stats.disagreement_rate - 0.5) < three_sigma(0.5, stats.split.trials)

    def test_bound_respected_at_sm_ten(self):
        attack = AliceCenterAttack(positions=10, overlap=0.5)
        stats = simulate_dishonest_alice_center(attack, security_s=1.0, length=10,
                                                trials=1_000_000, rng=5)
        assert stats.bound == pytest.approx(2.0**-9)
        assert stats.disagreement_rate <= stats.bound

    def test_honest_sender_never_splits(self):
        attack = AliceCenterAttack(positions=0)
        stats = simulate_dishonest_alice_center(attack, security_s=0.5, length=10,
                                                trials=10_000, rng=6)
        assert stats.disagreement_rate == 0.0

    def test_error_placement_is_uniform(self):
        attack = AliceCenterAttack(positions=1, overlap=0.5)
        stats = simulate_dishonest_alice_center(attack, security_s=1.0, length=1,
                                                trials=100_000, rng=7)
        n_b, n_c = stats.errors_to_bob, stats.errors_to_charlie
        statistic = (n_b - n_c) ** 2 / (n_b + n_c)
        assert chi2.sf(statistic, df=1) > 0.01

    @pytest.mark.parametrize("sigmas,raises", [(3.5, True), (2.9, False)],
                             ids=["beyond", "inside"])
    def test_rate_past_the_bound_by_three_sigma_is_an_invariant_error(self, sigmas, raises,
                                                                       monkeypatch):
        # The seeded rate, about 2 * 0.9 * 0.1 = 0.18, against a bound `sigmas` standard
        # errors below it.  A sigma taken from 2 - rate would be 1.49 times too wide.
        attack, trials = AliceCenterAttack(positions=1, overlap=0.9), 10_000
        rate = simulate_dishonest_alice_center(attack, 1.0, 1, trials, rng=8).disagreement_rate
        bound = rate - sigmas * math.sqrt(rate * (1.0 - rate) / trials)
        monkeypatch.setattr(pkd, "cheat_bound", lambda security_s, length: bound)
        with (pytest.raises(InvariantError, match="beyond 3 sigma") if raises
              else contextlib.nullcontext()):
            simulate_dishonest_alice_center(attack, 1.0, 1, trials, rng=8)

    def test_attack_validation(self):
        with pytest.raises(ValueError):
            AliceCenterAttack(positions=-1)
        with pytest.raises(ValueError):
            simulate_dishonest_alice_center(AliceCenterAttack(positions=5), 1.0, 3,
                                            trials=10, rng=0)

    @pytest.mark.parametrize("args, message", [
        # s M = 0.5: it raised only after drawing all 10^7 trials (0.44 s).
        ((AliceCenterAttack(1), 0.05, 10, 10**7), "s \\* length must be at least 1"),
        ((AliceCenterAttack(1), 1.5, 10, 10), "security parameter s"),
        ((AliceCenterAttack(1), 1.0, 0, 10), "key length"),
        ((AliceCenterAttack(10**8), 1.0, 10**8, 10), "WORK_BUDGET"),
    ], ids=["sub-unit-sm", "s", "length", "oversized"])
    def test_rejected_before_anything_is_drawn(self, args, message):
        gen, ref = stream(9), stream(9)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            simulate_dishonest_alice_center(*args, rng=gen)
        assert time.perf_counter() - start < 0.1
        assert gen.random() == ref.random()


def one_shot_alice_center(attack, security_s, length, trials, gen):
    """Reference: both recipients' error columns drawn whole by the trial engine, then reduced."""
    p_inc = np.full(attack.positions, 1.0 - attack.overlap)
    e_bob = bernoulli_counts(p_inc, trials, gen)
    e_charlie = bernoulli_counts(p_inc, trials, gen)
    split = _split_verdicts(verdicts(e_bob, security_s, length),
                            verdicts(e_charlie, security_s, length))
    return int(np.count_nonzero(split)), int(e_bob.sum()), int(e_charlie.sum())


class TestDishonestAliceStreamed:
    # (attack, s, M): a rare split (s M = 10, all positions attacked) and a common one.
    CASES = [(AliceCenterAttack(positions=10, overlap=0.5), 1.0, 10),
             (AliceCenterAttack(positions=2, overlap=0.3), 0.5, 4)]

    @pytest.mark.parametrize("trials", [BLOCK_ENTRIES - 1, BLOCK_ENTRIES, BLOCK_ENTRIES + 1,
                                        2 * BLOCK_ENTRIES + 1])
    def test_blocks_equal_one_shot_columns(self, trials):
        for seed in (0, 1, 2):
            attack, s, m = self.CASES[seed % 2]
            gen, ref = stream(seed), stream(seed)
            stats = simulate_dishonest_alice_center(attack, s, m, trials, rng=gen)
            successes, to_bob, to_charlie = one_shot_alice_center(attack, s, m, trials, ref)
            assert stats.split == Estimate(successes, trials)
            assert (stats.errors_to_bob, stats.errors_to_charlie) == (to_bob, to_charlie)
            assert gen.random() == ref.random()

    def test_million_trials_in_bounded_memory(self):
        # Two int64 error columns and their verdict temporaries took 41 MB.
        attack, s, m = self.CASES[0]
        stats, peak = traced_peak(simulate_dishonest_alice_center, attack, s, m, 10**6, rng=5)
        assert stats.split.trials == 10**6 and stats.disagreement_rate <= stats.bound
        assert peak <= 8e6, peak

    def test_ten_million_trials_accepted_in_bounded_memory(self):
        # One byte per trial (Bob's verdict codes) plus one block in flight.
        attack, s, m = self.CASES[0]
        stats, peak = traced_peak(simulate_dishonest_alice_center, attack, s, m, 10**7, rng=6)
        assert stats.split.trials == 10**7
        assert abs(stats.disagreement_rate - 2.0**-19) < 5 * math.sqrt(2.0**-19 / 10**7)
        assert peak <= 16e6, peak
        with pytest.raises(ValueError, match="WORK_BUDGET"):
            simulate_dishonest_alice_center(attack, s, m, 10**7 + 1, rng=6)


class TestCheatBound:
    def test_values(self):
        assert cheat_bound(1.0, 1) == 1.0
        assert cheat_bound(1.0, 11) == pytest.approx(2.0**-10)

    def test_monotone_in_length(self):
        values = [cheat_bound(0.5, m) for m in (2, 4, 8, 16)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_sub_unit_exponent(self):
        with pytest.raises(ValueError):
            cheat_bound(0.1, 5)

    @pytest.mark.parametrize("s", [math.nan, 2.0, 0.0, -0.5, math.inf])
    def test_rejects_s_outside_the_unit_interval(self, s):
        # NaN gave nan and s = 2 gave 1.9e-6, a bound no verdict rule has.
        with pytest.raises(ValueError, match="security parameter s must lie in"):
            cheat_bound(s, 10)

    @pytest.mark.parametrize("length", [math.inf, math.nan, 0, 2.5, -3])
    def test_rejects_a_length_that_is_no_positive_integer(self, length):
        # length = inf gave a bound of 0.0.
        with pytest.raises(ValueError, match="key length must be an integer"):
            cheat_bound(1.0, length)

    def test_rejects_a_length_beyond_the_work_budget(self):
        # 10**400 raised OverflowError, as the other key-length guards once did.
        with pytest.raises(ValueError, match="WORK_BUDGET"):
            cheat_bound(1.0, 10**400)


class TestDistributedExchange:
    @pytest.mark.parametrize("recipients", [2, 3])
    def test_honest_run_is_silent_and_recovers_the_key(self, recipients):
        phases = RNG.integers(0, 8, size=8)
        alpha = KeyString(8, 1.1, phases).amplitudes()
        parties = distributed_exchange([alpha.copy() for _ in range(recipients)], rng=1)
        for party in parties:
            assert not party.clicked
            assert np.allclose(party.held, alpha, atol=1e-12)

    @pytest.mark.parametrize("recipients", [2, 3, 4])
    def test_honest_held_copy_verifies_at_large_amplitude(self, recipients):
        # Mode 0 itself, fl(sqrt(T) fl(a / sqrt(T))), misses a by an ulp of 1e16: reject at T = 2.
        key = KeyString(8, 1e16, [0, 3, 5, 1, 7, 2])
        alpha = key.amplitudes()
        for r, party in enumerate(distributed_exchange([alpha.copy()] * recipients, rng=0)):
            np.testing.assert_array_equal(party.held, alpha)
            recovered = party.transcript.events[-1]
            assert recovered["action"] == "recover"
            assert recovered["amplitudes"] == alpha.view(float).reshape(-1, 2).tolist()
            result = verify_against_private(party.held, key, 0.5, rng=r)
            assert (result.errors, result.verdict) == (0, "accept")

    @pytest.mark.parametrize("amp", [1e20, 1e30])
    def test_honest_run_is_silent_at_large_amplitude(self, amp):
        # Equal shares cancel exactly in the watched modes, whatever |amp|.
        alpha = KeyString(8, amp, [0, 3, 5, 1, 7, 2]).amplitudes()
        for party in distributed_exchange([alpha.copy() for _ in range(3)], rng=0):
            assert not party.clicked
            assert np.allclose(party.held, alpha, rtol=1e-12, atol=0)

    def test_split_phase_amplitudes(self):
        alpha = KeyString(4, 1.0, [0, 1]).amplitudes()
        parties = distributed_exchange([alpha.copy(), alpha.copy()], rng=0)
        for event in parties[0].transcript.events:
            if event["action"] == "split":
                recorded = np.array([a[0] + 1j * a[1] for a in event["amplitudes"]])
                assert np.allclose(recorded, alpha / math.sqrt(2), atol=1e-12)

    def test_opposite_phase_copies_click_mean(self):
        # the sender splits |amp> with a beam splitter and flips one wire, so
        # the two copies are +/- amp/sqrt(2); each comparison difference mode
        # then carries mean amp^2/2
        amp = 1.0
        copies = [np.array([amp / math.sqrt(2)]), np.array([-amp / math.sqrt(2)])]
        shares = [c / math.sqrt(2) for c in copies]
        diff = (shares[0][0] - shares[1][0]) / math.sqrt(2)
        assert abs(diff) ** 2 == pytest.approx(amp**2 / 2, abs=1e-12)
        rates = []
        for seed in range(4000):
            parties = distributed_exchange(copies, rng=seed)
            rates.append(1 if parties[0].clicked else 0)
        expected = 1.0 - math.exp(-amp**2 / 2)
        assert abs(np.mean(rates) - expected) < three_sigma(expected, len(rates))

    def test_vacuum_substitution_click_mean(self):
        # honest copies amp/sqrt(2); one recipient withholds its share
        amp = 1.0
        copy = np.array([amp / math.sqrt(2)], dtype=complex)
        parties = distributed_exchange([copy.copy(), copy.copy()], rng=2,
                                       tamper=CharlieTamper(kind="vacuum"))
        kept = copy[0] / math.sqrt(2)
        expected_mean = abs((kept - 0.0) / math.sqrt(2)) ** 2
        assert expected_mean == pytest.approx(amp**2 / 8, abs=1e-12)
        # Bob's recovered amplitude is half of his copy
        assert parties[0].held[0] == pytest.approx(copy[0] / 2, abs=1e-12)

    def test_needs_two_recipients(self):
        with pytest.raises(ValueError):
            distributed_exchange([np.array([1.0])], rng=0)

    def test_transcript_determinism(self):
        alpha = KeyString(4, 0.9, [0, 2, 1]).amplitudes()
        a = distributed_exchange([alpha.copy(), alpha.copy()], rng=11)
        b = distributed_exchange([alpha.copy(), alpha.copy()], rng=11)
        for pa, pb in zip(a, b):
            assert pa.transcript.events == pb.transcript.events


class TestDishonestCharlie:
    def test_no_tampering_is_invisible(self):
        stats = simulate_dishonest_charlie(CharlieTamper(kind="none"), 0.5, 10, 1.0,
                                           trials=5000, rng=3)
        assert stats.bob_reject_rate == 0.0
        assert stats.bob_detection_rate == 0.0

    def test_full_flip_detection_rate(self):
        m, amp = 10, 1.0
        stats = simulate_dishonest_charlie(CharlieTamper(kind="flip"), 1.0, m, amp,
                                           trials=100_000, rng=8)
        # per-position difference-mode mean for a flipped share
        c = amp**2
        assert stats.per_position_click_mean == pytest.approx(tuple([c] * m), abs=1e-12)
        expected = 1.0 - math.exp(-m * c)
        assert abs(stats.bob_detection_rate - expected) < max(
            three_sigma(expected, stats.detection.trials), 1e-4)

    def test_small_tampering_detected_before_rejection(self):
        # rejection needs e >= sM while detection only needs one click, so the
        # reject rate must die off faster as the tamper strength vanishes
        for eps in (0.3, 0.1, 0.03):
            tamper = CharlieTamper(kind="phase", value=eps)
            stats = simulate_dishonest_charlie(tamper, 0.5, 6, 1.0, trials=20_000,
                                               rng=9)
            assert stats.bob_reject_rate <= stats.bob_detection_rate + 1e-9

    @pytest.mark.parametrize("amp", [1e16, 1e20, 1e30])
    def test_no_tampering_is_invisible_at_large_amplitude(self, amp):
        stats = simulate_dishonest_charlie(CharlieTamper(kind="none"), 0.5, 10, amp,
                                           trials=200, rng=3)
        assert stats.per_position_error_prob == (0.0,) * 10
        assert stats.bob_reject_rate == stats.bob_detection_rate == 0.0

    def test_tamper_validation(self):
        with pytest.raises(ValueError):
            CharlieTamper(kind="mangle")

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_tamper_rejects_a_non_finite_value(self, value):
        # inf once warned from np.exp, then failed on an unrelated NaN photon number.
        with pytest.raises(ValueError, match="tamper value must be a finite real number"):
            CharlieTamper(kind="phase", value=value)

    @pytest.mark.parametrize("kind, expected", [
        ("none", [1.0, -2j]), ("flip", [-1.0, 2j]), ("vacuum", [0.0, 0.0]),
        ("phase", [1j, 2.0]),
    ])
    def test_tamper_returns_a_new_array(self, kind, expected):
        share = np.array([1.0, -2j])
        out = CharlieTamper(kind, value=math.pi / 2).apply(share)
        assert out is not share and share.tolist() == [1.0, -2j]
        assert np.allclose(out, expected, atol=1e-15)


class TestProtocolDrivers:
    def test_center_honest_summary(self):
        summary, rows, events = run_center_protocol(6, 8, 1.0, 2, 0.5, 200, "none", rng=1)
        assert summary["disagreement_rate"] == 0.0
        assert summary["copies_uniform"] is True
        assert all(r["verdict_bob"] == "accept" for r in rows)
        assert any(e["action"] == "prepare" for e in events)

    def test_center_overlap_half_rates(self):
        summary, rows, _ = run_center_protocol(1, 8, 1.0, 2, 1.0, 50_000,
                                               "alice-overlap-half", rng=2)
        assert abs(summary["disagreement_rate"] - 0.5) < three_sigma(0.5, 50_000)
        assert summary["cheat_bound"] == 1.0
        assert len(rows) == 50_000

    def test_distributed_honest_summary(self):
        summary, rows, events = run_distributed_protocol(2, 8, 8, 1.0, 0.5, 100,
                                                         "none", rng=3)
        assert summary["bob_detection_rate"] == 0.0
        assert summary["honest_zero_clicks"] is True
        assert all(r["clicks"] == 0 for r in rows)
        assert any(e["action"] == "recover" for e in events)

    @pytest.mark.parametrize("amp", [1e16, 1e20, 1e30])
    @pytest.mark.parametrize("recipients", [2, 3])
    def test_distributed_honest_at_large_amplitude(self, amp, recipients):
        # Bob errs only on the deviation of his recovered copy, exactly 0 here.
        summary, rows, _ = run_distributed_protocol(recipients, 10, 8, amp, 0.5, 200, "none",
                                                    rng=1)
        assert summary["bob_reject_rate"] == 0.0
        assert summary["honest_zero_clicks"] is True
        assert all(r["e_bob"] == 0 and r["verdict_bob"] == "accept" for r in rows)

    def test_distributed_flip_summary(self):
        from scipy.stats import binom

        summary, rows, _ = run_distributed_protocol(2, 10, 8, 1.0, 0.5, 20_000,
                                                    "charlie-flip", rng=4)
        expected_detect = 1.0 - math.exp(-10.0)
        assert summary["bob_detection_rate"] == pytest.approx(expected_detect, abs=0.01)
        # fully flipped shares zero out Bob's recovered amplitudes, so each
        # position errs with probability 1 - e^{-amp^2}
        p_err = 1.0 - math.exp(-1.0)
        expected_reject = float(binom.sf(4, 10, p_err))  # e >= s*M = 5
        assert abs(summary["bob_reject_rate"] - expected_reject) < three_sigma(
            expected_reject, 20_000)

    @pytest.mark.parametrize("recipients, adversary", [(2, "none"), (3, "none"), (4, "none"),
                                                       (2, "charlie-flip")])
    def test_one_exchange_per_driver_call(self, monkeypatch, recipients, adversary):
        # Bob's trials once came from a second exchange, on two recipients whatever T.
        shapes = []
        exchange = pkd.multiport_outputs
        monkeypatch.setattr(pkd, "multiport_outputs",
                            lambda inputs: shapes.append(inputs.shape) or exchange(inputs))
        run_distributed_protocol(recipients, 6, 8, 0.7, 0.5, 50, adversary, rng=2)
        assert shapes == [(recipients, 6, recipients)]

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ValueError):
            run_center_protocol(4, 8, 1.0, 2, 0.5, 10, "charlie-flip", rng=0)

    @pytest.mark.parametrize("length, s, message", [
        (10, 0.05, "s \\* length must be at least 1"), (10, 0.0, "security parameter s"),
        (0, 1.0, "key length"),
    ])
    def test_center_rejected_before_anything_is_drawn(self, length, s, message):
        gen, ref = stream(12), stream(12)
        with pytest.raises(ValueError, match=message):
            run_center_protocol(length, 8, 1.0, 2, s, 100, "alice-overlap-half", rng=gen)
        assert gen.random() == ref.random()

    @pytest.mark.parametrize("recipients", [1, 0])
    def test_center_needs_two_recipients(self, recipients):
        # One recipient once exited 0 with verdicts and rates for a Charlie sent nothing.
        message = f"recipients must be an integer >= 2, got {recipients}"
        with pytest.raises(ValueError, match=message):
            run_center_protocol(4, 8, 1.0, recipients, 0.5, 10, "alice-overlap-half", rng=0)

    @pytest.mark.parametrize("driver, trials", [
        (lambda t: run_center_protocol(10, 8, 1.0, 2, 0.1, t, "none"), WORK_BUDGET + 1),
        (lambda t: run_distributed_protocol(2, 6, 8, 0.7, 0.5, t, "none"), WORK_BUDGET + 1),
    ], ids=["center", "distributed"])
    def test_driver_budget_counts_the_held_columns(self, driver, trials):
        # Both once budgeted 50 entries per trial and rejected 200 001 trials.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="per-trial columns.*WORK_BUDGET"):
            driver(trials)
        assert time.perf_counter() - start < 1.0

    def test_center_driver_million_trials_in_bounded_memory(self):
        # Four one-byte columns, no clicks column and one verdicts call: 6.2 MB traced.
        # Five columns and two verdicts calls took 8.1 MB.
        (summary, table, _), peak = traced_peak(run_center_protocol, 10, 8, 1.0, 2, 0.1, 10**6,
                                                "alice-overlap-half", rng=3)
        assert len(table) == 10**6 and summary["cheat_bound"] == 1.0
        assert abs(summary["disagreement_rate"] - 0.5) < three_sigma(0.5, 10**6)
        assert peak <= 7e6, peak

    @pytest.mark.parametrize("adversary", ["none", "charlie-flip"])
    def test_distributed_driver_million_trials_in_bounded_memory(self, adversary):
        # Bob's three one-byte columns; Charlie's two are zero-stride views.  With them
        # held and verdicts taken of both, the driver took 7.9 MB (7.0 MB with the flip).
        (summary, table, _), peak = traced_peak(run_distributed_protocol, 2, 16, 8, 1.0, 0.5,
                                                10**6, adversary, rng=3)
        assert len(table) == 10**6
        assert (summary["bob_detection_rate"] == 0.0) == (adversary == "none")
        assert peak <= 6.5e6, peak

    def test_distributed_driver_ten_million_trials_in_bounded_memory(self):
        # The budget once charged 3 entries per trial, a limit set when the counts took
        # 8 B each, and rejected more than 3.3 * 10^6 trials.  Bob's three one-byte
        # columns hold 30 MB here; 40.9 MB traced.
        (summary, table, _), peak = traced_peak(run_distributed_protocol, 2, 1, 8, 0.7, 0.5,
                                                10**7, "charlie-flip", rng=3)
        assert len(table) == 10**7 and summary["bob_detection_rate"] > 0.0
        assert peak <= 44e6, peak


def old_trial_rows(e_bob, e_charlie, v_bob, v_charlie, clicks):
    """Reference: the row list the drivers built from whole columns before ``TrialTable``."""
    columns = zip(e_bob.tolist(), e_charlie.tolist(), v_bob.tolist(), v_charlie.tolist(),
                  clicks.tolist())
    return [
        {"trial": i, "e_bob": eb, "e_charlie": ec, "verdict_bob": VERDICTS[vb],
         "verdict_charlie": VERDICTS[vc], "clicks": k}
        for i, (eb, ec, vb, vc, k) in enumerate(columns)
    ]


def old_center_rows(length, s, trials, adversary, seed):
    """Reference center driver: both error columns drawn whole after the key."""
    gen = stream(seed)
    generate_key(length, 8, 1.0, gen)
    p_inc = np.full(0 if adversary == "none" else 1, 0.5)
    e_bob = bernoulli_counts(p_inc, trials, gen)
    e_charlie = bernoulli_counts(p_inc, trials, gen)
    return old_trial_rows(e_bob, e_charlie, verdicts(e_bob, s, length),
                          verdicts(e_charlie, s, length), np.zeros(trials, dtype=np.int64))


def old_distributed_rows(recipients, length, s, trials, adversary, seed):
    """Reference distributed driver: Bob's trials from a second, two-recipient exchange."""
    gen = stream(seed)
    alpha = generate_key(length, 8, 0.7, gen).amplitudes()
    tamper = CharlieTamper("flip" if adversary == "charlie-flip" else "none")
    distributed_exchange([alpha] * recipients, rng=gen, tamper=tamper)
    _, gamma, deviation = _exchange_outputs(np.array([alpha, alpha]), tamper)
    clicks = bernoulli_counts(click_probabilities(np.abs(gamma[0, :, 1]) ** 2), trials, gen)
    e_bob = bernoulli_counts(click_probabilities(np.abs(deviation[0]) ** 2), trials, gen)
    e_charlie = np.zeros(trials, dtype=np.int64)
    return old_trial_rows(e_bob, e_charlie, verdicts(e_bob, s, length),
                          verdicts(e_charlie, s, length), clicks)


class TestTrialTable:
    CHUNK = CHUNK_ROWS
    TRIALS = 2 * CHUNK + 1  # three chunks, the last of one row

    def assert_table_equals(self, table, reference):
        assert len(table) == len(reference) == self.TRIALS
        assert list(table) == reference
        assert list(table) == reference  # a table can be read again

    @pytest.mark.parametrize("adversary, s, length", [("none", 0.5, 2),
                                                      ("alice-overlap-half", 1.0, 1)])
    def test_center_table_equals_old_rows(self, adversary, s, length):
        _, table, _ = run_center_protocol(length, 8, 1.0, 2, s, self.TRIALS, adversary, rng=31)
        self.assert_table_equals(table, old_center_rows(length, s, self.TRIALS, adversary, 31))

    @pytest.mark.parametrize("recipients, adversary", [(2, "charlie-flip"), (2, "none"),
                                                       (3, "none")])
    def test_distributed_table_equals_old_rows(self, recipients, adversary):
        _, table, _ = run_distributed_protocol(recipients, 6, 8, 0.7, 0.5, self.TRIALS,
                                               adversary, rng=32)
        reference = old_distributed_rows(recipients, 6, 0.5, self.TRIALS, adversary, 32)
        self.assert_table_equals(table, reference)
        if adversary != "none":
            assert any(row["clicks"] for row in reference)

    def test_columns_are_read_only(self):
        _, table, _ = run_center_protocol(2, 8, 1.0, 2, 0.5, 10, "alice-overlap-half", rng=0)
        with pytest.raises(ValueError):
            table._columns[0][0] = 1

    def test_known_columns_are_zero_stride_views(self):
        # The center driver's clicks and Charlie's distributed columns hold one byte each.
        _, center, _ = run_center_protocol(2, 8, 1.0, 2, 0.5, 10, "none", rng=0)
        _, distributed, _ = run_distributed_protocol(2, 6, 8, 0.7, 0.5, 10, "charlie-flip", rng=0)
        assert center._columns[4].strides == (0,)
        assert [c.strides for c in distributed._columns[1::2]] == [(0,), (0,)]
        for table in (center, distributed):
            assert tuple(next(iter(table))) == TRIAL_COLUMNS

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(trials=st.integers(1, 2 * CHUNK + 1), seed=st.integers(0, 2**32 - 1),
           charlie=st.sampled_from([0, 1]))
    def test_property_iteration_equals_reference_rows(self, trials, seed, charlie):
        gen = np.random.default_rng(seed)
        e_bob = gen.integers(0, 300, trials).astype(np.uint16)
        v_bob = gen.integers(0, 3, trials).astype(np.uint8)
        clicks = gen.integers(0, 3, trials).astype(np.uint8)
        columns = (e_bob, np.broadcast_to(np.uint8(charlie), trials), v_bob,
                   np.broadcast_to(np.uint8(2 * charlie), trials), clicks)
        table = TrialTable(*columns)
        rows = list(table)
        assert len(rows) == len(table) == trials
        assert rows == old_trial_rows(*columns)
        assert {(r["e_charlie"], r["verdict_charlie"]) for r in rows} == {
            (charlie, VERDICTS[2 * charlie])}

    def test_center_driver_in_bounded_memory(self):
        # 10^5 row dicts took 38.8 MB; the columns take a byte per trial each.
        (summary, table, _), peak = traced_peak(run_center_protocol, 10, 8, 1.0, 2, 0.1, 10**5,
                                                "alice-overlap-half", rng=3)
        assert len(table) == 10**5 and summary["cheat_bound"] == 1.0
        assert peak <= 8e6, peak


class TestTranscript:
    def test_events_are_ordered_and_serializable(self):
        transcript = ProtocolTranscript()
        transcript.record("alice", "prepare", amplitudes=[1.0 + 1.0j])
        transcript.record("bob", "verify", position=0, counts=[0, 1])
        assert [e["action"] for e in transcript.events] == ["prepare", "verify"]
        assert json.loads(json.dumps(transcript.events)) == transcript.events
