import math

import numpy as np
import pytest
from scipy.stats import chi2

from qcompare.pkd import (
    VERDICTS,
    AliceCenterAttack,
    CharlieTamper,
    ProtocolTranscript,
    PublicKeyState,
    cheat_bound,
    coherent_with_overlap,
    distributed_exchange,
    private_key_amplitudes,
    run_center_protocol,
    run_distributed_protocol,
    simulate_dishonest_alice_center,
    simulate_dishonest_charlie,
    tamper_on_edge,
    trusted_center_distribute,
    verdict_for,
    verdicts,
    verify_against_private,
)

RNG = np.random.default_rng(2718)


def three_sigma(p, n):
    return 3.0 * math.sqrt(max(p * (1 - p), 1e-12) / n)


class TestTrustedCenter:
    def test_single_copy_is_identity(self):
        phases = [0, 3, 1]
        pub = trusted_center_distribute(phases, 4, 1.0, copies=1)
        assert np.allclose(pub.amplitudes[0], private_key_amplitudes(phases, 4, 1.0))

    def test_copies_identical_with_unit_magnitude(self):
        phases = RNG.integers(0, 8, size=6)
        pub = trusted_center_distribute(phases, 8, 1.0, copies=4)
        assert pub.copies == 4
        assert pub.is_uniform()
        assert np.allclose(np.abs(pub.amplitudes), 1.0, atol=1e-12)
        assert np.allclose(pub.amplitudes, private_key_amplitudes(phases, 8, 1.0)[None, :],
                           atol=1e-12)

    def test_energy_conservation(self):
        copies = 4
        amp = 1.3
        pub = trusted_center_distribute([0, 1], 4, amp, copies=copies)
        per_copy = np.sum(np.abs(pub.amplitudes) ** 2, axis=1)
        total_in = copies * 2 * amp**2  # |sqrt(T) alpha_j|^2 summed over positions
        assert np.sum(per_copy) == pytest.approx(total_in, rel=1e-12)

    def test_invalid_copy_count(self):
        with pytest.raises(ValueError):
            trusted_center_distribute([0], 4, 1.0, copies=0)


class TestVerification:
    def test_honest_copy_yields_zero_errors(self):
        phases = RNG.integers(0, 8, size=10)
        pub = trusted_center_distribute(phases, 8, 1.0, copies=2)
        for seed in range(10):
            result = verify_against_private(pub.copy_amplitudes(0), phases, 8, 1.0,
                                            security_s=0.5, rng=seed)
            assert result.errors == 0
            assert result.verdict == "accept"

    def test_half_overlap_position_splits_evenly(self):
        from qcompare.detection import stream

        phases = [0] * 4
        amp = 1.0
        held = private_key_amplitudes(phases, 8, amp).astype(complex)
        held[0] = coherent_with_overlap(held[0], 0.5)
        trials = 100_000
        gen = stream(17)
        errors = np.fromiter(
            (verify_against_private(held, phases, 8, amp, security_s=1.0, rng=gen).errors
             for _ in range(trials)),
            dtype=int, count=trials)
        assert set(np.unique(errors)) <= {0, 1}
        rate = np.count_nonzero(errors) / trials
        assert abs(rate - 0.5) < three_sigma(0.5, trials)

    def test_wrong_phase_error_probability(self):
        amp, n_phases = 2.0, 4
        claimed = [1]
        held = private_key_amplitudes([0], n_phases, amp)
        target = private_key_amplitudes(claimed, n_phases, amp)
        expected = 1.0 - math.exp(-abs(held[0] - target[0]) ** 2)
        trials = 50_000
        errs = sum(
            verify_against_private(held, claimed, n_phases, amp, 1.0, rng=seed).errors
            for seed in range(trials)
        )
        assert abs(errs / trials - expected) < three_sigma(expected, trials)

    def test_engine_draw_matches_a_direct_uniform_table(self):
        # One trial of bernoulli_counts reads one uniform per position, as the
        # former ``gen.random(M) < p`` table did: same errors, same next draw.
        from qcompare.detection import stream

        phases = [0, 3, 5, 1, 7, 2]
        target = private_key_amplitudes(phases, 8, 1.0)
        held = target + np.array([0.0, 0.3, 0.8j, 1.2, -0.5 + 0.5j, 2.0])
        p_incorrect = 1.0 - np.exp(-np.abs(held - target) ** 2)
        for seed in range(300):
            gen, reference = stream(seed), stream(seed)
            result = verify_against_private(held, phases, 8, 1.0, 0.5, rng=gen)
            assert result.errors == np.count_nonzero(reference.random(held.size) < p_incorrect)
            assert gen.random() == reference.random()

    def test_non_integer_phase_index_rejected(self):
        with pytest.raises(ValueError, match="phase index"):
            private_key_amplitudes([0, 1.5], 4, 1.0)
        assert np.array_equal(private_key_amplitudes([0.0, 2.0], 4, 1.0),
                              private_key_amplitudes([0, 2], 4, 1.0))

    def test_verdict_thresholds(self):
        assert verdict_for(0, 0.5, 10) == "accept"
        assert verdict_for(3, 0.5, 10) == "unsure"
        assert verdict_for(5, 0.5, 10) == "reject"
        assert verdict_for(7, 0.5, 10) == "reject"
        codes = verdicts(np.array([0, 3, 5, 7]), 0.5, 10)
        assert [VERDICTS[c] for c in codes] == ["accept", "unsure", "reject", "reject"]
        with pytest.raises(ValueError):
            verdict_for(1, 0.0, 10)
        with pytest.raises(ValueError):
            verdicts(np.array([1, 2]), 1.5, 10)

    def test_overlap_constructor(self):
        alpha = 0.7 + 0.2j
        beta = coherent_with_overlap(alpha, 0.5)
        assert math.exp(-abs(beta - alpha) ** 2) == pytest.approx(0.5, abs=1e-12)


class TestDishonestAlice:
    def test_single_position_splits_with_probability_half(self):
        attack = AliceCenterAttack(positions=1, overlap=0.5)
        stats = simulate_dishonest_alice_center(attack, security_s=1.0, length=1,
                                                trials=100_000, rng=4)
        assert stats.bound == 1.0
        assert abs(stats.disagreement_rate - 0.5) < three_sigma(0.5, stats.trials)

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

    def test_attack_validation(self):
        with pytest.raises(ValueError):
            AliceCenterAttack(positions=-1)
        with pytest.raises(ValueError):
            simulate_dishonest_alice_center(AliceCenterAttack(positions=5), 1.0, 3,
                                            trials=10, rng=0)


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


class TestDistributedExchange:
    @pytest.mark.parametrize("recipients", [2, 3])
    def test_honest_run_is_silent_and_recovers_the_key(self, recipients):
        phases = RNG.integers(0, 8, size=8)
        alpha = private_key_amplitudes(phases, 8, 1.1)
        parties = distributed_exchange([alpha.copy() for _ in range(recipients)], rng=1)
        for party in parties:
            assert not party.clicked
            assert np.allclose(party.held, alpha, atol=1e-12)

    def test_split_phase_amplitudes(self):
        alpha = private_key_amplitudes([0, 1], 4, 1.0)
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
        tamper = tamper_on_edge(1, 0, CharlieTamper(kind="vacuum"))
        parties = distributed_exchange([copy.copy(), copy.copy()], rng=2, tamper=tamper)
        kept = copy[0] / math.sqrt(2)
        expected_mean = abs((kept - 0.0) / math.sqrt(2)) ** 2
        assert expected_mean == pytest.approx(amp**2 / 8, abs=1e-12)
        # Bob's recovered amplitude is half of his copy
        assert parties[0].held[0] == pytest.approx(copy[0] / 2, abs=1e-12)

    def test_needs_two_recipients(self):
        with pytest.raises(ValueError):
            distributed_exchange([np.array([1.0])], rng=0)

    def test_transcript_determinism(self):
        alpha = private_key_amplitudes([0, 2, 1], 4, 0.9)
        a = distributed_exchange([alpha.copy(), alpha.copy()], rng=11)
        b = distributed_exchange([alpha.copy(), alpha.copy()], rng=11)
        for pa, pb in zip(a, b):
            assert pa.transcript.to_json() == pb.transcript.to_json()


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
            three_sigma(expected, stats.trials), 1e-4)

    def test_small_tampering_detected_before_rejection(self):
        # rejection needs e >= sM while detection only needs one click, so the
        # reject rate must die off faster as the tamper strength vanishes
        for eps in (0.3, 0.1, 0.03):
            tamper = CharlieTamper(kind="phase", value=eps)
            stats = simulate_dishonest_charlie(tamper, 0.5, 6, 1.0, trials=20_000,
                                               rng=9)
            assert stats.bob_reject_rate <= stats.bob_detection_rate + 1e-9

    def test_tamper_validation(self):
        with pytest.raises(ValueError):
            CharlieTamper(kind="mangle")


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

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ValueError):
            run_center_protocol(4, 8, 1.0, 2, 0.5, 10, "charlie-flip", rng=0)


class TestTranscript:
    def test_events_are_ordered_and_serializable(self):
        transcript = ProtocolTranscript()
        transcript.record("alice", "prepare", amplitudes=[1.0 + 1.0j])
        transcript.record("bob", "verify", position=0, counts=[0, 1])
        text = transcript.to_json()
        assert text.index('"prepare"') < text.index('"verify"')

    def test_public_key_state_validation(self):
        with pytest.raises(ValueError):
            PublicKeyState(np.empty((0, 3)))
