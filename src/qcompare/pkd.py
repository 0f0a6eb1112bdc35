"""Quantum public-key distribution built on multiport comparison.

A private key is a string of phase indices; the public key is the coherent
string it maps to.  Two distribution schemes are simulated as deterministic,
seedable multi-party protocols:

* trusted center: the sender provides ``|sqrt(T) alpha_j>`` per position and
  the center's balanced T-port multiports emit T identical copies, one per
  recipient.  Recipients later test a revealed private key by projecting each
  position onto the claimed coherent state.
* distributed (no center): each recipient splits every position of their own
  copy T ways, keeps one share, exchanges the rest, and feeds own-plus-received
  shares into a comparison multiport.  Honest runs click nowhere and return
  the copy amplitudes undisturbed in the zeroth mode; a tampered share shows
  up as photons in the nonzero modes.

Verdicts follow the error-count rule with security parameter ``s``: accept
on zero errors, reject at ``e >= s * M``, unsure in between.  A dishonest
sender can split the recipients' verdicts with probability at most
``(1/2)^(s M - 1)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import domain
from .detection import (IDEAL, DetectorModel, bernoulli_counts, click_probabilities,
                        sample_counts, stream, wilson_interval)
from .errors import InvariantError
from .linear import CoherentRegister, apply_network, make_balanced_multiport
from .lockkey import KeyString, generate_key

VERDICT_ACCEPT = "accept"
VERDICT_UNSURE = "unsure"
VERDICT_REJECT = "reject"
VERDICTS = (VERDICT_ACCEPT, VERDICT_UNSURE, VERDICT_REJECT)
ACCEPT, UNSURE, REJECT = range(3)  # verdict codes: indices into VERDICTS


def _c_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


class ProtocolTranscript:
    """Append-only event log of one protocol run.

    Every event carries ``party``, ``action``, ``position`` (or None for
    whole-string actions) and optional ``amplitudes`` / ``counts`` payloads.
    Serialization is deterministic so identical seeds give byte-identical
    transcripts.
    """

    def __init__(self):
        self.events: list[dict] = []

    def record(self, party: str, action: str, position=None, amplitudes=None, counts=None, **extra):
        event = {"party": party, "action": action, "position": position}
        if amplitudes is not None:
            event["amplitudes"] = [_c_pair(complex(a)) for a in np.atleast_1d(amplitudes)]
        if counts is not None:
            event["counts"] = [int(c) for c in np.atleast_1d(counts)]
        event.update(extra)
        self.events.append(event)

    def to_json(self) -> str:
        return json.dumps({"schema": 1, "events": self.events}, sort_keys=True)


@dataclass(frozen=True)
class PublicKeyState:
    """All copies of one public key, row r = the coherent string of copy r."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.amplitudes, dtype=complex))
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("expected a (copies, length) amplitude array")
        domain.amplitudes(arr.ravel(), "public-key amplitudes", limit=math.inf)
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def copies(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def length(self) -> int:
        return self.amplitudes.shape[1]

    def copy_amplitudes(self, index: int) -> np.ndarray:
        return self.amplitudes[index]

    def is_uniform(self, tol: float = 1e-12) -> bool:
        """True when every copy equals the first one (honest generation)."""
        return bool(np.max(np.abs(self.amplitudes - self.amplitudes[0])) <= tol)


def private_key_amplitudes(phase_indices, n_phases: int, amplitude: float) -> np.ndarray:
    """Coherent string encoded by a private key: amplitude * exp(2 pi i k_j / N)."""
    return KeyString(n_phases, amplitude, phase_indices).amplitudes()


def trusted_center_distribute(phase_indices, n_phases: int, amplitude: float, copies: int,
                              transcript: ProtocolTranscript | None = None) -> PublicKeyState:
    """Generate T copies of the public key through the center's multiports.

    The sender supplies ``|sqrt(T) alpha_j>`` per position; each position
    enters port 0 of a balanced T-port multiport whose other inputs are
    vacuum, so every output mode carries exactly ``alpha_j``.  Mean photon
    number is conserved: T |alpha_j|^2 in, |alpha_j|^2 per copy out.
    """
    copies = domain.integer(copies, "copies", 1)
    alpha = private_key_amplitudes(phase_indices, n_phases, amplitude)
    m = alpha.size
    recorded = 0 if transcript is None else (copies + 1) * m
    domain.size(copies * m + domain.REPORT_ENTRIES * recorded, "the public-key copies")
    if transcript is not None:
        transcript.record("alice", "prepare", amplitudes=np.sqrt(copies) * alpha)
    if copies == 1:
        out = alpha[None, :].copy()
    else:
        net = make_balanced_multiport(copies)
        out = np.empty((copies, m), dtype=complex)
        for j in range(m):
            feed = np.zeros(copies, dtype=complex)
            feed[0] = np.sqrt(copies) * alpha[j]
            out[:, j] = apply_network(net, CoherentRegister(feed)).amplitudes
    if transcript is not None:
        for r in range(copies):
            transcript.record("center", "send", recipient=r, amplitudes=out[r])
    return PublicKeyState(out)


def verdicts(errors, security_s: float, length: int) -> np.ndarray:
    """Verdict code (an index into ``VERDICTS``) for each error count.

    ACCEPT on zero errors, REJECT at errors >= s * length, UNSURE in between.
    """
    domain.fraction(security_s, "security parameter s", positive=True)
    errors = np.asarray(errors)
    return np.where(errors == 0, ACCEPT, np.where(errors >= security_s * length, REJECT, UNSURE))


def verdict_for(errors: int, security_s: float, length: int) -> str:
    """Verdict name for one error count (see ``verdicts``)."""
    return VERDICTS[int(verdicts(errors, security_s, length))]


def _split_verdicts(codes_a, codes_b) -> np.ndarray:
    """True where one party accepts while the other rejects."""
    return ((codes_a == ACCEPT) & (codes_b == REJECT)) | ((codes_b == ACCEPT) & (codes_a == REJECT))


def _incorrect_probability(held, target) -> np.ndarray:
    """Per-position chance that testing |held> against |target> reports "incorrect"."""
    return np.clip(1.0 - np.exp(-np.abs(held - target) ** 2), 0.0, 1.0)


@dataclass(frozen=True)
class VerificationResult:
    errors: int
    verdict: str


def verify_against_private(copy_amplitudes, claimed_phases, n_phases: int, amplitude: float,
                           security_s: float, rng=0) -> VerificationResult:
    """Test a held public-key copy against a revealed private key.

    Each position is measured with the two-outcome test {|target><target|,
    1 - |target><target|}; the incorrect outcome fires with probability
    ``1 - |<target|held>|^2 = 1 - exp(-|held - target|^2)``.  The outcomes
    are one trial of the trial engine, ``bernoulli_counts``.
    """
    held = domain.amplitudes(copy_amplitudes, "held copy", limit=math.inf)
    target = private_key_amplitudes(claimed_phases, n_phases, amplitude)
    if held.shape != target.shape:
        raise ValueError(f"copy has {held.size} positions, claimed key has {target.size}")
    errors = int(bernoulli_counts(_incorrect_probability(held, target), 1, rng)[0])
    return VerificationResult(errors=errors, verdict=verdict_for(errors, security_s, held.size))


def coherent_with_overlap(alpha: complex, overlap: float) -> complex:
    """A coherent amplitude whose state has squared overlap ``overlap`` with |alpha>."""
    overlap = domain.fraction(overlap, "overlap", positive=True)
    return complex(alpha) + math.sqrt(-math.log(overlap))


def cheat_bound(security_s: float, length: int) -> float:
    """Upper bound (1/2)^(s M - 1) on splitting the recipients' verdicts."""
    sm = security_s * length
    if sm < 1.0:
        raise ValueError(f"s * length must be at least 1, got {sm}")
    return 2.0 ** (-(sm - 1.0))


# ---------------------------------------------------------------------------
# dishonest sender against the trusted-center scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AliceCenterAttack:
    """Sender substitutes ``positions`` positions by states of given overlap
    with the announced key (overlap 1/2 is the canonical splitting attack)."""

    positions: int = 1
    overlap: float = 0.5

    def __post_init__(self):
        domain.integer(self.positions, "attacked positions", 0)
        domain.fraction(self.overlap, "overlap", positive=True)


@dataclass(frozen=True)
class AliceCheatStats:
    disagreement_rate: float
    wilson_low: float
    wilson_high: float
    bound: float
    trials: int
    errors_to_bob: int
    errors_to_charlie: int


def _center_errors(attack: AliceCenterAttack, trials: int, gen) -> tuple[np.ndarray, np.ndarray]:
    """Bob's and Charlie's error counts per trial: independent Binomial(positions, 1 - overlap)."""
    trials = domain.integer(trials, "trials", 1)
    domain.size(2 * trials, "the per-trial error counts")
    p_inc = 1.0 - attack.overlap
    return (gen.binomial(attack.positions, p_inc, size=trials),
            gen.binomial(attack.positions, p_inc, size=trials))


def simulate_dishonest_alice_center(attack: AliceCenterAttack, security_s: float, length: int,
                                    trials: int, rng=0) -> AliceCheatStats:
    """Monte Carlo estimate of the verdict-splitting probability under the center scheme.

    Both recipients' copies carry the substituted state at the attacked
    positions, so each independently sees an incorrect outcome there with
    probability ``1 - overlap``.  Disagreement means one recipient accepts
    (e = 0) while the other rejects (e >= s M); the empirical rate is checked
    against the ``(1/2)^(s M - 1)`` bound and must not exceed it beyond 3
    binomial standard errors.
    """
    domain.integer(attack.positions, "attacked positions", 0, length)
    e_bob, e_charlie = _center_errors(attack, trials, stream(rng))
    disagree = _split_verdicts(verdicts(e_bob, security_s, length),
                               verdicts(e_charlie, security_s, length))
    successes = int(np.count_nonzero(disagree))
    rate = successes / trials
    bound = cheat_bound(security_s, length)
    sigma = math.sqrt(max(rate * (1.0 - rate), bound * (1.0 - bound)) / trials)
    if rate > bound + 3.0 * sigma:
        raise InvariantError(
            f"empirical disagreement {rate} exceeds the bound {bound} beyond 3 sigma"
        )
    low, high = wilson_interval(successes, trials)
    return AliceCheatStats(
        disagreement_rate=rate,
        wilson_low=low,
        wilson_high=high,
        bound=bound,
        trials=trials,
        errors_to_bob=int(e_bob.sum()),
        errors_to_charlie=int(e_charlie.sum()),
    )


# ---------------------------------------------------------------------------
# distributed comparison without a center
# ---------------------------------------------------------------------------

@dataclass
class Party:
    """One recipient after the exchange: recovered string, clicks, event log."""

    name: str
    held: np.ndarray
    clicks: np.ndarray  # (length, copies - 1) counts in the comparison modes
    transcript: ProtocolTranscript = field(default_factory=ProtocolTranscript)

    @property
    def clicked(self) -> bool:
        return bool(np.any(self.clicks > 0))


def _exchange_recipients(recipients, length: int) -> int:
    """Recipient count T of an exchange whose parties record ~2 T numbers per position."""
    recipients = domain.integer(recipients, "recipients", 2)
    domain.size(domain.REPORT_ENTRIES * 2 * recipients**2 * length, "the exchange transcripts")
    return recipients


def distributed_exchange(copies, model: DetectorModel = IDEAL, rng=0, tamper=None) -> list[Party]:
    """Run the two-phase distributed comparison among T recipients.

    ``copies[r]`` is recipient r's public-key copy (one complex amplitude per
    position).  Phase 1 splits every position T ways (amplitude / sqrt(T));
    phase 2 feeds the kept share plus the T - 1 received shares into a
    balanced comparison multiport per position.  Mode 0 returns the recovered
    amplitude, modes 1..T-1 are watched by detectors.  ``tamper(s, r, shares)``
    may replace what sender s forwards to recipient r.
    """
    arrs = [domain.amplitudes(c, "public-key copy", limit=math.inf) for c in copies]
    t_count = _exchange_recipients(len(arrs), arrs[0].size if arrs else 0)
    length = arrs[0].size
    if any(a.shape != (length,) for a in arrs):
        raise ValueError("all copies must have the same number of positions")
    gen = stream(rng)
    net = make_balanced_multiport(t_count)
    u_conj = net.matrix.conj()

    shares = [a / math.sqrt(t_count) for a in arrs]
    sent = {}
    for s in range(t_count):
        for r in range(t_count):
            if s == r:
                continue
            payload = shares[s].copy()
            if tamper is not None:
                payload = np.atleast_1d(np.asarray(tamper(s, r, payload), dtype=complex))
                if payload.shape != (length,):
                    raise ValueError("tamper must return one amplitude per position")
            sent[(s, r)] = payload

    parties = []
    for r in range(t_count):
        transcript = ProtocolTranscript()
        name = f"recipient-{r}"
        transcript.record(name, "split", amplitudes=shares[r])
        for s in range(t_count):
            if s != r:
                transcript.record(name, "send", recipient=s, amplitudes=sent[(r, s)])
        inputs = np.empty((length, t_count), dtype=complex)
        inputs[:, 0] = shares[r]
        col = 1
        for s in range(t_count):
            if s == r:
                continue
            inputs[:, col] = sent[(s, r)]
            col += 1
        gamma = inputs @ u_conj  # row j = multiport outputs at position j
        counts = sample_counts(np.abs(gamma[:, 1:]) ** 2, model, gen)
        recovered = gamma[:, 0]
        for j in range(length):
            transcript.record(name, "compare", position=j, counts=counts[j])
        transcript.record(name, "recover", amplitudes=recovered)
        parties.append(Party(name=name, held=recovered, clicks=counts, transcript=transcript))
    return parties


@dataclass(frozen=True)
class CharlieTamper:
    """Per-position substitution applied to the share Charlie sends Bob."""

    kind: str = "none"  # none | flip | vacuum | phase | scale
    value: float = 0.0
    positions: tuple[int, ...] | None = None  # None = every position

    def __post_init__(self):
        if self.kind not in ("none", "flip", "vacuum", "phase", "scale"):
            raise ValueError(f"unknown tamper kind {self.kind!r}")

    def apply(self, share: np.ndarray) -> np.ndarray:
        out = share.copy()
        idx = slice(None) if self.positions is None else list(self.positions)
        if self.kind == "flip":
            out[idx] = -out[idx]
        elif self.kind == "vacuum":
            out[idx] = 0.0
        elif self.kind == "phase":
            out[idx] = out[idx] * np.exp(1j * self.value)
        elif self.kind == "scale":
            out[idx] = out[idx] * self.value
        return out


def tamper_on_edge(sender: int, recipient: int, spec: CharlieTamper):
    """Tamper callable for ``distributed_exchange`` acting on a single edge."""

    def tamper(s, r, shares):
        if (s, r) == (sender, recipient):
            return spec.apply(shares)
        return shares

    return tamper


@dataclass(frozen=True)
class CharlieCheatStats:
    bob_reject_rate: float
    bob_detection_rate: float
    reject_interval: tuple[float, float]
    detection_interval: tuple[float, float]
    trials: int
    per_position_click_mean: tuple[float, ...]
    per_position_error_prob: tuple[float, ...]


def _bob_counts(alpha, tamper: CharlieTamper, model: DetectorModel, trials: int, gen):
    """Two-recipient exchange seen by Bob when Charlie's share to him passes ``tamper``.

    Returns the per-position click means and error probabilities, then Bob's
    per-trial click counts and error counts (drawn in that order).  With
    ``CharlieTamper("none")`` both probabilities are exactly 0.
    """
    kept = alpha / math.sqrt(2.0)
    received = tamper.apply(kept)
    click_mean = np.abs(kept - received) ** 2 / 2.0
    recovered = (kept + received) / math.sqrt(2.0)
    p_error = _incorrect_probability(recovered, alpha)
    clicks = bernoulli_counts(click_probabilities(click_mean, model), trials, gen)
    errors = bernoulli_counts(p_error, trials, gen)
    return click_mean, p_error, clicks, errors


def simulate_dishonest_charlie(tamper: CharlieTamper, security_s: float, length: int,
                               amplitude: float, trials: int, rng=0,
                               model: DetectorModel = IDEAL, n_phases: int = 8) -> CharlieCheatStats:
    """Two-recipient scenario where Charlie doctors the shares he sends Bob.

    Reports the probability that Charlie drives Bob's error count to the
    rejection threshold and the probability that Bob's comparison multiports
    click at all (which exposes the tampering).  Bob verifies his recovered
    copy against the honestly announced private key.
    """
    gen = stream(rng)
    alpha = generate_key(length, n_phases, amplitude, gen).amplitudes()
    click_mean, p_error, clicks, errors = _bob_counts(alpha, tamper, model, trials, gen)
    n_rej = int(np.count_nonzero(verdicts(errors, security_s, length) == REJECT))
    n_det = int(np.count_nonzero(clicks))
    return CharlieCheatStats(
        bob_reject_rate=n_rej / trials,
        bob_detection_rate=n_det / trials,
        reject_interval=wilson_interval(n_rej, trials),
        detection_interval=wilson_interval(n_det, trials),
        trials=trials,
        per_position_click_mean=tuple(float(c) for c in click_mean),
        per_position_error_prob=tuple(float(p) for p in p_error),
    )


# ---------------------------------------------------------------------------
# protocol drivers for the command-line front end
# ---------------------------------------------------------------------------

def _trial_rows(e_bob, e_charlie, v_bob, v_charlie, clicks) -> list[dict]:
    """Per-trial rows of both drivers, built from whole columns."""
    columns = zip(e_bob.tolist(), e_charlie.tolist(), v_bob.tolist(), v_charlie.tolist(),
                  clicks.tolist())
    return [
        {"trial": i, "e_bob": eb, "e_charlie": ec, "verdict_bob": VERDICTS[vb],
         "verdict_charlie": VERDICTS[vc], "clicks": k}
        for i, (eb, ec, vb, vc, k) in enumerate(columns)
    ]


def run_center_protocol(length: int, n_phases: int, amplitude: float, copies: int,
                        security_s: float, trials: int, adversary: str, rng=0):
    """Trusted-center scheme driver: per-trial verdict rows plus a worked transcript."""
    if adversary not in ("none", "alice-overlap-half"):
        raise ValueError(f"unsupported adversary {adversary!r} for the center scheme")
    # A per-trial row takes about as much memory as one formatted report number.
    domain.size(domain.REPORT_ENTRIES * domain.integer(trials, "trials", 1), "the per-trial rows")
    gen = stream(rng)
    key = generate_key(length, n_phases, amplitude, gen)

    transcript = ProtocolTranscript()
    pubkey = trusted_center_distribute(key.phases, n_phases, amplitude, copies,
                                       transcript=transcript)

    attack = AliceCenterAttack(positions=0 if adversary == "none" else 1, overlap=0.5)
    e_bob, e_charlie = _center_errors(attack, trials, gen)
    if adversary != "none":
        transcript.record("alice", "substitute", position=0,
                          amplitudes=[coherent_with_overlap(key.amplitudes()[0], attack.overlap)])
    v_bob = verdicts(e_bob, security_s, length)
    v_charlie = verdicts(e_charlie, security_s, length)
    rows = _trial_rows(e_bob, e_charlie, v_bob, v_charlie, np.zeros(trials, dtype=np.int64))
    summary = {
        "scheme": "center",
        "adversary": adversary,
        "copies_uniform": pubkey.is_uniform(),
        "disagreement_rate": float(np.count_nonzero(_split_verdicts(v_bob, v_charlie))) / trials,
        "cheat_bound": cheat_bound(security_s, length),
        "accept_rate_bob": float(np.count_nonzero(v_bob == ACCEPT)) / trials,
        "accept_rate_charlie": float(np.count_nonzero(v_charlie == ACCEPT)) / trials,
    }
    return summary, rows, transcript.events


def run_distributed_protocol(recipients: int, length: int, n_phases: int, amplitude: float,
                             security_s: float, trials: int, adversary: str, rng=0):
    """No-center scheme driver: per-trial verdict rows plus one full exchange transcript."""
    if adversary not in ("none", "charlie-flip"):
        raise ValueError(f"unsupported adversary {adversary!r} for the distributed scheme")
    if adversary == "charlie-flip" and recipients != 2:
        raise ValueError("the charlie-flip adversary is defined for 2 recipients")
    domain.size(domain.REPORT_ENTRIES * domain.integer(trials, "trials", 1), "the per-trial rows")
    gen = stream(rng)
    alpha = generate_key(length, n_phases, amplitude, gen).amplitudes()
    recipients = _exchange_recipients(recipients, length)

    tamper = CharlieTamper("flip" if adversary == "charlie-flip" else "none")
    parties = distributed_exchange([alpha.copy() for _ in range(recipients)], rng=gen,
                                   tamper=tamper_on_edge(1, 0, tamper))
    _, _, clicks, e_bob = _bob_counts(alpha, tamper, IDEAL, trials, gen)
    # Charlie's incoming shares are never tampered, so he recovers his copy exactly.
    e_charlie = np.zeros(trials, dtype=np.int64)
    v_bob = verdicts(e_bob, security_s, length)
    rows = _trial_rows(e_bob, e_charlie, v_bob, verdicts(e_charlie, security_s, length), clicks)
    events = []
    for party in parties:
        events.extend(party.transcript.events)
    summary = {
        "scheme": "distributed",
        "adversary": adversary,
        "recipients": recipients,
        "bob_reject_rate": float(np.count_nonzero(v_bob == REJECT)) / trials,
        "bob_detection_rate": float(np.count_nonzero(clicks)) / trials,
        "honest_zero_clicks": bool(all(not p.clicked for p in parties)) if adversary == "none" else None,
    }
    return summary, rows, events
