"""Quantum public-key distribution built on multiport comparison.

A private key is a string of phase indices; the public key is the coherent
string it maps to.  Two distribution schemes are simulated as deterministic,
seedable multi-party protocols:

* trusted center: the sender provides ``|sqrt(T) alpha_j>`` per position and
  the center's balanced T-port multiports emit T identical copies, one per
  recipient, returned as one read-only (copies, positions) view of the key
  string that holds its M amplitudes once.  Recipients later test a revealed
  private key by projecting each position onto the claimed coherent state.
* distributed (no center): each recipient splits every position of their own
  copy T ways, keeps one share, exchanges the rest, and feeds own-plus-received
  shares into a comparison multiport watched by ideal detectors.  Honest runs
  click nowhere and return the copy amplitudes undisturbed in the zeroth
  mode; a tampered share (``CharlieTamper``) shows up as photons in the
  nonzero modes.

Verdicts follow the error-count rule with security parameter ``s``: accept
on zero errors, reject at ``e >= s * M``, unsure in between.  A dishonest
sender can split the recipients' verdicts with probability at most
``(1/2)^(s M - 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import domain
from .detection import (Estimate, _count_blocks, bernoulli_counts, click_probabilities, stream,
                        trial_clicks)
from .errors import InvariantError
from .linear import multiport_outputs
from .lockkey import KeyString, generate_key

VERDICTS = ("accept", "unsure", "reject")
ACCEPT, UNSURE, REJECT = range(3)  # verdict codes: indices into VERDICTS
# The per-trial rows of the protocol drivers, in ``TrialTable`` order.
TRIAL_COLUMNS = ("trial", "e_bob", "e_charlie", "verdict_bob", "verdict_charlie", "clicks")


class ProtocolTranscript:
    """Append-only event log of one protocol run.

    Every event carries ``party``, ``action``, ``position`` (or None for
    whole-string actions) and optional ``amplitudes`` / ``counts`` payloads,
    all plain JSON values, so identical seeds give identical ``events``.
    """

    def __init__(self):
        self.events: list[dict] = []

    def record(self, party: str, action: str, position=None, amplitudes=None, counts=None, **extra):
        event = {"party": party, "action": action, "position": position}
        if amplitudes is not None:
            pairs = np.atleast_1d(amplitudes).astype(complex).view(float).reshape(-1, 2)
            event["amplitudes"] = pairs.tolist()
        if counts is not None:
            event["counts"] = np.atleast_1d(np.asarray(counts, dtype=np.int64)).tolist()
        event.update(extra)
        self.events.append(event)


def trusted_center_distribute(key: KeyString, copies: int,
                              transcript: ProtocolTranscript | None = None) -> np.ndarray:
    """Generate T copies of the public key through the center's multiports.

    Returns a read-only (copies, positions) view of the key string: row r is
    copy r, and every row is the same M amplitudes.

    The sender supplies ``|sqrt(T) alpha_j>`` per position; each position
    enters port 0 of a balanced T-port multiport whose other inputs are
    vacuum.  Row 0 of the multiport is uniform, so every output mode carries
    exactly ``alpha_j``, written as such rather than as a rounded product.
    Mean photon number is conserved: T |alpha_j|^2 in, |alpha_j|^2 per copy out.
    """
    copies = domain.integer(copies, "copies", 1)
    alpha = key.amplitudes()
    m = alpha.size
    recorded = 0 if transcript is None else (copies + 1) * m
    # Kept at T M entries, the array the copies once took, so the accepted requests do not move.
    domain.size(copies * m + domain.REPORT_ENTRIES * recorded, "the public-key copies")
    if transcript is not None:
        transcript.record("alice", "prepare", amplitudes=np.sqrt(copies) * alpha)
        for r in range(copies):
            transcript.record("center", "send", recipient=r, amplitudes=alpha)
    return np.broadcast_to(alpha, (copies, m))


def verdicts(errors, security_s: float, length: int) -> np.ndarray:
    """Verdict code (an index into ``VERDICTS``, as ``uint8``) for each error count.

    ACCEPT on zero errors, REJECT at errors >= s * length, UNSURE in between.
    As UNSURE is 1 and REJECT 2, the code of an integer count e is
    ``(e != 0) + (e >= max(ceil(s * length), 1))``, with one boolean temporary.
    """
    domain.fraction(security_s, "security parameter s", positive=True)
    length = domain.integer(length, "key length", 0)
    errors = domain.counts(errors, "error counts")
    # An integer threshold: numpy 1.x would compare uint8 counts with a float in float16.
    # At least 1, so that zero errors stay ACCEPT when s * length rounds up to 0.
    reject_at = max(math.ceil(security_s * length), 1)
    code = np.not_equal(errors, 0, out=np.empty(errors.shape, dtype=np.uint8))
    code += errors >= reject_at
    return code


def _split_verdicts(codes_a, codes_b) -> np.ndarray:
    """True where one party accepts while the other rejects."""
    # Of the codes 0, 1 and 2, only ACCEPT and REJECT differ in exactly these bits.
    return (codes_a ^ codes_b) == ACCEPT ^ REJECT


@dataclass(frozen=True)
class VerificationResult:
    errors: int
    verdict: str


def verify_against_private(copy_amplitudes, claimed: KeyString, security_s: float,
                           rng=0) -> VerificationResult:
    """Test a held public-key copy against a revealed private key.

    Each position is measured with the two-outcome test {|target><target|,
    1 - |target><target|}; the incorrect outcome fires with probability
    ``1 - |<target|held>|^2 = 1 - exp(-|held - target|^2)``, the click
    probability of an ideal detector on a mode of mean ``|held - target|^2``.
    The outcomes are one draw of ``detection.trial_clicks``.
    """
    held = domain.amplitudes(copy_amplitudes, "held copy", limit=math.inf)
    target = claimed.amplitudes()
    if held.shape != target.shape:
        raise ValueError(f"copy has {held.size} positions, claimed key has {target.size}")
    with np.errstate(over="ignore"):  # a mean beyond the float range clicks surely
        means = np.abs(held - target) ** 2
    clicks = trial_clicks(click_probabilities(means), rng)
    errors = int(np.count_nonzero(clicks))
    return VerificationResult(errors, VERDICTS[int(verdicts(errors, security_s, held.size))])


def coherent_with_overlap(alpha: complex, overlap: float) -> complex:
    """A coherent amplitude whose state has squared overlap ``overlap`` with |alpha>."""
    alpha = domain.amplitude(alpha, "alpha")
    overlap = domain.fraction(overlap, "overlap", positive=True)
    return alpha + math.sqrt(-math.log(overlap))


def cheat_bound(security_s: float, length: int) -> float:
    """Upper bound (1/2)^(s M - 1) on splitting the recipients' verdicts."""
    security_s = domain.fraction(security_s, "security parameter s", positive=True)
    length = domain.integer(length, "key length", 1)
    domain.size(length, "the key")
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
    split: Estimate
    bound: float
    errors_to_bob: int
    errors_to_charlie: int

    @property
    def disagreement_rate(self) -> float:  # kept because the benchmark reads it
        return self.split.rate


def _center_error_blocks(attack: AliceCenterAttack, trials: int, gen):
    """Bob's and Charlie's per-trial error counts, Binomial(positions, 1 - overlap) each.

    Yields ``(recipient, start, errors)`` for blocks of up to
    ``domain.BLOCK_ENTRIES`` trials: all of Bob's (recipient 0), then all of
    Charlie's (1).  Each recipient's errors are the trial engine's hit counts
    over ``positions`` positions of hit probability ``1 - overlap``
    (``detection._count_blocks``, which builds their distribution once per
    recipient), so the blocks hold the values of, and leave the stream where,
    ``bernoulli_counts(numpy.full(positions, 1 - overlap), trials, gen)`` for
    Bob and then for Charlie would: one 64-bit word per trial and recipient.
    """
    p_inc = np.full(attack.positions, 1.0 - attack.overlap)
    for recipient in (0, 1):
        for start, errors in _count_blocks(p_inc, trials, gen):
            yield recipient, start, errors


def simulate_dishonest_alice_center(attack: AliceCenterAttack, security_s: float, length: int,
                                    trials: int, rng=0) -> AliceCheatStats:
    """Monte Carlo estimate of the verdict-splitting probability under the center scheme.

    Both recipients' copies carry the substituted state at the attacked
    positions, so each independently sees an incorrect outcome there with
    probability ``1 - overlap``.  Disagreement means one recipient accepts
    (e = 0) while the other rejects (e >= s M); the empirical rate is checked
    against the ``(1/2)^(s M - 1)`` bound and must not exceed it beyond 3
    binomial standard errors.  Every argument is checked, the bound included,
    before anything is drawn.  The error counts come from the trial engine
    (``_center_error_blocks``).  Only Bob's verdict codes are held, one byte
    per trial; each block of Charlie's errors is reduced against them at once.
    """
    bound = cheat_bound(security_s, length)
    domain.integer(attack.positions, "attacked positions", 0, length)
    trials = domain.integer(trials, "trials", 1)
    domain.size(trials, "the per-trial verdict codes")
    codes_bob = np.empty(trials, dtype=np.uint8)
    error_totals = [0, 0]
    successes = 0
    for recipient, start, errors in _center_error_blocks(attack, trials, stream(rng)):
        error_totals[recipient] += int(errors.sum())
        codes = verdicts(errors, security_s, length)
        bob = codes_bob[start:start + codes.size]
        if recipient == 0:
            bob[:] = codes
        else:
            successes += int(np.count_nonzero(_split_verdicts(bob, codes)))
        del errors, codes  # so that only one block is alive while the next is drawn
    split = Estimate(successes, trials)
    rate = split.rate
    sigma = math.sqrt(max(rate * (1.0 - rate), bound * (1.0 - bound)) / trials)
    if rate > bound + 3.0 * sigma:
        raise InvariantError(
            f"empirical disagreement {rate} exceeds the bound {bound} beyond 3 sigma"
        )
    return AliceCheatStats(split, bound, *error_totals)


# ---------------------------------------------------------------------------
# distributed comparison without a center
# ---------------------------------------------------------------------------

@dataclass
class Party:
    """One recipient after the exchange: recovered string, clicks, event log."""

    name: str
    held: np.ndarray
    clicks: np.ndarray  # (length, copies - 1) clicks (0/1) in the comparison modes
    transcript: ProtocolTranscript = field(default_factory=ProtocolTranscript)

    @property
    def clicked(self) -> bool:
        return bool(np.any(self.clicks > 0))


def _exchange_recipients(recipients, length: int) -> int:
    """Recipient count T of an exchange whose parties record ~2 T numbers per position."""
    recipients = domain.integer(recipients, "recipients", 2)
    domain.size(domain.REPORT_ENTRIES * 2 * recipients**2 * length, "the exchange transcripts")
    return recipients


@dataclass(frozen=True)
class CharlieTamper:
    """Per-position substitution applied to the share Charlie sends Bob."""

    kind: str = "none"  # none | flip | vacuum | phase
    value: float = 0.0  # the phase, in radians, of kind "phase"

    def __post_init__(self):
        if self.kind not in ("none", "flip", "vacuum", "phase"):
            raise ValueError(f"unknown tamper kind {self.kind!r}")
        object.__setattr__(self, "value", domain.real(self.value, "tamper value"))

    def apply(self, share: np.ndarray) -> np.ndarray:
        """A new array: the share as Charlie forwards it, at every position."""
        if self.kind == "flip":
            return -share
        if self.kind == "vacuum":
            return np.zeros_like(share)
        if self.kind == "phase":
            return share * np.exp(1j * self.value)
        return share.copy()


def _exchange_outputs(copies: np.ndarray, tamper: CharlieTamper | None):
    """Port inputs, outputs and mode-0 deviations of every recipient's multiports.

    Recipient r feeds its kept share ``copies[r] / sqrt(T)`` to port 0 and the
    others' shares, in recipient order, to ports 1..T-1 of a (T, positions, T)
    batch.  The deviation is mode 0 minus ``sqrt(T)`` times the kept share:
    exactly 0 where every received share equals the kept one.
    """
    t_count = copies.shape[0]
    shares = copies / math.sqrt(t_count)
    senders = [[r] + [s for s in range(t_count) if s != r] for r in range(t_count)]
    inputs = shares[senders].transpose(0, 2, 1)
    if tamper is not None:
        inputs[0, :, 1] = tamper.apply(shares[1])
    gamma = multiport_outputs(inputs)
    # The same product multiport_outputs adds into mode 0, so equal shares cancel exactly.
    deviation = gamma[..., 0] - math.sqrt(t_count) * shares
    return inputs, gamma, deviation


def _run_exchange(copies, rng, tamper: CharlieTamper | None):
    """``distributed_exchange``'s parties, plus the ``gamma`` and ``deviation`` behind them."""
    arrs = [domain.amplitudes(c, "public-key copy", limit=math.inf) for c in copies]
    t_count = _exchange_recipients(len(arrs), arrs[0].size if arrs else 0)
    length = arrs[0].size
    if any(a.shape != (length,) for a in arrs):
        raise ValueError("all copies must have the same number of positions")
    inputs, gamma, deviation = _exchange_outputs(np.array(arrs), tamper)
    counts = trial_clicks(click_probabilities(np.abs(gamma[..., 1:]) ** 2), rng)

    parties = []
    for r in range(t_count):
        transcript = ProtocolTranscript()
        name = f"recipient-{r}"
        transcript.record(name, "split", amplitudes=inputs[r, :, 0])
        for s in range(t_count):
            if s != r:  # recipient s takes r's share in port r + 1 if r < s, else in port r
                transcript.record(name, "send", recipient=s, amplitudes=inputs[s, :, r + (r < s)])
        for j in range(length):
            transcript.record(name, "compare", position=j, counts=counts[r, j])
        # The copy plus its deviation: exactly the copy where the shares agree, while mode 0
        # itself, fl(sqrt(T) fl(copy / sqrt(T))), may differ from it by an ulp.
        held = arrs[r] + deviation[r]
        transcript.record(name, "recover", amplitudes=held)
        parties.append(Party(name=name, held=held, clicks=counts[r], transcript=transcript))
    return parties, gamma, deviation


def distributed_exchange(copies, rng=0, tamper: CharlieTamper | None = None) -> list[Party]:
    """Run the two-phase distributed comparison among T recipients.

    ``copies[r]`` is recipient r's public-key copy (one complex amplitude per
    position).  Phase 1 splits every position T ways (amplitude / sqrt(T));
    phase 2 feeds the kept share plus the T - 1 received shares into a
    balanced comparison multiport per position (``linear.multiport_outputs``).
    Mode 0 returns the recovered amplitude, held as the copy plus mode 0's
    deviation (exactly the copy where the shares agree); modes 1..T-1 are
    watched by detectors, which are ideal.  ``tamper`` acts on the share
    Charlie (1) forwards to Bob (0).
    """
    return _run_exchange(copies, rng, tamper)[0]


@dataclass(frozen=True)
class CharlieCheatStats:
    reject: Estimate
    detection: Estimate
    per_position_click_mean: tuple[float, ...]
    per_position_error_prob: tuple[float, ...]

    @property
    def bob_reject_rate(self) -> float:  # kept because the benchmark reads it
        return self.reject.rate

    @property
    def bob_detection_rate(self) -> float:  # kept because the benchmark reads it
        return self.detection.rate


def _bob_counts(gamma, deviation, trials: int, gen):
    """What Bob (recipient 0) sees in an exchange with outputs ``gamma`` and ``deviation``.

    Returns the mean photon numbers of his watched modes, (positions, T - 1),
    and the per-position probability ``1 - exp(-|deviation|^2)`` that his
    recovered copy errs, then his per-trial click counts (over every watched
    mode) and error counts, drawn in that order.  Where the shares agree both
    probabilities are exactly 0.
    """
    click_mean = np.abs(gamma[0, :, 1:]) ** 2
    p_error = click_probabilities(np.abs(deviation[0]) ** 2)
    clicks = bernoulli_counts(click_probabilities(click_mean), trials, gen)
    errors = bernoulli_counts(p_error, trials, gen)
    return click_mean, p_error, clicks, errors


def simulate_dishonest_charlie(tamper: CharlieTamper, security_s: float, length: int,
                               amplitude: float, trials: int, rng=0) -> CharlieCheatStats:
    """Two-recipient scenario where Charlie doctors the shares he sends Bob.

    Reports the probability that Charlie drives Bob's error count to the
    rejection threshold and the probability that Bob's (ideal) comparison
    multiports click at all (which exposes the tampering).  Bob verifies his
    recovered copy against the honestly announced private key, an 8-phase
    key drawn first from ``rng``; his counts depend on it only through
    ``amplitude``.
    """
    gen = stream(rng)
    alpha = generate_key(length, 8, amplitude, gen).amplitudes()
    _, gamma, deviation = _exchange_outputs(np.array([alpha, alpha]), tamper)
    click_mean, p_error, clicks, errors = _bob_counts(gamma, deviation, trials, gen)
    reject = Estimate.of(verdicts(errors, security_s, length) == REJECT)
    return CharlieCheatStats(reject, Estimate.of(clicks),
                             tuple(click_mean[:, 0].tolist()),  # T = 2: one watched mode
                             tuple(p_error.tolist()))


# ---------------------------------------------------------------------------
# protocol drivers for the command-line front end
# ---------------------------------------------------------------------------

class TrialTable:
    """Per-trial rows of a protocol driver, held as read-only columns.

    Iteration yields each row as the dict with keys ``TRIAL_COLUMNS``,
    converting ``domain.CHUNK_ROWS`` rows of every column at a time, so a
    table costs the bytes of its columns, not of its rows.  A column whose
    every entry is known may be a zero-stride view.
    """

    def __init__(self, e_bob, e_charlie, v_bob, v_charlie, clicks):
        self._columns = (e_bob, e_charlie, v_bob, v_charlie, clicks)
        for column in self._columns:
            column.setflags(write=False)

    def __len__(self) -> int:
        return self._columns[0].size

    def __iter__(self):
        for start in range(0, len(self), domain.CHUNK_ROWS):
            columns = zip(*(c[start:start + domain.CHUNK_ROWS].tolist() for c in self._columns))
            for i, (eb, ec, vb, vc, k) in enumerate(columns, start):
                yield {"trial": i, "e_bob": eb, "e_charlie": ec, "verdict_bob": VERDICTS[vb],
                       "verdict_charlie": VERDICTS[vc], "clicks": k}


def run_center_protocol(length: int, n_phases: int, amplitude: float, copies: int,
                        security_s: float, trials: int, adversary: str, rng=0):
    """Trusted-center scheme driver: a ``TrialTable`` of verdict rows plus a worked transcript."""
    if adversary not in ("none", "alice-overlap-half"):
        raise ValueError(f"unsupported adversary {adversary!r} for the center scheme")
    copies = domain.integer(copies, "recipients", 2)
    # Two error columns and two verdict ones: 4 bytes per trial (no clicks column is held).
    trials = domain.integer(trials, "trials", 1)
    domain.size(trials, "the per-trial columns")
    bound = cheat_bound(security_s, length)  # checks s and the length before anything is drawn
    gen = stream(rng)
    key = generate_key(length, n_phases, amplitude, gen)

    transcript = ProtocolTranscript()
    pubkey = trusted_center_distribute(key, copies, transcript=transcript)

    attack = AliceCenterAttack(positions=0 if adversary == "none" else 1, overlap=0.5)
    errors = np.empty((2, trials), dtype=np.uint8)  # at most one attacked position
    for recipient, start, block in _center_error_blocks(attack, trials, gen):
        errors[recipient, start:start + block.size] = block
    if adversary != "none":
        transcript.record("alice", "substitute", position=0,
                          amplitudes=[coherent_with_overlap(key.amplitudes()[0], attack.overlap)])
    v_bob, v_charlie = verdicts(errors, security_s, length)
    rows = TrialTable(errors[0], errors[1], v_bob, v_charlie,
                      np.broadcast_to(np.uint8(0), trials))  # no clicks: nothing is compared
    summary = {
        "scheme": "center",
        "adversary": adversary,
        "copies_uniform": bool(np.all(pubkey == pubkey[0])),
        "disagreement_rate": Estimate.of(_split_verdicts(v_bob, v_charlie)).rate,
        "cheat_bound": bound,
        "accept_rate_bob": Estimate.of(v_bob == ACCEPT).rate,
        "accept_rate_charlie": Estimate.of(v_charlie == ACCEPT).rate,
    }
    return summary, rows, transcript.events


def run_distributed_protocol(recipients: int, length: int, n_phases: int, amplitude: float,
                             security_s: float, trials: int, adversary: str, rng=0):
    """No-center scheme driver: a ``TrialTable`` of verdict rows plus one full exchange transcript.

    Bob's per-trial clicks (over all T - 1 watched modes) and errors come
    from the same T-recipient exchange that the transcript records.
    """
    if adversary not in ("none", "charlie-flip"):
        raise ValueError(f"unsupported adversary {adversary!r} for the distributed scheme")
    if adversary == "charlie-flip" and recipients != 2:
        raise ValueError("the charlie-flip adversary is defined for 2 recipients")
    # Bob's clicks and errors (one byte each up to 255 positions, two up to 65 535) and his
    # verdicts: 3-5 bytes per trial; Charlie's columns are zero-stride views.
    trials = domain.integer(trials, "trials", 1)
    domain.size(trials, "the per-trial columns")
    gen = stream(rng)
    alpha = generate_key(length, n_phases, amplitude, gen).amplitudes()
    recipients = _exchange_recipients(recipients, length)

    tamper = CharlieTamper("flip" if adversary == "charlie-flip" else "none")
    parties, gamma, deviation = _run_exchange([alpha] * recipients, gen, tamper)
    _, _, clicks, e_bob = _bob_counts(gamma, deviation, trials, gen)
    v_bob = verdicts(e_bob, security_s, length)
    # Charlie's incoming shares are never tampered: he recovers his copy exactly and accepts.
    rows = TrialTable(e_bob, np.broadcast_to(np.uint8(0), trials), v_bob,
                      np.broadcast_to(np.uint8(ACCEPT), trials), clicks)
    events = []
    for party in parties:
        events.extend(party.transcript.events)
    summary = {
        "scheme": "distributed",
        "adversary": adversary,
        "recipients": recipients,
        "bob_reject_rate": Estimate.of(v_bob == REJECT).rate,
        "bob_detection_rate": Estimate.of(clicks).rate,
        "honest_zero_clicks": bool(all(not p.clicked for p in parties)) if adversary == "none" else None,
    }
    return summary, rows, events
