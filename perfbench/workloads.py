"""The benchmark's workloads: inputs drawn from the seed and the jobs that use them.

``build(workload, seed, scale)`` draws every input from ``seed`` and returns
the workload's fixed job list, ``[(name, job), ...]``.  The package receives
only those generated inputs.  Each job checks its own output: Monte Carlo
rates against their closed forms within 5 sigma, the three multiport forms
against each other to 1e-10, oracle fidelities against 1 - 1e-8 and CLI
reruns byte for byte.

Two jobs fail at the seed and stay in the workloads because their inputs lie
inside the documented domain: ``comparison.forms.n1024`` (the overlap-product
form underflows, so ``p_success_multiport`` raises ``InvariantError`` or
``TypeError``) and ``cli.multiport.900`` (the same defect through the CLI:
exit 3, or exit 1 with a traceback).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qcompare import comparison, detection, fock, linear, lockkey, pkd

from harness import NonzeroExit, expect

ROOT = Path(__file__).resolve().parents[1]
CLI_BOOT = "import sys; from qcompare.cli import main; sys.exit(main(sys.argv[1:]))"
CLI_TIMEOUT_S = 60

SIZES = {
    "full": {
        "trials": 10**6, "charlie_trials": 10**5, "center_rows": 10**5, "dist_rows": 10**4,
        "forms_modes": (16, 256, 1024), "big_modes": 1024, "cutoffs": (40, 80),
        "warm_jobs": 16, "attack_amps": 6, "cli_trials": 10**5, "cli_rows": 10**5,
    },
    "smoke": {
        "trials": 2000, "charlie_trials": 2000, "center_rows": 2000, "dist_rows": 200,
        "forms_modes": (16, 64), "big_modes": 64, "cutoffs": (20, 24),
        "warm_jobs": 2, "attack_amps": 2, "cli_trials": 2000, "cli_rows": 2000,
    },
}


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _complex(rng, scale=1.0, size=None):
    return scale * (rng.normal(size=size) + 1j * rng.normal(size=size))


def _within_5_sigma(rate: float, p: float, trials: int, what: str) -> None:
    sigma = math.sqrt(p * (1.0 - p) / trials)
    expect(abs(rate - p) <= 5.0 * sigma + 1e-12,
           f"{what} {rate!r} is more than 5 sigma from the closed form {p!r}")


# ---------------------------------------------------------------------------
# mc-protocols
# ---------------------------------------------------------------------------

def _mc_protocols(rng, size) -> list:
    jobs = []
    trials = size["trials"]
    model = detection.DetectorModel(efficiency=rng.uniform(0.85, 0.95),
                                    dark_mean=rng.uniform(0.003, 0.006))

    # Lock tests at M=64 with dark counts, so even the true key passes with
    # probability below 1: p = exp(-sum_j (eff |lock_j - cand_j|^2 / 2 + dark)).
    length, n_phases = 64, 8
    amp = rng.uniform(0.10, 0.14)
    phases = rng.integers(0, n_phases, size=length)
    lock = amp * np.exp(2j * np.pi * phases / n_phases)
    key = lockkey.KeyString(n_phases, float(amp), tuple(int(k) for k in phases))
    candidates = {
        "key": lock,
        "vacuum": np.zeros(length, dtype=complex),
        "coherent": np.full(length, amp * rng.uniform(0.4, 0.8), dtype=complex),
    }
    for label, cand in candidates.items():
        p = math.exp(-float(np.sum(model.efficiency * np.abs(lock - cand) ** 2 / 2.0
                                   + model.dark_mean)))

        def lock_job(ctx, cand=cand, p=p, seed=_seed(rng)):
            stats = ctx.call("lockkey.pass_rate_s", lockkey.lock_test_pass_rate, key, cand,
                             model, trials=trials, rng=seed,
                             peak="lockkey.pass_rate_peak_alloc_mb")
            ctx.peak("detection.table_mb", trials * length * 8 / 1e6)
            _within_5_sigma(stats.rate, p, trials, "pass rate")

        jobs.append((f"lockkey.pass_rate.{label}", lock_job))

    # Balanced splitter, difference mode watched: p = 1 - exp(-(eff |a - b|^2 / 2 + dark)).
    alpha = complex(_complex(rng))
    dist_sq = rng.uniform(0.6, 1.6)
    beta = alpha - math.sqrt(dist_sq) * np.exp(2j * np.pi * rng.uniform())
    p_click = 1.0 - math.exp(-(model.efficiency * dist_sq / 2.0 + model.dark_mean))

    def trials_job(ctx, seed=_seed(rng)):
        net = ctx.call(None, linear.make_beam_splitter, 0.5)
        reg = ctx.call(None, linear.CoherentRegister, np.array([alpha, beta]))
        stats = ctx.call("detection.run_trials_s", detection.run_trials, reg, net, [1], model,
                         trials=trials, rng=seed, peak="detection.peak_alloc_mb")
        ctx.add("detection.trials", trials)
        ctx.peak("detection.table_mb", trials * 8 / 1e6)
        _within_5_sigma(stats.rate, p_click, trials, "click rate")

    jobs.append(("detection.run_trials", trials_job))

    # Dishonest sender, s*M = 10 with all 10 positions attacked: a split
    # verdict needs one recipient at 0 errors and the other at 10.
    overlap = rng.uniform(0.35, 0.5)
    attack = pkd.AliceCenterAttack(positions=10, overlap=float(overlap))
    p_split = 2.0 * overlap**10 * (1.0 - overlap) ** 10

    def alice_job(ctx, seed=_seed(rng)):
        stats = ctx.call("pkd.simulate_s", pkd.simulate_dishonest_alice_center, attack, 1.0, 10,
                         trials, rng=seed, peak="pkd.peak_alloc_mb")
        _within_5_sigma(stats.disagreement_rate, p_split, trials, "disagreement rate")
        mean = trials * 10 * (1.0 - overlap)
        sd = math.sqrt(trials * 10 * (1.0 - overlap) * overlap)
        for errors in (stats.errors_to_bob, stats.errors_to_charlie):
            expect(abs(errors - mean) <= 5.0 * sd, f"error total {errors} vs mean {mean:.1f}")

    jobs.append(("pkd.dishonest_alice_center", alice_job))

    # Charlie flips every share he sends Bob: each position clicks and errs
    # with probability 1 - exp(-amp^2); Bob rejects at 2 or more errors.
    c_len, c_amp, c_trials = 32, rng.uniform(0.04, 0.08), size["charlie_trials"]
    p_pos = 1.0 - math.exp(-c_amp**2)
    p_detect = 1.0 - (1.0 - p_pos) ** c_len
    p_reject = 1.0 - sum(math.comb(c_len, k) * p_pos**k * (1.0 - p_pos) ** (c_len - k)
                         for k in range(2))

    def charlie_job(ctx, seed=_seed(rng)):
        stats = ctx.call("pkd.simulate_s", pkd.simulate_dishonest_charlie,
                         pkd.CharlieTamper(kind="flip"), 2.0 / c_len, c_len, float(c_amp),
                         c_trials, rng=seed, peak="pkd.peak_alloc_mb")
        _within_5_sigma(stats.bob_detection_rate, p_detect, c_trials, "detection rate")
        _within_5_sigma(stats.bob_reject_rate, p_reject, c_trials, "reject rate")

    jobs.append(("pkd.dishonest_charlie_flip", charlie_job))

    # Center driver with the overlap-1/2 sender and s*M = 1: each recipient
    # errs with probability 1/2, so accept and split rates are both 1/2.
    rows = size["center_rows"]

    def center_job(ctx, amp=float(rng.uniform(0.5, 1.5)), seed=_seed(rng)):
        summary, table, _ = ctx.call("pkd.driver_s", pkd.run_center_protocol, 10, 8, amp, 2,
                                     0.1, rows, "alice-overlap-half", rng=seed,
                                     peak="pkd.peak_alloc_mb")
        ctx.add("pkd.driver_rows", len(table))
        expect(len(table) == rows, f"{len(table)} rows for {rows} trials")
        expect(summary["copies_uniform"], "center copies differ")
        _within_5_sigma(summary["accept_rate_bob"], 0.5, rows, "accept rate")
        _within_5_sigma(summary["disagreement_rate"], 0.5, rows, "disagreement rate")

    jobs.append(("pkd.center_protocol", center_job))

    # Honest distributed exchange: no clicks, no errors, copies recovered exactly.
    d_len, d_rows = 32, size["dist_rows"]
    for recipients in (2, 3, 4):
        d_amp = float(rng.uniform(0.5, 1.5))
        d_copy = d_amp * np.exp(2j * np.pi * rng.integers(0, 8, size=d_len) / 8)

        def distributed_job(ctx, t=recipients, amp=d_amp, copy=d_copy, seed=_seed(rng),
                            seed2=_seed(rng)):
            summary, table, _ = ctx.call("pkd.driver_s", pkd.run_distributed_protocol, t, d_len,
                                         8, amp, 0.5, d_rows, "none", rng=seed,
                                         peak="pkd.peak_alloc_mb")
            ctx.add("pkd.driver_rows", len(table))
            expect(len(table) == d_rows, f"{len(table)} rows for {d_rows} trials")
            expect(summary["honest_zero_clicks"] is True, "honest exchange clicked")
            expect(summary["bob_reject_rate"] == 0.0 and summary["bob_detection_rate"] == 0.0,
                   "honest run rejected or detected")
            parties = ctx.call("pkd.exchange_s", pkd.distributed_exchange, [copy] * t,
                               rng=seed2, peak="pkd.peak_alloc_mb")
            for party in parties:
                expect(not party.clicked, f"{party.name} clicked in an honest exchange")
                expect(np.max(np.abs(party.held - copy)) <= 1e-12 * max(1.0, amp),
                       f"{party.name} did not recover its copy")

        jobs.append((f"pkd.distributed.t{recipients}", distributed_job))
    return jobs


# ---------------------------------------------------------------------------
# analytic-oracle
# ---------------------------------------------------------------------------

def _fock_pair(a: complex, b: complex, cutoff: int):
    return fock.product_state(fock.coherent_fock(a, cutoff), fock.coherent_fock(b, cutoff))


def _analytic_oracle(rng, size) -> list:
    jobs = []

    # AM-GM dominance: 1 - p_succ (geometric mean of the permutation terms)
    # never exceeds p_symm (their arithmetic mean); N=2 has a closed form.
    for n in range(2, 9):
        for rep in range(2):
            def amgm_job(ctx, n=n, amps=_complex(rng, size=n)):
                p_sym = ctx.call("comparison.p_symm_s", comparison.p_symm, amps,
                                 count="comparison.calls")
                ctx.add("comparison.p_symm_terms", math.factorial(n) * n)
                p_succ = ctx.call("comparison.forms_s", comparison.p_success_multiport, amps,
                                  count="comparison.calls")
                expect(0.0 <= p_sym <= 1.0, f"p_symm {p_sym!r} outside [0, 1]")
                expect(1.0 - p_succ <= p_sym + 1e-12, "multiport fails more often than p_symm")
                if n == 2:
                    ov_sq = math.exp(-abs(amps[0] - amps[1]) ** 2)
                    expect(abs(p_sym - (1.0 + ov_sq) / 2.0) <= 1e-12, "p_symm != (1+|<a|b>|^2)/2")

            jobs.append((f"comparison.amgm.n{n}.{rep}", amgm_job))

    # The three multiport forms at amplitude spread ~1/sqrt(N).
    for n in size["forms_modes"]:
        def forms_job(ctx, amps=complex(_complex(rng)) + _complex(rng, 1 / math.sqrt(n), n)):
            p_succ = ctx.call("comparison.forms_s", comparison.p_success_multiport, amps,
                              count="comparison.calls")
            forms = ctx.call("comparison.forms_s", comparison.multiport_success_forms, amps,
                             count="comparison.calls")
            expect(all(isinstance(f, float) for f in forms), f"a form is not real: {forms!r}")
            expect(max(forms) - min(forms) <= comparison.FORM_AGREEMENT_TOL,
                   f"forms disagree by {max(forms) - min(forms):.3e}")
            expect(p_succ == min(1.0, max(0.0, forms[0])), "p_success_multiport != pairwise form")

        jobs.append((f"comparison.forms.n{n}", forms_job))

    # Balanced multiport (a DFT) applied to a register: output is fft(alpha)/sqrt(N).
    n_big = size["big_modes"]

    def linear_job(ctx, alpha=_complex(rng, size=n_big)):
        net = ctx.call("linear.multiport_s", linear.make_balanced_multiport, n_big)
        reg = ctx.call(None, linear.CoherentRegister, alpha)
        out = ctx.call("linear.apply_s", linear.apply_network, net, reg)
        ctx.add("linear.modes", n_big)
        ref = np.fft.fft(alpha) / math.sqrt(n_big)
        expect(np.max(np.abs(out.amplitudes - ref)) <= 1e-9 * np.max(np.abs(alpha)),
               "multiport output differs from the DFT")
        expect(abs(out.mean_photon_number - reg.mean_photon_number)
               <= 1e-9 * reg.mean_photon_number, "photon number not conserved")

    jobs.append((f"linear.multiport.n{n_big}", linear_job))

    # Fock oracle against the analytic coherent outputs.  A call is cold when
    # its transmittance is new in this process, so the block cache is empty.
    seen_transmittances = set()

    def oracle_call(ctx, state, transmittance):
        cold = transmittance not in seen_transmittances
        seen_transmittances.add(transmittance)
        if cold:
            ctx.add("fock.block_entries", sum((n + 1) ** 2 for n in range(2 * state.cutoff + 1)))
        return ctx.call(f"fock.apply_{'cold' if cold else 'warm'}_s", fock.apply_bs_fock,
                        state, transmittance, count=f"fock.{'cold' if cold else 'warm'}_calls")

    def fidelity_job(ctx, a, b, transmittance, cutoff):
        state = ctx.call(None, _fock_pair, a, b, cutoff)
        out = oracle_call(ctx, state, transmittance)
        t, r = math.sqrt(transmittance), math.sqrt(1.0 - transmittance)
        f = fock.fidelity(out, _fock_pair(t * a + r * b, r * a - t * b, cutoff))
        expect(f >= 1.0 - 1e-8, f"oracle fidelity {f!r} below 1 - 1e-8")

    def amplitude():
        return complex(*rng.uniform(-1.0, 1.0, size=2))

    for cutoff in size["cutoffs"]:
        def cold_job(ctx, args=(amplitude(), amplitude(), float(rng.uniform(0.2, 0.8)), cutoff)):
            fidelity_job(ctx, *args)

        jobs.append((f"fock.cold.c{cutoff}", cold_job))
    for k in range(size["warm_jobs"]):
        def warm_job(ctx, args=(amplitude(), amplitude(), 0.5, size["cutoffs"][0])):
            fidelity_job(ctx, *args)

        jobs.append((f"fock.t05.{k}", warm_job))

    def squeezed_job(ctx, xi=tuple(float(x) for x in rng.uniform(0.05, 0.3, size=2))):
        p_odd = ctx.call(None, fock.odd_photon_probability, xi[0], xi[1], 40)
        p_same = ctx.call(None, fock.odd_photon_probability, xi[0], xi[0], 40)
        expect(p_same <= 1e-12, f"equal squeezing shows odd counts with p={p_same!r}")
        expect(0.0 < p_odd <= 1.0, f"unequal squeezing odd probability {p_odd!r}")

    jobs.append(("fock.odd_photon", squeezed_job))

    # Optimal false key, checked against a 1024-phase numpy average of the
    # pass probability, which no package code computes.
    theta = 2.0 * np.pi * np.arange(1024) / 1024

    def pass_probability(a, b):
        return np.mean(np.exp(-0.5 * np.abs(a * np.exp(1j * theta)[:, None] - b) ** 2), axis=0)

    # One amplitude below sqrt(2) (vacuum optimum), the rest spread up to 20.  The
    # scan costs ~(2 amp + 5) / 1e-3 points, so the seed only jitters each
    # amplitude slightly and every seed asks for about the same work.
    centres = [0.8, *np.linspace(4.0, 20.0, size["attack_amps"] - 1)]
    attack_amps = np.array(centres) - rng.uniform(0.0, 0.3, size=len(centres))
    for k, amp in enumerate(attack_amps):
        def attack_job(ctx, amp=float(amp)):
            best = ctx.call("lockkey.attack_opt_s", lockkey.optimal_coherent_attack, amp,
                            count="lockkey.attack_opt_calls")
            p_ref = float(pass_probability(amp, np.array([best.beta_star]))[0])
            expect(abs(best.p_star - p_ref) <= 1e-9, f"p_star {best.p_star!r} vs {p_ref!r}")
            scan = pass_probability(amp, np.linspace(0.0, 2.0 * amp + 5.0, 201))
            expect(float(scan.max()) <= best.p_star + 1e-9, "a scanned beta beats the optimum")
            if amp < math.sqrt(2.0):
                expect(best.beta_star == 0.0, "optimum below sqrt(2) is not the vacuum")

        jobs.append((f"lockkey.attack.{k}", attack_job))

    # Finite-N entropy: analytic eigenvalues against brute-force diagonalization.
    for n in range(2, 9):
        def entropy_job(ctx, n=n, amp=float(rng.uniform(0.5, 2.0))):
            analytic = ctx.call("lockkey.entropy_s", lockkey.holevo_entropy_finite, amp, n)
            brute = ctx.call("lockkey.entropy_s", lockkey.entropy_by_diagonalization, amp, n)
            expect(abs(analytic.bits - brute.bits) <= 1e-8,
                   f"entropy {analytic.bits!r} vs diagonalized {brute.bits!r}")

        jobs.append((f"lockkey.entropy.n{n}", entropy_job))
    return jobs


# ---------------------------------------------------------------------------
# cli-reports
# ---------------------------------------------------------------------------

def _amp_arg(z: complex) -> str:
    return f"{z.real:.6f},{z.imag:.6f}"


def _main_in_process(argv) -> int:
    """Exit status of ``cli.main(argv)`` run in this process, output discarded."""
    from qcompare import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:  # an uncaught exception exits 1 from the console script
            return 1


def _cli_reports(rng, size) -> list:
    wide_center = complex(_complex(rng))
    seed = str(_seed(rng))
    invocations = [
        ("cli.compare", ["compare", "--alpha", _amp_arg(_complex(rng)),
                         "--beta", _amp_arg(_complex(rng))]),
        ("cli.multiport.8", ["multiport", "--amps", *map(_amp_arg, _complex(rng, size=8))]),
        ("cli.multiport.900", ["multiport", "--amps",
                               *map(_amp_arg, wide_center + _complex(rng, 0.03, 900))]),
        ("cli.oracle.coherent", ["oracle", "--alpha", _amp_arg(_complex(rng, 0.7)),
                                 "--beta", _amp_arg(_complex(rng, 0.7)),
                                 "--transmittance", f"{rng.uniform(0.2, 0.8):.6f}",
                                 "--cutoff", "40"]),
        ("cli.oracle.squeezed", ["oracle", "--xi1", f"{rng.uniform(0.05, 0.3):.6f}",
                                 "--xi2", f"{rng.uniform(0.05, 0.3):.6f}"]),
        ("cli.figure2.csv", ["figure2", "--format", "csv"]),
        ("cli.figure4.svg", ["figure4", "--format", "svg"]),
        ("cli.lockkey.simulate", ["lockkey", "simulate", "--M", "32",
                                  "--amp", f"{rng.uniform(0.1, 0.2):.6f}", "--attack", "vacuum",
                                  "--trials", str(size["cli_trials"]), "--seed", seed]),
        ("cli.lockkey.entropy", ["lockkey", "entropy"]),
        ("cli.lockkey.attack-scan", ["lockkey", "attack-scan", "--amp", "5", "--format", "csv"]),
        ("cli.pkd.center", ["pkd", "--scheme", "center", "--adversary", "alice-overlap-half",
                            "--format", "csv", "--s", "0.1",
                            "--trials", str(size["cli_rows"]), "--seed", seed]),
        ("cli.pkd.distributed", ["pkd", "--scheme", "distributed", "--recipients", "3",
                                 "--seed", seed]),
    ]
    # A figure-4-shaped chart (5 series of 51 points) for the svg layer.
    grid = np.linspace(0.0, 25.0, 51).tolist()
    series = [(f"N={n}", grid, np.sort(rng.uniform(0.0, math.log2(n), 51)).tolist())
              for n in range(2, 7)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", CLI_BOOT]

    def cli_job(ctx, argv):
        runs = []
        for _ in range(2):
            runs.append(ctx.call(None, subprocess.run, command + argv, capture_output=True,
                                 cwd=ROOT, env=env, timeout=CLI_TIMEOUT_S))
            ctx.split()
        ctx.add("cli.bytes_out", len(runs[0].stdout))
        ctx.add("cli.exit_nonzero", sum(run.returncode != 0 for run in runs))
        if ctx.traced:
            ctx.call("cli.main_s", _main_in_process, argv, latency=False)
            if argv[0] == "figure4":
                from qcompare import svg

                chart = ctx.call("svg.line_chart_s", svg.line_chart, series, latency=False)
                expect(chart.startswith("<svg") and chart.count("<polyline") == len(series),
                       "line chart is missing series")
        for run in runs:
            if run.returncode != 0:
                tail = run.stderr.decode(errors="replace").strip().splitlines()[-1:]
                raise NonzeroExit(f"exit {run.returncode}: {' '.join(tail)}")
        expect(runs[0].stdout, "no output")
        expect(runs[0].stdout == runs[1].stdout, "rerun output differs")

    return [(name, lambda ctx, argv=argv: cli_job(ctx, argv)) for name, argv in invocations]


BUILDERS = {
    "mc-protocols": _mc_protocols,
    "analytic-oracle": _analytic_oracle,
    "cli-reports": _cli_reports,
}


def build(workload: str, seed: int, scale: str = "full") -> list:
    """The workload's job list with every input drawn from ``seed``."""
    return BUILDERS[workload](np.random.default_rng(seed), SIZES[scale])
