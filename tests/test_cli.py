import argparse
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import shlex
import shutil
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompare import cli, comparison, linear, lockkey, pkd
from qcompare.domain import CHUNK_ROWS, WORK_BUDGET
from qcompare.errors import InvariantError
from support import traced_peak


def read(path):
    return path.read_bytes()


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


class TestCompare:
    def test_json_report_values(self, tmp_path):
        obj = run_json(["compare", "--alpha", "1,0", "--beta", "-1,0"], tmp_path)
        assert obj["schema"] == 1
        assert obj["p_succ"] == pytest.approx(1 - math.exp(-2), abs=1e-9)
        assert obj["p_asymm"] == pytest.approx((1 - math.exp(-4)) / 2, abs=1e-9)

    def test_bare_real_amplitude_accepted(self, tmp_path):
        obj = run_json(["compare", "--alpha", "1", "--beta", "-1"], tmp_path)
        assert obj["p_succ"] == pytest.approx(1 - math.exp(-2), abs=1e-9)



class TestMultiportAndOracle:
    def test_multiport_report(self, tmp_path):
        obj = run_json(["multiport", "--amps", "1,0", "1,0", "-1,0"], tmp_path)
        forms = obj["forms"]
        assert forms["pairwise"] == pytest.approx(forms["per_mode"], abs=1e-10)
        assert obj["failure_vs_symmetric"]["holds"] is True

    def test_multiport_with_900_close_amplitudes(self, tmp_path):
        rng = np.random.default_rng(900)
        amps = [f"{0.8 + x:.6f},{-0.4 + y:.6f}" for x, y in 0.03 * rng.standard_normal((900, 2))]
        obj = run_json(["multiport", "--amps", *amps], tmp_path)
        forms = obj["forms"].values()
        assert max(forms) - min(forms) <= 1e-10
        assert "p_asymm" not in obj and "failure_vs_symmetric" not in obj

    @pytest.mark.parametrize("args,symm_sums", [
        (["compare", "--alpha", "1,0.5", "--beta", "-1,0"], 1),
        (["multiport", "--amps", "1,0", "0.5,0.5", "-1,0", "0,1", "0.2,0", "0,-0.7", "0.3,0.3",
          "-0.4,0.1"], 1),
        (["multiport", "--amps", *[f"{0.1 * k},0" for k in range(12)]], 0),
    ])
    def test_no_dense_network_and_at_most_one_permutation_sum(self, monkeypatch, tmp_path,
                                                             args, symm_sums):
        calls = {"network": 0, "p_symm": 0}

        def counted(name, fn):
            def wrapper(*a, **k):
                calls[name] += 1
                return fn(*a, **k)
            return wrapper

        # Every network, the dense DFT included, is checked for unitarity here.
        monkeypatch.setattr(linear.LinearNetwork, "__post_init__",
                            counted("network", linear.LinearNetwork.__post_init__))
        monkeypatch.setattr(comparison, "p_symm", counted("p_symm", comparison.p_symm))
        run_json(args, tmp_path)
        assert calls == {"network": 0, "p_symm": symm_sums}

    def test_large_amplitude_inside_the_bound(self, tmp_path):
        obj = run_json(["multiport", "--amps", "1e15,0", "0,0"], tmp_path)
        assert obj["p_succ"] == 1.0

    def test_oracle_coherent_fidelity(self, tmp_path):
        obj = run_json(["oracle", "--alpha", "0.8,0", "--beta", "0.8,0"], tmp_path)
        assert obj["fidelity_vs_analytic"] >= 1 - 1e-8

    def test_oracle_squeezed_parity(self, tmp_path):
        obj = run_json(["oracle", "--xi1", "0.2", "--xi2", "0.2"], tmp_path)
        assert obj["odd_photon_probability"] < 1e-10
        obj = run_json(["oracle", "--xi1", "0.2", "--xi2", "0.1"], tmp_path)
        assert obj["odd_photon_probability"] > 1e-8

    def test_oracle_coherent_transmittance_defaults_to_balanced(self, tmp_path):
        args = ["oracle", "--alpha", "0.8,0.3", "--beta", "-0.5,0.2", "--cutoff", "20"]
        balanced = run_json(args + ["--transmittance", "0.5"], tmp_path, "balanced.json")
        assert run_json(args, tmp_path) == balanced


class TestFigures:
    def test_csv_sweep_starts_at_zero(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["figure2", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# schema=1")
        assert lines[1] == "delta_abs,p_succ,p_asymm"
        first = lines[2].split(",")
        assert [float(x) for x in first] == [0.0, 0.0, 0.0]

    def test_figure2_rows(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert cli.main(["figure2", "--max", "4", "--step", "0.5",
                         "--format", "csv", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        last = rows[-1].split(",")
        assert float(last[1]) == pytest.approx(1 - math.exp(-8), abs=1e-9)
        assert float(last[2]) < 0.5
        d2 = [r.split(",") for r in rows if r.startswith("2,")][0]
        assert float(d2[1]) == pytest.approx(0.8646647, abs=1e-6)

    def test_figure2_svg(self, tmp_path):
        out = tmp_path / "fig2.svg"
        assert cli.main(["figure2", "--format", "svg", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_figure4_curves_ordered_by_alphabet(self, tmp_path):
        obj = run_json(["figure4", "--N", "2", "4", "--alpha-sq-max", "25",
                        "--points", "6"], tmp_path)
        rows = obj["rows"]
        top = {n: max(r["S_bits"] for r in rows if r["N"] == n) for n in (2, 4)}
        assert top[4] > top[2]
        assert all(r["S_bits"] == pytest.approx(0, abs=1e-9)
                   for r in rows if r["alpha_sq"] == 0)
        final = [r for r in rows if r["N"] == 2 and r["alpha_sq"] == 25.0][0]
        assert abs(final["S_bits"] - 1.0) < 0.05


class TestLockKey:
    def test_entropy_point_value(self, tmp_path):
        obj = run_json(["lockkey", "entropy", "--N", "4", "--alpha-sq", "25"], tmp_path)
        result = obj["results"][0]
        assert result["N"] == 4
        assert abs(result["S_bits"] - 2.0) < 0.05

    def test_entropy_defaults_to_the_default_key(self, tmp_path):
        # |alpha|^2 = 1 is the mean photon number of a key of --amp 1, the simulate default.
        bare = run_json(["lockkey", "entropy"], tmp_path, "bare.json")
        assert bare == run_json(["lockkey", "entropy", "--alpha-sq", "1"], tmp_path)
        assert [r["N"] for r in bare["results"]] == [2, 3, 4, 5, 6]

    def test_figure4_rows_are_the_entropy_point_reports(self, tmp_path):
        # One computation: each figure4 row is bit for bit the point report at its N and |alpha|^2.
        rows = run_json(["figure4", "--N", "2", "3", "--alpha-sq-max", "9", "--points", "7"],
                        tmp_path, "figure.json")["rows"]
        assert len(rows) == 14
        for a2 in sorted({r["alpha_sq"] for r in rows}):
            point = run_json(["lockkey", "entropy", "--N", "2", "3", "--alpha-sq", repr(a2)],
                             tmp_path)
            assert [(p["N"], p["S_bits"]) for p in point["results"]] == [
                (r["N"], r["S_bits"]) for r in rows if r["alpha_sq"] == a2]

    def test_simulate_vacuum_attack(self, tmp_path):
        obj = run_json(["lockkey", "simulate", "--M", "5", "--N", "8", "--amp", "1",
                        "--attack", "vacuum", "--trials", "20000", "--seed", "3"],
                       tmp_path)
        assert obj["analytic_pass_probability"] == pytest.approx(math.exp(-2.5), rel=1e-9)
        sigma = math.sqrt(obj["analytic_pass_probability"] / 20000)
        assert abs(obj["pass_rate"] - obj["analytic_pass_probability"]) < 4 * sigma

    @pytest.mark.parametrize("attack", ["vacuum", "key"])
    def test_simulate_with_a_lossy_noisy_detector(self, attack, tmp_path):
        # The analytic value once ignored --efficiency and --dark-mean: 0.00674
        # against a simulated 0.0831 for a vacuum attack at efficiency 0.5.
        trials = 100_000
        obj = run_json(["lockkey", "simulate", "--attack", attack, "--M", "10", "--amp", "1",
                        "--efficiency", "0.5", "--dark-mean", "0.01", "--trials", str(trials),
                        "--seed", "7"], tmp_path)
        exact = math.exp(-10 * (0.01 + (0.25 if attack == "vacuum" else 0.0)))
        p = obj["analytic_pass_probability"]
        assert p == pytest.approx(exact, rel=1e-12)
        assert abs(obj["pass_rate"] - p) < 5 * math.sqrt(p * (1 - p) / trials)

    def test_attack_scan_contains_optimum(self, tmp_path):
        obj = run_json(["lockkey", "attack-scan", "--amp", "5", "--step", "0.1"], tmp_path)
        assert abs(obj["beta_star"] - 5.0) < 0.5
        assert obj["p_star"] * math.sqrt(2 * math.pi) * 5.0 == pytest.approx(1.0, abs=0.1)


class TestPkd:
    def test_center_csv_columns(self, tmp_path):
        out = tmp_path / "pkd.csv"
        assert cli.main(["pkd", "--scheme", "center", "--M", "4", "--trials", "50",
                         "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "trial,e_bob,e_charlie,verdict_bob,verdict_charlie,clicks"
        assert len(lines) == 52

    def test_center_overlap_half_disagreement(self, tmp_path):
        obj = run_json(["pkd", "--scheme", "center", "--M", "1", "--s", "1",
                        "--adversary", "alice-overlap-half", "--trials", "40000",
                        "--seed", "5"], tmp_path)
        rate = obj["summary"]["disagreement_rate"]
        assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / 40000)

    def test_distributed_honest(self, tmp_path):
        obj = run_json(["pkd", "--scheme", "distributed", "--recipients", "3",
                        "--M", "8", "--trials", "20"], tmp_path)
        assert obj["summary"]["honest_zero_clicks"] is True

    @pytest.mark.parametrize("amp", ["1e20", "1e30"])
    def test_distributed_honest_at_large_amplitude(self, amp, tmp_path):
        # Through the dense multiport, rounding left watched means of about
        # (eps amp)^2: clicks at 1e20, a mean count above the Poisson limit
        # (exit 2) at 1e30.
        obj = run_json(["pkd", "--scheme", "distributed", "--amp", amp, "--trials", "5"],
                       tmp_path)
        assert obj["summary"]["honest_zero_clicks"] is True
        # Bob's errors once came from an eps * amp residue of a re-derived splitter.
        assert obj["summary"]["bob_reject_rate"] == 0.0


def old_csv_text(columns, rows, seed=None):
    """Reference: the whole CSV report joined in memory, as the writer did before streaming."""
    head = f"# schema={cli.SCHEMA}" + ("" if seed is None else f" seed={seed}")
    lines = [head, ",".join(columns)]
    lines.extend(",".join(cli._fmt(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


class TestStreamedCsv:
    PKD_ARGS = ["pkd", "--scheme", "center", "--adversary", "alice-overlap-half",
                "--M", "10", "--s", "0.1", "--seed", "4"]

    @pytest.mark.parametrize("trials", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                        2 * CHUNK_ROWS + 1])
    def test_chunks_equal_the_whole_text(self, trials, tmp_path):
        out = tmp_path / "pkd.csv"
        argv = self.PKD_ARGS + ["--trials", str(trials), "--format", "csv"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        _, rows, _ = pkd.run_center_protocol(10, 8, 1.0, 2, 0.1, trials,
                                             "alice-overlap-half", rng=4)
        columns = ("trial", "e_bob", "e_charlie", "verdict_bob", "verdict_charlie", "clicks")
        assert out.read_bytes() == old_csv_text(columns, rows, 4).encode()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(argv) == 0
        assert stdout.getvalue().encode() == out.read_bytes()

    def test_figure_rows_stream_like_the_whole_text(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert cli.main(["figure4", "--points", "900", "--N", "2", "3", "4", "5", "6",
                         "--format", "csv", "--out", str(out)]) == 0
        rows = [{"alpha_sq": float(a2), "N": n,
                 "S_bits": lockkey.holevo_entropy_finite(math.sqrt(a2), n).bits,
                 "asymptote_bits": math.log2(n)}
                for n in (2, 3, 4, 5, 6) for a2 in np.linspace(0.0, 25.0, 900)]
        assert out.read_bytes() == old_csv_text(("alpha_sq", "N", "S_bits", "asymptote_bits"),
                                                rows).encode()

    def test_pkd_csv_at_the_row_budget_in_bounded_memory(self, tmp_path):
        # The row dicts and the joined text of 2 * 10^5 rows took 89.7 MB.
        out = tmp_path / "pkd.csv"
        code, peak = traced_peak(cli.main, ["pkd", "--scheme", "center", "--format", "csv",
                                            "--trials", "200000", "--adversary",
                                            "alice-overlap-half", "--s", "0.1", "--out", str(out)])
        assert code == 0
        assert out.read_text().count("\n") == 200_002
        assert peak <= 16e6, peak


class TestStreamedJson:
    def test_pkd_json_of_a_million_trials(self, tmp_path):
        # The drivers once budgeted 50 entries per trial, as for formatted rows, and
        # rejected more than 2 * 10^5 trials, though JSON holds no per-trial rows.
        out = tmp_path / "pkd.json"
        assert cli.main(["pkd", "--trials", "1000000", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["params"]["trials"] == 10**6

    def test_pkd_json_in_bounded_memory(self, tmp_path):
        # The joined text and json's chunk list of this report peaked at 59.8 MB traced.
        out = tmp_path / "pkd.json"
        code, peak = traced_peak(cli.main, ["pkd", "--scheme", "distributed", "--recipients", "6",
                                            "--M", "2000", "--trials", "10", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["params"]["M"] == 2000
        assert peak <= 30e6, peak


def closed_pipe():
    """The write end of a pipe whose read end is closed, as a text file."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return open(write_end, "w")


def lowest_free_descriptor():
    """The descriptor the next ``open`` gets: POSIX hands out the lowest free one."""
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


class TestContracts:
    def test_byte_identical_reruns(self, tmp_path):
        specs = [
            (["figure2", "--step", "0.25", "--format", "csv"], "a.csv"),
            (["pkd", "--scheme", "center", "--adversary", "alice-overlap-half",
              "--M", "4", "--s", "0.5", "--trials", "200", "--seed", "9"], "b.json"),
            (["lockkey", "simulate", "--trials", "500", "--seed", "11"], "c.json"),
        ]
        for args, name in specs:
            first = tmp_path / ("first_" + name)
            second = tmp_path / ("second_" + name)
            assert cli.main(args + ["--out", str(first)]) == 0
            assert cli.main(args + ["--out", str(second)]) == 0
            assert read(first) == read(second)

    def test_csv_uses_lf_and_dot_decimals(self, tmp_path):
        out = tmp_path / "fig.csv"
        cli.main(["figure2", "--step", "1", "--format", "csv", "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert b"0.864664716763" in raw

    @pytest.mark.parametrize("target,reason", [
        (Path("missing", "x.csv"), errno.ENOENT),
        (Path("."), errno.EISDIR),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_2(self, target, reason, tmp_path):
        out = tmp_path / target
        code, stdout, err = run_captured(["figure2", "--format", "csv", "--out", str(out)])
        assert code == 2 and stdout == ""
        assert err == f"error: cannot write --out {out}: {os.strerror(reason)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["figure2", "--format", "csv"],
        ["figure2", "--format", "json"],
        ["figure4", "--format", "svg"],
        ["compare", "--alpha", "1,0", "--beta", "-1,0"],
    ], ids=["csv", "json", "svg", "small-json"])
    def test_failed_write_exits_2_and_leaves_the_target(self, argv):
        code, stdout, err = run_captured(argv + ["--out", "/dev/full"])
        assert code == 2 and stdout == ""
        assert err == f"error: cannot write --out /dev/full: {os.strerror(errno.ENOSPC)}\n"
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)

    @pytest.mark.parametrize("opener,code,message", [
        (closed_pipe, 0, ""),
        pytest.param(lambda: open("/dev/full", "w"), 2,
                     f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n",
                     marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                              reason="needs /dev/full")),
    ], ids=["closed-pipe", "full"])
    def test_stdout_that_cannot_be_written(self, opener, code, message):
        # A reader that closed early ends the run quietly; a full stdout is an error.  Either
        # way the descriptor that sends stdout to devnull is closed again.
        err = io.StringIO()
        with opener() as stdout, contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(err):
            free = lowest_free_descriptor()
            assert cli.main(["figure2", "--format", "csv"]) == code
            assert lowest_free_descriptor() == free
        assert err.getvalue() == message

    def test_failed_write_keeps_what_was_written(self, tmp_path, monkeypatch):
        def write_then_fail(fh, columns, rows, seed):
            fh.write("partial\n")
            fh.flush()
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(cli, "_write_csv", write_then_fail)
        out = tmp_path / "fig2.csv"
        code, _, err = run_captured(["figure2", "--format", "csv", "--out", str(out)])
        assert code == 2
        assert err == f"error: cannot write --out {out}: {os.strerror(errno.EIO)}\n"
        assert out.read_text() == "partial\n"

    @pytest.mark.parametrize("option,action,took_effect", [
        (["--format", "csv"], ["attack-scan", "--amp", "5"],
         lambda out, stdout: stdout.startswith("# schema=1\nbeta,p_pass\n")),
        (["--seed", "5"], ["simulate", "--trials", "10"],
         lambda out, stdout: json.loads(stdout)["seed"] == 5),
        (["--out", "F"], ["entropy", "--alpha-sq", "2"],
         lambda out, stdout: stdout == "" and out.exists()),
    ], ids=["format", "seed", "out"])
    def test_common_options_follow_the_lockkey_action(self, option, action, took_effect,
                                                       tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "F"
        code, stdout, _ = run_captured(["lockkey", *option, *action])
        assert code == 2 and stdout == "" and not out.exists()
        code, stdout, _ = run_captured(["lockkey", *action, *option])
        assert code == 0 and took_effect(out, stdout)

    def test_readme_command_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True) for line in block.splitlines()
                    if line.startswith("qcompare ")]
        assert len(commands) >= 11
        parser = cli.build_parser()
        for command in commands:
            try:
                parser.parse_args(command[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {shlex.join(command)}")

    @pytest.mark.parametrize("argv,prog", [
        (["figure2", "--seed", "1"], "qcompare figure2"),
        (["lockkey", "simulate", "--threshold-detectors"], "qcompare lockkey simulate"),
    ], ids=["figure2", "lockkey simulate"])
    def test_unknown_option_names_its_subcommand(self, argv, prog):
        code, stdout, err = run_captured(argv)
        assert code == 2 and stdout == ""
        assert err.startswith(f"usage: {prog} [-h]")
        unknown = " ".join(argv[len(prog.split()) - 1:])
        assert err.endswith(f"{prog}: error: unrecognized arguments: {unknown}\n")

    def test_option_before_the_lockkey_action_names_the_group(self):
        code, stdout, err = run_captured(["lockkey", "--seed=1", "simulate"])
        assert code == 2 and stdout == ""
        assert err.startswith("usage: qcompare lockkey [-h]")
        assert err.endswith("qcompare lockkey: error: unrecognized arguments: --seed=1 "
                            "(options follow the action: qcompare lockkey simulate [options])\n")

    def test_invariant_error_exits_3(self, monkeypatch, capsys):
        def boom(args):
            raise InvariantError("forms disagree")

        monkeypatch.setattr(cli, "_cmd_figure2", boom)
        assert cli.main(["figure2"]) == 3
        assert "invariant" in capsys.readouterr().err

    def test_seed_recorded_in_outputs(self, tmp_path):
        out = tmp_path / "pkd.csv"
        assert cli.main(["pkd", "--trials", "10", "--format", "csv", "--seed", "77",
                         "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "# schema=1 seed=77"
        assert run_json(["pkd", "--trials", "10", "--seed", "77"], tmp_path)["seed"] == 77
        assert run_json(["lockkey", "simulate", "--trials", "10", "--seed", "77"],
                        tmp_path)["seed"] == 77
        # A closed-form table draws nothing, so its header records no seed.
        assert cli.main(["figure2", "--step", "1", "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "# schema=1"


# Fixed-seed CLI outputs and their sha256, recorded before the trial engine
# was streamed in blocks; see TestGoldenOutputs.  The two `lockkey simulate`
# runs with a lossy, noisy detector were re-recorded when their analytic pass
# probability began to include the detector.  The three charlie-flip runs were
# re-recorded when the exchange transcript's clicks came from the trial engine
# (one uniform per watched mode) instead of Poisson draws.  The four CSV tables
# of closed forms were re-pinned when their header stopped recording a seed
# that they never drew from: only the header line "# schema=1 seed=0" changed.
# The four `lockkey simulate` runs with a nonzero click probability and the three
# charlie-flip runs were re-recorded when the trial engine began to draw each
# trial's count from its Poisson-binomial distribution, one word per trial; the
# M = 40 charlie-flip JSON moved again when each recovered copy in its transcript
# became the copy plus its deviation.
GOLDEN = [
    ("lockkey simulate --attack key --M 8 --trials 5000 --seed 0",
     "4207cabd8c0da07dbb2093c73b684f583adf03dd7d9bdbbe3a039f632df4d043"),
    ("lockkey simulate --attack vacuum --M 6 --trials 5000 --seed 7",
     "7fd10f8d68e7a82f69f596c694ec588ee291689f0d84771663471724ed6a432d"),
    ("lockkey simulate --attack coherent --beta 0.8 --M 12 --trials 5000 --seed 123",
     "e9cd98aceff5a1197bdc52e15f4dddaae00bb63dda4cdfc36b5a206ef605ee03"),
    ("lockkey simulate --attack key --M 16 --amp 0.5 --efficiency 0.9 --dark-mean 0.02 --trials 5000 --seed 7",
     "c2a6c5445f872a04111345028e348a675a7b21f12147418fca4e32e56d8d5d2f"),
    ("pkd --scheme center --M 6 --trials 300 --seed 0 --format csv",
     "016dee34762b5e352b7635e624a27ddc82c786a2085ef6fc01c942c5f61d142b"),
    ("pkd --scheme center --M 6 --trials 300 --seed 0 --format json",
     "6702cf24baf7401c16850a6751057a870ccbb09ad0550249bcb429f19903c89a"),
    ("pkd --scheme center --adversary alice-overlap-half --M 2 --s 0.5 --trials 300 --seed 7 --format csv",
     "c89e377fc4aee8b1392164dcf98dc8fc9ee62591108be9ea0d8d3483a00c0cb2"),
    ("pkd --scheme center --adversary alice-overlap-half --M 2 --s 0.5 --trials 300 --seed 7 --format json",
     "a9c259f2f6d520b6e59951ded2165b441c5bf9e28665a0212cd4b577866a498b"),
    ("pkd --scheme distributed --recipients 3 --M 5 --trials 200 --seed 123 --format csv",
     "dc6a01de3c1e41604a4d8639f5007d5ff890adfba178e81c3ad5fa92bcd9d80d"),
    ("pkd --scheme distributed --recipients 3 --M 5 --trials 200 --seed 123 --format json",
     "2a749282e94988e716d5dcafc7015c7ece43de7c504716b9808da7ffc797b160"),
    ("pkd --scheme distributed --adversary charlie-flip --M 6 --amp 0.7 --s 0.5 --trials 300 --seed 7 --format csv",
     "bbecd7abc6dea7b4ce1b8d1e0b06cc3bf1c0bc74e934eabdf061cecfb3171419"),
    ("pkd --scheme distributed --adversary charlie-flip --M 6 --amp 0.7 --s 0.5 --trials 300 --seed 7 --format json",
     "0d798cd3d8f43b940c9ee88d23f60c4461a1f7dfb2e9b4811e9db3baecbc0cd9"),
    ("lockkey simulate --attack coherent --beta 0.1 --M 64 --amp 0.12 --efficiency 0.9 --dark-mean 0.002 --trials 20000 --seed 5",
     "c925e917dc7df7f1dbe976c97dff647baacd0bdb39632900e2a68e934bf8124e"),
    ("pkd --scheme distributed --adversary charlie-flip --M 40 --amp 0.3 --s 0.1 --trials 10000 --seed 11 --format json",
     "fb13eb3e1bd051a3252c47706b4efbacaf72451f53bc765e27f282ae3268a5be"),
    ("figure2 --max 3 --step 0.25 --format csv",
     "e467f0fad0e4ca4468327299c1b158bbaa56b9f0d6e097cf91973ac390f42d28"),
    ("figure2 --max 3 --step 0.25 --format svg",
     "d473698416d005d32674c97442b6e957b6010af23cd376ef31f08f51b2d59e60"),
    ("figure4 --N 2 3 5 --alpha-sq-max 9 --points 7 --format csv",
     "36e88cb81d47889cea96d3c0eed6331e91a56c96c873dc289dd9670622804d03"),
    ("figure4 --N 2 3 5 --alpha-sq-max 9 --points 7 --format svg",
     "af5a972b64d71c44d66b6c84554ef17ff2fa4b6912a6b9238bab2d88d397d14a"),
    ("compare --alpha 1,0.5 --beta -1,0 --format json",
     "ea4a8f32234e103ed004decbf1112e7f450658beeed76ecaed8d85d9e346f340"),
    ("oracle --alpha 0.8,0.3 --beta -0.5,0.2 --transmittance 0.3 --cutoff 40",
     "b40a23ac0d7db4347df9ef72df449f680eccd7153cdce22e089462f1d5b19562"),
    ("oracle --xi1 0.2 --xi2 0.1",
     "d199f88f191bcf2d8b0b6b6625a5cda32ec9797f732114838398c0a156a409f4"),
    ("multiport --amps 1,0 1,0 -1,0",
     "7a703d48e6a9e2a6ddb7e50546a63c47a49c361f68d375a9784365df60d2cf96"),
    ("multiport --amps 0.3,0.1 -0.2,0.4 0.5,-0.5 0.1,0 -0.3,-0.3 0.2,0.2 0,0.6 -0.4,0.1 "
     "0.7,0 -0.1,-0.6 0.25,0.35 -0.55,0.05",
     "1712234ccc101b8ba5417f95c4f50c76a33cecbe5548e1e3d3691cbdcc98a2b1"),
    # Recorded before every subcommand returned one Report to a single writer.
    ("figure2 --max 3 --step 0.25 --format json",
     "e1b7a5b45820df597324c049437d971eb670a69ec700208f919f57fcb9d70b85"),
    ("figure4 --N 2 3 5 --alpha-sq-max 9 --points 7 --format json",
     "edbb2d738acc4cf99ab8e2c701861fe8600f0e2af5e2628112a0fcd4c74bb2a0"),
    ("figure4 --N 2 2 --points 3 --format svg",
     "29287d647b7a07ac32174eb72d39c14aeb0111d14e30f30bb9288fec76b7bc26"),
    ("lockkey entropy --alpha-sq 2 --format json",
     "8f797ee2b3bf52667fc419e409c5af3108de0bc321b07a924e5c3f2a27ea77ce"),
    ("lockkey attack-scan --amp 2 --step 0.5 --format json",
     "e73a7379f068b25c1eeb4a669bef4c7f1cfb78c766259de0d4f2665e73bb3523"),
    ("lockkey attack-scan --amp 2 --step 0.5 --format csv",
     "3fbafd17410ef5a07a153d73bfadd85bae1bd7cb0ac7ccdb694af539e77b50da"),
    ("lockkey attack-scan --amp 2 --step 0.5 --format svg",
     "b6f9f79cbeec77ce3d33d32f6f5974b7b8bc8ebb28cedf96b467afee267b8a17"),
]


class TestGoldenOutputs:
    """Pin each fixed-seed output byte for byte across commits, not just across reruns.

    The hashes assume numpy's current Philox bit stream and Generator
    sampling algorithms (``random``, ``integers``) and IEEE-754 doubles with
    the platform's ``exp``/``log``; a numpy release or math library that
    changes any of them changes these bytes without any change to qcompare.
    """

    @pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
    def test_output_matches_recorded_hash(self, command, digest, tmp_path):
        out = tmp_path / "out"
        assert cli.main(command.split() + ["--out", str(out)]) == 0
        assert hashlib.sha256(read(out)).hexdigest() == digest


class TestModuleEntryPoint:
    @staticmethod
    def env():
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)  # a buffered stdout, as by default, is flushed at exit
        return env

    def run_module(self, *args, module="qcompare.cli"):
        return subprocess.run([sys.executable, "-m", module, *args], capture_output=True,
                              text=True, env=self.env(), timeout=120)

    def test_python_m_package_runs_the_cli(self):
        proc = self.run_module("compare", "--alpha", "1,0", "--beta", "-1,0", module="qcompare")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["p_succ"] == pytest.approx(1 - math.exp(-2), abs=1e-9)
        assert self.run_module("compare", "--alpha", "nope", "--beta", "0,0",
                               module="qcompare").returncode == 2

    def test_python_m_prints_report(self):
        proc = self.run_module("compare", "--alpha", "1,0", "--beta", "-1,0")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["p_succ"] == pytest.approx(1 - math.exp(-2), abs=1e-9)

    def test_python_m_unwritable_out_exits_2_without_traceback(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        proc = self.run_module("figure2", "--format", "csv", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot write --out {out}: ")
        assert "Traceback" not in proc.stderr

    def test_python_m_closed_stdout_pipe_exits_0_quietly(self):
        # 351 kB of CSV: far more than a pipe buffers, so writing goes on after the close
        proc = subprocess.Popen([sys.executable, "-m", "qcompare", "lockkey", "attack-scan",
                                 "--amp", "5", "--step", "0.001", "--format", "csv"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env())
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.stderr.close()
        assert first == b"# schema=1\n"
        assert (code, err) == (0, "")

    @pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
    def test_python_m_small_output_into_a_closed_pipe_exits_0_every_time(self):
        # Unbuffered, each CSV write is a system call, and head may close before the last:
        # the run once exited 0 or 2 by timing, 2 in about half of all runs.
        command = (f"{shlex.quote(sys.executable)} -m qcompare figure2 --format csv | head -1"
                   " > /dev/null; echo ${PIPESTATUS[0]}")
        env = dict(self.env(), PYTHONUNBUFFERED="1")
        for _ in range(5):
            proc = subprocess.run(["bash", "-c", command], capture_output=True, text=True,
                                  env=env, timeout=120)
            assert (proc.stdout, proc.stderr) == ("0\n", "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_python_m_full_stdout_exits_2_without_traceback(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "qcompare", "compare", "--alpha", "1,0",
                                   "--beta", "-1,0"], stdout=full, stderr=subprocess.PIPE,
                                  text=True, env=self.env(), timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"

    def test_python_m_malformed_amplitude_exits_2(self):
        proc = self.run_module("compare", "--alpha", "nope", "--beta", "0,0")
        assert proc.returncode == 2
        assert "error:" in proc.stderr


# Runs each argv of the JSON list in argv[1] through cli.main in this fresh interpreter, then
# prints the exit codes and the package modules loaded after the import and after the runs.
LOADED_MODULES = """
import contextlib, io, json, sys
from qcompare import cli
def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "qcompare")
imported, codes = loaded(), []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps({"imported": imported, "codes": codes, "loaded": loaded()}))
"""


class TestImports:
    """A fresh interpreter per check: this one has already imported every module."""

    @staticmethod
    def run_fresh(*argvs):
        proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, json.dumps(argvs)],
                              capture_output=True, text=True, env=TestModuleEntryPoint.env(),
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["codes"] == [0] * len(argvs)
        return result["imported"], {name.removeprefix("qcompare.") for name in result["loaded"]}

    def test_import_parser_and_help_load_no_handler_module(self):
        imported, loaded = self.run_fresh(["--help"])
        assert imported == ["qcompare", "qcompare.cli", "qcompare.domain", "qcompare.errors"]
        assert loaded == {"qcompare", "cli", "domain", "errors"}

    @pytest.mark.parametrize("argvs,loads,skips", [
        pytest.param([["compare", "--alpha", "1,0", "--beta", "0,0"],
                      ["multiport", "--amps", "1,0", "-1,0"], ["figure2", "--max", "1"]],
                     {"comparison"}, {"fock", "lockkey", "detection", "pkd", "svg"},
                     id="closed forms"),
        pytest.param([["oracle", "--alpha", "1,0", "--beta", "0,0", "--cutoff", "8"],
                      ["oracle", "--xi1", "0.2", "--xi2", "0.1", "--cutoff", "8"]],
                     {"fock", "linear"}, {"comparison", "lockkey", "detection", "pkd", "svg"},
                     id="oracle"),
        pytest.param([["lockkey", "simulate", "--trials", "10"], ["lockkey", "entropy"],
                      ["lockkey", "attack-scan", "--amp", "2", "--format", "csv"],
                      ["figure4", "--points", "3", "--format", "csv"]],
                     {"lockkey", "detection"}, {"comparison", "pkd", "svg"}, id="lockkey"),
        pytest.param([["lockkey", "attack-scan", "--amp", "2", "--format", "svg"],
                      ["figure4", "--points", "3", "--format", "svg"]],
                     {"lockkey", "svg"}, {"comparison", "pkd"}, id="lockkey svg"),
        pytest.param([["pkd", "--trials", "10"],
                      ["pkd", "--scheme", "distributed", "--trials", "10", "--format", "csv"]],
                     {"pkd"}, {"comparison", "svg"}, id="pkd"),
    ])
    def test_subcommand_loads_only_its_modules(self, argvs, loads, skips):
        _, loaded = self.run_fresh(*argvs)
        assert loads <= loaded
        assert not skips & loaded


def run_captured(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``; argparse errors count as exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Library wording that leaked into stderr before the inputs were guarded.
LEAKED_WORDING = ("Traceback", "numpy", "math domain", "arange", "high <=", "lam value",
                  "Numerical result")


# Options each subcommand needs to run at a small size; the others need none.
RUNNABLE = {
    ("compare",): ["--alpha", "1,0", "--beta", "0,0"],
    ("multiport",): ["--amps", "1,0", "-1,0"],
    ("oracle",): ["--xi1", "0.2", "--xi2", "0.1"],
    ("lockkey", "simulate"): ["--trials", "10"],
    ("lockkey", "attack-scan"): ["--amp", "2"],
    ("pkd",): ["--trials", "10"],
}


def _parser_error(path, extra, message):
    """A row: the subcommand at ``path``, runnable but for ``extra``, and its parser's error."""
    return [*path, *RUNNABLE.get(path, []), *extra], f"qcompare {' '.join(path)}: error: {message}"


# Every CLI usage or domain error, as (argv, a fragment of its stderr).  A parser's
# error names its prog ("qcompare compare: error: ..."), a library guard's is "error: ...".
EXIT_2_CASES = [
    (["compare", "--alpha", "nope", "--beta", "0,0"], "expected an amplitude as 're,im'"),
    (["compare", "--alpha", "1e200,0", "--beta", "0,0"],
     "magnitude <= MAX_AMPLITUDE = 1e+100, got (1e+200+0j)"),
    (["multiport", "--amps", "1e200,0", "0,0"],
     "magnitude <= MAX_AMPLITUDE = 1e+100, got (1e+200+0j)"),
    (["multiport", "--amps", "1e160,0", "0,0", "1,0"],
     "magnitude <= MAX_AMPLITUDE = 1e+100, got (1e+160+0j)"),
    (["lockkey", "simulate", "--amp", "nan"], "amplitude must lie in [0, MAX_AMPLITUDE"),
    (["lockkey", "simulate", "--amp", "1e200", "--trials", "10"], "got 1e+200"),
    (["lockkey", "simulate", "--N", "0"], "n_phases must be an integer >= 2, got 0"),
    (["lockkey", "entropy", "--alpha-sq", "-1"], "alpha_sq must lie in [0, "),
    (["figure2", "--max", "nan"], "sweep range must lie in (0, "),
    (["figure2", "--max", "-1"], "sweep range must lie in (0, "),
    (["figure2", "--format", "csv", "--step", "0"], "sweep step must lie in (0, "),
    (["figure2", "--format", "csv", "--step", "-0.1"], "sweep step must lie in (0, "),
    (["lockkey", "attack-scan", "--amp", "2", "--format", "csv", "--step", "0"],
     "sweep step must lie in (0, "),
    (["lockkey", "attack-scan", "--amp", "2", "--format", "csv", "--step", "-0.1"],
     "sweep step must lie in (0, "),
    (["figure4", "--points", "0"], "points must be an integer >= 2, got 0"),
    (["figure4", "--alpha-sq-max", "-1"], "alpha_sq_max must lie in [0, 1e+200], got -1.0"),
    (["figure4", "--N", "1"], "n_phases must be an integer >= 2, got 1"),
    (["figure4", "--points", "100000"], "the report table would need about 1e+08 entries"),
    (["multiport", "--amps", "1,0"], "amplitudes must be a 1-D sequence of length >= 2"),
    (["oracle", "--alpha", "1,0", "--beta", "0,0", "--transmittance", "2"],
     "transmittance must lie in [0, 1], got 2.0"),
    (["oracle", "--alpha", "1,0", "--beta", "0,0", "--cutoff", "0"],
     "cutoff must be an integer >= 1, got 0"),
    (["oracle", "--xi1", "nan", "--xi2", "0.1"], "xi must be finite with magnitude <= 0.4999"),
    (["lockkey", "simulate", "--efficiency", "2", "--trials", "10"],
     "efficiency must lie in [0, 1], got 2.0"),
    (["lockkey", "simulate", "--dark-mean", "-1", "--trials", "10"],
     "dark_mean must lie in [0, MAX_AMPLITUDE = 1e+100], got -1.0"),
    (["lockkey", "simulate", "--M", "0", "--trials", "10"],
     "key length must be an integer >= 1, got 0"),
    (["lockkey", "simulate", "--trials", "0"], "trials must be an integer >= 1, got 0"),
    (["pkd", "--s", "2", "--trials", "10"], "security parameter s must lie in (0, 1], got 2.0"),
    (["lockkey", "attack-scan", "--amp", "1e6"], "WORK_BUDGET"),
    (["oracle", "--alpha", "30,0", "--beta", "0,0", "--cutoff", "5000"], "WORK_BUDGET"),
    (["oracle", "--alpha", "1e200,0", "--beta", "0,0"], "alpha must be finite"),
    (["pkd", "--scheme", "center", "--M", "1", "--s", "0.5"],
     "s * length must be at least 1, got 0.5"),
    (["pkd", "--scheme", "center", "--recipients", "1"],
     "recipients must be an integer >= 2, got 1"),
    (["pkd", "--trials", str(WORK_BUDGET + 1), "--format", "csv"],
     "the per-trial columns would need about 1e+07 entries"),
    (["pkd", "--scheme", "distributed", "--adversary", "alice-overlap-half"],
     "unsupported adversary 'alice-overlap-half' for the distributed scheme"),
    (["pkd", "--scheme", "distributed", "--adversary", "charlie-flip", "--recipients", "3"],
     "the charlie-flip adversary is defined for 2 recipients"),
    (["oracle"], "coherent mode needs --alpha and --beta"),
    (["oracle", "--xi1", "0.2"], "squeezed mode needs both --xi1 and --xi2"),
    (["oracle", "--xi2", "0.1", "--alpha", "1,0", "--beta", "0,0"],
     "squeezed mode needs both --xi1 and --xi2"),
    # An option of the other mode is rejected, never left unread: the squeezed oracle's
    # inputs are squeezed vacua on a balanced splitter.
    (["oracle", "--xi1", "0.2", "--xi2", "0.1", "--alpha", "5,0"],
     "squeezed mode takes no --alpha, --beta or --transmittance"),
    (["oracle", "--xi1", "0.2", "--xi2", "0.1", "--beta", "1,1"], "squeezed mode takes no"),
    (["oracle", "--xi1", "0.2", "--xi2", "0.1", "--alpha", "nonsense"], "squeezed mode takes no"),
    (["oracle", "--xi1", "0.2", "--xi2", "0.1", "--transmittance", "0.3"],
     "squeezed mode takes no --alpha, --beta or --transmittance"),
    # --beta was read only by --attack coherent: key and vacuum printed the same bytes,
    # and exited 0 on any value.
    (["lockkey", "simulate", "--attack", "vacuum", "--beta", "0.5"],
     "--attack vacuum takes no --beta"),
    (["lockkey", "simulate", "--attack", "key", "--beta", "0"], "--attack key takes no --beta"),
    *[(["lockkey", "simulate", "--attack", attack, "--beta", beta, "--M", "4", "--trials", "10"],
       "attack magnitude must lie in [0, MAX_AMPLITUDE = 1e+100]")
      for attack, beta in [("coherent", "-1"), ("coherent", "nan"), ("coherent", "inf"),
                           ("coherent", "1e101"), ("key", "-1"), ("key", "nan"),
                           ("vacuum", "-1"), ("vacuum", "nan")]],
    # Each result has one route: the sweeps over |alpha - beta| and |alpha|^2 are figure2's
    # and figure4's, so compare and lockkey entropy are JSON point reports.
    _parser_error(("compare",), ["--sweep-max", "3"], "unrecognized arguments: --sweep-max 3"),
    _parser_error(("lockkey", "entropy"), ["--alpha-sq-max", "9"],
                  "unrecognized arguments: --alpha-sq-max 9"),
    _parser_error(("lockkey", "entropy"), ["--points", "7"], "unrecognized arguments: --points 7"),
    # A --format the report cannot hold.
    *[_parser_error(path, ["--format", fmt], f"argument --format: invalid choice: '{fmt}'")
      for path in [("compare",), ("multiport",), ("oracle",), ("lockkey", "simulate"),
                   ("lockkey", "entropy")]
      for fmt in ("csv", "svg")],
    _parser_error(("pkd",), ["--format", "svg"], "argument --format: invalid choice: 'svg'"),
    # A closed form draws no random number, so it reads no seed.
    *[_parser_error(path, ["--seed", "1"], "unrecognized arguments: --seed 1")
      for path in [("compare",), ("multiport",), ("oracle",), ("figure2",), ("figure4",),
                   ("lockkey", "entropy"), ("lockkey", "attack-scan")]],
    (["frobnicate"], "qcompare: error: argument command: invalid choice: 'frobnicate'"),
]


class TestInputDomain:
    @pytest.mark.parametrize("argv,message", EXIT_2_CASES,
                             ids=[shlex.join(argv) for argv, _ in EXIT_2_CASES])
    def test_out_of_domain_input_exits_2_by_name(self, argv, message, tmp_path):
        out = tmp_path / "out"
        start = time.perf_counter()
        code, stdout, err = run_captured(argv + ["--out", str(out)])
        assert time.perf_counter() - start < 2.0
        assert code == 2 and stdout == "" and message in err
        assert not any(word in err for word in LEAKED_WORDING), err
        assert not out.exists()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_generated_arguments_exit_cleanly_and_reproducibly(self, data):
        # Every option gets a small in-domain value (or its default); at most
        # one gets an edge value: 0, -1, nan, inf, 1e200 or an over-budget count.
        prefix, options, formats = data.draw(st.sampled_from(FUZZ_COMMANDS))
        edged = data.draw(st.sampled_from([None] + [o for o, (_, e, _) in options.items() if e]))
        argv = list(prefix)
        for option, (in_domain, edges, required) in options.items():
            if option == edged:
                values = data.draw(st.sampled_from(edges))
            elif required or data.draw(st.booleans()):
                values = data.draw(in_domain)
            else:
                continue
            argv += _option_argv(option, values)
        argv += ["--format", data.draw(st.sampled_from(formats))]
        first = run_captured(argv)
        assert first == run_captured(argv), argv
        code, _, err = first
        assert code == 0 if edged is None else code in (0, 2), (argv, code, err)
        assert not any(word in err for word in LEAKED_WORDING), (argv, err)


def _reals(lo, hi):
    return st.floats(lo, hi).map(lambda x: f"{x:.3f}")


def _counts(lo, hi):
    return st.integers(lo, hi).map(str)


_AMPLITUDE = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(lambda z: f"{z[0]:.3f},{z[1]:.3f}")
_EDGE_REALS = ("0", "-1", "nan", "inf", "1e200")
_EDGE_COUNTS = ("0", "-1", str(WORK_BUDGET + 1), str(10**18))
_EDGE_AMPLITUDES = ("0,0", "-1,0", "nan,0", "inf,0", "1e200,0")
_SEED = (_counts(0, 1000), _EDGE_COUNTS, False)
# pkd center rejects s * M < 1 by design (cheat_bound, exit 2), so --M and --s
# are drawn together: s from [1/M, 1], rounded up to the printed 3 decimals.
_M_AND_S = (st.integers(1, 6).flatmap(lambda m: st.tuples(
                st.just(str(m)), _reals(math.ceil(1000 / m) / 1000, 1.0))),
            [(e, "1.000") for e in _EDGE_COUNTS] + [("6", e) for e in _EDGE_REALS], False)


def _option_argv(option, values):
    """argv tokens for one table entry; a tuple of options takes one value each."""
    if isinstance(option, tuple):
        return [token for pair in zip(option, values) for token in pair]
    return [option, *([values] if isinstance(values, str) else values)]


# (argv prefix, option -> (in-domain values, edge values, required), formats).
FUZZ_COMMANDS = [
    (["compare"], {
        "--alpha": (_AMPLITUDE, _EDGE_AMPLITUDES, True),
        "--beta": (_AMPLITUDE, _EDGE_AMPLITUDES, True),
    }, ("json",)),
    (["multiport"], {
        "--amps": (st.lists(_AMPLITUDE, min_size=2, max_size=5),
                   [[a, "0.5,0"] for a in _EDGE_AMPLITUDES] + [["1,0"]], True),
    }, ("json",)),
    (["oracle"], {
        "--alpha": (_AMPLITUDE, _EDGE_AMPLITUDES, True),
        "--beta": (_AMPLITUDE, _EDGE_AMPLITUDES, True),
        "--transmittance": (_reals(0.0, 1.0), _EDGE_REALS, False),
        "--cutoff": (_counts(10, 20), _EDGE_COUNTS, False),
    }, ("json",)),
    (["oracle"], {
        "--xi1": (_reals(0.0, 0.4), _EDGE_REALS, True),
        "--xi2": (_reals(0.0, 0.4), _EDGE_REALS, True),
        "--cutoff": (st.sampled_from(("10", "16", "20")), _EDGE_COUNTS, False),
    }, ("json",)),
    (["figure2"], {
        "--max": (_reals(0.5, 4.0), _EDGE_REALS, False),
        "--step": (_reals(0.1, 1.0), _EDGE_REALS, False),
    }, ("json", "csv", "svg")),
    (["figure4"], {
        "--N": (st.lists(_counts(2, 8), min_size=1, max_size=3), [[c] for c in _EDGE_COUNTS],
                False),
        "--alpha-sq-max": (_reals(0.0, 25.0), _EDGE_REALS, False),
        "--points": (_counts(2, 6), _EDGE_COUNTS, False),
    }, ("json", "csv", "svg")),
    (["lockkey", "simulate", "--attack", "coherent"], {
        "--M": (_counts(1, 8), _EDGE_COUNTS, False),
        "--N": (_counts(2, 8), _EDGE_COUNTS, False),
        "--amp": (_reals(0.0, 2.0), _EDGE_REALS, False),
        "--beta": (_reals(0.0, 2.0), _EDGE_REALS, False),
        "--trials": (_counts(1, 200), _EDGE_COUNTS, True),
        "--efficiency": (_reals(0.0, 1.0), _EDGE_REALS, False),
        "--dark-mean": (_reals(0.0, 0.1), _EDGE_REALS, False),
        "--seed": _SEED,
    }, ("json",)),
    # --beta is the coherent attack's magnitude: with key or vacuum it exits 2.
    (["lockkey", "simulate"], {
        "--M": (_counts(1, 8), _EDGE_COUNTS, False),
        "--N": (_counts(2, 8), _EDGE_COUNTS, False),
        "--amp": (_reals(0.0, 2.0), _EDGE_REALS, False),
        "--attack": (st.sampled_from(("key", "vacuum")), (), True),
        "--trials": (_counts(1, 200), _EDGE_COUNTS, True),
        "--efficiency": (_reals(0.0, 1.0), _EDGE_REALS, False),
        "--dark-mean": (_reals(0.0, 0.1), _EDGE_REALS, False),
        "--seed": _SEED,
    }, ("json",)),
    (["lockkey", "entropy"], {
        "--N": (st.lists(_counts(2, 8), min_size=1, max_size=3), [[c] for c in _EDGE_COUNTS],
                False),
        "--alpha-sq": (_reals(0.0, 25.0), _EDGE_REALS, False),
    }, ("json",)),
    (["lockkey", "attack-scan"], {
        "--amp": (_reals(0.0, 6.0), _EDGE_REALS, True),
        "--beta-max": (_reals(0.5, 10.0), _EDGE_REALS, False),
        "--step": (_reals(0.05, 1.0), _EDGE_REALS, False),
    }, ("json", "csv", "svg")),
    (["pkd", "--scheme", "center"], {
        "--recipients": (_counts(2, 4), ("1",) + _EDGE_COUNTS, False),
        ("--M", "--s"): _M_AND_S,
        "--N": (_counts(2, 8), _EDGE_COUNTS, False),
        "--amp": (_reals(0.0, 2.0), _EDGE_REALS, False),
        "--trials": (_counts(1, 50), _EDGE_COUNTS, True),
        "--adversary": (st.sampled_from(("none", "alice-overlap-half")), (), False),
        "--seed": _SEED,
    }, ("json", "csv")),
    (["pkd", "--scheme", "distributed"], {
        "--recipients": (_counts(2, 4), _EDGE_COUNTS, False),
        "--M": (_counts(1, 6), _EDGE_COUNTS, False),
        "--N": (_counts(2, 8), _EDGE_COUNTS, False),
        "--amp": (_reals(0.0, 2.0), _EDGE_REALS, False),
        "--s": (_reals(0.2, 1.0), _EDGE_REALS, False),
        "--trials": (_counts(1, 50), _EDGE_COUNTS, True),
        "--seed": _SEED,
    }, ("json", "csv")),
]



def _formats(parser):
    """The ``--format`` choices that ``parser`` accepts."""
    (fmt,) = [a for a in parser._actions if a.dest == "format"]
    return fmt.choices


def _subcommands(parser, path=()):
    """(argv path, parser) of each subcommand that runs, with the lockkey actions as leaves."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, child in group.choices.items():
            yield from _subcommands(child, path + (name,))


class TestOptionTables:
    @pytest.mark.parametrize("path,parser", [
        pytest.param(path, parser, id=" ".join(path))
        for path, parser in _subcommands(cli.build_parser())
    ])
    def test_fuzz_table_names_exactly_the_parser_options(self, path, parser):
        # FUZZ_COMMANDS splits a subcommand by mode; its entries together name every option
        # but --out, in their argv prefix or their table, and every --format choice.
        entries = [(prefix[len(path):], options, formats)
                   for prefix, options, formats in FUZZ_COMMANDS
                   if tuple(prefix[:len(path)]) == path]
        named = [name for rest, options, _ in entries for key in [*rest, *options]
                 for name in (key if isinstance(key, tuple) else (key,))]
        options = {a.option_strings[-1] for a in parser._actions
                   if a.dest not in ("help", "out", "format")}
        assert {name for name in named if name.startswith("--")} == options
        assert {f for _, _, formats in entries for f in formats} == set(_formats(parser))

    @pytest.mark.parametrize("path,fmt", [
        pytest.param(path, fmt, id=f"{' '.join(path)} {fmt}")
        for path, parser in _subcommands(cli.build_parser())
        for fmt in _formats(parser)
    ])
    def test_every_format_choice_writes_its_report(self, path, fmt):
        # The parse-time choices are the one guard: each names a part that the report sets.
        code, stdout, err = run_captured([*path, *RUNNABLE.get(path, []), "--format", fmt])
        assert code == 0, err
        assert stdout


CONSOLE_SCRIPT = Path(__file__).resolve().parents[1] / ".github/scripts/console_exit_codes.sh"
EXPECT_2 = [shlex.split(line)[2:] for line in CONSOLE_SCRIPT.read_text().splitlines()
            if line.startswith("expect_2 qcompare ")]


class TestConsoleExitCodes:
    @pytest.mark.parametrize("argv", EXPECT_2, ids=shlex.join)
    def test_each_expect_2_line_exits_2(self, argv, tmp_path, monkeypatch):
        # The script runs in CI against the installed console script; this runs it in-process.
        if "/dev/full" in argv and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        monkeypatch.chdir(tmp_path)
        code, _, err = run_captured(argv)
        assert code == 2, err
        assert "Traceback" not in err
