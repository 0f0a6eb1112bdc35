"""Command-line front end.

Subcommands: ``compare``, ``multiport``, ``oracle``, ``figure2``, ``figure4``,
``lockkey {simulate,entropy,attack-scan}``, ``pkd``.  Each takes only what it
reads (after the action, for ``lockkey``): ``--out``, a ``--format`` of the parts
its report can hold, ``--seed`` where it draws (``lockkey simulate``, ``pkd``),
and no option of a mode it is not in; any other option is an error that prints
that subcommand's usage.  Each result has one route: ``compare`` and ``lockkey
entropy`` are JSON point reports, and ``figure2`` and ``figure4`` their sweeps.
Exit codes: 0 on success (also when the reader of stdout closes early), 2 on
usage or validation errors or an unwritable ``--out``, 3 on an internal
invariant violation.

Every handler returns one :class:`Report` and ``_write`` alone serialises it.
All output is deterministic for a fixed argument list: JSON is streamed with
sorted keys, CSV is written in chunks with dot decimals and LF line endings,
and a seeded report records its seed in both.  SVG figures are drawn from the
report's CSV table; there is no second computation route.

Each handler imports its library module when it is called, so ``import
qcompare.cli`` (and ``build_parser`` or ``--help``) loads only ``domain`` and
``errors`` of the package: a subcommand pays for the modules it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import re
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from . import domain
from .errors import InvariantError

SCHEMA = 1


@dataclass(frozen=True)
class Plot:
    """A line chart of a report's table: x is the first column, with one series per ``y``
    column, or of the one ``y`` column per listed value of ``group`` (duplicates kept)."""

    title: str
    x_label: str
    y_label: str
    y: tuple[str, ...]
    group: str | None = None
    groups: tuple = ()


@dataclass(frozen=True)
class Report:
    """One subcommand's result; its ``--format`` choices are exactly the parts it sets."""

    fields: dict | None = None  # the JSON object, without "schema" and "seed"
    columns: tuple[str, ...] | None = None  # the CSV header; each row maps them to values
    rows: Iterable = ()  # read again for each plotted series
    plot: Plot | None = None
    seed: int | None = None  # the seed of a report that draws random numbers


def _parse_complex(text: str) -> complex:
    """Parse ``re,im`` (or a bare real) into a complex amplitude."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValueError(f"expected an amplitude as 're,im', got {text!r}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(fh, head, columns, rows) -> None:
    """Write ``head`` as one ``# key=value`` line, then ``domain.CHUNK_ROWS`` rows at a time."""
    fh.write("# " + " ".join(f"{key}={value}" for key, value in head.items()) + "\n")
    fh.write(",".join(columns) + "\n")
    lines = (",".join(_fmt(row[c]) for c in columns) for row in rows)
    while chunk := list(itertools.islice(lines, domain.CHUNK_ROWS)):
        fh.write("\n".join(chunk) + "\n")


def _svg(report: Report) -> str:
    from .svg import line_chart

    plot, x = report.plot, report.columns[0]
    if plot.group is None:
        curves = [(y, y, report.rows) for y in plot.y]
    else:
        (y,) = plot.y
        curves = [(f"{plot.group}={g}", y, [r for r in report.rows if r[plot.group] == g])
                  for g in plot.groups]
    series = [(label, [r[x] for r in rows], [r[y] for r in rows]) for label, y, rows in curves]
    return line_chart(series, title=plot.title, x_label=plot.x_label, y_label=plot.y_label)


def _write(args, report: Report) -> None:
    """Serialise ``report`` in ``--format`` to ``--out`` (LF line endings) or stdout.

    A failure to open, write or close the output is a ValueError (``--out``
    is left where it is: it may be a device), and so is a full stdout.  A
    stdout whose reader has gone (``| head``) ends the write quietly: a writer
    that finishes first never sees the close, so exit 0 is the one status that
    does not depend on timing.
    """
    fmt = args.format
    head = {"schema": SCHEMA} if report.seed is None else {"schema": SCHEMA, "seed": report.seed}
    svg = _svg(report) if fmt == "svg" else None
    try:
        with (open(args.out, "w", encoding="utf-8", newline="\n") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            if fmt == "json":
                json.dump({**head, **report.fields}, fh, indent=2, sort_keys=True)
                fh.write("\n")
            elif fmt == "csv":
                _write_csv(fh, head, report.columns, report.rows)
            else:
                fh.write(svg)
            fh.flush()  # a closed stdout pipe fails here, not in the interpreter's final flush
    except OSError as exc:
        if args.out:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from exc
        # What stdout still buffers goes to devnull, so the final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise ValueError(f"cannot write stdout: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _sweep_grid(stop: float, step: float, columns: int) -> np.ndarray:
    """0, step, ... through ``stop`` (to half a step): a scan's x axis, for rows of ``columns``."""
    stop = domain.magnitude(stop, "sweep range", positive=True)
    step = domain.magnitude(step, "sweep step", positive=True)
    domain.size((stop / step + 1) * columns * domain.REPORT_ENTRIES, "the report table")
    return np.arange(0.0, stop + step / 2, step)


def _reject_other_mode(args, mode: str, *options: str) -> None:
    """A ValueError if ``args`` sets any of ``options``, which a mode other than ``mode`` reads."""
    if any(getattr(args, option[2:].replace("-", "_")) is not None for option in options):
        named = " or ".join(filter(None, (", ".join(options[:-1]), options[-1])))
        raise ValueError(f"{mode} takes no {named}: another mode reads that option")


def _cmd_compare(args) -> Report:
    from . import comparison

    alpha = _parse_complex(args.alpha)
    beta = _parse_complex(args.beta)
    report = comparison.compare_report([alpha, beta])
    return Report(fields={
        "alpha": [alpha.real, alpha.imag],
        "beta": [beta.real, beta.imag],
        "p_succ": report.p_succ_coherent,
        "p_asymm": report.p_succ_universal,
        "p_no_click": list(report.p_no_click),
        "p_succ_conjugate": comparison.p_success_conjugate(alpha, beta),
    })


def _cmd_multiport(args) -> Report:
    from . import comparison

    amps = [_parse_complex(a) for a in args.amps]
    report = comparison.compare_report(amps)
    pairwise, per_mode, overlap_product = report.forms
    obj = {
        "amplitudes": [[a.real, a.imag] for a in amps],
        "p_succ": report.p_succ_coherent,
        "forms": {"pairwise": pairwise, "per_mode": per_mode, "overlap_product": overlap_product},
        "p_no_click": list(report.p_no_click),
    }
    if report.amgm is not None:
        obj["p_asymm"] = report.p_succ_universal
        obj["failure_vs_symmetric"] = asdict(report.amgm)
    return Report(fields=obj)


def _coherent_pair(a: complex, b: complex, cutoff: int):
    from . import fock

    return fock.product_state(fock.coherent_fock(a, cutoff), fock.coherent_fock(b, cutoff))


def _cmd_oracle(args) -> Report:
    from . import fock
    from .linear import CoherentRegister, apply_network, make_beam_splitter

    if args.xi1 is not None or args.xi2 is not None:
        if args.xi1 is None or args.xi2 is None:
            raise ValueError("squeezed mode needs both --xi1 and --xi2")
        _reject_other_mode(args, "squeezed mode", "--alpha", "--beta", "--transmittance")
        p_odd = fock.odd_photon_probability(args.xi1, args.xi2, args.cutoff)
        obj = {
            "mode": "squeezed",
            "xi1": args.xi1,
            "xi2": args.xi2,
            "cutoff": args.cutoff,
            "odd_photon_probability": p_odd,
        }
    else:
        if args.alpha is None or args.beta is None:
            raise ValueError("coherent mode needs --alpha and --beta")
        alpha = _parse_complex(args.alpha)
        beta = _parse_complex(args.beta)
        transmittance = 0.5 if args.transmittance is None else args.transmittance
        joint = _coherent_pair(alpha, beta, args.cutoff)
        out = fock.apply_bs_fock(joint, transmittance)
        gamma_a, gamma_b = (complex(g) for g in apply_network(
            make_beam_splitter(transmittance), CoherentRegister([alpha, beta])).amplitudes)
        analytic = _coherent_pair(gamma_a, gamma_b, args.cutoff)
        obj = {
            "mode": "coherent",
            "cutoff": args.cutoff,
            "transmittance": transmittance,
            "gamma_a": [gamma_a.real, gamma_a.imag],
            "gamma_b": [gamma_b.real, gamma_b.imag],
            "fidelity_vs_analytic": fock.fidelity(out, analytic),
            "input_deficit": joint.deficit,
            "output_deficit": out.deficit,
        }
    return Report(fields=obj)


def _cmd_figure2(args) -> Report:
    """p_succ and p_asymm against |alpha - beta| from 0 to --max, with their plot."""
    from . import comparison

    columns = ("delta_abs", "p_succ", "p_asymm")
    deltas = _sweep_grid(args.max, args.step, len(columns))
    rows = [
        {
            "delta_abs": float(d),
            "p_succ": comparison.p_success_two(0.0, d),
            "p_asymm": comparison.p_success_universal([0.0, d]),
        }
        for d in deltas
    ]
    return Report(fields={"rows": rows}, columns=columns, rows=rows,
                  plot=Plot("success probability vs amplitude difference", "|alpha - beta|",
                            "probability", columns[1:]))


def _cmd_figure4(args) -> Report:
    """The key-position entropy and its log2 N asymptote over a |alpha|^2 grid, for each N."""
    from . import lockkey

    alpha_sq_max = domain.magnitude(args.alpha_sq_max, "alpha_sq_max",
                                    limit=domain.MAX_AMPLITUDE**2)
    points = domain.integer(args.points, "points", 2)
    domain.size(points * len(args.N) * 4 * domain.REPORT_ENTRIES, "the report table")
    grid = np.linspace(0.0, alpha_sq_max, points)
    rows = [
        {"alpha_sq": float(a2), "N": n,
         "S_bits": lockkey.holevo_entropy_finite(math.sqrt(a2), n).bits,
         "asymptote_bits": math.log2(n)}
        for n in args.N
        for a2 in grid
    ]
    return Report(fields={"rows": rows}, columns=("alpha_sq", "N", "S_bits", "asymptote_bits"),
                  rows=rows, plot=Plot("key-position entropy vs mean photon number", "|alpha|^2",
                                       "S (bits)", ("S_bits",), "N", tuple(args.N)))


def _cmd_lockkey_simulate(args) -> Report:
    from . import lockkey
    from .detection import DetectorModel

    key = lockkey.generate_key(args.M, args.N, args.amp, rng=args.seed)
    # --beta is checked against its domain first, whatever the attack; only coherent reads it.
    magnitude = 0.0 if args.beta is None else domain.magnitude(args.beta, "attack magnitude")
    if args.attack != "coherent":
        _reject_other_mode(args, f"--attack {args.attack}", "--beta")
    # The vacuum is the coherent false key of magnitude 0.
    beta = {"key": None, "vacuum": 0.0, "coherent": magnitude}[args.attack]
    model = DetectorModel(efficiency=args.efficiency, dark_mean=args.dark_mean)
    analytic = lockkey.analytic_pass_probability(args.amp, args.M, beta, model)
    candidate = key.amplitudes() if beta is None else np.full(args.M, beta, dtype=complex)
    stats = lockkey.lock_test_pass_rate(key, candidate, model, trials=args.trials,
                                        rng=args.seed + 1)
    obj = {
        "attack": args.attack,
        "M": args.M,
        "N": args.N,
        "amp": args.amp,
        "trials": args.trials,
        "pass_rate": stats.rate,
        "wilson_95": list(stats.wilson),
        "analytic_pass_probability": analytic,
    }
    return Report(fields=obj, seed=args.seed)


def _cmd_lockkey_entropy(args) -> Report:
    """The key-position entropy at one |alpha|^2 for each N; figure4 is the sweep."""
    from . import lockkey

    amplitude = math.sqrt(domain.magnitude(args.alpha_sq, "alpha_sq",
                                           limit=domain.MAX_AMPLITUDE ** 2))
    results = [
        {"N": n, "alpha_sq": args.alpha_sq,
         "S_bits": lockkey.holevo_entropy_finite(amplitude, n).bits}
        for n in args.N
    ]
    return Report(fields={"results": results})


def _cmd_lockkey_attack_scan(args) -> Report:
    from . import lockkey

    best = lockkey.optimal_coherent_attack(args.amp)
    beta_max = args.beta_max if args.beta_max is not None else 2.0 * args.amp + 5.0
    betas = _sweep_grid(beta_max, args.step, 2)
    p_pass = lockkey.attack_pass_probability(args.amp, betas)
    rows = [{"beta": b, "p_pass": p} for b, p in zip(betas.tolist(), p_pass.tolist())]
    obj = {
        "amp": args.amp,
        "beta_star": best.beta_star,
        "p_star": best.p_star,
        "rows": rows,
    }
    return Report(fields=obj, columns=("beta", "p_pass"), rows=rows,
                  plot=Plot("false-key pass probability", "|beta|", "p_pass", ("p_pass",)))


def _cmd_pkd(args) -> Report:
    from . import pkd

    if args.scheme == "center":
        summary, rows, events = pkd.run_center_protocol(
            args.M, args.N, args.amp, args.recipients, args.s, args.trials,
            args.adversary, rng=args.seed,
        )
    else:
        summary, rows, events = pkd.run_distributed_protocol(
            args.recipients, args.M, args.N, args.amp, args.s, args.trials,
            args.adversary, rng=args.seed,
        )
    obj = {
        "params": {
            "scheme": args.scheme,
            "recipients": args.recipients,
            "M": args.M,
            "N": args.N,
            "amp": args.amp,
            "s": args.s,
            "trials": args.trials,
            "adversary": args.adversary,
        },
        "summary": summary,
        "events": events,
    }
    return Report(fields=obj, columns=pkd.TRIAL_COLUMNS, rows=rows, seed=args.seed)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# lets amplitude values like "-1,0" pass as arguments instead of option names
_NEGATIVE_AMPLITUDE = re.compile(r"^-\d+(\.\d*)?([,]\S*)?$|^-\.\d+([,]\S*)?$")


class _AmplitudeFriendlyParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_AMPLITUDE


def build_parser() -> argparse.ArgumentParser:
    parser = _AmplitudeFriendlyParser(prog="qcompare",
                                      description="linear-optical coherent-state comparison toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_AmplitudeFriendlyParser)

    def command(group, name, func, help, formats=("json", "csv", "svg"), seeded=False):
        p = group.add_parser(name, help=help)
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=formats, default="json")
        p.set_defaults(func=func, parser=p)
        return p

    p = command(sub, "compare", _cmd_compare, "two-state comparison report (JSON)", ("json",))
    p.add_argument("--alpha", required=True, help="first amplitude as re,im")
    p.add_argument("--beta", required=True, help="second amplitude as re,im")

    p = command(sub, "multiport", _cmd_multiport, "N-state comparison report", ("json",))
    p.add_argument("--amps", nargs="+", required=True, help="amplitudes as re,im pairs")

    p = command(sub, "oracle", _cmd_oracle,
                "number-basis oracle checks (coherent or squeezed inputs)", ("json",))
    p.add_argument("--alpha", default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--xi1", type=float, default=None)
    p.add_argument("--xi2", type=float, default=None)
    p.add_argument("--transmittance", type=float, default=None,
                   help="splitter transmittance, coherent mode only (default 0.5)")
    p.add_argument("--cutoff", type=int, default=40)

    p = command(sub, "figure2", _cmd_figure2, "success probabilities vs amplitude difference")
    p.add_argument("--max", type=float, default=4.0)
    p.add_argument("--step", type=float, default=0.05)

    p = command(sub, "figure4", _cmd_figure4, "key-position entropy vs mean photon number")
    p.add_argument("--N", nargs="+", type=int, default=[2, 3, 4, 5, 6])
    p.add_argument("--alpha-sq-max", type=float, default=25.0)
    p.add_argument("--points", type=int, default=51)

    # The group takes no output options: they follow the action, which sets them.
    p = sub.add_parser("lockkey", help="lock-and-key analyses")
    p.set_defaults(group=p)
    action = p.add_subparsers(dest="action", required=True)

    ps = command(action, "simulate", _cmd_lockkey_simulate, "Monte Carlo lock tests", ("json",),
                 seeded=True)
    ps.add_argument("--M", type=int, default=10)
    ps.add_argument("--N", type=int, default=8)
    ps.add_argument("--amp", type=float, default=1.0)
    ps.add_argument("--attack", choices=("key", "vacuum", "coherent"), default="vacuum")
    ps.add_argument("--beta", type=float, default=None,
                    help="magnitude for --attack coherent only (default 0)")
    ps.add_argument("--trials", type=int, default=100_000)
    ps.add_argument("--efficiency", type=float, default=1.0)
    ps.add_argument("--dark-mean", type=float, default=0.0)

    pe = command(action, "entropy", _cmd_lockkey_entropy,
                 "information bound per key position (figure4 is the sweep)", ("json",))
    pe.add_argument("--N", nargs="+", type=int, default=[2, 3, 4, 5, 6])
    pe.add_argument("--alpha-sq", type=float, default=1.0,
                    help="|alpha|^2 (default 1, the mean photon number of the default key)")

    pa = command(action, "attack-scan", _cmd_lockkey_attack_scan, "coherent false-key scan")
    pa.add_argument("--amp", type=float, required=True)
    pa.add_argument("--beta-max", type=float, default=None)
    pa.add_argument("--step", type=float, default=0.01)

    p = command(sub, "pkd", _cmd_pkd, "public-key distribution simulation", ("json", "csv"),
                seeded=True)
    p.add_argument("--scheme", choices=("center", "distributed"), default="center")
    p.add_argument("--recipients", type=int, default=2)
    p.add_argument("--M", type=int, default=10)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--amp", type=float, default=1.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--adversary",
                   choices=("none", "alice-overlap-half", "charlie-flip"), default="none")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, unknown = build_parser().parse_known_args(argv)
    if args.command == "lockkey":  # the group takes no option: any before the action is unparsed
        start = argv.index("lockkey") + 1
        if early := argv[start:argv.index(args.action, start)]:
            args.group.error(f"unrecognized arguments: {' '.join(early)} (options follow the "
                             f"action: qcompare lockkey {args.action} [options])")
    if unknown:  # named by the subcommand that was given them, with its own usage
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        _write(args, args.func(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    return 0


def run() -> None:  # console entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
