"""Command-line front end.

Subcommands: ``compare``, ``multiport``, ``oracle``, ``figure2``, ``figure4``,
``lockkey {simulate,entropy,attack-scan}``, ``pkd``.  Each takes ``--seed``,
``--out`` and ``--format {csv,json,svg}`` (after the action, for ``lockkey``).
Exit codes: 0 on success, 2 on usage or validation errors or an unwritable
``--out``, 3 on an internal invariant violation.

Every handler returns one :class:`Report` and ``_write`` alone serialises it.
All output is deterministic for a fixed argument list: JSON is streamed with
sorted keys, CSV is written in chunks with dot decimals and LF line endings,
and every stochastic report records its seed.  SVG figures are drawn from the
report's CSV table; there is no second computation route.
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
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import comparison, domain, fock, lockkey, pkd
from .detection import DetectorModel
from .errors import InvariantError
from .linear import CoherentRegister, apply_network, make_beam_splitter
from .svg import line_chart

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
    """One subcommand's result; asking for a format whose part is ``None`` is an error."""

    fields: dict | None = None  # the JSON object, without "schema"
    columns: tuple[str, ...] | None = None  # the CSV header; each row maps them to values
    rows: Sequence = ()
    plot: Plot | None = None


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


def _write_csv(fh, columns, rows, seed) -> None:
    """Write a CSV table to ``fh``, ``domain.CHUNK_ROWS`` formatted rows at a time."""
    fh.write(f"# schema={SCHEMA} seed={seed}\n")
    fh.write(",".join(columns) + "\n")
    lines = (",".join(_fmt(row[c]) for c in columns) for row in rows)
    while chunk := list(itertools.islice(lines, domain.CHUNK_ROWS)):
        fh.write("\n".join(chunk) + "\n")


def _svg(report: Report) -> str:
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

    A missing part is a ValueError raised before any output.  So is a failure
    to open, write or close the output (``--out`` is left where it is: it may
    be a device), or a stdout whose reader has gone (``| head``).
    """
    fmt = args.format
    if {"json": report.fields, "csv": report.columns, "svg": report.plot}[fmt] is None:
        raise ValueError(f"this command has no {fmt.upper()} output")
    svg = _svg(report) if fmt == "svg" else None
    try:
        with (open(args.out, "w", encoding="utf-8", newline="\n") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            if fmt == "json":
                json.dump({"schema": SCHEMA, **report.fields}, fh, indent=2, sort_keys=True)
                fh.write("\n")
            elif fmt == "csv":
                _write_csv(fh, report.columns, report.rows, args.seed)
            else:
                fh.write(svg)
            fh.flush()  # a closed stdout pipe fails here, not in the interpreter's final flush
    except OSError as exc:
        if args.out:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from exc
        # What stdout still buffers goes to devnull, so the final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValueError(f"cannot write stdout: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

_DELTA_COLUMNS = ("delta_abs", "p_succ", "p_asymm")


def _sweep_grid(stop: float, step: float, columns: int) -> np.ndarray:
    """0, step, ... through ``stop`` (to half a step): a scan's x axis, for rows of ``columns``."""
    stop = domain.magnitude(stop, "sweep range", positive=True)
    step = domain.magnitude(step, "sweep step", positive=True)
    domain.size((stop / step + 1) * columns * domain.REPORT_ENTRIES, "the report table")
    return np.arange(0.0, stop + step / 2, step)


def _delta_sweep(max_delta: float, step: float, title: str) -> Report:
    """p_succ and p_asymm against |alpha - beta| from 0 to max_delta, with their plot."""
    deltas = _sweep_grid(max_delta, step, len(_DELTA_COLUMNS))
    rows = [
        {
            "delta_abs": float(d),
            "p_succ": comparison.p_success_two(0.0, d),
            "p_asymm": comparison.p_success_universal([0.0, d]),
        }
        for d in deltas
    ]
    return Report(columns=_DELTA_COLUMNS, rows=rows,
                  plot=Plot(title, "|alpha - beta|", "probability", _DELTA_COLUMNS[1:]))


def _entropy_grid(n_list, alpha_sq_max: float, points: int) -> list[dict]:
    """Rows of the key-position entropy over a |alpha|^2 grid, for each N in turn."""
    alpha_sq_max = domain.magnitude(alpha_sq_max, "alpha_sq_max", limit=domain.MAX_AMPLITUDE**2)
    points = domain.integer(points, "points", 2)
    domain.size(points * len(n_list) * 4 * domain.REPORT_ENTRIES, "the report table")
    grid = np.linspace(0.0, alpha_sq_max, points)
    return [
        {"alpha_sq": float(a2), "N": n,
         "S_bits": lockkey.holevo_entropy_finite(math.sqrt(a2), n).bits}
        for n in n_list
        for a2 in grid
    ]


def _cmd_compare(args) -> Report:
    alpha = _parse_complex(args.alpha)
    beta = _parse_complex(args.beta)
    report = comparison.compare_report([alpha, beta])
    if args.format == "json":
        return Report(fields={
            "alpha": [alpha.real, alpha.imag],
            "beta": [beta.real, beta.imag],
            "p_succ": report.p_succ_coherent,
            "p_asymm": report.p_succ_universal,
            "p_no_click": list(report.p_no_click),
            "p_succ_conjugate": comparison.p_success_conjugate(alpha, beta),
        })
    return _delta_sweep(args.sweep_max, args.sweep_step, "two-state comparison")


def _cmd_multiport(args) -> Report:
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
    return fock.product_state(fock.coherent_fock(a, cutoff), fock.coherent_fock(b, cutoff))


def _cmd_oracle(args) -> Report:
    if args.xi1 is not None or args.xi2 is not None:
        if args.xi1 is None or args.xi2 is None:
            raise ValueError("squeezed mode needs both --xi1 and --xi2")
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
        joint = _coherent_pair(alpha, beta, args.cutoff)
        out = fock.apply_bs_fock(joint, args.transmittance)
        gamma_a, gamma_b = (complex(g) for g in apply_network(
            make_beam_splitter(args.transmittance), CoherentRegister([alpha, beta])).amplitudes)
        analytic = _coherent_pair(gamma_a, gamma_b, args.cutoff)
        obj = {
            "mode": "coherent",
            "cutoff": args.cutoff,
            "transmittance": args.transmittance,
            "gamma_a": [gamma_a.real, gamma_a.imag],
            "gamma_b": [gamma_b.real, gamma_b.imag],
            "fidelity_vs_analytic": fock.fidelity(out, analytic),
            "input_deficit": joint.deficit,
            "output_deficit": out.deficit,
        }
    return Report(fields=obj)


def _cmd_figure2(args) -> Report:
    sweep = _delta_sweep(args.max, args.step, "success probability vs amplitude difference")
    return replace(sweep, fields={"rows": sweep.rows})


def _cmd_figure4(args) -> Report:
    rows = _entropy_grid(args.N, args.alpha_sq_max, args.points)
    for r in rows:
        r["asymptote_bits"] = math.log2(r["N"])
    return Report(fields={"rows": rows}, columns=("alpha_sq", "N", "S_bits", "asymptote_bits"),
                  rows=rows, plot=Plot("key-position entropy vs mean photon number", "|alpha|^2",
                                       "S (bits)", ("S_bits",), "N", tuple(args.N)))


def _cmd_lockkey_simulate(args) -> Report:
    key = lockkey.generate_key(args.M, args.N, args.amp, rng=args.seed)
    # --beta is checked whatever the attack, though only coherent reads it.
    magnitude = domain.magnitude(args.beta, "attack magnitude")
    # The vacuum is the coherent false key of magnitude 0.
    beta = {"key": None, "vacuum": 0.0, "coherent": magnitude}[args.attack]
    model = DetectorModel(efficiency=args.efficiency, dark_mean=args.dark_mean)
    analytic = lockkey.analytic_pass_probability(args.amp, args.M, beta, model)
    candidate = key.amplitudes() if beta is None else np.full(args.M, beta, dtype=complex)
    stats = lockkey.lock_test_pass_rate(key, candidate, model, trials=args.trials,
                                        rng=args.seed + 1)
    obj = {
        "seed": args.seed,
        "attack": args.attack,
        "M": args.M,
        "N": args.N,
        "amp": args.amp,
        "trials": args.trials,
        "pass_rate": stats.rate,
        "wilson_95": list(stats.wilson),
        "analytic_pass_probability": analytic,
    }
    return Report(fields=obj)


def _cmd_lockkey_entropy(args) -> Report:
    if args.alpha_sq is not None:
        amplitude = math.sqrt(domain.magnitude(args.alpha_sq, "alpha_sq",
                                               limit=domain.MAX_AMPLITUDE ** 2))
        results = [
            {"N": n, "alpha_sq": args.alpha_sq,
             "S_bits": lockkey.holevo_entropy_finite(amplitude, n).bits}
            for n in args.N
        ]
        return Report(fields={"results": results})
    rows = _entropy_grid(args.N, args.alpha_sq_max, args.points)
    return Report(fields={"rows": rows}, columns=("alpha_sq", "N", "S_bits"), rows=rows,
                  plot=Plot("key-position entropy", "|alpha|^2", "S (bits)",
                            ("S_bits",), "N", tuple(args.N)))


def _cmd_lockkey_attack_scan(args) -> Report:
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
        "seed": args.seed,
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
    return Report(fields=obj, columns=pkd.TRIAL_COLUMNS, rows=rows)


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
    common.add_argument("--out", default=None, help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json", "svg"), default="json")

    parser = _AmplitudeFriendlyParser(prog="qcompare",
                                      description="linear-optical coherent-state comparison toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_AmplitudeFriendlyParser)

    p = sub.add_parser("compare", parents=[common],
                       help="two-state comparison report (csv/svg: sweep over |alpha-beta|)")
    p.add_argument("--alpha", required=True, help="first amplitude as re,im")
    p.add_argument("--beta", required=True, help="second amplitude as re,im")
    p.add_argument("--sweep-max", type=float, default=4.0)
    p.add_argument("--sweep-step", type=float, default=0.05)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("multiport", parents=[common], help="N-state comparison report")
    p.add_argument("--amps", nargs="+", required=True, help="amplitudes as re,im pairs")
    p.set_defaults(func=_cmd_multiport)

    p = sub.add_parser("oracle", parents=[common],
                       help="number-basis oracle checks (coherent or squeezed inputs)")
    p.add_argument("--alpha", default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--xi1", type=float, default=None)
    p.add_argument("--xi2", type=float, default=None)
    p.add_argument("--transmittance", type=float, default=0.5)
    p.add_argument("--cutoff", type=int, default=40)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("figure2", parents=[common],
                       help="success probabilities vs amplitude difference")
    p.add_argument("--max", type=float, default=4.0)
    p.add_argument("--step", type=float, default=0.05)
    p.set_defaults(func=_cmd_figure2)

    p = sub.add_parser("figure4", parents=[common],
                       help="key-position entropy vs mean photon number")
    p.add_argument("--N", nargs="+", type=int, default=[2, 3, 4, 5, 6])
    p.add_argument("--alpha-sq-max", type=float, default=25.0)
    p.add_argument("--points", type=int, default=51)
    p.set_defaults(func=_cmd_figure4)

    # The group takes no common options: they follow the action, which sets them.
    p = sub.add_parser("lockkey", help="lock-and-key analyses")
    action = p.add_subparsers(dest="action", required=True)

    ps = action.add_parser("simulate", parents=[common], help="Monte Carlo lock tests")
    ps.add_argument("--M", type=int, default=10)
    ps.add_argument("--N", type=int, default=8)
    ps.add_argument("--amp", type=float, default=1.0)
    ps.add_argument("--attack", choices=("key", "vacuum", "coherent"), default="vacuum")
    ps.add_argument("--beta", type=float, default=0.0, help="magnitude for --attack coherent")
    ps.add_argument("--trials", type=int, default=100_000)
    ps.add_argument("--efficiency", type=float, default=1.0)
    ps.add_argument("--dark-mean", type=float, default=0.0)
    ps.set_defaults(func=_cmd_lockkey_simulate)

    pe = action.add_parser("entropy", parents=[common], help="information bound per key position")
    pe.add_argument("--N", nargs="+", type=int, default=[2, 3, 4, 5, 6])
    pe.add_argument("--alpha-sq", type=float, default=None)
    pe.add_argument("--alpha-sq-max", type=float, default=25.0)
    pe.add_argument("--points", type=int, default=51)
    pe.set_defaults(func=_cmd_lockkey_entropy)

    pa = action.add_parser("attack-scan", parents=[common], help="coherent false-key scan")
    pa.add_argument("--amp", type=float, required=True)
    pa.add_argument("--beta-max", type=float, default=None)
    pa.add_argument("--step", type=float, default=0.01)
    pa.set_defaults(func=_cmd_lockkey_attack_scan)

    p = sub.add_parser("pkd", parents=[common], help="public-key distribution simulation")
    p.add_argument("--scheme", choices=("center", "distributed"), default="center")
    p.add_argument("--recipients", type=int, default=2)
    p.add_argument("--M", type=int, default=10)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--amp", type=float, default=1.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--adversary",
                   choices=("none", "alice-overlap-half", "charlie-flip"), default="none")
    p.set_defaults(func=_cmd_pkd)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
