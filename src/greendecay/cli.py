"""Command line interface.

    greendecay run <name> [--seed S] [--column J] [--input PATH] [--out FILE.csv]
    greendecay bounds <matrix.mtx>
    greendecay verify [--trials N] [--seed S]

Exit codes: 0 on success, 2 when no bound family is applicable to the given
matrix (the run still writes its table; for ``bounds``, when the LU or Varah
bound raises HypothesisError: the dominance condition fails or the constant
M overflows), 1 on errors. ``bounds`` has one handler for that case: it
prints the error's text, the reason ``run`` gives for ``lu`` and ``varah``,
as one line ending ``; decay bounds not applicable``.

``run`` and ``verify`` pass on only the options given, so the library's
defaults apply; an unknown experiment name is an error (exit 1) whose message
lists the names. Each command imports what it runs when it runs: ``bounds``
loads only ``banded``, ``bounds`` and ``errors``, ``run`` adds ``experiments``
and ``oracle``, and only ``verify`` loads ``lu``, ``green`` and ``ensembles``.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greendecay",
        description="decay-bound experiments for inverses of banded matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run a named experiment and write its CSV table",
        argument_default=argparse.SUPPRESS,
    )
    run.add_argument("name", help="experiment name")
    run.add_argument("--seed", type=int)
    run.add_argument("--column", type=int, help="probe column (1-based)")
    run.add_argument("--input", dest="input_path", help="Matrix Market file (required for ex3)")
    run.add_argument("--out", help="output CSV path (default: <name>.csv)")

    bounds = sub.add_parser("bounds", help="print mu, gamma, M and the Varah bound")
    bounds.add_argument("path", help="Matrix Market file")

    verify = sub.add_parser(
        "verify", help="run the invariant sweep", argument_default=argparse.SUPPRESS
    )
    verify.add_argument("--trials", type=int)
    verify.add_argument("--seed", type=int)
    return parser


def _cmd_run(options: dict) -> int:
    from .experiments import ExperimentSpec, emit_csv, run_experiment

    out = options.pop("out", None) or f"{options['name']}.csv"
    report = run_experiment(ExperimentSpec(**options))
    emit_csv(report, out)
    A, rep = report.A, report.dominance
    print(
        f"{report.spec.name}: N={A.n}, r_lower={A.r_lower}, "
        f"r_upper={A.r_upper}, mu={rep.mu:.6g}, "
        f"dominance={'yes' if rep.satisfied else 'NO'}, "
        f"symmetric={'yes' if report.symmetric else 'no'}"
    )
    for name, (bound, note) in report.families.items():
        if bound is None:
            print(f"  {name:12s} not applicable: {note}")
            continue
        M = "" if bound.M is None else f"M={bound.M:.6g}, "  # Chui-Hasson has no M
        extra = f" [{note}]" if note else ""
        print(f"  {name:12s} {M}gamma={bound.gamma:.6g}{extra}")
    for note in report.notes:
        print(f"  note: {note}")
    print(f"wrote {out}")
    return 0 if report.applicable_families else 2


def _cmd_bounds(path: str) -> int:
    from .banded import dominance_mu, read_matrix_market
    from .bounds import lu_bound, varah_bound
    from .errors import HypothesisError

    A = read_matrix_market(path)
    rep = dominance_mu(A)
    print(f"N={A.n}, r_lower={A.r_lower}, r_upper={A.r_upper}")
    print(f"mu = {rep.mu!r} (satisfied: {'yes' if rep.satisfied else 'no'})")
    try:
        b, varah = lu_bound(A), varah_bound(A)
    except HypothesisError as exc:
        print(f"{exc}; decay bounds not applicable")
        return 2
    print(f"gamma = {b.gamma!r}")
    print(f"M = {b.M!r}")
    print(f"varah = {varah.M!r}")
    return 0


def main(argv=None) -> int:
    options = vars(_build_parser().parse_args(argv))
    command = options.pop("command")
    # every package error derives from one of these: HypothesisError
    # (DominanceError, the LU and Varah families' one, among them),
    # MatrixMarketError and numpy's LinAlgError (singular reference inverse,
    # an eigenvalue past the float range, non-converged eigvalsh) from
    # ValueError, ZeroPivotError from ArithmeticError; a path that cannot be
    # read or written (missing, a directory, no permission) raises an OSError
    try:
        if command == "run":
            return _cmd_run(options)
        if command == "bounds":
            return _cmd_bounds(options["path"])
        from .verify import run_all

        return 0 if run_all(**options) else 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
