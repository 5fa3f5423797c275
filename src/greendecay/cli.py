"""Command line interface.

    greendecay run <name> [--seed S] [--column J] [--input PATH] [--out FILE.csv]
    greendecay bounds <matrix.mtx>
    greendecay verify [--trials N] [--seed S]

Exit codes: 0 on success, 2 when no bound family is applicable to the given
matrix (the run still writes its table), 1 on errors.

The parser reads only ``experiments.EXPERIMENT_NAMES``; each command imports
the rest of what it runs when it runs, so a process pays only for its own
command: ``run`` and ``bounds`` never load ``lu``, ``green``, ``ensembles``
or ``verify``.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import EXPERIMENT_NAMES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greendecay",
        description="decay-bound experiments for inverses of banded matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named experiment and write its CSV table")
    run.add_argument("name", choices=EXPERIMENT_NAMES)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--column", type=int, default=1, help="probe column (1-based)")
    run.add_argument("--input", help="Matrix Market file (required for ex3)")
    run.add_argument("--out", help="output CSV path (default: <name>.csv)")

    bounds = sub.add_parser("bounds", help="print mu, gamma, M and the Varah bound")
    bounds.add_argument("path", help="Matrix Market file")

    verify = sub.add_parser("verify", help="run the invariant sweep")
    verify.add_argument("--trials", type=int, default=20)
    verify.add_argument("--seed", type=int, default=20260810)
    return parser


def _cmd_run(args) -> int:
    from .experiments import ExperimentSpec, emit_csv, run_experiment

    spec = ExperimentSpec(
        name=args.name,
        seed=args.seed,
        column=args.column,
        input_path=args.input,
    )
    report = run_experiment(spec)
    out = args.out or f"{args.name}.csv"
    emit_csv(report, out)
    print(
        f"{args.name}: N={report.n}, r_lower={report.r_lower}, "
        f"r_upper={report.r_upper}, mu={report.mu:.6g}, "
        f"dominance={'yes' if report.dominance_satisfied else 'NO'}, "
        f"symmetric={'yes' if report.symmetric else 'no'}"
    )
    for name, fam in report.families.items():
        if fam.applicable:
            consts = []
            if fam.M is not None:
                consts.append(f"M={fam.M:.6g}")
            if fam.gamma is not None:
                consts.append(f"gamma={fam.gamma:.6g}")
            extra = f" [{fam.note}]" if fam.note else ""
            print(f"  {name:12s} {', '.join(consts)}{extra}")
        else:
            print(f"  {name:12s} not applicable: {fam.note}")
    for note in report.notes:
        print(f"  note: {note}")
    print(f"wrote {out}")
    return 0 if report.applicable_families else 2


def _cmd_bounds(args) -> int:
    from .banded import dominance_mu, read_matrix_market
    from .bounds import lu_bound, varah_bound

    A = read_matrix_market(args.path)
    rep = dominance_mu(A)
    print(f"N={A.n}, r_lower={A.r_lower}, r_upper={A.r_upper}")
    print(f"mu = {rep.mu!r} (satisfied: {'yes' if rep.satisfied else 'no'})")
    if not rep.satisfied:
        if rep.zero_diagonal_index is not None:
            print(f"zero diagonal entry at k = {rep.zero_diagonal_index}")
        print("dominance condition fails; decay bounds not applicable")
        return 2
    b = lu_bound(A)
    print(f"gamma = {b.gamma!r}")
    print(f"M = {b.M!r}")
    print(f"varah = {varah_bound(A)!r}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # every package error derives from one of these: DominanceError,
    # HypothesisError, MatrixMarketError and numpy's LinAlgError (singular
    # reference inverse, non-converged eigvalsh) from ValueError,
    # ZeroPivotError from ArithmeticError; a path that cannot be read or
    # written (missing, a directory, no permission) raises an OSError
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        from .verify import run_all

        return 0 if run_all(trials=args.trials, seed=args.seed) else 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
