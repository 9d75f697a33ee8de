"""Batch command-line front end.

Subcommands: ps-fit, weight, balance, compare, maic, stc, borrow, simulate,
run. ``compare``, ``maic``, ``stc`` and ``borrow`` turn their flags into a
plan document and execute it with ``plan.run_plan``, exactly as ``run``
does with a plan file, so their reports carry the same provenance (plan
hash), checklist and diagnostics. ``ps-fit``, ``weight`` and ``balance``
turn theirs into a weighting plan and run its design, which reads no
outcome, with ``plan.run_design``. Exit codes: 0 success, 2 plan/usage
error (including a bad scenario file), 3 data error (including an input file
that cannot be read), 4 solver error, 5 positivity hard-fail. The
EXTCTRL_THREADS environment variable caps bootstrap parallelism when the
plan sets no thread count; 0, unset, or anything that is not a positive
integer runs the replicates serially.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import plan as planmod
from .borrow import a0_sensitivity
from .dataset import save_dataset
from .errors import DataError, ExtCtrlError, InvalidConfig, PlanInvalid, SolverError
from .estimators import Scale
from .simulate import ScenarioConfig, generate

EXIT_OK = 0
EXIT_PLAN = 2
EXIT_DATA = 3
EXIT_SOLVER = 4
EXIT_POSITIVITY = 5


def _out_file(path) -> Path:
    """``path`` as a Path, with its directory created if it is missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write(text: str, out_path=None) -> None:
    """Write ``text`` to ``out_path``, or to stdout when there is none."""
    if out_path:
        _out_file(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out_path=None) -> None:
    _write(planmod.canonical_json(payload) + "\n", out_path)


def _add_bootstrap_flags(parser) -> None:
    parser.add_argument("--bootstrap", type=int, default=0, metavar="B",
                        help="bootstrap replicates (0 = no CI)")
    parser.add_argument("--level", type=float, default=0.95)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extctrl",
        description="Indirect comparison of a single-arm trial against external controls",
    )
    parser.add_argument("--out-dir", default=None, help="directory for output artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ps-fit", help="fit the propensity model and audit overlap")
    p.add_argument("data")
    p.add_argument("--covariates", default=None, help="comma-separated subset")
    p.add_argument("--band", type=float, help="positivity band parameter a (default 0.1)")

    p = sub.add_parser("weight", help="estimand-specific balancing weights")
    p.add_argument("data")
    p.add_argument("--estimand", required=True,
                   help="ate|att|atc|ato|matching|trim:<a>")
    p.add_argument("--covariates", default=None)

    p = sub.add_parser("balance", help="covariate balance table for an estimand")
    p.add_argument("data")
    p.add_argument("--estimand", required=True)
    p.add_argument("--covariates", default=None)
    p.add_argument("--threshold", type=float,
                   help="|weighted SMD| above which a covariate is imbalanced (default 0.1)")

    p = sub.add_parser("compare", help="weighted effect estimate")
    p.add_argument("data")
    p.add_argument("--estimand", required=True)
    p.add_argument("--covariates", default=None)
    p.add_argument("--scale", choices=[s.value for s in Scale])
    p.add_argument("--horizon", type=float, default=None,
                   help="survival horizon for time-to-event outcomes")
    _add_bootstrap_flags(p)

    p = sub.add_parser("maic", help="matching-adjusted indirect comparison")
    p.add_argument("data")
    p.add_argument("--target", required=True, help="aggregate JSON file")
    p.add_argument("--covariates", default=None)
    p.add_argument("--scale", choices=[s.value for s in Scale])
    _add_bootstrap_flags(p)

    p = sub.add_parser("stc", help="simulated treatment comparison")
    p.add_argument("data")
    p.add_argument("--target", required=True)
    p.add_argument("--covariates", default=None)
    p.add_argument("--scale", choices=[s.value for s in Scale])
    _add_bootstrap_flags(p)

    p = sub.add_parser("borrow", help="fixed power-prior borrowing (binary outcome)")
    p.add_argument("--x", type=int, required=True, help="trial responders")
    p.add_argument("--n", type=int, required=True, help="trial size")
    p.add_argument("--x0", type=int, required=True, help="external responders")
    p.add_argument("--n0", type=int, required=True, help="external size")
    p.add_argument("--a0", type=float, required=True)
    p.add_argument("--prior", default="1,1", help="Beta prior a,b")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--sweep", default=None,
                   help="comma-separated a0 grid for sensitivity output")
    p.add_argument("--assume-comparable", action="store_true",
                   help="required assertion that populations are comparable")

    p = sub.add_parser("simulate", help="generate a synthetic scenario dataset")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("run", help="execute a frozen analysis plan")
    p.add_argument("plan")

    return parser


def _split(names):
    return [s.strip() for s in names.split(",")] if names else None


def _design(args, **fields) -> tuple:
    """The design block, plan hash and tables of the weighting plan of a
    ps-fit/weight/balance invocation; a flag not given stays out of the plan."""
    plan = dict(fields, method="weighting", dataset=args.data, covariates=_split(args.covariates))
    run = planmod.run_design(planmod.parse_plan({k: v for k, v in plan.items() if v is not None}))
    return run.report["design"], {"plan_hash": run.report["provenance"]["plan_hash"]}, run.tables


def _cmd_ps_fit(args) -> int:
    design, stamp, tables = _design(args, positivity_a=args.band)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        ids, _, scores, _ = tables["weights.csv"][1]
        _write(planmod.csv_text(("id", "score"), (ids, scores)), out_dir / "scores.csv")
    _emit({"positivity": design["positivity"], "coefficients": design["coefficients"], **stamp},
          out_dir / "positivity.json" if out_dir else None)
    return EXIT_OK


def _cmd_weight(args) -> int:
    design, stamp, tables = _design(args, estimand=args.estimand)
    out_dir = Path(args.out_dir) if args.out_dir else None
    _write(planmod.csv_text(*tables["weights.csv"]), out_dir / "weights.csv" if out_dir else None)
    ess = planmod.canonical_json({**design["weights"], **stamp}) + "\n"
    # Without --out-dir stdout holds only the CSV, so the ESS line goes to stderr.
    if out_dir:
        _write(ess, out_dir / "ess.json")
    else:
        sys.stderr.write(ess)
    return EXIT_OK


def _cmd_balance(args) -> int:
    design, stamp, _ = _design(args, estimand=args.estimand, smd_threshold=args.threshold)
    _emit({"balance": design["balance"], **stamp},
          Path(args.out_dir) / "balance.json" if args.out_dir else None)
    return EXIT_OK


def _analysis_plan(args, method: str, **fields) -> dict:
    """The plan document of a compare/maic/stc invocation."""
    plan = {"method": method, "dataset": args.data, **fields}
    if args.scale:
        plan["scale"] = args.scale
    if args.covariates:
        plan["covariates"] = _split(args.covariates)
    if args.bootstrap > 0:
        plan["seed"] = args.seed
        plan["bootstrap"] = {"replicates": args.bootstrap, "level": args.level}
    return plan


def _run(args, plan: dict) -> planmod.RunArtifacts:
    """Run ``plan``; write its artifacts under --out-dir, else print the report."""
    artifacts = planmod.run_plan(planmod.parse_plan(plan))
    if args.out_dir:
        artifacts.write(args.out_dir)
    else:
        _emit(artifacts.report)
    return artifacts


def _cmd_compare(args) -> int:
    fields = {"estimand": args.estimand}
    if args.horizon is not None:
        fields["horizon"] = args.horizon
    artifacts = _run(args, _analysis_plan(args, "weighting", **fields))
    if args.out_dir and artifacts.curves:
        for name, c in artifacts.curves.items():
            _write(planmod.csv_text(("time", "survival", "at_risk"),
                                    (c.times, c.survival, c.at_risk)),
                   Path(args.out_dir) / f"curve_{name}.csv")
    return EXIT_OK


def _cmd_maic(args) -> int:
    _run(args, _analysis_plan(args, "maic", aggregate=args.target))
    return EXIT_OK


def _cmd_stc(args) -> int:
    _run(args, _analysis_plan(args, "stc", aggregate=args.target))
    return EXIT_OK


def _numbers(text: str, flag: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise PlanInvalid(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _cmd_borrow(args) -> int:
    prior = _numbers(args.prior, "--prior")
    plan = {"method": "power_prior", "power_prior": {
        "x": args.x, "n": args.n, "x0": args.x0, "n0": args.n0, "a0": args.a0,
        "prior": prior, "level": args.level,
        "assume_comparable": args.assume_comparable,
    }}
    grid = _numbers(args.sweep, "--sweep") if args.sweep else None
    if grid and not all(0.0 <= a0 <= 1.0 for a0 in grid):
        raise PlanInvalid(f"--sweep values must lie in [0, 1], got {args.sweep!r}")
    report = planmod.run_plan(planmod.parse_plan(plan)).report
    if grid:
        report["sensitivity"] = a0_sensitivity(
            args.x, args.n, args.x0, args.n0, grid, *prior, args.level
        )
    _emit(report, Path(args.out_dir) / "posterior.json" if args.out_dir else None)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    try:
        payload = json.loads(Path(args.scenario).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:
        raise PlanInvalid(f"{args.scenario}: cannot read scenario ({exc})") from None
    if not isinstance(payload, dict):
        raise PlanInvalid(f"{args.scenario}: a scenario must be a JSON object")
    if args.seed is not None:
        payload["seed"] = args.seed
    config = ScenarioConfig.from_dict(payload)
    data, truth = generate(config)
    save_dataset(data, _out_file(args.out))
    _emit({"truth": truth},
          Path(args.out).with_suffix(".truth.json"))
    return EXIT_OK


def _cmd_run(args) -> int:
    plan = planmod.load_plan(args.plan)
    artifacts = planmod.run_plan(plan)
    out_dir = args.out_dir or "."
    artifacts.write(out_dir)
    return EXIT_OK


_COMMANDS = {
    "ps-fit": _cmd_ps_fit,
    "weight": _cmd_weight,
    "balance": _cmd_balance,
    "compare": _cmd_compare,
    "maic": _cmd_maic,
    "stc": _cmd_stc,
    "borrow": _cmd_borrow,
    "simulate": _cmd_simulate,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except planmod.PositivityHardFail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_POSITIVITY
    except (PlanInvalid, InvalidConfig) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLAN
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ExtCtrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
