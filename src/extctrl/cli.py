"""Batch command-line front end.

Subcommands: ps-fit, weight, balance, compare, maic, stc, borrow, simulate,
run. The first seven are front ends to the plan runner, and ``FRONT_ENDS``
is the one map from their flags to plan keys: each turns its flags into a
plan document, runs it and writes what the run gives. ``compare``,
``maic``, ``stc`` and ``borrow`` run it with ``plan.run_plan``, exactly as
``run`` does with a plan file, so their reports carry the same provenance
(plan hash), checklist and diagnostics; ``compare`` also writes the
weighted KM curves of a time-to-event outcome. ``ps-fit``, ``weight`` and
``balance`` run the plan's design, which reads no outcome, with
``plan.run_design``. An error exits with its family's code, the table in
``extctrl.errors``; success exits 0. The EXTCTRL_THREADS
environment variable caps bootstrap parallelism when the plan sets no
thread count; 0, unset, or anything that is not a positive integer runs
the replicates serially.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import plan as planmod
from .borrow import PowerPriorAnalysis
from .dataset import save_dataset
from .errors import ExtCtrlError, PlanInvalid
from .estimators import Scale, WeightingAnalysis
from .inference import BootstrapConfig
from .simulate import ScenarioConfig, generate


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


def _names(text):
    return [s.strip() for s in text.split(",")] if text else None


def _numbers(flag: str):
    """The argparse type of ``flag``, a comma-separated list of numbers. Its
    PlanInvalid is no ValueError, so argparse lets it reach ``main``."""
    def parse(text):
        try:
            return [float(v) for v in text.split(",")]
        except ValueError:
            raise PlanInvalid(f"{flag} must be comma-separated numbers, got {text!r}") from None
    return parse


_DATA = {"data": ("dataset", {})}
_ESTIMAND = {"--estimand": ("estimand", {"required": True,
                                         "help": "ate|att|atc|ato|matching|trim:<a>"})}
_TARGET = {"--target": ("aggregate", {"required": True, "help": "aggregate JSON file"})}
_COVARIATES = {"--covariates": ("covariates", {"type": _names, "help": "comma-separated subset"})}
_SCALE = {"--scale": ("scale", {"choices": [s.value for s in Scale]})}
_BOOTSTRAP = {
    "--bootstrap": ("bootstrap.replicates", {"type": int, "metavar": "B",
                                             "help": "bootstrap replicates (0 = no CI)"}),
    "--level": ("bootstrap.level", {"type": float, "help": "bootstrap CI level (default "
                                    f"{BootstrapConfig.level})"}),
    "--seed": ("seed", {"type": int, "help": "bootstrap seed (default 0)"}),
}

# Each front end's plan method, help and flags. A flag names the plan key it
# fills ("block.key" for a key inside a block) and its argparse settings; a
# flag whose value is None stays out of the plan.
FRONT_ENDS = {
    "ps-fit": ("weighting", "fit the propensity model and audit overlap", {
        **_DATA, **_COVARIATES,
        "--band": ("positivity_a", {"type": float, "help": "positivity band parameter a "
                                    f"(default {WeightingAnalysis.positivity_a})"}),
    }),
    "weight": ("weighting", "estimand-specific balancing weights",
               {**_DATA, **_ESTIMAND, **_COVARIATES}),
    "balance": ("weighting", "covariate balance table for an estimand", {
        **_DATA, **_ESTIMAND, **_COVARIATES,
        "--threshold": ("smd_threshold", {"type": float, "help": "|weighted SMD| above which a "
                                          "covariate is imbalanced (default "
                                          f"{WeightingAnalysis.smd_threshold})"}),
    }),
    "compare": ("weighting", "weighted effect estimate", {
        **_DATA, **_ESTIMAND, **_COVARIATES, **_SCALE,
        "--horizon": ("horizon", {"type": float,
                                  "help": "survival horizon for time-to-event outcomes"}),
        **_BOOTSTRAP,
    }),
    "maic": ("maic", "matching-adjusted indirect comparison",
             {**_DATA, **_TARGET, **_COVARIATES, **_SCALE, **_BOOTSTRAP}),
    "stc": ("stc", "simulated treatment comparison",
            {**_DATA, **_TARGET, **_COVARIATES, **_SCALE, **_BOOTSTRAP}),
    "borrow": ("power_prior", "fixed power-prior borrowing (binary outcome)", {
        "--x": ("power_prior.x", {"type": int, "required": True, "help": "trial responders"}),
        "--n": ("power_prior.n", {"type": int, "required": True, "help": "trial size"}),
        "--x0": ("power_prior.x0", {"type": int, "required": True,
                                    "help": "external responders"}),
        "--n0": ("power_prior.n0", {"type": int, "required": True, "help": "external size"}),
        "--a0": ("power_prior.a0", {"type": float, "required": True}),
        # argparse passes no default through the flag's type, so the default
        # is already the list of floats the type gives.
        "--prior": ("power_prior.prior", {"type": _numbers("--prior"),
                                          "default": list(PowerPriorAnalysis.prior),
                                          "help": "Beta prior a,b"}),
        "--level": ("power_prior.level", {"type": float, "default": PowerPriorAnalysis.level}),
        "--sweep": ("power_prior.sweep", {"type": _numbers("--sweep"), "help":
                                          "comma-separated a0 grid for sensitivity output"}),
        "--assume-comparable": ("power_prior.assume_comparable", {
            "action": "store_true", "help": "required assertion that populations are comparable"}),
    }),
}


@functools.cache  # argparse reads a parser without changing it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extctrl",
        description="Indirect comparison of a single-arm trial against external controls",
    )
    parser.add_argument("--out-dir", default=None, help="directory for output artifacts")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in FRONT_ENDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, (_, settings) in flags.items():
            p.add_argument(flag, **settings)

    p = sub.add_parser("simulate", help="generate a synthetic scenario dataset")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("run", help="execute a frozen analysis plan")
    p.add_argument("plan")

    return parser


def _plan(args) -> dict:
    """The plan document of a front-end invocation, from its row of FRONT_ENDS."""
    method, _, flags = FRONT_ENDS[args.command]
    plan = {"method": method}
    for flag, (key, _) in flags.items():
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None:
            block, _, name = key.rpartition(".")
            (plan.setdefault(block, {}) if block else plan)[name] = value
    boot = plan.pop("bootstrap", {})
    if boot.get("replicates", 0) < 0:
        raise PlanInvalid(f"--bootstrap must be an integer >= 0 (0 = no CI), "
                          f"got {boot['replicates']}")
    if boot.get("replicates", 0) > 0:  # --bootstrap 0 asks for no interval
        # A bootstrap plan names its seed and level, so its hash fixes both.
        plan["bootstrap"] = {"level": BootstrapConfig.level, **boot}
        plan.setdefault("seed", 0)
    elif "level" in boot or "seed" in plan:
        raise PlanInvalid("--seed and --level need --bootstrap B with B > 0")
    return plan


def _design(args) -> tuple:
    """The design block, plan hash and tables of a ps-fit/weight/balance invocation."""
    run = planmod.run_design(planmod.parse_plan(_plan(args)))
    return run.report["design"], {"plan_hash": run.report["provenance"]["plan_hash"]}, run.tables


def _cmd_ps_fit(args) -> int:
    design, stamp, tables = _design(args)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        ids, _, scores, _ = tables["weights.csv"][1]
        _write(planmod.csv_text(("id", "score"), (ids, scores)), out_dir / "scores.csv")
    _emit({"positivity": design["positivity"], "coefficients": design["coefficients"], **stamp},
          out_dir / "positivity.json" if out_dir else None)
    return 0


def _cmd_weight(args) -> int:
    design, stamp, tables = _design(args)
    out_dir = Path(args.out_dir) if args.out_dir else None
    _write(planmod.csv_text(*tables["weights.csv"]), out_dir / "weights.csv" if out_dir else None)
    ess = planmod.canonical_json({**design["weights"], **stamp}) + "\n"
    # Without --out-dir stdout holds only the CSV, so the ESS line goes to stderr.
    if out_dir:
        _write(ess, out_dir / "ess.json")
    else:
        sys.stderr.write(ess)
    return 0


def _cmd_balance(args) -> int:
    design, stamp, _ = _design(args)
    _emit({"balance": design["balance"], **stamp},
          Path(args.out_dir) / "balance.json" if args.out_dir else None)
    return 0


def _cmd_analysis(args) -> int:
    """compare, maic and stc: run the plan, then write its artifacts under
    --out-dir, with the KM curves of a time-to-event comparison, or print
    the report."""
    artifacts = planmod.run_plan(planmod.parse_plan(_plan(args)))
    if not args.out_dir:
        _emit(artifacts.report)
        return 0
    artifacts.write(args.out_dir)
    for name, c in (artifacts.curves or {}).items():
        _write(planmod.csv_text(("time", "survival", "at_risk"), (c.times, c.survival, c.at_risk)),
               Path(args.out_dir) / f"curve_{name}.csv")
    return 0


def _cmd_borrow(args) -> int:
    report = planmod.run_plan(planmod.parse_plan(_plan(args))).report
    _emit(report, Path(args.out_dir) / "posterior.json" if args.out_dir else None)
    return 0


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
    return 0


def _cmd_run(args) -> int:
    plan = planmod.load_plan(args.plan)
    artifacts = planmod.run_plan(plan)
    out_dir = args.out_dir or "."
    artifacts.write(out_dir)
    return 0


_COMMANDS = {
    "ps-fit": _cmd_ps_fit,
    "weight": _cmd_weight,
    "balance": _cmd_balance,
    "compare": _cmd_analysis,
    "maic": _cmd_analysis,
    "stc": _cmd_analysis,
    "borrow": _cmd_borrow,
    "simulate": _cmd_simulate,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    try:
        # Inside the try: a flag type may raise PlanInvalid (see _numbers).
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ExtCtrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
