"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``infer APP_ID``
    Run the SherLock pipeline on one benchmark app and print the inferred
    synchronizations (scored against ground truth).
``races APP_ID``
    Compare Manual_dr and SherLock_dr race detection on one app.
``table NAME``
    Regenerate one paper table/figure (``table1`` … ``table7``,
    ``table89``, ``figure4``, ``tsvd``, ``overhead``).
``all``
    Regenerate every table and figure.
``apps``
    List the benchmark applications.
``fuzz``
    Schedule-fuzz one or more apps: sweep scheduler seeds, sanitize every
    trace, run differential inference oracles, write a JSON campaign
    report.  Exit status is non-zero on sanitizer violations (and, with
    ``--strict``, on oracle failures).
``predict``
    Sync-preserving predictive race detection (Manual_pr / SherLock_pr):
    sweep schedule seeds per app, compare FastTrack-first-race vs TSVD
    vs predictive detection power, verify the predictive ⊇ FastTrack
    invariant and every witness reordering.  Exit status is non-zero
    when the superset invariant or a witness validation fails.  With
    ``--convert``, follow up with a directed schedule-search pass over
    the predicted-only races.
``convert``
    Directed schedule search: fan ``directed:<seed>|target|...``
    schedules over the predicted-only races and report, per app × spec
    × target, whether the prediction was converted into an observed
    FastTrack race (validated) or never converted (candidate false
    prediction).  ``--require-planted`` makes the exit status non-zero
    when a ground-truth planted race fails to convert.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis.experiments import (
    common,
    figure4,
    overhead,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table89,
    tsvd_enhance,
)
from .api import coerce_cache, run
from .apps.registry import (
    all_applications,
    app_ids,
    family_app_ids,
    get_application,
)
from .core import SherlockConfig
from .racedet import detect_races, manual_spec, sherlock_spec
from .runtime import DEFAULT_CACHE_DIR, ExecutionRuntime, parse_engine_spec
from .sim.schedule import build_policy, policy_names

_TABLES = {
    "table1": lambda a: table1.run(a),
    "table2": lambda a: table2.run(a)[0],
    "table3": lambda a: table3.run(a)[0],
    "table4": lambda a: table4.run(a),
    "table5": lambda a: table5.run(a),
    "table6": lambda a: table6.run(a),
    "table7": lambda a: table7.run(a),
    "table89": lambda a: table89.run(a),
    "figure4": lambda a: figure4.run(a),
    "tsvd": lambda a: tsvd_enhance.run(a),
    "overhead": lambda a: overhead.run(a),
}


def _policy_spec(value: str) -> str:
    """Validate a schedule-policy spec string (``--policy``).

    Accepts every registered spec shape — ``random``, ``pct[:p]``,
    ``directed:<seed>[@p]|target|...`` — not just the bare names, so
    parameterized specs flow through the CLI unchanged.
    """
    try:
        build_policy(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _engine_spec(value: str) -> str:
    """Validate an engine spec string (``--engine``): ``serial`` or
    ``process[:N]``."""
    try:
        parse_engine_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _add_shared_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Options valid both before and after the subcommand.

    The subcommand copies use ``SUPPRESS`` defaults so a value given
    before the subcommand isn't clobbered by the subparser's default.
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--rounds", type=int, default=default(3),
        help="rounds per input (default 3)",
    )
    parser.add_argument("--seed", type=int, default=default(0))
    parser.add_argument(
        "--apps", default=default(None),
        help="comma-separated app ids to restrict to (default: all 8)",
    )
    parser.add_argument(
        "--engine", type=_engine_spec, default=default(None),
        metavar="SPEC",
        help="execution engine: serial (default) or process[:N], a pool "
        "of N worker processes (default N: the CPU count)",
    )
    parser.add_argument(
        "--cache", nargs="?", const=DEFAULT_CACHE_DIR, default=default(None),
        metavar="DIR",
        help="memoize observed rounds on disk (default dir: "
        f"{DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--stats", action="store_true", default=default(False),
        help="print per-phase timings and cache hit/miss counters",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SherLock reproduction (ASPLOS 2021)",
    )
    _add_shared_options(parser, suppress=False)
    shared = argparse.ArgumentParser(add_help=False)
    _add_shared_options(shared, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    infer_p = sub.add_parser(
        "infer", help="run SherLock on one app", parents=[shared]
    )
    infer_p.add_argument("app_id")

    races_p = sub.add_parser(
        "races", help="Manual_dr vs SherLock_dr", parents=[shared]
    )
    races_p.add_argument("app_id")

    table_p = sub.add_parser(
        "table", help="regenerate one table/figure", parents=[shared]
    )
    table_p.add_argument("name", choices=sorted(_TABLES))

    report_p = sub.add_parser(
        "report",
        help="write a full markdown reproduction report",
        parents=[shared],
    )
    report_p.add_argument("path", nargs="?", default="REPRODUCTION_REPORT.md")

    sub.add_parser(
        "all", help="regenerate every table and figure", parents=[shared]
    )
    sub.add_parser("apps", help="list the benchmark applications")

    fuzz_p = sub.add_parser(
        "fuzz",
        help="schedule-fuzz apps with trace sanitizing and oracles",
        parents=[shared],
    )
    fuzz_p.add_argument(
        "--app", action="append", dest="fuzz_apps", metavar="APP",
        help="app to fuzz (repeatable; ids or module aliases like "
        "'app7_statsd'; default: all 8)",
    )
    fuzz_p.add_argument(
        "--schedules", type=int, default=25,
        help="seeds to sweep per app (default 25)",
    )
    fuzz_p.add_argument(
        "--policy", default="random", type=_policy_spec,
        help="kernel scheduling policy spec "
        f"(one of {policy_names()}, optionally parameterized, e.g. "
        "'pct:0.05' or 'directed:7|Cls::field'; default random)",
    )
    fuzz_p.add_argument(
        "--convert", action="store_true",
        help="after the campaign, run a directed schedule-search pass "
        "over its predicted race targets",
    )
    fuzz_p.add_argument(
        "--out", default="fuzz_report.json", metavar="PATH",
        help="campaign report path (default fuzz_report.json)",
    )
    fuzz_p.add_argument(
        "--replay-every", type=int, default=5,
        help="permutation-replay sample stride; 0 disables (default 5)",
    )
    fuzz_p.add_argument(
        "--no-oracles", action="store_true",
        help="skip differential oracles (sanitize only)",
    )
    fuzz_p.add_argument(
        "--strict", action="store_true",
        help="also fail on oracle failures, not just sanitizer "
        "violations",
    )

    predict_p = sub.add_parser(
        "predict",
        help="predictive (sync-preserving) race detection power sweep",
        parents=[shared],
    )
    predict_p.add_argument(
        "--app", action="append", dest="predict_apps", metavar="APP",
        help="app to analyze (repeatable; ids or module aliases; "
        "default: all 8)",
    )
    predict_p.add_argument(
        "--schedules", type=int, default=1,
        help="schedule seeds to sweep per app × spec (default 1)",
    )
    predict_p.add_argument(
        "--spec", choices=["manual", "sherlock", "both"], default="both",
        help="happens-before vocabulary: manual annotations "
        "(Manual_pr), SherLock's inference (SherLock_pr), or both "
        "(default both)",
    )
    predict_p.add_argument(
        "--policy", default="random", type=_policy_spec,
        help="kernel scheduling policy spec "
        f"(one of {policy_names()}, optionally parameterized; "
        "default random)",
    )
    predict_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the sweep as JSON",
    )
    predict_p.add_argument(
        "--convert", action="store_true",
        help="follow up with a directed schedule-search pass over the "
        "predicted-only races",
    )

    convert_p = sub.add_parser(
        "convert",
        help="directed schedule search over predicted-only races",
        parents=[shared],
    )
    convert_p.add_argument(
        "--app", action="append", dest="convert_apps", metavar="APP",
        help="app to convert (repeatable; ids or module aliases; "
        "default: all 8)",
    )
    convert_p.add_argument(
        "--schedules", type=int, default=4,
        help="directed schedules (seeds) per app × spec (default 4)",
    )
    convert_p.add_argument(
        "--spec", choices=["manual", "sherlock", "both"],
        default="manual",
        help="happens-before vocabulary (default manual)",
    )
    convert_p.add_argument(
        "--policy", default="random", type=_policy_spec,
        help="schedule policy of the observed baseline run "
        "(default random)",
    )
    convert_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the conversion report as JSON",
    )
    convert_p.add_argument(
        "--require-planted", action="store_true",
        help="exit non-zero when a planted (ground-truth racy) target "
        "fails to convert",
    )
    return parser


def _print_stats(report, runtime: ExecutionRuntime) -> None:
    print("-- stats " + "-" * 31)
    print(report.metrics.describe())
    print(f"engine: {runtime.engine!r}")
    if runtime.cache is not None:
        print(f"trace cache: {runtime.cache!r}")


def _cmd_infer(args, runtime: ExecutionRuntime) -> int:
    app = get_application(args.app_id)
    config = SherlockConfig(rounds=args.rounds, seed=args.seed)
    report = run(app, config, engine=runtime)
    gt = app.ground_truth
    print(report.describe())
    for sync in sorted(report.final.syncs, key=lambda s: s.display()):
        marker = "+" if gt.is_true_sync(sync) else "?"
        print(f"  [{marker}] {sync.display()}")
    correct = sum(1 for s in report.final.syncs if gt.is_true_sync(s))
    print(
        f"{correct} true / {len(report.final.syncs)} inferred; "
        f"{len(set(gt.syncs) - report.final.syncs)} missed"
    )
    if args.stats:
        _print_stats(report, runtime)
    return 0


def _cmd_races(args, runtime: ExecutionRuntime) -> int:
    app = get_application(args.app_id)
    config = SherlockConfig(rounds=args.rounds, seed=args.seed)
    report = run(app, config, engine=runtime)
    manual = detect_races(app, manual_spec(app), seed=args.seed)
    inferred = detect_races(app, sherlock_spec(report.final), seed=args.seed)
    print(f"{'detector':12s} {'true':>5s} {'false':>6s}")
    for result in (manual, inferred):
        print(
            f"{result.spec_name:12s} {result.true_races:5d} "
            f"{result.false_races:6d}"
        )
    if args.stats:
        _print_stats(report, runtime)
    return 0


def _cmd_fuzz(args, runtime: ExecutionRuntime) -> int:
    from .fuzz import CampaignConfig, run_campaign

    apps = args.fuzz_apps or args.apps or app_ids()
    config = CampaignConfig(
        app_ids=list(apps),
        schedules=args.schedules,
        base_seed=args.seed,
        rounds=args.rounds,
        policy=args.policy,
        engine=args.engine,
        replay_every=args.replay_every,
        oracles=not args.no_oracles,
    )
    report = run_campaign(config, runtime=runtime)
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(report.to_dict(), fp, indent=2)
    print(report.summary())
    print(f"campaign report written to {args.out}")
    if args.convert:
        _convert_followup(
            args, runtime, apps, targets=report.schedule_targets()
        )
    return report.exit_code(strict=args.strict)


def _convert_followup(args, runtime, apps, targets=None, specs=("manual",)):
    """Directed schedule-search pass after a fuzz/predict command."""
    from .predict.convert import ConvertConfig, run_conversion

    config = ConvertConfig(
        app_ids=list(apps),
        base_seed=args.seed,
        rounds=args.rounds,
        specs=tuple(specs),
        engine=args.engine,
        targets=targets or None,
    )
    report = run_conversion(config, runtime=runtime)
    print(report.table().render())
    print(report.summary())
    return report


def _cmd_predict(args, runtime: ExecutionRuntime) -> int:
    from .predict import PowerConfig, run_power_sweep

    apps = args.predict_apps or args.apps or app_ids()
    specs = (
        ("manual", "sherlock") if args.spec == "both" else (args.spec,)
    )
    config = PowerConfig(
        app_ids=list(apps),
        schedules=args.schedules,
        base_seed=args.seed,
        rounds=args.rounds,
        policy=args.policy,
        specs=specs,
        engine=args.engine,
    )
    report = run_power_sweep(config, runtime=runtime)
    print(report.table().render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(report.to_dict(), fp, indent=2)
        print(f"power sweep written to {args.out}")
    if args.convert:
        _convert_followup(args, runtime, apps, specs=specs)
    if not report.all_supersets_ok or report.total_invalid_witnesses:
        return 1
    return 0


def _cmd_convert(args, runtime: ExecutionRuntime) -> int:
    from .predict.convert import ConvertConfig, run_conversion

    apps = args.convert_apps or args.apps or app_ids()
    specs = (
        ("manual", "sherlock") if args.spec == "both" else (args.spec,)
    )
    config = ConvertConfig(
        app_ids=list(apps),
        schedules=args.schedules,
        base_seed=args.seed,
        rounds=args.rounds,
        policy=args.policy,
        specs=specs,
        engine=args.engine,
    )
    report = run_conversion(config, runtime=runtime)
    print(report.table().render())
    print(report.summary())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(report.to_dict(), fp, indent=2)
        print(f"conversion report written to {args.out}")
    if args.stats:
        print("-- stats " + "-" * 31)
        print(report.metrics.describe())
    return report.exit_code(require_planted=args.require_planted)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if isinstance(args.apps, str):
        args.apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    if args.command == "apps":
        for app in all_applications():
            print(
                f"{app.app_id}: {app.name} "
                f"({len(app.tests)} tests, "
                f"{len(app.ground_truth.syncs)} true syncs)"
            )
        for app_id in family_app_ids():
            app = get_application(app_id)
            print(
                f"{app.app_id}: {app.name} "
                f"({len(app.tests)} tests, "
                f"{len(app.ground_truth.syncs)} true syncs) "
                f"[family tier]"
            )
        return 0
    with ExecutionRuntime(
        engine=args.engine, cache=coerce_cache(args.cache)
    ) as runtime:
        # Experiment regenerators pick this runtime up via run_all().
        common.set_default_runtime(runtime)
        try:
            return _dispatch(args, runtime)
        finally:
            common.set_default_runtime(None)


def _dispatch(args, runtime: ExecutionRuntime) -> int:
    if args.command == "infer":
        return _cmd_infer(args, runtime)
    if args.command == "races":
        return _cmd_races(args, runtime)
    if args.command == "fuzz":
        return _cmd_fuzz(args, runtime)
    if args.command == "predict":
        return _cmd_predict(args, runtime)
    if args.command == "convert":
        return _cmd_convert(args, runtime)
    if args.command == "table":
        print(_TABLES[args.name](args.apps).render())
        if args.stats and runtime.cache is not None:
            print(f"trace cache: {runtime.cache!r}")
        return 0
    if args.command == "report":
        from .analysis.report_writer import write_report

        with open(args.path, "w") as fp:
            sections = write_report(fp, args.apps)
        print(f"wrote {len(sections)} sections to {args.path}")
        return 0
    if args.command == "all":
        for name, runner in _TABLES.items():
            print(runner(args.apps).render())
            print()
        if args.stats and runtime.cache is not None:
            print(f"trace cache: {runtime.cache!r}")
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
