"""Command line interface: score, agree, consistency.

Exit codes: 0 success, 2 usage or input validation problem, 1 internal
error. Human-readable tables go to stdout; --output writes the machine
report in the chosen --format.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from ._version import __version__
from .dataset_io import FORMATS, _table, load_gold, load_run, render_report, write_report
from .errors import TooFewMeasures, ValidationError
from .measures import ALL_MEASURES, DEFAULT_SUITE, MeasureId
from .meta_eval import agreement, check_consistency_args, mean_scores, parse_subset_mode
from .meta_eval import score_matrix, split_half_consistency

_VALID_TAGS = ", ".join(m.value for m in ALL_MEASURES)


def _parse_measures(text: str | None, include_rsnod: bool) -> list[MeasureId]:
    if text is None:
        measures = list(DEFAULT_SUITE)
    else:
        measures = []
        for tag in text.split(","):
            tag = tag.strip()
            if not tag:
                continue
            try:
                measure = MeasureId(tag)
            except ValueError:
                raise ValidationError(
                    f"unknown measure {tag!r}; valid measures: {_VALID_TAGS}"
                ) from None
            if measure in measures:
                print(f"warning: duplicate measure {tag} ignored", file=sys.stderr)
                continue
            measures.append(measure)
        if not measures:
            raise ValidationError("no measures given")
    if include_rsnod and MeasureId.RSNOD not in measures:
        measures.append(MeasureId.RSNOD)
    return measures


def _expand_runs(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.glob("*.tsv"))
            if not found:
                raise ValidationError(f"no .tsv files in directory {path}")
            files.extend(found)
        elif path.is_file():
            files.append(path)
        else:
            raise ValidationError(f"run path not found: {path}")
    seen = set()
    for f in files:
        if f.stem in seen:
            raise ValidationError(f"duplicate system id {f.stem!r} among run files")
        seen.add(f.stem)
    return files


def _load_inputs(args, min_measures: int = 1):
    measures = _parse_measures(args.measures, args.include_rsnod)
    if len(measures) < min_measures:
        raise TooFewMeasures(f"need at least {min_measures} measures, got {len(measures)}")
    dataset = load_gold(args.gold)
    runs = [load_run(path, dataset) for path in _expand_runs(args.runs)]
    return dataset, runs, measures


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("QUANTDIV_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"QUANTDIV_SEED is not an integer: {env!r}") from None
    return 42


def _emit(report, args) -> None:
    sys.stdout.write(render_report(report, "markdown"))
    if args.output is not None:
        path = write_report(report, args.format, args.output)
        print(f"wrote {path}", file=sys.stderr)


def _with_measure_tag(path: Path, tag: str) -> Path:
    return path.with_name(f"{path.stem}.{tag}{path.suffix}")


def cmd_score(args) -> int:
    dataset, runs, measures = _load_inputs(args)
    matrices = []
    for measure in measures:
        matrices.append(score_matrix(dataset, runs, measure, scored=matrices))
    for matrix in matrices:
        sys.stdout.write(render_report(matrix, "markdown"))
        sys.stdout.write("\n")
    means = [mean_scores(matrix) for matrix in matrices]
    rows = ([run.system_id, *(f"{col[s]:.6f}" for col in means)] for s, run in enumerate(runs))
    sys.stdout.write(_table("markdown", ["system", *(m.value for m in measures)], rows))
    if args.output is not None:
        out = Path(args.output)
        for measure, matrix in zip(measures, matrices):
            path = out if len(measures) == 1 else _with_measure_tag(out, measure.value)
            write_report(matrix, args.format, path)
            print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_agree(args) -> int:
    dataset, runs, measures = _load_inputs(args, min_measures=2)
    report = agreement(dataset, runs, measures)
    _emit(report, args)
    return 0


def cmd_consistency(args) -> int:
    mode = parse_subset_mode(args.subset_mode)
    trial_args = dict(
        B=args.B,
        seed=_resolve_seed(args.seed),
        alpha=args.alpha,
        permutations=args.permutations,
        threads=args.threads,
        tau_variant="plain" if args.tau == "plain" else "b",
    )
    check_consistency_args(**trial_args)
    dataset, runs, measures = _load_inputs(args)
    report = split_half_consistency(dataset, runs, measures, mode=mode, **trial_args)
    _emit(report, args)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gold", required=True, help="gold table (TSV)")
    sub.add_argument(
        "--runs",
        required=True,
        nargs="+",
        help="run tables: .tsv files and/or directories of .tsv files",
    )
    sub.add_argument(
        "--measures",
        default=None,
        help=f"comma-separated measure tags (default: standard suite; valid: {_VALID_TAGS})",
    )
    sub.add_argument(
        "--include-rsnod",
        action="store_true",
        help="add RSNOD to the measure list",
    )
    sub.add_argument("--format", choices=FORMATS, default="json", help="--output serialization")
    sub.add_argument("--output", default=None, help="write the machine report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantdiv",
        description="Score class-distribution estimates and compare the measures themselves.",
    )
    parser.add_argument("--version", action="version", version=f"quantdiv {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentDefaultsHelpFormatter

    score_p = subs.add_parser(
        "score", help="per-case scores and per-system means", formatter_class=fmt
    )
    _add_common(score_p)
    score_p.set_defaults(func=cmd_score)

    agree_p = subs.add_parser(
        "agree", help="pairwise rank agreement between measures", formatter_class=fmt
    )
    _add_common(agree_p)
    agree_p.set_defaults(func=cmd_agree)

    cons_p = subs.add_parser(
        "consistency", help="split-half consistency with significance", formatter_class=fmt
    )
    _add_common(cons_p)
    cons_p.add_argument("--B", type=int, default=1000, help="number of split trials")
    cons_p.add_argument(
        "--subset-mode", default="half", help="'half' or 'k=<int>' disjoint subset size"
    )
    cons_p.add_argument("--alpha", type=float, default=0.05, help="significance level")
    cons_p.add_argument("--permutations", type=int, default=5000, help="HSD permutation rounds")
    cons_p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed (default: QUANTDIV_SEED env var, else 42)",
    )
    cons_p.add_argument("--threads", type=int, default=1, help="worker threads")
    cons_p.add_argument(
        "--tau", choices=("taub", "plain"), default="taub", help="tau variant for trials"
    )
    cons_p.set_defaults(func=cmd_consistency)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
