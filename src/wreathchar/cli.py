"""Command-line surface: every operation, reproducible machine-readable output.

Exit codes: 0 ok, 2 usage/parse error, 3 cell budget exceeded, 4 group
validation failure, 141 (128 + SIGPIPE) when the reader closes stdout early,
as ``| head`` does.  Every report embeds the artifact version and the fully
resolved run configuration (including the seed), so identical configurations
reproduce byte-identical output at any worker count.

``_emit`` is the one writer of one-row reports: each handler names its
fields once, and ``_emit`` writes them as JSON with the configuration echo,
or as a CSV header and one row of ``wreath_chars._csv_text`` cells.  Only the
table, which has its own ``--out`` destination, is written by its handler.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from . import __version__
from .base_group import BUILTIN_NAMES, GroupValidationError, builtin, load, store
from .congruence import mash_canonical, sim_p_equivalent
from .partitions import MultiPartition
from .stats import (
    CSV_COLUMNS,
    DEFAULT_CONFIDENCE,
    asymptotic_check,
    certificate_census,
    concentration_check,
    exact_census,
    sampled_census,
)
from .weyl_d import dn_restricted_census
from .wreath_chars import (
    DEFAULT_CELL_BUDGET,
    CellBudgetExceeded,
    _csv_text,
    character_table,
    mn_character,
    perm_character,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VALIDATION = 4
EXIT_PIPE = 141  # 128 + SIGPIPE


class UsageError(ValueError):
    pass


def _parse_label(text: str) -> MultiPartition:
    try:
        data = json.loads(text)
        # a label must be a JSON list of lists of integers; Partition rejects
        # other parts too, but this names the whole label's expected shape
        if not isinstance(data, list) or not all(
            isinstance(comp, list) and all(type(part) is int for part in comp) for comp in data
        ):
            raise TypeError("expected a JSON list of lists of integers")
        return MultiPartition(data)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad multipartition label {text!r}: {exc}") from None


def _resolve_group(args):
    if getattr(args, "group_file", None):
        with open(args.group_file, "r", encoding="utf-8") as fh:
            return load(json.load(fh))
    name = getattr(args, "group", None)
    if not name:
        raise UsageError("need --group NAME or --group-file PATH")
    try:
        return builtin(name)
    except KeyError as exc:
        raise UsageError(str(exc)) from None


def _resolve_seed(args) -> int:
    # a given seed is passed on as it is: the census rejects one outside
    # [0, 2**64) (exit 2) rather than drawing another seed's samples
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
    return seed


def _config_echo(args, **extra) -> dict:
    # workers only schedules the computation, so it is excluded to keep
    # reports byte-identical at any worker count
    skip = {"func", "workers"}
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    cfg.update(extra)
    cfg["version"] = __version__
    return cfg


def _json_report(args, fields: dict, **extra) -> str:
    report = {**fields, "config": _config_echo(args, **extra)}
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(args, fields: dict, csv_columns=None, csv_values=None, **extra) -> int:
    """Write a one-row report to stdout: ``fields`` and the configuration
    echo (with ``extra``) as JSON, or with ``--format csv`` a header and one
    row, by default the field names and the ``_csv_text`` of each value."""
    if args.format == "csv":
        # only the one-row CSV reports load csv; the table CSV is written directly
        import csv

        if csv_columns is None:
            csv_columns, csv_values = fields, map(_csv_text, fields.values())
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(csv_columns)
        writer.writerow(csv_values)
    else:
        sys.stdout.write(_json_report(args, fields, **extra))
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_entry(args) -> int:
    group = _resolve_group(args)
    lam = _parse_label(args.lam)
    mu = _parse_label(args.mu)
    chi = mn_character(group, lam, mu)
    return _emit(args, {"chi": str(chi), "perm": str(perm_character(group, lam, mu))})


def _cmd_table(args) -> int:
    group = _resolve_group(args)
    table = character_table(group, args.n, cell_budget=args.budget, workers=args.workers)
    dest = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with dest as fh:
        if args.format == "csv":
            table.write_csv(fh)
        else:
            fh.write(_json_report(args, table.to_json_dict()))
    return EXIT_OK


def _cmd_mash(args) -> int:
    mu = _parse_label(args.mu)
    mashed = mash_canonical(mu, args.p)
    return _emit(args, {"canonical": mashed.canonical, "largest_part": mashed.largest_part})


def _cmd_equiv(args) -> int:
    mu = _parse_label(args.mu)
    nu = _parse_label(args.nu)
    return _emit(args, {"equivalent": sim_p_equivalent(mu, nu, args.p)})


def _census_out(args, report, **extra) -> int:
    return _emit(args, report.to_json_dict(), CSV_COLUMNS, report.csv_row(), **extra)


def _cmd_census(args) -> int:
    group = _resolve_group(args)
    report = exact_census(group, args.n, args.p, cell_budget=args.budget, workers=args.workers)
    return _census_out(args, report)


def _cmd_sample_census(args) -> int:
    group = _resolve_group(args)
    seed = _resolve_seed(args)
    report = sampled_census(
        group,
        args.n,
        args.p,
        samples=args.samples,
        seed=seed,
        workers=args.workers,
        confidence=args.confidence,
    )
    return _census_out(args, report, seed=seed)


def _cmd_cert_census(args) -> int:
    seed = _resolve_seed(args)
    report = certificate_census(
        args.k, args.n, args.p, samples=args.samples, seed=seed, workers=args.workers
    )
    return _census_out(args, report, seed=seed)


def _cmd_asym(args) -> int:
    return _emit(args, {"ratio": asymptotic_check(args.k, args.n)})


def _cmd_concentration(args) -> int:
    frac = concentration_check(args.k, args.n, args.delta)
    proportion = f"{frac.numerator}/{frac.denominator}"
    return _emit(args, {"proportion": proportion, "proportion_decimal": float(frac)})


def _cmd_dn_census(args) -> int:
    if args.mode == "exact":
        for flag, value in (("--seed", args.seed), ("--samples", args.samples)):
            if value is not None:
                raise UsageError(f"{flag} applies only to --mode sampled")
    seed = _resolve_seed(args) if args.mode == "sampled" else None
    report = dn_restricted_census(
        args.n,
        args.p,
        mode=args.mode,
        samples=args.samples,
        seed=seed,
        cell_budget=args.budget,
        confidence=args.confidence,
    )
    return _census_out(args, report, seed=seed)


def _cmd_group_validate(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    try:
        group = load(document)
    except GroupValidationError as exc:
        _emit(args, {"ok": False, "problems": exc.problems})
        return EXIT_VALIDATION
    return _emit(args, {"ok": True, "group": store(group)})


# ---------------------------------------------------------------------------
# parser


def _add_group_args(sub):
    sub.add_argument("--group", help=f"builtin group name, one of {', '.join(BUILTIN_NAMES)}")
    sub.add_argument("--group-file", help="path to a group JSON document")


def _add_common(sub, seed=False, samples=False, workers=False, budget=False):
    sub.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    if seed:
        sub.add_argument("--seed", type=int, help="seed in [0, 2**64); random (and echoed) if omitted")
    if samples:
        sub.add_argument("--samples", type=int, required=samples == "required", help="sample count")
    if workers:
        sub.add_argument("--workers", type=int, default=1, help="parallel worker count")
    if budget:
        sub.add_argument(
            "--budget", type=int, default=DEFAULT_CELL_BUDGET, help="max table cells"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathchar",
        description="Exact character values of G wr S_N and mod-p divisibility censuses.",
    )
    parser.add_argument("--version", action="version", version=f"wreathchar {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("entry", help="one character-table cell: chi and the permutation value")
    _add_group_args(sub)
    sub.add_argument("--lambda", dest="lam", required=True, help='irrep label, e.g. "[[1],[1]]"')
    sub.add_argument("--mu", required=True, help='class label, e.g. "[[1,1],[]]"')
    _add_common(sub)
    sub.set_defaults(func=_cmd_entry)

    sub = subs.add_parser("table", help="full character table of G wr S_n")
    _add_group_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--out", help="output path (stdout if omitted)")
    _add_common(sub, workers=True, budget=True)
    sub.set_defaults(func=_cmd_table)

    sub = subs.add_parser("mash", help="canonical mod-p form of a class label")
    sub.add_argument("--mu", required=True)
    sub.add_argument("--p", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(func=_cmd_mash)

    sub = subs.add_parser("equiv", help="are two class labels mod-p equivalent?")
    sub.add_argument("--mu", required=True)
    sub.add_argument("--nu", required=True)
    sub.add_argument("--p", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(func=_cmd_equiv)

    sub = subs.add_parser("census", help="exact divisibility census over the full table")
    _add_group_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    _add_common(sub, workers=True, budget=True)
    sub.set_defaults(func=_cmd_census)

    sub = subs.add_parser("sample-census", help="sampled census with a Wilson interval")
    _add_group_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--confidence", type=float, default=DEFAULT_CONFIDENCE)
    _add_common(sub, seed=True, samples="required", workers=True)
    sub.set_defaults(func=_cmd_sample_census)

    sub = subs.add_parser("cert-census", help="certificate-only census (no characters)")
    sub.add_argument("--k", type=int, required=True, help="number of base-group classes")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    _add_common(sub, seed=True, samples="required", workers=True)
    sub.set_defaults(func=_cmd_cert_census)

    sub = subs.add_parser("asym", help="ln p_k(n) over the Hardy-Ramanujan scale")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(func=_cmd_asym)

    sub = subs.add_parser("concentration", help="exact equal-size-window proportion")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--delta", required=True, help="window half-width, e.g. 0.3")
    _add_common(sub)
    sub.set_defaults(func=_cmd_concentration)

    sub = subs.add_parser("dn-census", help="type-D restricted sub-table census")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    sub.add_argument("--confidence", type=float, default=DEFAULT_CONFIDENCE)
    _add_common(sub, seed=True, samples=True, budget=True)
    sub.set_defaults(func=_cmd_dn_census)

    sub = subs.add_parser("group-validate", help="validate a group JSON document")
    sub.add_argument("--file", required=True)
    _add_common(sub)
    sub.set_defaults(func=_cmd_group_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # what is still buffered can never be written: send it to devnull so
        # that the interpreter's last flush of stdout does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except CellBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GroupValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
