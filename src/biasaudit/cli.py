"""Command-line interface.

Exit codes: 0 on success, 1 on any validation error (bad data, bad
parameters), 2 on I/O failures. ``audit`` and ``svm-sep`` take each
AuditConfig value from its flag if given, else from the ``key=value`` file
named by --config, else the AuditConfig default; --config with any other
subcommand is an error.
"""
from __future__ import annotations

import argparse
import sys
from enum import EnumMeta
from pathlib import Path

from . import __version__
from .data import (
    _lines,
    _utf8_text,
    bona_fide_responses,
    load_codes_csv,
    load_csv,
    save_codes_csv,
    save_csv,
)
from .errors import AuditError, ParameterError, RowError
from .report import (
    AuditConfig,
    _dip_tests,
    _name_sides,
    _operating_points,
    _pcurve_rows,
    _separability,
    _series_texts,
    render_json,
    run_audit,
)
from .plots import render_plots
from .stats import MwuMode, chi_squared_one_sided, mann_whitney_u, shapiro_wilk
from .svm import FeatureMode
from .synth import _demo_codes, demo_dataset


def _flag(what: str, convert, expected: str | None = None):
    """An argparse type for the flag ``what``: the text through ``convert``,
    an int, a float, an enum or a function. It turns a ValueError into a
    ParameterError, so a bad value exits 1, not 2, with a message that names
    the flag and what it expects: ``expected``, else the enum's values or the
    name of ``convert``."""
    if expected is None:
        expected = convert.__name__
        if isinstance(convert, EnumMeta):
            expected = f"one of {', '.join(m.value for m in convert)}"

    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise ParameterError(f"{what}: expected {expected}, got {text!r}") from None

    return parse


_DEFAULT = AuditConfig()

# Each AuditConfig field, in field order, to the type and help of its flag
# --field-name; the same type reads the field's value in a --config file.
_FLAGS = {
    "alpha": dict(type=_flag("--alpha", float), help="significance level"),
    "quantiles": dict(
        type=_flag(
            "--quantiles", lambda t: tuple(map(float, t.split(","))), "comma-separated floats"
        ),
        help="comma-separated bona fide rejection quantiles for anchor thresholds",
    ),
    "dip_replicas": dict(type=_flag("--dip-replicas", int), help="cap on the null replicas drawn for dip critical values"),
    "seed": dict(type=_flag("--seed", int), help="master RNG seed"),
    "svm_c": dict(type=_flag("--svm-c", float), help="SVM soft-margin C"),
    "svm_gamma": dict(
        type=_flag(
            "--svm-gamma", lambda t: None if t.lower() == "auto" else float(t), "float or 'auto'"
        ),
        help="RBF gamma, or 'auto'",
    ),
    "svm_folds": dict(type=_flag("--svm-folds", int), help="cross-validation folds"),
    "feature_mode": dict(
        type=_flag("--feature-mode", FeatureMode),
        help="code featurization: scaled-indices or code-histogram",
    ),
}
# svm-sep takes these flags; audit takes every flag
_SVM_FLAGS = ("seed", "svm_c", "svm_gamma", "svm_folds", "feature_mode")


def _add_flags(p: argparse.ArgumentParser, names) -> None:
    """The flags of ``names``. Each defaults to SUPPRESS: a flag not given
    is absent from the namespace, so _config_from_args can tell it from a
    given one, also one that parses to None (``--svm-gamma auto``)."""
    for name in names:
        p.add_argument(f"--{name.replace('_', '-')}", default=argparse.SUPPRESS, **_FLAGS[name])


def _add_audit_options(p: argparse.ArgumentParser) -> None:
    _add_flags(p, [name for name in _FLAGS if name not in _SVM_FLAGS])
    _add_svm_options(p)


def _add_svm_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--codes-k", type=_flag("--codes-k", int), help="codebook size when the CSV has no #K line")
    _add_flags(p, _SVM_FLAGS)


def _read_config_file(path: str) -> dict:
    """Parse key=value lines of UTF-8 text, a leading byte-order mark
    skipped and the lines numbered, as the CSVs are read; '#' starts a
    comment. The keys are AuditConfig's field names (dashes read as
    underscores), each value converted with the type of its flag in _FLAGS.
    A bad line raises RowError at its physical line."""
    out = {}
    for ln, raw in enumerate(_lines(_utf8_text(Path(path))), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise RowError(path, ln, f"expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _FLAGS:
            raise RowError(path, ln, f"unknown config key {key!r}")
        try:
            out[key] = _FLAGS[key]["type"](value)
        except ParameterError as exc:
            raise RowError(path, ln, f"bad value for {key}: {exc}") from None
    return out


def _config_from_args(args: argparse.Namespace) -> AuditConfig:
    """Each AuditConfig field from its flag if given, else from the --config
    file, else the field's default."""
    values = _read_config_file(args.config) if args.config else {}
    values.update((name, getattr(args, name)) for name in _FLAGS if name in args)
    return AuditConfig(**values)


def _cmd_audit(args) -> int:
    cfg = _config_from_args(args)
    # no name holds the inputs, so they are freed before the report renders
    report = run_audit(
        load_csv(args.data),
        cfg,
        load_codes_csv(args.codes, k=args.codes_k) if args.codes else None,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    report_path.write_bytes(render_json(report))
    paths = render_plots(report, out)

    print(f"groups: {', '.join(report.groups)}")
    print(f"records: {report.n_bona_fide} bona fide, {report.n_attack} attack")
    if report.eer is not None:
        print(
            f"pooled EER {report.eer.hter:.4f} at threshold {report.eer.threshold:.6g}"
        )
    for pa in report.pairs:
        n_sig = len(pa.regions)
        worst = float(pa.curve.p_values.min())
        print(
            f"pair {pa.pair.a} vs {pa.pair.b}: "
            f"{n_sig} significant region(s), min sweep p {worst:.3g}"
        )
    if report.svm_auc is not None:
        for key, auc in report.svm_auc.items():
            print(f"svm auc {key}: {auc:.4f}")
    print(f"wrote {report_path} and {len(paths)} plot/series files to {out}")
    return 0


def _cmd_sweep(args) -> int:
    from .data import GroupPair
    from .thresholds import bias_sweep, significant_regions

    ds = load_csv(args.data)
    # the curve's signs refer to the canonical pair, so read its groups in that order
    pair = GroupPair.of(args.group_a, args.group_b)
    a = bona_fide_responses(ds, pair.a)
    b = bona_fide_responses(ds, pair.b)
    curve = bias_sweep(a, b, alpha=args.alpha, pair=pair)
    regions = significant_regions(curve)
    # the rows of the audit's p-curve CSV of the pair, from the one writer
    print(_pcurve_rows(_series_texts([curve])[0]).decode())
    print(f"# {len(regions)} significant region(s) at alpha={args.alpha:g}", file=sys.stderr)
    for r in regions:
        print(
            f"#   [{r.lo!r}, {r.hi!r}] min_p={r.min_p:.3g} worse={r.worse_group}",
            file=sys.stderr,
        )
    return 0


def _cmd_chi2(args) -> int:
    res = chi_squared_one_sided(args.accepted_a, args.rejected_a, args.accepted_b, args.rejected_b)
    print(f"statistic {res.statistic!r}")
    print(f"p_value {res.p_value!r}")
    print(f"direction {res.direction or 'tie'}")
    return 0


def _cmd_mwu(args) -> int:
    ds = load_csv(args.data)
    a = bona_fide_responses(ds, args.group_a)
    b = bona_fide_responses(ds, args.group_b)
    res = _name_sides(mann_whitney_u(a, b, args.mode), args.group_a, args.group_b)
    print(f"U {res.statistic!r}")
    print(f"p_value {res.p_value!r}")
    print(f"direction {res.direction or 'tie'}")
    return 0


def _cmd_dip(args) -> int:
    ds = load_csv(args.data)
    vals = bona_fide_responses(ds, args.group)
    # the audit draws one null for all groups of a size, until every one of
    # their dips is settled; so the same groups decide here when it stops
    peers = {args.group: vals}
    for g in ds.groups():
        other = bona_fide_responses(ds, g)
        if g != args.group and len(other) == len(vals):
            peers[g] = other
    res = _dip_tests(peers, args.alpha, args.replicas, args.seed)[args.group]
    verdict = "unimodal" if res.unimodal else "NOT unimodal"
    print(f"dip {res.dip!r}")
    print(f"critical_value {res.critical_value!r} (n={res.n}, alpha={args.alpha:g})")
    print(f"critical_value_se {res.critical_value_se!r} (replicas={res.replicas})")
    print(f"verdict {verdict}")
    return 0


def _cmd_sw(args) -> int:
    ds = load_csv(args.data)
    vals = bona_fide_responses(ds, args.group)
    res = shapiro_wilk(vals)
    print(f"W {res.statistic!r}")
    print(f"p_value {res.p_value!r}")
    return 0


def _cmd_eer(args) -> int:
    ds = load_csv(args.data)
    point, per_group_hter = _operating_points(ds)
    print(
        f"pooled threshold={point.threshold!r} far={point.far!r} "
        f"frr={point.frr!r} hter={point.hter!r}"
    )
    for g in ds.groups():
        op = per_group_hter.get(g)
        if op is None:
            print(f"{g}: no attack rows, skipped")
        else:
            print(f"{g}: far={op.far!r} frr={op.frr!r} hter={op.hter!r}")
    return 0


def _cmd_svm_sep(args) -> int:
    cfg = _config_from_args(args)
    codes = load_codes_csv(args.codes, k=args.codes_k)
    groups = codes.groups()
    if len(groups) < 2:
        raise ParameterError(f"need at least two groups in {args.codes}")
    for key, auc in _separability(codes, groups, cfg).items():
        print(f"{key} auc {auc:.6f}")
    return 0


def _cmd_synth(args) -> int:
    # build everything before writing anything, so bad options leave no files
    ds = demo_dataset(
        n_per_group=args.n_per_group,
        seed=args.seed,
        with_attacks=not args.no_attacks,
    )
    codes = None if args.no_codes else _demo_codes(ds, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "responses.csv"
    save_csv(ds, data_path)
    print(f"wrote {data_path} ({len(ds)} rows, groups: {', '.join(ds.groups())})")
    if codes is not None:
        codes_path = out / "codes.csv"
        save_codes_csv(codes, codes_path)
        print(f"wrote {codes_path} ({len(codes)} vectors, K={codes.k})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biasaudit",
        description="Audit a threshold-based classifier's responses for "
        "demographic-group bias in bona fide errors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--config",
        help="key=value file of AuditConfig values for audit and svm-sep (flags override)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="full audit: report.json plus plots")
    p.add_argument("--data", required=True, help="response CSV")
    p.add_argument("--codes", help="optional latent-code CSV enabling the SVM section")
    p.add_argument("--out", required=True, help="output directory")
    _add_audit_options(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("sweep", help="p-value sweep for one group pair (CSV to stdout)")
    p.add_argument("--data", required=True)
    p.add_argument("--group-a", required=True)
    p.add_argument("--group-b", required=True)
    p.add_argument("--alpha", type=_flag("--alpha", float), default=_DEFAULT.alpha)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("chi2", help="one-sided rate test on explicit 2x2 counts")
    for name in ("accepted-a", "rejected-a", "accepted-b", "rejected-b"):
        p.add_argument(f"--{name}", type=_flag(f"--{name}", int), required=True)
    p.set_defaults(func=_cmd_chi2)

    p = sub.add_parser("mwu", help="Mann-Whitney U between two groups' bona fide responses")
    p.add_argument("--data", required=True)
    p.add_argument("--group-a", required=True)
    p.add_argument("--group-b", required=True)
    p.add_argument("--mode", type=_flag("--mode", MwuMode), default=MwuMode.AUTO,
                   help="auto, exact, or normal-approx")
    p.set_defaults(func=_cmd_mwu)

    p = sub.add_parser("dip", help="dip unimodality test for one group")
    p.add_argument("--data", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--alpha", type=_flag("--alpha", float), default=_DEFAULT.alpha)
    p.add_argument(
        "--replicas",
        type=_flag("--replicas", int),
        default=_DEFAULT.dip_replicas,
        help="cap on the null replicas drawn; drawing stops once the verdict is settled",
    )
    p.add_argument("--seed", type=_flag("--seed", int), default=_DEFAULT.seed)
    p.set_defaults(func=_cmd_dip)

    p = sub.add_parser("sw", help="Shapiro-Wilk normality test for one group")
    p.add_argument("--data", required=True)
    p.add_argument("--group", required=True)
    p.set_defaults(func=_cmd_sw)

    p = sub.add_parser("eer", help="pooled EER and per-group HTER at that threshold")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eer)

    p = sub.add_parser("svm-sep", help="cross-validated code separability AUC per pair")
    p.add_argument("--codes", required=True, help="latent-code CSV")
    _add_svm_options(p)
    p.set_defaults(func=_cmd_svm_sep)

    p = sub.add_parser("synth", help="write a seeded synthetic dataset (and codes)")
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-group", type=_flag("--n-per-group", int), default=200)
    p.add_argument("--seed", type=_flag("--seed", int), default=_DEFAULT.seed)
    p.add_argument("--no-attacks", action="store_true")
    p.add_argument("--no-codes", action="store_true")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config is not None and args.command not in ("audit", "svm-sep"):
            raise ParameterError(
                f"--config is read only by audit and svm-sep, not by {args.command}"
            )
        return args.func(args)
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
