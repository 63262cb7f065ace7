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
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .data import bona_fide_responses, load_csv, save_csv
from .errors import AuditError, ParameterError
from .report import (
    AuditConfig,
    _dip_tests,
    _operating_points,
    _separability,
    render_json,
    run_audit,
)
from .plots import render_plots
from .stats import (
    ContingencyTable2x2,
    MwuMode,
    chi_squared_one_sided,
    mann_whitney_u,
    shapiro_wilk,
)
from .svm import CodeMatrix, FeatureMode, load_codes_csv, save_codes_csv
from .synth import demo_dataset, gen_code_vectors


def _parse_quantiles(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(q) for q in text.split(","))
    except ValueError:
        raise ParameterError(f"bad quantile list: {text!r}") from None


def _parse_gamma(text: str) -> float | None:
    if text.lower() == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise ParameterError(f"gamma must be a number or 'auto', got {text!r}") from None


def _parse_enum(enum_cls, what: str):
    """An argparse type: the member of ``enum_cls`` whose value is the text.
    It raises ParameterError, not ValueError, so a bad value exits 1."""

    def parse(text: str):
        for member in enum_cls:
            if member.value == text:
                return member
        choices = ", ".join(m.value for m in enum_cls)
        raise ParameterError(f"unknown {what} {text!r} (choose from: {choices})")

    return parse


_DEFAULT = AuditConfig()


def _add_audit_options(p: argparse.ArgumentParser) -> None:
    """The AuditConfig flags. Each defaults to SUPPRESS: a flag not given is
    absent from the namespace, so _config_from_args can tell it from a given
    one, also one that parses to None (``--svm-gamma auto``)."""
    p.add_argument("--alpha", type=float, default=argparse.SUPPRESS, help="significance level")
    p.add_argument(
        "--quantiles",
        type=_parse_quantiles,
        default=argparse.SUPPRESS,
        help="comma-separated bona fide rejection quantiles for anchor thresholds",
    )
    p.add_argument(
        "--dip-bins", type=int, default=argparse.SUPPRESS, help="histogram bins for the dip"
    )
    p.add_argument(
        "--dip-replicas",
        type=int,
        default=argparse.SUPPRESS,
        help="cap on the null replicas drawn for dip critical values",
    )
    _add_svm_options(p)


def _add_svm_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--codes-k", type=int, help="codebook size when the CSV has no #K line")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="master RNG seed")
    p.add_argument("--svm-c", type=float, default=argparse.SUPPRESS, help="SVM soft-margin C")
    p.add_argument(
        "--svm-gamma", type=_parse_gamma, default=argparse.SUPPRESS, help="RBF gamma, or 'auto'"
    )
    p.add_argument(
        "--svm-folds", type=int, default=argparse.SUPPRESS, help="cross-validation folds"
    )
    p.add_argument(
        "--feature-mode",
        type=_parse_enum(FeatureMode, "feature mode"),
        default=argparse.SUPPRESS,
        help="code featurization: scaled-indices or code-histogram",
    )


def _read_config_file(path: str) -> dict:
    """Parse key=value lines; '#' starts a comment. The keys are AuditConfig's
    field names (dashes read as underscores), each value converted with the
    type of its audit flag."""
    flags = argparse.ArgumentParser()
    _add_audit_options(flags)
    types = {a.dest: a.type for a in flags._actions}
    keys = {f.name for f in fields(AuditConfig)}
    out = {}
    for ln, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in keys:
            raise ParameterError(f"{path}:{ln}: unknown config key {key!r}")
        try:
            out[key] = types[key](value)
        except (ValueError, ParameterError) as exc:
            why = exc if isinstance(exc, ParameterError) else repr(value)
            raise ParameterError(f"{path}:{ln}: bad value for {key}: {why}") from None
    return out


def _config_from_args(args: argparse.Namespace) -> AuditConfig:
    """Each AuditConfig field from its flag if given, else from the --config
    file, else the field's default."""
    values = _read_config_file(args.config) if args.config else {}
    values.update((f.name, getattr(args, f.name)) for f in fields(AuditConfig) if f.name in args)
    return AuditConfig(**values)


def _cmd_audit(args) -> int:
    cfg = _config_from_args(args)
    ds = load_csv(args.data)
    codes = load_codes_csv(args.codes, k=args.codes_k) if args.codes else None
    report = run_audit(ds, cfg, codes)

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
    for t, p in zip(curve.grid.tolist(), curve.p_values.tolist()):
        print(f"{t!r},{p!r}")
    print(f"# {len(regions)} significant region(s) at alpha={args.alpha:g}", file=sys.stderr)
    for r in regions:
        print(
            f"#   [{r.lo!r}, {r.hi!r}] min_p={r.min_p:.3g} worse={r.worse_group}",
            file=sys.stderr,
        )
    return 0


def _cmd_chi2(args) -> int:
    res = chi_squared_one_sided(
        ContingencyTable2x2(
            args.accepted_a, args.rejected_a, args.accepted_b, args.rejected_b
        )
    )
    print(f"statistic {res.statistic!r}")
    print(f"p_value {res.p_value!r}")
    print(f"direction {res.direction or 'tie'}")
    return 0


def _cmd_mwu(args) -> int:
    ds = load_csv(args.data)
    a = bona_fide_responses(ds, args.group_a)
    b = bona_fide_responses(ds, args.group_b)
    res = mann_whitney_u(a, b, args.mode)
    named = {"a": args.group_a, "b": args.group_b}
    print(f"U {res.statistic!r}")
    print(f"p_value {res.p_value!r}")
    print(f"direction {named.get(res.direction, 'tie')}")
    return 0


def _cmd_dip(args) -> int:
    ds = load_csv(args.data)
    vals = bona_fide_responses(ds, args.group)
    bins = None if args.bins == 0 else args.bins
    # the audit draws one null for all groups of a size, until every one of
    # their dips is settled; so the same groups decide here when it stops
    peers = {args.group: vals}
    for g in ds.groups():
        other = bona_fide_responses(ds, g)
        if g != args.group and len(other) == len(vals):
            peers[g] = other
    res = _dip_tests(peers, args.alpha, args.replicas, args.seed, bins)[args.group]
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
    codes = None
    if not args.no_codes:
        group_list = ds.groups()
        # chain pairs (alpha,beta), (delta,gamma) share one generator call each
        parts = [
            gen_code_vectors(
                args.n_per_group,
                d=args.codes_d,
                k=args.codes_k,
                separability=args.codes_separability,
                seed=args.seed + 500 + idx,
                groups=(group_list[idx], group_list[idx + 1]),
            )
            for idx in range(0, len(group_list) - 1, 2)
        ]
        labels = [g for p in parts for g in p.labels()]
        # each code row takes the id of its group's next bona fide response
        ids = np.array(ds.sample_ids)
        bona_ids = {
            g: iter(ids[ds.bona_fide & (ds.group_codes == c)].tolist())
            for c, g in enumerate(group_list)
        }
        codes = CodeMatrix(
            np.vstack([p.codes for p in parts]),
            labels,
            args.codes_k,
            [next(bona_ids[g]) for g in labels],
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "responses.csv"
    save_csv(ds, data_path)
    print(f"wrote {data_path} ({len(ds)} rows, groups: {', '.join(ds.groups())})")
    if codes is not None:
        codes_path = out / "codes.csv"
        save_codes_csv(codes, codes_path)
        print(f"wrote {codes_path} ({len(codes)} vectors, K={args.codes_k})")
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
    p.add_argument("--alpha", type=float, default=_DEFAULT.alpha)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("chi2", help="one-sided rate test on explicit 2x2 counts")
    p.add_argument("--accepted-a", type=int, required=True)
    p.add_argument("--rejected-a", type=int, required=True)
    p.add_argument("--accepted-b", type=int, required=True)
    p.add_argument("--rejected-b", type=int, required=True)
    p.set_defaults(func=_cmd_chi2)

    p = sub.add_parser("mwu", help="Mann-Whitney U between two groups' bona fide responses")
    p.add_argument("--data", required=True)
    p.add_argument("--group-a", required=True)
    p.add_argument("--group-b", required=True)
    p.add_argument("--mode", type=_parse_enum(MwuMode, "mode"), default=MwuMode.AUTO,
                   help="auto, exact, or normal-approx")
    p.set_defaults(func=_cmd_mwu)

    p = sub.add_parser("dip", help="dip unimodality test for one group")
    p.add_argument("--data", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--bins", type=int, default=_DEFAULT.dip_bins, help="0 disables binning")
    p.add_argument("--alpha", type=float, default=_DEFAULT.alpha)
    p.add_argument(
        "--replicas",
        type=int,
        default=_DEFAULT.dip_replicas,
        help="cap on the null replicas drawn; drawing stops once the verdict is settled",
    )
    p.add_argument("--seed", type=int, default=_DEFAULT.seed)
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
    p.add_argument("--n-per-group", type=int, default=200)
    p.add_argument("--seed", type=int, default=_DEFAULT.seed)
    p.add_argument("--no-attacks", action="store_true")
    p.add_argument("--no-codes", action="store_true")
    p.add_argument("--codes-d", type=int, default=16)
    p.add_argument("--codes-k", type=int, default=64)
    p.add_argument("--codes-separability", type=float, default=0.3)
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
