"""Command-line front end.

    coxdesc group <SPEC>
    coxdesc table <SPEC> --what ajkk|ajkk-naive|structure --format json|csv|text
    coxdesc spectrum <SPEC> [--weights FILE | --preset uniform|qmaj:Q|desx:X1,..,Xn]
    coxdesc verify <SPEC> [--weights ...] [--primes P1,P2,..] [--seed N] [--certify]
    coxdesc counterexample

SPEC is a type name (A1-A6, B2-B4, D4, H3, F4, I2(m)) or @path/to/matrix.json.
Groups are cached under $COXDESC_CACHE (default .coxdesc-cache).  All output
is deterministic given (spec, weights, seed).

Exit codes: 0 success/verified, 1 verification mismatch, 2 usage error,
3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from .coxeter import CoxeterSpec, ParabolicAtlas, build_group
from .descent import (
    DescentElement,
    StructureConstants,
    ajkk_matrix,
    ajkk_matrix_bruteforce,
    solve_class_vector,
    solve_lower_triangular,
    spectrum,
)
from .errors import GroupTooLargeError
from .exact import rational_to_string
from .modular import DEFAULT_PRIMES
from .oracle import verify_spectrum
from .subsets import iter_subsets, subset_name
from . import weights as weights_mod

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

#: The H3 matrix printed for the older formula in the published reference
#: tables.  Its bottom row was filled in by hand there (the formula itself
#: yields 3 at (S, {s1}), see cmd_counterexample), so it is kept as a frozen
#: constant for the side-by-side demo.
PUBLISHED_NAIVE_H3 = (
    (120, 0, 0, 0, 0, 0),
    (60, 4, 0, 0, 0, 0),
    (12, 8, 2, 0, 0, 0),
    (20, 8, 0, 2, 0, 0),
    (30, 4, 0, 0, 2, 0),
    (1, 1, 1, 1, 1, 1),
)
PUBLISHED_NAIVE_H3_LABELS = ("{}", "s1", "s1,s2", "s2,s3", "s1,s3", "s1,s2,s3")


def _parse_spec(text: str) -> CoxeterSpec:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return CoxeterSpec.from_json(json.load(fh))
    return CoxeterSpec.from_name(text)


def _load_group(args):
    spec = _parse_spec(args.spec)
    return build_group(spec, use_cache=not args.no_cache, cache_dir=args.cache_dir)


def _mask_label(mask: int) -> str:
    return subset_name(mask) or "{}"


def _emit(text: str):
    if not text.endswith("\n"):
        text += "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`| head`): drop the rest, it is not an error
        sys.stdout = open(os.devnull, "w")


def _render_table(labels, rows, fmt: str, title: str) -> str:
    """Square integer table with row/column labels."""
    if fmt == "json":
        cells = {rl: {cl: rows[i][j] for j, cl in enumerate(labels)}
                 for i, rl in enumerate(labels)}
        return json.dumps({"title": title, "labels": list(labels), "cells": cells},
                          indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([title] + list(labels))
        for lab, row in zip(labels, rows):
            w.writerow([lab] + [str(v) for v in row])
        return buf.getvalue()
    width = max(len(str(v)) for row in rows for v in row)
    width = max(width, max(len(l) for l in labels))
    head = " " * (width + 2) + " ".join(f"{l:>{width}}" for l in labels)
    lines = [title, head]
    for lab, row in zip(labels, rows):
        lines.append(f"{lab:>{width}}| " + " ".join(f"{v:>{width}}" for v in row))
    return "\n".join(lines) + "\n"


def cmd_group(args) -> int:
    group = _load_group(args)
    atlas = ParabolicAtlas(group)
    counts = atlas.closure_class_counts()
    classes = []
    for idx, (rep, members) in enumerate(atlas.classes):
        classes.append({
            "rep": subset_name(rep),
            "members": [subset_name(m) for m in members],
            "parabolic_order": len(group.subgroup(rep)),
            "normalizer_complement": len(atlas.normalizer_complement(rep)),
            "elements": counts[idx],
        })
    data = {
        "group": group.spec.label(),
        "order": group.order,
        "rank": group.rank,
        "roots": group.num_roots,
        "p": atlas.p,
        "classes": classes,
    }
    if args.format == "json":
        _emit(json.dumps(data, indent=2))
        return EXIT_OK
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["rep", "members", "parabolic_order", "normalizer_complement",
                    "elements"])
        for c in classes:
            w.writerow([c["rep"], ";".join(c["members"]), c["parabolic_order"],
                        c["normalizer_complement"], c["elements"]])
        _emit(buf.getvalue())
        return EXIT_OK
    lines = [
        f"group {data['group']}: order {data['order']}, rank {data['rank']}, "
        f"{data['roots']} roots, p = {data['p']} parabolic classes",
        "",
        f"{'class rep':>12} {'members':>24} {'|W_K|':>6} {'|N_K|':>6} {'elements':>9}",
    ]
    for c in classes:
        lines.append(f"{c['rep'] or '{}':>12} "
                     f"{';'.join(m or '{}' for m in c['members']):>24} "
                     f"{c['parabolic_order']:>6} {c['normalizer_complement']:>6} "
                     f"{c['elements']:>9}")
    _emit("\n".join(lines))
    return EXIT_OK


def cmd_table(args) -> int:
    group = _load_group(args)
    atlas = ParabolicAtlas(group)
    if args.what in ("ajkk", "ajkk-naive"):
        labels = [_mask_label(r) for r in atlas.class_reps]
        if args.what == "ajkk":
            rows = ajkk_matrix_bruteforce(atlas, StructureConstants(group))
            title = "a_JKK"
        else:
            rows = ajkk_matrix(atlas, "bbht_naive")
            title = "a_JKK[bbht_naive]"
        _emit(_render_table(labels, rows, args.format, title))
        return EXIT_OK
    # full structure-constant table
    sc = StructureConstants(group)
    triples = []
    for j in iter_subsets(group.rank):
        for k in iter_subsets(group.rank):
            for l_mask, val in sorted(sc.table(j, k).items()):
                triples.append((subset_name(j), subset_name(k),
                                subset_name(l_mask), val))
    if args.format == "json":
        nested: dict = {}
        for jn, kn, ln, val in triples:
            nested.setdefault(jn, {}).setdefault(kn, {})[ln] = val
        _emit(json.dumps({"group": group.spec.label(), "a": nested}, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["J", "K", "L", "a_JKL"])
        for row in triples:
            w.writerow(row)
        _emit(buf.getvalue())
    else:
        lines = [f"nonzero a_JKL for {group.spec.label()}"]
        for jn, kn, ln, val in triples:
            lines.append(f"  a[{jn or '{}'}][{kn or '{}'}][{ln or '{}'}] = {val}")
        _emit("\n".join(lines))
    return EXIT_OK


def _resolve_weights(args, spec: CoxeterSpec, default_seed=None) -> DescentElement:
    if getattr(args, "weights", None):
        return weights_mod.load_weight_file(args.weights, spec.rank)
    if getattr(args, "preset", None):
        return weights_mod.parse_preset(args.preset, spec)
    if default_seed is not None:
        return weights_mod.random_weights(spec.rank, default_seed)
    return weights_mod.preset_uniform(spec.rank)


def cmd_spectrum(args) -> int:
    group = _load_group(args)
    d = _resolve_weights(args, group.spec)
    atlas = ParabolicAtlas(group)
    rep = spectrum(d, atlas)
    if args.format == "json":
        _emit(json.dumps(rep.to_json_dict(), indent=2))
        return EXIT_OK
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["class_rep", "delta", "multiplicity", "delta_symbolic"])
        for j in range(rep.p):
            sym = " + ".join(
                f"{c}*l[{subset_name(m)}]"
                for m, c in sorted(rep.expanded_delta(j).items()))
            w.writerow([subset_name(rep.class_reps[j]),
                        rational_to_string(rep.delta_values[j]),
                        rep.multiplicities[j], sym])
        _emit(buf.getvalue())
        return EXIT_OK
    lines = [f"spectrum of R_W(d) for {rep.group_label} (|W| = {rep.order}):"]
    for j in range(rep.p):
        sym = " + ".join(f"{c}*l[{subset_name(m) or ''}]"
                         for m, c in sorted(rep.expanded_delta(j).items()))
        lines.append(
            f"  Delta_{j + 1} [{_mask_label(rep.class_reps[j])}] = {sym}"
            f" = {rational_to_string(rep.delta_values[j])}"
            f"   (multiplicity {rep.multiplicities[j]})")
    lines.append(f"sum of multiplicities = {sum(rep.multiplicities)}")
    _emit("\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    group = _load_group(args)
    d = _resolve_weights(args, group.spec, default_seed=args.seed)
    primes = DEFAULT_PRIMES
    if args.primes:
        primes = [int(p) for p in args.primes.split(",")]
    t0 = time.time()
    verdict = verify_spectrum(group, d, primes=primes, certify=args.certify)
    dt = time.time() - t0
    data = verdict.to_json_dict()
    data["seconds"] = round(dt, 3)
    if args.format == "json":
        _emit(json.dumps(data, indent=2))
    else:
        lines = [
            f"verify {verdict.group_label}: degree {verdict.order}, "
            f"{len(verdict.primes)} prime(s), {dt:.2f}s",
        ]
        for p, ok in zip(verdict.primes, verdict.matched):
            lines.append(f"  prime {p}: {'match' if ok else 'MISMATCH'}")
        for p in verdict.skipped:
            lines.append(f"  prime {p}: skipped (divides weight denominator)")
        lines.append(f"certified: {verdict.certified}")
        lines.append("verdict: " + ("VERIFIED" if verdict.all_matched else "MISMATCH"))
        _emit("\n".join(lines))
    return EXIT_OK if verdict.all_matched else EXIT_MISMATCH


def cmd_counterexample(args) -> int:
    spec = CoxeterSpec.from_name("H3")
    group = build_group(spec, use_cache=not args.no_cache, cache_dir=args.cache_dir)
    atlas = ParabolicAtlas(group)
    labels = [_mask_label(r) for r in atlas.class_reps]
    naive = ajkk_matrix(atlas, "bbht_naive")
    corrected = ajkk_matrix(atlas, "corrected")
    v_naive = solve_class_vector(atlas, naive)
    v_corr = solve_class_vector(atlas, corrected)
    # the printed table from the older formula, in its own label order
    pub_rows = [list(r) for r in PUBLISHED_NAIVE_H3]
    v_pub = solve_lower_triangular(pub_rows, 120)
    table_fmt = "text" if args.format == "json" else args.format
    out = []
    out.append(_render_table(labels, naive, table_fmt,
                             "a_JKK by the uncorrected formula"))
    out.append("A^-1 u = (" + ", ".join(rational_to_string(v) for v in v_naive)
               + f")   [sum {rational_to_string(sum(v_naive))}]")
    out.append("negative entries: the uncorrected formula cannot give class data")
    out.append("")
    out.append("as printed (bottom row filled by hand in the reference table):")
    out.append(_render_table(list(PUBLISHED_NAIVE_H3_LABELS), pub_rows, table_fmt,
                             "published uncorrected table"))
    out.append("A^-1 u = (" + ", ".join(rational_to_string(v) for v in v_pub)
               + f")   [sum {rational_to_string(sum(v_pub))}]")
    out.append("")
    out.append(_render_table(labels, corrected, table_fmt,
                             "a_JKK by the corrected formula"))
    out.append("A^-1 u = (" + ", ".join(rational_to_string(v) for v in v_corr)
               + f")   [sum {rational_to_string(sum(v_corr))}]")
    out.append("the corrected values are the per-class element counts of H3")
    if args.format == "json":
        _emit(json.dumps({
            "labels": labels,
            "naive": naive,
            "naive_solution": [rational_to_string(v) for v in v_naive],
            "published_naive": [list(r) for r in PUBLISHED_NAIVE_H3],
            "published_labels": list(PUBLISHED_NAIVE_H3_LABELS),
            "published_solution": [rational_to_string(v) for v in v_pub],
            "corrected": corrected,
            "corrected_solution": [rational_to_string(v) for v in v_corr],
            "sums": [rational_to_string(sum(v_naive)),
                     rational_to_string(sum(v_pub)),
                     rational_to_string(sum(v_corr))],
        }, indent=2))
    else:
        _emit("\n".join(out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxdesc",
        description="Exact descent-algebra computations for finite Coxeter groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--cache-dir", default=None,
                       help="group cache directory (default $COXDESC_CACHE or .coxdesc-cache)")
        p.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("group", help="order, classes, normalizer data")
    p.add_argument("spec")
    add_common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("table", help="structure-constant tables")
    p.add_argument("spec")
    p.add_argument("--what", choices=("ajkk", "ajkk-naive", "structure"),
                   default="ajkk")
    add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("spectrum", help="eigenvalues and multiplicities")
    p.add_argument("spec")
    p.add_argument("--weights", help="JSON weight file")
    p.add_argument("--preset", help="uniform | qmaj:Q | desx:X1,..,Xn")
    add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="charpoly oracle for the spectrum")
    p.add_argument("spec")
    p.add_argument("--weights", help="JSON weight file")
    p.add_argument("--preset", help="uniform | qmaj:Q | desx:X1,..,Xn")
    p.add_argument("--primes", help="comma-separated prime moduli")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for random weights when none are given")
    p.add_argument("--certify", action="store_true",
                   help="use enough primes to cover the Hadamard bound")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("counterexample",
                       help="H3 side-by-side: uncorrected vs corrected formula")
    add_common(p)
    p.set_defaults(func=cmd_counterexample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GroupTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
