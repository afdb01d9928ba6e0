"""Command-line surface.

Subcommands: validate | group | residue | chambers | appendix | roots.
Exit codes: 0 success, 1 mathematical violation, 2 usage or I/O error,
3 internal error (two routes disagreed, or a crash), 4 incomplete (no
violation, but work was skipped: `validate` passed over an element longer
than `--cap-group-bits` or with more galleries than `--cap-galleries`,
`group` cross-checked only the base gallery past `--cap-galleries`, or
`appendix` instances were unverifiable within `--radius`).
Human-readable output goes to stdout; `--report PATH` additionally writes
machine-readable VIOLATION records.
"""

from __future__ import annotations

import argparse
import sys
from math import inf

from . import appendix, blueprints, chambers, groupforge, parabolics
from .coxeter import Word
from .errors import CapExceeded, InternalConsistencyError, RgdError, Violated
from .galleries import min_gal
from .reports import Report
from .roots import depth, phi_w


def _load_blueprint(args) -> blueprints.Blueprint:
    if args.builtin and args.blueprint:
        raise RgdError("give either --builtin or --blueprint, not both")
    if args.builtin:
        return blueprints.builtin(args.builtin)
    if args.blueprint:
        return blueprints.ingest_path(args.blueprint)
    raise RgdError("a blueprint is required (--builtin NAME or --blueprint PATH)")


def _parse_word(text: str, rank: int) -> Word:
    if text in ("e", ""):
        return ()
    try:  # a word reads as the WORD of a `rel` line
        word = tuple(blueprints.natural("rel", x) - 1 for x in text.split("."))
    except ValueError as exc:
        raise RgdError(f"bad word {blueprints.cut(text)!r}; "
                       "expected dot-separated generators") from exc
    if any(not 0 <= x < rank for x in word):
        raise RgdError(f"generator out of range in {blueprints.cut(text)!r}")
    return word


def read_integer(option: str, text: str) -> int:
    """An integer option: digits after an optional '-', tested as a
    blueprint's number fields are (argparse's `int` also takes '+', '_',
    spaces and any Unicode digit)."""
    if not blueprints.is_digits(text[1:] if text[:1] == "-" else text):
        raise RgdError(f"{option}: bad number {blueprints.cut(text)!r}, expected at most "
                       f"{blueprints.MAX_DIGITS} ASCII digits after an optional '-'")
    return int(text)


def _emit(reports: list[Report], path: str | None) -> int:
    for rep in reports:
        print(rep.to_text())
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            for rep in reports:
                for line in rep.machine_lines():
                    fh.write(line + "\n")
    if not all(r.ok for r in reports):
        return 1
    return 4 if any(r.skipped for r in reports) else 0


def cmd_validate(bp: blueprints.Blueprint, args: argparse.Namespace) -> int:
    reports = [
        blueprints.validate_cb1(bp, args.radius, args.cap_galleries),
        blueprints.validate_cb2(bp),
        blueprints.validate_weyl(bp, args.radius, args.cap_galleries),
        groupforge.validate_cb3(bp, args.radius, args.cap_galleries, args.cap_group_bits),
    ]
    return _emit(reports, args.report_path)


def cmd_group(bp: blueprints.Blueprint, args: argparse.Namespace) -> int:
    cox = bp.cox
    word = _parse_word(args.word, cox.rank)
    # each letter still to come shortens the prefix by at most one, so
    # `bound` <= l(w): refuse once it passes the cap, before any normal form
    for done, length in enumerate(cox.prefix_lengths(word), start=1):
        bound = length - (len(word) - done)
        if bound > args.cap_group_bits:
            raise RgdError(f"l(w) >= {bound} exceeds group bit cap {args.cap_group_bits}")
    w = cox.normal_form(word)
    pres, rep = groupforge.build_Uw(bp, w, args.cap_galleries)
    try:  # build_Uw has already noted a cap overflow as partial coverage
        count = str(len(min_gal(cox, w, args.cap_galleries)))
    except CapExceeded:
        count = f"more than {args.cap_galleries}"
    print(f"word: {args.word}  base gallery: {pres.gallery.label()}")
    print(f"order: {pres.order}")
    print(f"consistent: {pres.consistent}")
    print(f"cross-gallery: {'PASS' if rep.ok else 'FAIL'} ({count} galleries)")
    if pres.consistent:
        series = groupforge.lower_central_series(pres)
        print(f"nilpotency class: {len(series) - 1}")
        print(f"lower central series dims: {[len(term) for term in series]}")
    return _emit([rep], args.report_path)


def cmd_residue(bp: blueprints.Blueprint, args: argparse.Namespace) -> int:
    cox, s = bp.cox, args.s - 1
    partners = [t for t in range(cox.rank) if t != s and cox.matrix.m(s, t) != inf]
    if not partners:
        raise RgdError(f"generator {s + 1} is in no spherical pair: no residue to check")
    reports = []
    print(f"residues on the wall of generator {s + 1}:")
    for t in partners:
        rg = parabolics.build_residue_group(bp, s, t)
        rep = parabolics.tau_on_residue(rg)
        ust = sum(v.axiom == "ustausV" for v in rep.violations)
        ust_status = "not run" if not rg.pres.consistent else "FAIL" if ust else "PASS"
        print(f"  {rg.residue.label()}: |U_R| = {rg.pres.order}, "
              f"tau^2/braid/hom: {'PASS' if len(rep.violations) == ust else 'FAIL'}, "
              f"ustausV: {ust_status}")
        reports.append(rep)
    return _emit(reports, args.report_path)


def cmd_chambers(bp: blueprints.Blueprint, args: argparse.Namespace) -> int:
    s, t = args.s - 1, args.t - 1
    try:
        cs = chambers.build_CJ(bp, s, t)
    except Violated as exc:  # U failed CB3: its report is the verdict
        return _emit([exc.report], args.report_path)
    reports = [cs.build_report, chambers.verify_building(cs),
               chambers.verify_action(cs, s), chambers.verify_action(cs, t),
               chambers.braid_check(cs)]
    print(f"{len(cs.chambers)} chambers (m = {cs.m})")
    print(f"building: {'PASS' if reports[1].ok else 'FAIL'}")
    print(f"actions:  {'PASS' if reports[2].ok and reports[3].ok else 'FAIL'}")
    print(f"braid:    {'PASS' if reports[4].ok else 'FAIL'}")
    if args.dump_adjacency:
        for gen in (s, t):
            for a_idx, cell in enumerate(cs.adjacency[gen]):
                for b_idx in sorted(cell):
                    if a_idx < b_idx:
                        print(f"edge {gen + 1} {cs.chambers[a_idx].label()} "
                              f"{cs.chambers[b_idx].label()}")
    return _emit(reports, args.report_path)


def cmd_appendix(bp: blueprints.Blueprint, args: argparse.Namespace) -> int:
    s, t = args.s - 1, args.t - 1
    reports = [appendix.verify_identity_chains(bp, s, t)]
    if bp.cox.rank >= 3:
        reports.append(appendix.appendix_conjugation_check(bp, s, t, args.radius))
    return _emit(reports, args.report_path)


def cmd_roots(bp: blueprints.Blueprint, args: argparse.Namespace) -> int:
    cox = bp.cox
    seen = {}
    for w in cox.ball(args.radius):
        for rt in phi_w(cox, w):
            if rt.vec not in seen:
                seen[rt.vec] = rt
    roots = sorted(seen.values(), key=lambda r: (depth(cox, r), r.describe()))
    print(f"{len(roots)} positive roots within radius {args.radius}")
    for rt in roots:
        print(f"  depth {depth(cox, rt)}: {rt.describe()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="rgdkit", description=__doc__)
    parser.add_argument("--blueprint", help="blueprint file path")
    parser.add_argument("--builtin", help="built-in blueprint name, e.g. rank2:m6lr")
    # the numbers are read by `read_integer`, in rgdkit's words, not by argparse
    parser.add_argument("--radius", default="4")
    parser.add_argument("--cap-galleries", default="10000")
    parser.add_argument("--cap-group-bits", default="24")
    parser.add_argument("--report", dest="report_path")
    # each command's function is looked up here, on every call, so a
    # rebinding of a `cmd_*` name (as by `perfbench/tracing.py`) is the one run
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate").set_defaults(run=cmd_validate)
    p_group = sub.add_parser("group")
    p_group.set_defaults(run=cmd_group)
    p_group.add_argument("word", help="dot-separated generators, e.g. 1.2.1")
    p_res = sub.add_parser("residue")
    p_res.set_defaults(run=cmd_residue)
    p_res.add_argument("-s", required=True, help="generator (1-based)")
    p_ch = sub.add_parser("chambers")
    p_ch.set_defaults(run=cmd_chambers)
    p_ch.add_argument("-s", required=True)
    p_ch.add_argument("-t", required=True)
    p_ch.add_argument("--dump-adjacency", action="store_true")
    p_ap = sub.add_parser("appendix")
    p_ap.set_defaults(run=cmd_appendix)
    p_ap.add_argument("-s", required=True)
    p_ap.add_argument("-t", required=True)
    sub.add_parser("roots").set_defaults(run=cmd_roots)

    args = parser.parse_args(argv)
    try:
        for option in ("--radius", "--cap-galleries", "--cap-group-bits", "-s", "-t"):
            dest = option.lstrip("-").replace("-", "_")
            if getattr(args, dest, None) is not None:
                setattr(args, dest, read_integer(option, getattr(args, dest)))
        bp = _load_blueprint(args)
        if args.radius < 0:
            raise RgdError("radius must be >= 0")
        if args.cap_galleries <= 0 or args.cap_group_bits <= 0:
            raise RgdError("caps must be positive")
        gens = [g for g in (getattr(args, "s", None), getattr(args, "t", None)) if g is not None]
        if not all(1 <= g <= bp.cox.rank for g in gens) or len(set(gens)) < len(gens):
            raise RgdError(f"-s and -t must be distinct generators in 1..{bp.cox.rank}")
        return args.run(bp, args)
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (RgdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a violation (1)
        import traceback  # loaded only on this path, so normal runs do not pay for it
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
