"""Run the whole verification battery on the built-in blueprints and the
committed fixtures, printing one line per check.

Usage: python scripts/run_verification.py [--radius N]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rgdkit import appendix, blueprints, chambers, groupforge, parabolics  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "tests" / "fixtures"


def line(tag: str, ok: bool, t0: float) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {tag}  ({time.perf_counter() - t0:.2f}s)")
    return ok


def check_blueprint(bp, radius: int) -> bool:
    ok = True
    t0 = time.perf_counter()
    ok &= line(f"{bp.name}: CB1 r={radius}", blueprints.validate_cb1(bp, radius).ok, t0)
    t0 = time.perf_counter()
    ok &= line(f"{bp.name}: CB2", blueprints.validate_cb2(bp).ok, t0)
    t0 = time.perf_counter()
    ok &= line(f"{bp.name}: Weyl r={radius}", blueprints.validate_weyl(bp, radius).ok, t0)
    t0 = time.perf_counter()
    ok &= line(f"{bp.name}: CB3 r={radius}", groupforge.validate_cb3(bp, radius).ok, t0)
    return ok


def check_rank2(bp) -> bool:
    ok = True
    for s in range(bp.cox.rank):
        for t in range(bp.cox.rank):
            if s >= t or bp.cox.matrix.m(s, t) == float("inf"):
                continue
            t0 = time.perf_counter()
            rg = parabolics.build_residue_group(bp, s, t)
            ok &= line(f"{bp.name}: residue tau {{{s + 1},{t + 1}}}",
                       parabolics.tau_on_residue(rg).ok, t0)
            t0 = time.perf_counter()
            cs = chambers.build_CJ(bp, s, t)
            ch_ok = (chambers.verify_building(cs).ok
                     and chambers.verify_action(cs, s).ok
                     and chambers.verify_action(cs, t).ok
                     and chambers.braid_check(cs).ok)
            ok &= line(f"{bp.name}: chambers {{{s + 1},{t + 1}}} ({len(cs.chambers)})", ch_ok, t0)
            t0 = time.perf_counter()
            ok &= line(f"{bp.name}: identity suite {{{s + 1},{t + 1}}}",
                       appendix.verify_identity_chains(bp, s, t).ok, t0)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--radius", type=int, default=6)
    args = parser.parse_args()

    ok = True
    for variant in blueprints.RANK2_BUILTINS:
        bp = blueprints.builtin(f"rank2:{variant}")
        ok &= check_blueprint(bp, args.radius)
        ok &= check_rank2(bp)
    for fixture in ("universal3_allempty.bp", "rightangled3_allempty.bp",
                    "rank3_b2_product.bp", "rank3_a2_product.bp", "rank3_g2_product.bp",
                    "rank3_cycle444.bp"):
        bp = blueprints.ingest_path(str(FIXTURES / fixture))
        radius = min(args.radius, 5)
        ok &= check_blueprint(bp, radius)
    # each mutant must fail the validator it is named for
    for fixture, validate in (("g2_weyl_mutated.bp", lambda bp: blueprints.validate_weyl(bp, 6)),
                              ("b2_cb1_mutated.bp", lambda bp: blueprints.validate_cb1(bp, 6)),
                              ("b2_cb2_mutated.bp", blueprints.validate_cb2)):
        bp = blueprints.ingest_path(str(FIXTURES / fixture))
        t0 = time.perf_counter()
        ok &= line(f"{fixture}: defect detected", not validate(bp).ok, t0)
    print("=" * 60)
    print("ALL CHECKS PASSED" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
