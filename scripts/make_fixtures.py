"""Regenerate the blueprint fixture files under tests/fixtures/.

Mutated fixtures take a serialized built-in table and alter exactly one
image set, staying inside the open interval so that ingestion succeeds and
exactly one validator catches the defect.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rgdkit import blueprints  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "tests" / "fixtures"

UNIVERSAL3 = """\
# universal rank 3, all commutators trivial
rank 3
m 1 2 inf
m 1 3 inf
m 2 3 inf
default empty
"""

RIGHTANGLED3 = """\
# right-angled rank 3: one commuting pair, free otherwise
rank 3
m 1 2 2
m 1 3 inf
m 2 3 inf
default empty
"""

RANK3_B2_PRODUCT = """\
# I2(4) x A1: quadrangle relations in the {1,2} factor, generator 3 central
rank 3
m 1 2 4
m 1 3 2
m 2 3 2
default rank2
"""

RANK3_A2_PRODUCT = """\
# I2(3) x A1
rank 3
m 1 2 3
m 1 3 2
m 2 3 2
default rank2
"""

RANK3_G2_PRODUCT = """\
# I2(6) x A1, hexagon directed (2,1)
rank 3
m 1 2 6
m 1 3 2
m 2 3 2
dir6 2 1
default rank2
"""

RANK3_CYCLE444 = """\
# (4,4,4) triangle: a cycle of finite labels, so no symmetrizable integer
# Cartan matrix; the integer root realization is checked against the
# geometric one on this type
rank 3
m 1 2 4
m 1 3 4
m 2 3 4
default rank2
"""



def mutate(text: str, old_line: str, new_line: str) -> str:
    if old_line not in text.splitlines():
        raise SystemExit(f"expected line not found: {old_line!r}")
    return "\n".join(new_line if line == old_line else line
                     for line in text.splitlines()) + "\n"


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)

    (FIXTURES / "universal3_allempty.bp").write_text(UNIVERSAL3)
    (FIXTURES / "rightangled3_allempty.bp").write_text(RIGHTANGLED3)
    (FIXTURES / "rank3_b2_product.bp").write_text(RANK3_B2_PRODUCT)
    (FIXTURES / "rank3_a2_product.bp").write_text(RANK3_A2_PRODUCT)
    (FIXTURES / "rank3_g2_product.bp").write_text(RANK3_G2_PRODUCT)
    (FIXTURES / "rank3_cycle444.bp").write_text(RANK3_CYCLE444)

    g2 = blueprints.serialize(blueprints.builtin("rank2:m6lr"), 6)
    (FIXTURES / "g2_full.bp").write_text(g2)
    # one image set altered on the mirror gallery: only Weyl-invariance sees it
    (FIXTURES / "g2_weyl_mutated.bp").write_text(
        mutate(g2, "rel 2.1.2.1.2.1 2 6 : 3 5", "rel 2.1.2.1.2.1 2 6 : 3"))

    b2 = blueprints.serialize(blueprints.builtin("rank2:m4"), 4)
    (FIXTURES / "b2_full.bp").write_text(b2)
    # corrupt a proper prefix entry: CB1 must point at (1.2.1, 1, 3)
    (FIXTURES / "b2_cb1_mutated.bp").write_text(
        b2 + "rel 1.2.1 1 3 : 2\n")
    # wrong simple-pair value on the full gallery: CB2 must reject {2}
    (FIXTURES / "b2_cb2_mutated.bp").write_text(
        mutate(b2, "rel 1.2.1.2 1 4 : 2 3", "rel 1.2.1.2 1 4 : 2"))

    print(f"fixtures written to {FIXTURES}")


if __name__ == "__main__":
    main()
