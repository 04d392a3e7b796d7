"""The ``artifact`` command.

``artifact verify [--case I]`` checks the semisimple table rows (all ten
families, or family I alone) and prints the report of
:func:`ssorbits.verify_ss_tables` as one JSON object, with the wall time of
each block under ``"seconds"``.  The exit status is 1 when a check failed.

``artifact table [--case I]`` prints the table rows as one JSON object:
each row's ``(i, j, k)``, basis, Weyl witness ``w`` and four coordinate
entries as linear forms in the family's parameters, such as
``(-l1+l2-l3+l4)/2`` or ``-i*l1``, for comparison with the paper.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd

from . import ssorbits
from .exactfield import common_numerators

#: The paper's parameter names where they are not l1, …, ln: l1 and l4 for
#: family 4, and so for families 5 and 6, which the tables generate from it.
_PARAMETERS = {4: ("l1", "l4"), 5: ("l1", "l4"), 6: ("l1", "l4")}


def _form(nums, den: int, names, grouped: bool) -> str:
    """The rational form Σ (nums[l]/den)·names[l], reduced, with its terms
    in parentheses when there are several and a divisor or a factor
    (``grouped``) applies to them all."""
    g = gcd(den, *nums)
    terms = ["%+d*%s" % (n // g, name) for n, name in zip(nums, names) if n]
    text = "".join(terms).replace("+1*", "+").replace("-1*", "-").lstrip("+")
    if len(terms) > 1 and (grouped or den > g):
        text = "(%s)" % text
    return text if den == g else "%s/%d" % (text, den // g)


def _entries(row: ssorbits.SSTableRow, names) -> list[str]:
    """The four entries of ``row`` as text: each a rational form, ``i*`` or
    ``-i*`` times one (the sign outside when no coefficient is positive),
    their sum, or ``0``.  ``ArithmeticError`` for an entry that is not a
    Gaussian rational."""
    nums, den = common_numerators(v for r in row.matrix for v in r)
    nums = [x or (0,) * 8 for x in nums]
    if any(x[e] for x in nums for e in (1, 2, 3, 5, 6, 7)):
        raise ArithmeticError("row entry is not a Gaussian rational")
    out = []
    for a in range(4):
        re, im = zip(*((x[0], x[4]) for x in nums[a * len(names):(a + 1) * len(names)]))
        parts = [_form(re, den, names, False)] if any(re) else []
        if any(im):
            sign = "-" if max(im) <= 0 else ""
            parts.append(sign + "i*" + _form([-b if sign else b for b in im], den, names, True))
        out.append("+".join(parts).replace("+-", "-") or "0")
    return out


def table(case: int | None = None) -> dict:
    """Every row of the tables (or of family ``case``) as printable data."""
    selected = [b for b in ssorbits.blocks() if case is None or b.i == case]
    rows = []
    for blk in selected:
        names = _PARAMETERS.get(blk.i) or tuple("l%d" % (p + 1) for p in range(
            len(blk.reality.tags)))
        rows += [{"row": [blk.i, blk.j, row.k], "basis": blk.basis_name, "w": row.w,
                  "parameters": list(names), "entries": _entries(row, names)}
                 for row in blk.rows]
    return {"blocks": len(selected), "rows": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="artifact", description="Exact classification of real four-rebit states."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser(
        "verify", help="check the semisimple table rows and print the report as JSON"
    )
    rows = commands.add_parser(
        "table", help="print the semisimple table rows with their witnesses as JSON"
    )
    for sub, what in ((verify, "check"), (rows, "print")):
        sub.add_argument(
            "--case", type=int, choices=range(1, 11), metavar="I",
            help="%s only the blocks of family I (1-10)" % what,
        )
    args = parser.parse_args(argv)
    if args.command == "table":
        print(json.dumps(table(args.case), indent=2))
        return 0
    report = ssorbits.verify_ss_tables(args.case)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
