"""The ``artifact`` command.

``artifact verify [--case I]`` checks the semisimple table rows (all ten
families, or family I alone) and prints the report of
:func:`ssorbits.verify_ss_tables` as one JSON object, with the wall time of
each block under ``"seconds"``.  The exit status is 1 when a check failed.

``artifact table [--case I]`` prints the table rows as one JSON object:
each row's ``(i, j, k)``, basis, Weyl witness ``w`` and four coordinate
entries as linear forms in the family's parameters, such as
``(-l1+l2-l3+l4)/2`` or ``-i*l1``, for comparison with the paper.

``artifact classify FILE|- [--explain]`` reads a tensor in the JSON form of
:meth:`liealg.Tensor.to_json` from FILE or standard input and prints its
label from :func:`ssorbits.classify_semisimple` as one JSON object.
``--explain`` adds, for each real Cartan basis containing the tensor, the
roots vanishing at it, every admitted (move, row, parameters) candidate
with its key and whether its block accepts the parameters, and the key of
the winning label.  A tensor in general position prints the family-level
payload and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd

from . import cartanweyl as cw
from . import ssorbits
from .exactfield import cyc_to_str
from .liealg import Tensor

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
    their sum, or ``0``, read off the row's Gaussian integer rows over their
    common denominator (``SSTableRow._gaussian_rows``)."""
    rows, den = row._gaussian_rows
    out = []
    for gauss in rows:
        re, im = zip(*gauss)
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


def _label(label: ssorbits.SSOrbitLabel) -> dict:
    return {"row": [label.i, label.j, label.k], "basis": label.basis_name, "m": label.m,
            "lams": [cyc_to_str(v) for v in label.lams]}


def classify(t: Tensor, explain: bool = False) -> dict:
    """The label of ``t`` as printable data.  With ``explain``, also each
    containing basis with its vanishing roots (as functionals on
    u-coordinates) and candidates
    (:func:`ssorbits.classification_candidates`), each with the Weyl index of
    its real move, its key and whether its block accepts its parameters,
    and the winning key: the least accepted one, whose candidate
    :func:`ssorbits.classify_semisimple` returns."""
    label = ssorbits.classify_semisimple(t)
    out = {"label": _label(label)}
    if explain:
        roots = cw.restricted_roots()
        out["bases"] = []
        for m, coords in cw.containing_bases(t):
            pattern, candidates = ssorbits.classification_candidates(m, coords)
            out["bases"].append({
                "m": m,
                "vanishing_roots": [roots[a].coeffs for a in sorted(pattern)],
                "candidates": [dict(_label(c), move=r, key=key,
                                    accepted=reality.accepts(c.lams))
                               for key, c, r, reality in candidates],
            })
        out["key"] = min(c["key"] for b in out["bases"] for c in b["candidates"]
                         if c["accepted"])
    return out


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
    label = commands.add_parser(
        "classify", help="print the orbit label of a real semisimple tensor as JSON"
    )
    label.add_argument("file", type=argparse.FileType("r"), metavar="FILE|-",
                       help="the tensor as JSON (Tensor.to_json); - reads standard input")
    label.add_argument("--explain", action="store_true",
                       help="add the vanishing roots and candidates of each basis")
    args = parser.parse_args(argv)
    if args.command == "table":
        print(json.dumps(table(args.case), indent=2))
        return 0
    if args.command == "classify":
        try:
            report = classify(Tensor.from_json(args.file.read()), args.explain)
        except ssorbits.GeneralPositionError as exc:
            payload = dict(exc.payload, invariants=exc.payload["invariants"].as_dict())
            print(json.dumps(payload, indent=2))
            return 1
        except ValueError as exc:
            parser.error(str(exc))
        print(json.dumps(report, indent=2))
        return 0
    report = ssorbits.verify_ss_tables(args.case)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
