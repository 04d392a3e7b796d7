"""Write ``bench/inputs.json``, the fixed input set of the benchmark.

Run from the repository root:

    python3 bench/make_inputs.py

For every table block (i, j) the file holds the block's reality tags and
avoid rows, each row's tensor at ``default_lambda(i, j)``, and a pool of
``DRAWS_PER_BLOCK`` admissible parameter draws with the tensor of every row
at each draw.  The draws come from ``random.Random(GENERATOR_SEED)`` through
``common.draw_params``.  A draw is kept only when:

* ``classify_semisimple`` labels each of its row tensors with the block and
  ``check_row`` accepts each row at it, so that no benchmark operation fails
  on it;
* none of its tensors is related, by a real element of {+-I, +-J}^4, to the
  tensor of another row or another draw already in the file (tensors of
  different rows at one draw may be related; a classify round takes one row
  per draw).

Tensors are stored exactly, so the input set stays fixed when the table data
of the package changes.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import common  # noqa: E402
from artifact import ssorbits as ss  # noqa: E402
from artifact.exactfield import IMAG, CycNum  # noqa: E402

GENERATOR_SEED = 20220127
DRAWS_PER_BLOCK = 5
OUT = os.path.join(HERE, "inputs.json")


def cyc_raw(v: CycNum):
    return None if not v else (tuple(v.nums), v.den)


def tensor_raw(t):
    return tuple(cyc_raw(c) for c in t.c)


def to_cyc(params):
    return tuple(
        CycNum.from_rational(re) + CycNum.from_rational(im) * IMAG for re, im in params
    )


def program_accepts(blk, lams, tensors) -> bool:
    for row in blk.rows:
        label = ss.classify_semisimple(tensors[row.k])
        if (label.i, label.j) != (blk.i, blk.j):
            print("draw rejected: %r row %d labelled %r" % (lams, row.k, label),
                  file=sys.stderr)
            return False
        try:
            ss.check_row(blk.i, blk.j, row.k, lams)
        except ss.TableRowError as exc:
            print("draw rejected: %s" % exc, file=sys.stderr)
            return False
    return True


def main() -> None:
    rng = random.Random(GENERATOR_SEED)
    owner: dict = {}  # canonical form -> (i, j, k, draw index or -1)
    out_blocks = []
    all_blocks = ss.blocks()
    for blk in all_blocks:
        lams = ss.default_lambda(blk.i, blk.j)
        for row in blk.rows:
            t = tensor_raw(ss.row_tensor(blk.i, blk.j, row.k, lams))
            owner.setdefault(common.canonical_form(t), (blk.i, blk.j, row.k, -1))
    for blk in all_blocks:
        pattern = blk.reality
        default = ss.default_lambda(blk.i, blk.j)
        entry = {
            "i": blk.i,
            "j": blk.j,
            "m": blk.m,
            "tags": list(pattern.tags),
            "avoid": [list(r) for r in pattern.avoid],
            "rows": [{"k": r.k, "reciprocal": r.reciprocal} for r in blk.rows],
            "default": {
                "lams": [common.raw_to_json(cyc_raw(v)) for v in default],
                "tensors": {
                    str(r.k): [common.raw_to_json(c) for c in
                               tensor_raw(ss.row_tensor(blk.i, blk.j, r.k, default))]
                    for r in blk.rows
                },
            },
            "draws": [],
        }
        while len(entry["draws"]) < DRAWS_PER_BLOCK:
            params = common.draw_params(rng, pattern.tags, pattern.avoid)
            lams = to_cyc(params)
            if not pattern.accepts(lams):
                raise AssertionError("generator and package disagree on %r" % (lams,))
            tensors = {r.k: ss.row_tensor(blk.i, blk.j, r.k, lams) for r in blk.rows}
            forms = {r.k: common.canonical_form(tensor_raw(tensors[r.k])) for r in blk.rows}
            if any(f in owner for f in forms.values()):
                continue
            if not program_accepts(blk, lams, tensors):
                continue
            d = len(entry["draws"])
            for k, f in forms.items():
                owner.setdefault(f, (blk.i, blk.j, k, d))
            entry["draws"].append({
                "params": [[str(re), str(im)] for re, im in params],
                "lams": [common.raw_to_json(cyc_raw(v)) for v in lams],
                "tensors": {
                    str(k): [common.raw_to_json(c) for c in tensor_raw(t)]
                    for k, t in tensors.items()
                },
            })
        out_blocks.append(entry)
        print("block (%d, %d): %d draws" % (blk.i, blk.j, len(entry["draws"])),
              file=sys.stderr)
    doc = {
        "command": "python3 bench/make_inputs.py",
        "generator_seed": GENERATOR_SEED,
        "draws_per_block": DRAWS_PER_BLOCK,
        "blocks": out_blocks,
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
