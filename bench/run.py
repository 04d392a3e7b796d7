"""Benchmark of the four-rebit classification package.

Run from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 10 --trace 0

Workloads (see README.md): ``classify``, ``verify``, ``cohomology``.  One
process, one thread, standard library only.  The run

1. loads the fixed inputs (``bench/inputs.json``) and picks its share of
   them from ``--seed``;
2. sets up: imports the package and warms every lazily built table with one
   call per operation kind; ``setup_s`` is the process CPU time from
   interpreter start to here, less the time spent loading the inputs;
3. repeats rounds of the workload's operations until ``--seconds`` of wall
   time have passed (at least one round).  Each operation is timed in process
   CPU time; an operation's time is the median over its repeats;
4. checks every result, runs the negative controls and prints one JSON line.

Every end-to-end CPU time is scaled to a reference host speed by
``calibrate.py``; per-layer times are raw CPU time.

With ``--trace 1`` the layer wrappers of ``tracer.py`` are installed before
set-up and recorded during set-up and the first round; the per-layer
metrics are printed instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import common  # noqa: E402
import tracer as tracing  # noqa: E402

RESULTS = os.path.join(HERE, "results")


def load_inputs() -> dict:
    with open(os.path.join(HERE, "inputs.json")) as fh:
        doc = json.load(fh)
    for blk in doc["blocks"]:
        for sample in [blk["default"]] + blk["draws"]:
            sample["lams"] = [common.raw_from_json(v) for v in sample["lams"]]
            sample["tensors"] = {
                int(k): tuple(common.raw_from_json(c) for c in t)
                for k, t in sample["tensors"].items()
            }
    return doc


def import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "artifact")):
        raise SystemExit("bench: package sources not found under %s" % src)
    sys.path.insert(0, src)
    import artifact.ssorbits  # noqa: F401


class Op:
    """One benchmark operation: an id, a callable and what checks need.

    ``number`` consecutive calls are timed together and the time is divided
    among them, as ``timeit`` does, for operations of a few milliseconds.
    """

    def __init__(self, op_id: str, fn, number: int = 1, **info):
        self.id = op_id
        self.fn = fn
        self.number = number
        self.info = info

    def __call__(self):
        for _ in range(self.number - 1):
            self.fn()
        return self.fn()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, doc: dict, seed: int):
        self.doc = doc
        self.seed = seed
        self.rng = random.Random(seed)
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def round_schedule(self, rnd: int) -> list[Op]:
        ops = list(self.ops)
        random.Random(self.seed * 7919 + rnd).shuffle(ops)
        return ops


def _cyc(raw):
    from artifact.exactfield import ZERO, CycNum
    return ZERO if raw is None else CycNum(raw[0], raw[1])


def _tensor(raw_tensor):
    from artifact.liealg import Tensor
    return Tensor([_cyc(c) for c in raw_tensor])


def _raw_tensor(t):
    return tuple(None if not c else (tuple(c.nums), c.den) for c in t.c)


def _label_key(label):
    return (label.i, label.j, label.k, tuple((v.nums, v.den) for v in label.lams))


class Classify(Workload):
    """``classify_semisimple`` on table rows in canonical position.

    Every round classifies the same inputs:

    * seed-independent: for each block whose rows at ``default_lambda``
      the relation finder puts into groups (rows related by a real element
      of {+-I, +-J}^4), the first such group;
    * seeded: for each family, the first row of its split block (j = 1)
      at a seed-chosen draw of the pool.
    """

    def __init__(self, doc, seed):
        super().__init__(doc, seed)
        self.inputs = []
        for blk in doc["blocks"]:
            rows = [row["k"] for row in blk["rows"]]
            tensors = [blk["default"]["tensors"][k] for k in rows]
            groups = common.relation_groups(tensors)
            if groups:
                for idx in groups[0]:
                    self.inputs.append((blk["i"], blk["j"], rows[idx], "default",
                                        tensors[idx]))
        for blk in doc["blocks"]:
            if blk["j"] != 1:
                continue
            d = self.rng.randrange(len(blk["draws"]))
            k = blk["rows"][0]["k"]
            self.inputs.append((blk["i"], blk["j"], k, "draw%d" % d,
                                blk["draws"][d]["tensors"][k]))
        self.groups = common.relation_groups([x[4] for x in self.inputs])
        self.warm = []
        seen_m = set()
        for blk in doc["blocks"]:
            if blk["m"] not in seen_m:
                seen_m.add(blk["m"])
                self.warm.append(blk["default"]["tensors"][blk["rows"][0]["k"]])
        self.row_invariants: dict = {}

    def setup(self):
        from artifact import ssorbits as ss
        for raw in self.warm:
            ss.classify_semisimple(_tensor(raw))

    def prepare(self):
        from artifact import ssorbits as ss
        self.ops = []
        for idx, (i, j, k, where, raw) in enumerate(self.inputs):
            t = _tensor(raw)
            self.ops.append(Op("%d.%d.%d@%s" % (i, j, k, where),
                               lambda t=t: ss.classify_semisimple(t),
                               index=idx, block=(i, j),
                               inv=common.tensor_invariants(raw)))

    def check_round(self, results) -> int:
        from artifact import ssorbits as ss
        labels = {}
        for op, label in results:
            labels[op.info["index"]] = label
            if (label.i, label.j) != op.info["block"]:
                self.problem("%s labelled with block (%d, %d)" % (op.id, label.i, label.j))
            key = _label_key(label)
            inv = self.row_invariants.get(key)
            if inv is None:
                rep = ss.row_tensor(label.i, label.j, label.k, label.lams)
                inv = self.row_invariants[key] = common.tensor_invariants(_raw_tensor(rep))
            if not common.invariants_close(inv, op.info["inv"]):
                self.problem("%s: row %r has other invariants" % (op.id, key[:3]))
        failed = 0
        for group in self.groups:
            if any(idx not in labels for idx in group):
                continue
            keys = [_label_key(labels[idx]) for idx in group]
            least = min(keys)
            failed += sum(1 for key in keys if key != least)
        return failed

    def final_checks(self):
        from artifact import ssorbits as ss
        for m in range(1, 8):
            group = ss.real_weyl_group(m)
            problem = check_matrix_group(group)
            if problem:
                self.problem("real_weyl_group(%d): %s" % (m, problem))


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(4)) for c in range(4)) for r in range(4)
    )


def check_matrix_group(elements) -> str | None:
    """Identity present, closed under product, order dividing 192."""
    elements = [tuple(tuple(row) for row in w) for w in elements]
    members = set(elements)
    identity = tuple(tuple(int(r == c) for c in range(4)) for r in range(4))
    if identity not in members:
        return "no identity"
    for a in elements:
        for b in elements:
            if _mat_mul(a, b) not in members:
                return "not closed under product"
    if 192 % len(members):
        return "order %d does not divide 192" % len(members)
    return None


class Verify(Workload):
    """``verify_ss_tables`` family by family, and ``check_row`` at seeded draws.

    Every block gets a seed-chosen draw of its pool; one operation checks
    every row of the block at that draw.  Every block also gets a second
    seed-chosen draw at which all its rows are instantiated for the
    invariant check, and one seed-chosen row with one seed-chosen
    coefficient perturbed for the negative control.
    """

    def __init__(self, doc, seed):
        super().__init__(doc, seed)
        self.samples = []
        for blk in doc["blocks"]:
            checked = self.rng.randrange(len(blk["draws"]))
            d = self.rng.randrange(len(blk["draws"]))
            k_bad = self.rng.choice(blk["rows"])["k"]
            pos = self.rng.randrange(16)
            self.samples.append((blk, checked, d, k_bad, pos))
        self.families = sorted({blk["i"] for blk in doc["blocks"]})

    def setup(self):
        from artifact import ssorbits as ss
        seen = set()
        for blk in self.doc["blocks"]:
            if blk["i"] not in seen:
                seen.add(blk["i"])
                ss.check_row(blk["i"], blk["j"], blk["rows"][0]["k"])

    def prepare(self):
        from artifact import ssorbits as ss
        self.ops = [
            Op("verify_ss_tables %d" % i, lambda i=i: ss.verify_ss_tables(i), kind="tables")
            for i in self.families
        ]
        for blk, d, _, _, _ in self.samples:
            i, j = blk["i"], blk["j"]
            ks = tuple(row["k"] for row in blk["rows"])
            lams = tuple(_cyc(v) for v in blk["draws"][d]["lams"])
            self.ops.append(Op(
                "check_row %d.%d.*@draw%d" % (i, j, d),
                lambda i=i, j=j, ks=ks, lams=lams: [ss.check_row(i, j, k, lams) for k in ks],
                kind="rows", rows=[(i, j, k) for k in ks]))

    def check_round(self, results) -> int:
        blocks = rows = 0
        for op, result in results:
            if op.info["kind"] == "tables":
                blocks += result["blocks"]
                rows += result["rows"]
                if not result["ok"]:
                    self.problem("%s: failures %r" % (op.id, result["failures"][:2]))
            elif [tuple(r["row"]) for r in result if r["ok"]] != op.info["rows"]:
                self.problem("%s returned %r" % (op.id, result))
        if (blocks, rows) != (37, 162):
            self.problem("verify_ss_tables covered %d blocks, %d rows" % (blocks, rows))
        return 0

    def final_checks(self):
        from artifact import ssorbits as ss
        from artifact.exactfield import ONE
        from artifact.liealg import Tensor
        for blk, _, d, k_bad, pos in self.samples:
            i, j = blk["i"], blk["j"]
            lams = tuple(_cyc(v) for v in blk["draws"][d]["lams"])
            ref = None
            for row in blk["rows"]:
                t = ss.row_tensor(i, j, row["k"], lams)
                if row["reciprocal"]:
                    continue
                inv = common.tensor_invariants(_raw_tensor(t))
                if ref is None:
                    ref = inv
                elif not common.invariants_close(ref, inv):
                    self.problem("block (%d, %d): row %d has other invariants"
                                 % (i, j, row["k"]))
            # negative control: one perturbed coefficient must be rejected
            good = ss.row_tensor(i, j, k_bad, lams)
            coeffs = list(good.c)
            coeffs[pos] = coeffs[pos] + ONE
            try:
                ss.check_row(i, j, k_bad, lams, tensor=Tensor(coeffs))
            except ss.TableRowError:
                continue
            self.problem("check_row accepted a perturbed (%d, %d, %d)" % (i, j, k_bad))


#: Documented class counts of the stabilizer cohomology per family.
CLASS_COUNTS = {1: 12, 2: 8, 3: 4, 4: 6, 7: 2, 10: 5}


class Cohomology(Workload):
    """Galois cohomology: the normalizer, stabilizer class lists, Gamma groups.

    The first round computes ``h1_of_normalizer`` (its cache cleared first)
    and ``gamma_h1(1)``, and checks the stabilizer class lists of families
    1, 2, 4 and 10, once each in seeded order; before, between and after
    them it runs the cheap operations (``gamma_h1`` of families 2 to 10, the
    class lists of families 3 and 7).  Later rounds, if the time allows,
    repeat the cheap operations.
    """

    EXPENSIVE_FAMILIES = (1, 2, 4, 10)
    CHEAP_FAMILIES = (3, 7)

    def setup(self):
        from artifact import cartanweyl as cw
        from artifact import galois
        galois.build_normalizer()
        for i in range(1, 11):
            cw.gamma_h1(i)

    def prepare(self):
        from artifact import cartanweyl as cw
        from artifact import galois
        from artifact import ssorbits as ss
        clear = getattr(galois.h1_of_normalizer, "cache_clear", None)

        def h1_op():
            if clear is not None:
                clear()
            return galois.h1_of_normalizer()

        def class_list(i):
            return lambda: galois.verify_class_list(
                ss.centralizer_classes(i), ss.centralizer_spec(i))

        self.expensive = [Op("h1_of_normalizer", h1_op, kind="h1")] + [
            Op("verify_class_list %d" % i, class_list(i), kind="classes", family=i)
            for i in self.EXPENSIVE_FAMILIES
        ] + [Op("gamma_h1 1", lambda: cw.gamma_h1(1), kind="gamma", family=1)]
        self.cheap = [
            Op("verify_class_list %d" % i, class_list(i), number=5 if i == 7 else 1,
               kind="classes", family=i)
            for i in self.CHEAP_FAMILIES
        ] + [
            Op("gamma_h1 %d" % i, lambda i=i: cw.gamma_h1(i), number=5,
               kind="gamma", family=i)
            for i in range(2, 11)
        ]
        self.ops = self.expensive + self.cheap

    def round_schedule(self, rnd):
        rng = random.Random(self.seed * 7919 + rnd)
        expensive = list(self.expensive) if rnd == 0 else []
        rng.shuffle(expensive)
        out = []
        for op in expensive + [None]:
            cheap = list(self.cheap)
            rng.shuffle(cheap)
            out.extend(cheap)
            if op is not None:
                out.append(op)
        return out

    def check_round(self, results) -> int:
        gamma_counts = {}
        for op, result in results:
            kind = op.info["kind"]
            if kind == "h1":
                if len(result) != 7 or sum(result.sizes) != self.cocycle_count():
                    self.problem("h1_of_normalizer: %d classes, sizes %r"
                                 % (len(result), result.sizes))
            elif kind == "classes":
                want = CLASS_COUNTS[op.info["family"]]
                if not result["passed"] or result["classes"] != want:
                    self.problem("%s: passed=%r classes=%r" % (
                        op.id, result["passed"], result["classes"]))
            else:
                gamma_counts[op.info["family"]] = len(result)
        if len(gamma_counts) != 10 or sum(gamma_counts.values()) != 37:
            self.problem("gamma_h1 counts %r do not sum to 37" % gamma_counts)
        return 0

    _cocycles = None

    def cocycle_count(self) -> int:
        if self._cocycles is None:
            from artifact import galois
            self._cocycles = len(galois.cocycles(galois.build_normalizer()))
        return self._cocycles

    def final_checks(self):
        from artifact import galois
        from artifact import groupaction as ga
        from artifact import ssorbits as ss
        # negative control: a representative replaced by a twisted conjugate
        # (by an identity-component sample) of another must be rejected
        i = self.rng.choice(self.CHEAP_FAMILIES)
        classes = ss.centralizer_classes(i)
        spec = ss.centralizer_spec(i)
        reps = list(classes.representatives)
        a_idx, b_idx = self.rng.sample(range(len(reps)), 2)
        t = self.rng.choice(spec.torus_samples)
        reps[b_idx] = ga.g_mul(ga.g_mul(t, reps[a_idx]), ga.conj_g(ga.g_inv(t)))
        bad = galois.CocycleClassList(representatives=tuple(reps), case_tag=classes.case_tag)
        try:
            galois.verify_class_list(bad, spec)
        except galois.ClassListError:
            return
        self.problem("verify_class_list accepted a list with twisted-conjugate "
                     "representatives (family %d)" % i)


WORKLOADS = {"classify": Classify, "verify": Verify, "cohomology": Cohomology}


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cal = calibrate.Calibrator()
    cal.start()
    clock = calibrate.clock
    load_start = clock() - cal.spent
    doc = load_inputs()
    workload = WORKLOADS[args.workload](doc, args.seed)
    load_cpu = clock() - cal.spent - load_start

    import_package()
    tr = tracing.Tracer()
    if args.trace:
        tracing.install(tr)
        tr.enabled = True
    workload.setup()
    setup_end = clock()
    setup_raw = setup_end - cal.spent - load_cpu
    tr.enabled = False
    workload.prepare()

    executions = []  # (op id, round, CPU start, CPU end, CPU net of sampling)
    attempted = failed = rounds = 0
    deadline = time.perf_counter() + args.seconds
    while rounds == 0 or time.perf_counter() < deadline:
        tr.enabled = bool(args.trace) and rounds == 0
        results = []
        for op in workload.round_schedule(rounds):
            with tr.span("op:" + op.id):
                sampled = cal.spent
                start = clock()
                try:
                    result = op()
                except Exception as exc:  # a fault of the package: recorded
                    result = exc
                end = clock()
            net = (end - start - (cal.spent - sampled)) / op.number
            executions.append((op.id, rounds, start, end, net))
            attempted += 1
            if isinstance(result, Exception):
                failed += 1
                workload.problem("%s raised %s: %s" % (op.id, type(result).__name__, result))
            else:
                results.append((op, result))
        tr.enabled = False
        failed += workload.check_round(results)
        rounds += 1
    workload.final_checks()
    cal.stop()

    setup_s = setup_raw * cal.scale(0.0, setup_end)
    scaled: dict[str, list[float]] = defaultdict(list)
    raw: dict[str, list[float]] = defaultdict(list)
    first_round_s = 0.0
    for op_id, rnd, start, end, net in executions:
        value = net * cal.scale(start, end)
        scaled[op_id].append(value)
        raw[op_id].append(net)
        if rnd == 0:
            first_round_s += value
    per_op = {op_id: statistics.median(v) for op_id, v in scaled.items()}
    values = list(per_op.values())
    if args.trace:
        metrics = tracing.metrics(tr)
        metrics["traced.setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["traced.round_s"] = {"value": first_round_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": sum(values), "unit": "s"},
            "op_ms_p50": {"value": 1000 * statistics.median(values), "unit": "ms"},
            "op_ms_p90": {
                "value": 1000 * statistics.quantiles(values, n=10, method="inclusive")[8],
                "unit": "ms",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    result = {
        "correct": not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump({
            "result": result,
            "rounds": rounds,
            "setup_cpu_s": setup_raw,
            "first_round_s": first_round_s,
            "op_median_s": per_op,
            "op_median_cpu_s": {k: statistics.median(v) for k, v in raw.items()},
            "calibration": {"cpu_stamps": cal.stamps, "loop_s": cal.loop_s},
            "executions": executions,
            "setup_end_cpu_s": setup_end,
            "problems": workload.problems,
            "spans": tr.spans if args.trace else [],
        }, fh)
        fh.write("\n")
    for text in workload.problems:
        print("problem: " + text, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
