"""Which program attributes the traced run wraps, and the per-layer
metrics derived from the spans they record.

The layers are the package modules. Names that `evalbench` binds with
`from ... import` (`center`, `protocol_split`, `scan_distances`, and the
`CodeBank` class) are wrapped in `evalbench`'s namespace as well as their
home module; `CodeBank` is wrapped through its methods, which covers every
namespace at once. Names looked up as module globals at call time
(`hashers.topk_rows`, `plasticity.apply_batch`) are wrapped on their own
module. Only batch entry points are wrapped.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

MODULES = ("datasets", "plasticity", "hashers", "codebank", "evalbench", "toymodel", "cli")
METHODS = ("biohash", "flyhash", "simhash", "pcahash")

# (name, unit); printed with --trace 1 in this order, 0 where a workload
# does not exercise the layer
PER_LAYER = [
    ("datasets.center.s", "s"),
    ("datasets.center.bytes", "B"),
    ("datasets.sample_circle.s", "s"),
    ("plasticity.train.s", "s"),
    ("plasticity.epochs", "count"),
    ("plasticity.apply_batch.calls", "count"),
    ("plasticity.apply_batch.us_per_call", "us"),
    ("plasticity.train.self_s", "s"),
    ("plasticity.energy.s", "s"),
    ("plasticity.train.gflop", "GFLOP"),
    ("plasticity.train.gflop_per_s", "GFLOP/s"),
    ("plasticity.dead_units_frac", "fraction"),
    *[(f"hashers.encode.s.{m}", "s") for m in METHODS],
    *[(f"hashers.encode.rows_per_s.{m}", "1/s") for m in METHODS],
    ("hashers.topk_rows.s", "s"),
    ("hashers.topk_rows.share", "fraction"),
    ("hashers.pcahash_fit.s", "s"),
    ("hashers.build_projection.s", "s"),
    ("codebank.build.s", "s"),
    ("codebank.save.s", "s"),
    ("codebank.load.s", "s"),
    ("codebank.file_bytes", "B"),
    ("codebank.scan_distances.calls", "count"),
    ("codebank.scan_distances.us_per_call", "us"),
    ("codebank.postings_per_query", "count"),
    ("codebank.linear_scan.us_per_call", "us"),
    *[(f"evalbench.cell.s.{m}", "s") for m in METHODS],
    ("evalbench.evaluate_queries.self_s", "s"),
    ("evalbench.ground_truth_knn.s", "s"),
    *[(f"evalbench.map_pct.{m}", "%") for m in METHODS],
    ("toymodel.gap_err_pct", "%"),
    ("cli.toy.self_s", "s"),
    *[(f"{mod}.cell_self_s", "s") for mod in MODULES],
    ("proc.cpu_per_wall", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.cell_self_sum_s", "s"),
    ("trace.missing_layers", "count"),
    ("trace.note_errors", "count"),
]


# ------------------------------------------------------------------ notes
# each note reads the call's arguments and result after it returns

def _center_bytes(attrs, args, kwargs, result):
    ds = args[0] if args else kwargs["ds"]
    attrs["bytes"] = ds.data.nbytes + result[0].data.nbytes


def _keep_model(attrs, args, kwargs, result):
    sm, log = result
    data = args[0] if args else kwargs["data"]
    attrs["epochs"] = log.epochs
    attrs["model"] = sm
    attrs["data"] = getattr(data, "data", data)


def _matmul_flop(attrs, args, kwargs, result):
    # apply_batch(W, X, ...) and the energy pass both form X @ W.T
    W, X = args[0], args[1]
    attrs["flop"] = 2 * X.shape[0] * X.shape[1] * W.shape[0]


def _rows(attrs, args, kwargs, result):
    attrs["rows"] = np.asarray(result).shape[0]


def _method(attrs, args, kwargs, result):
    attrs["method"] = args[2] if len(args) > 2 else kwargs["method"]


def _postings_note():
    counts_by_bank = {}

    def note(attrs, args, kwargs, result):
        bank, query = args[0], args[1]
        if bank.kind != "sparse":
            attrs["postings"] = bank.size  # a dense scan touches every record
            return
        if id(bank) not in counts_by_bank:
            # the bank is kept alongside so its id cannot be reused
            counts_by_bank[id(bank)] = (bank, np.bincount(bank.codes.ravel(), minlength=bank.m))
        attrs["postings"] = int(counts_by_bank[id(bank)][1][query.active].sum())

    return note


def install(tracer):
    """Wrap every traced attribute of the package."""
    postings = _postings_note()
    targets = [
        ("datasets", "center", "datasets.center", _center_bytes),
        ("evalbench", "center", "datasets.center", _center_bytes),
        ("datasets", "protocol_split", "datasets.protocol_split", None),
        ("evalbench", "protocol_split", "datasets.protocol_split", None),
        ("datasets", "sample_circle", "datasets.sample_circle", None),
        ("plasticity", "train", "plasticity.train", _keep_model),
        ("plasticity", "apply_batch", "plasticity.apply_batch", _matmul_flop),
        ("plasticity", "_energy_arrays", "plasticity.energy_pass", _matmul_flop),
        ("hashers", "topk_rows", "hashers.topk_rows", None),
        *[("hashers", f"{m}_encode_many", f"hashers.encode.{m}", _rows) for m in METHODS],
        ("hashers", "pcahash_fit", "hashers.pcahash_fit", None),
        ("hashers", "build_projection", "hashers.build_projection", None),
        ("codebank", "CodeBank.__post_init__", "codebank.build", None),
        ("codebank", "CodeBank.save", "codebank.save", None),
        ("codebank", "CodeBank.load", "codebank.load", None),
        ("codebank", "scan_distances", "codebank.scan_distances", postings),
        ("evalbench", "scan_distances", "codebank.scan_distances", postings),
        ("codebank", "linear_scan", "codebank.linear_scan", None),
        ("evalbench", "run_protocol", "evalbench.run_protocol", _method),
        ("evalbench", "evaluate_queries", "evalbench.evaluate_queries", None),
        ("evalbench", "ground_truth_knn", "evalbench.ground_truth_knn", None),
        ("toymodel", "empirical_unit_angles", "toymodel.empirical_unit_angles", None),
        ("toymodel", "write_toy_csv", "toymodel.write_toy_csv", None),
        ("cli", "main", "cli.main", None),
        ("cli", "cmd_toy", "cli.toy", None),
    ]
    for module, attr, name, note in targets:
        tracer.wrap(f"biohash.{module}", attr, name, note)


# ---------------------------------------------------------------- outside

def after_training(tracer, iterations: int) -> dict:
    """Work done once after the traced iterations, with tracing off: one
    timed energy call on the last trained model, and the fraction of units
    that win no training sample, averaged over the models trained in the
    last traced iteration."""
    from biohash import plasticity

    kept = [s.attrs for s in tracer.spans if "model" in s.attrs]
    if not kept:
        return {"energy_s": 0.0, "dead_units_frac": 0.0}
    last = kept[-1]
    t0 = time.perf_counter()
    plasticity.energy(last["model"], last["data"])
    energy_s = time.perf_counter() - t0
    dead = []
    for attrs in kept[-(len(kept) // iterations):]:
        sm, X = attrs["model"], attrs["data"]
        eff = plasticity.effective_weights(sm.weights, sm.config.p)
        won = np.zeros(sm.m, dtype=bool)
        for start in range(0, X.shape[0], 4096):
            xb = np.asarray(X[start:start + 4096], dtype=np.float64)
            won[np.argmax(xb @ eff.T, axis=1)] = True
        dead.append(1.0 - won.mean())
    return {"energy_s": energy_s, "dead_units_frac": float(np.mean(dead))}


# ---------------------------------------------------------------- metrics

class _Table:
    """Span totals per traced iteration, optionally limited to the spans
    under one benchmark phase (the root span's name)."""

    def __init__(self, tracer, iterations: int):
        self.spans = tracer.spans
        self.own = tracer.self_seconds()
        self.iterations = iterations
        root_name = {s.span_id: s.name for s in self.spans if s.parent is None}
        self.phase = {s.span_id: root_name.get(s.root) for s in self.spans}

    def select(self, name=None, phase=None):
        return [s for s in self.spans
                if (name is None or s.name == name)
                and (phase is None or self.phase[s.span_id] == phase)]

    def seconds(self, name, phase=None, where=None):
        spans = [s for s in self.select(name, phase) if where is None or where(s)]
        return sum(s.seconds for s in spans) / self.iterations

    def count(self, name, phase=None):
        return len(self.select(name, phase)) / self.iterations

    def attr(self, name, key, phase=None, where=None):
        spans = [s for s in self.select(name, phase) if where is None or where(s)]
        return sum(s.attrs.get(key, 0) for s in spans) / self.iterations

    def self_seconds(self, name, phase=None):
        return sum(self.own[s.span_id] for s in self.select(name, phase)) / self.iterations

    def us_per_call(self, name, phase=None):
        n = self.count(name, phase)
        return self.seconds(name, phase) / n * 1e6 if n else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, iterations, quality, extras, cpu_per_wall,
                      cell_untraced_s, cell_traced_s, file_bytes) -> dict:
    t = _Table(tracer, iterations)
    out = {
        "datasets.center.s": t.seconds("datasets.center"),
        "datasets.center.bytes": t.attr("datasets.center", "bytes"),
        "datasets.sample_circle.s": t.seconds("datasets.sample_circle"),
    }

    train_s = t.seconds("plasticity.train")
    in_train = set(s.span_id for s in t.select("plasticity.train"))
    under_train = lambda s: s.parent in in_train  # noqa: E731
    batch_flop = t.attr("plasticity.apply_batch", "flop")
    energy_flop = t.attr("plasticity.energy_pass", "flop", where=under_train)
    gflop = (batch_flop + energy_flop) / 1e9
    out.update({
        "plasticity.train.s": train_s,
        "plasticity.epochs": t.attr("plasticity.train", "epochs"),
        "plasticity.apply_batch.calls": t.count("plasticity.apply_batch"),
        "plasticity.apply_batch.us_per_call": t.us_per_call("plasticity.apply_batch"),
        "plasticity.train.self_s":
            train_s - t.seconds("plasticity.apply_batch", where=under_train),
        "plasticity.energy.s": extras["energy_s"],
        "plasticity.train.gflop": gflop,
        "plasticity.train.gflop_per_s": _ratio(gflop, train_s),
        "plasticity.dead_units_frac": extras["dead_units_frac"],
    })

    for m in METHODS:
        name = f"hashers.encode.{m}"
        seconds = t.seconds(name)
        out[f"hashers.encode.s.{m}"] = seconds
        out[f"hashers.encode.rows_per_s.{m}"] = _ratio(t.attr(name, "rows"), seconds)
    out.update({
        "hashers.topk_rows.s": t.seconds("hashers.topk_rows"),
        "hashers.topk_rows.share": _ratio(t.seconds("hashers.topk_rows", "bench.cell"),
                                          cell_traced_s),
        "hashers.pcahash_fit.s": t.seconds("hashers.pcahash_fit"),
        "hashers.build_projection.s": t.seconds("hashers.build_projection"),
    })

    scan_calls = t.count("codebank.scan_distances", "bench.cell")
    out.update({
        "codebank.build.s": t.seconds("codebank.build"),
        "codebank.save.s": t.seconds("codebank.save"),
        "codebank.load.s": t.seconds("codebank.load"),
        "codebank.file_bytes": file_bytes,
        "codebank.scan_distances.calls": scan_calls,
        "codebank.scan_distances.us_per_call":
            t.us_per_call("codebank.scan_distances", "bench.cell"),
        "codebank.postings_per_query":
            _ratio(t.attr("codebank.scan_distances", "postings", "bench.cell"), scan_calls),
        "codebank.linear_scan.us_per_call": t.us_per_call("codebank.linear_scan", "bench.search"),
    })

    for m in METHODS:
        out[f"evalbench.cell.s.{m}"] = t.seconds(
            "evalbench.run_protocol", where=lambda s, m=m: s.attrs.get("method") == m)
    out["evalbench.evaluate_queries.self_s"] = t.self_seconds("evalbench.evaluate_queries")
    out["evalbench.ground_truth_knn.s"] = t.seconds("evalbench.ground_truth_knn")
    for m in METHODS:
        out[f"evalbench.map_pct.{m}"] = quality.get(f"map_pct.{m}", 0.0)
    out["toymodel.gap_err_pct"] = quality.get("gap_err_pct", 0.0)
    out["cli.toy.self_s"] = t.self_seconds("cli.toy")

    module_self = defaultdict(float)
    for s in t.select(phase="bench.cell"):
        module_self[s.name.split(".")[0]] += t.own[s.span_id] / iterations
    for mod in MODULES:
        out[f"{mod}.cell_self_s"] = module_self[mod]
    out.update({
        "proc.cpu_per_wall": cpu_per_wall,
        "trace.overhead_s": cell_traced_s - cell_untraced_s,
        "trace.cell_self_sum_s": sum(module_self[mod] for mod in MODULES),
        "trace.missing_layers": len(tracer.missing),
        "trace.note_errors": tracer.note_errors,
    })
    return out
