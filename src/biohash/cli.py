"""Command-line front end: train, encode, search, eval, sweep, toy.

Every run fans all randomness out of one --seed through named
sub-streams, and every output artifact gets a JSON sidecar echoing the
full run configuration. Heavy numeric imports happen inside the command
handlers, after the thread cap from --threads (or the BIOHASH_THREADS
environment variable) is exported, so BLAS pools honor it. The cap is
for BLAS pools only: the batch encoders' threads and the toy's worker
processes take one per usable core (the CPU affinity, which `taskset`
sets).

Exit codes: 0 success, 2 usage or configuration error, 3 data or file
error (`OSError`, `errors.DataError`), 4 numeric failure
(`errors.NumericError`, `FloatingPointError`).
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import METHODS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

_PROTOCOLS = ("mnist_label", "mnist_euclid100", "cifar_label", "glove_partition")


# ---------------------------------------------------------------- loading

def _load_dataset(args, which: str = "all"):
    """Build one DataSet from --data/--format. A directory goes through
    `datasets.load_dir`, where `which` picks the train files only or the
    full train+test pool; a file goes to its format's loader."""
    from . import datasets

    path = Path(args.data)
    top_n = args.glove_top or None
    if args.format != "bhm1" and path.is_dir():
        return datasets.load_dir(args.format, path, which, top_n)
    if args.format == "idx":
        return datasets.load_idx(path, args.labels)
    if args.format == "cifar":
        return datasets.load_cifar10_bin([path])
    if args.format == "glove":
        return datasets.load_glove_text(path, top_n)
    return datasets.load_bhm1(path)


# ---------------------------------------------------------------- sidecars

def _echo_config(args, **extra):
    cfg = {}
    for key, val in sorted(vars(args).items()):
        if key == "func" or callable(val):
            continue
        cfg[key] = str(val) if isinstance(val, Path) else val
    cfg.update(extra)
    return cfg


def _clean_floats(values):
    return [None if (isinstance(v, float) and math.isnan(v)) else v for v in values]


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _log_doc(log):
    return {"epochs": log.epochs, "converged": log.converged,
            "energy": _clean_floats(log.energy),
            "avg_row_norm": log.avg_row_norm,
            "learning_rate": log.learning_rate,
            "dead_units": log.dead_units,
            "seconds": log.seconds,
            "product_dtype": log.product_dtype}


# ---------------------------------------------------------------- configs

def _hash_overrides(args):
    """Only the schedule flags the user actually set, over the hash layer's
    defaults."""
    out = {}
    for field in ("p", "delta", "rank_r", "eps0", "t_max", "batch", "converge_norm"):
        val = getattr(args, field, None)
        if val is not None:
            out[field] = val
    return out


def _conv_config(args, protocol=None):
    from . import convnet

    preset = args.conv_preset
    if preset is None and protocol is not None:
        preset = "cifar" if protocol.startswith("cifar") else "mnist"
    if preset is None:
        raise ValueError("bioconvhash needs --conv-preset mnist|cifar")
    sub = args.patch_subsample
    if sub is not None and sub <= 0:
        sub = None
    kwargs = {}
    if args.filters is not None:
        kwargs["filters"] = args.filters
    if args.k_ci is not None:
        kwargs["k_ci"] = args.k_ci
    if args.patch_subsample is not None:
        kwargs["patch_subsample"] = sub
    if preset == "mnist":
        return convnet.mnist_conv_config(**kwargs)
    if preset == "cifar":
        return convnet.cifar_conv_config(**kwargs)
    raise ValueError(f"unknown conv preset {preset!r}")


def _parse_k_list(text):
    try:
        ks = [int(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"bad --k list {text!r}: {exc}") from None
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"--k entries must be >= 1, got {text!r}")
    return ks


def _parse_float_list(text, flag):
    try:
        vals = [float(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"bad {flag} list {text!r}: {exc}") from None
    if not vals:
        raise ValueError(f"{flag} got no values")
    return vals


# --------------------------------------------------------------- commands

def cmd_train(args, parser):
    from . import convnet, datasets, hashers, plasticity

    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    if not 0.0 < args.activity <= 1.0:
        raise ValueError(f"--activity must lie in (0, 1], got {args.activity}")
    spec = hashers.METHODS.get(args.method)  # None for bioconvhash
    if spec is not None and not spec.stored:
        raise ValueError(f"{args.method} is a seeded random projection; "
                         "nothing to train (use encode directly)")
    ds = _load_dataset(args, which="train")

    if spec is None:
        config = _conv_config(args)
        model, _ = convnet.conv_fit(ds, config, args.k, activity=args.activity,
                                    seed=args.seed,
                                    hash_overrides=_hash_overrides(args))
        convnet.save_conv_model(args.out, model)
        _write_json(str(args.out) + ".run.json",
                    {"kind": "bioconvhash", "k": args.k, "m": model.hash_sm.m,
                     "feature_dim": model.hash_sm.d,
                     "run_config": _echo_config(args)})
        return EXIT_OK

    mean = None
    train_ds = ds
    if not args.no_center:
        train_ds, mean = datasets.center(ds)
    # dense codes carry one bit per row, so --m can only widen sparse ones
    if args.m is not None and spec.kind == "sparse":
        m = args.m
    else:
        m = spec.m(args.k, args.activity, None, ds.d)
    sm, log = spec.fit(train_ds.data, m, args.seed, _hash_overrides(args), log_energy=True)
    plasticity.save_weights(args.out, sm)
    _write_json(str(args.out) + ".json",
                {"kind": args.method, "k": args.k, "m": sm.m,
                 "center_mean": None if mean is None else [float(v) for v in mean],
                 "log": None if log is None else _log_doc(log),
                 "run_config": _echo_config(args)})
    return EXIT_OK


def cmd_encode(args, parser):
    from . import convnet, datasets, hashers, plasticity
    from .seeds import subseed

    ds = _load_dataset(args, which="all")
    method = args.method
    sidecar = None
    if args.model is not None:
        # flat models keep kind/k in <model>.json; conv prefixes split them
        # across <prefix>.run.json (run echo) and <prefix>.json (format)
        merged = {}
        for suffix in (".run.json", ".json"):
            side_path = Path(str(args.model) + suffix)
            if side_path.exists():
                merged.update(json.loads(side_path.read_text()))
        if merged:
            sidecar = merged
            method = method or sidecar.get("kind")
    if method is None:
        raise ValueError("--method is required when the model has no sidecar")

    k = args.k if args.k is not None else (sidecar or {}).get("k")
    if method == "bioconvhash":
        if args.model is None:
            raise ValueError("bioconvhash encode needs --model PREFIX")
        model = convnet.load_conv_model(args.model)
        if k is None:
            raise ValueError("bioconvhash needs --k (no sidecar value found)")
        codes, m, kind = convnet.conv_encode_many(model, ds.data, int(k)), model.hash_sm.m, "sparse"
    else:
        spec = hashers.METHODS.get(method)
        if spec is None:
            raise ValueError(f"unknown method {method!r}")
        if spec.stored:
            if args.model is None:
                raise ValueError(f"{method} encode needs --model")
            state = plasticity.load_weights(args.model)
            mean = (sidecar or {}).get("center_mean")
            rows = ds.data if mean is None else datasets.center(ds, mean)[0].data
            if k is None and spec.kind == "sparse":
                raise ValueError(f"{method} needs --k (no sidecar value found)")
        else:
            # a projection is regenerated from --seed and hashes the raw rows
            k = args.k
            if k is None:
                raise ValueError(f"{method} needs --k")
            state, _ = spec.fit(ds.data, spec.m(k, None, args.m, ds.d),
                                subseed(args.seed, "projection"), sampling=args.sampling)
            rows = ds.data
        codes, m, kind = spec.encode(state, rows, k), state.m, spec.kind

    hashers.save_codes(args.out, codes, m, kind)
    _write_json(str(args.out) + ".json",
                {"m": int(m), "kind": kind, "k": int(codes.shape[1]),
                 "count": int(codes.shape[0]), "method": method,
                 "run_config": _echo_config(args)})
    return EXIT_OK


def cmd_search(args, parser):
    from . import codebank, hashers
    from .codebank import CodeBank
    from .errors import ShapeMismatch

    db_codes, db_m, db_kind = hashers.load_codes(args.database)
    q_codes, q_m, q_kind = hashers.load_codes(args.queries)
    if db_kind != q_kind or db_m != q_m or db_codes.shape[1] != q_codes.shape[1]:
        raise ShapeMismatch(
            f"database ({db_kind}, m={db_m}, k={db_codes.shape[1]}) vs "
            f"queries ({q_kind}, m={q_m}, k={q_codes.shape[1]})")
    bank = CodeBank(db_kind, db_m, db_codes.shape[1], db_codes)
    retrievals = [codebank.linear_scan(bank.code(row), bank, top_r=args.top, query_id=qid)
                  for qid, row in enumerate(q_codes)]
    codebank.export_results_csv(args.out, retrievals)
    _write_json(str(args.out) + ".json",
                {"queries": q_codes.shape[0], "database": db_codes.shape[0],
                 "storage_bits_per_record": codebank.storage_bits(bank),
                 "run_config": _echo_config(args)})
    return EXIT_OK


def cmd_eval(args, parser):
    from . import evalbench

    ks = _parse_k_list(args.k)
    conv_config = None
    if args.method == "bioconvhash":
        conv_config = _conv_config(args, protocol=args.protocol)
    ds = _load_dataset(args, which="all")
    reports = []
    for k in ks:
        rep = evalbench.run_protocol(
            ds, args.protocol, args.method, k, seed=args.seed,
            activity=args.activity, learn=_hash_overrides(args) or None,
            conv_config=conv_config, gt_metric=args.gt_metric,
            shadow_queries=args.shadow, flyhash_m=args.flyhash_m,
            smoothness_pairs=args.smoothness_pairs, partitions=args.partitions)
        reports.append(rep)
        print(f"{args.protocol} {args.method} k={k}: mAP {rep.map_percent:.2f} "
              f"(train {rep.train_seconds:.1f}s, scan {rep.scan_seconds:.1f}s)")
    table = evalbench.format_table(reports)
    print(table)
    if args.out:
        evalbench.write_reports_jsonl(args.out, reports)
        _write_json(str(args.out) + ".run.json", {"run_config": _echo_config(args)})
    if args.table:
        Path(args.table).write_text(table + "\n")
    return EXIT_OK


def cmd_sweep(args, parser):
    from . import datasets, evalbench
    from .seeds import subseed

    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    activities = _parse_float_list(args.activities, "--activities")
    if any(not 0.0 < a <= 1.0 for a in activities):
        raise ValueError("--activities entries must lie in (0, 1]")
    ds = _load_dataset(args, which="all")
    split = datasets.protocol_split(ds, args.protocol, subseed(args.seed, "split"))
    rows = evalbench.activity_sweep(ds, split, args.k, activities, seed=args.seed,
                                    learn=_hash_overrides(args) or None,
                                    per_class=args.per_class)
    print(f"{'activity':>10} {'m':>8} {'mAP':>8}")
    for activity, m, mp in rows:
        print(f"{activity:>10.4g} {m:>8d} {mp:>8.2f}")
    if args.out:
        _write_json(args.out, {"rows": [{"activity": a, "m": m, "map_percent": mp}
                                        for a, m, mp in rows],
                               "run_config": _echo_config(args)})
    return EXIT_OK


def cmd_toy(args, parser):
    from . import datasets, toymodel
    from .plasticity import LearningConfig
    from .seeds import subseed

    if args.m < 1:
        raise ValueError(f"--m must be >= 1, got {args.m}")
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    if args.uniform:
        sigmas = [None]
    else:
        if not args.sigma:
            raise ValueError("need --sigma values or --uniform")
        sigmas = _parse_float_list(args.sigma, "--sigma")
        if any(s <= 0 for s in sigmas):
            raise ValueError("--sigma values must be positive")
    fits, shown_with = [], []
    for sigma in sigmas:
        density = None if sigma is None else datasets.CircleDensity(sigma)
        analytic = kl1 = kl2 = None
        if sigma is not None and args.m == 2:
            hi, lo = toymodel.analytic_m2(sigma)
            analytic = [lo, hi]
        if sigma is not None and args.m == 3:
            psi = toymodel.solve_psi_m3(sigma)
            analytic = [-psi, 0.0, psi]
            kl1 = toymodel.kl_divergence(sigma, psi, 1)
            kl2 = toymodel.kl_divergence(sigma, psi, 2)
        tag = "uniform" if sigma is None else f"{sigma:g}"
        for rep in range(args.seeds):
            # circle angles equilibrate long after row norms settle, so the
            # norm-based early stop is disabled and the schedule runs long;
            # unit-length init matters at d=2, where raw init norms spread
            # so widely that short rows never win and stay frozen
            lc = LearningConfig(m=args.m, p=2.0,
                                delta=args.delta if args.delta is not None else 0.0,
                                rank_r=min(2, args.m),
                                eps0=args.eps0 if args.eps0 is not None else 5e-2,
                                t_max=args.t_max if args.t_max is not None else 300,
                                batch=100,
                                seed=subseed(args.seed, f"fit:{tag}:{rep}"),
                                converge_norm=0.0, unit_init=True)
            fits.append(toymodel.CircleFit(args.samples, density,
                                           subseed(args.seed, f"sample:{tag}:{rep}"), lc))
            shown_with.append((sigma, analytic, kl1, kl2))
    rows = []
    for (sigma, analytic, kl1, kl2), emp in zip(shown_with, toymodel.fit_circle_angles(fits)):
        shown = analytic
        if shown is None and sigma is None:
            gap = 2.0 * math.pi / args.m
            shown = [float(emp[0]) + i * gap for i in range(args.m)]
        rows.append((sigma, args.m, shown, emp, kl1, kl2))
    if args.out:
        toymodel.write_toy_csv(args.out, rows)
        _write_json(str(args.out) + ".json", {"run_config": _echo_config(args)})
    else:
        toymodel.write_toy_csv(sys.stdout, rows)
    return EXIT_OK


# ----------------------------------------------------------------- parser

def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0, help="master seed; all "
                    "randomness fans out of it through named sub-streams")
    sp.add_argument("--threads", type=int, default=None,
                    help="cap BLAS worker threads (default: all cores; "
                    "BIOHASH_THREADS is the fallback); not the encoder threads "
                    "or the toy's workers, which follow the CPU affinity")


def _add_data(sp, formats=("idx", "cifar", "glove", "bhm1")):
    sp.add_argument("--data", required=True, help="dataset file or directory")
    sp.add_argument("--format", choices=formats, default="idx")
    sp.add_argument("--labels", default=None, help="label file for a bare IDX image file")
    sp.add_argument("--glove-top", type=int, default=None,
                    help="keep only the first N embedding rows")


def _add_schedule(sp):
    sp.add_argument("--p", type=float, default=None, help="inner-product exponent")
    sp.add_argument("--delta", type=float, default=None, help="anti-alignment strength")
    sp.add_argument("--rank-r", dest="rank_r", type=int, default=None,
                    help="depressed rank (default 2)")
    sp.add_argument("--eps0", type=float, default=None, help="initial learning rate")
    sp.add_argument("--t-max", dest="t_max", type=int, default=None, help="epoch budget")
    sp.add_argument("--batch", type=int, default=None, help="minibatch size")
    sp.add_argument("--converge-norm", dest="converge_norm", type=float, default=None,
                    help="stop once the average row norm falls below this")


def _add_conv(sp):
    sp.add_argument("--conv-preset", choices=("mnist", "cifar"), default=None)
    sp.add_argument("--filters", type=int, default=None,
                    help="filters per branch (preset override)")
    sp.add_argument("--k-ci", dest="k_ci", type=int, default=None,
                    help="active channels per location (preset override)")
    sp.add_argument("--patch-subsample", dest="patch_subsample", type=int, default=None,
                    help="cap on sampled training patches; 0 keeps all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biohash",
        description="Sparse similarity-search toolkit: plasticity-trained "
                    "hashes, random-projection baselines, Hamming retrieval "
                    "and benchmark protocols.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train", help="fit a hasher and write its model file")
    _add_data(sp)
    sp.add_argument("--method", choices=METHODS, required=True)
    sp.add_argument("--k", type=int, required=True, help="hash length")
    sp.add_argument("--activity", type=float, default=0.05,
                    help="active fraction a; m = round(k / a)")
    sp.add_argument("--m", type=int, default=None, help="explicit row count override")
    sp.add_argument("--no-center", action="store_true",
                    help="skip subtracting the column mean before training")
    sp.add_argument("--out", required=True, help="model path (conv: path prefix)")
    _add_schedule(sp)
    _add_conv(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("encode", help="hash a dataset into a code bank")
    _add_data(sp)
    sp.add_argument("--model", default=None, help="model file (conv: prefix)")
    sp.add_argument("--method", choices=METHODS, default=None,
                    help="inferred from the model sidecar when omitted")
    sp.add_argument("--k", type=int, default=None, help="hash length")
    sp.add_argument("--m", type=int, default=None, help="flyhash expansion size")
    sp.add_argument("--sampling", type=float, default=0.1,
                    help="flyhash input sampling fraction")
    sp.add_argument("--out", required=True, help="code bank output path")
    _add_common(sp)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("search", help="rank a code bank against query codes")
    sp.add_argument("--database", required=True, help="database code bank")
    sp.add_argument("--queries", required=True, help="query code bank")
    sp.add_argument("--top", type=int, default=None, help="keep the best R rows")
    sp.add_argument("--out", required=True, help="CSV output path")
    _add_common(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("eval", help="run a retrieval benchmark protocol")
    _add_data(sp)
    sp.add_argument("--protocol", choices=_PROTOCOLS, required=True)
    sp.add_argument("--method", choices=METHODS, required=True)
    sp.add_argument("--k", required=True, help="hash length, or comma list")
    sp.add_argument("--activity", type=float, default=None,
                    help="active fraction (default: protocol preset)")
    sp.add_argument("--gt-metric", choices=("cosine", "euclidean"), default="cosine",
                    help="ground-truth metric for glove_partition")
    sp.add_argument("--flyhash-m", dest="flyhash_m", type=int, default=None)
    sp.add_argument("--shadow", action="store_true",
                    help="dim the bottom of every query image first")
    sp.add_argument("--smoothness-pairs", dest="smoothness_pairs", type=int, default=0,
                    help="sample pairs for the smoothness bands (0 = skip)")
    sp.add_argument("--partitions", type=int, default=10,
                    help="glove_partition repetitions")
    sp.add_argument("--out", default=None, help="JSON-lines report path")
    sp.add_argument("--table", default=None, help="plain-text table path")
    _add_schedule(sp)
    _add_conv(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sweep", help="score a hash length across activity levels")
    _add_data(sp)
    sp.add_argument("--protocol", choices=_PROTOCOLS, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--activities", required=True, help="comma list of a values")
    sp.add_argument("--per-class", dest="per_class", type=int, default=100,
                    help="validation queries per class")
    sp.add_argument("--out", default=None, help="JSON output path")
    _add_schedule(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("toy", help="circle-data oracle: analytic vs trained angles")
    sp.add_argument("--m", type=int, required=True, help="number of units")
    sp.add_argument("--sigma", default=None,
                    help="comma list of density widths (omit with --uniform)")
    sp.add_argument("--uniform", action="store_true", help="uniform circle density")
    sp.add_argument("--seeds", type=int, default=5, help="training repetitions")
    sp.add_argument("--samples", type=int, default=20000, help="points per run")
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--eps0", type=float, default=None)
    sp.add_argument("--t-max", dest="t_max", type=int, default=None)
    sp.add_argument("--out", default=None, help="CSV path (default: stdout)")
    _add_common(sp)
    sp.set_defaults(func=cmd_toy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    threads = args.threads
    if threads is None:
        env = os.environ.get("BIOHASH_THREADS")
        threads = int(env) if env else None
    if threads is not None:
        if threads < 1:
            parser.error(f"--threads must be >= 1, got {threads}")
        for var in _THREAD_VARS:
            os.environ[var] = str(threads)

    from . import errors

    try:
        return args.func(args, parser)
    except (errors.NumericError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, errors.DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, errors.BioHashError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
