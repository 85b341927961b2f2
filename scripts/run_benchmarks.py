"""Reproduce the headline retrieval benchmarks.

Each suite trains on the full image/embedding pool, encodes database and
queries, and reports mAP per hash length. Datasets are read from --data
(default ./data) as README "Data layout" describes; scripts/fetch_*.py
write them there. Tables go to stdout, raw reports to --out as jsonl.

    python3 scripts/run_benchmarks.py --suite mnist
    python3 scripts/run_benchmarks.py --suite all --out reports
"""

import argparse
import sys
from pathlib import Path

from biohash import convnet, datasets, evalbench

# ----------------------------------------------------------------- suites

def flat_table(ds, protocol, methods, ks, seed):
    reports = []
    for method in methods:
        for k in ks:
            rep = evalbench.run_protocol(ds, protocol, method, k, seed=seed)
            print(f"  {protocol} {method} k={k}: mAP {rep.map_percent:.2f} "
                  f"(train {rep.train_seconds:.1f}s)")
            reports.append(rep)
    print(evalbench.format_table(reports))
    return reports


def suite_mnist(args):
    ds = datasets.load_dir("idx", args.data)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    return flat_table(ds, "mnist_label", methods, args.ks, args.seed)


def suite_cifar(args):
    ds = datasets.load_dir("cifar", args.data)
    ks = [k for k in args.ks if k in (2, 8, 32)] or args.ks
    return flat_table(ds, "cifar_label", ["biohash"], ks, args.seed)


def suite_mnist_euclid(args):
    ds = datasets.load_dir("idx", args.data)
    ks = [k for k in args.ks if k <= 8] or args.ks
    return flat_table(ds, "mnist_euclid100", ["biohash"], ks, args.seed)


def suite_conv_mnist(args):
    ds = datasets.load_dir("idx", args.data)
    config = convnet.mnist_conv_config(filters=args.filters)
    rep = evalbench.run_protocol(ds, "mnist_label", "bioconvhash", 2,
                                 seed=args.seed, conv_config=config)
    print(f"  conv mnist k=2 ({args.filters} filters): "
          f"mAP {rep.map_percent:.2f} (train {rep.train_seconds:.0f}s, "
          f"scan {rep.scan_seconds:.0f}s)")
    return [rep]


def suite_ablation(args):
    """Per-location channel inhibition width versus retrieval quality."""
    ds = datasets.load_dir("idx", args.data)
    reports = []
    for k_ci in (1, 10, 100):
        config = convnet.mnist_conv_config(k_ci=k_ci)
        rep = evalbench.run_protocol(ds, "mnist_label", "bioconvhash", 8,
                                     seed=args.seed, conv_config=config)
        print(f"  conv mnist k=8 k_ci={k_ci}: mAP {rep.map_percent:.2f}")
        reports.append(rep)
    return reports


def suite_shadow_cifar(args):
    """Global intensity gradient on queries: conv codes should not move,
    plain codes collapse."""
    ds = datasets.load_dir("cifar", args.data)
    reports = []
    for method, shadow in (("bioconvhash", False), ("bioconvhash", True),
                           ("biohash", True)):
        conv_config = convnet.cifar_conv_config() \
            if method == "bioconvhash" else None
        rep = evalbench.run_protocol(ds, "cifar_label", method, 8,
                                     seed=args.seed, conv_config=conv_config,
                                     shadow_queries=shadow)
        tag = "shadow" if shadow else "clean"
        print(f"  cifar {method} k=8 {tag}: mAP {rep.map_percent:.2f}")
        reports.append(rep)
    return reports


def suite_smoothness(args):
    ds = datasets.load_dir("idx", args.data)
    rep = evalbench.run_protocol(ds, "mnist_label", "biohash", 16,
                                 seed=args.seed, smoothness_pairs=100_000)
    print(f"  mnist biohash k=16: mAP {rep.map_percent:.2f}, "
          f"band correlation top10 {rep.smooth_top:.1f} / "
          f"bottom10 {rep.smooth_bottom:.1f}")
    return [rep]


def suite_glove(args):
    ds = datasets.load_dir("glove", args.data)
    rep = evalbench.run_protocol(ds, "glove_partition", "biohash", 2,
                                 seed=args.seed, partitions=10)
    print(f"  glove biohash k=2: mAP {rep.map_percent:.2f} "
          f"(mean over 10 database partitions)")
    return [rep]


RUNNERS = {
    "mnist": suite_mnist,
    "cifar": suite_cifar,
    "mnist-euclid": suite_mnist_euclid,
    "conv-mnist": suite_conv_mnist,
    "ablation": suite_ablation,
    "shadow-cifar": suite_shadow_cifar,
    "smoothness": suite_smoothness,
    "glove": suite_glove,
}
SUITES = tuple(RUNNERS)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--suite", default="mnist",
                    choices=SUITES + ("all",))
    ap.add_argument("--data", type=Path, default=Path("data"))
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for per-suite jsonl reports")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--k", default="2,4,8,16,32",
                    help="hash lengths for the flat suites")
    ap.add_argument("--methods",
                    default="biohash,naivebiohash,flyhash,simhash,pcahash",
                    help="methods for the mnist suite")
    ap.add_argument("--filters", type=int, default=500,
                    help="filters per branch for conv-mnist")
    return ap


def main() -> int:
    args = build_parser().parse_args()
    args.ks = [int(tok) for tok in args.k.split(",") if tok.strip()]

    names = SUITES if args.suite == "all" else (args.suite,)
    for name in names:
        print(f"== {name} ==")
        try:
            reports = RUNNERS[name](args)
        except FileNotFoundError as exc:
            sys.exit(str(exc))
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / f"{name}.jsonl"
            evalbench.write_reports_jsonl(path, reports)
            print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
