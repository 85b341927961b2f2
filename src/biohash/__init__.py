"""Sparse similarity-search toolkit: plasticity-trained hash functions,
random-projection baselines, a convolutional variant, Hamming retrieval,
benchmark protocols, and analytic circle-data oracles.

Submodules and their public names load lazily so that importing the
package stays cheap and the command-line front end can cap BLAS thread
counts before any numeric library initializes.
"""

import importlib

__version__ = "0.1.0"

# one canonical name per hashing method: hashers.METHODS specifies the flat
# ones and convnet the last; kept here, away from numpy, so the command line
# can offer them before it caps BLAS threads
METHODS = ("biohash", "naivebiohash", "flyhash", "simhash", "pcahash", "bioconvhash")

_SUBMODULES = (
    "cli",
    "codebank",
    "convnet",
    "datasets",
    "errors",
    "evalbench",
    "hashers",
    "plasticity",
    "seeds",
    "toymodel",
)

# name -> home submodule for re-exported symbols
_EXPORTS = {
    "BioHashError": "errors",
    "DataSet": "datasets",
    "ProtocolSplit": "datasets",
    "CircleDensity": "datasets",
    "load_idx": "datasets",
    "load_cifar10_bin": "datasets",
    "load_glove_text": "datasets",
    "load_bhm1": "datasets",
    "save_bhm1": "datasets",
    "protocol_split": "datasets",
    "center": "datasets",
    "shadow_transform": "datasets",
    "sample_circle": "datasets",
    "LearningConfig": "plasticity",
    "SynapseMatrix": "plasticity",
    "TrainingLog": "plasticity",
    "train": "plasticity",
    "energy": "plasticity",
    "save_weights": "plasticity",
    "load_weights": "plasticity",
    "SparseHashCode": "hashers",
    "DenseHashCode": "hashers",
    "biohash_encode_many": "hashers",
    "build_projection": "hashers",
    "flyhash_encode_many": "hashers",
    "simhash_encode_many": "hashers",
    "pcahash_fit": "hashers",
    "pcahash_encode_many": "hashers",
    "save_codes": "hashers",
    "load_codes": "hashers",
    "CodeBank": "codebank",
    "RankedRetrieval": "codebank",
    "linear_scan": "codebank",
    "storage_bits": "codebank",
    "ConvBranch": "convnet",
    "ConvConfig": "convnet",
    "FilterBank": "convnet",
    "ConvModel": "convnet",
    "conv_fit": "convnet",
    "conv_encode_many": "convnet",
    "mnist_conv_config": "convnet",
    "cifar_conv_config": "convnet",
    "EvalReport": "evalbench",
    "run_protocol": "evalbench",
    "activity_sweep": "evalbench",
    "mean_ap": "evalbench",
    "ground_truth_knn": "evalbench",
    "analytic_m2": "toymodel",
    "solve_psi_m3": "toymodel",
    "kl_divergence": "toymodel",
    "false_negative_prob": "toymodel",
    "empirical_unit_angles": "toymodel",
    "substream": "seeds",
    "subseed": "seeds",
}

__all__ = ["__version__", "METHODS", *_SUBMODULES, *_EXPORTS]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    home = _EXPORTS.get(name)
    if home is not None:
        return getattr(importlib.import_module(f".{home}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
