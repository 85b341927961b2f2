"""The helper scripts under scripts/, loaded as modules."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunBenchmarks:
    def test_load_glove_reads_every_line(self, tmp_path):
        (tmp_path / "glove").mkdir()
        (tmp_path / "glove" / "glove.test.txt").write_text(
            "cat 1.0 2.0\ndog 3.0 4.0\nemu 5.0 6.0\n")
        ds = load_script("run_benchmarks").load_glove(tmp_path)
        assert ds.words == ["cat", "dog", "emu"]
        np.testing.assert_allclose(ds.data, [[1, 2], [3, 4], [5, 6]])
