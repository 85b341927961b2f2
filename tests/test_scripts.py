"""The helper scripts under scripts/, loaded as modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunBenchmarks:
    @pytest.mark.parametrize("suite,fetch", [("mnist", "fetch_mnist.py"),
                                             ("shadow-cifar", "fetch_cifar10.py"),
                                             ("glove", "fetch_glove.py")])
    def test_missing_data_exits_with_pointer(self, tmp_path, monkeypatch, suite, fetch):
        monkeypatch.setattr(sys, "argv", ["run_benchmarks.py", "--suite", suite,
                                          "--data", str(tmp_path)])
        with pytest.raises(SystemExit) as info:
            load_script("run_benchmarks").main()
        assert fetch in str(info.value.code)
        assert str(tmp_path) in str(info.value.code)

    def test_every_suite_choice_has_a_runner(self):
        script = load_script("run_benchmarks")
        suite = script.build_parser()._option_string_actions["--suite"]
        assert suite.choices[-1] == "all"
        assert list(suite.choices[:-1]) == list(script.RUNNERS)
