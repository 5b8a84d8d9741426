"""The goldens under other OpenBLAS kernels, thread counts and hash seeds.

The scorer screens each sample with a float32 ``sgemv`` and leaves to
float64 every sample whose margin lies within ``objective._screen_width``,
a bound that holds in any summation order, FMA included. So no output may
depend on the kernel numpy's OpenBLAS picks, on its thread count or on the
hash seed. For each setting of ``OPENBLAS_CORETYPE``,
``OPENBLAS_NUM_THREADS`` and ``PYTHONHASHSEED`` below, two subprocesses
run ``tests/blas_probe.py``:

- ``python -m fusionopt compare`` on a copy of ``data/synthetic``: its CSV
  and six JSONs must equal ``tests/golden/``;
- ``compare`` on a 3,000-sample corpus of 5 models and 5 classes from
  ``bench/corpus.py``: its CSV and six JSONs must equal those of the same
  command under this process's own kernel;
- the six K=3 searches of ``test_golden_k3.py``, each equal to its golden,
  and the scorer on ``synthdata.near_tie_dataset``: for each of its weight
  vectors the error count must equal a float64-only reference's.

Prescott's kernels have no FMA and Haswell's do, so their raw float32
screens of the near-tie data differ; one test checks that they do, or the
count check would show nothing. Each subprocess prints its kernel's name,
so the tests also check that the override took effect. Where numpy's BLAS
is not OpenBLAS built with ``DYNAMIC_ARCH``, every test here skips.
"""

import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import fusionopt
from blas_probe import openblas_text
from fusionopt.cli import COMPARISON_ORDER
from fusionopt.optimizers import METHODS

TESTS = Path(__file__).resolve().parent
BUNDLED = TESTS.parent / "data" / "synthetic"
GOLDEN = TESTS / "golden"
CORPUS_SCRIPT = TESTS.parent / "bench" / "corpus.py"
OUTPUTS = ["comparison.csv", *(f"comparison.{method}.json" for method in COMPARISON_ORDER)]

# The names OpenBLAS reports for the forced kernels: it calls Prescott's "Katmai".
CORE_NAMES = {"Prescott": "Katmai", "Haswell": "Haswell"}


def _skip_reason():
    if platform.machine() not in ("x86_64", "AMD64"):
        return "the Prescott and Haswell kernels are x86-64 kernels"
    config = openblas_text("config")
    if config is None:
        return "numpy's BLAS is not OpenBLAS, so OPENBLAS_CORETYPE picks no kernel"
    if "DYNAMIC_ARCH" not in config.split():
        return f"numpy's OpenBLAS ({config}) is built without DYNAMIC_ARCH, so it has one kernel"
    return None


def _cpu_flags() -> set[str]:
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        return {flag for line in info if line.startswith("flags") for flag in line.split()}


SKIP = _skip_reason()
pytestmark = pytest.mark.skipif(SKIP is not None, reason=str(SKIP))
# Haswell's kernels use AVX2 and FMA, which not every x86-64 CPU has.
NEEDS_HASWELL = pytest.mark.skipif(SKIP is None and not {"avx2", "fma"} <= _cpu_flags(),
                                   reason="this CPU cannot run Haswell's kernels")
PRESCOTT, HASWELL = ("Prescott", 1, 0), ("Haswell", 1, 12345)
SETTINGS = [
    pytest.param(PRESCOTT, id="Prescott-1thread-hash0"),
    pytest.param(("Prescott", 2, 12345), id="Prescott-2threads-hash12345"),
    pytest.param(HASWELL, marks=NEEDS_HASWELL, id="Haswell-1thread-hash12345"),
    pytest.param(("Haswell", 2, 0), marks=NEEDS_HASWELL, id="Haswell-2threads-hash0"),
]


def _probe(setting, *args):
    """The kernel name and the rest of ``blas_probe.py``'s stdout, run under ``setting``."""
    core, threads, hash_seed = setting
    src = Path(fusionopt.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(TESTS)]),
           "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONHASHSEED": str(hash_seed)}
    run = subprocess.run([sys.executable, str(TESTS / "blas_probe.py"), *args], env=env,
                         capture_output=True, text=True, timeout=120, check=False)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    name, out = run.stdout.split("\n", 1)
    assert name == CORE_NAMES[core]
    return out


@cache
def _searches(setting):
    return json.loads(_probe(setting, "searches"))


@pytest.mark.parametrize("setting", SETTINGS)
def test_compare_matches_the_goldens(tmp_path, setting):
    corpus = shutil.copytree(BUNDLED, tmp_path / "synthetic")
    _probe(setting, "compare", "--manifest", str(corpus / "manifest.json"))
    assert (corpus / "comparison.csv").read_bytes() == (GOLDEN / "compare.csv").read_bytes()
    for method in COMPARISON_ORDER:
        written = (corpus / f"comparison.{method}.json").read_bytes()
        assert written == (GOLDEN / f"optimize.{method}.json").read_bytes(), method


@pytest.fixture(scope="module")
def k5_corpus(tmp_path_factory):
    """A K = 5, M = 5 corpus and its ``compare`` outputs under this process's kernel."""
    spec = importlib.util.spec_from_file_location("bench_corpus", CORPUS_SCRIPT)
    corpus = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(corpus)
    root = tmp_path_factory.mktemp("k5") / "corpus"
    corpus.write_corpus(root, 5, 3000, 5, 5)
    reference = shutil.copytree(root, root.parent / "reference")
    src = Path(fusionopt.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-m", "fusionopt", "compare",
                    "--manifest", str(reference / "manifest.json")],
                   env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                   timeout=120, check=True)
    return root, {name: (reference / name).read_bytes() for name in OUTPUTS}


@pytest.mark.parametrize("setting", SETTINGS)
def test_k5_compare_matches_this_process_kernel(tmp_path, setting, k5_corpus):
    root, expected = k5_corpus
    corpus = shutil.copytree(root, tmp_path / "corpus")
    _probe(setting, "compare", "--manifest", str(corpus / "manifest.json"))
    for name in OUTPUTS:
        assert (corpus / name).read_bytes() == expected[name], name


@pytest.mark.parametrize("setting", SETTINGS)
def test_k3_searches_match_the_goldens(setting):
    results = _searches(setting)["k3"]
    for method in METHODS:
        assert results[method] == (GOLDEN / f"k3.{method}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("setting", SETTINGS)
def test_near_tie_counts_equal_the_float64_reference(setting):
    near_ties = _searches(setting)["near_ties"]
    assert [tie["accuracy"] for tie in near_ties] == [tie["reference"] for tie in near_ties]


@NEEDS_HASWELL
def test_the_near_tie_screens_differ_between_kernels():
    screens = [[tie["screen"] for tie in _searches(setting)["near_ties"]]
               for setting in (PRESCOTT, HASWELL)]
    assert screens[0] != screens[1]
