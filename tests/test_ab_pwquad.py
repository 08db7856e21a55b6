"""``scripts/ab_pwquad.py`` times the benchmark's own solves, built from each tree's package.

Its loader executes ``bench/workloads.py`` against a source tree's
package imported under another name; the setups it builds must be the
benchmark's, made of that tree's classes, and the process's own
``cautious_lbfgs`` must be left in place.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

import cautious_lbfgs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
AB_SCRIPT = ROOT / "scripts" / "ab_pwquad.py"
SEED = 3


def load_file(name, path):
    """The Python file at ``path``, executed as module ``name`` (registered, as ``@dataclass`` requires)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@functools.cache
def bench_workloads():
    """bench/workloads.py against ``cautious_lbfgs``, as bench/run.py imports it."""
    return load_file("bench_workloads", ROOT / "bench" / "workloads.py")


@functools.cache
def loaded_src():
    """(package, workloads module, sys.modules' cautious_lbfgs entries before, after) of the loader on src."""
    ab = load_file("ab_pwquad", AB_SCRIPT)
    names = ("cautious_lbfgs", "cautious_lbfgs.cli")
    before = [sys.modules.get(name) for name in names]
    lib, workloads = ab.load(str(SRC), "ab_src")
    return lib, workloads, before, [sys.modules.get(name) for name in names]


@pytest.mark.parametrize("name", sorted(bench_workloads().WORKLOADS))
def test_loader_builds_the_benchmarks_setup_from_the_trees_package(name):
    lib, workloads, before, after = loaded_src()
    assert after == before
    assert before[0] is cautious_lbfgs
    setup = workloads.WORKLOADS[name].build(SEED)
    reference = bench_workloads().WORKLOADS[name].build(SEED)
    assert workloads.starts_digest(setup.starts) == bench_workloads().starts_digest(reference.starts)
    cls = type(reference.problem).__name__
    assert isinstance(setup.problem, getattr(lib, cls))
    assert not isinstance(setup.problem, getattr(cautious_lbfgs, cls))
    assert setup.configs == reference.configs
    assert (setup.f_ref, setup.x_ref.tobytes()) == (reference.f_ref, reference.x_ref.tobytes())
