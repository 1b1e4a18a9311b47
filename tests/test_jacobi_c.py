"""The C sweep kernel: its results against the numpy kernel bit for bit,
the root's overflow guard included, and the silent fallback to the numpy
kernel wherever the C file cannot be built or loaded."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smith_spectra import _jacobi_c, _jacobi_py, eig
from smith_spectra.matrices import IntegerSet, divisibility_gram, gcd_matrix, lcm_matrix

PACKAGE = Path(_jacobi_c.__file__).parent

needs_c = pytest.mark.skipif(
    eig.default_backend() != "c",
    reason="the C sweep is not the active kernel: no cc on PATH, or its build or load failed")


def _bits_equal(x: np.ndarray, y: np.ndarray) -> bool:
    return x.tobytes() == y.tobytes()


@st.composite
def symmetric_integer_matrices(draw) -> np.ndarray:
    n = draw(st.integers(1, 12))
    entries = draw(st.lists(st.integers(-20, 20), min_size=n * n, max_size=n * n))
    a = np.array(entries, dtype=np.float64).reshape(n, n)
    return np.tril(a) + np.tril(a, -1).T


def _assert_kernels_agree(a: np.ndarray) -> None:
    by_c, by_numpy = a.copy(), a.copy()
    threshold = 1e-12 * float(np.sqrt(np.sum(a * a)))  # what eig passes: DEFAULT_TOL * ||A||_F
    assert (_jacobi_c.cyclic_jacobi(by_c, threshold, 100)
            == _jacobi_py.cyclic_jacobi(by_numpy, threshold, 100))
    assert _bits_equal(by_c, by_numpy)


@needs_c
@settings(max_examples=200, deadline=None)
@given(symmetric_integer_matrices())
def test_c_and_numpy_kernels_are_bit_identical(a):
    _assert_kernels_agree(a)


@needs_c
@pytest.mark.parametrize("build", [
    lambda n: gcd_matrix(IntegerSet.first_n(n)),
    lambda n: lcm_matrix(IntegerSet.first_n(n)),
    divisibility_gram,
], ids=["gcd", "lcm", "divisibility_gram"])
def test_c_and_numpy_kernels_are_bit_identical_on_the_families(build):
    # verify solves gcd and lcm up to n = 80
    for n in (*range(1, 61), 64, 80, 97):
        _assert_kernels_agree(np.array(build(n).entries, dtype=np.float64))


# a_01 = 2^-520 against the diagonal gap 1: the first rotation's tau is
# 2^519, past the 2^500 guard and past 2^512, where tau^2 overflows
TINY = 2.0 ** -520


@pytest.mark.parametrize("sweep", [
    _jacobi_py._sweep,
    pytest.param(lambda a: _jacobi_c._sweep(a), marks=needs_c),
], ids=["numpy", "c"])
def test_guarded_root_rotates(sweep):
    # tau = 2^519: the guard's root |tau| gives t = 2^-520 and a_00 =
    # -t a_01 = -2^-1040 (subnormal, exact); the unguarded root would be
    # inf, giving t = 0 and a_00 = 0
    a = np.array([[0.0, TINY], [TINY, 1.0]])
    sweep(a)
    assert a.tolist() == [[-(2.0 ** -1040), 0.0], [0.0, 1.0]]


@needs_c
def test_c_and_numpy_kernels_are_bit_identical_past_the_root_guard():
    # the large a_12 keeps the off-diagonal norm far above the threshold,
    # so the guarded rotation (0, 1) runs inside full sweeps; (0, 2) then
    # meets a tiny a_02 against a gap of 3, past the guard with tau < 0
    a = np.array([[0.0, TINY, 0.0], [TINY, 1.0, 1.0], [0.0, 1.0, 3.0]])
    _assert_kernels_agree(a)


# -- the loader -------------------------------------------------------------

# run in a fresh interpreter on a copy of the package; exit 0 if the numpy
# kernel is the one that ran, 3 if not
CHILD = """
import numpy as np
from smith_spectra import _jacobi_py, eig
spec = eig.jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
fallback = (eig.default_backend() == "python" and eig._kernel is _jacobi_py
            and list(eig.available_backends()) == ["python"])
assert spec.eigenvalues == (1.0, 3.0)
raise SystemExit(0 if fallback else 3)
"""


def _package_copy(root: Path) -> Path:
    copy = root / "smith_spectra"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def _run_child(root: Path, path: str) -> subprocess.CompletedProcess:
    env = {"PATH": path, "PYTHONPATH": str(root)}
    return subprocess.run([sys.executable, "-c", CHILD], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)


def _assert_silent_fallback(proc: subprocess.CompletedProcess) -> None:
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


@needs_c
def test_clean_copy_builds_the_c_kernel(tmp_path):
    # the control for the failures below: the same copy, left alone, runs C
    _package_copy(tmp_path)
    proc = _run_child(tmp_path, os.environ.get("PATH", os.defpath))
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "")


@needs_c
def test_build_removes_libraries_of_older_sources(tmp_path):
    # what an edit of _jacobi_c.c used to leave behind: the build of the
    # old source beside the new one
    copy = _package_copy(tmp_path)
    cache = copy / "__pycache__"
    cache.mkdir()
    stale = cache / "_jacobi_c-00000000.so"
    stale.write_bytes(b"\x7fELF, an older build\n")
    other = cache / "other-00000000.so"
    other.write_bytes(b"not ours")
    proc = _run_child(tmp_path, os.environ.get("PATH", os.defpath))
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "")
    target = _jacobi_c.library_path(copy / "_jacobi_c.c", cache)
    assert sorted(cache.glob("_jacobi_c-*")) == [target]
    assert other.read_bytes() == b"not ours"


def test_no_compiler_falls_back_to_numpy(tmp_path):
    _package_copy(tmp_path)
    empty = tmp_path / "bin"
    empty.mkdir()
    _assert_silent_fallback(_run_child(tmp_path, str(empty)))
    assert not list((tmp_path / "smith_spectra").glob("__pycache__/*.so"))


def test_unwritable_cache_falls_back_to_numpy(tmp_path):
    # a file where the cache directory belongs: nothing can be written
    # under it, whoever runs the test (chmod would not stop root)
    copy = _package_copy(tmp_path)
    (copy / "__pycache__").write_text("")
    _assert_silent_fallback(_run_child(tmp_path, os.environ.get("PATH", os.defpath)))


def test_corrupt_cached_library_falls_back_to_numpy(tmp_path):
    copy = _package_copy(tmp_path)
    target = _jacobi_c.library_path(copy / "_jacobi_c.c", copy / "__pycache__")
    target.parent.mkdir()
    target.write_bytes(b"\x7fELF, but not a library\n")
    _assert_silent_fallback(_run_child(tmp_path, os.environ.get("PATH", os.defpath)))


def test_half_written_library_is_never_loaded(tmp_path, monkeypatch):
    # a compiler that dies after writing half its output: the load must
    # fail cleanly, and nothing may be left under the library's name
    copy = _package_copy(tmp_path)
    cache = copy / "__pycache__"
    target = _jacobi_c.library_path(copy / "_jacobi_c.c", cache)
    log = tmp_path / "cc.log"
    fake = tmp_path / "bin" / "cc"
    fake.parent.mkdir()
    fake.write_text(
        "#!/bin/sh\n"
        "while [ \"$1\" != -o ]; do shift; done\n"
        f"echo \"$2\" > {log}\n"
        "printf '\\177ELF half' > \"$2\"\n"
        "exit 1\n")
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", str(fake.parent))
    assert _jacobi_c.load(copy / "_jacobi_c.c", cache) is None
    written = Path(log.read_text().strip())
    assert written.parent == cache and written != target
    assert list(cache.iterdir()) == []
