"""The C sweep kernel: its hypot port against math.hypot, its results
against the numpy kernel bit for bit, and the silent fallback to the
numpy kernel wherever the C file cannot be built or loaded."""

import math
import os
import random
import shutil
import struct
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


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _bits_equal(x: np.ndarray, y: np.ndarray) -> bool:
    return x.tobytes() == y.tobytes()


@needs_c
def test_hypot_port_is_math_hypot_bit_for_bit():
    port = _jacobi_c.LIBRARY.py_hypot
    rng = random.Random(20261018)
    taus = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
            -2.2250738585072014e-308, 1e308, -1e308, math.inf, -math.inf, 1.0, -1.0]
    for i in range(100_000):
        kind = i % 3
        if kind == 0:  # every magnitude the kernel's tau takes
            taus.append(rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-20, 20))
        elif kind == 1:  # any double
            taus.append(struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0])
        else:
            taus.append(rng.uniform(-1e3, 1e3))
    mismatches = [t for t in taus if _bits(port(1.0, t)) != _bits(math.hypot(1.0, t))
                  and not math.isnan(t)]
    assert mismatches == []
    assert math.isnan(port(1.0, math.nan))


def _exponent_edges() -> list[float]:
    """Doubles with the biased exponents 1, 2, 2044, 2045 and 2046, where
    the port switches between reading the scale from the exponent bits and
    frexp/ldexp, and with 0 (zero and subnormals); a few mantissas each,
    both signs."""
    values = []
    for biased in (0, 1, 2, 2044, 2045, 2046):
        for mantissa in (0, 1, 0x8000000000000, 0xFFFFFFFFFFFFF):
            bits = (biased << 52) | mantissa
            x = struct.unpack("<d", bits.to_bytes(8, "little"))[0]
            values += [x, -x]
    return values


@needs_c
def test_hypot_port_is_math_hypot_at_the_exponent_edges():
    port = _jacobi_c.LIBRARY.py_hypot
    edges = _exponent_edges()
    pairs = [(x, y) for x in edges + [1.0, -1.0] for y in edges]
    mismatches = [(x, y) for x, y in pairs if _bits(port(x, y)) != _bits(math.hypot(x, y))]
    assert mismatches == []


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
