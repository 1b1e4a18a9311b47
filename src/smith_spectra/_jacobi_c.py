"""The cyclic-Jacobi kernel with its sweep in C: the ``"c"`` backend of
:mod:`smith_spectra.eig`.

``_jacobi_c.c`` runs the rotations of one sweep, in the numpy sweep's
order and with its formulas (the root sqrt(1 + tau^2) included), so every
result is bit-identical to :mod:`smith_spectra._jacobi_py`; the
convergence loop is that module's, with this sweep passed in.

On import the C file is compiled with ``cc`` into the package's
``__pycache__``, under a name keyed by a checksum of the source and the
flags, and loaded with ctypes. A build goes to a temporary name and is
renamed into place, so a half-written library is never loaded, and it
deletes the libraries built from older versions of the source. Where
there is no compiler, the directory is not writable, or the compile or
the load fails, :data:`LIBRARY` is None and :mod:`smith_spectra.eig`
runs the numpy kernel instead, without a message.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import zlib
from pathlib import Path

import numpy as np

from smith_spectra import _jacobi_py

SOURCE = Path(__file__).with_name("_jacobi_c.c")
CACHE = SOURCE.with_name("__pycache__")
# never -ffast-math, and no contraction into fused multiply-adds: either
# would round differently from numpy
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def library_path(source: Path, cache: Path) -> Path:
    """Where the library built from ``source`` with :data:`FLAGS` lives."""
    digest = zlib.crc32(source.read_bytes() + " ".join(FLAGS).encode())
    return cache / f"{source.stem}-{digest:08x}.so"


def _compile(source: Path, target: Path) -> None:
    """Build ``target`` from ``source`` unless it is there; raises OSError
    on any failure, leaving nothing at ``target``. After a build, the
    libraries of older sources beside it are deleted."""
    if target.exists():
        return
    import subprocess  # only a build needs it

    target.parent.mkdir(exist_ok=True)
    partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        # creating it first finds an unwritable directory before cc runs
        partial.touch()
        subprocess.run(["cc", *FLAGS, "-o", str(partial), str(source), "-lm"],
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=300)
        os.replace(partial, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cc failed on {source}") from exc
    finally:
        partial.unlink(missing_ok=True)
    for stale in target.parent.glob(f"{source.stem}-*.so"):
        if stale != target:
            with contextlib.suppress(OSError):  # the new build loads anyway
                stale.unlink()


def load(source: Path = SOURCE, cache: Path = CACHE) -> ctypes.CDLL | None:
    """The sweep library built from ``source``, or None where it cannot be
    built or loaded."""
    try:
        target = library_path(source, cache)
        _compile(source, target)
        lib = ctypes.CDLL(str(target))
        lib.jacobi_sweep.argtypes = (ctypes.c_void_p, ctypes.c_int)
    except (OSError, AttributeError):  # AttributeError: a symbol is missing
        return None
    lib.jacobi_sweep.restype = None
    return lib


LIBRARY = load()


def _checked(a: np.ndarray) -> np.ndarray:
    if not (a.dtype == np.float64 and a.ndim == 2 and a.flags.c_contiguous
            and a.flags.writeable and a.shape[0] == a.shape[1]):
        raise ValueError("the C sweep needs a writable C-contiguous float64 "
                         f"square matrix, got {a.dtype} {a.shape}")
    return a


def _sweep(a: np.ndarray) -> None:
    LIBRARY.jacobi_sweep(a.ctypes.data, a.shape[0])


def cyclic_jacobi(a: np.ndarray, threshold: float, max_sweeps: int) -> tuple[int, float]:
    """:func:`smith_spectra._jacobi_py.cyclic_jacobi`, with the C sweep."""
    return _jacobi_py.converge(_checked(a), threshold, max_sweeps, _sweep)
