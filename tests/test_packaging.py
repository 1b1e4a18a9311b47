"""Packaging: pyproject.toml alone declares the package, its console
script and the C sweep source it ships as package data; there is no
setup.py and no build step, and a compiled sweep lives only in a
``__pycache__`` directory. The package namespace holds only
``__version__``, so importing one module loads only the layers below it.
The names the benchmark harness calls and wraps stay where it looks them up."""

import json
import subprocess
import sys
from math import sqrt
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _entries() -> set[str]:
    return {p.name for p in ROOT.iterdir()} | {p.name for p in (ROOT / "src").iterdir()}


def test_egg_info_from_pyproject_alone(tmp_path):
    before = _entries()
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "egg_info", "-e", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    info = tmp_path / "smith_spectra.egg-info"
    scripts = (info / "entry_points.txt").read_text().splitlines()
    assert "smith-spectra = smith_spectra.cli:main" in scripts
    sources = set((info / "SOURCES.txt").read_text().splitlines())
    modules = {p.relative_to(ROOT).as_posix()
               for p in (ROOT / "src" / "smith_spectra").glob("*.py")}
    assert modules <= sources
    assert "src/smith_spectra/_jacobi_c.c" in sources
    assert not [s for s in sources if s.endswith(".pyx")]
    # the metadata went to tmp_path, nothing into the tree
    assert _entries() == before
    assert [p for p in ROOT.rglob("*.so") if p.parent.name != "__pycache__"] == []


def _loaded(statement: str) -> set[str]:
    """numpy and the package's modules, as loaded by ``statement`` in a fresh interpreter."""
    code = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{statement}\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    return {m for m in proc.stdout.split() if m == "numpy" or m.startswith("smith_spectra")}


def test_imports_follow_the_layers():
    # arith is pure Python integers: no numpy, and no other module of the package
    assert _loaded("import smith_spectra.arith") == {"smith_spectra", "smith_spectra.arith"}
    assert "smith_spectra._jacobi_c" not in _loaded("import smith_spectra.matrices")
    assert _loaded("from smith_spectra import __version__") == {"smith_spectra"}


def test_names_the_benchmark_binds():
    # the harness calls these and wraps them by name: a name that moves must
    # fail here, not break the harness or zero one of its per-layer counts
    from smith_spectra import arith, bounds, cli, eig, matrices

    assert callable(cli.main) and callable(cli.render)
    spec = eig.jacobi_eigenvalues([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    assert spec.eigenvalues == pytest.approx((2 - sqrt(2), 2.0, 2 + sqrt(2)))
    assert eig.default_backend() in eig.available_backends()
    assert all(callable(kernel.cyclic_jacobi) for kernel in eig.available_backends().values())
    result = bounds.hong_cn(3)
    json.dumps({"n": result.n, "c_n": result.c_n, "witness": result.witness})
    # the per-layer counts wrap public functions defined in their own module
    for module, name in ((arith, "sieve_totient"), (arith, "sieve_mobius"),
                         (bounds, "closed_form_summary"), (bounds, "mh_interval"),
                         (matrices, "matrix_to_csv")):
        assert getattr(module, name).__module__ == module.__name__, name


def test_eig_is_only_the_solver():
    # the trace statistics live beside the brackets that read them
    from smith_spectra import bounds, eig

    assert not {"SpectralSummary", "spectral_summary", "Fraction"} & set(vars(eig))
    assert bounds.spectral_summary.__module__ == bounds.__name__
