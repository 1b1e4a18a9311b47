"""Packaging: pyproject.toml alone declares the package, its console
script and the C sweep source it ships as package data; there is no
setup.py and no build step, and a compiled sweep lives only in a
``__pycache__`` directory."""

import subprocess
import sys
from pathlib import Path

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
