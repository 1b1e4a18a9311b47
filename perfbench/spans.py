"""Per-layer spans recorded from outside the package.

The layers are the package's modules. Each public function of a layer is
replaced by a timing wrapper wherever callers look it up: in its defining
module and in every ``from ... import`` binding inside the package. The
active backend's ``cyclic_jacobi`` is wrapped as the ``eig.kernel`` layer.
Spans stay in memory; :meth:`Tracer.metrics` turns them into the per-layer
numbers once a pass has finished.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

import numpy as np

# Modules wrapped in full (every public function), and the two layers whose
# boundary is a single entry point. ``cli`` is argparse plus rendering, so
# ``main`` and ``render`` delimit it; ``eig`` is the jacobi_eigenvalues
# wrapper around the kernel.
PACKAGE = "smith_spectra"
WHOLE_MODULE_LAYERS = ("arith", "matrices", "bounds", "checks")
ENTRY_POINTS = {"cli": ("main", "render"), "eig": ("jacobi_eigenvalues",)}
KERNEL_LAYER = "eig.kernel"

SIEVES = ("sieve_totient", "sieve_mobius")
NOT_BUILDS = ("matrix_to_csv",)

# computed, not counted: a rotation of rows and columns p, q updates 2n
# entries with 2 multiplies and 1 add each
FLOPS_PER_ROTATION_PER_N = 6


class Tracer:
    """Installs span wrappers into the imported package and records spans.

    A span is ``(layer, name, seconds, self_seconds, parent_layer, info)``.
    Self time is the span's time minus the time of the spans it caused.
    The tracer's own bookkeeping is measured and taken out of the
    enclosing spans.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from smith_spectra import eig

        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        targets: list[tuple[str, str, object]] = []
        for layer in WHOLE_MODULE_LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if not name.startswith("_") and fn.__module__ == mod.__name__:
                    targets.append((layer, name, fn))
        for layer, names in ENTRY_POINTS.items():
            mod = modules[f"{PACKAGE}.{layer}"]
            targets += [(layer, name, getattr(mod, name)) for name in names]

        for layer, name, fn in targets:
            wrapper = self._wrap(layer, name, fn)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)
        for kernel in eig.available_backends().values():
            fn = kernel.cyclic_jacobi
            self._patch(kernel, "cyclic_jacobi", self._wrap(KERNEL_LAYER, "cyclic_jacobi", fn))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()

    def _patch(self, mod, attr: str, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    # -- recording ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            frame = [0.0, 0.0, layer]  # child seconds, tracer seconds, layer
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, layer, name, t_enter, t0, args, None, exc)
                raise
            tracer._close(frame, layer, name, t_enter, t0, args, result, None)
            return result

        return wrapper

    def _close(self, frame, layer, name, t_enter, t0, args, result, error) -> None:
        t1 = perf_counter()
        self._stack.pop()
        seconds = t1 - t0 - frame[1]
        parent = self._stack[-1] if self._stack else None
        info = _observe(layer, name, args, result, error)
        self.spans.append((layer, name, seconds, seconds - frame[0],
                           parent[2] if parent else None, info))
        if parent is not None:
            parent[0] += seconds
            parent[1] += frame[1] + (t0 - t_enter) + (perf_counter() - t1)

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals of the spans recorded since the last reset."""
        by = {}
        for span in self.spans:
            by.setdefault(span[0], []).append(span)

        def self_s(layer):
            return sum(s[3] for s in by.get(layer, ()))

        def total(layer, names):
            # sums the counts _observe kept; a span that raised kept none
            return sum(s[5] for s in by.get(layer, ())
                       if s[1] in names and isinstance(s[5], int))

        arith = by.get("arith", [])
        bounds = by.get("bounds", [])
        solves = by.get("eig", [])
        kernel = by.get(KERNEL_LAYER, [])
        builds = [s for s in by.get("matrices", [])
                  if s[4] != "matrices" and s[1] not in NOT_BUILDS]

        kernel_s = sum(s[2] for s in kernel)
        runs = [s[5] for s in kernel if isinstance(s[5], tuple)]  # (order, sweeps)
        sweeps = sum(sw for _, sw in runs)
        rotations = sum(sw * n * (n - 1) // 2 for n, sw in runs)
        flops = sum(sw * n * (n - 1) // 2 * FLOPS_PER_ROTATION_PER_N * n for n, sw in runs)
        return {
            "arith.s": self_s("arith"),
            "arith.calls": sum(1 for s in arith if s[4] != "arith"),
            "arith.sieve_calls": sum(1 for s in arith if s[1] in SIEVES),
            "arith.sieve_entries": total("arith", SIEVES),
            "bounds.self_s": self_s("bounds"),
            "bounds.closed_form_calls": sum(1 for s in bounds if s[1] == "closed_form_summary"),
            "bounds.mh_calls": sum(1 for s in bounds if s[1] == "mh_interval"),
            "eig.solves": len(solves),
            "eig.wrapper_s": self_s("eig"),
            "eig.convergence_failures": sum(
                1 for s in solves if s[5] == "JacobiConvergenceError"),
            "eig.kernel_s": kernel_s,
            "eig.sweeps": sweeps,
            "eig.sweeps_per_solve": sweeps / len(runs) if runs else 0.0,
            "eig.rotations_computed": rotations,
            "eig.kernel_flops_computed": flops,
            "eig.kernel_gflops": flops / kernel_s / 1e9 if kernel_s > 0 else 0.0,
            "eig.max_err_vs_eigvalsh": _max_err_vs_eigvalsh(
                [s[5] for s in solves if isinstance(s[5], tuple)]),
            "matrices.s": self_s("matrices"),
            "matrices.builds": len(builds),
            "matrices.entries": sum(s[5] for s in builds if isinstance(s[5], int)),
            "checks.self_s": self_s("checks"),
            "checks.results": total("checks", ("run_checks",)),
            "cli.self_s": self_s("cli"),
            "cli.render_s": sum(s[2] for s in by.get("cli", []) if s[1] == "render"),
        }


def _observe(layer: str, name: str, args: tuple, result, error):
    """What a span keeps besides its times; runs after the span has closed."""
    if error is not None:
        return type(error).__name__
    if layer == KERNEL_LAYER:
        return (args[0].shape[0], int(result[0]))  # order, sweeps
    if layer == "eig":
        a = args[0]
        entries = np.array(getattr(a, "entries", a), dtype=np.float64)
        return entries, np.array(result.eigenvalues)
    if layer == "arith" and name in SIEVES:
        return len(result)
    if layer == "matrices" and name not in NOT_BUILDS:
        return int(np.size(getattr(result, "entries", result)))
    if layer == "checks" and name == "run_checks":
        return len(result)
    return None


def _max_err_vs_eigvalsh(solved: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Largest |lambda - lambda_LAPACK| / ||A||_F over the recorded solves."""
    by_order: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for entries, values in solved:
        by_order.setdefault(entries.shape[0], []).append((entries, values))
    worst = 0.0
    for group in by_order.values():
        a = np.stack([entries for entries, _ in group])
        ours = np.stack([values for _, values in group])
        ref = np.linalg.eigvalsh(a)
        fro = np.sqrt(np.sum(a * a, axis=(1, 2)))
        err = np.max(np.abs(ours - ref), axis=1) / np.where(fro > 0, fro, 1.0)
        worst = max(worst, float(np.max(err)))
    return worst
