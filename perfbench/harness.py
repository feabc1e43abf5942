"""Run bookkeeping shared by the workloads: operation counts, solver
warnings, memory and the environment stamp."""
from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import resource
import subprocess
import warnings


class Run:
    """Operations attempted and failed; a failed correctness check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, failures, what: str) -> bool:
        """Count one operation; ``failures`` lists the checks it failed."""
        failures = [f for f in failures if f]
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(f"{what}: {'; '.join(failures)}")
        return not failures

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


class WarningCounter:
    """Counts warnings by class name while still showing each one.

    Every warning of the watched categories is shown (``always``), so repeats
    from one line are counted instead of being folded by the once-per-location
    default; the display goes to the original handler, on standard error.
    """

    def __init__(self, categories):
        self.counts = {c.__name__: 0 for c in categories}
        self._categories = tuple(categories)
        self._guard = warnings.catch_warnings()  # restores filters and handler on exit

    def __enter__(self):
        self._guard.__enter__()
        for category in self._categories:
            warnings.simplefilter("always", category)
        shown = warnings.showwarning

        def showwarning(message, category, filename, lineno, file=None, line=None):
            if category.__name__ in self.counts:
                self.counts[category.__name__] += 1
            shown(message, category, filename, lineno, file, line)

        warnings.showwarning = showwarning
        return self

    def __exit__(self, *exc):
        return self._guard.__exit__(*exc)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (2**20 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas() -> tuple[str | None, int | None]:
    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = None
    # NumPy wheels ship OpenBLAS next to the package, already loaded by the import
    wheel_libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(wheel_libs, "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return name, int(getter())
    return name, None


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(package_dir: str) -> str:
    """sha256 over the package's .py files, name and content, in name order."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package_dir, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str, package_dir: str) -> dict:
    """Where and on what the run happened; ``load1_end`` is added when it ends."""
    import numpy as np

    blas_name, blas_threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "load1_start": os.getloadavg()[0],
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(package_dir),
    }
