"""Build the program with its compiled solver kernel into a private tree.

The benchmark never times pure Python by accident and never writes into
``src/``.  :func:`ensure_build` copies ``src/repro`` of the checkout into
``.bench_build/step-<digest>/`` and compiles ``repro.sat._ckernel`` there
with the checkout's own ``setup.py``.  The digest covers every file under
``src/`` plus ``setup.py`` and the interpreter version, so a tree is only
reused for byte-identical sources; a different commit gets a fresh build.

Every program process imports that tree: the benchmark puts it first on
``sys.path``, and daemons it launches inherit it through ``PYTHONPATH``
(pool workers are forked from processes that already imported it).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import time

BUILD_ROOT = ".bench_build"
RECORD = "build.json"


class KernelError(RuntimeError):
    """The compiled kernel could not be built or is not the active solver."""


def _source_digest(root: str) -> str:
    hasher = hashlib.sha256()
    hasher.update(sys.version.encode())
    hasher.update((sysconfig.get_config_var("EXT_SUFFIX") or "").encode())
    files = [os.path.join(root, "setup.py")]
    for base, dirs, names in os.walk(os.path.join(root, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        files.extend(
            os.path.join(base, name)
            for name in sorted(names)
            if not name.endswith((".pyc", ".so", ".pyd"))
        )
    for path in files:
        hasher.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            hasher.update(hashlib.sha256(handle.read()).digest())
    return hasher.hexdigest()[:20]


def ensure_build(root: str) -> tuple[str, float]:
    """Return ``(tree, compile_seconds)`` for the checkout at ``root``.

    ``tree`` holds the ``repro`` package with the kernel built in place;
    ``compile_seconds`` is the time the build took when it was made (kept
    out of the set-up metric).  Raises :class:`KernelError` when the
    checkout has no sources or the kernel does not compile.
    """
    if not os.path.isfile(os.path.join(root, "setup.py")) or not os.path.isdir(
        os.path.join(root, "src", "repro")
    ):
        raise KernelError(f"no program sources (setup.py, src/repro) under {root}")
    tree = os.path.join(root, BUILD_ROOT, f"step-{_source_digest(root)}")
    record_path = os.path.join(tree, RECORD)
    if os.path.isfile(record_path):
        with open(record_path, encoding="utf-8") as handle:
            return tree, float(json.load(handle)["compile_seconds"])
    os.makedirs(os.path.dirname(tree), exist_ok=True)
    staging = tempfile.mkdtemp(prefix="staging-", dir=os.path.dirname(tree))
    try:
        started = time.perf_counter()
        completed = subprocess.run(
            [
                sys.executable,
                "setup.py",
                "-q",
                "build_ext",
                "--build-lib",
                os.path.join(staging, "lib"),
                "--build-temp",
                os.path.join(staging, "tmp"),
            ],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=600,
        )
        compile_seconds = time.perf_counter() - started
        built = os.path.join(staging, "lib", "repro", "sat")
        extensions = (
            [name for name in os.listdir(built) if name.startswith("_ckernel")]
            if os.path.isdir(built)
            else []
        )
        if completed.returncode != 0 or not extensions:
            raise KernelError(
                "compiling repro.sat._ckernel failed:\n"
                + (completed.stdout + completed.stderr)[-2000:]
            )
        package = os.path.join(staging, "tree", "repro")
        shutil.copytree(
            os.path.join(root, "src", "repro"),
            package,
            ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc"),
        )
        for name in extensions:
            shutil.copy2(os.path.join(built, name), os.path.join(package, "sat", name))
        with open(os.path.join(staging, "tree", RECORD), "w", encoding="utf-8") as handle:
            json.dump({"compile_seconds": compile_seconds}, handle)
        try:
            os.rename(os.path.join(staging, "tree"), tree)
        except OSError:
            if not os.path.isfile(record_path):  # not a concurrent twin build
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return tree, compile_seconds


def activate(tree: str) -> None:
    """Make ``tree`` the ``repro`` this process and its children import."""
    sys.path.insert(0, tree)
    os.environ["PYTHONPATH"] = tree


def require_kernel() -> None:
    """Fail loudly unless the compiled kernel is the active solver."""
    from repro.sat.solver import active_kernel_name

    name = active_kernel_name()
    if name != "c":
        raise KernelError(f"the active solver kernel is {name!r}, not the compiled 'c'")
