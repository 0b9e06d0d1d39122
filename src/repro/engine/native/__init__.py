"""Native block kernels for the batch and superbatch engines.

``_blocks.c`` runs the per-block work of both count engines in C —
pair draws, first-collision scan, state sampling and shuffle, the
compiled kernel's pair-table gather, leader-target detection, count
commits, the collision draws and the superbatch run-pair assembly —
drawing every random number from the trial's own NumPy bit generator
through NumPy's shipped C distributions (``libnpyrandom.a``), in the
order and with the arguments the reference NumPy path uses.  Chains,
store rows and final generator states are therefore bit-identical on
both paths (DESIGN.md Section 13).

The module is compiled on first use — the first batch or superbatch
construction in a process, never at ``import repro`` — with the system
C compiler (``$CC``, default ``cc``) against the running interpreter's
headers and the installed NumPy wheel's headers and static library.
The shared object is cached outside the source tree under
``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro/native``, or a
per-user temp directory when that cannot be created), keyed by a hash
of the source, the NumPy version and the interpreter, so later
processes only load it.

``REPRO_NATIVE=0`` (or ``off``/``false``/``no``) keeps the NumPy
reference path, the same pattern as ``REPRO_KERNEL=0``.  A failed build
or load logs one warning per process and falls back to that path too.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from pathlib import Path

__all__ = [
    "NATIVE_ENV",
    "CACHE_ENV",
    "NativeBuildWarning",
    "load",
    "native_enabled",
]

#: Environment kill switch: ``0``/``off``/``false``/``no`` keeps the
#: NumPy reference path.
NATIVE_ENV = "REPRO_NATIVE"

#: Directory the compiled module is cached in (created on demand).
CACHE_ENV = "REPRO_NATIVE_CACHE"

_SOURCE = Path(__file__).with_name("_blocks.c")
_FLAGS = ("-O2", "-shared", "-fPIC", "-std=c99")

#: Per-process result of the first :func:`load`: the module, or
#: ``None`` after a failure (warned about once).
_loaded: dict[str, object] = {}


class NativeBuildWarning(RuntimeWarning):
    """The native block kernels could not be built or loaded."""


def native_enabled() -> bool:
    """Whether the native kernels are wanted (the default)."""
    return os.environ.get(NATIVE_ENV, "1").lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


def _cache_dir() -> Path:
    """``$REPRO_NATIVE_CACHE``, else ``~/.cache/repro/native`` when it can
    be created, else a per-user directory under the system temp dir."""
    configured = os.environ.get(CACHE_ENV)
    if configured:
        return Path(configured)
    default = Path.home() / ".cache" / "repro" / "native"
    try:
        default.mkdir(parents=True, exist_ok=True)
    except OSError:
        return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    return default


def _numpy_paths() -> tuple[str, str]:
    import numpy

    library = os.path.join(
        os.path.dirname(numpy.__file__), "random", "lib", "libnpyrandom.a"
    )
    if not os.path.exists(library):
        raise OSError(f"NumPy's C random library is missing: {library}")
    return numpy.get_include(), library


def _build(target: Path, numpy_include: str, library: str) -> None:
    """Compile the module into ``target`` (atomically replaced)."""
    import subprocess
    import sysconfig

    compiler = os.environ.get("CC", "cc")
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, scratch = tempfile.mkstemp(
        suffix=target.suffix, prefix=".build-", dir=target.parent
    )
    os.close(handle)
    command = [
        compiler,
        *_FLAGS,
        f"-I{sysconfig.get_paths()['include']}",
        f"-I{numpy_include}",
        str(_SOURCE),
        library,
        "-lm",
        "-o",
        scratch,
    ]
    try:
        result = subprocess.run(
            command, capture_output=True, text=True, check=False
        )
        if result.returncode != 0:
            raise OSError(
                f"{compiler} exited with {result.returncode}: "
                f"{result.stderr.strip()[-2000:]}"
            )
        os.replace(scratch, target)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _build_and_import():
    # Imported here, not at module level: ``import repro`` must stay as
    # cheap as it was without the native kernels.
    import hashlib
    import importlib.machinery
    import importlib.util
    import sys

    import numpy

    numpy_include, library = _numpy_paths()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = hashlib.sha256()
    key.update(_SOURCE.read_bytes())
    for part in (numpy.__version__, sys.version, " ".join(_FLAGS), library):
        key.update(part.encode())
    target = _cache_dir() / f"_blocks-{key.hexdigest()[:16]}{suffix}"
    if not target.exists():
        _build(target, numpy_include, library)
    loader = importlib.machinery.ExtensionFileLoader(
        "repro.engine.native._blocks", str(target)
    )
    spec = importlib.util.spec_from_file_location(
        loader.name, str(target), loader=loader
    )
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def load():
    """The compiled kernel module, or ``None`` for the NumPy path.

    ``None`` when ``REPRO_NATIVE=0`` or when building/loading failed;
    the failure is reported as one :class:`NativeBuildWarning` per
    process and not retried.
    """
    if not native_enabled():
        return None
    if "module" not in _loaded:
        try:
            _loaded["module"] = _build_and_import()
        except Exception as error:  # noqa: BLE001 - any failure falls back
            _loaded["module"] = None
            warnings.warn(
                "native block kernels unavailable, using the NumPy path: "
                f"{error}",
                NativeBuildWarning,
                stacklevel=2,
            )
    return _loaded["module"]
