"""Shared helpers: finite differences, random logits, a fresh
interpreter and the numeric kernels that the pinned outputs name."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

# the numeric kernels under which every pinned output was taken
PINNED_KERNELS = {
    "numpy": "2.4.6",
    "openblas": "0.3.31.188.0",
    "openblas_core": "SkylakeX",
    "numpy_x86_v4": True,
}


def host_kernels() -> dict:
    """The same facts read on this host: numpy's version, the version and the
    kernel core of numpy's bundled OpenBLAS (the core depends on the CPU and
    on OPENBLAS_CORETYPE), and whether numpy's X86_V4 (AVX-512) loops are on
    (NPY_DISABLE_CPU_FEATURES can turn them off). "unknown" where a wheel
    bundles no scipy-openblas."""
    from numpy._core._multiarray_umath import __cpu_features__

    found = {"openblas": "unknown", "openblas_core": "unknown"}
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*scipy_openblas*"):
        lib = ctypes.CDLL(str(path))  # the library numpy has loaded already
        config, core = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
        config.argtypes, core.argtypes = [], []
        config.restype = core.restype = ctypes.c_char_p
        found = {"openblas": config().decode().split()[1], "openblas_core": core().decode()}
    x86_v4 = bool(__cpu_features__.get("X86_V4", False))
    return {"numpy": np.__version__, **found, "numpy_x86_v4": x86_v4}


def describe_kernels(k: dict) -> str:
    loops = "on" if k["numpy_x86_v4"] else "off"
    return (
        f"numpy {k['numpy']} with its X86_V4 loops {loops}, "
        f"OpenBLAS {k['openblas']} on its {k['openblas_core']} kernels"
    )


# the failure message of every test that pins output bytes
PINNED_PLATFORM = (
    f"the pinned output was taken on x86-64 with {describe_kernels(PINNED_KERNELS)}; "
    f"this host has {describe_kernels(host_kernels())}; another numpy, BLAS or CPU "
    "may round floats differently, and a change that alters the output on purpose "
    "must say why and update the pin"
)


def central_diff(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f over a flat array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * h)
    return grad


def relative_error(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(np.linalg.norm(want), 1e-12)
    return np.linalg.norm(got - want) / denom


def fresh_env() -> dict:
    """The environment of a new interpreter that imports bmtas from this
    checkout's src/."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def fresh_python(code: str) -> str:
    """Standard output of `code` run by a new interpreter that imports bmtas
    from this checkout's src/."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=fresh_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def random_alpha(rng, num_tasks, num_layers, scale=2.0):
    return scale * rng.standard_normal((num_tasks, num_layers, num_tasks))
