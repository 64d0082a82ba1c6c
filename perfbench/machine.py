"""Machine facts recorded beside every result.

Numbers from machines with different core counts, BLAS builds or volseg
kernel backends (numba vs numpy) must not be compared, so each result
carries them, plus the machine's own float32 GEMM rate and copy bandwidth
on arrays at least 4x the last-level cache, so a kernel's GFLOP/s can be
read against what this machine can do.
"""

import os
import platform
import time

_SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name; Python has no symbolic name for it
ASSUMED_LLC_BYTES = 32 << 20
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count():
    return len(os.sched_getaffinity(0))


def limit_blas_threads():
    """Cap BLAS/OpenMP threads at the usable core count; numpy reads them on import."""
    n = cpu_count()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= n:
            os.environ[var] = str(n)


def _llc_bytes():
    try:
        size = os.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (ValueError, OSError):
        size = 0
    return (size, "sysconf") if size > 0 else (ASSUMED_LLC_BYTES, "assumed")


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def describe(volseg, small=False):
    """Machine facts and probes; ``small`` uses 16 MB arrays for quick runs."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    backend = getattr(volseg, "kernel_backend", None)
    llc, llc_source = _llc_bytes()
    array_bytes = (16 << 20) if small else 4 * llc
    k, n = 1024, 128
    m = -(-array_bytes // (4 * k))
    m += m % 2
    a = np.full((m, k), 0.5, dtype=np.float32)
    b = np.full((k, n), 0.25, dtype=np.float32)
    gemm_s = _best_of(lambda: a @ b)
    half = m // 2  # copy one half of A over the other: the working set is all of A
    copy_s = _best_of(lambda: np.copyto(a[half:], a[:half]))
    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "kernel_backend": backend() if callable(backend) else None,
        "llc_mb": llc / 1e6,
        "llc_source": llc_source,
        "gemm_f32_gflop_per_s": 2.0 * m * k * n / gemm_s / 1e9,
        "gemm_shape": [m, k, n],
        "gemm_a_mb": a.nbytes / 1e6,
        "copy_gb_per_s": a.nbytes / copy_s / 1e9,
        "copy_mb": a.nbytes / 1e6,
    }
