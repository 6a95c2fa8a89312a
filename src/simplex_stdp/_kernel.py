"""Build, cache and load the compiled chunk step `_kernel.c`.

The library is built on first use with the C compiler on PATH and loaded
through ctypes; importing this module builds and loads nothing. Builds are
cached in a per-user directory ($XDG_CACHE_HOME/simplex-stdp, by default
~/.cache/simplex-stdp, mode 0700) under the sha256 of the compiler, the flags
and the source, and are written to a temporary file and renamed into place,
so concurrent processes never load a partial file. Without a compiler, or
when the build fails, `library()` returns None and `dynamics.simulate` keeps
its numpy loop, which gives the same results bit for bit.
"""

import functools
import os
import warnings

import numpy as np

# ctypes, hashlib, shutil, subprocess and tempfile are imported on first
# use, so that importing the package (every CLI start) does not pay for them.

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
# No FMA contraction, fast-math or -march: the kernel must round like numpy.
FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC", "-ffp-contract=off")


def compiler():
    """Path of the C compiler used for the build, or None."""
    import shutil

    return shutil.which("cc") or shutil.which("gcc")


def cache_dir():
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "simplex-stdp")


def _build(cc, directory):
    """Path of the cached library, compiling it when it is not there yet."""
    import hashlib
    import subprocess
    import tempfile

    with open(SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256("\0".join((cc,) + FLAGS).encode() + b"\0" + source).hexdigest()
    path = os.path.join(directory, "kernel-%s.so" % key[:32])
    if os.path.exists(path):
        return path
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-o", tmp, SOURCE], check=True, capture_output=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.lru_cache(maxsize=None)
def library():
    """The kernel's `simplex_advance`, built and loaded on first call; None
    when there is no C compiler or the build fails."""
    import ctypes
    import subprocess

    cc = compiler()
    if cc is None:
        return None
    directory = cache_dir()
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        st = os.stat(directory)
        # a library loaded from a directory others can write runs their code
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            raise OSError("cache directory %s is writable by other users" % directory)
        fn = ctypes.CDLL(_build(cc, directory)).simplex_advance
    except (OSError, subprocess.CalledProcessError) as exc:
        warnings.warn("compiled step unavailable, using the numpy loop: %s" % exc)
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    fn.argtypes = [i64, i64, i64, i64, i64, f64,  # n, d, m, t0, t1, alpha
                   ptr, ptr, ptr, ptr, ptr, i64,  # x, top, u, z, gu, n_pairs
                   ptr, ptr, ptr,                 # lam, gamma, pair
                   ptr, ptr, ptr, ptr,            # mart, max_abs, alive, tracker gamma
                   f64, f64, f64]                 # threshold, half gaps
    fn.restype = i64
    return fn


def _data(a, dtype, shape):
    """Address of a, after checking its dtype, shape and C contiguity; None
    passes a NULL pointer."""
    if a is None:
        return None
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError("kernel argument: expected a C-contiguous %s array of shape %s, "
                         "got %s %s" % (np.dtype(dtype), shape, a.dtype, a.shape))
    return a.ctypes.data


def advance(fn, x, alpha, t0, t1, u, z, gu, top, lam=None, gamma=None, pair=None, tracker=None):
    """Run steps t0..t1-1 of the chunk (u, z, gu) on the state x in place;
    with a `dynamics.GapTracker`, also advance its martingales, maxima, gap
    event and inclusion-violation count."""
    n, d = x.shape
    m = u.shape[1]
    if not 0 <= t0 <= t1 <= m:
        raise ValueError("steps %d..%d outside a chunk of %d" % (t0, t1, m))
    n_pairs = 0 if gu is None else gu.shape[2]
    args = [
        _data(x, np.float64, (n, d)), _data(top, np.int64, (n,)),
        _data(u, np.float64, (n, m)), _data(z, np.float64, (n, m, d)),
        _data(gu, np.float64, (n, m, n_pairs)), n_pairs,
        _data(lam, np.float64, (d,)), _data(gamma, np.float64, (d, d)),
        _data(pair, np.int64, (d, d)),
    ]
    if gamma is not None and pair is None:
        raise ValueError("correlated triggers need the pair table")
    if tracker is None:
        args += [None, None, None, None, 0.0, 0.0, 0.0]
    else:
        args += [_data(tracker.mart, np.float64, (n, d)), _data(tracker.max_abs, np.float64, (n, d)),
                 _data(tracker.alive, np.bool_, (n,)), _data(tracker.gamma, np.float64, (d, d)),
                 tracker.threshold, tracker.half_gap, tracker.half_gap_gamma]
    violations = fn(n, d, m, t0, t1, alpha, *args)
    if violations < 0:
        raise MemoryError("compiled step could not allocate its row buffers")
    if tracker is not None:
        tracker.ek_violations += violations
