"""Build, cache and load the three compiled loops of `_kernel.c`: the step
of `dynamics.simulate`, the joint multi-output step of `multi._joint_steps`
and the membrane of `spiking.membrane`.

The library is built on first use with the C compiler on PATH and loaded
through ctypes; importing this module builds and loads nothing. Builds are
cached in a per-user directory ($XDG_CACHE_HOME/simplex-stdp, by default
~/.cache/simplex-stdp, mode 0700) under the sha256 of the compiler, the flags
and the source, and are written to a temporary file and renamed into place,
so concurrent processes never load a partial file. Without a compiler, or
when the build fails, `library()` returns None: `dynamics.simulate` then
steps with `dynamics.numpy_step`, `multi._joint_steps` with
`multi._joint_step` and the membrane walks its events in Python
(`spiking._membrane_loop`), which give the same results bit for bit.
"""

import functools
import os
import warnings

import numpy as np

from .simplex import InvalidInputError

# ctypes, hashlib, shutil, subprocess and tempfile are imported on first
# use, so that importing the package (every CLI start) does not pay for them.

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
# No FMA contraction, fast-math or -march: the kernel must round like numpy.
FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC", "-ffp-contract=off")
# libm, for the membrane's exp; after the source, where the linker wants it
LIBS = ("-lm",)
# the membrane's error, raised alike by the compiled and the Python walk
TIME_ORDER = "event times must be finite and nondecreasing from the membrane's last event"


def compiler():
    """Path of the C compiler used for the build, or None."""
    import shutil

    return shutil.which("cc") or shutil.which("gcc")


def cache_dir():
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "simplex-stdp")


def _build(cc, directory):
    """Path of the cached library, compiling it when it is not there yet; a
    failed compile raises OSError."""
    import hashlib

    with open(SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256("\0".join((cc,) + FLAGS + LIBS).encode() + b"\0" + source).hexdigest()
    path = os.path.join(directory, "kernel-%s.so" % key[:32])
    if os.path.exists(path):
        return path
    # only a build needs these: importing subprocess costs more than loading
    # a cached library
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-o", tmp, SOURCE, *LIBS], check=True, capture_output=True)
        os.replace(tmp, path)
    except subprocess.CalledProcessError as exc:
        raise OSError("%s: %s" % (exc, exc.stderr.decode(errors="replace").strip())) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.lru_cache(maxsize=None)
def library():
    """The kernel library, with `simplex_advance`, `simplex_joint` and
    `simplex_membrane` typed, built and loaded on first call; None when
    there is no C compiler or the build fails."""
    import ctypes

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
        lib = ctypes.CDLL(_build(cc, directory))
    except OSError as exc:
        warnings.warn("compiled kernel unavailable, using the numpy and Python loops: %s"
                      % exc)
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.simplex_advance.argtypes = [ptr, i64, i64]  # run, k0, k1
    lib.simplex_advance.restype = i64
    lib.simplex_joint.argtypes = [ptr, i64, i64, ptr]  # run, k0, k1, lam
    lib.simplex_joint.restype = i64
    # n, times, ids, w, threshold, state, cap, spikes
    lib.simplex_membrane.argtypes = [i64, ptr, ptr, ptr, f64, ptr, i64, ptr]
    lib.simplex_membrane.restype = i64
    return lib


@functools.lru_cache(maxsize=None)
def _run_type():
    """The ctypes mirror of `struct simplex_run`."""
    import ctypes

    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p

    class Run(ctypes.Structure):
        _fields_ = [(name, i64) for name in ("n", "d")]
        _fields_ += [("alpha", f64)]
        _fields_ += [(name, ptr) for name in ("x", "streams", "next_double", "gamma", "mart",
                                              "bounded", "alive")]
        _fields_ += [(name, f64) for name in ("threshold", "half_gap", "half_gap_gamma")]
        _fields_ += [("d_out", i64), ("alphas", ptr)]

    return Run


def _data(a, dtype, shape):
    """Address of a, after checking its dtype, shape and C contiguity; None
    passes a NULL pointer."""
    if a is None:
        return None
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError("kernel argument: expected a C-contiguous %s array of shape %s, "
                         "got %s %s" % (np.dtype(dtype), shape, a.dtype, a.shape))
    return a.ctypes.data


def _segments(fn, x, streams, keep, args=(), **fields):
    """The `struct simplex_run` of the state x (n, d) drawing from the
    `dynamics.Streams` streams, with the other fields given, and
    call(k0, k1), which runs fn over steps k0..k1-1, passing args after the
    steps, and returns its result. keep holds the arrays the fields and
    args point into, kept alive through call."""
    import ctypes

    n, d = x.shape
    run = _run_type()(
        n=n, d=d, x=_data(x, np.float64, (n, d)), streams=_data(streams.addresses, np.uintp, (n,)),
        next_double=streams.next_double, **fields)
    run.arrays = (x, streams, keep)
    ref = ctypes.byref(run)

    def call(k0, k1):
        return fn(ref, k0, k1, *args)

    return call


def prepare(x, alpha, streams, lam, gamma, tracker):
    """Check the arrays of one run once and return advance(k0, k1), which
    runs steps k0..k1-1 on the probability rows x in place, drawing from the
    `dynamics.Streams` streams as it steps. It also advances a
    `dynamics.GapTracker`'s martingales, maximal-inequality event, gap event
    (on gamma @ p too when gamma is given) and inclusion-violation count.
    lam is None: the single-neuron runs step probabilities, which stay on
    the simplex."""
    n, d = x.shape
    fields = dict(alpha=alpha, gamma=_data(gamma, np.float64, (d, d)))
    if tracker is not None:
        fields.update(
            mart=_data(tracker.mart, np.float64, (n, d)),
            bounded=_data(tracker.bounded, np.bool_, (n,)),
            alive=_data(tracker.alive, np.bool_, (n,)), threshold=tracker.threshold,
            half_gap=tracker.half_gap, half_gap_gamma=tracker.half_gap_gamma)
    call = _segments(library().simplex_advance, x, streams, (gamma, tracker), **fields)

    def advance(k0, k1):
        violations = call(k0, k1)
        if violations < 0:
            raise MemoryError("compiled step could not allocate its row buffers")
        if tracker is not None:
            tracker.ek_violations += violations

    return advance


def joint(x, alpha, streams, lam, gamma, tracker):
    """The compiled `multi._joint_step`, with its arguments and its results
    bit for bit: returns advance(k0, k1), which runs steps k0..k1-1 of the
    joint scheme on the weights x in place under the intensities lam, adding
    the clipped entries to a tracker's `clip_events`. Before each step a
    column whose lam * w sum leaves [2^-256, 2^256] is scaled by a power of
    two (`dynamics._weight_sums`), so the weights cannot overflow. gamma is
    not used."""
    alphas = np.ascontiguousarray(alpha, dtype=np.float64).reshape(-1)
    call = _segments(library().simplex_joint, x, streams, (alphas, lam),
                     (_data(lam, np.float64, x.shape[1:]),), d_out=alphas.size,
                     alphas=_data(alphas, np.float64, alphas.shape))

    def advance(k0, k1):
        clips = call(k0, k1)
        if clips < 0:
            raise MemoryError("compiled joint step could not allocate its buffers")
        if tracker is not None:
            tracker.clip_events += clips

    return advance


def membrane(times, ids, w, threshold, state, cap):
    """Run `simplex_membrane` over the event stream of the times (n,) and
    neuron ids (n,) in [0, d), which `spiking.membrane` checks, with the
    weights w (d,), from the potential and last event time in state (2,),
    updated in place, until the cap-th spike (cap >= 1); returns
    (spike_times, trigger_ids, walked), walked the number of events walked:
    all n, or up to the cap-th spike's event. A time that is not finite or
    goes backwards raises InvalidInputError."""
    times = np.ascontiguousarray(times, dtype=np.float64)
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    n, d = times.size, w.size
    spikes = np.empty(cap, dtype=np.int64)
    count = library().simplex_membrane(
        n, _data(times, np.float64, (n,)), _data(ids, np.int64, (n,)), _data(w, np.float64, (d,)),
        threshold, _data(state, np.float64, (2,)), cap, spikes.ctypes.data)
    if count < 0:
        raise InvalidInputError(TIME_ORDER)
    spikes = spikes[:count]
    walked = int(spikes[-1]) + 1 if count == cap else n
    return times[spikes], ids[spikes], walked

