"""The switch between the compiled loops of `_kernel.c` and their
references, `dynamics.numpy_step`, `multi._joint_step` and
`spiking._membrane_loop`, which give the same results bit for bit. The
package picks its loops at `_kernel.library()` alone, and the tests reach
that switch only here and through the `path` fixture of conftest.py."""

import contextlib
from unittest import mock

import pytest

from simplex_stdp import _kernel


@contextlib.contextmanager
def reference():
    """Run the package on the reference loops, as on a machine without a C
    compiler."""
    with mock.patch.object(_kernel, "library", lambda: None):
        assert _kernel.library() is None
        yield


def require_compiled():
    """Skip the test when no compiled library loads."""
    if _kernel.library() is None:
        pytest.skip("compiled loops not available")


def on_each_path(run):
    """(run() on the compiled loops, run() under `reference()`). Without a
    compiled library both take the references, so a test that compares the
    two calls `require_compiled()` first."""
    compiled = run()
    with reference():
        return compiled, run()


def labelled(name):
    """Parametrize the `path` fixture with its reference side's id set to
    name, as in `@labelled("numpy")`, for a test whose ids named the
    reference loop."""
    return pytest.mark.parametrize("path", ["compiled", "reference"], ids=["compiled", name],
                                   indirect=True)
