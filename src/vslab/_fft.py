"""The FFTs of the program, bound to SciPy's pocketfft.

``scipy.fft.rfftn``, ``irfftn``, ``fft`` and ``ifft`` are thin wrappers over
the ``r2c``, ``c2r`` and ``c2c`` functions of the extension module
``scipy/fft/_pocketfft/pypocketfft``,
but ``import scipy.fft`` also imports ``scipy.special`` and
``scipy._lib._array_api`` (with ``numpy.testing``), most of a command's
start-up.  This module loads the extension from its file, which imports no
SciPy module, and calls it with the arguments SciPy's wrappers pass (norm
code 0 forward, 2 for the 1/n inverse unless ``norm="forward"`` asks for
none), so the transforms are the same bits.  ``fft`` is the complex
transform along one axis, unnormalised both ways, which the pruned
transforms of ``Grid`` chain with one-axis real transforms.  If the file is
missing, does not load, or fails a probe on a 2x2x2 delta, whose transforms
are exact, the public ``scipy.fft`` is used for all three instead.
``overwrite_x`` is not offered: SciPy ignores it for real transforms.
Callers look the functions up as ``_fft.rfftn`` at each call, so a test can
wrap them.
"""

from __future__ import annotations

import importlib.util
import os
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np


def extension_path():
    """Path of SciPy's pocketfft extension, found without importing SciPy, or None."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    folder = os.path.join(os.path.dirname(spec.origin), "fft", "_pocketfft")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(folder, "pypocketfft" + suffix)
        if os.path.isfile(path):
            return path
    return None


def _scipy_rfftn(x, axes, workers):
    import scipy.fft

    return scipy.fft.rfftn(x, axes=axes, workers=workers)


def _scipy_irfftn(x, s, axes, workers, norm="backward"):
    import scipy.fft

    return scipy.fft.irfftn(x, s=s, axes=axes, workers=workers, norm=norm)


def _scipy_fft(x, axis, forward, workers, out=None):
    import scipy.fft

    if forward:
        result = scipy.fft.fft(x, axis=axis, workers=workers)
    else:  # norm="forward" leaves the backward transform unscaled
        result = scipy.fft.ifft(x, axis=axis, norm="forward", workers=workers)
    if out is None:
        return result
    out[...] = result
    return out


def _direct_functions(path):
    # the module name must end in "pypocketfft": the init symbol is PyInit_pypocketfft
    spec = importlib.util.spec_from_file_location("vslab._fft.pypocketfft", path)
    ext = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ext)
    r2c, c2r, c2c = ext.r2c, ext.c2r, ext.c2c
    inorm = {"backward": 2, "forward": 0}

    def rfftn(x, axes, workers):
        return r2c(np.asarray(x, dtype=np.float64), axes, True, 0, None, workers)

    def irfftn(x, s, axes, workers, norm="backward"):
        x = np.asarray(x, dtype=np.complex128)
        return c2r(x, axes, s[-1], False, inorm[norm], None, workers)

    def fft(x, axis, forward, workers, out=None):
        return c2c(np.asarray(x, dtype=np.complex128), (axis,), forward, 0, out, workers)

    return rfftn, irfftn, fft


def _exact_on_delta(rfftn, irfftn, fft):
    """Whether the functions give the exact transforms of a 2x2x2 delta.

    The whole-cube pair, and the same transforms axis by axis: complex
    passes, in place, on a one-axis real transform, and backward passes
    unscaled, which give 8 times the delta back.
    """
    delta = np.zeros((2, 2, 2))
    delta[0, 0, 0] = 1.0
    ones = np.ones((2, 2, 2))
    lines = rfftn(delta, (2,), 1)
    for axis in (0, 1):
        fft(lines, axis, True, 1, out=lines)
    back = fft(fft(ones, 0, False, 1), 1, False, 1)
    return (
        np.array_equal(rfftn(delta, (0, 1, 2), 1), ones)
        and np.array_equal(irfftn(ones, (2, 2, 2), (0, 1, 2), 1), delta)
        and np.array_equal(lines, ones)
        and np.array_equal(irfftn(back, (2,), (2,), 1, norm="forward"), 8.0 * delta)
    )


def bind(path):
    """(rfftn, irfftn, fft) from the extension at ``path``, else from ``scipy.fft``."""
    if path is not None:
        try:
            functions = _direct_functions(path)
            if _exact_on_delta(*functions):
                return functions
        except (ImportError, OSError, AttributeError, TypeError, ValueError, RuntimeError):
            pass  # no such file, not the extension, or a changed signature
    return _scipy_rfftn, _scipy_irfftn, _scipy_fft


rfftn, irfftn, fft = bind(extension_path())
