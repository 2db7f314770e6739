"""The two real n-dimensional FFTs of the program, bound to SciPy's pocketfft.

``scipy.fft.rfftn`` and ``irfftn`` are thin wrappers over the ``r2c`` and
``c2r`` functions of the extension module ``scipy/fft/_pocketfft/pypocketfft``,
but ``import scipy.fft`` also imports ``scipy.special`` and
``scipy._lib._array_api`` (with ``numpy.testing``), most of a command's
start-up.  This module loads the extension from its file, which imports no
SciPy module, and calls it with the arguments SciPy's wrappers pass (norm
code 0 forward, 2 for the 1/n inverse, no output array), so the transforms
are the same bits.  If the file is missing, does not load, or fails a probe
on a 2x2x2 delta, whose transforms are exact, the public ``scipy.fft`` is
used instead.  ``overwrite_x`` is not offered: SciPy ignores it for real
transforms.  Callers look the pair up as ``_fft.rfftn`` at each call, so a
test can wrap them.
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


def _scipy_irfftn(x, s, axes, workers):
    import scipy.fft

    return scipy.fft.irfftn(x, s=s, axes=axes, workers=workers)


def _direct_pair(path):
    # the module name must end in "pypocketfft": the init symbol is PyInit_pypocketfft
    spec = importlib.util.spec_from_file_location("vslab._fft.pypocketfft", path)
    ext = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ext)
    r2c, c2r = ext.r2c, ext.c2r

    def rfftn(x, axes, workers):
        return r2c(np.asarray(x, dtype=np.float64), axes, True, 0, None, workers)

    def irfftn(x, s, axes, workers):
        return c2r(np.asarray(x, dtype=np.complex128), axes, s[-1], False, 2, None, workers)

    return rfftn, irfftn


def _exact_on_delta(rfftn, irfftn):
    delta = np.zeros((2, 2, 2))
    delta[0, 0, 0] = 1.0
    half = rfftn(delta, (0, 1, 2), 1)
    return np.array_equal(half, np.ones((2, 2, 2))) and np.array_equal(
        irfftn(half, (2, 2, 2), (0, 1, 2), 1), delta
    )


def bind(path):
    """(rfftn, irfftn) from the extension at ``path``, else from ``scipy.fft``."""
    if path is not None:
        try:
            pair = _direct_pair(path)
            if _exact_on_delta(*pair):
                return pair
        except (ImportError, OSError, AttributeError, TypeError, ValueError, RuntimeError):
            pass  # no such file, not the extension, or a changed signature
    return _scipy_rfftn, _scipy_irfftn


rfftn, irfftn = bind(extension_path())
