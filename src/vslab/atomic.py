"""Whole-file writes: a reader sees the old file, the whole new one, or none.

Every output file is written to ``path + ".tmp"`` and renamed over ``path``
once it is complete.  The temporary name never ends in ``.vslb``, so a
directory scan for snapshots skips a file that is still being written.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open the temporary file for writing; rename it to ``path`` on a clean exit.

    If the body raises, the temporary file is removed and ``path`` is left
    as it was.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise
