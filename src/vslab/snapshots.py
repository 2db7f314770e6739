"""VSLB spectral snapshot files.

Layout (all little-endian):

    bytes 0..3    magic "VSLB"
    bytes 4..7    format version, uint32 (currently 2)
    bytes 8..11   grid size n per axis, uint32
    bytes 12..15  component count, uint32 (always 3)
    bytes 16..23  sample time, float64
    payload       the kept block of the 2/3 cut (``vslab.spectral``), shape
                  (3, K, K, kmax + 1) with K = 2 kmax + 1, as (re, im)
                  float64 pairs in its C order: per component, the rows
                  k = 0 .. kmax and then -kmax .. -1 on the first two
                  axes, and k_3 = 0 .. kmax on the last

A file holds nothing outside the cut, so ``n`` fixes its size,
24 + 48 K^2 (kmax + 1) bytes (232,872 at 32^3).  Writing is the header and
the block's bytes.  Loading refuses:

* a header whose magic, version, component count or size is wrong, or whose
  time is not finite; version 1 files, which held the whole cube, among them;
* a NaN or infinite amplitude, as "non-finite";
* a Hermitian defect on the self-conjugate plane k_3 = 0 above SYMMETRY_TOL
  times the largest amplitude, so a corrupt file cannot masquerade as a
  real field.  The planes k_3 > 0 stand for their conjugate mirrors, which
  the file does not hold.

Round trips are bit-exact.

A directory is read in two steps: ``scan_snapshots`` checks every header,
reading 24 bytes of each, and that the times increase in name order, and
``read_snapshots`` then loads the payloads one at a time.  A command that
reads the payloads a second time, a range of whole planes at a time
(``read_planes``), checks each file against the ``fingerprint`` taken
before its first read, so both reads see the same bytes.  A directory is
written one file at a time by ``snapshot_sink``, which first clears it of
snapshots and then encodes the kept blocks the solvers hand it.  Each file
is written under a temporary name that does not end in ``.vslb`` and
renamed when complete, so a scan never sees a partial file.
"""

from __future__ import annotations

import math
import os
import struct
import sys

import numpy as np

from vslab.atomic import atomic_open
from vslab.spectral import Grid, _mirror, kept_block_shape
from vslab.trajectory import Trajectory

MAGIC = b"VSLB"
VERSION = 2
HEADER = struct.Struct("<4sIIId")
assert HEADER.size == 24
SYMMETRY_TOL = 1e-10  # Hermitian defect a loaded file may carry, relative to its largest amplitude


class SnapshotError(ValueError):
    pass


def persist_field(path, block, time, grid):
    """Write one kept vector block of ``grid``; returns the byte count.

    The file appears at ``path`` only once it is complete (``vslab.atomic``).
    """
    block = np.ascontiguousarray(block, dtype="<c16")
    shape = (3, *grid._block_shape)
    if block.shape != shape:
        raise SnapshotError(f"expected a kept block {shape}, got shape {block.shape}")
    with atomic_open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, VERSION, grid.n, 3, float(time)))
        fh.write(block.data)
    return HEADER.size + block.nbytes


def _plane_offset(n, plane):
    """Byte offset of the (component, k_1) plane ``plane`` of the payload of an n^3 file.

    The payload is the kept block's 3 K planes of K (kmax + 1) amplitudes
    each, in C order after the header, so plane 3 K is the end of the file.
    """
    kb, _, kk = kept_block_shape(n)
    return HEADER.size + plane * kb * kk * 16


def _check_header(path, head, size):
    """(n, time) from the first bytes ``head`` of a snapshot file of ``size`` bytes."""
    if len(head) < HEADER.size:
        raise SnapshotError(f"{path}: truncated header ({len(head)} bytes)")
    magic, version, n, ncomp, time = HEADER.unpack_from(head)
    if magic != MAGIC:
        raise SnapshotError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotError(f"{path}: unsupported format version {version}")
    if ncomp != 3:
        raise SnapshotError(f"{path}: expected 3 components, got {ncomp}")
    if not math.isfinite(time):
        raise SnapshotError(f"{path}: non-finite sample time {time!r}")
    expected = _plane_offset(n, 3 * kept_block_shape(n)[0])
    if size < expected:
        raise SnapshotError(f"{path}: truncated payload ({size} of {expected} bytes)")
    if size != expected:
        raise SnapshotError(f"{path}: payload size mismatch ({size} bytes, expected {expected})")
    return int(n), float(time)


def load_field(path, grid):
    """Read one snapshot of ``grid``; returns (n, time, block), the kept block writable.

    The payload is read straight into the block that is returned.
    """
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(HEADER.size)
        n, time = _check_header(path, head, os.fstat(fh.fileno()).st_size)
        if n != grid.n:
            raise SnapshotError(f"{path}: grid size {n} differs from {grid.n}")
        block = np.empty((3, *grid._block_shape), dtype="<c16")
        _read_exactly(fh, block, path)
    largest = float(np.max(np.abs(block)))
    if not math.isfinite(largest):
        raise SnapshotError(f"{path}: non-finite coefficients (max |w| = {largest})")
    plane = block[..., :1]  # k_3 = 0, the one plane that holds its own mirror
    defect = float(np.max(np.abs(plane - _mirror(plane))))
    if defect > SYMMETRY_TOL * max(1.0, largest):
        raise SnapshotError(f"{path}: Hermitian symmetry violated (defect {defect:.3e})")
    return n, time, block


def _read_exactly(fh, out, path):
    """Fill the C-ordered array ``out`` from the unbuffered file ``fh``; a short read raises."""
    got = fh.readinto(out)
    if got != out.nbytes:
        raise SnapshotError(f"{path}: truncated payload ({got} of {out.nbytes} bytes read)")


def snapshot_name(index):
    return f"snap_{index:06d}.vslb"


def snapshot_sink(outdir, grid: Grid):
    """A ``sink(t, w)`` that writes each kept block it is handed as the next snapshot file.

    Creating the sink removes every ``*.vslb`` file, and every ``*.vslb.tmp``
    a killed writer left, already in ``outdir``, so the directory never mixes
    two runs.  The files are ``snap_000000.vslb``, ``snap_000001.vslb``, ...
    in the order the fields arrive; each is written whole before the call
    returns (see ``persist_field``), so a run that stops early leaves a
    readable prefix.
    """
    os.makedirs(outdir, exist_ok=True)
    for name in os.listdir(outdir):
        if name.endswith((".vslb", ".vslb.tmp")):
            os.remove(os.path.join(outdir, name))
    count = 0

    def sink(t, w):
        nonlocal count
        persist_field(os.path.join(outdir, snapshot_name(count)), w, t, grid)
        count += 1

    return sink


def scan_snapshots(snapdir):
    """Validated headers of every .vslb file in a directory, in name order.

    Reads only the 24-byte header and the size of each file.  Returns
    (n, times, paths); raises SnapshotError on an empty directory, a bad
    header, a file whose grid size differs from the first one's, two files
    with the same sample time, or times that do not increase in name order.
    ``snapshot_sink`` names its files in time order, so a time out of that
    order is a corrupt header, not a sample to be sorted into place.
    """
    names = sorted(f for f in os.listdir(snapdir) if f.endswith(".vslb"))
    if not names:
        raise SnapshotError(f"no .vslb snapshots in {snapdir}")
    first, times = None, []
    for name in names:
        path = os.path.join(snapdir, name)
        with open(path, "rb") as fh:
            n, t = _check_header(path, fh.read(HEADER.size), os.fstat(fh.fileno()).st_size)
        if first is None:
            first = n
        elif n != first:
            raise SnapshotError(f"{name}: grid size {n} differs from {first}")
        times.append(t)
    order = np.argsort(times, kind="stable")
    for a, b in zip(order[:-1], order[1:]):
        if times[a] == times[b]:
            raise SnapshotError(f"{names[a]} and {names[b]}: same sample time {times[a]!r}")
    for i in range(1, len(names)):
        if times[i] < times[i - 1]:
            raise SnapshotError(
                f"{names[i]}: sample time {times[i]!r} is before {times[i - 1]!r} of "
                f"{names[i - 1]}; times must increase in name order"
            )
    return first, times, [os.path.join(snapdir, name) for name in names]


def read_snapshots(grid: Grid, paths, fingerprints=None):
    """Load the snapshots one at a time, in the given order; yields each kept block.

    Every snapshot must pass ``load_field`` and be a zero-mean
    divergence-free vorticity field (``Grid.require_solenoidal``); either
    refusal names the file by its path.  Given a list ``fingerprints``,
    each file's ``fingerprint``, taken before the file is opened, is
    appended to it for ``read_planes``.
    """
    for path in paths:
        if fingerprints is not None:
            fingerprints.append(fingerprint(os.stat(path)))
        _, _, block = load_field(path, grid)
        try:
            block = grid.require_solenoidal(block)
        except ValueError as exc:
            raise SnapshotError(f"{path}: {exc}") from None
        yield block


def fingerprint(st):
    """(st_ino, st_size, st_mtime_ns) of a file's ``os.stat`` result: what ``read_planes`` checks.

    Taken before a file's first read, it also catches a change made while
    that read ran.  A rewrite in place that keeps the size within the file
    system's timestamp granularity goes unseen.
    """
    return st.st_ino, st.st_size, st.st_mtime_ns


def read_planes(grid: Grid, paths, fingerprints, lo, out):
    """Read the kept block of file ``paths[m]`` from its plane ``lo`` on into ``out[m]``.

    The planes are the (component, k_1) planes of the block, 3 K in all;
    ``out`` is a C-ordered (len(paths), planes, K, kmax + 1) complex array.
    The files were loaded and checked before, and each must still match
    its entry of ``fingerprints`` (see ``read_snapshots``); a file that
    does not is refused by its path.  Each file is opened, read and closed
    in turn, so at most one is open at a time.
    """
    offset = _plane_offset(grid.n, lo)
    for path, expected, row in zip(paths, fingerprints, out, strict=True):
        with open(path, "rb", buffering=0) as fh:
            if fingerprint(os.fstat(fh.fileno())) != expected:
                raise SnapshotError(f"{path}: changed since it was checked")
            fh.seek(offset)
            _read_exactly(fh, row, path)
    if sys.byteorder != "little":  # the files hold little-endian pairs
        out.byteswap(inplace=True)


def load_trajectory(snapdir, nu=1.0):
    """Rebuild a trajectory of kept blocks from every .vslb file in a directory.

    The files are checked and ordered by ``scan_snapshots`` and loaded by
    ``read_snapshots``.
    """
    n, times, paths = scan_snapshots(snapdir)
    grid = Grid(n)
    fields = list(read_snapshots(grid, paths))
    return Trajectory(grid=grid, nu=nu, times=np.array(times), fields=fields)
