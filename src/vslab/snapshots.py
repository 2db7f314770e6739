"""VSLB spectral snapshot files.

Layout (all little-endian):

    bytes 0..3    magic "VSLB"
    bytes 4..7    format version, uint32 (currently 1)
    bytes 8..11   grid size n per axis, uint32
    bytes 12..15  component count, uint32 (always 3)
    bytes 16..23  sample time, float64
    payload       3 * n^3 coefficients as (re, im) float64 pairs,
                  per component, wavevectors in lexicographic order
                  of the integer triple (k1, k2, k3), each k_i running
                  over -n/2 .. n/2-1; this is the C order of the
                  fftshift-ed (n, n, n) cube

A field is written and read as its half spectrum k_3 >= 0 (see
``vslab.spectral``); the file holds the whole cube.  Writing fills the
k_3 < 0 half by conjugate reflection; loading checks the stored k_3 < 0 half
against that reflection of the stored k_3 > 0 half, and the two
self-conjugate planes k_3 = 0 and k_3 = -n/2 against their own reflections,
so a corrupt file cannot masquerade as a real field, and then drops the
k_3 < 0 half.  Round trips of
Hermitian fields are bit-exact.

A directory is read in two steps: ``scan_snapshots`` checks every header and
orders the files by time, reading 24 bytes of each, and ``read_snapshots``
then loads the payloads one at a time, as the kept blocks of cut fields.  A
directory is written one file at a time by ``snapshot_sink``, which first
clears it of snapshots and then takes the kept blocks the solvers hand it;
each block is spread into a zeroed half spectrum, so every amplitude
outside the cut is written as +0.0 (its conjugate mirror as +0.0 - 0.0j).
Each file is written under a temporary name that does not end in ``.vslb``
and renamed when complete, so a scan never sees a partial file.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from vslab.atomic import atomic_open
from vslab.spectral import Grid, _mirror
from vslab.trajectory import Trajectory

MAGIC = b"VSLB"
VERSION = 1
HEADER = struct.Struct("<4sIIId")
assert HEADER.size == 24
SYMMETRY_TOL = 1e-10  # Hermitian defect a loaded file may carry, relative to its largest amplitude


class SnapshotError(ValueError):
    pass


def persist_field(path, coeffs, time):
    """Write one half-spectrum vector field as the whole cube; returns the byte count.

    The file appears at ``path`` only once it is complete (``vslab.atomic``).
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    n = coeffs.shape[1] if coeffs.ndim == 4 else 0
    if coeffs.shape != (3, n, n, n // 2 + 1) or n < 2 or n % 2:
        raise SnapshotError(f"expected a (3, n, n, n//2+1) half spectrum, got shape {coeffs.shape}")
    # fftshift-ed cube, filled once: k_3 = 0 .. n/2-1, then -n/2, then the mirror
    half = np.fft.fftshift(coeffs, axes=(1, 2))
    h = n // 2
    payload = np.empty((3, n, n, n), dtype="<c16")
    payload[..., h:] = half[..., :h]
    payload[..., 0] = half[..., h]
    _mirror(half[..., h - 1 : 0 : -1], payload[..., 1:h])
    with atomic_open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, VERSION, n, 3, float(time)))
        fh.write(payload.data)
    return HEADER.size + payload.nbytes


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
    expected = HEADER.size + 3 * n**3 * 16
    if size != expected:
        raise SnapshotError(f"{path}: truncated payload ({size} of {expected} bytes)")
    return int(n), float(time)


def load_field(path):
    """Read one snapshot; returns (n, time, coeffs) with coeffs the half spectrum."""
    with open(path, "rb") as fh:
        blob = fh.read()
    n, time = _check_header(path, blob, len(blob))
    # fftshift-ed cube: index i on every axis holds k_i = i - n/2
    payload = np.frombuffer(blob, dtype="<c16", offset=HEADER.size).reshape(3, n, n, n)
    h = n // 2
    # one component at a time keeps the temporaries to a third of the payload
    halves, selfs, largest = [], [], []
    for part in payload:
        negative = part[..., 1:h]
        positive = part[..., h + 1 :]
        planes = part[..., [0, h]]
        halves.append(np.max(np.abs(negative - _mirror(positive[..., ::-1])), initial=0.0))
        selfs.append(np.max(np.abs(planes - _mirror(planes))))
        largest.append(np.max(np.abs(part)))
    defect = max(float(np.max(halves)), float(np.max(selfs)))
    scale = max(1.0, float(np.max(largest)))
    if defect > SYMMETRY_TOL * scale:
        raise SnapshotError(f"{path}: Hermitian symmetry violated (defect {defect:.3e})")
    # k_3 = 0 .. n/2-1 and then -n/2, with the k_1 and k_2 halves swapped
    # back into fftfreq order, one C-contiguous block copy at a time
    coeffs = np.empty((3, n, n, h + 1), dtype=np.complex128)
    swap = ((slice(None, h), slice(h, None)), (slice(h, None), slice(None, h)))
    for a, from_a in swap:
        for b, from_b in swap:
            coeffs[:, a, b, :h] = payload[:, from_a, from_b, h:]
            coeffs[:, a, b, h] = payload[:, from_a, from_b, 0]
    return n, time, coeffs


def snapshot_name(index):
    return f"snap_{index:06d}.vslb"


def snapshot_sink(outdir, grid: Grid):
    """A ``sink(t, w)`` that writes each kept block it is handed as the next snapshot file.

    Creating the sink removes every ``*.vslb`` file, and every ``*.vslb.tmp``
    a killed writer left, already in ``outdir``, so the directory never mixes
    two runs.  The files are ``snap_000000.vslb``, ``snap_000001.vslb``, ...
    in the order the fields arrive; each is written whole before the call
    returns (see ``persist_field``), so a run that stops early leaves a
    readable prefix.  Each block ``w`` of ``grid`` is spread into one reused
    half spectrum, zero outside the cut, before it is written.
    """
    os.makedirs(outdir, exist_ok=True)
    for name in os.listdir(outdir):
        if name.endswith((".vslb", ".vslb.tmp")):
            os.remove(os.path.join(outdir, name))
    half = np.zeros(grid.k.shape, dtype=np.complex128)
    count = 0

    def sink(t, w):
        nonlocal count
        persist_field(os.path.join(outdir, snapshot_name(count)), grid.spread(w, out=half), t)
        count += 1

    return sink


def scan_snapshots(snapdir):
    """Validated headers of every .vslb file in a directory, in time order.

    Reads only the 24-byte header and the size of each file.  Returns
    (n, times, paths); raises SnapshotError on an empty directory, a bad
    header, a file whose grid size differs from the first one's, or two
    files with the same sample time.
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
    return first, [times[i] for i in order], [os.path.join(snapdir, names[i]) for i in order]


def read_snapshots(grid: Grid, paths):
    """Load the snapshots one at a time, in the given order; yields each kept block.

    Every snapshot must be a zero-mean divergence-free vorticity field with
    nothing outside the 2/3 cut (``Grid.require_solenoidal``); each is
    yielded as its kept block (``Grid.kept``).
    """
    for path in paths:
        _, _, w = load_field(path)
        try:
            block = grid.require_solenoidal(w)
        except ValueError as exc:
            raise SnapshotError(f"{os.path.basename(path)}: {exc}") from None
        yield block


def load_trajectory(snapdir, nu=1.0):
    """Rebuild a trajectory of kept blocks from every .vslb file in a directory.

    The files are checked and ordered by ``scan_snapshots`` and loaded by
    ``read_snapshots``.
    """
    n, times, paths = scan_snapshots(snapdir)
    grid = Grid(n)
    fields = list(read_snapshots(grid, paths))
    return Trajectory(grid=grid, nu=nu, times=np.array(times), fields=fields)
