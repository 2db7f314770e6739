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

One encoder and one decoder serve two layouts of a field (see
``vslab.spectral``): the half spectrum k_3 >= 0, and, given its grid, the kept
block of the 2/3 cut.  Each layout is a window of the file's cube, a run of
rows on every axis: the half spectrum is every row plus the Nyquist plane
k_3 = -n/2, the kept block the box [-kmax, kmax]^3.  Writing copies the
window into the cube, fills k_3 < 0 by conjugate reflection of its k_3 > 0
planes, and writes every other amplitude as +0.0 (the reflected ones as
+0.0 - 0.0j), so a file is a function of the field alone.  Loading refuses:

* a header whose magic, version, component count or size is wrong, or whose
  time is not finite;
* for a kept block, any nonzero word outside the box, as "outside the 2/3
  cut", or as "non-finite" when one of them is NaN or infinite;
* a NaN or infinite amplitude, as "non-finite";
* a Hermitian defect above SYMMETRY_TOL times the largest amplitude: the
  stored k_3 < 0 half against the reflection of the stored k_3 > 0 half, and
  the self-conjugate planes against their own reflections, so a corrupt
  file cannot masquerade as a real field.  For a kept block the check runs
  on the box, outside which the file is zero.

It then gathers the layout from the window.  Round trips of Hermitian fields
are bit-exact.

A directory is read in two steps: ``scan_snapshots`` checks every header and
orders the files by time, reading 24 bytes of each, and ``read_snapshots``
then loads the payloads one at a time, as the kept blocks of cut fields.  A
directory is written one file at a time by ``snapshot_sink``, which first
clears it of snapshots and then encodes the kept blocks the solvers hand it.
Each file is written under a temporary name that does not end in ``.vslb``
and renamed when complete, so a scan never sees a partial file.
"""

from __future__ import annotations

import math
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


def _window(n, grid):
    """(layout shape, copies, box) of one layout in a file of grid size n.

    Each copy pairs an index of the layout with the index of the file's
    cube that holds it, built from runs of rows per axis.  The half
    spectrum (``grid`` None) holds k = 0 .. n/2-1 and then -n/2 .. -1 on
    the first two axes, and k_3 = 0 .. n/2-1 and then the Nyquist plane.
    The kept block of ``grid`` holds k = 0 .. kmax and then -kmax .. -1,
    and k_3 = 0 .. kmax.  ``box`` slices every axis of the file to the
    rows symmetric about k = 0 that the window holds: all but the Nyquist
    row k = -n/2, or [-kmax, kmax].
    """
    h = n // 2
    if grid is None:
        shape = (n, n, h + 1)
        rows = ((slice(0, h), slice(h, n)), (slice(h, n), slice(0, h)))
        planes = ((slice(0, h), slice(h, n)), (slice(h, h + 1), slice(0, 1)))
        box = slice(1, n)
    else:
        shape, kk = grid._block_shape, grid._block_shape[-1]  # kmax + 1
        rows = ((slice(0, kk), slice(h, h + kk)), (slice(kk, 2 * kk - 1), slice(h - kk + 1, h)))
        planes = ((slice(0, kk), slice(h, h + kk)),)
        box = slice(h - kk + 1, h + kk)
    whole = slice(None)
    copies = tuple(
        ((whole, a, b, c), (whole, file_a, file_b, file_c))
        for a, file_a in rows
        for b, file_b in rows
        for c, file_c in planes
    )
    return shape, copies, box


def persist_field(path, coeffs, time, grid=None):
    """Write one vector field as the whole cube; returns the byte count.

    ``coeffs`` is a half spectrum, or with ``grid`` a kept block of it.  The
    file appears at ``path`` only once it is complete (``vslab.atomic``).
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    n = grid.n if grid is not None else coeffs.shape[1] if coeffs.ndim == 4 else 0
    shape, copies, box = _window(n, grid)
    if coeffs.shape != (3, *shape) or n < 2 or n % 2:
        layout = "half spectrum (3, n, n, n//2+1)" if grid is None else f"kept block {(3, *shape)}"
        raise SnapshotError(f"expected a {layout}, got shape {coeffs.shape}")
    h = n // 2
    m = box.stop - h - 1  # the window's planes k_3 = 1 .. m are reflected
    payload = np.zeros((3, n, n, n), dtype="<c16")
    payload.imag[..., 1:h] = -0.0  # the reflections of +0.0
    for mine, theirs in copies:
        payload[theirs] = coeffs[mine]
    # the box and the row below it: an even side about k = 0, which the
    # reflection of the axes -3 and -2 maps onto itself
    cube = slice(box.start - 1, box.stop)
    _mirror(payload[:, cube, cube, h + m : h : -1], payload[:, cube, cube, h - m : h])
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
    if not math.isfinite(time):
        raise SnapshotError(f"{path}: non-finite sample time {time!r}")
    expected = HEADER.size + 3 * n**3 * 16
    if size < expected:
        raise SnapshotError(f"{path}: truncated payload ({size} of {expected} bytes)")
    if size != expected:
        raise SnapshotError(f"{path}: payload size mismatch ({size} bytes, expected {expected})")
    return int(n), float(time)


def _require_zero_outside(path, payload, box):
    """Raise unless every word of the file's cube outside ``box`` on every axis is zero.

    The outside is tested in six views of float64 words, which keep the
    inner axes whole where they can: the rows of the axis -3 past the box,
    then those of the axis -2 inside it, then k_3 past it.  Whether a
    nonzero word is non-finite is decided only once one is found.
    """
    words = payload.view("<f8")
    pair = slice(2 * box.start, 2 * box.stop)  # the words of the box's k_3
    views = (
        words[:, : box.start],
        words[:, box.stop :],
        words[:, box, : box.start],
        words[:, box, box.stop :],
        words[:, box, box, : pair.start],
        words[:, box, box, pair.stop :],
    )
    if not any(view.any() for view in views):
        return
    largest = float(np.max([np.max(np.abs(view), initial=0.0) for view in views]))
    if not math.isfinite(largest):
        raise SnapshotError(
            f"{path}: non-finite coefficients (max |w| outside the 2/3 cut = {largest})"
        )
    raise SnapshotError(f"{path}: content outside the 2/3 cut (max |w| there = {largest:.3e})")


def _hermitian_defect(part, box):
    """(largest |a - conj(a at -k)|, largest |a|) over one component ``part`` of the file's cube.

    ``box`` is the same odd run of rows on every axis, symmetric about
    k = 0, and ``part`` is zero outside it but for the half spectrum's box of
    rows 1 .. n-1: its faces at row 0, k_i = -n/2, each map onto themselves
    with the other two axes reflected.  In the box the reflection flips every
    axis, and the k_3 <= 0 half is compared with the reflection of the
    k_3 >= 0 half.
    """
    inner = part[box, box, box]
    c = inner.shape[-1] // 2  # k_3 = 0
    defects = [np.max(np.abs(inner[..., : c + 1] - np.conj(inner[::-1, ::-1, ::-1][..., : c + 1])))]
    largest = [np.max(np.abs(inner))]
    if box.start == 1:
        for face in (part[..., [0]], part[[0]].transpose(1, 2, 0), part[:, [0]].transpose(0, 2, 1)):
            defects.append(np.max(np.abs(face - _mirror(face))))
            largest.append(np.max(np.abs(face)))
    return float(np.max(defects)), float(np.max(largest))


def load_field(path, grid=None):
    """Read one snapshot; returns (n, time, coeffs).

    ``coeffs`` is the half spectrum, or with ``grid`` the kept block; a file
    with any nonzero word outside the 2/3 cut is refused then.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    n, time = _check_header(path, blob, len(blob))
    if grid is not None and n != grid.n:
        raise SnapshotError(f"{path}: grid size {n} differs from {grid.n}")
    # fftshift-ed cube: index i on every axis holds k_i = i - n/2
    payload = np.frombuffer(blob, dtype="<c16", offset=HEADER.size).reshape(3, n, n, n)
    shape, copies, box = _window(n, grid)
    if grid is not None:
        _require_zero_outside(path, payload, box)
    # one component at a time keeps the temporaries to a third of the box
    with np.errstate(invalid="ignore"):  # inf - inf, from a file refused below
        defect, largest = np.max([_hermitian_defect(part, box) for part in payload], axis=0)
    if not math.isfinite(largest):
        raise SnapshotError(f"{path}: non-finite coefficients (max |w| = {largest})")
    scale = max(1.0, float(largest))
    if defect > SYMMETRY_TOL * scale:
        raise SnapshotError(f"{path}: Hermitian symmetry violated (defect {defect:.3e})")
    coeffs = np.empty((3, *shape), dtype=np.complex128)
    for mine, theirs in copies:
        coeffs[mine] = payload[theirs]
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

    Every snapshot must have nothing outside the 2/3 cut (``load_field``)
    and be a zero-mean divergence-free vorticity field
    (``Grid.require_solenoidal``); each is yielded as its kept block
    (``Grid.kept``).
    """
    for path in paths:
        _, _, block = load_field(path, grid)
        try:
            block = grid.require_solenoidal(block)
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
