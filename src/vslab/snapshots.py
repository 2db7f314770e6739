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

Round trips are bit-exact; loading revalidates Hermitian symmetry so a
corrupt file cannot masquerade as a real field.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from vslab.spectral import Grid, hermitian_defect
from vslab.trajectory import Trajectory, series_from_samples

MAGIC = b"VSLB"
VERSION = 1
HEADER = struct.Struct("<4sIIId")
assert HEADER.size == 24


class SnapshotError(ValueError):
    pass


def persist_field(path, coeffs, time):
    """Write one spectral vector field; returns the byte count."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim != 4 or coeffs.shape[0] != 3 or len(set(coeffs.shape[1:])) != 1:
        raise SnapshotError(f"expected a (3, n, n, n) field, got shape {coeffs.shape}")
    n = coeffs.shape[1]
    payload = np.fft.fftshift(coeffs, axes=(1, 2, 3)).astype("<c16", copy=False)
    blob = HEADER.pack(MAGIC, VERSION, n, 3, float(time)) + payload.tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def load_field(path, symmetry_tol=1e-10):
    """Read one snapshot; returns (n, time, coeffs)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < HEADER.size:
        raise SnapshotError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, n, ncomp, time = HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise SnapshotError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotError(f"{path}: unsupported format version {version}")
    if ncomp != 3:
        raise SnapshotError(f"{path}: expected 3 components, got {ncomp}")
    expected = HEADER.size + 3 * n**3 * 16
    if len(blob) != expected:
        raise SnapshotError(f"{path}: truncated payload ({len(blob)} of {expected} bytes)")
    payload = np.frombuffer(blob, dtype="<c16", offset=HEADER.size).reshape(3, n, n, n)
    coeffs = np.fft.ifftshift(payload, axes=(1, 2, 3))
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    defect = hermitian_defect(coeffs)
    if defect > symmetry_tol * scale:
        raise SnapshotError(f"{path}: Hermitian symmetry violated (defect {defect:.3e})")
    return int(n), float(time), coeffs


def snapshot_name(index):
    return f"snap_{index:06d}.vslb"


def save_trajectory(outdir, trajectory: Trajectory):
    """Write every field snapshot of a trajectory; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for i, (t, w) in enumerate(zip(trajectory.times, trajectory.fields)):
        path = os.path.join(outdir, snapshot_name(i))
        persist_field(path, w, t)
        paths.append(path)
    return paths


def load_trajectory(snapdir, nu=1.0, with_series=True):
    """Rebuild a trajectory from every .vslb file in a directory.

    Every snapshot must be a zero-mean divergence-free vorticity field.
    """
    names = sorted(f for f in os.listdir(snapdir) if f.endswith(".vslb"))
    if not names:
        raise SnapshotError(f"no .vslb snapshots in {snapdir}")
    times, fields, grid = [], [], None
    for name in names:
        n, t, w = load_field(os.path.join(snapdir, name))
        if grid is None:
            grid = Grid(n)
        elif n != grid.n:
            raise SnapshotError(f"{name}: grid size {n} differs from {grid.n}")
        try:
            grid.require_solenoidal(w)
        except ValueError as exc:
            raise SnapshotError(f"{name}: {exc}") from None
        times.append(t)
        fields.append(w)
    order = np.argsort(times, kind="stable")
    for a, b in zip(order[:-1], order[1:]):
        if times[a] == times[b]:
            raise SnapshotError(f"{names[a]} and {names[b]}: same sample time {times[a]!r}")
    times = [times[i] for i in order]
    fields = [fields[i] for i in order]
    series = series_from_samples(grid, times, fields) if with_series else None
    return Trajectory(grid=grid, nu=nu, times=np.array(times), fields=fields, series=series)
