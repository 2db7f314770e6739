"""Config parsing, VSLB snapshots, and report emission."""

import glob
import itertools
import os
import re
import struct

import numpy as np
import pytest
from oracles import corrupt_plane, kept, kept_modes, random_divfree_half, spread, stored_block

from vslab.atomic import atomic_open
from vslab.config import ConfigError, echo_config, load_config, parse_config_text
from vslab.estimates import enstrophy_ledger
from vslab.reference import StepperConfig, run_reference
from vslab.reports import SERIES_COLUMNS, SLAB_COLUMNS, emit_reports, fmt, write_csv
from vslab.slabs import run_slab_scheme, uniform_partition
from vslab.snapshots import (
    SnapshotError,
    load_field,
    load_trajectory,
    persist_field,
    scan_snapshots,
    snapshot_sink,
)
from vslab.spectral import Grid, random_divfree_field
from vslab.trajectory import ScalarSeries, series_from_records

HERE = os.path.dirname(__file__)
REPO = os.path.dirname(HERE)


# -- config ---------------------------------------------------------------------


def test_minimal_config_fills_defaults():
    cfg = parse_config_text("n = 16\nT = 0.5\n")
    assert cfg.n == 16 and cfg.T == 0.5
    assert cfg.nu == 1.0 and cfg.policy == "uniform" and cfg.slabs == 8
    assert cfg.epsilon0 == 0.5 and cfg.provider == "self-consistent"


def test_config_range_error_names_key():
    with pytest.raises(ConfigError, match="epsilon0"):
        parse_config_text("epsilon0 = 1.5\n")


def test_config_refuses_a_span_whose_gronwall_bound_overflows():
    # exp(709.78) is the largest finite double
    assert parse_config_text("epsilon0 = 0.5\nT = 1419\n").T == 1419.0
    with pytest.raises(ConfigError, match=r"T: the Gronwall bound .* at epsilon0 = 0.5, got 1420"):
        parse_config_text("epsilon0 = 0.5\nT = 1420\n")


@pytest.mark.parametrize("key", ["provider", "policy"])
def test_config_rejects_unknown_choice(key):
    with pytest.raises(ConfigError, match=f"{key}: must be one of"):
        parse_config_text(f"{key} = mystery\n")


@pytest.mark.parametrize("levels", ["4,8", "4,4,8", "4,8,8,16", ""])
def test_config_rejects_study_levels_without_three_distinct_levels(levels):
    with pytest.raises(ConfigError, match="study_levels: "):
        parse_config_text(f"study_levels = {levels}\n")


def test_config_unknown_key_carries_line_number():
    with pytest.raises(ConfigError, match="cfg:3"):
        parse_config_text("n = 8\n\nwhatsit = 1\n", source="cfg")


def test_config_bad_value_type():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("n = sixteen\n")


def test_config_sections_and_comments_ignored():
    cfg = parse_config_text("[grid]\n# comment\nn = 8\n; another\n[run]\nT = 0.25\n")
    assert cfg.n == 8 and cfg.T == 0.25


def test_config_overrides():
    cfg = parse_config_text("n = 8\n", overrides=["T=0.125", "slabs=2"])
    assert cfg.T == 0.125 and cfg.slabs == 2
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("n = 8\n", overrides=["zoom=1"])


def test_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_sample_config_echo_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the echo goes to the config's relative outdir
    cfg = load_config(os.path.join(REPO, "configs", "sample.cfg"))
    with open(tmp_path / cfg.outdir / "config.echo.cfg", "rb") as fh:
        got = fh.read()
    with open(os.path.join(HERE, "golden", "sample.echo.cfg"), "rb") as fh:
        want = fh.read()
    assert got == want


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(REPO, "configs", "*.cfg"))), ids=os.path.basename
)
def test_shipped_config_parses(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the echo goes to the config's relative outdir
    cfg = load_config(path)
    assert cfg.n >= 4


def test_load_config_echoes_to_outdir(tmp_path):
    src = tmp_path / "run.cfg"
    src.write_text(f"n = 8\noutdir = {tmp_path / 'out'}\n")
    load_config(src)
    assert (tmp_path / "out" / "config.echo.cfg").exists()


def test_echo_replays_to_identical_config(tmp_path):
    src = tmp_path / "run.cfg"
    src.write_text(f"n = 8\nT = 0.25\ndt = 0.005\nseed = 3\noutdir = {tmp_path / 'out'}\n")
    cfg = load_config(src)
    replayed = load_config(tmp_path / "out" / "config.echo.cfg")
    assert replayed == cfg


# -- snapshots -------------------------------------------------------------------


def test_snapshot_round_trip_bit_exact(tmp_path):
    grid = Grid(8)
    w = random_divfree_field(grid, seed=77)
    path = tmp_path / "field.vslb"
    persist_field(path, w, 0.375, grid)
    n, t, back = load_field(path, grid)
    assert n == 8 and t == 0.375
    assert back.shape == (3, 5, 5, 3)
    assert np.array_equal(back, w)


def test_snapshot_golden_bytes_2cubed(tmp_path):
    # format 1 pinned a zero field at 2^3, which has no Grid; format 2 pins
    # one at 4^3, the smallest grid, whose kept block (3, 3, 3, 2) holds 54
    # amplitudes of 16 bytes
    path = tmp_path / "zero.vslb"
    size = persist_field(path, np.zeros((3, 3, 3, 2), dtype=complex), 0.25, Grid(4))
    want = struct.pack("<4sIIId", b"VSLB", 2, 4, 3, 0.25) + b"\x00" * 864
    assert path.read_bytes() == want
    assert size == 24 + 864


def test_snapshot_payload_order_is_lexicographic(tmp_path):
    # lexicographic in the block rows, which hold k = 0 .. kmax and then
    # -kmax .. -1 on the first two axes and k_3 = 0 .. kmax on the last
    n, h = 4, 3
    grid = Grid(n)
    size = 3 * n * n * h
    distinct = (np.arange(size) + 1j * np.arange(size, 2 * size)).reshape(3, n, n, h)
    half = grid.dealias(grid.symmetrize(distinct))  # Hermitian; distinct up to conjugate pairs
    path = tmp_path / "order.vslb"
    persist_field(path, kept(grid, half), 0.0, grid)
    payload = np.frombuffer(path.read_bytes(), dtype="<f8", offset=24).reshape(3, 18, 2)
    rows = (0, 1, -1)
    modes = list(itertools.product(rows, rows, (0, 1)))
    want = np.array([[half[c, k1 % n, k2 % n, k3] for k1, k2, k3 in modes] for c in range(3)])
    assert np.array_equal(payload[:, :, 0], want.real)
    assert np.array_equal(payload[:, :, 1], want.imag)
    _, _, back = load_field(path, grid)
    assert np.array_equal(spread(grid, back), half)


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bad.vslb"
    grid = Grid(4)
    persist_field(path, np.zeros((3, 3, 3, 2), dtype=complex), 0.0, grid)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match="bad magic"):
        load_field(path, grid)


def test_snapshot_bad_version(tmp_path):
    path = tmp_path / "ver.vslb"
    grid = Grid(4)
    persist_field(path, np.zeros((3, 3, 3, 2), dtype=complex), 0.0, grid)
    for version in (9, 1):  # 1 held the whole cube, and no reader of it is kept
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match=f"ver.vslb: unsupported format version {version}$"):
            load_field(path, grid)


def test_snapshot_truncated(tmp_path):
    path = tmp_path / "short.vslb"
    grid = Grid(4)
    persist_field(path, np.zeros((3, 3, 3, 2), dtype=complex), 0.0, grid)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(SnapshotError, match="truncated"):
        load_field(path, grid)


def test_snapshot_symmetry_violation(tmp_path):
    grid = Grid(4)
    w = np.zeros((3, 3, 3, 2), dtype=complex)
    w[0, 1, 0, 1] = 1.0  # k_3 = 1 stands for its mirror at k_3 = -1, which the file lacks
    path = tmp_path / "asym.vslb"
    persist_field(path, w, 0.0, grid)
    load_field(path, grid)
    w[0, 1, 0, 0] = 1.0  # no conjugate partner on the plane k_3 = 0
    persist_field(path, w, 0.0, grid)
    with pytest.raises(SnapshotError, match="symmetry"):
        load_field(path, grid)


def test_snapshot_huge_hermitian_defect(tmp_path):
    # squared magnitudes of 1e200 overflow, so only a check on |a - b| and |a| sees this
    grid = Grid(8)
    w = np.zeros((3, 5, 5, 3), dtype=complex)
    w[1, 1, -2, 0] = w[1, -1, 2, 0] = 1e200  # k = (1, -2, 0) and its mirror
    path = tmp_path / "huge.vslb"
    persist_field(path, w, 0.0, grid)
    load_field(path, grid)
    corrupt_plane(path, delta=1e200)
    with pytest.raises(SnapshotError, match="huge.vslb: Hermitian symmetry violated"):
        load_field(path, grid)


@pytest.mark.parametrize("n", [4, 32])
def test_snapshot_load_is_contiguous_and_equals_the_gather(tmp_path, n):
    grid = Grid(n)
    block = random_divfree_field(grid, seed=n)
    block[:, 1, 2, 1] = complex(-0.0, -0.0)
    path = tmp_path / "layout.vslb"
    persist_field(path, block, 0.0, grid)
    _, _, back = load_field(path, grid)
    assert back.flags.c_contiguous and back.flags.writeable
    assert back.tobytes() == stored_block(path).tobytes()
    assert back.tobytes() == block.tobytes()


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_block_encoding_is_the_half_spectrum_encoding(tmp_path, n):
    # the payload is the half spectrum's kept modes, picked by wavevector
    grid = Grid(n)
    for seed in (0, 1, 2):
        half = random_divfree_half(grid, seed)
        persist_field(tmp_path / "block.vslb", kept(grid, half), 0.5, grid)
        got = (tmp_path / "block.vslb").read_bytes()
        assert got == struct.pack("<4sIIId", b"VSLB", 2, n, 3, 0.5) + kept_modes(half).tobytes()


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_block_decode_is_the_kept_block_of_the_half_spectrum(tmp_path, n):
    # a file written by hand from a half spectrum, apart from the encoder
    grid = Grid(n)
    path = tmp_path / "snap.vslb"
    for seed in (3, 4):
        half = random_divfree_half(grid, seed)
        header = struct.pack("<4sIIId", b"VSLB", 2, n, 3, 0.25)
        path.write_bytes(header + kept_modes(half).tobytes())
        got_n, t, block = load_field(path, grid)
        assert (got_n, t) == (n, 0.25) and block.flags.c_contiguous
        assert block.tobytes() == kept(grid, half).tobytes()


def test_block_decode_refuses_a_hermitian_defect_inside_the_box(tmp_path):
    grid = Grid(8)
    path = tmp_path / "snap.vslb"
    persist_field(path, random_divfree_field(grid, 7), 0.0, grid)
    load_field(path, grid)
    corrupt_plane(path)  # k = (1, -2, 0), on the plane k_3 = 0 of the box
    with pytest.raises(SnapshotError, match="snap.vslb: Hermitian symmetry violated"):
        load_field(path, grid)


def test_block_decode_refuses_another_grid_size(tmp_path):
    path = tmp_path / "snap.vslb"
    persist_field(path, random_divfree_field(Grid(8), 8), 0.0, Grid(8))
    with pytest.raises(SnapshotError, match="grid size 8 differs from 16"):
        load_field(path, Grid(16))


def test_trajectory_save_load(tmp_path):
    grid = Grid(8)
    w = random_divfree_field(grid, seed=5)
    times = np.array([0.0, 0.5, 1.0])
    fields = [w, 0.5 * w, 0.25 * w]  # the sink takes and the load gives kept blocks
    sink = snapshot_sink(tmp_path, grid)
    for t, w in zip(times, fields):
        sink(t, w)
    back = load_trajectory(tmp_path)
    assert np.array_equal(back.times, times)
    assert all(np.array_equal(a, b) for a, b in zip(back.fields, fields))


@pytest.mark.parametrize("runner, count", [("reference", 6), ("slabs", 5)])
def test_snapshot_files_are_canonical(tmp_path, runner, count):
    # a file is a function of the kept block alone: the header and the block's bytes
    grid = Grid(8)
    w0 = random_divfree_field(grid, seed=13)
    write = snapshot_sink(tmp_path, grid)
    handed = []

    def sink(t, w):
        handed.append(struct.pack("<4sIIId", b"VSLB", 2, 8, 3, t) + w.tobytes())
        write(t, w)

    if runner == "reference":
        run_reference(grid, w0, 0.05, StepperConfig(dt=0.01), sink, field_every=1)
    else:
        run_slab_scheme(grid, w0, uniform_partition(0.05, 2), sink, slab_samples=2)
    paths = sorted(tmp_path.glob("*.vslb"))
    assert len(paths) == len(handed) == count
    assert [path.read_bytes() for path in paths] == handed


def test_atomic_open_keeps_the_old_file_when_the_write_fails(tmp_path):
    path = tmp_path / "snap_000000.vslb"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_open(path, "w") as fh:
            fh.write("new")
            assert fh.name == str(path) + ".tmp"  # not a .vslb name: scans skip it
            raise RuntimeError("disk full")
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["snap_000000.vslb"]


def test_writers_leave_no_temporary_files(tmp_path):
    grid = Grid(4)
    persist_field(tmp_path / "snap_000000.vslb", random_divfree_field(grid, seed=1), 0.0, grid)
    emit_reports(tmp_path, _tiny_ledger())
    echo_config(parse_config_text("n = 8\n"), tmp_path)
    names = os.listdir(tmp_path)
    assert len(names) == 7 and not [n for n in names if n.endswith(".tmp")]


def test_scan_orders_by_time_from_headers_only(tmp_path):
    grid = Grid(8)
    w = random_divfree_field(grid, seed=5)
    for name, t in (("a.vslb", 0.0), ("b.vslb", 0.5), ("c.vslb", 1.0)):
        persist_field(tmp_path / name, w, t, grid)
    (tmp_path / "notes.txt").write_text("not a snapshot")
    corrupt_plane(tmp_path / "b.vslb")
    n, times, paths = scan_snapshots(tmp_path)
    assert n == 8 and times == [0.0, 0.5, 1.0]
    assert [os.path.basename(p) for p in paths] == ["a.vslb", "b.vslb", "c.vslb"]
    with pytest.raises(SnapshotError, match="b.vslb: Hermitian symmetry violated"):
        load_trajectory(tmp_path)


@pytest.mark.parametrize(
    "times, refusal",
    [
        ((0.0, 1.0, 0.5), "c.vslb: sample time 0.5 is before 1.0 of b.vslb"),
        ((1.0, 0.0, 0.5), "b.vslb: sample time 0.0 is before 1.0 of a.vslb"),
        ((0.0, 0.5, 0.5), "b.vslb and c.vslb: same sample time 0.5"),
        ((0.0, -0.0, 0.5), "a.vslb and b.vslb: same sample time 0.0"),
    ],
)
def test_scan_refuses_times_out_of_name_order(tmp_path, times, refusal):
    # snapshot_sink names its files in time order: any other order is a corrupt header
    zero = np.zeros((3, 3, 3, 2), dtype=complex)
    for name, t in zip(("a.vslb", "b.vslb", "c.vslb"), times):
        persist_field(tmp_path / name, zero, t, Grid(4))
    with pytest.raises(SnapshotError, match=re.escape(refusal)):
        scan_snapshots(tmp_path)


def test_scan_rejects_overlong_payload_as_a_size_mismatch(tmp_path):
    path = tmp_path / "long.vslb"
    persist_field(path, np.zeros((3, 3, 3, 2), dtype=complex), 0.0, Grid(4))
    path.write_bytes(path.read_bytes() + bytes(16))
    mismatch = r"long.vslb: payload size mismatch \(904 bytes, expected 888\)"
    with pytest.raises(SnapshotError, match=mismatch):
        scan_snapshots(tmp_path)


def test_scan_rejects_a_non_finite_time(tmp_path):
    zero = np.zeros((3, 3, 3, 2), dtype=complex)
    persist_field(tmp_path / "a.vslb", zero, float("nan"), Grid(4))
    with pytest.raises(SnapshotError, match="a.vslb: non-finite sample time nan"):
        scan_snapshots(tmp_path)


def test_scan_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.vslb"
    persist_field(path, np.zeros((3, 3, 3, 2), dtype=complex), 0.0, Grid(4))
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(SnapshotError, match="short.vslb: truncated payload"):
        scan_snapshots(tmp_path)


# -- reports ----------------------------------------------------------------------


def _tiny_ledger():
    series = ScalarSeries(
        times=np.linspace(0.0, 1.0, 11),
        energy=np.linspace(4.0, 3.0, 11),
        enstrophy=np.linspace(2.0, 1.0, 11),
        dissipation=np.linspace(1.0, 0.5, 11),
        enstrophy_dissipation=np.linspace(0.5, 0.25, 11),
    )
    return enstrophy_ledger(series, uniform_partition(1.0, 2), eps0=0.5, C=1.0)


def test_float_formatting_round_trips():
    for x in (1.0 / 3.0, 1e-17, 123456.789, np.pi, 2.0 ** -1074):
        assert float(fmt(x)) == x


def test_empty_csv_has_header(tmp_path):
    path = write_csv(tmp_path / "empty.csv", ("a", "b"), [])
    with open(path, newline="") as fh:
        content = fh.read()
    assert content == "a,b\r\n"


def test_known_rows_exact_text(tmp_path):
    path = write_csv(tmp_path / "two.csv", ("k", "v"), [(0, 0.5), (1, 0.25)])
    with open(path, newline="") as fh:
        content = fh.read()
    assert content == "k,v\r\n0,0.5\r\n1,0.25\r\n"


def test_emit_reports_layout(tmp_path):
    paths = emit_reports(tmp_path, _tiny_ledger())
    with open(paths["series"]) as fh:
        header = fh.readline().strip()
    assert header == ",".join(SERIES_COLUMNS)
    with open(paths["slabs"]) as fh:
        header = fh.readline().strip()
    assert header == ",".join(SLAB_COLUMNS)
    assert os.path.exists(paths["summary"])


def test_svg_polyline_point_counts(tmp_path):
    paths = emit_reports(tmp_path, _tiny_ledger())
    with open(paths["series_svg"]) as fh:
        svg = fh.read()
    polylines = [chunk.split('"')[0] for chunk in svg.split('points="')[1:]]
    assert len(polylines) == 3
    for pts in polylines:
        assert len(pts.split()) == 11  # one point per sample


def test_emit_reports_empty_ledger(tmp_path):
    from vslab.estimates import EstimateLedger

    empty = EstimateLedger(
        rows=[], K0=0.0, eps0=0.5, C=1.0, T=0.0,
        global_bound=0.0, sup_enstrophy=0.0, global_ok=True,
        series=series_from_records([], []),
    )
    paths = emit_reports(tmp_path, empty)
    with open(paths["slabs"], newline="") as fh:
        assert fh.read() == ",".join(SLAB_COLUMNS) + "\r\n"
    with open(paths["series"], newline="") as fh:
        assert fh.read() == ",".join(SERIES_COLUMNS) + "\r\n"


def test_csv_numbers_parse_back_to_doubles(tmp_path):
    ledger = _tiny_ledger()
    paths = emit_reports(tmp_path, ledger)
    import csv

    with open(paths["slabs"]) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["M_k"]) == ledger.rows[0].M_k
    assert float(rows[0]["gronwall_bound"]) == ledger.rows[0].gronwall_bound
    assert float(rows[1]["kstar"]) == ledger.rows[1].kstar
