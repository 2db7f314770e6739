"""Golden regression net: small 8^3 CLI runs against committed CSVs.

The goldens under ``tests/golden/<run>/`` come from these commands, run in
one directory with the config ``golden.cfg`` written from ``CONFIG`` below
(n = 8, T = 0.125, dt = 0.0025, slabs = 2, field_every = 5), each with
``--set outdir=<run>``:

    vslab run-ref  --config golden.cfg                          -> ref/
    vslab run-slab --config golden.cfg                          -> slab-self/
    vslab run-slab --config golden.cfg --set provider=reference \\
                   --set reference_dir=ref/snapshots            -> slab-reference/
    vslab monitor  --config golden.cfg ref/snapshots            -> monitor/

``python tests/test_golden.py`` reruns them and rewrites the goldens; a
change that does so on purpose says so, with the largest relative change.
"""

import csv
import math
import os
import shutil
import tempfile

from vslab.cli import cli_dispatch

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CONFIG = {"n": 8, "T": 0.125, "dt": 0.0025, "slabs": 2, "field_every": 5}

FILES = {
    "ref": ("series.csv", "slabs.csv", "summary.csv"),
    "slab-self": ("series.csv", "slabs.csv", "summary.csv"),
    "slab-reference": ("series.csv", "slabs.csv", "summary.csv"),
    "monitor": ("monitors.csv",),
}

# max_rho is a ratio of two Picard changes taken near picard_tol, so it
# carries the rounding of the last iterates: a 2e-16 change of the kernel's
# rounding once moved it by 1.1e-6 relative.
RTOL = {"max_rho": 1e-4}
EXACT = {"picard_iters"}


def run_all(root):
    """Run the golden commands with every output under ``root``."""
    cfg = os.path.join(root, "golden.cfg")
    with open(cfg, "w") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in CONFIG.items()))
    ref_snaps = os.path.join(root, "ref", "snapshots")
    commands = {
        "ref": ["run-ref"],
        "slab-self": ["run-slab"],
        "slab-reference": [
            "run-slab",
            "--set",
            "provider=reference",
            "--set",
            f"reference_dir={ref_snaps}",
        ],
        "monitor": ["monitor", ref_snaps],
    }
    for run, (command, *rest) in commands.items():
        outdir = os.path.join(root, run)
        argv = [command, "--config", cfg, "--set", f"outdir={outdir}", *rest]
        if cli_dispatch(argv) != 0:
            raise RuntimeError(f"golden command failed: vslab {' '.join(argv)}")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _differs(column, got, want):
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got != want
    if column in EXACT or math.isnan(a) or math.isnan(b):
        return got != want
    if column in RTOL:
        return abs(a - b) > RTOL[column] * max(abs(a), abs(b))
    return abs(a - b) > 1e-12 * max(1.0, abs(a), abs(b))


def mismatches(got_path, want_path):
    got, want = _rows(got_path), _rows(want_path)
    if len(got) != len(want) or got[0] != want[0]:
        return [f"{want_path}: header or row count differs"]
    header = want[0]
    keyed = header == ["quantity", "value"]
    out = []
    for got_row, want_row in zip(got[1:], want[1:]):
        if len(got_row) != len(want_row):
            out.append(f"{want_path}: row {want_row[0]} has {len(got_row)} cells")
            continue
        for j, (g, w) in enumerate(zip(got_row, want_row)):
            column = want_row[0] if keyed and j else header[j]
            if _differs(column, g, w):
                out.append(f"{want_path}: {column} row {want_row[0]}: {g} != {w}")
    return out


def test_cli_outputs_match_goldens(tmp_path):
    run_all(str(tmp_path))
    bad = []
    for run, names in FILES.items():
        for name in names:
            bad += mismatches(tmp_path / run / name, os.path.join(GOLDEN, run, name))
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        run_all(root)
        for run, names in FILES.items():
            os.makedirs(os.path.join(GOLDEN, run), exist_ok=True)
            for name in names:
                shutil.copyfile(os.path.join(root, run, name), os.path.join(GOLDEN, run, name))
