"""Record the per-seed reference values that bench/run.py checks outputs against.

    python3 bench/record.py FIRST LAST [WORKLOAD ...]

runs each workload (or only those named) once per seed in FIRST..LAST
(inclusive), applies every output check except the comparison with recorded
values, and merges the checked values into bench/expected.json.  Re-record only after a change
that is meant to move the numbers, and say why in the change.
"""

import json
import os
import shutil
import sys
import tempfile

import run


def record_seed(name, workload, seed, scratch):
    snapdir = None
    if workload.snapshot_overrides:
        snapdir, _ = run.make_snapshots(workload, seed, scratch, run.TIME_LIMIT_S)
    sample = run.run_workload_sample(
        workload, seed, False, os.path.join(scratch, "sample"), snapdir, run.TIME_LIMIT_S
    )
    if not sample.ok:
        raise RuntimeError(f"{name} seed {seed}: " + "; ".join(sample.errors))
    return sample.values


def main():
    first, last = int(sys.argv[1]), int(sys.argv[2])
    names = sys.argv[3:] or list(run.WORKLOADS)
    with open(run.EXPECTED_PATH) as fh:
        expected = json.load(fh)
    os.makedirs(run.SCRATCH, exist_ok=True)
    for seed in range(first, last + 1):
        for name in names:
            workload = run.WORKLOADS[name]
            scratch = tempfile.mkdtemp(prefix="record-", dir=run.SCRATCH)
            try:
                values = record_seed(name, workload, seed, scratch)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            expected.setdefault(name, {})[str(seed)] = values
            print(f"{name} seed {seed}: {values}", flush=True)
        with open(run.EXPECTED_PATH, "w") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
