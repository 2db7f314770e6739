"""One benchmark sample: import the vslab CLI, run one command, record it.

Started by bench/run.py, one process per CLI command, as

    python3 bench/worker.py RESULT_JSON TRACE -- <vslab CLI arguments>

with the repository's ``src`` directory on PYTHONPATH.  It writes to
RESULT_JSON the moment ``vslab.cli`` finished importing (``time.monotonic``,
which one host shares across processes, so the parent can subtract its own
launch time), the command's wall time and CPU time (user plus system, all
threads of the process) from dispatch to return and the process's peak
resident memory; the exit code is the command's.  With TRACE = 1 it first wraps the
public functions of every vslab module (see tracer.py) and adds the span and
counter record.
"""

import json
import resource
import sys
import time

import vslab.cli

READY = time.monotonic()


def main():
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: worker.py RESULT_JSON TRACE -- CLI_ARGS...")
    argv = sys.argv[4:]
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.install()
    start, cpu_start = time.perf_counter(), time.process_time()
    code = vslab.cli.cli_dispatch(argv)
    run_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    sys.stdout.flush()

    import numpy
    import scipy

    from vslab import spectral

    record = {
        "ready_monotonic": READY,
        "run_s": run_s,
        "run_cpu_s": cpu_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": spectral._FFT_WORKERS,
    }
    if tracer is not None:
        record["trace"] = tracer.report(run_s)
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
