"""Spans and counters around the public functions of the vslab modules.

``install()`` replaces each traced function by a wrapper that times the call
and keeps a stack, so a span's self time is its duration minus the time of
the traced calls made inside it.  The wrappers are installed from outside
the program: every binding of the original function is replaced, which
covers module attributes, names imported with ``from ... import`` and
default arguments bound at import time (``rk4_step(..., rhs=vorticity_rhs)``
would otherwise keep calling the unwrapped right-hand side).

Spans are aggregated in memory per name and written out once by
``report()``.  FFT work is counted in 3D transforms, not calls: one call on
a (24, n, n, n) stack is 24 transforms.  ``spectral.fft.flops_computed``
(5 N log2 N per complex transform of N = n^3 points) and
``spectral.fft.bytes_computed`` (input plus output array bytes) are
computed from the array shapes, not measured.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import types
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._stack = []  # child time accumulated by each open span
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.counters = defaultdict(float)
        self.top_level_s = 0.0

    def count(self, name, amount=1):
        self.counters[name] += amount

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` in a span called ``name``; ``after`` sees the arguments and result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - child[0]
                self.durations[name].append(elapsed)
                if self._stack:
                    self._stack[-1][0] += elapsed
                else:
                    self.top_level_s += elapsed
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def report(self, run_s):
        """Plain-data record of one traced command whose wall time was ``run_s``."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "durations": dict(self.durations),
            "counters": dict(self.counters),
            "top_level_s": self.top_level_s,
            "run_s": run_s,
        }


def _fft_work(tracer, args, kwargs, out):
    x = args[0]
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is None:
        axes = range(x.ndim)
    points = math.prod(x.shape[a] for a in axes)
    transforms = x.size // points
    tracer.count("spectral.fft.transforms", transforms)
    tracer.count("spectral.fft.flops_computed", transforms * 5.0 * points * math.log2(points))
    tracer.count("spectral.fft.bytes_computed", x.nbytes + out.nbytes)


def _picard_work(tracer, args, kwargs, solution):
    diag = solution.diagnostics
    tracer.count("slabs.picard.iterations", diag.iterations)
    tracer.counters["slabs.picard.max_iterations"] = max(
        tracer.counters["slabs.picard.max_iterations"], diag.iterations
    )
    tracer.count("slabs.picard.converged", int(diag.converged))


def _persist_bytes(tracer, args, kwargs, nbytes):
    tracer.count("snapshots.persist_field.bytes", nbytes)


def _load_bytes(tracer, args, kwargs, result):
    n = result[0]
    tracer.count("snapshots.load_field.bytes", 24 + 3 * 16 * n**3)


def _targets():
    """(span name, owner, attribute, after-hook) for every traced function."""
    import scipy.fft

    from vslab import config, estimates, reference, reports, slabs, snapshots, trajectory
    from vslab.slabs import SlabSolution
    from vslab.spectral import Grid

    return [
        ("spectral.fft", scipy.fft, "fftn", _fft_work),
        ("spectral.fft", scipy.fft, "ifftn", _fft_work),
        ("spectral.biot_savart", Grid, "biot_savart", None),
        ("spectral.to_spectral", Grid, "to_spectral", None),
        ("spectral.to_physical", Grid, "to_physical", None),
        ("spectral.leray_project", Grid, "leray_project", None),
        ("spectral.dealias", Grid, "dealias", None),
        ("spectral.symmetrize", Grid, "symmetrize", None),
        ("spectral.norms", Grid, "l2sq", None),
        ("spectral.norms", Grid, "h1sq", None),
        ("spectral.norms", Grid, "l4", None),
        ("reference.rk4_step", reference, "rk4_step", None),
        ("reference.rhs", reference, "vorticity_rhs", None),
        ("trajectory.scalar_record", trajectory, "scalar_record", None),
        ("slabs.picard_solve_slab", slabs, "picard_solve_slab", _picard_work),
        ("slabs.linear_slab_solve", slabs, "linear_slab_solve", None),
        ("slabs.slab_forcing", slabs, "slab_forcing", None),
        ("slabs.SlabSolution.at", SlabSolution, "at", None),
        ("estimates.hgamma_diagnostic", estimates, "hgamma_diagnostic", None),
        ("estimates.dt_u_monitor", estimates, "dt_u_monitor", None),
        ("estimates.ladyzhenskaya_ratio", estimates, "ladyzhenskaya_ratio", None),
        ("estimates.enstrophy_ledger", estimates, "enstrophy_ledger", None),
        ("snapshots.persist_field", snapshots, "persist_field", _persist_bytes),
        ("snapshots.load_field", snapshots, "load_field", _load_bytes),
        ("reports.emit_reports", reports, "emit_reports", None),
        ("config.load_config", config, "load_config", None),
    ]


def install():
    """Wrap every traced function of the imported vslab package; returns the tracer."""
    tracer = Tracer()
    replaced = {}
    for name, owner, attr, after in _targets():
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, after)
        setattr(owner, attr, wrapper)
        replaced[id(original)] = (original, wrapper)
    modules = [m for key, m in sys.modules.items() if key == "vslab" or key.startswith("vslab.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            swapped = _swap(value, replaced)
            if swapped is not value:
                setattr(module, key, swapped)
    for fn in _functions(modules):
        if fn.__defaults__:
            fn.__defaults__ = tuple(_swap(v, replaced) for v in fn.__defaults__)
        if fn.__kwdefaults__:
            fn.__kwdefaults__ = {k: _swap(v, replaced) for k, v in fn.__kwdefaults__.items()}
    return tracer


def _swap(value, replaced):
    hit = replaced.get(id(value))
    return hit[1] if hit is not None and hit[0] is value else value


def _functions(modules):
    """Every plain function defined in the modules, including methods of their classes."""
    seen = set()
    for module in modules:
        for value in vars(module).values():
            candidates = [value]
            if isinstance(value, type) and value.__module__ == module.__name__:
                candidates += list(vars(value).values())
            for fn in candidates:
                fn = getattr(fn, "__wrapped__", fn)
                if isinstance(fn, types.FunctionType) and id(fn) not in seen:
                    seen.add(id(fn))
                    yield fn
