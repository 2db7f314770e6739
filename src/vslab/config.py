"""Run configuration: INI-style files, validation, and the provenance echo.

The file format is flat ``key = value`` lines; ``[section]`` headers are
allowed for organization but carry no namespace, and ``#``/``;`` comments are
ignored.  Unknown keys and out-of-range values are rejected with the file
line that caused them.  Loading a config echoes the normalized key/value set
to the run's output directory so any run can be reproduced from its outputs
alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from vslab.atomic import atomic_open

INITIAL_CHOICES = ("taylor-green", "abc-beltrami", "random-divfree", "file")
POLICY_CHOICES = ("uniform", "adaptive")
PROVIDER_CHOICES = ("self-consistent", "reference")

ECHO_NAME = "config.echo.cfg"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    n: int = 16
    nu: float = 1.0
    T: float = 0.5
    dt: float = 1e-3
    initial: str = "taylor-green"
    seed: int = 0
    initial_path: str = ""
    outdir: str = "out"
    policy: str = "uniform"
    slabs: int = 8
    epsilon0: float = 0.5
    sobolev_c: float = 1.0
    dt_floor: float = 1e-4
    provider: str = "self-consistent"
    picard_tol: float = 1e-10
    picard_max_iter: int = 64
    scalar_every: int = 1
    field_every: int = 10
    slab_samples: int = 16
    enstrophy_ceiling: float = 1e8
    gamma: float = 0.2
    ladyzhenskaya_c: float = 2.0
    reference_dir: str = ""
    study_levels: str = "4,8,16,32"

    def validate(self, where=""):
        def bad(key, why):
            raise ConfigError(f"{where}{key}: {why}")

        if self.n < 4 or self.n % 2:
            bad("n", f"must be even and >= 4, got {self.n}")
        for key in (
            "nu",
            "T",
            "dt",
            "sobolev_c",
            "dt_floor",
            "picard_tol",
            "enstrophy_ceiling",
            "ladyzhenskaya_c",
        ):
            if not 0 < getattr(self, key) < math.inf:  # NaN fails both comparisons
                bad(key, f"must be positive and finite, got {getattr(self, key)}")
        if not 0.0 < self.epsilon0 < 1.0:
            bad("epsilon0", f"must lie in (0,1), got {self.epsilon0}")
        try:  # the ledger's Gronwall bound over the whole span
            math.exp((1.0 - self.epsilon0) * self.T)
        except OverflowError:
            why = "the Gronwall bound exp((1 - epsilon0) * T) overflows"
            bad("T", f"{why} at epsilon0 = {self.epsilon0}, got {self.T}")
        if not 0.0 < self.gamma < 0.25:
            bad("gamma", f"must lie in (0,1/4), got {self.gamma}")
        for key in ("slabs", "picard_max_iter", "scalar_every", "field_every"):
            if getattr(self, key) < 1:
                bad(key, f"must be >= 1, got {getattr(self, key)}")
        if self.slab_samples < 2:
            bad("slab_samples", f"must be >= 2, got {self.slab_samples}")
        if self.initial not in INITIAL_CHOICES:
            bad("initial", f"must be one of {INITIAL_CHOICES}, got {self.initial!r}")
        if self.initial == "file" and not self.initial_path:
            bad("initial_path", "required when initial = file")
        if self.policy not in POLICY_CHOICES:
            bad("policy", f"must be one of {POLICY_CHOICES}, got {self.policy!r}")
        if self.provider not in PROVIDER_CHOICES:
            bad("provider", f"must be one of {PROVIDER_CHOICES}, got {self.provider!r}")
        try:
            levels = self.parsed_levels()
        except ValueError:
            bad("study_levels", f"must be comma-separated integers, got {self.study_levels!r}")
        if any(l < 1 for l in levels):
            bad("study_levels", "levels must be >= 1")
        if len(set(levels)) < max(3, len(levels)):
            bad("study_levels", f"need three or more distinct levels, got {self.study_levels!r}")
        return self

    def parsed_levels(self):
        return [int(tok) for tok in self.study_levels.split(",") if tok.strip()]


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key, text, where):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"{where}{key}: cannot parse {text!r} as {kind}") from None


def parse_config_text(text, source="<string>", overrides=()):
    """Parse config text; ``overrides`` are extra ``key=value`` strings."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        where = f"{source}:{lineno}: "
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{where}malformed section header {line!r}")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.split("#", 1)[0].strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{where}unknown key {key!r}")
        values[key] = _coerce(key, val, where)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"override: unknown key {key!r}")
        values[key] = _coerce(key, val.strip(), "override: ")
    cfg = RunConfig(**values)
    cfg.validate(where=f"{source}: ")
    return cfg


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg: RunConfig, outdir):
    """Write the normalized key/value set for provenance; returns the path."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, ECHO_NAME)
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(RunConfig)]
    with atomic_open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def load_config(path, overrides=()):
    """Load, validate, and echo a run configuration."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    cfg = parse_config_text(text, source=str(path), overrides=overrides)
    echo_config(cfg, cfg.outdir)
    return cfg
