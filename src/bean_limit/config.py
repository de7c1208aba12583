"""Plain-text run configuration: one `key = value` per line, `#` comments.

Unknown keys are a hard error, so typos never pass silently; numeric
values are validated against the solver preconditions at parse time.
"""

from __future__ import annotations

import math
from pathlib import Path

from .fields import EXPONENT_CAP


class ConfigError(ValueError):
    pass


def _as_int(v: str) -> int:
    f = float(v)
    if not math.isfinite(f) or f != int(f):
        raise ValueError(f"{v!r} is not an integer")
    return int(f)


def _as_float_list(v: str) -> tuple[float, ...]:
    return tuple(float(p.strip()) for p in v.split(",") if p.strip())


def _as_int_list(v: str) -> tuple[int, ...]:
    return tuple(_as_int(p.strip()) for p in v.split(",") if p.strip())


def _positive(x) -> bool:
    return x > 0


def _exponent_ok(x) -> bool:
    return 1 < x <= EXPONENT_CAP


# key -> (converter, validator or None, description)
KEY_TABLE = {
    "experiment": (str, None, "run label"),
    "grid.L": (float, _positive, "domain half width"),
    "grid.n": (_as_int, lambda n: n >= 8, "cells per side (>= 8)"),
    "horizon": (float, _positive, "final time"),
    "snapshot_times": (_as_float_list, None, "comma list of snapshot times"),
    "output_dir": (str, None, "artifact directory"),
    "seed": (_as_int, lambda x: x >= 0, "random seed for test fields"),
    "exponent": (
        float, _exponent_ok, f"single exponent (m > 1 or p > 2), capped at {EXPONENT_CAP}"
    ),
    "schedule": (
        _as_float_list,
        lambda xs: len(xs) > 0 and all(b > a for a, b in zip(xs, xs[1:]))
        and all(map(_exponent_ok, xs)),
        f"increasing exponent list, capped at {EXPONENT_CAP}",
    ),
    "grids": (_as_int_list, lambda xs: all(n >= 8 for n in xs), "grid sizes for refinement studies"),
    "n_test_fields": (_as_int, _positive, "number of random admissible test fields"),
    "pme.dt_init": (float, _positive, "initial implicit step"),
    "curl.cfl_safety": (float, lambda x: 0 < x <= 1, "explicit stability safety factor"),
    "psor.relaxation": (float, lambda x: 0 < x < 2, "projected SOR relaxation"),
    "f.height": (float, None, "initial bump height"),
    "f.radius": (float, _positive, "initial bump radius"),
    "f.center_x": (float, None, "initial bump center x"),
    "f.center_y": (float, None, "initial bump center y"),
    "f2.height": (float, None, "second bump height"),
    "f2.radius": (float, _positive, "second bump radius"),
    "f2.center_x": (float, None, "second bump center x"),
    "f2.center_y": (float, None, "second bump center y"),
    "g.height": (float, None, "source bump height"),
    "g.radius": (float, _positive, "source bump radius"),
    "g.center_x": (float, None, "source bump center x"),
    "g.center_y": (float, None, "source bump center y"),
    "h0.kind": (str, lambda s: s in ("bump", "gaussian"), "initial stream shape"),
    "h0.amplitude": (float, None, "initial stream amplitude"),
    "h0.width": (float, _positive, "initial stream width"),
    "h0.center_x": (float, None, "initial stream center x"),
    "h0.center_y": (float, None, "initial stream center y"),
    "h0.curl_max": (float, _positive, "rescale initial field to this curl max"),
    "force.kind": (str, lambda s: s in ("bump", "gaussian"), "forcing stream shape"),
    "force.amplitude": (float, None, "forcing stream amplitude"),
    "force.width": (float, _positive, "forcing stream width"),
    "force.center_x": (float, None, "forcing stream center x"),
    "force.center_y": (float, None, "forcing stream center y"),
    "force.curl_max": (float, _positive, "rescale forcing to this curl max"),
    "q.kind": (str, lambda s: s in ("disk", "bump"), "obstacle datum shape"),
    "q.inside": (float, None, "disk datum value inside"),
    "q.outside": (float, None, "disk datum value outside"),
    "q.radius": (float, _positive, "obstacle datum radius"),
    "q.height": (float, None, "bump datum height"),
    "q.offset": (float, None, "constant subtracted from the bump datum"),
    "barenblatt.t0": (float, _positive, "profile start time"),
    "barenblatt.mass": (float, _positive, "profile total mass"),
}

# key -> ExperimentSpec field, for the keys a spec takes as they are; a key
# left out of the file leaves the field at its ExperimentSpec default
SPEC_FIELDS = {
    "experiment": "name",
    "snapshot_times": "snapshot_times",
    "seed": "seed",
    "n_test_fields": "n_test_fields",
    "grids": "grids",
    "pme.dt_init": "dt_init",
    "curl.cfl_safety": "cfl_safety",
    "barenblatt.t0": "barenblatt_t0",
    "barenblatt.mass": "barenblatt_mass",
}


class RunConfig:
    """Validated key-value view of a configuration file; the keys that
    `get`, `require` and `has` look up count as read."""

    def __init__(self, entries: dict):
        self.entries = entries
        self.read: set[str] = set()

    @classmethod
    def parse(cls, path) -> "RunConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        entries: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected `key = value`")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in KEY_TABLE:
                raise ConfigError(f"{path}: line {lineno}: unknown configuration key {key!r}")
            if key in entries:
                raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
            conv, check, descr = KEY_TABLE[key]
            try:
                parsed = conv(value)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: line {lineno}: bad value for {key!r} ({descr}): {exc}"
                ) from exc
            items = parsed if isinstance(parsed, tuple) else (parsed,)
            if any(isinstance(x, float) and not math.isfinite(x) for x in items):
                raise ConfigError(
                    f"{path}: line {lineno}: value {value!r} for {key!r} ({descr}) is not finite"
                )
            if check is not None and not check(parsed):
                raise ConfigError(
                    f"{path}: line {lineno}: value {value!r} out of range for {key!r} ({descr})"
                )
            entries[key] = parsed
        return cls(entries)

    def get(self, key, default=None):
        if key not in KEY_TABLE:
            raise KeyError(f"{key!r} is not a known configuration key")
        self.read.add(key)
        return self.entries.get(key, default)

    def require(self, key):
        self.read.add(key)
        if key not in self.entries:
            raise ConfigError(f"missing required configuration key {key!r}")
        return self.entries[key]

    def has(self, key) -> bool:
        self.read.add(key)
        return key in self.entries

    def has_block(self, prefix: str) -> bool:
        """True when any `prefix.*` key is set; reads none of them."""
        return any(key.startswith(prefix + ".") for key in self.entries)

    def pick(self, names: dict) -> dict:
        """{name: value} for each key of `names` (key -> name) that is set."""
        return {name: self.get(key) for key, name in names.items() if self.has(key)}

    def check_all_read(self, command: str):
        """Raise ConfigError naming the set keys that `command` never read."""
        unread = sorted(self.entries.keys() - self.read)
        if unread:
            raise ConfigError(f"{command} does not use {', '.join(map(repr, unread))}")

    def echo(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(self.entries.items())}
