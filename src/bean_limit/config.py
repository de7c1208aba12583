"""Plain-text run configuration: one `key = value` per line, `#` comments.

Unknown keys are a hard error, so typos never pass silently; numeric
values are validated against the solver preconditions at parse time.
"""

from __future__ import annotations

from pathlib import Path

from .fields import EXPONENT_CAP


class ConfigError(ValueError):
    pass


def _as_float(v: str) -> float:
    return float(v)


def _as_int(v: str) -> int:
    f = float(v)
    if f != int(f):
        raise ValueError(f"{v!r} is not an integer")
    return int(f)


def _as_str(v: str) -> str:
    return v


def _as_float_list(v: str) -> tuple[float, ...]:
    return tuple(float(p.strip()) for p in v.split(",") if p.strip())


def _as_int_list(v: str) -> tuple[int, ...]:
    return tuple(_as_int(p.strip()) for p in v.split(",") if p.strip())


def _positive(x) -> bool:
    return x > 0


def _nonneg(x) -> bool:
    return x >= 0


def _exponent_ok(x) -> bool:
    return 1 < x <= EXPONENT_CAP


# key -> (converter, validator or None, description)
KEY_TABLE = {
    "experiment": (_as_str, None, "run label"),
    "grid.L": (_as_float, _positive, "domain half width"),
    "grid.n": (_as_int, lambda n: n >= 8, "cells per side (>= 8)"),
    "horizon": (_as_float, _positive, "final time"),
    "snapshot_times": (_as_float_list, None, "comma list of snapshot times"),
    "output_dir": (_as_str, None, "artifact directory"),
    "seed": (_as_int, _nonneg, "random seed for test fields"),
    "exponent": (
        _as_float, _exponent_ok, f"single exponent (m > 1 or p > 2), capped at {EXPONENT_CAP}"
    ),
    "schedule": (
        _as_float_list,
        lambda xs: len(xs) > 0 and all(b > a for a, b in zip(xs, xs[1:]))
        and all(map(_exponent_ok, xs)),
        f"increasing exponent list, capped at {EXPONENT_CAP}",
    ),
    "grids": (_as_int_list, lambda xs: all(n >= 8 for n in xs), "grid sizes for refinement studies"),
    "n_test_fields": (_as_int, _positive, "number of random admissible test fields"),
    "pme.dt_init": (_as_float, _positive, "initial implicit step"),
    "pme.dt_min": (_as_float, _nonneg, "smallest allowed step"),
    "pme.newton_tol": (_as_float, _positive, "Newton max-norm residual target"),
    "pme.max_newton_iters": (_as_int, _positive, "Newton iteration cap"),
    "pme.max_halvings": (_as_int, _positive, "time-step halving cap"),
    "curl.cfl_safety": (_as_float, lambda x: 0 < x <= 1, "explicit stability safety factor"),
    "psor.relaxation": (_as_float, lambda x: 0 < x < 2, "projected SOR relaxation"),
    "psor.tol": (_as_float, _positive, "projected SOR update tolerance"),
    "psor.max_sweeps": (_as_int, _positive, "projected SOR sweep cap"),
    "f.height": (_as_float, None, "initial bump height"),
    "f.radius": (_as_float, _positive, "initial bump radius"),
    "f.center_x": (_as_float, None, "initial bump center x"),
    "f.center_y": (_as_float, None, "initial bump center y"),
    "f2.height": (_as_float, None, "second bump height"),
    "f2.radius": (_as_float, _positive, "second bump radius"),
    "f2.center_x": (_as_float, None, "second bump center x"),
    "f2.center_y": (_as_float, None, "second bump center y"),
    "g.height": (_as_float, None, "source bump height"),
    "g.radius": (_as_float, _positive, "source bump radius"),
    "g.center_x": (_as_float, None, "source bump center x"),
    "g.center_y": (_as_float, None, "source bump center y"),
    "h0.kind": (_as_str, lambda s: s in ("bump", "gaussian"), "initial stream shape"),
    "h0.amplitude": (_as_float, None, "initial stream amplitude"),
    "h0.width": (_as_float, _positive, "initial stream width"),
    "h0.center_x": (_as_float, None, "initial stream center x"),
    "h0.center_y": (_as_float, None, "initial stream center y"),
    "h0.curl_max": (_as_float, _positive, "rescale initial field to this curl max"),
    "force.kind": (_as_str, lambda s: s in ("bump", "gaussian"), "forcing stream shape"),
    "force.amplitude": (_as_float, None, "forcing stream amplitude"),
    "force.width": (_as_float, _positive, "forcing stream width"),
    "force.center_x": (_as_float, None, "forcing stream center x"),
    "force.center_y": (_as_float, None, "forcing stream center y"),
    "force.curl_max": (_as_float, _positive, "rescale forcing to this curl max"),
    "q.kind": (_as_str, lambda s: s in ("disk", "bump"), "obstacle datum shape"),
    "q.inside": (_as_float, None, "disk datum value inside"),
    "q.outside": (_as_float, None, "disk datum value outside"),
    "q.radius": (_as_float, _positive, "obstacle datum radius"),
    "q.height": (_as_float, None, "bump datum height"),
    "q.offset": (_as_float, None, "constant subtracted from the bump datum"),
    "barenblatt.t0": (_as_float, _positive, "profile start time"),
    "barenblatt.mass": (_as_float, _positive, "profile total mass"),
}


class RunConfig:
    """Validated key-value view of a configuration file."""

    def __init__(self, entries: dict):
        self.entries = entries

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
            if check is not None and not check(parsed):
                raise ConfigError(
                    f"{path}: line {lineno}: value {value!r} out of range for {key!r} ({descr})"
                )
            entries[key] = parsed
        return cls(entries)

    def get(self, key, default=None):
        if key not in KEY_TABLE:
            raise KeyError(f"{key!r} is not a known configuration key")
        return self.entries.get(key, default)

    def require(self, key):
        if key not in self.entries:
            raise ConfigError(f"missing required configuration key {key!r}")
        return self.entries[key]

    def has(self, key) -> bool:
        return key in self.entries

    def echo(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(self.entries.items())}
