"""Flat text configuration for tables and experiment runs.

Format: one ``key = value`` per line, values as JSON fragments (no NaN
or Infinity, and no number beyond the float range); a ``#`` comment may
fill a line or follow a value.
Obstacles use dotted keys ``obstacleN.field`` with N counting from 1.
Unknown keys are rejected rather than ignored so typos fail loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import (DeformationFamily, GeometryError, ObstacleSpec,
                       validate_family)
from .lyapunov import DEFAULT_BURN_IN, DEFAULT_H_FD
from .symbolic import (DEFAULT_PADDING, TOL_ORBIT, Word, is_admissible,
                       sample_itinerary)


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


_TOP_KEYS = {"mode", "alpha_max", "smoothness", "words", "alpha_grid",
             "tol_orbit", "padding", "burn_in", "h_fd", "phi_max", "seed",
             "output_dir"}
_OBSTACLE_KEYS = {"kind", "center_x", "center_y", "radius", "semi_axis_a",
                  "semi_axis_b", "rotation"}


@dataclass(frozen=True)
class LabConfig:
    family: DeformationFamily
    words: tuple[tuple[str, Word], ...]   # (identifier, word) pairs
    alpha_grid: np.ndarray
    tol_orbit: float
    padding: int
    burn_in: int
    h_fd: float
    phi_max: float | None
    seed: int
    output_dir: str


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise OverflowError
    return value


def _float_sized_int(text: str) -> int:
    value = int(text)
    float(value)            # OverflowError beyond the float range
    return value


# Python's json reads NaN and +-Infinity, which JSON has no literal for,
# reads 1e400 as inf, and keeps integers that no float can hold
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant,
                            parse_float=_finite_float,
                            parse_int=_float_sized_int)


def _parse_lines(text: str) -> dict:
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, eq, value = raw.partition("=")
        if "#" in key or not eq:
            # a blank or comment line, unless text precedes the comment
            if key.partition("#")[0].strip():
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            continue
        key, value = key.strip(), value.lstrip()
        if not key or not value or value.startswith("#"):
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            # the decoder finds where the value ends; a comment may follow
            entries[key], end = _DECODER.raw_decode(value)
            rest = value[end:].lstrip()
            if rest and rest[0] != "#":
                raise json.JSONDecodeError("Extra data", value, end)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: value for {key!r} is not valid JSON: {exc}") \
                from exc
        except OverflowError as exc:
            raise ConfigError(f"line {lineno}: value for {key!r} holds a "
                              f"number beyond the float range") from exc
    return entries


def _split_keys(entries: dict):
    top = {}
    obstacles = {}
    for key, value in entries.items():
        if key.startswith("obstacle"):
            head, dot, fld = key.partition(".")
            idx_text = head[len("obstacle"):]
            if not dot or not idx_text.isdecimal():
                raise ConfigError(f"bad obstacle key {key!r}")
            idx = int(idx_text)
            if fld not in _OBSTACLE_KEYS:
                raise ConfigError(f"unknown obstacle field {key!r}")
            obstacles.setdefault(idx, {})[fld] = value
        elif key in _TOP_KEYS:
            top[key] = value
        else:
            raise ConfigError(f"unknown key {key!r}")
    return top, obstacles


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _poly(value, key):
    if _is_number(value):
        return (float(value),)
    if isinstance(value, list) and value and all(map(_is_number, value)):
        return tuple(float(v) for v in value)
    raise ConfigError(f"{key} must be a number or a nonempty number list")


def _build_obstacle(idx: int, fields: dict) -> ObstacleSpec:
    kind = fields.get("kind")
    if kind not in ("circle", "ellipse"):
        raise ConfigError(f"obstacle{idx}.kind must be \"circle\" or \"ellipse\"")
    need = {"circle": {"center_x", "center_y", "radius"},
            "ellipse": {"center_x", "center_y", "semi_axis_a", "semi_axis_b"}}
    allowed = need[kind] | ({"rotation"} if kind == "ellipse" else set())
    missing = need[kind] - fields.keys()
    if missing:
        raise ConfigError(f"obstacle{idx} missing fields: {sorted(missing)}")
    extra = fields.keys() - allowed - {"kind"}
    if extra:
        raise ConfigError(f"obstacle{idx} has fields {sorted(extra)} "
                          f"not valid for kind {kind!r}")
    polys = {f: _poly(v, f"obstacle{idx}.{f}") for f, v in fields.items()
             if f != "kind"}
    if kind == "circle":
        return ObstacleSpec("circle", polys["center_x"], polys["center_y"],
                            radius=polys["radius"])
    return ObstacleSpec("ellipse", polys["center_x"], polys["center_y"],
                        semi_axis_a=polys["semi_axis_a"],
                        semi_axis_b=polys["semi_axis_b"],
                        rotation=polys.get("rotation", (0.0,)))


def _spec_ints(text: str, parts) -> list:
    """The ':'-separated integers of the sample spec ``text``."""
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad sample spec {text!r}") from exc


def parse_word(text: str, z0: int, seed: int) -> tuple[str, Word]:
    """(identifier, word) for a literal word (``1,2`` or ``open:1,2,1``)
    or a ``sample:LENGTH[:SEED]`` spec whose seed defaults to ``seed``.

    ConfigError unless a sample has length >= 1 and seed >= 0, and a
    literal word parses and is admissible over the symbols 1..z0."""
    if text.startswith("sample:"):
        tail = _spec_ints(text, text.split(":")[1:])
        if len(tail) not in (1, 2):
            raise ConfigError(f"bad sample spec {text!r}; "
                              "expected sample:LENGTH[:SEED]")
        length, seed = (tail + [seed])[:2]
        if length < 1 or seed < 0:
            raise ConfigError(
                f"sample spec {text!r} needs length >= 1, seed >= 0")
        return f"sample:{length}:{seed}", sample_itinerary(z0, length, seed)
    try:
        word = Word.parse(text)
        admissible = is_admissible(word, z0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not admissible:
        raise ConfigError(f"word {text!r} repeats a symbol consecutively")
    return word.label.replace(",", "-"), word


def _expand_words(raw, z0: int, default_seed: int):
    """Configured words; ``sample:COUNT:LENGTH[:SEED]`` stands for the
    COUNT sample specs ``sample:LENGTH:SEED+i``."""
    if not isinstance(raw, list) or not raw \
            or not all(isinstance(w, str) for w in raw):
        raise ConfigError("words must be a nonempty list of strings")
    out = []
    for text in raw:
        text = text.strip()
        if not text.startswith("sample:"):
            out.append(parse_word(text, z0, default_seed))
            continue
        count, *tail = _spec_ints(text, text.split(":")[1:])
        if len(tail) not in (1, 2) or count < 1:
            raise ConfigError(f"bad sample spec {text!r}; expected "
                              "sample:COUNT:LENGTH[:SEED] with COUNT >= 1")
        length, seed = (tail + [default_seed])[:2]
        out.extend(parse_word(f"sample:{length}:{seed + i}", z0, default_seed)
                   for i in range(count))
    ids = [ident for ident, _ in out]
    if len(set(ids)) != len(ids):
        raise ConfigError("word list expands to duplicate identifiers")
    return tuple(out)


def load_config(path, *, validate: bool = True) -> LabConfig:
    """Parse, build the family, and (by default) certify it admissible."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from exc
    entries = _parse_lines(text)
    top, obstacle_fields = _split_keys(entries)

    for key in ("mode", "alpha_max", "words", "alpha_grid"):
        if key not in top:
            raise ConfigError(f"missing required key {key!r}")
    if not obstacle_fields:
        raise ConfigError("no obstacles defined")
    indices = sorted(obstacle_fields)
    if indices != list(range(1, len(indices) + 1)):
        raise ConfigError(
            f"obstacle indices must be 1..{len(indices)}, got {indices}")

    smoothness = top.get("smoothness", [5, 3])
    if not (isinstance(smoothness, list) and len(smoothness) == 2
            and all(map(_is_integer, smoothness))):
        raise ConfigError("smoothness must be a [r, r'] integer pair")
    alpha_max = top["alpha_max"]
    if not _is_number(alpha_max) or not alpha_max > 0:
        raise ConfigError("alpha_max must be a positive number")

    obstacles = tuple(_build_obstacle(i, obstacle_fields[i]) for i in indices)
    try:
        family = DeformationFamily(obstacles, float(alpha_max),
                                   tuple(smoothness), top["mode"])
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc

    grid_spec = top["alpha_grid"]
    if not (isinstance(grid_spec, list) and len(grid_spec) == 3):
        raise ConfigError("alpha_grid must be [start, stop, count]")
    start, stop, count = grid_spec
    if not _is_integer(count) or count < 1:
        raise ConfigError("alpha_grid count must be a positive integer")
    if not (_is_number(start) and _is_number(stop)
            and 0.0 <= start <= stop <= family.alpha_max):
        raise ConfigError("alpha_grid must satisfy "
                          "0 <= start <= stop <= alpha_max")
    grid = np.linspace(float(start), float(stop), count)

    seed = top.get("seed", 0)
    if not _is_integer(seed) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    words = _expand_words(top["words"], family.z0, seed)

    tol_orbit = top.get("tol_orbit", TOL_ORBIT)
    if not (_is_number(tol_orbit) and 0.0 < tol_orbit <= 1e-6):
        raise ConfigError("tol_orbit must lie in (0, 1e-6]")
    padding = top.get("padding", DEFAULT_PADDING)
    if not _is_integer(padding) or padding < 1:
        raise ConfigError("padding must be a positive integer")
    burn_in = top.get("burn_in", DEFAULT_BURN_IN)
    if not _is_integer(burn_in) or burn_in < 0:
        raise ConfigError("burn_in must be a nonnegative integer")
    h_fd = top.get("h_fd", DEFAULT_H_FD)
    if not (_is_number(h_fd) and 1e-7 <= h_fd <= 1e-4):
        raise ConfigError("h_fd must lie in [1e-7, 1e-4]")
    phi_max = top.get("phi_max")
    if phi_max is not None and not (_is_number(phi_max)
                                    and 0.0 <= phi_max < math.pi / 2):
        raise ConfigError("phi_max must lie in [0, pi/2)")
    output_dir = top.get("output_dir", "results")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a nonempty string")

    if validate:
        validate_family(family)

    return LabConfig(family, words, grid, float(tol_orbit), padding, burn_in,
                     float(h_fd), None if phi_max is None else float(phi_max),
                     seed, output_dir)
