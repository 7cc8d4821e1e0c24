"""Constructors for common domains and a strict JSON domain-file format.

Domain files are plain JSON.  Complex numbers are written as two-element
arrays ``[re, im]``.  Unknown keys are rejected so that a typo in a config
fails loudly instead of silently falling back to a default.

Top-level schema::

    {
      "outer":   {"kind": "circle", "center": [0, 0], "radius": 1.0},
      "holes":   [ {curve}, ... ],          # optional
      "anchors": [ [re, im], ... ],         # one per hole
      "nodes":   512                        # optional, per-curve sample count
    }

Curve kinds: ``circle`` (center, radius), ``ellipse`` (center, semi_axes,
rotation), ``fourier`` (coefficients as {"k": [re, im]}), ``polygon``
(vertices, smoothing >= 0, modes).  Each kind has one curve constructor here,
and the defaults of optional keys live only in this reader.  A malformed value
is reported as ``<where>: malformed value (...)``, with ``where`` the key's
path, such as ``domain.outer.radius``, and a curve that its constructor
refuses as ``<where>: <reason>``, such as ``domain.holes[0]: curve has no
nonconstant Fourier mode``.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .domains import BoundaryCurve, Domain
from .errors import ConfigError, DomainError


def disk(center: complex = 0.0, radius: float = 1.0, nodes: int = 512) -> Domain:
    """The disk |z - center| < radius."""
    return Domain(circle_curve(center, radius, nodes=nodes))


def annulus(
    inner_radius: float,
    outer_radius: float = 1.0,
    center: complex = 0.0,
    nodes: int = 512,
) -> Domain:
    """The annulus inner_radius < |z - center| < outer_radius."""
    if not 0.0 < inner_radius < outer_radius:
        raise DomainError("annulus needs 0 < inner_radius < outer_radius")
    return Domain(
        outer=circle_curve(center, outer_radius, nodes=nodes),
        holes=[circle_curve(center, inner_radius, orientation=-1, nodes=nodes)],
        anchors=[center],
    )


def ellipse(
    center: complex = 0.0,
    semi_axes: tuple[float, float] = (1.0, 0.5),
    rotation: float = 0.0,
    nodes: int = 512,
) -> Domain:
    """The ellipse with the given semi-axes, rotated by ``rotation`` about ``center``."""
    return Domain(ellipse_curve(center, semi_axes, rotation, nodes))


def circle_curve(
    center: complex, radius: float, orientation: int = 1, nodes: int = 512
) -> BoundaryCurve:
    if radius <= 0:
        raise DomainError("circle radius must be positive")
    if orientation not in (1, -1):
        raise DomainError("orientation must be +1 (ccw) or -1 (cw)")
    return BoundaryCurve({0: complex(center), orientation: radius}, nodes=nodes)


def ellipse_curve(
    center: complex, semi_axes: tuple[float, float], rotation: float, nodes: int
) -> BoundaryCurve:
    """Counterclockwise ellipse: ``c_0 = center`` and ``c_{+-1} = e^{i rotation} (a +- b) / 2``."""
    a, b = semi_axes
    if a <= 0 or b <= 0:
        raise DomainError("ellipse semi-axes must be positive")
    rot = np.exp(1j * rotation)
    return BoundaryCurve(
        {0: complex(center), 1: rot * (a + b) / 2.0, -1: rot * (a - b) / 2.0}, nodes=nodes
    )


def smoothed_polygon_curve(
    vertices: list[complex], smoothing: float, modes: int, nodes: int
) -> BoundaryCurve:
    """Fourier smoothing of a closed polygon.

    The polygon is traversed at unit speed per edge, sampled densely, the
    Fourier coefficients are damped by a Gaussian factor exp(-smoothing k^2)
    and truncated to ``modes`` modes each way.  The result is a real-analytic
    curve close to the polygon away from the (rounded) corners.
    """
    verts = np.asarray(vertices, dtype=complex)
    if verts.size < 3:
        raise DomainError("polygon needs at least 3 vertices")
    dense = 4096
    t = np.linspace(0.0, verts.size, dense, endpoint=False)
    base = np.floor(t).astype(int) % verts.size
    frac = t - np.floor(t)
    path = verts[base] * (1.0 - frac) + verts[(base + 1) % verts.size] * frac
    coeffs_full = np.fft.fft(path) / dense
    ks = np.fft.fftfreq(dense, d=1.0 / dense).astype(int)
    damp = np.exp(-smoothing * ks.astype(float) ** 2)
    coefficients: dict[int, complex] = {}
    for k, c, d in zip(ks, coeffs_full, damp):
        if abs(k) <= modes and abs(c * d) > 1e-14:
            coefficients[int(k)] = complex(c * d)
    return BoundaryCurve(coefficients, nodes=nodes)


# -- JSON loading -----------------------------------------------------------


def json_number(value, kind: type = float):
    """A finite JSON number of ``kind``; ``bool`` and, for ``int``, 1.7 are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    number = kind(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def json_numbers(value, kind: type = float, count: int | None = None) -> tuple:
    """A JSON array of numbers of ``kind``, of length ``count`` if given."""
    if not isinstance(value, (list, tuple)) or count not in (None, len(value)):
        size = "a JSON array" if count is None else f"an array of {count} numbers"
        raise TypeError(f"expected {size}, got {value!r}")
    return tuple(json_number(v, kind) for v in value)


def _read(value, where: str, convert=json_number, **kwargs):
    """``convert(value, **kwargs)``, with a malformed value reported as a ``ConfigError``."""
    try:
        return convert(value, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: malformed value ({exc})") from None


def _as_complex(value: Any, where: str) -> complex:
    return complex(*_read(value, where, json_numbers, count=2))


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a JSON array, got {value!r}")
    return value


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def curve_from_dict(obj: dict, nodes: int, orientation: int, where: str) -> BoundaryCurve:
    """The curve ``obj`` describes; a curve its constructor refuses is a ``ConfigError`` at ``where``."""
    try:
        return _read_curve(obj, nodes, orientation, where)
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _read_curve(obj: dict, nodes: int, orientation: int, where: str) -> BoundaryCurve:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = obj.get("kind")
    if kind == "circle":
        _check_keys(obj, {"kind", "center", "radius"}, {"kind", "center", "radius"}, where)
        return circle_curve(
            _as_complex(obj["center"], f"{where}.center"),
            _read(obj["radius"], f"{where}.radius"),
            orientation=orientation,
            nodes=nodes,
        )
    if kind == "ellipse":
        _check_keys(
            obj,
            {"kind", "center", "semi_axes", "rotation"},
            {"kind", "center", "semi_axes"},
            where,
        )
        if orientation != 1:
            raise ConfigError(f"{where}: ellipse holes are not supported yet")
        return ellipse_curve(
            _as_complex(obj["center"], f"{where}.center"),
            _read(obj["semi_axes"], f"{where}.semi_axes", json_numbers, count=2),
            _read(obj.get("rotation", 0.0), f"{where}.rotation"),
            nodes,
        )
    if kind == "fourier":
        _check_keys(obj, {"kind", "coefficients"}, {"kind", "coefficients"}, where)
        raw = obj["coefficients"]
        if not isinstance(raw, dict):
            raise ConfigError(f"{where}: coefficients must be an object")
        coeffs = {}
        for key, val in raw.items():
            try:
                k = int(key)
            except ValueError:
                raise ConfigError(f"{where}: bad wavenumber {key!r}") from None
            coeffs[k] = _as_complex(val, f"{where}.coefficients[{key}]")
        return BoundaryCurve(coeffs, nodes=nodes)
    if kind == "polygon":
        _check_keys(
            obj,
            {"kind", "vertices", "smoothing", "modes"},
            {"kind", "vertices"},
            where,
        )
        vertices = _as_list(obj["vertices"], f"{where}.vertices")
        smoothing = _read(obj.get("smoothing", 0.02), f"{where}.smoothing")
        if smoothing < 0.0:
            # exp(-smoothing k^2) would grow without bound
            raise ConfigError(f"{where}.smoothing: malformed value (expected >= 0, got {smoothing})")
        return smoothed_polygon_curve(
            [_as_complex(v, f"{where}.vertices[{i}]") for i, v in enumerate(vertices)],
            smoothing,
            _read(obj.get("modes", 64), f"{where}.modes", kind=int),
            nodes,
        )
    raise ConfigError(f"{where}: unknown curve kind {kind!r}")


def domain_from_dict(obj: dict) -> Domain:
    if not isinstance(obj, dict):
        raise ConfigError("domain: expected a JSON object")
    _check_keys(obj, {"outer", "holes", "anchors", "nodes"}, {"outer"}, "domain")
    nodes = _read(obj.get("nodes", 512), "domain.nodes", kind=int)
    outer = curve_from_dict(obj["outer"], nodes, orientation=1, where="domain.outer")
    holes_raw = _as_list(obj.get("holes", []), "domain.holes")
    anchors_raw = _as_list(obj.get("anchors", []), "domain.anchors")
    if len(holes_raw) != len(anchors_raw):
        raise ConfigError("domain: need exactly one anchor per hole")
    holes = [
        curve_from_dict(h, nodes, orientation=-1, where=f"domain.holes[{i}]")
        for i, h in enumerate(holes_raw)
    ]
    anchors = [_as_complex(a, f"domain.anchors[{i}]") for i, a in enumerate(anchors_raw)]
    return Domain(outer=outer, holes=holes, anchors=anchors)


def read_json(path: str) -> Any:
    """The parsed contents of a JSON file; a syntax error is a ``ConfigError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
