"""Binary latent formats, manifests, CSV rows, and SVG plots.

Every binary file starts with a 24-byte header::

    bytes 0..5   magic (6 ASCII bytes)
    bytes 6..7   zero padding
    bytes 8..19  three little-endian uint32 fields (a, b, count)
    bytes 20..23 reserved, zero

followed by little-endian float64 payload.  Field meaning per magic:

* ``EVSLAT`` — video latents: a=frames, b=dim (both at least 1),
  count=videos; payload is count*frames*dim values.
* ``EVSNET`` — attention-denoiser weights: a=dim, b=embed, count=payload
  length; payload is [blocks, total_steps, n_modes, seed] ++ parameters in
  the model's declared order.  The four leading values must be whole, the
  first three positive, and must imply the payload length.

SVG plots are written by hand (fixed float formatting, no library metadata)
so outputs are byte-reproducible; each embeds the manifest hash.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError
from .metrics import METRICS
from .models import ToyAttentionDenoiser, net_param_count

MAGIC_LATENT = b"EVSLAT"
MAGIC_NET = b"EVSNET"

_HEADER = struct.Struct("<6s2xIII4x")
assert _HEADER.size == 24

MANIFEST_VERSION = 2
TOOL_VERSION = "0.1.0"
# The top-level keys, with their JSON types, that the readers of each kind use.
_MANIFEST_KEYS = {
    "dataset": {"latents_sha256": str},
    "run": {"config": dict, "pipeline": str, "dataset": dict, "rows": list},
}
# The keys one level down that the readers of a run manifest use: the
# ``dataset`` record's, and each row's metrics and evaluation counts.
_NUMBER = (int, float)
_TYPE_NAMES = {str: "a str", int: "an int", _NUMBER: "a number"}
_RUN_DATASET_KEYS = {"path": str, "manifest_sha256": str}
_RUN_ROW_KEYS = {
    **dict.fromkeys((*METRICS, "wall_time"), _NUMBER),
    "nfe_t2i": int,
    "nfe_t2v": int,
}


def _write_header(fh, magic: bytes, a: int, b: int, count: int):
    fh.write(_HEADER.pack(magic, a, b, count))


def _read_header(fh, path, expect_magic: bytes):
    """The header fields ``(a, b, count)`` of ``fh`` and the number of float64 values after them."""
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ConfigError("truncated binary header")
    magic, a, b, count = _HEADER.unpack(raw)
    if magic != expect_magic:
        raise ConfigError(f"bad magic {magic!r}, expected {expect_magic!r}")
    payload = os.fstat(fh.fileno()).st_size - _HEADER.size
    if payload % 8:
        raise ConfigError(f"{path}: payload of {payload} bytes is not whole float64 values")
    return a, b, count, payload // 8


def write_latents(path, videos) -> None:
    """Write a sequence of (frames, dim) videos to an EVSLAT file."""
    videos = [np.ascontiguousarray(v, dtype=np.float64) for v in videos]
    if not videos or videos[0].ndim != 2 or videos[0].size == 0:
        raise ShapeError("expected a sequence of (frames, dim) arrays with frames, dim >= 1")
    f, d = videos[0].shape
    if any(v.shape != (f, d) for v in videos):
        raise ShapeError("all videos in one file must share a shape")
    with open(path, "wb") as fh:
        _write_header(fh, MAGIC_LATENT, f, d, len(videos))
        for v in videos:
            fh.write(v.astype("<f8").tobytes())


def read_latents(path) -> list[np.ndarray]:
    """The videos of an EVSLAT file, read one at a time into their own arrays."""
    with open(path, "rb") as fh:
        f, d, count, values = _read_header(fh, path, MAGIC_LATENT)
        # With frames or dim 0 any count matches an empty payload.
        if f == 0 or d == 0:
            raise ConfigError(f"{path}: latent header has frames={f}, dim={d}; both must be >= 1")
        if values != count * f * d:
            raise ConfigError(f"latent payload has {values} values, expected {count * f * d}")
        videos = [np.empty((f, d), dtype="<f8") for _ in range(count)]
        for video in videos:
            fh.readinto(video)
    return videos


def write_net(path, model: ToyAttentionDenoiser) -> None:
    parts = [np.array([model.blocks, model.total_steps, model.n_modes, model.seed], dtype=np.float64)]
    parts += [model.params[name].ravel() for name in model.param_names()]
    payload = np.concatenate(parts)
    with open(path, "wb") as fh:
        _write_header(fh, MAGIC_NET, model.dim, model.embed, payload.size)
        fh.write(payload.astype("<f8").tobytes())


def read_net(path) -> ToyAttentionDenoiser:
    with open(path, "rb") as fh:
        dim, embed, count, _ = _read_header(fh, path, MAGIC_NET)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != count or count < 4:
        raise ConfigError("net payload size mismatch")
    head = data[:4]
    if not (np.all(np.isfinite(head)) and np.all(head == np.floor(head))
            and np.all(head[:3] >= 1) and head[3] >= 0):
        raise ConfigError(
            f"{path}: net header [blocks, total_steps, n_modes, seed] = {head.tolist()} "
            "must be whole numbers, the first three positive and the seed non-negative"
        )
    blocks, total_steps, n_modes, seed = (int(x) for x in head)
    expected = 4 + net_param_count(dim, embed, blocks, n_modes)
    if data.size != expected:
        raise ConfigError(f"{path}: net payload has {data.size} values, header implies {expected}")
    model = ToyAttentionDenoiser(
        dim=dim, embed=embed, blocks=blocks, total_steps=total_steps,
        n_modes=n_modes, seed=seed,
    )
    offset = 4
    for name in model.param_names():
        shape = model.params[name].shape
        size = int(np.prod(shape))
        model.params[name] = data[offset : offset + size].reshape(shape).copy()
        offset += size
    return model


# ---------------------------------------------------------------------------
# Manifests and CSV
# ---------------------------------------------------------------------------


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    """The JSON object in ``path``, which must be UTF-8."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload


def read_manifest(path, kind: str) -> dict:
    """The manifest in ``path``, refused unless its version, ``kind`` and top-level keys fit."""
    manifest = read_json(path)
    if manifest.get("manifest_version") != MANIFEST_VERSION:
        raise ConfigError(
            f"{path}: manifest_version {manifest.get('manifest_version')!r} "
            f"not supported (want {MANIFEST_VERSION}); "
            f"write it again with `evs {'gen' if kind == 'dataset' else kind}`"
        )
    if manifest.get("kind") != kind:
        raise ConfigError(f"{path} is not a {kind} manifest")
    for key, json_type in _MANIFEST_KEYS[kind].items():
        if not isinstance(manifest.get(key), json_type):
            raise ConfigError(f"{path}: a {kind} manifest needs {key!r} as a {json_type.__name__}")
    if kind == "run":
        # A report over no rows is a row of nan, and a run over no items writes no rows.
        if not manifest["rows"]:
            raise ConfigError(f"{path}: a run manifest needs at least one entry in 'rows'")
        _check_keys(path, "its dataset record", manifest["dataset"], _RUN_DATASET_KEYS)
        for n, row in enumerate(manifest["rows"]):
            _check_keys(path, f"row {n}", row, _RUN_ROW_KEYS)
    return manifest


def _check_keys(path, what: str, record, types: dict):
    for key, json_type in types.items():
        value = record.get(key) if isinstance(record, dict) else None
        if isinstance(value, bool) or not isinstance(value, json_type):
            raise ConfigError(f"{path}: {what} needs {key!r} as {_TYPE_NAMES[json_type]}")


def file_sha256(path) -> str:
    """The sha256 of ``path``, hashed in 64 KiB chunks, not from one buffer of the whole file."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_metric_csv(path, rows, columns) -> None:
    """Rows are dicts keyed by ``columns``, written in that order; floats get
    12 significant digits and every other value is written as is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[col]) for col in columns])


def _format_cell(value):
    if isinstance(value, float):
        return format(value, ".12g")
    return value


def read_metric_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def csv_without_wall_time(path) -> str:
    """CSV content with the wall_time column stripped, for byte comparisons."""
    out = _io.StringIO()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        writer = csv.writer(out)
        header = next(reader)
        keep = [i for i, name in enumerate(header) if name != "wall_time"]
        writer.writerow([header[i] for i in keep])
        for row in reader:
            writer.writerow([row[i] for i in keep])
    return out.getvalue()


# ---------------------------------------------------------------------------
# SVG plots
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 420
_MARGIN = 60


def _fmt(x: float) -> str:
    return format(x, ".2f")


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def _svg_document(body: list[str], title: str, manifest_hash: str) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f"<metadata>manifest-sha256:{manifest_hash}</metadata>",
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _axes(x_label: str, y_label: str, xlo, xhi, ylo, yhi) -> list[str]:
    x0, x1 = _MARGIN, _SVG_W - _MARGIN
    y0, y1 = _SVG_H - _MARGIN, _MARGIN
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2}" y="{_SVG_H - 16}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="18" y="{(y0 + y1) / 2}" font-size="12" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2})" text-anchor="middle">{y_label}</text>',
        f'<text x="{x0}" y="{y0 + 16}" font-size="10" text-anchor="middle">{_fmt(xlo)}</text>',
        f'<text x="{x1}" y="{y0 + 16}" font-size="10" text-anchor="middle">{_fmt(xhi)}</text>',
        f'<text x="{x0 - 6}" y="{y0}" font-size="10" text-anchor="end">{_fmt(ylo)}</text>',
        f'<text x="{x0 - 6}" y="{y1 + 4}" font-size="10" text-anchor="end">{_fmt(yhi)}</text>',
    ]


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _span(values) -> tuple[float, float]:
    """The axis range of ``values``, widened by 1 each way when it is one point."""
    lo, hi = min(values), max(values)
    return (lo - 1.0, hi + 1.0) if hi == lo else (lo, hi)


def _legend(i: int, name: str, color: str) -> str:
    return (f'<text x="{_SVG_W - _MARGIN}" y="{_MARGIN + 16 * i}" text-anchor="end" '
            f'font-size="12" fill="{color}">{name}</text>')


def svg_line_plot(path, title, x_label, y_label, xs, ys, errs, manifest_hash: str) -> None:
    """Line plot of ``ys`` against ``xs`` with error bars of half-length ``errs``,
    its one series named ``y_label``."""
    lows = [y - e for y, e in zip(ys, errs)]
    highs = [y + e for y, e in zip(ys, errs)]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = _span([*ys, *highs, *lows])
    body = _axes(x_label, y_label, xlo, xhi, ylo, yhi)
    color = _COLORS[0]
    px = _scale(xs, xlo, xhi, _MARGIN, _SVG_W - _MARGIN)
    py, py_lo, py_hi = (_scale(v, ylo, yhi, _SVG_H - _MARGIN, _MARGIN) for v in (ys, lows, highs))
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(px, py))
    body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
    for x, y in zip(px, py):
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>')
    for sx, sy0, sy1 in zip(px, py_lo, py_hi):
        body.append(
            f'<line x1="{_fmt(sx)}" y1="{_fmt(sy0)}" x2="{_fmt(sx)}" y2="{_fmt(sy1)}" '
            f'stroke="{color}" stroke-width="1"/>'
        )
    body.append(_legend(0, y_label, color))
    Path(path).write_text(_svg_document(body, title, manifest_hash))


def svg_scatter(path, title, x_label, y_label, series: dict, manifest_hash: str) -> None:
    """Scatter plot; series maps name -> list of (x, y) points."""
    all_pts = [p for pts in series.values() for p in pts]
    xlo, xhi = _span([p[0] for p in all_pts])
    ylo, yhi = _span([p[1] for p in all_pts])
    body = _axes(x_label, y_label, xlo, xhi, ylo, yhi)
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = _COLORS[i % len(_COLORS)]
        px = _scale([x for x, _ in pts], xlo, xhi, _MARGIN, _SVG_W - _MARGIN)
        py = _scale([y for _, y in pts], ylo, yhi, _SVG_H - _MARGIN, _MARGIN)
        for sx, sy in zip(px, py):
            body.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="4" fill="{color}" fill-opacity="0.7"/>')
        body.append(_legend(i, name, color))
    Path(path).write_text(_svg_document(body, title, manifest_hash))


def svg_bar_chart(path, title, y_label, labels, values, manifest_hash: str) -> None:
    ylo = min(0.0, min(values))
    yhi = max(values) if max(values) > ylo else ylo + 1.0
    body = _axes("pipeline", y_label, 0, len(labels), ylo, yhi)
    width = (_SVG_W - 2 * _MARGIN) / max(len(labels), 1)
    for i, (label, value) in enumerate(zip(labels, values)):
        x = _MARGIN + i * width + width * 0.15
        y = _scale([value], ylo, yhi, _SVG_H - _MARGIN, _MARGIN)[0]
        base = _SVG_H - _MARGIN
        body.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(min(y, base))}" width="{_fmt(width * 0.7)}" '
            f'height="{_fmt(abs(base - y))}" fill="{_COLORS[i % len(_COLORS)]}"/>'
        )
        body.append(
            f'<text x="{_fmt(x + width * 0.35)}" y="{base + 14}" text-anchor="middle" '
            f'font-size="11">{label}</text>'
        )
        body.append(
            f'<text x="{_fmt(x + width * 0.35)}" y="{_fmt(min(y, base) - 4)}" '
            f'text-anchor="middle" font-size="10">{format(value, ".4g")}</text>'
        )
    Path(path).write_text(_svg_document(body, title, manifest_hash))
