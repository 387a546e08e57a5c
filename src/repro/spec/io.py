"""Readers and writers for the specification files.

Two on-disk formats are supported:

* **JSON** — the canonical machine format.
* **Text** — a simple line-oriented format close to what EDA tools of the
  paper's era consumed, convenient for hand-editing::

      # core spec:      name width height x y layer
      core ARM 1.2 1.0 0.0 0.0 0
      # comm spec:      src dst bandwidth_mbps latency_cycles type
      flow ARM MEM0 400 6 request
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, TypeVar, Union

from repro.errors import SpecError
from repro.spec.comm_spec import CommSpec, MessageType, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec

PathLike = Union[str, Path]
T = TypeVar("T")


def _load(path: PathLike, parse: Callable[[str], T]) -> T:
    """``parse`` the text of the spec file at ``path``.

    An unreadable file, malformed JSON or a malformed entry raises
    :class:`SpecError` naming ``path``, never a bare ``OSError`` or
    ``ValueError``.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise SpecError(f"{path}: cannot read spec file: {reason}") from exc
    try:
        return parse(text)
    except SpecError as exc:
        if str(exc).startswith(f"{path}:"):
            raise
        raise SpecError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: deep JSON
        raise SpecError(f"{path}: {exc}") from exc


# --------------------------------------------------------------------------
# JSON format
# --------------------------------------------------------------------------

def core_spec_to_dict(spec: CoreSpec) -> dict:
    return {
        "cores": [
            {
                "name": c.name,
                "width": c.width,
                "height": c.height,
                "x": c.x,
                "y": c.y,
                "layer": c.layer,
            }
            for c in spec
        ]
    }


def core_spec_from_dict(data: dict) -> CoreSpec:
    if not isinstance(data, dict) or not isinstance(data.get("cores"), list):
        raise SpecError("core spec JSON must contain a 'cores' list")
    cores = []
    for i, entry in enumerate(data["cores"]):
        try:
            layer = entry.get("layer", 0)
            cores.append(
                Core(
                    name=str(entry["name"]),
                    width=float(entry["width"]),
                    height=float(entry["height"]),
                    x=float(entry.get("x", 0.0)),
                    y=float(entry.get("y", 0.0)),
                    # A JSON integer (or a string holding one); Core refuses
                    # a bool or a float rather than truncating it.
                    layer=int(layer) if isinstance(layer, str) else layer,
                )
            )
        except KeyError as exc:
            raise SpecError(f"cores[{i}]: core entry missing field {exc}") from exc
        except SpecError as exc:
            raise SpecError(f"cores[{i}]: {exc}") from exc
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise SpecError(
                f"cores[{i}]: malformed core entry {entry!r}: {exc}"
            ) from exc
    return CoreSpec(cores=cores)


def comm_spec_to_dict(spec: CommSpec) -> dict:
    return {
        "flows": [
            {
                "src": f.src,
                "dst": f.dst,
                "bandwidth": f.bandwidth,
                "latency": f.latency,
                "message_type": f.message_type.value,
            }
            for f in spec
        ]
    }


def comm_spec_from_dict(data: dict) -> CommSpec:
    if not isinstance(data, dict) or not isinstance(data.get("flows"), list):
        raise SpecError("communication spec JSON must contain a 'flows' list")
    flows = []
    for i, entry in enumerate(data["flows"]):
        try:
            flows.append(
                TrafficFlow(
                    src=str(entry["src"]),
                    dst=str(entry["dst"]),
                    bandwidth=float(entry["bandwidth"]),
                    latency=float(entry["latency"]),
                    message_type=MessageType.parse(
                        entry.get("message_type", "request")
                    ),
                )
            )
        except KeyError as exc:
            raise SpecError(f"flows[{i}]: flow entry missing field {exc}") from exc
        except SpecError as exc:
            raise SpecError(f"flows[{i}]: {exc}") from exc
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise SpecError(
                f"flows[{i}]: malformed flow entry {entry!r}: {exc}"
            ) from exc
    return CommSpec(flows=flows)


def save_core_spec_json(spec: CoreSpec, path: PathLike) -> None:
    Path(path).write_text(json.dumps(core_spec_to_dict(spec), indent=2))


def load_core_spec_json(path: PathLike) -> CoreSpec:
    return _load(path, lambda text: core_spec_from_dict(json.loads(text)))


def save_comm_spec_json(spec: CommSpec, path: PathLike) -> None:
    Path(path).write_text(json.dumps(comm_spec_to_dict(spec), indent=2))


def load_comm_spec_json(path: PathLike) -> CommSpec:
    return _load(path, lambda text: comm_spec_from_dict(json.loads(text)))


# --------------------------------------------------------------------------
# Text format
# --------------------------------------------------------------------------

def save_core_spec_text(spec: CoreSpec, path: PathLike) -> None:
    lines = ["# name width height x y layer"]
    for c in spec:
        lines.append(f"core {c.name} {c.width:g} {c.height:g} {c.x:g} {c.y:g} {c.layer}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_core_spec_text(path: PathLike) -> CoreSpec:
    return _load(path, lambda text: _parse_core_text(path, text))


def _parse_core_text(path: PathLike, text: str) -> CoreSpec:
    cores = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "core" or len(parts) != 7:
            raise SpecError(f"{path}:{lineno}: expected 'core name w h x y layer'")
        try:
            cores.append(
                Core(
                    name=parts[1],
                    width=float(parts[2]),
                    height=float(parts[3]),
                    x=float(parts[4]),
                    y=float(parts[5]),
                    layer=int(parts[6]),
                )
            )
        except (SpecError, ValueError) as exc:
            raise SpecError(f"{path}:{lineno}: {exc}") from exc
    return CoreSpec(cores=cores)


def save_comm_spec_text(spec: CommSpec, path: PathLike) -> None:
    lines = ["# src dst bandwidth_mbps latency_cycles message_type"]
    for f in spec:
        lines.append(
            f"flow {f.src} {f.dst} {f.bandwidth:g} {f.latency:g} {f.message_type.value}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_comm_spec_text(path: PathLike) -> CommSpec:
    return _load(path, lambda text: _parse_comm_text(path, text))


def _parse_comm_text(path: PathLike, text: str) -> CommSpec:
    flows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "flow" or len(parts) not in (5, 6):
            raise SpecError(
                f"{path}:{lineno}: expected 'flow src dst bw lat [type]'"
            )
        try:
            flows.append(
                TrafficFlow(
                    src=parts[1],
                    dst=parts[2],
                    bandwidth=float(parts[3]),
                    latency=float(parts[4]),
                    message_type=(
                        MessageType.parse(parts[5])
                        if len(parts) == 6
                        else MessageType.REQUEST
                    ),
                )
            )
        except (SpecError, ValueError) as exc:
            raise SpecError(f"{path}:{lineno}: {exc}") from exc
    return CommSpec(flows=flows)
