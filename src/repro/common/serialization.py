"""Saving and loading model parameters and experiment artifacts.

Artifacts are stored as a ``.npz`` archive of named arrays plus a JSON
sidecar of metadata (configs, metrics, provenance).  Both files share a stem
so an artifact can be moved around as a pair.

On top of the raw array format sit **model checkpoints**
(:func:`save_checkpoint` / :func:`load_checkpoint`): one artifact holding a
:class:`~repro.core.network.SpikingNetwork`'s ``state_dict`` *plus* the
architecture needed to rebuild it (layer sizes, neuron kind, neuron
parameters), so a trained model round-trips from disk without the caller
reconstructing the network by hand, and **hardware profiles**
(:func:`save_hardware_profile` / :func:`load_hardware_profile`): the
device ladder + variation model and programming seed that map a
checkpoint onto crossbars, as a single JSON file.  The serving model registry
(:class:`repro.serve.ModelRegistry`) versions both, side by side.

The format is intentionally dumb: no pickling, no executable content — a
model file from an untrusted source can at worst contain wrong numbers.
"""

from __future__ import annotations

import json
import os
from typing import Mapping

import numpy as np

from .errors import SerializationError

__all__ = [
    "save_arrays",
    "load_arrays",
    "save_json",
    "load_json",
    "save_checkpoint",
    "load_checkpoint",
    "save_hardware_profile",
    "load_hardware_profile",
]

#: Tag written into every checkpoint sidecar; bumped on layout changes.
CHECKPOINT_FORMAT = "repro-checkpoint-v1"

#: Tag written into every hardware-profile file; bumped on layout changes.
HWPROFILE_FORMAT = "repro-hwprofile-v1"


def save_arrays(path: str, arrays: Mapping[str, np.ndarray],
                metadata: dict | None = None) -> None:
    """Save named arrays to ``path`` (``.npz``) with an optional JSON sidecar.

    Parameters
    ----------
    path:
        Target path; a ``.npz`` suffix is appended if missing.
    arrays:
        Mapping from name to array.  Names must be non-empty strings.
    metadata:
        JSON-serialisable dict written next to the archive as ``<stem>.json``.
    """
    if not arrays:
        raise SerializationError("refusing to save an empty artifact")
    for name in arrays:
        if not isinstance(name, str) or not name:
            raise SerializationError(f"invalid array name: {name!r}")
    target = path if path.endswith(".npz") else path + ".npz"
    directory = os.path.dirname(os.path.abspath(target))
    os.makedirs(directory, exist_ok=True)
    np.savez_compressed(target, **{k: np.asarray(v) for k, v in arrays.items()})
    if metadata is not None:
        save_json(_sidecar_path(target), metadata)


def load_arrays(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Load a ``.npz`` artifact; returns ``(arrays, metadata)``.

    Metadata is ``{}`` if no sidecar exists.
    """
    target = path if path.endswith(".npz") else path + ".npz"
    if not os.path.exists(target):
        raise SerializationError(f"artifact not found: {target}")
    with np.load(target) as archive:
        arrays = {name: archive[name].copy() for name in archive.files}
    sidecar = _sidecar_path(target)
    metadata = load_json(sidecar) if os.path.exists(sidecar) else {}
    return arrays, metadata


def save_json(path: str, payload: dict) -> None:
    """Write ``payload`` as pretty-printed JSON (creating directories)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    except TypeError as exc:
        raise SerializationError(f"metadata is not JSON-serialisable: {exc}") from exc
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_json(path: str) -> dict:
    """Read a JSON file written by :func:`save_json`."""
    if not os.path.exists(path):
        raise SerializationError(f"JSON artifact not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def save_checkpoint(path: str, network, meta: dict | None = None) -> str:
    """Save a full model checkpoint: parameters + rebuildable architecture.

    Parameters
    ----------
    path:
        Target stem/path (``.npz`` appended if missing; a ``.json``
        sidecar is written alongside).
    network:
        The :class:`~repro.core.network.SpikingNetwork` to persist.  Its
        ``state_dict`` plus sizes / neuron kind / neuron parameters are
        stored; the surrogate gradient is a training-time object and is
        not serialised (a loaded checkpoint carries the default).
    meta:
        Optional JSON-serialisable user metadata (metrics, provenance),
        stored under the sidecar's ``"meta"`` key.

    Returns the ``.npz`` path actually written.
    """
    metadata = {
        "format": CHECKPOINT_FORMAT,
        "network": {
            "sizes": [int(s) for s in network.sizes],
            "neuron_kind": network.neuron_kind,
            "params": network.params.to_dict(),
        },
        "meta": meta or {},
    }
    save_arrays(path, network.state_dict(), metadata)
    return path if path.endswith(".npz") else path + ".npz"


def load_checkpoint(path: str):
    """Rebuild a network saved by :func:`save_checkpoint`.

    Returns ``(network, meta)`` where ``meta`` is the user metadata dict
    passed at save time.  The architecture (sizes, neuron kind, neuron
    parameters) comes from the sidecar; weights from the archive.
    """
    from ..core.network import SpikingNetwork  # lazy: common must not
    from ..core.neurons import NeuronParameters  # depend on core at import

    arrays, metadata = load_arrays(path)
    spec = metadata.get("network")
    if metadata.get("format") != CHECKPOINT_FORMAT or not spec:
        raise SerializationError(
            f"{path}: not a {CHECKPOINT_FORMAT} checkpoint (write one with "
            f"save_checkpoint)")
    params = NeuronParameters.from_dict(spec["params"])
    network = SpikingNetwork(tuple(spec["sizes"]), params=params,
                             neuron_kind=spec["neuron_kind"], rng=0)
    network.load_state_dict(arrays)
    return network, metadata.get("meta", {})


def save_hardware_profile(path: str, profile, meta: dict | None = None) -> str:
    """Save a :class:`~repro.hardware.mapped_network.HardwareProfile`.

    A profile is pure configuration (device model + seed), so the
    artifact is a single JSON file — same safety property as the
    checkpoint format: no pickling, no executable content.  ``meta`` is
    user metadata stored under the ``"meta"`` key.

    Returns the path written (``.json`` appended if missing).
    """
    target = path if path.endswith(".json") else path + ".json"
    save_json(target, {
        "format": HWPROFILE_FORMAT,
        "profile": profile.to_dict(),
        "meta": meta or {},
    })
    return target


def load_hardware_profile(path: str):
    """Rebuild ``(profile, meta)`` saved by :func:`save_hardware_profile`."""
    from ..hardware.mapped_network import HardwareProfile  # lazy: common
    # must not depend on hardware at import

    target = path if path.endswith(".json") else path + ".json"
    payload = load_json(target)
    if payload.get("format") != HWPROFILE_FORMAT or "profile" not in payload:
        raise SerializationError(
            f"{target}: not a {HWPROFILE_FORMAT} hardware profile (write "
            f"one with save_hardware_profile)")
    return (HardwareProfile.from_dict(payload["profile"]),
            payload.get("meta", {}))


def _sidecar_path(npz_path: str) -> str:
    stem, _ = os.path.splitext(npz_path)
    return stem + ".json"


def _json_default(value):
    """Coerce numpy scalars/arrays in metadata to plain Python types."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serialisable: {type(value).__name__}")
