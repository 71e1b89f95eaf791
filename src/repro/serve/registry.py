"""Versioned on-disk model registry the server cold-starts from.

A :class:`ModelRegistry` is a directory of named models, each a sequence
of immutable checkpoint versions written with
:func:`~repro.common.serialization.save_checkpoint`, optionally joined by
immutable **hardware profiles** (``hwNNNN.json``) — the device ladder +
variation recipes that map the checkpoints onto crossbars
(:class:`~repro.hardware.mapped_network.HardwareProfile`)::

    <root>/
      shd-mlp/
        v0001.npz  v0001.json
        v0002.npz  v0002.json
        hw0001.json
      quickstart/
        v0001.npz  v0001.json

``save`` / ``save_profile`` allocate the next version, ``load`` /
``load_profile`` rebuild the artifact (and return the metadata saved with
it), ``list`` enumerates everything from the JSON sidecars alone (no
array loading).  Checkpoints and profiles version independently: one
trained model may carry many candidate hardware realizations (4-bit vs
5-bit, different variation assumptions), and
:meth:`~repro.serve.server.ModelServer.from_registry` picks one pair to
serve.  The format inherits the serialization module's safety property:
no pickling, no executable content.
"""

from __future__ import annotations

import itertools
import os
import re
import time
import warnings

from ..common.errors import SerializationError
from ..common.serialization import (
    load_checkpoint,
    load_hardware_profile,
    load_json,
    save_checkpoint,
    save_hardware_profile,
)

__all__ = ["ModelRegistry"]

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION = re.compile(r"^v(\d{4,})$")
_HW_VERSION = re.compile(r"^hw(\d{4,})$")
#: The two artifact kinds, as ``(id prefix, id pattern, file extension)``.
_CHECKPOINTS = ("v", _VERSION, ".npz")
_PROFILES = ("hw", _HW_VERSION, ".json")

#: Per-process uniquifier for temp artifact stems (pid alone is not enough
#: when one process saves concurrently from several threads).
_TMP_IDS = itertools.count()


class ModelRegistry:
    """A directory of versioned model checkpoints.

    Parameters
    ----------
    root:
        Registry directory (created on first ``save``).
    """

    def __init__(self, root: str, clock=time.time):
        self.root = os.fspath(root)
        # ``saved_unix`` provenance stamps go through an injectable
        # clock so registry behaviour stays reproducible under test.
        self._clock = clock

    # -- paths ---------------------------------------------------------------
    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME.match(name or ""):
            raise SerializationError(
                f"invalid model name {name!r}: use letters, digits, "
                f"'.', '_', '-'")
        return name

    def path(self, name: str, version: str) -> str:
        """The ``.npz`` path of one checkpoint (which need not exist)."""
        self._check_name(name)
        if not _VERSION.match(version):
            raise SerializationError(
                f"invalid version {version!r}: expected 'vNNNN'")
        return os.path.join(self.root, name, version + ".npz")

    def profile_path(self, name: str, profile: str) -> str:
        """The ``.json`` path of one hardware profile (which need not
        exist)."""
        self._check_name(name)
        if not _HW_VERSION.match(profile):
            raise SerializationError(
                f"invalid hardware profile {profile!r}: expected 'hwNNNN'")
        return os.path.join(self.root, name, profile + ".json")

    # -- queries -------------------------------------------------------------
    def models(self) -> list[str]:
        """Model names present in the registry, sorted."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            entry for entry in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, entry))
            and _NAME.match(entry)
        )

    def _scan(self, name: str, kind: tuple) -> list[str]:
        """Every id of ``kind`` (:data:`_CHECKPOINTS` or
        :data:`_PROFILES`) present, complete or not, oldest first.

        This is the *allocation* view: it includes other savers' in-flight
        ``O_EXCL`` claims (empty files) and crash leftovers, so concurrent
        id allocation always advances past them.  Listings also walk
        it (and warn on the broken entries); :meth:`versions` and
        :meth:`profiles` filter it down to loadable artifacts.
        """
        _, pattern, extension = kind
        directory = os.path.join(self.root, self._check_name(name))
        if not os.path.isdir(directory):
            return []
        found = []
        for entry in os.listdir(directory):
            stem, ext = os.path.splitext(entry)
            match = pattern.match(stem)
            if ext == extension and match:
                found.append((int(match.group(1)), stem))
        return [stem for _, stem in sorted(found)]

    def versions(self, name: str) -> list[str]:
        """All *complete* versions of ``name``, oldest first.

        A version counts once its JSON sidecar exists — the sidecar is
        replaced last in :meth:`save`, so its presence implies a complete
        checkpoint.  In-flight claims and crashed saves are excluded,
        which keeps :meth:`latest` (and therefore ``load(name)`` /
        ``from_registry`` with no explicit version) from resolving to an
        artifact that cannot be loaded.
        """
        complete = []
        for version in self._scan(name, _CHECKPOINTS):
            sidecar = os.path.splitext(self.path(name, version))[0] + ".json"
            if os.path.exists(sidecar):
                complete.append(version)
        return complete

    def latest(self, name: str) -> str | None:
        """The newest version of ``name``, or ``None``."""
        versions = self.versions(name)
        return versions[-1] if versions else None

    def profiles(self, name: str) -> list[str]:
        """All *complete* hardware profiles of ``name``, oldest first.

        A profile artifact is a single JSON landed by an atomic
        ``os.replace``, so the only incomplete state is another saver's
        still-empty claim — excluded here so :meth:`latest_profile` /
        ``load_profile(name)`` never resolve to it.  A file deleted
        between the scan and the size probe (operator cleanup racing a
        reader) counts as absent, not as an error.
        """
        return [profile for profile in self._scan(name, _PROFILES)
                if self._artifact_bytes(
                    self.profile_path(name, profile)) > 0]

    def latest_profile(self, name: str) -> str | None:
        """The newest hardware profile of ``name``, or ``None``."""
        profiles = self.profiles(name)
        return profiles[-1] if profiles else None

    @staticmethod
    def _artifact_bytes(path: str) -> int:
        """Size of an artifact file, ``-1`` if it vanished mid-scan.

        Size 0 identifies another saver's in-flight ``O_EXCL`` claim — a
        healthy transient, not a broken artifact: listings skip it
        *silently* (warning would make normal concurrent saves look like
        corruption, and crash under warnings-as-errors test setups).
        """
        try:
            return os.path.getsize(path)
        except OSError:
            return -1

    @staticmethod
    def _read_sidecar(path: str, what: str) -> dict | None:
        """Load one artifact's JSON, tolerating broken entries.

        A missing or corrupt sidecar (an interrupted save's orphan, a
        truncated file, a concurrent saver's still-empty claim) must not
        take the whole listing down — ``from_registry`` discovery runs
        over listings.  Broken entries are skipped with a warning naming
        the path, so the operator can clean them up.
        """
        try:
            return load_json(path)
        except (SerializationError, ValueError) as exc:
            warnings.warn(
                f"registry: skipping {what} with missing/corrupt sidecar "
                f"{path}: {exc}", RuntimeWarning, stacklevel=3)
            return None

    def list(self, name: str | None = None) -> list[dict]:
        """Describe every checkpoint (of one model, or of all models).

        Reads only the JSON sidecars; each entry carries ``name``,
        ``version``, ``path``, the architecture summary and the user
        metadata saved with the checkpoint.  A checkpoint whose sidecar
        is missing or corrupt is skipped with a ``RuntimeWarning`` (one
        bad artifact cannot break discovery); a concurrent saver's
        still-empty claim is skipped silently (it is not broken — its
        save is in flight).
        """
        names = [self._check_name(name)] if name is not None else self.models()
        entries = []
        for model in names:
            for version in self._scan(model, _CHECKPOINTS):
                npz = self.path(model, version)
                if self._artifact_bytes(npz) <= 0:
                    continue  # in-flight claim (or vanished): healthy
                sidecar = self._read_sidecar(
                    os.path.splitext(npz)[0] + ".json",
                    f"checkpoint {model}:{version}")
                if sidecar is None:
                    continue
                entries.append({
                    "name": model,
                    "version": version,
                    "path": npz,
                    "network": sidecar.get("network", {}),
                    "meta": sidecar.get("meta", {}),
                })
        return entries

    def list_profiles(self, name: str | None = None) -> list[dict]:
        """Describe every hardware profile (of one model, or of all).

        Each entry carries ``name``, ``profile`` (the ``hwNNNN`` id),
        ``path``, the profile's config dict and the user metadata saved
        with it.  Broken profile files are skipped with a
        ``RuntimeWarning``, like :meth:`list` does for checkpoints;
        in-flight claims (empty files) are skipped silently.
        """
        names = [self._check_name(name)] if name is not None else self.models()
        entries = []
        for model in names:
            for profile in self._scan(model, _PROFILES):
                path = self.profile_path(model, profile)
                if self._artifact_bytes(path) <= 0:
                    continue  # in-flight claim (or vanished): healthy
                payload = self._read_sidecar(
                    path, f"hardware profile {model}:{profile}")
                if payload is None:
                    continue
                entries.append({
                    "name": model,
                    "profile": profile,
                    "path": path,
                    "config": payload.get("profile", {}),
                    "meta": payload.get("meta", {}),
                })
        return entries

    # -- save / load ---------------------------------------------------------
    def _allocate(self, name: str, kind: tuple) -> tuple[str, str]:
        """Claim the next id of ``kind``; returns ``(id, path)``.

        The claim is the atomic exclusive creation of the empty final
        file, so it immediately reserves the id against concurrent
        allocators (it is what :meth:`_scan` sees).  Allocation runs past
        *every* scanned id — including other savers' in-flight claims,
        which are not yet complete — and re-allocates on collision, so
        interleaved savers get distinct ids instead of overwriting each
        other.
        """
        prefix, _, extension = kind
        while True:
            scanned = self._scan(name, kind)
            last = int(scanned[-1][len(prefix):]) if scanned else 0
            ident = f"{prefix}{last + 1:04d}"
            path = os.path.join(self.root, name, ident + extension)
            try:
                os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                continue
            return ident, path

    def _tmp_stem(self, name: str, kind: str) -> str:
        """A per-call temp stem inside the model directory (same
        filesystem, so ``os.replace`` onto the final name is atomic).
        Invisible to the listings: neither ``vNNNN`` nor ``hwNNNN``
        matches it."""
        return os.path.join(
            self.root, name,
            f".tmp-{kind}-{os.getpid()}-{next(_TMP_IDS)}")

    def save(self, name: str, network, meta: dict | None = None) -> str:
        """Write ``network`` as the next version of ``name``; returns the
        version id (``"v0001"``-style).

        ``meta`` is user metadata stored in the sidecar (the registry adds
        ``saved_unix``).

        Concurrency / crash safety: the artifact pair is first written to
        a temp stem, then a version id is *claimed* by exclusive creation
        of the final ``.npz`` (re-allocating on collision, so two
        interleaved savers get distinct ids instead of overwriting each
        other), and finally the temp files are ``os.replace``\\ d onto the
        claimed names — archive first, sidecar last, so a complete
        sidecar implies a complete checkpoint.  A crash mid-save leaves
        only a temp pair or a sidecar-less claim; :meth:`versions` /
        :meth:`latest` exclude those (so default loads still resolve the
        newest *loadable* version) and :meth:`list` skips them with a
        warning.
        """
        self._check_name(name)
        os.makedirs(os.path.join(self.root, name), exist_ok=True)
        meta = dict(meta or {})
        meta.setdefault("saved_unix", self._clock())
        tmp_npz = save_checkpoint(self._tmp_stem(name, "ckpt"), network,
                                  meta=meta)
        tmp_sidecar = os.path.splitext(tmp_npz)[0] + ".json"
        version, final_npz = self._allocate(name, _CHECKPOINTS)
        os.replace(tmp_npz, final_npz)
        os.replace(tmp_sidecar, os.path.splitext(final_npz)[0] + ".json")
        return version

    def load(self, name: str, version: str | None = None):
        """Rebuild ``(network, meta)`` from a checkpoint.

        ``version=None`` loads the latest.
        """
        if version is None:
            version = self.latest(name)
            if version is None:
                raise SerializationError(
                    f"registry has no model {name!r} under {self.root} "
                    f"(known: {self.models() or 'none'})")
        return load_checkpoint(self.path(name, version))

    def save_profile(self, name: str, profile,
                     meta: dict | None = None) -> str:
        """Write ``profile`` (a :class:`~repro.hardware.mapped_network.
        HardwareProfile`) as the next hardware profile of ``name``;
        returns the profile id (``"hw0001"``-style).

        Profiles version independently of checkpoints — map the same
        trained weights under several candidate device assumptions and
        pick one at serve time.  Same concurrency contract as
        :meth:`save`: the id is claimed by exclusive creation (retried on
        collision) and the payload lands via an atomic ``os.replace``;
        the empty claim window is tolerated by :meth:`list_profiles`.
        """
        self._check_name(name)
        os.makedirs(os.path.join(self.root, name), exist_ok=True)
        meta = dict(meta or {})
        meta.setdefault("saved_unix", self._clock())
        tmp_json = save_hardware_profile(
            self._tmp_stem(name, "hw") + ".json", profile, meta=meta)
        profile_id, final_json = self._allocate(name, _PROFILES)
        os.replace(tmp_json, final_json)
        return profile_id

    def save_pair(self, name: str, network, profile,
                  meta: dict | None = None) -> tuple[str, str]:
        """Save a co-trained ``(checkpoint, hardware profile)`` pair.

        The one-call registry write of hardware-aware training: the
        checkpoint and the :class:`~repro.hardware.mapped_network.
        HardwareProfile` it was trained against land together, and the
        profile's metadata records the checkpoint id under
        ``"checkpoint"`` — :meth:`~repro.serve.server.ModelServer.
        from_registry` with ``hardware_profile=True`` then cold-starts
        exactly the pair that was co-trained, not whatever profile
        happens to be newest.  Returns ``(version, profile_id)``.
        """
        meta = dict(meta or {})
        version = self.save(name, network, meta=meta)
        profile_id = self.save_profile(
            name, profile, meta={**meta, "checkpoint": version})
        return version, profile_id

    def load_profile(self, name: str, profile: str | None = None):
        """Rebuild ``(hardware_profile, meta)``.

        ``profile=None`` loads the latest.
        """
        if profile is None:
            profile = self.latest_profile(name)
            if profile is None:
                raise SerializationError(
                    f"registry has no hardware profile for {name!r} under "
                    f"{self.root} (save one with save_profile)")
        return load_hardware_profile(self.profile_path(name, profile))

    def __repr__(self) -> str:
        return f"ModelRegistry({self.root!r}, models={self.models()})"
