"""Wire codec: library dataclasses ⇄ canonical JSON bytes.

The RPC layer (:mod:`repro.net.rpc`) must move query requests, query
answers (proofs included), headers, and certificates between nodes as
*bytes*, so that fault injection can corrupt them the way a real
network would and so no Python object is ever shared across the
simulated trust boundary.

Every payload type in this library is a plain (frozen, slotted)
dataclass of primitives, ``bytes``, tuples, dicts, and other such
dataclasses, so one recursive codec covers them all:

* primitives pass through JSON;
* ``bytes`` become ``{"!b": "<hex>"}``;
* tuples/lists/dicts are tagged to round-trip their exact type;
* a dataclass becomes ``{"!dc": "<module>:<qualname>", "!f": {...}}``
  and is reconstructed by importing that class — restricted to
  ``repro.*`` modules, and re-running ``__post_init__`` validation, so
  decoding is not an arbitrary-code gadget and structurally invalid
  field values (a tampered public key off the curve, say) fail here.

Any decode failure raises :class:`repro.errors.WireError`; callers
treat that as a corrupted response (see
:class:`repro.errors.ResponseIntegrityError`).
"""

from __future__ import annotations

import dataclasses
import importlib
import json

from repro.errors import WireError

_BYTES = "!b"
_TUPLE = "!t"
_LIST = "!l"
_DICT = "!d"
_DATACLASS = "!dc"
_FIELDS = "!f"

_TAGS = {_BYTES, _TUPLE, _LIST, _DICT, _DATACLASS}


def encode(obj: object) -> bytes:
    """Serialize ``obj`` to canonical JSON bytes."""
    return json.dumps(_pack(obj), sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def decode(data: bytes) -> object:
    """Reconstruct the object encoded in ``data``.

    Raises :class:`WireError` on malformed JSON, unknown structure, an
    unregisterable class, a value the class itself rejects, or nesting
    too deep to parse.
    """
    try:
        try:
            raw = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"undecodable wire bytes: {exc}") from exc
        return _unpack(raw)
    except RecursionError as exc:
        raise WireError("wire payload nested too deeply") from exc


def _pack(obj: object) -> object:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return {_BYTES: obj.hex()}
    if isinstance(obj, tuple):
        return {_TUPLE: [_pack(item) for item in obj]}
    if isinstance(obj, list):
        return {_LIST: [_pack(item) for item in obj]}
    if isinstance(obj, dict):
        return {_DICT: [[_pack(k), _pack(v)] for k, v in obj.items()]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        if not cls.__module__.startswith("repro."):
            raise WireError(f"refusing to encode non-library type {cls!r}")
        return {
            _DATACLASS: f"{cls.__module__}:{cls.__qualname__}",
            _FIELDS: {
                field.name: _pack(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
            },
        }
    raise WireError(f"unserializable value of type {type(obj).__name__}")


def _unpack(raw: object) -> object:
    if raw is None or isinstance(raw, (bool, int, float, str)):
        return raw
    if isinstance(raw, list):
        raise WireError("bare JSON arrays are not produced by this codec")
    if not isinstance(raw, dict):
        raise WireError(f"unexpected wire value {raw!r}")
    tags = _TAGS.intersection(raw)
    if len(tags) != 1:
        raise WireError(f"ambiguous or untagged wire object: {sorted(raw)}")
    tag = tags.pop()
    body = raw[tag]
    try:
        if tag == _BYTES:
            return bytes.fromhex(body)
        if tag == _TUPLE:
            return tuple(_unpack(item) for item in body)
        if tag == _LIST:
            return [_unpack(item) for item in body]
        if tag == _DICT:
            return {_unpack(k): _unpack(v) for k, v in body}
        cls = _resolve(body)
        fields = raw.get(_FIELDS)
        if not isinstance(fields, dict):
            raise WireError(f"dataclass {body!r} missing field map")
        return cls(**{name: _unpack(value) for name, value in fields.items()})
    except WireError:
        raise
    except Exception as exc:  # tampered values fail loudly, not quietly
        raise WireError(f"cannot reconstruct wire object: {exc}") from exc


def _resolve(path: object) -> type:
    """Import the dataclass named by ``module:qualname`` (repro.* only)."""
    if not isinstance(path, str) or ":" not in path:
        raise WireError(f"malformed dataclass reference {path!r}")
    module_name, _, qualname = path.partition(":")
    if not module_name.startswith("repro."):
        raise WireError(f"refusing to import non-library module {module_name!r}")
    try:
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        raise WireError(f"unknown wire type {path!r}: {exc}") from exc
    if not (isinstance(target, type) and dataclasses.is_dataclass(target)):
        raise WireError(f"wire type {path!r} is not a dataclass")
    return target
