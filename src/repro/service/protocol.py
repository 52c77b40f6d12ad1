"""Newline-delimited JSON framing shared by the service server and client.

One request or reply per line: a single JSON object, UTF-8, terminated
by ``\\n``. The framing is deliberately the same shape as the campaign
store's records — greppable, pipeable to ``jq``, and trivially
implemented in any language that can open a TCP socket. Every frame is
a dict; requests carry an ``op`` field, replies an ``ok`` field.

The same encoding gives each wire task its canonical text
(:func:`task_text`), the key of the :class:`TaskMemo` in which each
service role keeps what it resolved from a task, so a repeated task is
resolved once per process.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from collections.abc import Callable
from typing import BinaryIO, TypeVar

from repro.exceptions import ServiceError

_T = TypeVar("_T")

#: Default TCP port of ``repro.cli serve`` (loopback only).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7781

#: Upper bound on one frame: large enough for any realistic campaign
#: chunk, small enough that a stray non-protocol client (or a runaway
#: request generator) cannot balloon server memory.
MAX_FRAME_BYTES = 32 * 1024 * 1024


def _encode(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def send_frame(wfile: BinaryIO, payload: dict) -> None:
    """Serialize ``payload`` as one JSON line and flush it."""
    wfile.write(_encode(payload).encode("utf-8") + b"\n")
    wfile.flush()


def task_text(task: object) -> str | None:
    """The canonical text of one wire task, or ``None``.

    The task's :func:`send_frame` JSON form (sorted keys, compact
    separators): two tasks that travel as the same bytes share one text.
    ``None`` when the task is not JSON-serializable, which no task read
    off the wire is.
    """
    try:
        return _encode(task)
    except (TypeError, ValueError):
        return None


class TaskMemo:
    """Locked LRU from a task's canonical text to what a role resolved.

    A worker resolves a wire task to its solver, mapping, model and
    score digest, an orchestrator to its routing key; both ask
    :meth:`get`, so a repeated task costs one encode and one lookup.
    ``max_entries=None`` leaves the memo unbounded. A resolution that
    raises stores nothing (the task fails again when repeated), and a
    task without canonical text is resolved on every call.
    """

    def __init__(self, max_entries: int | None) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, task: object, resolve: Callable[[object], _T]) -> _T:
        """``resolve(task)``, computed once per distinct canonical text."""
        text = task_text(task)
        if text is None:
            return resolve(task)
        with self._lock:
            value = self._entries.get(text)
            if value is not None:
                if self.max_entries is not None:
                    self._entries.move_to_end(text)
                return value  # type: ignore[return-value]
        # Resolved outside the lock, so that one slow resolution holds up
        # no other thread's lookups; two threads missing the same text
        # both resolve it, and the second stores an equal value.
        value = resolve(task)
        with self._lock:
            self._entries[text] = value
            if self.max_entries is not None and len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._entries)


def recv_frame(rfile: BinaryIO) -> dict | None:
    """Read one JSON frame; ``None`` on clean EOF (peer closed).

    A frame that is oversized, truncated mid-line, or not a JSON object
    raises :class:`ServiceError` — the caller decides whether to reply
    with an error or drop the connection.
    """
    line = rfile.readline(MAX_FRAME_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise ServiceError(
            f"protocol frame exceeds {MAX_FRAME_BYTES} bytes"
        )
    if not line.endswith(b"\n"):
        # EOF inside a line: the peer died mid-write.
        raise ServiceError("connection closed mid-frame")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"protocol frame is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ServiceError("protocol frame must be a JSON object")
    return payload


def error_reply(message: str, *, error_type: str = "ServiceError") -> dict:
    """The canonical error frame."""
    return {"ok": False, "error": message, "error_type": error_type}


def overloaded_reply(message: str, *, retry_after: float) -> dict:
    """The structured load-shedding frame.

    ``error_type`` names :class:`~repro.exceptions.ServiceOverloaded`
    so the client re-raises the typed exception, and ``retry_after``
    (seconds) tells the caller how long to back off before retrying —
    the admission queue's contract: reject instantly, never hang.
    """
    return {
        "ok": False,
        "error": message,
        "error_type": "ServiceOverloaded",
        "retry_after": retry_after,
    }


def parse_endpoint(
    endpoint: str, *, default_host: str = DEFAULT_HOST
) -> tuple[str, int]:
    """``"host:port"`` or bare ``"port"`` → ``(host, port)``.

    Hostnames may not themselves contain ``:`` — a raw IPv6 literal like
    ``::1`` is rejected with a format error rather than silently
    misparsed (the service binds IPv4 loopback; name it by hostname).
    """
    text = endpoint.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = default_host, text
    if not host:
        host = default_host
    if ":" in host:
        raise ServiceError(
            f"invalid service endpoint {endpoint!r}; the host part may "
            "not contain ':' (IPv6 literals are not supported — use a "
            "hostname)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ServiceError(
            f"invalid service endpoint {endpoint!r}; expected HOST:PORT or PORT"
        ) from None
    if not 0 < port < 65536:
        raise ServiceError(f"service port out of range: {port}")
    return host, port


def parse_endpoints(
    text: str, *, default_host: str = DEFAULT_HOST
) -> list[tuple[str, int]]:
    """Comma-separated endpoint list → validated ``[(host, port), …]``.

    The fleet-facing form of :func:`parse_endpoint` (``cli serve --role
    orchestrator --workers HOST:PORT,…``): every entry is validated in
    place, a malformed or empty one is reported with its position, and
    duplicates are rejected — two catalog entries proxying the same
    daemon would double-count its shard.
    """
    entries = [entry.strip() for entry in text.split(",")]
    if entries == [""]:
        raise ServiceError("expected at least one HOST:PORT endpoint, got ''")
    endpoints: list[tuple[str, int]] = []
    seen: dict[tuple[str, int], int] = {}
    for position, entry in enumerate(entries, start=1):
        if not entry:
            raise ServiceError(
                f"empty endpoint at entry {position} of {text!r}; "
                "expected a comma-separated list of HOST:PORT"
            )
        try:
            endpoint = parse_endpoint(entry, default_host=default_host)
        except ServiceError as exc:
            raise ServiceError(f"entry {position} of {text!r}: {exc}") from None
        if endpoint in seen:
            raise ServiceError(
                f"duplicate endpoint {entry!r} (entries {seen[endpoint]} "
                f"and {position} of {text!r} name the same worker)"
            )
        seen[endpoint] = position
        endpoints.append(endpoint)
    return endpoints


def publish_ready_file(
    path: str | os.PathLike, host: str, port: int
) -> None:
    """Atomically write the ``{host, port, pid}`` startup handshake file.

    Scripts that launch a server in the background poll for this file to
    learn the bound (possibly ephemeral) port; the atomic replace means
    a reader never sees a half-written JSON object.
    """
    payload = {"host": host, "port": port, "pid": os.getpid()}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
