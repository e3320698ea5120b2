"""Length-prefixed JSON messaging for the experiment fleet.

The coordinator and its workers speak the simplest wire protocol that
is still unambiguous: every message is one JSON object, preceded by a
4-byte big-endian length. Each exchange is a fresh TCP connection
carrying exactly one request and one reply — no connection state to
resynchronise after a worker (or the coordinator) dies mid-run, which
is the failure mode the fleet is built around.

Message ``type`` values (worker → coordinator, reply in parentheses):

``hello``
    Join the fleet (``welcome``: session sharing, the lease timeout and
    the idle poll interval). The welcome carries no plan: every
    ``unit`` grant names its plan (``plan_id``) and ships the plan
    payload inline, so a worker needs no plan file of its own and one
    worker can serve many plans. The worker echoes ``plan_id`` on
    ``heartbeat``/``complete``/``records`` so the coordinator routes
    them to the right ledger and store.
``lease``
    Ask for work (``unit``: a leased work-unit descriptor — a group
    index plus the explicit cell subset to run, see
    :class:`~repro.experiments.work.WorkUnit` — with its ``plan_id``,
    the plan payload and, when the plan runs under a ``plan`` root
    span, its ``trace`` context ``{"trace_id", "parent_span"}``, which
    the worker adopts so every fleet process traces into one tree;
    ``wait``: nothing is grantable right now; ``drain``: the
    coordinator wants this worker's local records of ``plan_id`` before
    handing out more work; ``done``: the coordinator's plans are fully
    recorded and it is shutting down; ``bye``: this worker was asked
    to leave — see ``drain`` below — and owes nothing, so it may exit;
    nothing it ran will requeue).
``heartbeat``
    Keep a lease alive while a unit runs (``ok`` / ``expired``). May
    carry a ``telemetry`` payload — the worker's cumulative
    ``busy_seconds``, the in-flight unit's elapsed time, and an
    ``engine_costs`` kernel-rate snapshot — folded into the
    coordinator's live utilization view and its unit cost model (an
    in-flight unit's elapsed time bounds its cost from below). Also
    carries ``metrics`` (a delta-encoded registry snapshot, see
    :func:`repro.obs.snapshot_delta`) which the coordinator folds into
    its fleet registry labelled by worker, and ``sent_at`` (the
    worker's wall clock at send time) from which replies derive a
    ``clock_offset`` estimate for merged-timeline alignment.
``complete``
    Report a leased unit finished (``ok`` / ``stale`` when the lease
    timed out and the unit was already re-leased). Carries a
    ``telemetry`` payload (``unit_seconds``, cumulative
    ``busy_seconds``, ``records``, ``cells``, ``engine_costs``) for
    per-worker accounting and online cost-model updates, and the
    worker's undrained ``records`` of that plan inline (an implicit
    drain). The reply carries ``next`` — a full lease decision
    (``unit``/``wait``/``drain``/``done``/``bye``), collapsing
    complete → drain → records → lease into one round-trip. ``next``
    rides ``stale`` replies too: a worker whose lease expired still
    wants work. Like heartbeats, ``complete`` carries ``metrics`` +
    ``sent_at``; the reply echoes a ``clock_offset``.
``records``
    Upload the worker's undrained records of ``plan_id`` (``ok``; the
    coordinator merges them into that plan's store, first writer wins).
``status``
    Read-only snapshot (``status``: one entry per admitted plan with
    its expected/recorded cell counts and ledger progress, per-worker
    utilization/round-trip accounting, the shared cost model as
    ``costs``, and ``finished`` once the coordinator answers ``done``).
    Sent by ``repro experiments status``; never counts as worker
    contact, so probing a fleet cannot delay its shutdown.
``drain``
    Operator request (``repro experiments drain``, or the service
    gateway's ``POST /workers/<id>/drain``): gracefully retire the
    worker named ``target`` (``ok``). The target finishes any unit it
    holds and keeps completing/draining normally, but receives no new
    grants; once its records are merged, its next ask is answered
    ``bye`` and it exits with zero requeued cells — elastic
    scale-down without re-running anything.

**Authentication.** With a shared secret configured
(``--auth-token`` / ``REPRO_FLEET_TOKEN``) every exchange runs a
*mutual* HMAC-SHA256 challenge–response before any payload moves, in
either direction:

1. the client opens with ``auth-hello`` carrying only a fresh nonce —
   never the request itself;
2. the coordinator replies ``challenge`` with its own nonce plus a
   ``proof`` over the client's nonce (coordinator role), proving *it*
   holds the token before the client reveals anything;
3. the client verifies the proof and only then sends ``auth`` with its
   ``mac`` over the coordinator's nonce (worker role) and the real
   request; the coordinator verifies and dispatches.

An unauthenticated peer connecting to the coordinator sees a random
nonce and an ``error`` — never a byte of the plan or its records; a
rogue listener impersonating the coordinator cannot produce the proof,
so a worker never sends it a request (or its records) either. The two
roles are domain-separated so a proof can never be replayed as a mac;
nonces are per-connection, so captured responses prove nothing.
(Confidentiality/integrity of the payload itself needs TLS, which this
handshake deliberately does not attempt — an offline brute-force of a
*weak* token against a captured proof also remains possible, as in any
shared-secret scheme.)
"""

from __future__ import annotations

import hashlib
import hmac
import json
import secrets
import socket
import struct

from repro.errors import ParallelError

__all__ = [
    "FleetAuthError",
    "FleetError",
    "MAX_MESSAGE_BYTES",
    "auth_mac",
    "auth_nonce",
    "check_auth_token",
    "recv_message",
    "request",
    "send_message",
    "verify_auth",
]

#: Upper bound on one framed message. Record uploads are the largest
#: payloads (a few KiB per run); anything near this limit is corruption
#: or a port collision with an unrelated service, not fleet traffic.
MAX_MESSAGE_BYTES = 64 << 20

_HEADER = struct.Struct(">I")


class FleetError(ParallelError):
    """Failure in the distributed coordinator/worker runtime."""


class FleetAuthError(FleetError):
    """Authentication failure — never retried (a retry cannot help)."""


def auth_nonce() -> str:
    """A fresh random nonce (one per connection side, never reused)."""
    return secrets.token_hex(32)


def auth_mac(token: str, nonce: str, role: str) -> str:
    """``HMAC-SHA256(token, role ":" nonce)``.

    ``role`` domain-separates the two directions of the handshake
    (``"coordinator"`` proves over the client's nonce, ``"worker"``
    over the coordinator's), so one side's response can never be
    replayed as the other's.
    """
    return hmac.new(
        token.encode(), f"{role}:{nonce}".encode(), hashlib.sha256
    ).hexdigest()


def verify_auth(token: str, nonce: str, mac, role: str) -> bool:
    """Constant-time check of a peer's challenge response."""
    return isinstance(mac, str) and hmac.compare_digest(
        auth_mac(token, nonce, role), mac
    )


def check_auth_token(token: str | None) -> str | None:
    """Validate a configured token (``None`` = auth disabled).

    An *empty* token is rejected loudly instead of silently disabling
    authentication — the classic unpopulated-secret foot-gun
    (``REPRO_FLEET_TOKEN=""`` set by a deploy script would otherwise
    run the fleet wide open while the operator believes it is authed).
    """
    if token is not None and not token:
        raise FleetError(
            "the fleet auth token must be non-empty — unset "
            "REPRO_FLEET_TOKEN / omit --auth-token to disable "
            "authentication instead"
        )
    return token


def send_message(sock: socket.socket, payload: dict) -> None:
    """Frame and send one JSON message."""
    data = json.dumps(payload, sort_keys=True).encode()
    if len(data) > MAX_MESSAGE_BYTES:
        raise FleetError(
            f"refusing to send a {len(data)}-byte message "
            f"(limit {MAX_MESSAGE_BYTES})"
        )
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise FleetError(
                f"connection closed mid-message ({n - remaining} of {n} "
                "bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict | None:
    """Receive one framed message; ``None`` on a clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise FleetError(
            f"oversized message announced ({length} bytes, limit "
            f"{MAX_MESSAGE_BYTES}) — not fleet traffic?"
        )
    data = _recv_exact(sock, length)
    if data is None:
        raise FleetError("connection closed between header and body")
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FleetError(f"malformed fleet message: {exc}") from exc
    if not isinstance(payload, dict):
        raise FleetError("fleet messages must be JSON objects")
    return payload


def request(
    address: tuple[str, int],
    payload: dict,
    timeout: float = 30.0,
    token: str | None = None,
) -> dict:
    """One request/reply exchange on a fresh connection.

    With a ``token``, the mutual handshake runs first and ``payload``
    is only sent once the peer has *proved* it holds the same token —
    a rogue listener on the coordinator's address never sees the
    request (or a worker's record upload). Without one, a ``challenge``
    reply raises :class:`FleetAuthError` immediately — retrying cannot
    succeed.
    """
    check_auth_token(token)
    with socket.create_connection(address, timeout=timeout) as sock:
        if token is not None:
            nonce = auth_nonce()
            send_message(sock, {"type": "auth-hello", "nonce": nonce})
            challenge = recv_message(sock)
            if challenge is None:
                raise FleetError(
                    f"peer at {address[0]}:{address[1]} closed the "
                    "connection during the auth handshake"
                )
            if challenge.get("type") != "challenge" or not verify_auth(
                token, nonce, challenge.get("proof"), "coordinator"
            ):
                raise FleetAuthError(
                    f"peer at {address[0]}:{address[1]} did not prove "
                    "knowledge of the fleet auth token — refusing to "
                    "send it the request (is --auth-token set on the "
                    "coordinator, and identical on both sides?)"
                )
            send_message(
                sock,
                {
                    "type": "auth",
                    "mac": auth_mac(
                        token, str(challenge.get("nonce", "")), "worker"
                    ),
                    "request": payload,
                },
            )
        else:
            send_message(sock, payload)
        reply = recv_message(sock)
        if (
            token is None
            and reply is not None
            and reply.get("type") == "challenge"
        ):
            raise FleetAuthError(
                f"coordinator at {address[0]}:{address[1]} requires "
                "a shared auth token (--auth-token or REPRO_FLEET_TOKEN)"
            )
    if reply is None:
        raise FleetError(
            f"coordinator at {address[0]}:{address[1]} closed the "
            "connection without replying"
        )
    if reply.get("type") == "error" and reply.get("denied") == "auth":
        raise FleetAuthError(
            f"coordinator at {address[0]}:{address[1]} rejected the "
            f"auth token: {reply.get('error')}"
        )
    return reply
