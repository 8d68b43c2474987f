"""The asyncio endpoint layer over :class:`CampaignService`.

Routes::

    GET    /healthz                   liveness
    POST   /campaigns                 spec JSON -> 201 {"id": ...}
    GET    /campaigns/{id}            status + scheduler stats + telemetry
    GET    /campaigns/{id}/events     event-log page (polling fallback)
    DELETE /campaigns/{id}            cooperative cancel, waits for drain
    WS     /campaigns/{id}/stream     event replay + live tail

The stream endpoint replays the campaign's append-only event log from
``?cursor=N`` (default 0) and then tails it: one text frame per event,
each frame the canonical :func:`repro.service.codec.encode` bytes.
Because the log is replayed rather than subscribed to, a client that
disconnects mid-campaign reconnects with the next cursor and receives
exactly the frames it missed — lossless, and byte-identical to an
uninterrupted stream.

The service core is synchronous (threads drive the runner); this layer
bridges with ``run_in_executor`` around the record's condition-variable
waits, using short poll timeouts so a dying connection is noticed
within a beat rather than at campaign end.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from repro.model.errors import ModelError
from repro.service.app import (
    CampaignService,
    ServiceClosedError,
    UnknownCampaignError,
)
from repro.service.codec import encode
from repro.service.spec import SpecError
from repro.service.wire import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    WireError,
    http_response,
    json_response,
    read_request,
    ws_encode_frame,
    ws_handshake_response,
)

# What CampaignSpec.load_program raises for a bad model reference (HTTP
# 400): OSError for a missing or unreadable file, KeyError for an unknown
# ``bench:`` name, ValueError for an unreadable value in a model (an
# unknown dtype spelling, bytes that are not UTF-8), and ModelError for a
# malformed file (ParseError) or a model that fails validation,
# scheduling or type inference.
_BAD_MODEL = (OSError, KeyError, ValueError, ModelError)

# How long one executor-side wait_events call blocks before the asyncio
# side gets control back (and can notice a dead socket / cancellation).
STREAM_POLL_SECONDS = 0.25


class CampaignServer:
    """One listening socket in front of one :class:`CampaignService`."""

    def __init__(
        self,
        service: Optional[CampaignService] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cancel_timeout: float = 60.0,
    ) -> None:
        self.service = service if service is not None else CampaignService()
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.cancel_timeout = cancel_timeout
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.get_running_loop().run_in_executor(
            None, self.service.close
        )

    # -- connection handling ----------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            request = await read_request(reader)
            if request is None:
                return
            await self._dispatch(request, reader, writer)
        except WireError as exc:
            with _swallow_io():
                writer.write(
                    json_response(400, {"error": str(exc)})
                )
                await writer.drain()
        except (
            ConnectionError, asyncio.IncompleteReadError, TimeoutError
        ):
            pass  # client went away; the campaign (if any) keeps running
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            with _swallow_io():
                writer.write(
                    json_response(500, {"error": f"{type(exc).__name__}: {exc}"})
                )
                await writer.drain()
        finally:
            with _swallow_io():
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request, reader, writer) -> None:
        loop = asyncio.get_running_loop()
        parts = [part for part in request.path.split("/") if part]

        if request.path == "/healthz" and request.method == "GET":
            writer.write(json_response(200, {"ok": True}))
            await writer.drain()
            return

        if parts[:1] != ["campaigns"]:
            writer.write(json_response(404, {"error": "no such route"}))
            await writer.drain()
            return

        if len(parts) == 1:
            if request.method != "POST":
                writer.write(
                    json_response(405, {"error": "POST /campaigns"})
                )
                await writer.drain()
                return
            document = request.json()
            try:
                record = await loop.run_in_executor(
                    None, self.service.submit, document
                )
            except SpecError as exc:
                writer.write(json_response(400, {"error": str(exc)}))
                await writer.drain()
                return
            except _BAD_MODEL as exc:
                writer.write(
                    json_response(
                        400, {"error": f"{type(exc).__name__}: {exc}"}
                    )
                )
                await writer.drain()
                return
            except ServiceClosedError as exc:
                writer.write(json_response(503, {"error": str(exc)}))
                await writer.drain()
                return
            writer.write(
                json_response(
                    201,
                    {
                        "id": record.id,
                        "state": record.state,
                        "tenant": record.spec.tenant,
                    },
                )
            )
            await writer.drain()
            return

        campaign_id = parts[1]
        try:
            if len(parts) == 2 and request.method == "GET":
                status = await loop.run_in_executor(
                    None, self.service.status, campaign_id
                )
                writer.write(json_response(200, status))
                await writer.drain()
                return
            if len(parts) == 2 and request.method == "DELETE":
                status = await loop.run_in_executor(
                    None,
                    lambda: self.service.cancel(
                        campaign_id, timeout=self.cancel_timeout
                    ),
                )
                writer.write(json_response(200, status))
                await writer.drain()
                return
            if len(parts) == 3 and parts[2] == "events":
                record = self.service.get(campaign_id)
                cursor = _parse_cursor(request.query)
                events, terminal = record.wait_events(cursor, timeout=0)
                writer.write(
                    json_response(
                        200,
                        {
                            "cursor": cursor,
                            "next_cursor": cursor + len(events),
                            "events": events,
                            "terminal": terminal,
                            "state": record.state,
                        },
                    )
                )
                await writer.drain()
                return
            if len(parts) == 3 and parts[2] == "stream":
                record = self.service.get(campaign_id)
                if not request.wants_websocket:
                    writer.write(
                        json_response(
                            426,
                            {"error": "this endpoint speaks WebSocket"},
                        )
                    )
                    await writer.drain()
                    return
                key = request.headers.get("sec-websocket-key")
                if not key:
                    raise WireError("missing Sec-WebSocket-Key")
                writer.write(ws_handshake_response(key))
                await writer.drain()
                await self._stream(
                    record, _parse_cursor(request.query), reader, writer
                )
                return
        except UnknownCampaignError:
            writer.write(
                json_response(
                    404, {"error": f"unknown campaign {campaign_id!r}"}
                )
            )
            await writer.drain()
            return

        writer.write(json_response(404, {"error": "no such route"}))
        await writer.drain()

    async def _stream(self, record, cursor, reader, writer) -> None:
        """Replay the event log from ``cursor``, then tail it live.

        A parallel reader task watches for the client's close frame (or
        EOF) so a disconnect mid-campaign tears the stream down promptly
        while the campaign itself keeps running.
        """
        loop = asyncio.get_running_loop()
        closed = asyncio.Event()
        reader_task = asyncio.ensure_future(
            self._watch_client(reader, writer, closed)
        )
        try:
            while not closed.is_set():
                events, terminal = await loop.run_in_executor(
                    None,
                    record.wait_events,
                    cursor,
                    STREAM_POLL_SECONDS,
                )
                for event in events:
                    writer.write(
                        ws_encode_frame(encode(event).encode("utf-8"))
                    )
                cursor += len(events)
                await writer.drain()
                if terminal and cursor >= len(record.events):
                    break
            writer.write(
                ws_encode_frame(b"\x03\xe8campaign complete", opcode=OP_CLOSE)
            )
            await writer.drain()
        finally:
            reader_task.cancel()
            with _swallow_io():
                await reader_task

    async def _watch_client(self, reader, writer, closed) -> None:
        """Consume client frames; flag ``closed`` on close/EOF."""
        from repro.service.wire import ws_read_frame

        try:
            while True:
                opcode, payload = await ws_read_frame(reader)
                if opcode == OP_CLOSE:
                    break
                if opcode == OP_PING:
                    writer.write(
                        ws_encode_frame(payload, opcode=OP_PONG)
                    )
                    await writer.drain()
        except (
            asyncio.IncompleteReadError, ConnectionError, WireError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            closed.set()


def _parse_cursor(query: "dict[str, str]") -> int:
    raw = query.get("cursor", "0")
    try:
        cursor = int(raw)
    except ValueError:
        raise WireError(f"cursor must be an integer, not {raw!r}")
    if cursor < 0:
        raise WireError("cursor must be non-negative")
    return cursor


class _swallow_io:
    """``with _swallow_io():`` — ignore connection teardown noise."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return exc_type is not None and issubclass(
            exc_type,
            (ConnectionError, asyncio.IncompleteReadError,
             asyncio.CancelledError, TimeoutError, OSError),
        )


def serve_api(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    tenant_quota: int = 1,
    max_concurrent: int = 2,
) -> None:
    """Blocking entry point behind ``repro serve-api``.

    Prints one ``listening on host:port`` line (flushed, so wrappers can
    scrape the auto-assigned port) and serves until interrupted.
    """
    service = CampaignService(
        tenant_quota=tenant_quota, max_concurrent=max_concurrent
    )
    server = CampaignServer(service, host=host, port=port)

    async def _main() -> None:
        await server.start()
        print(f"listening on {server.host}:{server.port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
