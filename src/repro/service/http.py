"""A minimal HTTP/1.1 front end for the coalescing solve engine.

Hand-rolled on :func:`asyncio.start_server` — no web framework, stdlib only
— because the service needs exactly three routes:

``POST /v1/solve``
    One Newton-solve request.  The JSON body names the system by its
    equations (parsed with :func:`repro.parse_polynomial`) and carries one
    initial series per variable::

        {
          "equations": ["x1^2 + x2^2 - 4", "x1*x2 - 1"],
          "degree": 4,
          "kind": "md", "precision": 2,
          "initial": [[2.0, 0.1], [0.5, 0.0]],
          "options": {"max_iterations": 8, "tolerance": 1e-24},
          "overrides": {"window_ms": 1.0}
        }

    Coefficients on the wire are a number (a plain double), a list of
    numbers (the limbs of a multiple double, largest first) or
    ``{"real": ..., "imag": ...}`` (complex, each side again a number or a
    limb list).  Concurrent posts of structurally identical systems land in
    the same micro-batch — the response's ``batch_fill`` says how many
    shared the flush.  ``429`` signals admission-control backpressure;
    a malformed request gets ``400`` with an ``error`` field.

``GET /v1/stats``
    The engine's live counters (:meth:`repro.service.SolveEngine.stats`).

``GET /healthz``
    Liveness.

The wire is strict JSON (RFC 8259) both ways: a request holding ``NaN``,
``Infinity`` or a number that overflows a double gets ``400``, and every
non-finite float of a response (a diverged limb, the residual of a failed
lane) goes out as ``null``, the rule of JavaScript's ``JSON.stringify``.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Optional

from ..circuits.parser import parse_polynomial
from ..errors import ReproError, ServiceError, ServiceOverloadedError
from ..homotopy.options import NewtonOptions
from ..homotopy.systems import PolynomialSystem
from ..md.complexmd import ComplexMD
from ..md.multidouble import MultiDouble
from ..series.series import PowerSeries
from .api import SolveRequest
from .engine import SolveEngine

__all__ = [
    "ServiceServer",
    "serve",
    "decode_coefficient",
    "encode_coefficient",
    "decode_initial",
    "encode_solution",
]

_MAX_BODY = 8 * 1024 * 1024


# ---------------------------------------------------------------------- #
# wire encoding
# ---------------------------------------------------------------------- #
def decode_coefficient(obj):
    """JSON wire value -> coefficient (float, MultiDouble or ComplexMD)."""
    if isinstance(obj, bool):
        raise ServiceError(f"not a coefficient: {obj!r}")
    if isinstance(obj, (int, float)):
        return float(obj)
    if isinstance(obj, list):
        if not obj or not all(isinstance(x, (int, float)) for x in obj):
            raise ServiceError(f"a limb list needs numeric limbs, got {obj!r}")
        return MultiDouble([float(x) for x in obj])
    if isinstance(obj, dict):
        unknown = set(obj) - {"real", "imag"}
        if unknown:
            raise ServiceError(
                f"a complex coefficient has keys 'real'/'imag', got {sorted(obj)}"
            )
        real = decode_coefficient(obj.get("real", 0.0))
        imag = decode_coefficient(obj.get("imag", 0.0))
        if isinstance(real, MultiDouble) or isinstance(imag, MultiDouble):
            precision = max(
                real.precision.limbs if isinstance(real, MultiDouble) else 1,
                imag.precision.limbs if isinstance(imag, MultiDouble) else 1,
            )
            return ComplexMD(real, imag, precision=precision)
        return complex(real, imag)
    raise ServiceError(f"cannot decode coefficient {obj!r}")


def encode_coefficient(value):
    """Coefficient -> JSON wire value (inverse of :func:`decode_coefficient`)."""
    if isinstance(value, MultiDouble):
        return list(value.limbs)
    if isinstance(value, ComplexMD):
        return {"real": list(value.real.limbs), "imag": list(value.imag.limbs)}
    if isinstance(value, complex):
        return {"real": value.real, "imag": value.imag}
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def decode_initial(obj) -> list[PowerSeries]:
    """JSON ``initial`` field -> one :class:`PowerSeries` per variable."""
    if not isinstance(obj, list) or not obj:
        raise ServiceError("'initial' must be a non-empty list of series")
    series = []
    for entry in obj:
        if not isinstance(entry, list) or not entry:
            raise ServiceError(
                "each initial series is a non-empty list of coefficients"
            )
        series.append(PowerSeries([decode_coefficient(c) for c in entry]))
    return series


def encode_solution(solution) -> Optional[list]:
    if solution is None:
        return None
    return [
        [encode_coefficient(c) for c in series.coefficients] for series in solution
    ]


def _is_count(value, minimum: int) -> bool:
    """``value`` is a JSON integer (not a boolean) of at least ``minimum``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def decode_solve_request(body: dict, mode: str) -> SolveRequest:
    """JSON body of ``POST /v1/solve`` -> a :class:`SolveRequest`."""
    if not isinstance(body, dict):
        raise ServiceError("the request body must be a JSON object")
    equations = body.get("equations")
    if (
        not isinstance(equations, list)
        or not equations
        or not all(isinstance(text, str) for text in equations)
    ):
        raise ServiceError("'equations' must be a non-empty list of strings")
    degree = body.get("degree", 0)
    if not _is_count(degree, 0):
        raise ServiceError(f"'degree' must be an integer >= 0, got {degree!r}")
    dimension = body.get("dimension")
    if dimension is not None and not _is_count(dimension, 1):
        raise ServiceError(f"'dimension' must be an integer >= 1, got {dimension!r}")
    kind = body.get("kind", "float")
    precision = body.get("precision", 2)
    polynomials = [
        parse_polynomial(
            text,
            dimension=dimension,
            degree=degree,
            kind=kind,
            precision=precision,
        )
        for text in equations
    ]
    system = PolynomialSystem(polynomials, mode=mode)
    initial = decode_initial(body.get("initial"))
    options_obj = body.get("options") or {}
    if not isinstance(options_obj, dict):
        raise ServiceError("'options' must be a JSON object")
    try:
        options = NewtonOptions(**options_obj)
    except TypeError as exc:
        raise ServiceError(f"bad Newton options: {exc}") from exc
    overrides = body.get("overrides")
    return SolveRequest(
        system=system, initial=initial, options=options, overrides=overrides
    )


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} is not JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows a double")
    return value


def _strict(payload):
    """``payload`` with every non-finite float replaced by ``None``."""
    if isinstance(payload, float):
        return payload if math.isfinite(payload) else None
    if isinstance(payload, dict):
        return {key: _strict(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_strict(value) for value in payload]
    return payload


def encode_response(response) -> dict:
    out = {
        "ok": response.ok,
        "converged": response.converged,
        "iterations": response.iterations,
        "residual": response.residual,
        "batch_fill": response.batch_fill,
        "coalesced": response.coalesced,
        "elapsed_ms": response.elapsed_ms,
        "solution": encode_solution(response.solution),
    }
    if response.error is not None:
        out["error"] = {
            "type": type(response.error).__name__,
            "message": str(response.error),
        }
    return out


# ---------------------------------------------------------------------- #
# the server
# ---------------------------------------------------------------------- #
class ServiceServer:
    """The asyncio HTTP server owning one :class:`SolveEngine`."""

    def __init__(self, engine: Optional[SolveEngine] = None, **overrides):
        self.engine = engine if engine is not None else SolveEngine(**overrides)
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> Optional[int]:
        """The bound port (useful with ``port=0`` for an ephemeral bind)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ServiceServer":
        await self.engine.start()
        config = self.engine.config
        self._server = await asyncio.start_server(
            self._handle, host=config.host, port=config.port
        )
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.engine.stop()

    async def __aenter__(self) -> "ServiceServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------ #
    async def _handle(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, path = parts[0].upper(), parts[1]
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        length = int(value.strip())
                    except ValueError:
                        length = -1
            if length < 0:
                await self._respond(writer, 400, {"error": "bad Content-Length"})
                return
            if length > _MAX_BODY:
                await self._respond(writer, 413, {"error": "body too large"})
                return
            body = await reader.readexactly(length) if length else b""
            status, payload = await self._route(method, path, body)
            await self._respond(writer, status, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, method: str, path: str, body: bytes):
        path = path.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True}
        if method == "GET" and path == "/v1/stats":
            return 200, self.engine.stats()
        if method == "POST" and path == "/v1/solve":
            try:
                data = json.loads(
                    body.decode("utf-8") or "{}",
                    parse_constant=_reject_constant,
                    parse_float=_finite_float,
                )
            except ValueError as exc:  # also bad UTF-8 and JSONDecodeError
                return 400, {"error": f"bad JSON: {exc}"}
            try:
                request = decode_solve_request(data, self.engine.config.mode)
            except (ServiceError, ReproError, ValueError, OverflowError) as exc:
                return 400, {"error": str(exc)}
            try:
                response = await self.engine.submit(request)
            except ServiceOverloadedError as exc:
                return 429, {"error": str(exc)}
            except ServiceError as exc:
                return 400, {"error": str(exc)}
            return 200, encode_response(response)
        return 404, {"error": f"no route {method} {path}"}

    async def _respond(self, writer, status: int, payload) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   413: "Payload Too Large", 429: "Too Many Requests",
                   500: "Internal Server Error"}
        try:
            body = json.dumps(_strict(payload), default=str, allow_nan=False).encode("utf-8")
        except (TypeError, ValueError):
            status, body = 500, b'{"error": "unserialisable response"}'
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


async def serve(**overrides) -> None:
    """Run the HTTP solve service until cancelled (the CLI's entry point)."""
    server = ServiceServer(**overrides)
    async with server:
        config = server.engine.config
        print(
            f"repro solve service on http://{config.host}:{server.port} "
            f"(window {config.window_ms} ms, batch {config.max_batch}, "
            f"mode {config.mode})"
        )
        await server.serve_forever()
