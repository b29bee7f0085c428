"""Structured logging: one event + fields per line, JSON or key=value.

Thin sugar over :mod:`logging`: everything lives under the ``"repro"``
logger namespace, and :func:`log_event` attaches machine-readable fields
to each record (``record.fields``).  Nothing is emitted until
:func:`configure_logging` installs a handler — so the test suite and
library users stay quiet by default, and ``repro serve --log-json``
turns every access line, trace tree and retrain outcome into one JSON
object per line for a log pipeline to ingest.
"""

from __future__ import annotations

import contextlib
import json
import logging
import sys
import threading
from typing import IO, Iterator

__all__ = [
    "JsonFormatter",
    "KeyValueFormatter",
    "configure_logging",
    "reset_logging",
    "get_logger",
    "log_event",
    "bind_request_id",
    "current_request_id",
]

_ROOT_NAME = "repro"
_HANDLER_FLAG = "_repro_observability_handler"

_REQUEST_CONTEXT = threading.local()


@contextlib.contextmanager
def bind_request_id(request_id: str | None) -> Iterator[None]:
    """Attach ``request_id`` to every :func:`log_event` on this thread.

    The HTTP handler binds the request's ``X-Request-Id`` for the
    duration of dispatch, so admission waits and kernel spans logged
    anywhere down-stack carry the id without plumbing it through each
    call signature.  Nestable; ``None`` is a no-op binding (inherits
    whatever is already bound).
    """
    if request_id is None:
        yield
        return
    previous = getattr(_REQUEST_CONTEXT, "request_id", None)
    _REQUEST_CONTEXT.request_id = str(request_id)
    try:
        yield
    finally:
        _REQUEST_CONTEXT.request_id = previous


def current_request_id() -> str | None:
    """The request id bound on this thread (``None`` outside a request)."""
    return getattr(_REQUEST_CONTEXT, "request_id", None)


class JsonFormatter(logging.Formatter):
    """One JSON object per line: ts, level, logger, event, then fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if fields:
            for key, value in fields.items():
                payload.setdefault(key, value)
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


class KeyValueFormatter(logging.Formatter):
    """Human-oriented fallback: ``level logger event k=v k=v``."""

    def format(self, record: logging.LogRecord) -> str:
        parts = [record.levelname.lower(), record.name, record.getMessage()]
        fields = getattr(record, "fields", None)
        if fields:
            parts.extend(
                f"{key}={json.dumps(value, default=str, sort_keys=True)}"
                for key, value in fields.items()
            )
        return " ".join(parts)


def configure_logging(
    json_mode: bool = False,
    level: int = logging.INFO,
    stream: IO[str] | None = None,
) -> logging.Logger:
    """Install a stream handler on the ``repro`` logger namespace.

    Replaces any handler a previous call installed (idempotent), leaves
    foreign handlers alone, and stops propagation so records are not
    double-printed by a configured root logger.
    """
    logger = logging.getLogger(_ROOT_NAME)
    reset_logging()
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonFormatter() if json_mode else KeyValueFormatter())
    setattr(handler, _HANDLER_FLAG, True)
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    return logger


def reset_logging() -> None:
    """Remove handlers previously installed by :func:`configure_logging`."""
    logger = logging.getLogger(_ROOT_NAME)
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_FLAG, False):
            logger.removeHandler(handler)
            handler.close()


def get_logger(name: str = "") -> logging.Logger:
    """Logger under the ``repro`` namespace (``get_logger("http.access")``)."""
    if not name:
        return logging.getLogger(_ROOT_NAME)
    if name == _ROOT_NAME or name.startswith(_ROOT_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def log_event(
    logger: logging.Logger | str,
    event: str,
    level: int = logging.INFO,
    **fields,
) -> None:
    """Log ``event`` with structured ``fields`` attached to the record.

    A request id bound via :func:`bind_request_id` is injected as a
    ``request_id`` field unless the caller already supplied one.
    """
    if isinstance(logger, str):
        logger = get_logger(logger)
    if logger.isEnabledFor(level):
        request_id = current_request_id()
        if request_id is not None and "request_id" not in fields:
            fields["request_id"] = request_id
        logger.log(level, event, extra={"fields": fields})
