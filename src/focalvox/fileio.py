"""Atomic file writes: temp file in the target directory, then rename."""

import os
import secrets

from .errors import IoError


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to a new file beside ``path``, then rename it over
    ``path``.  The file is created with mode 0666 less the umask, as
    ``open`` would create it (``tempfile.mkstemp`` would make it 0600)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        tmp = os.path.join(directory, f".tmp-{secrets.token_hex(16)}")
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
