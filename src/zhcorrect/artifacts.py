"""Writing output files so that no reader ever sees one half-written."""

from __future__ import annotations

import contextlib
import errno
import os
import stat

from .errors import UsageError


def write_artifact(path: str, text: str) -> None:
    """Write text as UTF-8 to path by way of a temporary file in the same
    directory and os.replace, so path holds either its old content or all of
    text. A write that fails (missing directory, no permission, full disk)
    is a UsageError and leaves no temporary file behind.

    A symlink is followed: the file it names is replaced and the link kept.
    A replaced file keeps its permission bits, and one that may not be
    written is not replaced. A target that exists but is not a regular file
    (/dev/null, a pipe, a terminal) is written in place.
    """
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return
        target = os.path.realpath(path)
        tmp = f"{target}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, target)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
