"""A gate that stub detectors can wait on from a service worker process.

The detection service runs detectors in worker processes, so a
``threading.Event`` held by a test cannot hold a detector back.  A
:class:`ProcessGate` can: it pickles as its file path, and it is closed
exactly while its owner holds an exclusive ``flock`` on that file.
"""

from __future__ import annotations

import fcntl
import os


class ProcessGate:
    """A cross-process ``threading.Event``: :meth:`clear` closes it,
    :meth:`set` opens it, and :meth:`wait` blocks while it is closed.

    :meth:`wait` takes a shared lock on the file, which the kernel grants
    the moment the owner's exclusive lock goes, so waiters wake without
    sleeping or polling.  The gate starts open; the file exists only while
    it is closed.
    """

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        self._held: int | None = None

    def __getstate__(self) -> dict[str, object]:
        return {"path": self.path, "_held": None}

    def clear(self) -> None:
        if self._held is None:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o600)
            fcntl.flock(fd, fcntl.LOCK_EX)
            self._held = fd

    def set(self) -> None:
        if self._held is not None:
            fd, self._held = self._held, None
            os.unlink(self.path)  # later waiters find no file: open
            os.close(fd)  # releases the lock: current waiters wake

    def wait(self) -> None:
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_SH)
        finally:
            os.close(fd)
