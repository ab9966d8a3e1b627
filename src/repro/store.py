"""Durable JSON-lines stores: the one writer behind every file the package keeps.

The study checkpoints, the results warehouse and the persistent normaliser
cache are each a :class:`JsonlStore` with its own ``_encode`` / ``_decode``
hooks; :func:`atomic_write` is the whole-file write they share with
:meth:`repro.study.ResultSet.save`.  Standard library only, so
:mod:`repro.solvers` and :mod:`repro.study` can both sit on top of it.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings
from collections.abc import Iterable
from pathlib import Path

__all__ = ["JsonlStore", "atomic_write", "fsync_directory"]

#: Bytes the append path's tail probe reads back at a time.
_TAIL_BLOCK = 4096


def fsync_directory(path: Path) -> None:
    """Flush a directory entry to disk (best effort).

    After an ``os.replace`` (or a first append creating a file), the *file*
    contents are durable once fsynced, but the directory entry pointing at
    them is not until the directory itself is synced -- a crash could roll
    the rename back.  Platforms without directory fds (or filesystems that
    refuse to fsync them) are silently tolerated; durability degrades to
    what the platform offers.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Replace ``path`` with the concatenated ``chunks``, atomically and durably.

    The text goes to a temp file in the same directory, which is flushed,
    fsynced and moved into place with :func:`os.replace`, followed by a
    directory fsync: a crash at any point leaves either the previous file or
    the complete new one -- never a truncated document, and never a rename
    the filesystem quietly rolls back.  Parent directories are created as
    needed.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        handle.writelines(chunks)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    fsync_directory(path.parent)


class JsonlStore:
    """Crash-safe, append-only JSON-lines store.

    A versioned header line followed by one ``_encode(record)`` value per
    line.  Whole-file writes (:meth:`create`, :meth:`rewrite`) go through
    :func:`atomic_write`, and every :meth:`extend` is one fsynced write, so
    the store is readable after a crash, SIGKILL or Ctrl-C at any point:

    * a fully appended record is durable and complete;
    * a partially appended trailing record (crash mid-write) is dropped with
      a warning by every read, which never writes: the file is left as it
      is, since the "torn" line may be a record another writer is still
      appending.  The next append compacts the file (atomically) before it
      writes, so it never concatenates onto the torn line; a complete
      trailing record that lost only its newline is kept, and terminated by
      that compaction;
    * anything else that fails to parse (a corrupt header, junk mid-file)
      raises the store's error class naming the path and line, because
      silently dropping finished work -- or treating foreign files as this
      store's -- would be worse than stopping.

    Subclasses pin the record type via ``_encode`` (record to JSON value) /
    ``_decode`` (JSON value to record, raising ``KeyError`` / ``TypeError``
    / ``ValueError`` on a malformed one), the on-disk identity via
    ``_format`` / ``_version`` / ``_error``, and the human noun used in
    messages via ``_kind`` / ``_torn_tail_hint``.

    After its first append a store holds an ``O_APPEND`` descriptor on the
    file (see :meth:`extend`); :meth:`close` releases it, and so do
    :meth:`rewrite`, garbage collection and pickling (a copy carries none).
    """

    #: On-disk format marker (subclasses must override).
    _format = ""
    #: On-disk format version (bump to invalidate existing files).
    _version = 0
    #: Error raised on corrupt / foreign / version-mismatched files.
    _error: type[ValueError] = ValueError
    #: Human name used in error and warning messages.
    _kind = "record store"
    #: Appended to the torn-tail warning (what dropping the record means).
    _torn_tail_hint = "the interrupted append must be retried"

    def __init__(self, path) -> None:
        self.path = Path(path).expanduser()
        # The held append descriptor and the (st_dev, st_ino, st_size) the
        # file at ``path`` must still have for the next append to reuse it.
        self._fd: int | None = None
        self._ident: tuple[int, int, int] | None = None

    def close(self) -> None:
        """Release the held append descriptor (the next append reopens)."""
        fd, self._fd, self._ident = self._fd, None, None
        if fd is not None:
            os.close(fd)

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:  # half-built object, or interpreter shutdown
            pass

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_fd": None, "_ident": None}

    def _encode(self, record) -> object:
        raise NotImplementedError

    def _decode(self, payload: object):
        raise NotImplementedError

    def _line(self, record) -> str:
        return json.dumps(self._encode(record)) + "\n"

    def exists(self) -> bool:
        """Whether the store's file is already on disk."""
        return self.path.exists()

    def _needs_header(self) -> bool:
        """True for a missing file and for an empty (e.g. ``touch``-ed) one."""
        try:
            return self.path.stat().st_size == 0
        except FileNotFoundError:
            return True

    def create(self) -> None:
        """Write the header-only store if the file is missing or empty (atomic)."""
        if self._needs_header():
            self.rewrite([])

    def rewrite(self, records: Iterable) -> None:
        """Atomically + durably replace the file with header + the records."""
        self.close()
        header = json.dumps({"format": self._format, "version": self._version})
        atomic_write(self.path, itertools.chain([header + "\n"], map(self._line, records)))

    def extend(self, records: Iterable) -> None:
        """Append records as one write and one file fsync.

        The first append after the store is (re)opened takes the slow path:
        write the header if the file is missing or empty, compact an
        unterminated tail, open an ``O_APPEND`` descriptor, append, fsync
        the file, then fsync the directory once so the file's entry is
        durable too.  The descriptor is then held, and each later append is
        one ``stat`` of ``path``, one write and one file fsync.  When the
        ``stat`` no longer matches the descriptor's device, inode and the
        size this store left -- the file was rewritten, deleted or appended
        to by someone else -- the descriptor is dropped and the slow path
        runs again, so an append always lands in the file at ``path``.

        An append never lands on an unterminated or torn line: a crash
        between a record's bytes and its newline leaves a complete last
        record that the next one would be concatenated onto, and the merged
        line would then read as a torn tail -- two finished records dropped.
        Such a file is first rewritten from what :meth:`load` reads of it
        (complete last record kept, torn one dropped); this is the one place
        a store repairs its file.
        """
        data = "".join(map(self._line, records)).encode("utf-8")
        if not data:
            return
        if self._fd is not None:
            try:
                st = os.stat(self.path)
                current = (st.st_dev, st.st_ino, st.st_size)
            except FileNotFoundError:
                current = None
            if current != self._ident:
                self.close()
        reopened = self._fd is None
        if reopened:
            self._open_for_append()
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(self._fd, view):]
            os.fsync(self._fd)
        except BaseException:
            # A failed write may leave a torn line: the slow path's tail
            # probe must look at the file before anything else is appended.
            self.close()
            raise
        dev, ino, size = self._ident
        self._ident = (dev, ino, size + len(data))
        if reopened:
            fsync_directory(self.path.parent)

    def _open_for_append(self) -> None:
        """Header check, tail probe, then hold an ``O_APPEND`` descriptor."""
        if self._needs_header():
            self.rewrite([])
        elif not self._tail_is_clean():
            self.rewrite(self.load())
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        st = os.fstat(fd)
        self._fd, self._ident = fd, (st.st_dev, st.st_ino, st.st_size)

    def _tail_is_clean(self) -> bool:
        """Whether the file ends in a newline after a line that parses as JSON.

        Reads back from the end only as far as the last line's start, so the
        probe costs one block for any record shorter than that.
        """
        with open(self.path, "rb") as handle:
            end = handle.seek(0, os.SEEK_END)
            start, tail = end, b""
            while True:
                start = max(0, start - _TAIL_BLOCK)
                handle.seek(start)
                tail = handle.read(end - start)
                body = tail.rstrip()
                cut = body.rfind(b"\n")
                if cut >= 0 or start == 0:
                    break
        if not tail.endswith(b"\n"):
            return False
        try:
            json.loads(body[cut + 1:])
        except ValueError:
            return False
        return True

    def append(self, record) -> None:
        """Append one record: one write and one file fsync (see :meth:`extend`)."""
        self.extend([record])

    def load(self) -> list:
        """Read every complete record (see the class docstring for errors)."""
        text = self.path.read_text(encoding="utf-8")
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            return []
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise self._error(
                f"corrupt {self._kind} {self.path}: unreadable header ({exc})"
            ) from exc
        if not isinstance(header, dict) or header.get("format") != self._format:
            raise self._error(
                f"{self.path} is not a {self._kind} (expected a "
                f"{self._format!r} header)"
            )
        if header.get("version") != self._version:
            raise self._error(
                f"unsupported {self._kind} version {header.get('version')!r} in "
                f"{self.path} (this build reads version {self._version})"
            )
        records = []
        for number, line in enumerate(lines[1:], start=2):
            try:
                record = self._decode(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                # Only a JSON decode failure on the *last* line can be a
                # crash-truncated append; a well-formed JSON line that is
                # not a valid record (hand edit, writer bug) is corruption
                # wherever it sits -- letting the next append's compaction
                # delete it would silently destroy data.
                if number == len(lines) and isinstance(exc, json.JSONDecodeError):
                    warnings.warn(
                        f"{self._kind} {self.path}: dropping partially "
                        "written trailing record (interrupted mid-append); "
                        f"{self._torn_tail_hint}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    break
                raise self._error(
                    f"corrupt {self._kind} {self.path}: unreadable record "
                    f"on line {number} ({exc})"
                ) from exc
            records.append(record)
        return records
