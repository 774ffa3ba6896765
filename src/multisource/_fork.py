"""An ordered fork-map: `forked` deals item i to process i % k, on up to one
process per usable CPU, and has each forked child send its results back as
length-prefixed frames. An item whose frame does not arrive, as its child
could not be forked, failed or died, is computed in process, so results
and errors are those of one process doing the items in order, and no child
outlives its call.
"""

from __future__ import annotations

import io
import os
from typing import BinaryIO, Callable, Iterator, Sequence

__all__ = ["forked"]

_SIGKILL = 9  # the same on every POSIX system; importing signal would slow every CLI start


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def forked(work: Callable, items: Sequence,
           pack: Callable[[object], bytes], unpack: Callable[[bytes], object]) -> Iterator:
    """`work(item)` for each item, in order, as a generator, computed on k
    processes, one per usable CPU but no more than one per item, and only
    this one without `os.fork`.

    Item i goes to process i % k. When k is 1, that process is this one;
    otherwise every process is a child forked on the first `next`. A
    child sends `pack(work(item))` for each of its items as one frame, the
    bytes after their length as 8 bytes, and ends at its first error. An
    item whose frame does not arrive whole, as its child could not be
    forked, failed or died, is computed here with `work`, and so is every
    later item of that child. So the results, and the first error with its
    type and message, are those of `work` called on each item in turn.

    Read the generator to its end or close it: either closes the pipes, then
    kills and reaps every child.
    """
    items = list(items)
    k = max(1, min(usable_cpus(), len(items))) if hasattr(os, "fork") else 1
    # (pid, read end of its pipe) of each process; this one, as the only
    # one, reads as a child that sent nothing
    children: list[tuple[int | None, BinaryIO]] = [(None, io.BytesIO())] if k == 1 else []
    try:
        while len(children) < k:
            children.append(_start_child(work, items[len(children)::k], pack))
        for i, item in enumerate(items):
            pipe = children[i % k][1]
            frame = None if pipe.closed else _receive(pipe)
            if frame is None:
                pipe.close()  # compute this item and the child's later ones here
                result = work(item)
            else:
                result = unpack(frame)
                del frame  # no frame outlives its unpack
            yield result
    finally:
        for _, pipe in children:
            pipe.close()
        for pid, _ in children:
            if pid is not None:
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)


def _start_child(work: Callable, items: list, pack: Callable) -> tuple[int | None, BinaryIO]:
    """(pid, read end of its pipe) of a forked child that sends the frame of
    each item and ends with `os._exit`: it never returns, and never flushes
    what this process had buffered when it forked. When no pipe or process
    can be spared, (None, an empty stream), which the caller reads as a
    child that ended before it sent anything."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None, io.BytesIO()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None, io.BytesIO()
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                for item in items:
                    frame = pack(work(item))
                    out.write(len(frame).to_bytes(8, "little"))
                    out.write(frame)
                    out.flush()  # the parent may be waiting for the last bytes
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _receive(pipe: BinaryIO) -> bytes | None:
    """The next frame a child sent, or None when it ended before the whole
    frame."""
    header = pipe.read(8)
    if len(header) < 8:
        return None
    size = int.from_bytes(header, "little")
    frame = pipe.read(size)
    return frame if len(frame) == size else None
