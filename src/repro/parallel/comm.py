"""Shared-memory world and rank channels for the shm campaign backend.

The ``backend="shm"`` engine (:class:`repro.parallel.fused.ShmEngine`) runs
worker ranks as spawned processes over a :class:`ShmWorld`:

- the world owns named :mod:`multiprocessing.shared_memory` arrays
  (:meth:`ShmWorld.alloc_array`) that every rank maps zero-copy — the
  campaign state lives there, so bulk data never crosses a pickle;
- each rank has one inbox queue; a :class:`ShmChannel` is one rank's end of
  the world: pickled control messages go out with :meth:`ShmChannel.send`
  and come in with :meth:`ShmChannel.recv` (from one rank) or
  :meth:`ShmChannel.recv_any` (from whichever rank replies first).

The host creates every segment and is the only process that unlinks them;
worker ranks attach by name without adopting unlink responsibility.
"""

from __future__ import annotations

import queue
import time
import weakref
from typing import Any

import numpy as np

__all__ = ["ShmChannel", "ShmWorld"]

_RECV_TIMEOUT_S = 60.0  # deadlock guard for blocking receives


def _unlink_segments(names: list[str]) -> None:
    """Best-effort unlink of named segments (finalizer — must not raise)."""
    from multiprocessing import shared_memory

    for name in list(names):
        try:
            seg = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            continue
        try:
            seg.close()
            seg.unlink()
        except (FileNotFoundError, OSError):
            pass
    names.clear()


def _attach_segment(name: str):
    """Attach an existing segment without adopting unlink responsibility.

    Python ≤3.11 registers *attached* segments with the resource tracker,
    which would then unlink them when the attaching process exits — pulling
    live segments out from under the other ranks.  Suppressing the
    registration during attach restores the create-side-owns-unlink
    discipline (what 3.13 spells ``track=False``).
    """
    from multiprocessing import resource_tracker, shared_memory

    orig_register = resource_tracker.register

    def _no_shm_register(name_, rtype):
        if rtype != "shared_memory":
            orig_register(name_, rtype)

    resource_tracker.register = _no_shm_register
    try:
        seg = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register
    return seg


class _ShmWorldHandle:
    """Picklable-through-``Process`` descriptor of a :class:`ShmWorld`.

    Carries the inbox queues (inherited through process spawn) plus the
    *names* of every shared array; child ranks attach by name.
    """

    def __init__(self, inboxes, arrays):
        self.inboxes = inboxes
        self.arrays = arrays  # name → (segment name, shape, dtype str)


class ShmWorld:
    """Host-owned lifecycle of a process-based shared-memory world.

    Owns every segment allocated with :meth:`alloc_array`.  :meth:`close`
    terminates still-running child ranks and unlinks all segments; a
    ``weakref`` finalizer does the same at interpreter exit, so a crashed
    campaign cannot leak ``/dev/shm`` entries (asserted in
    ``tests/test_shm_lifecycle.py``).
    """

    def __init__(self, size: int):
        import multiprocessing as mp

        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.ctx = mp.get_context("spawn")
        self.inboxes = [self.ctx.Queue() for _ in range(size)]
        self._segments: list = []
        self._segment_names: list[str] = []
        self._arrays: dict[str, tuple[str, tuple, str]] = {}
        self.procs: list = []
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _unlink_segments, self._segment_names
        )

    # ------------------------------------------------------------- arrays

    def alloc_array(self, name: str, shape, dtype) -> np.ndarray:
        """Create a named shared array; returns the host's zero-copy view.

        Child ranks map the same bytes via :meth:`ShmChannel.shared_array`.
        """
        from multiprocessing import shared_memory

        if name in self._arrays:
            raise ValueError(f"shared array {name!r} already allocated")
        shape = tuple(int(s) for s in shape)
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dt.itemsize)
        seg = shared_memory.SharedMemory(create=True, size=nbytes)
        self._segments.append(seg)
        self._segment_names.append(seg.name)
        self._arrays[name] = (seg.name, shape, dt.str)
        return np.ndarray(shape, dtype=dt, buffer=seg.buf)

    @property
    def segment_names(self) -> list[str]:
        return list(self._segment_names)

    def handle(self) -> _ShmWorldHandle:
        return _ShmWorldHandle(self.inboxes, dict(self._arrays))

    # ---------------------------------------------------------- lifecycle

    def spawn(self, target, args: tuple):
        """Start one daemon rank process (tracked in ``procs``)."""
        p = self.ctx.Process(target=target, args=args, daemon=True)
        p.start()
        self.procs.append(p)
        return p

    def close(self) -> None:
        """Terminate child ranks, then close + unlink every segment."""
        if self._closed:
            return
        self._closed = True
        for p in self.procs:
            if p.is_alive():
                p.terminate()
            p.join(timeout=5.0)
        for q in self.inboxes:
            try:
                q.close()
            except Exception:
                pass
        for seg in self._segments:
            try:
                seg.close()
            except Exception:
                pass
            try:
                seg.unlink()
            except (FileNotFoundError, OSError):
                pass
        self._segment_names.clear()
        self._finalizer.detach()


class ShmChannel:
    """One rank's end of a :class:`ShmWorld`.

    Messages are pickled objects on the destination rank's inbox queue,
    tagged with the sender's rank.  A receive that waits for one rank
    stashes whatever else arrives, so no message is lost to a selective
    receive.
    """

    def __init__(self, *, world: _ShmWorldHandle, rank: int):
        self._world = world
        self.rank = rank
        self._attached: dict[str, Any] = {}
        self._stash: list[tuple[int, Any]] = []

    def shared_array(self, name: str) -> np.ndarray:
        """Map a named world array (see :meth:`ShmWorld.alloc_array`)."""
        try:
            seg_name, shape, dtype = self._world.arrays[name]
        except KeyError:
            raise KeyError(
                f"unknown shared array {name!r}; "
                f"allocated: {sorted(self._world.arrays)}"
            ) from None
        seg = self._attached.get(seg_name)
        if seg is None:
            seg = _attach_segment(seg_name)
            self._attached[seg_name] = seg
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)

    def close(self) -> None:
        """Detach this rank's segment mappings (never unlinks)."""
        for seg in self._attached.values():
            try:
                seg.close()
            except Exception:
                pass
        self._attached.clear()

    def send(self, obj, dest: int) -> None:
        self._world.inboxes[dest].put((self.rank, obj))

    def recv(self, source: int) -> Any:
        """Block for the next message from rank ``source``."""
        return self._pump(lambda src: src == source)[1]

    def recv_any(self, timeout: float | None = None) -> tuple[int, Any]:
        """Receive from whichever rank sends next → ``(source, obj)``.

        ``timeout`` overrides the default deadlock guard so drain loops can
        poll for worker liveness between waits; expiry raises
        :class:`TimeoutError`.
        """
        return self._pump(lambda src: True, timeout=timeout)

    def _pump(self, match, timeout: float | None = None) -> tuple[int, Any]:
        """Return the first stashed/arriving message whose source matches."""
        for i, (src, _) in enumerate(self._stash):
            if match(src):
                return self._stash.pop(i)
        deadline = time.monotonic() + (
            _RECV_TIMEOUT_S if timeout is None else timeout
        )
        inbox = self._world.inboxes[self.rank]
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"rank {self.rank}: timed out waiting for a message"
                )
            try:
                msg = inbox.get(timeout=remaining)
            except queue.Empty:
                continue  # deadline check above raises the TimeoutError
            if match(msg[0]):
                return msg
            self._stash.append(msg)
