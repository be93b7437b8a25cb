"""Timing of program steps, scaled by how fast the box runs at that moment.

The reference box is a virtual machine on a shared host.  Its speed
drops by up to a half for stretches of a second to minutes, and
``cpu_s`` rises with ``wall_s`` when it does, so the process is not
waiting but simply running slower.  Medians over a 30 s run do not
average these stretches out: ten runs of the same code spread by a
third.

The benchmark therefore interleaves a fixed reference kernel, which does
not use dmres, with the program.  While a step runs, an interval timer
interrupts it every ``INTERVAL_S`` seconds; the signal handler runs one
short block of the kernel, and the step is cut into segments between
blocks.  Each segment is scaled to the box's nominal speed by the blocks
on either side of it:

    corrected = measured * NOMINAL_S / mean chunk time of the two blocks

and the time spent in blocks is left out of the step.  Python runs the
handler between bytecodes, so the program is interrupted wherever it
is, without being changed or patched; a long call into numpy delays the
block until it returns.  On the reference box, pairing each 0.2 s pass
of ``shot-draws`` with the block after it narrowed the spread of 30 s
window medians from 0.31 to 0.01.

The kernel mixes the kinds of work dmres does: small complex QR and
eigenvalue calls as in Haar sampling and validation, dense complex
algebra in a 64-dimensional space as in plan building, Born
probabilities with a multinomial draw as in shot simulation, and plain
interpreter work as in the CLI and CSV code.  It never changes with the
program, so a faster program reads faster after the scaling, and work
moved onto more threads still shows in ``cpu_s``.  The raw times are
kept in the run record.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time

import numpy as np

# Mean time of one kernel chunk on the reference box at its usual speed
# (2-core x86_64 VM, Python 3.11, numpy 2.4, one BLAS thread).  A
# constant, so that corrected figures stay in seconds.
NOMINAL_S = 0.007
CHUNK = 8         # kernel iterations per timed chunk, about 7 ms
BLOCK_CHUNKS = 4  # chunks per block, about 30 ms
INTERVAL_S = 0.25  # program time between blocks while a step runs


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _kernel(rng: np.random.Generator, h: np.ndarray) -> float:
    total = 0.0
    for d in (3, 4, 9):
        z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        q = q * (diag / np.abs(diag))
        psi = q[:, :1]
        rho = psi @ psi.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        total += float(np.linalg.eigvalsh(rho).min()) + bool(np.allclose(rho, rho.conj().T))
    m = h @ h
    m = np.einsum("ij,kj->ik", m, h.conj())
    p = np.abs(m[:, 0]) ** 2
    counts = rng.multinomial(1000, p / p.sum())
    total += float(counts @ p)
    acc = {}
    for i in range(300):
        acc[i % 7, i] = float(i) * 0.5
    total += len(",".join(f"{v:.6g}" for v in list(acc.values())[:100]))
    return total


class SpeedLog:
    """Times program steps, cut into segments by reference blocks."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._h, _ = np.linalg.qr(a)
        self._rng = rng
        self.blocks: list[tuple[float, float]] = []  # (start, mean chunk seconds)
        self.block_wall_s = 0.0  # wall time spent in blocks so far
        for _ in range(8):  # warm-up: the first chunks after import run slow
            self._block()
        self.blocks.clear()
        self._last = self._block()
        self._step: dict | None = None
        self._busy = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def clock(self) -> float:
        """Wall clock that stands still while a block runs, for span timing."""
        return time.perf_counter() - self.block_wall_s

    def _block(self) -> float:
        begin = time.perf_counter()
        times = []
        for _ in range(BLOCK_CHUNKS):
            start = time.perf_counter()
            for _ in range(CHUNK):
                _kernel(self._rng, self._h)
            times.append(time.perf_counter() - start)
        chunk = statistics.fmean(times)
        self.blocks.append((begin, chunk))
        self.block_wall_s += time.perf_counter() - begin
        return chunk

    def _cut(self) -> None:
        """End the running segment with a block, and start the next one."""
        if self._busy:
            return
        self._busy = True
        try:
            step = self._step
            wall = time.perf_counter() - step["t"]
            cpu = cpu_seconds() - step["cpu"]
            before = self._last
            self._last = self._block()
            factor = NOMINAL_S / statistics.fmean((before, self._last))
            step["raw_wall_s"] += wall
            step["raw_cpu_s"] += cpu
            step["wall_s"] += wall * factor
            step["cpu_s"] += cpu * factor
            step["segments"] += 1
            step["cpu"], step["t"] = cpu_seconds(), time.perf_counter()
        finally:
            self._busy = False

    def _on_alarm(self, _signum, _frame) -> None:
        if self._step is not None:
            self._cut()

    def timed(self, step) -> dict:
        """Run ``step()``; its raw and corrected wall and CPU seconds.

        The last segment is closed even when the step raises, and the
        exception is passed on.
        """
        self._step = {"raw_wall_s": 0.0, "raw_cpu_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0,
                      "segments": 0, "cpu": cpu_seconds(), "t": time.perf_counter()}
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            step()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._cut()
            result, self._step = self._step, None
        del result["cpu"], result["t"]
        return result
