"""Commands that simulated threads yield to the event loop.

A simulated thread is a Python generator.  Whenever it needs simulated time
to pass it ``yield``\\ s one of the command objects below and is resumed by
:class:`~repro.sim.engine.Simulator` once the command completes:

* :class:`CpuCommand` -- burn CPU cycles on the (shared) core pool.
* :class:`IoCommand` -- read bytes from the disk.
* :class:`SleepCommand` -- wait for a fixed simulated duration.
* :data:`BLOCK` -- park until another thread calls ``sim.unblock(thread)``;
  the building block for all higher-level synchronization in
  :mod:`repro.sim.sync`.

The lowercase factory aliases (:func:`CPU`, :func:`IO`, :func:`SLEEP`) read
naturally at yield sites, e.g. ``yield CPU(1_000_000, "hashing")``.  Inside
the package only :class:`~repro.sim.costmodel.CostModel` builds CPU
commands: engines yield its memoized values, so a hot loop's charge is a
dict hit, never a new object.
"""

from __future__ import annotations


class CpuCommand:
    """Consume ``cycles`` CPU cycles, attributed to a breakdown ``category``.

    Categories mirror the paper's Figure 11/12 CPU-time breakdown:
    ``hashing``, ``joins``, ``aggregation``, ``scans``, ``locks``, ``misc``.

    ``rest`` holds further ``(cycles, category)`` charges fused into this
    command (see :func:`CPU_FUSED`).  ``total`` is the one definition of
    what the command asks of the CPU pool: ``Σ max(cᵢ, 0)`` over its parts,
    summed in part order.  The simulator meters every part into its
    category when the command is dispatched and enters the pool once with
    ``total``; a command whose total is zero resumes through the event heap.

    Commands are immutable by contract: the cost model hands out one
    cached instance per charge value, and every operator of a run yields
    and fuses that same instance.  Hand rolled rather than a frozen
    dataclass to keep ``__slots__`` and a one-pass ``total``.
    """

    __slots__ = ("cycles", "category", "rest", "total")

    def __init__(
        self,
        cycles: float,
        category: str = "misc",
        rest: tuple[tuple[float, str], ...] = (),
    ):
        self.cycles = cycles
        self.category = category
        self.rest = rest
        total = cycles if cycles > 0.0 else 0.0
        for c, _ in rest:
            if c > 0.0:
                total += c
        self.total = total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CpuCommand(cycles={self.cycles!r}, category={self.category!r}, rest={self.rest!r})"


class IoCommand:
    """Read ``nbytes`` sequentially from the machine's disk."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: float):
        self.nbytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IoCommand(nbytes={self.nbytes!r})"


class SleepCommand:
    """Suspend the thread for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SleepCommand(delay={self.delay!r})"


class _BlockCommand:
    """Singleton command: park until explicitly unblocked."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "BLOCK"


#: Yield this to park the current thread until ``sim.unblock(thread)``.
BLOCK = _BlockCommand()


def CPU(cycles: float, category: str = "misc") -> CpuCommand:
    """Factory for :class:`CpuCommand` (reads naturally at yield sites)."""
    return CpuCommand(cycles, category)


def CPU_FUSED(*cmds: CpuCommand) -> CpuCommand:
    """Fuse consecutive CPU charges into one command.

    Hot worker loops that would yield several back-to-back ``CpuCommand``\\ s
    (e.g. a join's ``hashing`` then ``build`` charge per batch) yield one
    fused command instead -- through :meth:`CostModel.fused
    <repro.sim.costmodel.CostModel.fused>`, which builds each distinct
    fusion once: one generator resume, one dispatch and one pool entry of
    the summed work (``total``) instead of one per charge.  In a
    GPS pool that job finishes at the instant the chain of separate yields
    would have -- the member count is the same throughout -- up to float
    association.  Only use this for charges with *no observable side
    effects between them* -- pure Python computation between the original
    yields is fine (the simulator cannot see it), but anything touching
    queues, conditions or packet state must stay between separate yields.
    """
    n = len(cmds)
    if n == 2:  # the common call shapes, unrolled (hot path)
        a, b = cmds
        return CpuCommand(
            a.cycles, a.category, a.rest + ((b.cycles, b.category),) + b.rest
        )
    if n == 3:
        a, b, c = cmds
        return CpuCommand(
            a.cycles,
            a.category,
            a.rest
            + ((b.cycles, b.category),)
            + b.rest
            + ((c.cycles, c.category),)
            + c.rest,
        )
    if n == 1:
        return cmds[0]
    if not cmds:
        raise ValueError("CPU_FUSED needs at least one command")
    first = cmds[0]
    rest: list[tuple[float, str]] = list(first.rest)
    for c in cmds[1:]:
        rest.append((c.cycles, c.category))
        rest.extend(c.rest)
    return CpuCommand(first.cycles, first.category, tuple(rest))


def IO(nbytes: float) -> IoCommand:
    """Factory for :class:`IoCommand`."""
    return IoCommand(nbytes)


def SLEEP(delay: float) -> SleepCommand:
    """Factory for :class:`SleepCommand`."""
    return SleepCommand(delay)


Command = CpuCommand | IoCommand | SleepCommand | _BlockCommand
