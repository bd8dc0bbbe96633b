"""Case-study model builders used by the checked-in configs and the tests.

Each builder returns a plain SystemModel; the JSON files under configs/ are
the serialized forms of these calls, so configuration parsing and the builders
can be cross-checked against each other.
"""

from __future__ import annotations

from fractions import Fraction

from .generators import Generator
from .model import (
    DataEdge,
    Deployment,
    JobType,
    Platform,
    Processor,
    SystemModel,
    TaskSpec,
    WorkInterval,
)
from .timebase import to_ticks

_UNIT_POWER = {Fraction(1): (0.1, 0.9)}


def _pes(n: int, frequencies=None, power=None, total: int | None = None) -> list[Processor]:
    freqs = [Fraction(f) for f in (frequencies or [1])]
    table = power or _UNIT_POWER
    total = n if total is None else total
    return [
        Processor(f"PE{i}", list(freqs), dict(table), initially_on=i < n)
        for i in range(total)
    ]


def chain2() -> SystemModel:
    """Two-task chain [1,2] then [3,4] on one processor; makespan [4,6]."""
    job = JobType("chain", [
        TaskSpec("a", WorkInterval.of(1, 2)),
        TaskSpec("b", WorkInterval.of(3, 4)),
    ], [DataEdge("a", "b")])
    gen = Generator("chain", "periodic", period=to_ticks(100))
    return SystemModel([job], Platform(_pes(1)), [gen], Deployment(policy="fifo_global"))


def indep2() -> SystemModel:
    """Two independent tasks [1,3] and [2,4] on two processors; makespan [2,4]."""
    job = JobType("pair", [
        TaskSpec("a", WorkInterval.of(1, 3)),
        TaskSpec("b", WorkInterval.of(2, 4)),
    ])
    gen = Generator("pair", "periodic", period=to_ticks(100))
    dep = Deployment(policy="fifo_local", mapping={"a": "PE0", "b": "PE1"})
    return SystemModel([job], Platform(_pes(2)), [gen], dep)


def diamond() -> SystemModel:
    """Fork-join: s -> {m1, m2} -> j under global FIFO on two processors."""
    job = JobType("diamond", [
        TaskSpec("s", WorkInterval.of(1, 2)),
        TaskSpec("m1", WorkInterval.of(2, 3)),
        TaskSpec("m2", WorkInterval.of(1, 4)),
        TaskSpec("j", WorkInterval.of(1, 1)),
    ], [DataEdge("s", "m1"), DataEdge("s", "m2"),
        DataEdge("m1", "j"), DataEdge("m2", "j")])
    gen = Generator("diamond", "periodic", period=to_ticks(100))
    return SystemModel([job], Platform(_pes(2)), [gen], Deployment(policy="fifo_global"))


def stream_chain() -> SystemModel:
    """Three jittered instances of a two-stage chain, pipelined over two PEs."""
    job = JobType("ping", [
        TaskSpec("t1", WorkInterval.of(3, 5)),
        TaskSpec("t2", WorkInterval.of(2, 4)),
    ], [DataEdge("t1", "t2")])
    gen = Generator("ping", "jitter", period=to_ticks(6), jitter=to_ticks(2), count=3)
    dep = Deployment(policy="fifo_local", mapping={"t1": "PE0", "t2": "PE1"},
                     queue_capacity=4)
    return SystemModel([job], Platform(_pes(2)), [gen], dep, instance_bound=3)


def band16(processors: int, mu: int = 100, io_work=0, count: int = 1,
           period=10000) -> SystemModel:
    """Band job: central read/split, 16 parallel blocks at mu ±18%, merge/write.

    Block i is pinned to PE(i % processors); the framing tasks live on PE0.
    io_work sizes the read and write tasks (0 = pure framing).
    """
    lo, hi = to_ticks(Fraction(82, 100) * mu), to_ticks(Fraction(118, 100) * mu)
    tasks = [TaskSpec("read", WorkInterval.of(io_work, io_work)),
             TaskSpec("split", WorkInterval.of(0, 0))]
    edges = [DataEdge("read", "split")]
    mapping = {"read": "PE0", "split": "PE0", "merge": "PE0", "write": "PE0"}
    for i in range(16):
        tid = f"blk{i:02d}"
        tasks.append(TaskSpec(tid, WorkInterval(lo, hi)))
        edges.append(DataEdge("split", tid))
        edges.append(DataEdge(tid, "merge"))
        mapping[tid] = f"PE{i % processors}"
    tasks.append(TaskSpec("merge", WorkInterval.of(0, 0)))
    tasks.append(TaskSpec("write", WorkInterval.of(io_work, io_work)))
    edges.append(DataEdge("merge", "write"))
    gen = Generator("band", "periodic", period=to_ticks(period), count=count)
    dep = Deployment(policy="fifo_local", mapping=mapping)
    return SystemModel([JobType("band", tasks, edges)], Platform(_pes(processors)),
                       [gen], dep)


def blockwise(processors: int, mu: int = 100, io=25, count: int = 1,
              period=10000) -> SystemModel:
    """Blockwise variant of band16: 16 independent read/compute/write chains.

    Chain i is pinned to PE(i % processors).  With io = band16 io_work / 16
    the two variants move the same data, so their single-PE bounds coincide
    while extra processors let the chains' reads and writes spread out.
    """
    lo, hi = to_ticks(Fraction(82, 100) * mu), to_ticks(Fraction(118, 100) * mu)
    tasks: list[TaskSpec] = []
    edges: list[DataEdge] = []
    mapping: dict[str, str] = {}
    for i in range(16):
        r, c, w = f"r{i:02d}", f"c{i:02d}", f"w{i:02d}"
        tasks.append(TaskSpec(r, WorkInterval.of(io, io)))
        tasks.append(TaskSpec(c, WorkInterval(lo, hi)))
        tasks.append(TaskSpec(w, WorkInterval.of(io, io)))
        edges.append(DataEdge(r, c))
        edges.append(DataEdge(c, w))
        pe = f"PE{i % processors}"
        mapping[r] = mapping[c] = mapping[w] = pe
    gen = Generator("blocks", "periodic", period=to_ticks(period), count=count)
    dep = Deployment(policy="fifo_local", mapping=mapping)
    return SystemModel([JobType("blocks", tasks, edges)], Platform(_pes(processors)),
                       [gen], dep)


def mapping_stream(period=7000, policy: str = "fifo_local", count: int = 60,
                   queue_capacity: int = 8, jitter=200) -> SystemModel:
    """Sixteen independent [150,2100] tasks per job on four processors.

    The fixed deployment pins four tasks to each PE; passing
    policy="fifo_global" keeps the model identical but lets any free PE take
    the next task.  Arrivals are periodic with jitter.
    """
    tasks = [TaskSpec(f"blk{i:02d}", WorkInterval.of(150, 2100)) for i in range(16)]
    mapping = {f"blk{i:02d}": f"PE{i % 4}" for i in range(16)}
    gen = Generator("stream", "jitter", period=to_ticks(period),
                    jitter=to_ticks(jitter), count=count)
    dep = Deployment(policy=policy, mapping=mapping, queue_capacity=queue_capacity)
    pes = _pes(4, power={Fraction(1): (0.05, 0.95)})
    return SystemModel([JobType("stream", tasks, [])], Platform(pes), [gen], dep)


MHZ_POWER = {
    Fraction(200): (0.1, 0.4),
    Fraction(400): (0.1, 1.6),
    Fraction(600): (0.1, 3.6),
}

POWER_SWEEP_AXES = (("processors", ("1", "2", "4", "8", "16")),
                    ("frequency", ("200", "400", "600")))


def power_sweep_model() -> SystemModel:
    """band16(16)'s job under global FIFO on a 16-PE platform with three
    DVFS points.

    Sweeping active processor count and operating frequency over this model
    yields the power/performance tradeoff table.
    """
    band = band16(16)
    pes = _pes(16, frequencies=[200, 400, 600], power=MHZ_POWER)
    return SystemModel(band.job_types, Platform(pes), band.generators,
                       Deployment(policy="fifo_global"))
