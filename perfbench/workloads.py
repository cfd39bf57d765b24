"""The four workloads: stack bring-up, load generation and oracles.

Every input -- keys, op mix, payload bytes, update offsets -- comes from
``random.Random`` instances seeded from ``--seed``; the program sees
only those inputs.  Load comes from this one process: an open loop
issues op *i* at ``t0 + i / rate`` whatever the state of earlier ops
and times it from that due moment; a closed loop keeps ``outstanding``
ops in flight, each worker issuing its next op when the last returns.

Oracles: every gateway get and stripe read is compared with the
benchmark's own shadow copy, and every rebuilt strip with the strip the
column held before its node was stopped.  A mismatch is counted as a
failed op and makes the run exit non-zero.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import HealthMonitor, LocalCluster, RebuildScheduler, RetryPolicy
from repro.cluster.client import ClusterError
from repro.codes import make_code
from repro.gateway.admission import Overloaded
from repro.gateway.bench import ZipfKeys
from repro.gateway.objstore import GatewayError, IntegrityError, ObjectGateway
from repro.sim.transport import AsyncioTransport

import instrument
from spans import Counters, Recorder, now

#: Ops per deck: every block of this many ops has the exact op mix.
DECK = 200
#: The column every rebuild round stops and rebuilds (a data column).
REBUILD_COLUMN = 0
#: Bytes a gateway update overwrites inside its object.
UPDATE_BYTES = 512
#: The phase list runs this many times over, each pass with this share
#: of every phase's time, so rebuild rounds are spread over the whole
#: run instead of its last seconds (see ``Workload.run``).
SLICES = 8
#: Timed set-ups of throwaway stacks before each pass; ``setup_s`` is
#: the median of all of them.
SETUPS_PER_SLICE = 3


@dataclass
class Stack:
    code: object
    transport: AsyncioTransport
    cluster: LocalCluster
    array: object
    gateway: ObjectGateway | None


async def bring_up(spec: dict, wl: dict, seed: int) -> Stack:
    """Make the code, start the cluster, build the array and gateway,
    and round-trip one stripe."""
    g = spec["geometry"]
    code = make_code(g["code"], g["k"], p=g["p"], element_size=g["element_size"])
    transport = AsyncioTransport()
    cluster = LocalCluster(code, wl["n_stripes"], transport=transport)
    await cluster.start()
    array = cluster.array(
        policy=RetryPolicy(**spec["retry_policy"]), rng=random.Random(seed)
    )
    gateway = (
        ObjectGateway(array, cache_stripes=wl["cache_stripes"], **spec["admission"])
        if wl["kind"] == "gateway"
        else None
    )
    last = (wl["n_stripes"] - 1) * code.data_bytes
    zeros = bytes(code.data_bytes)
    await array.write(last, zeros)
    if await array.read(last, code.data_bytes) != zeros:
        raise RuntimeError("set-up round trip returned wrong bytes")
    return Stack(code, transport, cluster, array, gateway)


# -- results -------------------------------------------------------------------


@dataclass
class Phase:
    """What one measured phase did."""

    name: str
    kind: str
    traced: bool
    start: float = 0.0
    duration: float = 0.0
    ops: int = 0
    user_bytes: int = 0
    failed: int = 0
    shed: int = 0
    mismatches: int = 0
    lat: dict = field(default_factory=lambda: {"read": [], "write": []})
    #: closed loop: completed ops, and user bytes by "read" / "write"
    completed: int = 0
    done_bytes: dict = field(default_factory=lambda: {"read": 0, "write": 0})
    lags: list = field(default_factory=list)  # open loop: issue - due
    rounds: list = field(default_factory=list)  # rebuild: (bytes, seconds)
    spans: list = field(default_factory=list)
    counters: Counters | None = None
    cpu: float = 0.0  # process CPU seconds
    loop_lags: list = field(default_factory=list)
    client_counts: dict = field(default_factory=dict)
    node_requests: int = 0


def rate(phases: list[Phase], what: str) -> float:
    """Ops per second (``what="ops"``) or user bytes per second of one
    kind, over the phases that have any of them."""
    num = den = 0.0
    for p in phases:
        n = p.completed if what == "ops" else p.done_bytes[what]
        if n:
            num += n
            den += p.duration
    return num / den if den else 0.0


# -- oracles -------------------------------------------------------------------


class ObjectOracle:
    """Shadow copy of every object, version by version.

    The gateway serialises ops on one name, and a write's caller resumes
    in the same step that releases the name, so writes commit here in
    their serial order.  A get may return the version current when it
    was issued or any version committed while it was outstanding.
    """

    def __init__(self) -> None:
        self.hist: dict[str, list[bytes]] = {}
        self.base: dict[str, int] = {}
        self.readers: dict[str, int] = {}
        self.tainted: set[str] = set()

    def current(self, key: str) -> bytes:
        return self.hist[key][-1]

    def commit(self, key: str, value: bytes) -> None:
        self.hist.setdefault(key, []).append(value)
        self.base.setdefault(key, 0)
        self._trim(key)

    def _trim(self, key: str) -> None:
        h = self.hist[key]
        if not self.readers.get(key) and len(h) > 1:
            self.base[key] += len(h) - 1
            del h[:-1]

    def begin_get(self, key: str) -> int:
        self.readers[key] = self.readers.get(key, 0) + 1
        return self.base[key] + len(self.hist[key]) - 1

    def check(self, key: str, seq: int, data: bytes) -> bool:
        return key in self.tainted or data in self.hist[key][seq - self.base[key] :]

    def end_get(self, key: str) -> None:
        self.readers[key] -= 1
        self._trim(key)


class Deck:
    """Draws from ``counts`` (item -> how many per deck) in shuffled
    decks, so every block of ``sum(counts)`` draws holds the exact mix
    and only the order is random."""

    def __init__(self, counts: dict, rng: random.Random) -> None:
        self.counts = counts
        self.rng = rng
        self.cards: list = []

    def draw(self):
        if not self.cards:
            self.cards = [item for item, n in self.counts.items() for _ in range(n)]
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def deck_counts(shares: dict[str, float]) -> dict[str, int]:
    counts = {k: round(v * DECK) for k, v in shares.items()}
    if sum(counts.values()) != DECK:
        raise ValueError(f"shares {shares} do not split {DECK} ops exactly")
    return counts


# -- the workload runner -------------------------------------------------------


class Workload:
    """One workload run: bring-up, load, measured phases, verification."""

    def __init__(self, spec: dict, name: str, seed: int, seconds: float,
                 rec: Recorder | None) -> None:
        self.spec = spec
        self.name = name
        self.wl = spec["workloads"][name]
        self.seed = seed
        self.seconds = seconds
        self.rec = rec
        self.rng = random.Random(f"{name}/{seed}")
        self.phases: list[Phase] = []
        self.setup_times: list[float] = []
        self.stack: Stack | None = None
        self.objects: ObjectOracle | None = None
        self.sizes: dict[str, int] = {}
        self.small: list[str] = []
        self.large: list[str] = []
        self.stripes: dict[int, bytes] = {}  # stripe workloads' shadow
        self.rewritten: set[int] = set()  # stripes written after the snapshot
        self.expected: np.ndarray | None = None  # rebuild column, pre-failure
        self.space_amp = 0.0
        #: host speed probe (traced runs): ms per fixed pure-Python loop
        self.cpu_ref: list[float] = []

    # -- op scope ----------------------------------------------------------

    def _scope(self, name: str):
        rec = self.rec
        if rec is not None and rec.tracing:
            return rec.op(name)
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def _untraced(self):
        """Pause tracing: the benchmark's own reads of node disks are
        not part of any op."""
        rec = self.rec
        was = rec is not None and rec.tracing
        if was:
            rec.tracing = False
        try:
            yield
        finally:
            if was:
                rec.tracing = True

    # -- set-up and load ---------------------------------------------------

    async def setup(self) -> None:
        """Bring up the stack that serves the run (untimed: the first
        set-up of a process also warms the process's caches)."""
        self.stack = await bring_up(self.spec, self.wl, self.seed)

    async def time_setups(self) -> None:
        """Set up and tear down ``SETUPS_PER_SLICE`` throwaway stacks,
        timing each set-up.  Garbage is collected before each clock
        starts, so no set-up pays for freeing an earlier stack."""
        for _ in range(SETUPS_PER_SLICE):
            gc.collect()
            t0 = now()
            stack = await bring_up(self.spec, self.wl, self.seed)
            self.setup_times.append(now() - t0)
            await stack.cluster.stop()
            del stack
        gc.collect()

    async def load(self) -> None:
        if self.wl["kind"] == "gateway":
            await self._load_objects()
        elif self.wl.get("lost_columns"):
            await self._load_degraded()

    async def _load_objects(self) -> None:
        """Put every object; the op deck pairs each op kind with a size
        class so large objects get exactly their share of every kind."""
        keys, mix = self.wl["keys"], self.wl["mix"]
        n = keys["n_objects"]
        large = set(self.rng.sample(range(n), round(n * keys["large_fraction"])))
        names = [f"obj{i:05d}" for i in range(n)]
        self.small = [k for i, k in enumerate(names) if i not in large]
        self.large = [k for i, k in enumerate(names) if i in large]
        self.small_keys = ZipfKeys(len(self.small), keys["zipf_theta"])
        frac = keys["large_fraction"]
        self.ops = Deck(deck_counts({
            (kind, big): share * (frac if big else 1 - frac)
            for kind, share in mix.items() for big in (False, True)
        }), self.rng)
        self.objects = ObjectOracle()
        gw = self.stack.gateway
        for i, key in enumerate(names):
            size = keys["large_size"] if i in large else keys["object_size"]
            data = self.rng.randbytes(size)
            await gw.put(key, data)
            self.sizes[key] = size
            self.objects.commit(key, data)

    async def _load_degraded(self) -> None:
        """Fill every stripe, install observe-only breakers and lose
        the lost columns."""
        stack = self.stack
        sdb = stack.code.data_bytes
        for s in range(self.wl["n_stripes"]):
            data = self.rng.randbytes(sdb)
            await stack.array.write(s * sdb, data)
            self.stripes[s] = data
        HealthMonitor(stack.array)
        await self._lose_columns()

    async def _lose_columns(self) -> None:
        """Stop every lost column whose node runs (the rebuild column's
        node runs again after each rebuild phase), snapshotting the
        rebuild column first; then a few reads let the breakers open."""
        cluster = self.stack.cluster
        live = [c for c in self.wl.get("lost_columns", []) if cluster.nodes[c].running]
        if not live:
            return
        if REBUILD_COLUMN in live:
            self._snapshot()
        for col in live:
            await cluster.stop_node(col)
        sdb = self.stack.code.data_bytes
        for s in range(8):
            if await self.stack.array.read(s * sdb, sdb) != self.stripes[s]:
                raise RuntimeError("degraded warm-up read returned wrong bytes")

    def _snapshot(self) -> None:
        """Record the rebuild column's strips; stripes written from now
        on are re-encoded from the shadow copy when a rebuild is checked."""
        disk = self.stack.cluster.nodes[REBUILD_COLUMN].disk
        with self._untraced():
            self.expected = np.stack(
                [disk.read_strip(s) for s in range(self.wl["n_stripes"])]
            )
        self.rewritten.clear()

    # -- ops -----------------------------------------------------------------

    def next_gateway_op(self) -> tuple:
        rng = self.rng
        kind, big = self.ops.draw()
        if big:
            key = rng.choice(self.large)
        else:
            key = self.small[self.small_keys.draw(rng)]
        size = self.sizes[key]
        if kind == "get":
            return ("get", key, 0, b"")
        if kind == "put":
            return ("put", key, 0, rng.randbytes(size))
        span = min(UPDATE_BYTES, size)
        return ("update", key, rng.randrange(size - span + 1), rng.randbytes(span))

    async def gateway_op(self, op: tuple, phase: Phase) -> tuple[str, int] | None:
        """Run one op; returns ``(read|write, user bytes)`` or None if it failed."""
        kind, key, offset, payload = op
        gw, oracle = self.stack.gateway, self.objects
        try:
            if kind == "get":
                seq = oracle.begin_get(key)
                try:
                    data = await gw.get(key)
                    ok = oracle.check(key, seq, data)
                except IntegrityError:
                    # The gateway's own CRC caught bytes that read back
                    # wrong: a mismatch, unless a failed update left the
                    # object half written.
                    if key in oracle.tainted:
                        raise
                    ok = False
                finally:
                    oracle.end_get(key)
                if not ok:
                    phase.mismatches += 1
                    return None
                return "read", len(data)
            if kind == "put":
                await gw.put(key, payload)
                oracle.commit(key, payload)
                return "write", len(payload)
            try:
                await gw.update(key, offset, payload)
            except (GatewayError, ClusterError):
                oracle.tainted.add(key)
                raise
            value = bytearray(oracle.current(key))
            value[offset : offset + len(payload)] = payload
            oracle.commit(key, bytes(value))
            return "write", len(payload)
        except Overloaded:
            phase.shed += 1
        except (GatewayError, ClusterError):
            phase.failed += 1
        return None

    def stripe_worker_ops(self, mix: dict, worker: int):
        """Worker ``worker``'s endless op stream: it owns the stripes
        congruent to it modulo the outstanding count, so no two ops on
        one stripe are ever in flight together; each op is a read with
        share ``mix["read"]`` of the ops, the rest full-stripe writes."""
        n = self.wl["n_stripes"]
        step = int(self.spec["outstanding"])
        rng = random.Random(f"{self.name}/{self.seed}/{sorted(mix.items())}/{worker}")
        kinds = Deck(deck_counts(mix), rng)
        sdb = self.stack.code.data_bytes
        mine = list(range(worker, n, step))
        if "read" in mix:
            mine = [s for s in mine if s in self.stripes]
        i = 0
        while True:
            stripe = mine[i % len(mine)]
            i += 1
            if kinds.draw() == "read":
                yield ("read", stripe, b"")
            else:
                yield ("write", stripe, rng.randbytes(sdb))

    async def stripe_op(self, op: tuple, phase: Phase) -> tuple[str, int] | None:
        kind, stripe, payload = op
        array = self.stack.array
        sdb = self.stack.code.data_bytes
        try:
            if kind == "write":
                await array.write(stripe * sdb, payload)
                self.stripes[stripe] = payload
                self.rewritten.add(stripe)
                return "write", sdb
            data = await array.read(stripe * sdb, sdb)
            if data != self.stripes[stripe]:
                phase.mismatches += 1
                return None
            return "read", sdb
        except ClusterError:
            phase.failed += 1
        return None

    # -- phases ----------------------------------------------------------------

    def _begin(self, name: str, kind: str, traced: bool) -> Phase:
        phase = Phase(name, kind, traced)
        rec = self.rec
        if traced:
            rec.spans, rec.counters, rec.tracing = [], Counters(), True
            phase.client_counts = self._client_counts()
            phase.node_requests = self._node_requests()
        phase.cpu = time.process_time()
        phase.start = now()
        return phase

    def _end(self, phase: Phase) -> None:
        phase.duration = now() - phase.start
        phase.cpu = time.process_time() - phase.cpu
        if phase.traced:
            rec = self.rec
            rec.tracing = False
            phase.spans, phase.counters = rec.spans, rec.counters
            rec.spans = []
            after = self._client_counts()
            phase.client_counts = {
                k: after[k] - phase.client_counts.get(k, 0) for k in after
            }
            phase.node_requests = self._node_requests() - phase.node_requests
        self.phases.append(phase)

    def _client_counts(self) -> dict:
        return dict(self.stack.array.metrics.snapshot()["counters"])

    def _node_requests(self) -> int:
        return sum(
            v
            for node in self.stack.cluster.nodes
            for k, v in node.metrics.snapshot()["counters"].items()
            if k.startswith("requests_")
        )

    async def _ticker(self, phase: Phase) -> None:
        interval = 0.005
        while True:
            t = now()
            await asyncio.sleep(interval)
            phase.loop_lags.append(now() - t - interval)

    async def run_phase(self, spec: dict, duration: float, traced: bool) -> None:
        phase = self._begin(spec["name"], spec["kind"], traced)
        ticker = asyncio.ensure_future(self._ticker(phase)) if traced else None
        try:
            if spec["kind"] == "open":
                await self._open(phase, duration)
            elif spec["kind"] == "closed":
                await self._closed(phase, duration, spec.get("mix"))
            else:
                await self._rebuild(phase, duration, traced)
        finally:
            if ticker is not None:
                ticker.cancel()
                await asyncio.gather(ticker, return_exceptions=True)
        self._end(phase)

    async def _open(self, phase: Phase, duration: float) -> None:
        rate = float(self.wl["open_rate"])
        t0 = phase.start
        tasks = []

        async def one(op: tuple, due: float) -> None:
            with self._scope(op[0]):
                res = await self.gateway_op(op, phase)
            if res is not None:
                phase.lat[res[0]].append(now() - due)
                phase.user_bytes += res[1]

        for i in range(int(duration * rate)):
            due = t0 + i / rate
            delay = due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lags.append(now() - due)
            phase.ops += 1
            tasks.append(asyncio.ensure_future(one(self.next_gateway_op(), due)))
        await asyncio.gather(*tasks)

    async def _closed(self, phase: Phase, duration: float, mix: dict | None) -> None:
        end = phase.start + duration
        outstanding = int(self.spec["outstanding"])
        if self.wl["kind"] == "gateway":
            streams = [None] * outstanding
            run = self.gateway_op
        else:
            streams = [self.stripe_worker_ops(mix, w) for w in range(outstanding)]
            run = self.stripe_op

        async def worker(w: int) -> None:
            while now() < end:
                op_ = self.next_gateway_op() if streams[w] is None else next(streams[w])
                t0 = now()
                phase.ops += 1
                with self._scope(op_[0]):
                    res = await run(op_, phase)
                if res is not None:
                    phase.lat[res[0]].append(now() - t0)
                    phase.completed += 1
                    phase.done_bytes[res[0]] += res[1]
                    phase.user_bytes += res[1]

        await asyncio.gather(*(worker(w) for w in range(outstanding)))

    async def _rebuild(self, phase: Phase, duration: float, traced: bool) -> None:
        stack = self.stack
        col = REBUILD_COLUMN
        if stack.cluster.nodes[col].running:
            self._snapshot()
        want = self._expected_column(col)
        strip_bytes = stack.code.strip_bytes
        end = phase.start + duration
        while phase.ops == 0 or now() < end:
            await stack.cluster.stop_node(col)
            address = await stack.cluster.start_replacement(col)
            scheduler = RebuildScheduler(stack.array)
            if traced:
                instrument.instrument_nodes(self.rec, [stack.cluster.replacements[col]])
                instrument.instrument_rebuild(self.rec, scheduler)
            phase.ops += 1
            t0 = now()
            try:
                with self._scope("rebuild"):
                    n = await scheduler.rebuild_column(col, address)
            except ClusterError:
                phase.failed += 1
                await stack.cluster.replacements.pop(col).stop()
                continue
            dt = now() - t0
            stack.cluster.promote_replacement(col)
            if self._column_matches(col, want):
                phase.rounds.append((n * strip_bytes, dt))
            else:
                phase.mismatches += 1

    def _expected_column(self, col: int) -> np.ndarray:
        """The column's strips as they stood before its node was stopped:
        the snapshot, with stripes written since re-encoded from the
        shadow copy."""
        want = self.expected.copy()
        code = self.stack.code
        for s in self.rewritten:
            buf = code.alloc_stripe()
            words = np.frombuffer(self.stripes[s], dtype=buf.dtype)
            buf[: code.k] = words.reshape(code.k, code.rows, -1)
            code.encode(buf)
            want[s] = buf[col].reshape(-1)
        return want

    def _column_matches(self, col: int, want: np.ndarray) -> bool:
        """Whether the rebuilt column holds exactly ``want``."""
        disk = self.stack.cluster.nodes[col].disk
        with self._untraced():
            got = np.stack([disk.read_strip(s) for s in range(self.wl["n_stripes"])])
        return np.array_equal(got, want)

    # -- the whole run -----------------------------------------------------------

    async def run(self) -> None:
        """Set up, load, then the measured phases.

        The phase list runs ``SLICES`` times over.  Rebuild rounds
        and set-ups are the measurements most exposed to slow spells of
        a shared host, which last seconds; spread over the run, they
        sample several spells.  Each pass starts with timed set-ups of
        throwaway stacks; in a degraded workload the lost columns are
        then lost again.

        With a recorder, the closed-loop phases first run untraced for
        half their time (the baseline for tracing overhead); then the
        stack is instrumented and every phase runs traced, closed-loop
        phases for the other half.
        """
        if self.rec is not None:
            self.cpu_ref += cpu_reference()
        await self.setup()
        try:
            await self.load()
            # Long-lived set-up state (the shadow copies, imported code)
            # leaves the collector's generations, so a full collection
            # during the phases scans only what the phases allocate.
            gc.collect()
            gc.freeze()
            phases = self.wl["phases"]
            traced = self.rec is not None
            if traced:
                for p in phases:
                    if p["kind"] == "closed":
                        await self.run_phase(p, p["frac"] * self.seconds / 2, traced=False)
                instrument.instrument_stack(self.rec, self.stack)
            for _ in range(SLICES):
                await self.time_setups()
                await self._lose_columns()
                for p in phases:
                    share = p["frac"] / (2 if traced and p["kind"] == "closed" else 1)
                    if p["kind"] == "rebuild":
                        await self._space()
                    await self.run_phase(p, share * self.seconds / SLICES, traced=traced)
        finally:
            await self.stack.cluster.stop()
        if self.rec is not None:
            self.cpu_ref += cpu_reference()

    async def _space(self) -> None:
        """Raw bytes of the stripes that hold data over live user bytes."""
        code = self.stack.code
        raw_stripe = code.n_cols * code.strip_bytes
        if self.stack.gateway is None:
            self.space_amp = raw_stripe / code.data_bytes
            return
        objects = await self.stack.gateway.list_objects()
        stripes = {s for o in objects for s in o.stripes}
        live = sum(o.size for o in objects)
        self.space_amp = len(stripes) * raw_stripe / live


def cpu_reference(reps: int = 5) -> list[float]:
    """Milliseconds a fixed pure-Python loop takes, ``reps`` times.

    Not a program metric: it shows how fast the host ran during a
    traced run, so per-layer numbers from different runs can be read
    against each other.
    """
    out = []
    for _ in range(reps):
        t0 = now()
        x = 0
        for i in range(200_000):
            x += i * i
        out.append((now() - t0) * 1e3)
    return out
