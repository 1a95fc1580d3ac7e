//! Concurrent grammar construction.
//!
//! Single-threaded Sequitur construction is the wall of every
//! grammar-backed mode. This module moves grammar work off the
//! collection thread, exploiting the decomposition structure the paper
//! already gives us:
//!
//! * WHOMP's OMSG keeps one **independent** Sequitur per horizontal
//!   dimension. [`WhompProfiler`](crate::WhompProfiler) always grows
//!   the instruction, group and object grammars on up to three
//!   persistent workers while the collection thread grows the offset
//!   grammar ([`Streams`]);
//! * RASG's single record grammar overlaps with the probe side when
//!   moved off-thread ([`PipelinedRasg`], the same [`Streams`]);
//! * the hybrid profiler is partitioned by instruction, so tuple
//!   batches route to workers by the sharded pipeline's key and
//!   [`ShardableSink::merge`](orp_core::ShardableSink) reassembles the
//!   result ([`PipelinedHybrid`]).
//!
//! # Batching and determinism
//!
//! The feed side ships per-stream batches over **bounded** channels
//! (back-pressure, not unbounded memory), recycling spent buffers like
//! [`orp_core::sharded`]. Each stream reaches exactly one grammar,
//! complete and in collection order, and Sequitur is a deterministic
//! function of its input — so batch boundaries and scheduling are
//! unobservable: container and checkpoint bytes are identical to
//! sequential construction. The differential tests and golden fixtures
//! pin this down.
//!
//! # Drain barrier
//!
//! Reading a WHOMP grammar mid-run (a checkpoint, a size query, the
//! final profile) flushes the batches and then *lends* each worker's
//! grammars to the collection thread: the lend request queues behind
//! every batch already shipped, so the worker answers only once it has
//! consumed them, and the grammars go back before collection resumes.
//!
//! # Degraded shutdown
//!
//! A dead grammar worker cannot be salvaged like a dead *shard* lane:
//! its in-progress grammar dies with its thread. The pipelines keep the
//! salvage path's *containment* contract instead: the feed side keeps
//! accepting (and dropping) symbols after a worker dies — no deadlock,
//! no cascading panic — and the failure surfaces as a
//! [`PipelineError`] naming the worker and its streams at the next
//! drain or join, like
//! [`ShardedCdc::try_join`](orp_core::ShardedCdc::try_join).

use std::time::Instant;

use orp_core::sharded::panic_message;
use orp_core::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use orp_core::sync::thread::{self, JoinHandle};
use orp_core::{OrSink, OrTuple, PipelineError, ShardableSink};
use orp_obs::Recorder;
use orp_sequitur::Sequitur;
use orp_trace::{AccessEvent, ProbeSink};

use crate::{fuse, HybridProfiler, RasgProfiler};

/// Symbols per batch shipped to a RASG or hybrid grammar worker.
#[cfg(not(loom))]
const SYMBOL_BATCH: usize = 8192;
/// Model-checking build: tiny batches so a handful of symbols crosses
/// several channel transitions without exploding the schedule space.
#[cfg(loom)]
const SYMBOL_BATCH: usize = 2;

/// Tuples per WHOMP column batch. Small enough that back-pressure from
/// a busy worker spreads evenly over collection instead of landing on
/// one long flush (4096-tuple batches doubled the p95 frame latency).
#[cfg(not(loom))]
const TUPLE_BATCH: usize = 512;
/// Model-checking build: see [`SYMBOL_BATCH`].
#[cfg(loom)]
const TUPLE_BATCH: usize = 2;

/// Bounded queue depth, in batches, of a RASG or hybrid worker channel.
#[cfg(not(loom))]
const QUEUE_BATCHES: usize = 32;
/// Model-checking build: depth 1 makes back-pressure reachable.
#[cfg(loom)]
const QUEUE_BATCHES: usize = 1;

/// Bounded queue depth, in column batches, of a WHOMP worker channel:
/// about three flushes of look-ahead when one worker owns all three
/// dimensions. Deeper queues only hold more idle buffers (32 cost
/// +0.2–0.3 MiB of peak RSS on `whomp-mcf`); depth 4 let stalls reach
/// the p95 frame latency.
#[cfg(not(loom))]
const COLUMN_QUEUE_BATCHES: usize = 8;
/// Model-checking build: see [`QUEUE_BATCHES`].
#[cfg(loom)]
const COLUMN_QUEUE_BATCHES: usize = 1;

/// The OMSG dimension names, in stream order.
const DIMS: [&str; 4] = ["instruction", "group", "object", "offset"];

/// The dimension the collection thread always builds itself. Its
/// grammar holds the largest state, and growing it on a worker kept
/// that memory in the worker thread's malloc arena (+6% peak RSS).
const OFFSET: usize = 3;

/// How many WHOMP grammar workers this host gets: one per spare core,
/// at most one per worker-built dimension. A 1-core host gets none and
/// builds all four grammars on the collection thread.
#[cfg(not(loom))]
fn grammar_workers() -> usize {
    thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .saturating_sub(1)
        .min(OFFSET)
}

/// Model-checking build: always one worker, so the model covers the
/// lend/return protocol on every host.
#[cfg(loom)]
fn grammar_workers() -> usize {
    1
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
/// One symbol stream's feed-side totals, counted on the collection
/// thread; plain integers bumped inline, published only at join.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GrammarStreamStats {
    /// Stream name: an OMSG dimension, `"records"` (RASG), or
    /// `"instructions"` (hybrid, aggregated over workers).
    pub stream: &'static str,
    /// Symbols shipped into this stream's grammar.
    pub symbols: u64,
    /// Batches flushed onto the worker's queue.
    pub batches: u64,
    /// Flushes that found the queue full and had to block (collection
    /// out-ran grammar construction).
    pub stalls: u64,
    /// Wall-clock nanoseconds the worker spent inside `push_batch` for
    /// this stream.
    pub busy_ns: u64,
}

/// Per-stream grammar-worker totals harvested at join.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GrammarPipelineStats {
    /// Number of grammar workers the pipeline ran.
    pub workers: u64,
    /// One entry per symbol stream.
    pub streams: Vec<GrammarStreamStats>,
}

/// The `(busy, batches, stalls)` counter names for one stream — the
/// [`Recorder`] interface wants `&'static str`, so the known streams
/// are enumerated instead of formatted.
fn stream_counter_names(stream: &str) -> Option<(&'static str, &'static str, &'static str)> {
    match stream {
        "instruction" => Some((
            "grammar.worker_busy_ns.instruction",
            "grammar.batches.instruction",
            "grammar.stalls.instruction",
        )),
        "group" => Some((
            "grammar.worker_busy_ns.group",
            "grammar.batches.group",
            "grammar.stalls.group",
        )),
        "object" => Some((
            "grammar.worker_busy_ns.object",
            "grammar.batches.object",
            "grammar.stalls.object",
        )),
        "offset" => Some((
            "grammar.worker_busy_ns.offset",
            "grammar.batches.offset",
            "grammar.stalls.offset",
        )),
        "records" => Some((
            "grammar.worker_busy_ns.records",
            "grammar.batches.records",
            "grammar.stalls.records",
        )),
        "instructions" => Some((
            "grammar.worker_busy_ns.instructions",
            "grammar.batches.instructions",
            "grammar.stalls.instructions",
        )),
        _ => None,
    }
}

impl GrammarPipelineStats {
    /// Publishes the pipeline's totals (`grammar.*`) onto `rec`. Call
    /// at a phase boundary, after join.
    pub fn record_metrics(&self, rec: &mut dyn Recorder) {
        rec.counter("grammar.workers", self.workers);
        for s in &self.streams {
            if let Some((busy, batches, stalls)) = stream_counter_names(s.stream) {
                rec.span(busy, s.busy_ns);
                rec.counter(batches, s.batches);
                rec.counter(stalls, s.stalls);
            }
        }
    }

    /// Total worker-busy nanoseconds across all streams.
    #[must_use]
    pub fn total_busy_ns(&self) -> u64 {
        self.streams.iter().map(|s| s.busy_ns).sum()
    }
}

/// What a grammar worker grows from the batches it is sent: the state
/// it owns, lends on request and hands back at shutdown.
trait Grow: Default + Send + 'static {
    /// What a batch carries.
    type Item: Send + 'static;
    /// Grows the state by `batch`, addressed to `stream`.
    fn grow(&mut self, stream: u8, batch: &[Self::Item]);
}

/// One stream's grammar state on a symbol worker, and the time spent
/// growing it.
#[derive(Debug)]
struct WorkerStream {
    stream: u8,
    seq: Sequitur,
    busy_ns: u64,
}

impl Grow for Vec<WorkerStream> {
    type Item = u64;

    fn grow(&mut self, stream: u8, batch: &[u64]) {
        let slot = self
            .iter_mut()
            .find(|s| s.stream == stream)
            .expect("batch routed to a worker that does not own its stream");
        let start = Instant::now();
        slot.seq.push_batch(batch);
        slot.busy_ns += elapsed_ns(start);
    }
}

/// A hybrid worker: one [`HybridProfiler`] over its share of the
/// instructions, and the time spent growing it.
#[derive(Debug, Default)]
struct HybridWorker {
    sink: HybridProfiler,
    busy_ns: u64,
}

impl Grow for HybridWorker {
    type Item = OrTuple;

    fn grow(&mut self, _: u8, batch: &[OrTuple]) {
        let start = Instant::now();
        self.sink.tuple_batch(batch);
        self.busy_ns += elapsed_ns(start);
    }
}

/// What the feed side sends a grammar worker.
#[derive(Debug)]
enum Msg<G: Grow> {
    /// The next batch for one stream.
    Batch(u8, Vec<G::Item>),
    /// Hand the state back over the lend channel, then wait for
    /// [`Msg::Return`].
    Lend,
    /// The state handed out by the last [`Msg::Lend`].
    Return(G),
}

/// One worker's inbound lane: its message channel, the buffer-recycling
/// return channel and the lend channel. `tx` is `None` once the worker
/// is known dead.
#[derive(Debug)]
struct Lane<G: Grow> {
    tx: Option<SyncSender<Msg<G>>>,
    recycled: Receiver<Vec<G::Item>>,
    lent: Receiver<G>,
}

impl<G: Grow> Lane<G> {
    /// Ships `batch` for stream `stream`, returning a fresh (recycled
    /// or new) buffer of the same capacity. Stall and batch totals land
    /// in `stats`; a dead worker marks the lane and the batch is
    /// dropped — the panic surfaces at the next drain or join.
    fn ship(
        &mut self,
        stream: u8,
        batch: Vec<G::Item>,
        stats: &mut GrammarStreamStats,
    ) -> Vec<G::Item> {
        let capacity = batch.capacity();
        let fresh = self
            .recycled
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(capacity));
        let Some(tx) = &self.tx else {
            return fresh;
        };
        // Non-blocking first, so a full queue — the worker
        // back-pressuring collection — is observable as a stall before
        // the blocking send parks this thread.
        match tx.try_send(Msg::Batch(stream, batch)) {
            Ok(()) => stats.batches += 1,
            Err(TrySendError::Full(msg)) => {
                stats.stalls += 1;
                match tx.send(msg) {
                    Ok(()) => stats.batches += 1,
                    Err(mpsc::SendError(_)) => self.tx = None,
                }
            }
            Err(TrySendError::Disconnected(_)) => self.tx = None,
        }
        fresh
    }

    /// Borrows the worker's state once it has consumed everything
    /// shipped before; `None` when the worker is dead.
    fn lend(&self) -> Option<G> {
        self.tx.as_ref()?.send(Msg::Lend).ok()?;
        self.lent.recv().ok()
    }

    /// Returns state taken by [`Lane::lend`] to its worker.
    fn give_back(&self, state: G) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(Msg::Return(state));
        }
    }
}

/// Spawns grammar worker `index` owning `state` behind a `depth`-batch
/// queue; it drains its lane, grows its state by each batch, lends the
/// state on request, and returns it at shutdown.
fn spawn_worker<G: Grow>(index: usize, state: G, depth: usize) -> (Lane<G>, JoinHandle<G>) {
    let (tx, rx) = mpsc::sync_channel::<Msg<G>>(depth);
    let (recycle_tx, recycle_rx) = mpsc::sync_channel::<Vec<G::Item>>(depth);
    let (lend_tx, lend_rx) = mpsc::sync_channel::<G>(1);
    let handle = thread::Builder::new()
        .name(format!("orp-grammar-{index}"))
        .spawn(move || {
            let mut state = state;
            while let Ok(msg) = rx.recv() {
                match msg {
                    Msg::Batch(stream, mut batch) => {
                        state.grow(stream, &batch);
                        batch.clear();
                        let _ = recycle_tx.try_send(batch);
                    }
                    Msg::Lend => {
                        if lend_tx.send(std::mem::take(&mut state)).is_err() {
                            break;
                        }
                    }
                    Msg::Return(lent) => state = lent,
                }
            }
            state
        })
        .expect("spawn grammar worker");
    (
        Lane {
            tx: Some(tx),
            recycled: recycle_rx,
            lent: lend_rx,
        },
        handle,
    )
}

/// Symbol streams grown concurrently: the engine behind
/// [`WhompProfiler`](crate::WhompProfiler) (the four dimension streams)
/// and [`PipelinedRasg`] (the record stream).
///
/// Symbols are buffered per stream in batches of `batch`. The first
/// `shared` streams grow on the workers — stream `s` on worker
/// `s % W` — and the rest, or all of them with no workers, grow on the
/// collection thread from the same batches. Every read goes through the
/// drain barrier (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct Streams<const N: usize> {
    /// Batch under construction per stream; all grow in lockstep.
    pending: [Vec<u64>; N],
    batch: usize,
    /// The grammars this thread grows; `None` where a worker owns it.
    local: [Option<Sequitur>; N],
    /// The lane of each worker-built stream.
    route: [usize; N],
    stats: [GrammarStreamStats; N],
    lanes: Vec<Lane<Vec<WorkerStream>>>,
    /// `None` once joined (at a worker death or at shutdown).
    workers: Vec<Option<JoinHandle<Vec<WorkerStream>>>>,
    /// The first worker death, reported by every later drain.
    failure: Option<PipelineError>,
}

impl Streams<4> {
    /// WHOMP's dimension streams on this host's workers.
    pub(crate) fn dimensions(grammars: [Sequitur; 4]) -> Self {
        Self::dimensions_on(grammars, grammar_workers())
    }

    /// WHOMP's dimension streams on `workers` workers: the offset
    /// grammar always grows on the collection thread.
    pub(crate) fn dimensions_on(grammars: [Sequitur; 4], workers: usize) -> Self {
        let batches = (TUPLE_BATCH, COLUMN_QUEUE_BATCHES);
        Self::spawn(grammars, DIMS, OFFSET, workers, batches)
    }
}

impl<const N: usize> Streams<N> {
    /// Continues `grammars`, spreading the first `shared` over
    /// `workers` workers (at most one per stream); `batches` is the
    /// batch size and the queue depth in batches.
    ///
    /// # Panics
    ///
    /// Panics if a thread cannot be spawned.
    pub(crate) fn spawn(
        grammars: [Sequitur; N],
        names: [&'static str; N],
        shared: usize,
        workers: usize,
        (batch, depth): (usize, usize),
    ) -> Self {
        let workers = workers.min(shared);
        let mut local: [Option<Sequitur>; N] = std::array::from_fn(|_| None);
        let mut route = [0usize; N];
        let mut per_worker: Vec<Vec<WorkerStream>> = (0..workers).map(|_| Vec::new()).collect();
        for (s, seq) in grammars.into_iter().enumerate() {
            if s < shared && workers > 0 {
                route[s] = s % workers;
                per_worker[s % workers].push(WorkerStream {
                    stream: s as u8,
                    seq,
                    busy_ns: 0,
                });
            } else {
                local[s] = Some(seq);
            }
        }
        let (lanes, workers) = per_worker
            .into_iter()
            .enumerate()
            .map(|(i, streams)| {
                let (lane, handle) = spawn_worker(i, streams, depth);
                (lane, Some(handle))
            })
            .unzip();
        Streams {
            pending: std::array::from_fn(|_| Vec::with_capacity(batch)),
            batch,
            local,
            route,
            stats: names.map(|stream| GrammarStreamStats {
                stream,
                ..GrammarStreamStats::default()
            }),
            lanes,
            workers,
            failure: None,
        }
    }

    /// Appends one symbol per stream, flushing a full batch.
    #[inline]
    pub(crate) fn push(&mut self, symbols: [u64; N]) {
        for (pending, symbol) in self.pending.iter_mut().zip(symbols) {
            pending.push(symbol);
        }
        if self.pending[0].len() >= self.batch {
            self.flush();
        }
    }

    /// Ships the worker-built batches, then grows the local grammars,
    /// so the workers start before this thread's share.
    pub(crate) fn flush(&mut self) {
        for s in 0..N {
            if self.pending[s].is_empty() {
                continue;
            }
            let stats = &mut self.stats[s];
            stats.symbols += self.pending[s].len() as u64;
            if let Some(seq) = &mut self.local[s] {
                let start = Instant::now();
                seq.push_batch(&self.pending[s]);
                stats.busy_ns += elapsed_ns(start);
                stats.batches += 1;
                self.pending[s].clear();
            } else {
                let batch = std::mem::take(&mut self.pending[s]);
                self.pending[s] = self.lanes[self.route[s]].ship(s as u8, batch, stats);
            }
        }
    }

    /// The drain barrier: flushes, waits until every worker has
    /// consumed its queue, and runs `f` over the grammars (in stream
    /// order) and the pipeline totals.
    ///
    /// # Errors
    ///
    /// A dead worker, named with its streams — at this drain and every
    /// later one.
    pub(crate) fn lend_grammars<R>(
        &mut self,
        f: impl FnOnce([&Sequitur; N], &GrammarPipelineStats) -> R,
    ) -> Result<R, PipelineError> {
        self.flush();
        self.check()?;
        let lent: Vec<Option<Vec<WorkerStream>>> = self.lanes.iter().map(Lane::lend).collect();
        if let Some(dead) = lent.iter().position(Option::is_none) {
            for (lane, streams) in self.lanes.iter().zip(lent) {
                if let Some(streams) = streams {
                    lane.give_back(streams);
                }
            }
            return Err(self.fail(dead));
        }
        let lent: Vec<Vec<WorkerStream>> = lent.into_iter().flatten().collect();
        let owned = |s: usize| {
            lent[self.route[s]]
                .iter()
                .find(|ws| usize::from(ws.stream) == s)
                .expect("every worker-built stream has one worker stream")
        };
        let mut stats = self.totals();
        for (s, totals) in stats.streams.iter_mut().enumerate() {
            if self.local[s].is_none() {
                totals.busy_ns = owned(s).busy_ns;
            }
        }
        let grammars = std::array::from_fn(|s| match &self.local[s] {
            Some(seq) => seq,
            None => &owned(s).seq,
        });
        let out = f(grammars, &stats);
        for (lane, streams) in self.lanes.iter().zip(lent) {
            lane.give_back(streams);
        }
        Ok(out)
    }

    /// Flushes, shuts the workers down and hands back the grammars (in
    /// stream order) plus the pipeline totals.
    ///
    /// # Errors
    ///
    /// A dead worker, named with its streams.
    pub(crate) fn into_grammars(
        mut self,
    ) -> Result<([Sequitur; N], GrammarPipelineStats), PipelineError> {
        self.flush();
        self.check()?;
        for lane in &mut self.lanes {
            drop(lane.tx.take());
        }
        let mut grammars = std::mem::replace(&mut self.local, std::array::from_fn(|_| None));
        let mut stats = self.totals();
        for lane in 0..self.workers.len() {
            let Some(handle) = self.workers[lane].take() else {
                continue;
            };
            match handle.join() {
                Ok(streams) => {
                    for ws in streams {
                        stats.streams[usize::from(ws.stream)].busy_ns = ws.busy_ns;
                        grammars[usize::from(ws.stream)] = Some(ws.seq);
                    }
                }
                Err(payload) => return Err(self.failed(lane, panic_message(payload))),
            }
        }
        Ok((grammars.map(Option::unwrap_or_default), stats))
    }

    /// The feed-side totals; worker busy time is filled in by the
    /// caller from the workers' own streams.
    fn totals(&self) -> GrammarPipelineStats {
        GrammarPipelineStats {
            workers: self.lanes.len() as u64,
            streams: self.stats.to_vec(),
        }
    }

    fn check(&self) -> Result<(), PipelineError> {
        self.failure.clone().map_or(Ok(()), Err)
    }

    /// Reaps the dead worker behind `lane` for its panic message.
    fn fail(&mut self, lane: usize) -> PipelineError {
        drop(self.lanes[lane].tx.take());
        let message = match self.workers[lane].take().map(JoinHandle::join) {
            Some(Err(payload)) => panic_message(payload),
            _ => "exited before its grammars were drained".to_owned(),
        };
        self.failed(lane, message)
    }

    /// Records (and returns) the failure of the worker behind `lane`,
    /// naming the streams it owned.
    fn failed(&mut self, lane: usize, message: String) -> PipelineError {
        let owned: Vec<&str> = (0..N)
            .filter(|&s| self.local[s].is_none() && self.route[s] == lane)
            .map(|s| self.stats[s].stream)
            .collect();
        let err = PipelineError {
            worker: format!("grammar worker {lane} ({})", owned.join(", ")),
            message,
        };
        self.failure = Some(err.clone());
        err
    }

    /// Test fault hook: ships the worker owning stream `s` a batch
    /// tagged with a stream nobody owns, which panics that worker.
    #[cfg(test)]
    pub(crate) fn inject_worker_panic(&mut self, s: usize) {
        let mut stats = GrammarStreamStats::default();
        self.lanes[self.route[s]].ship(u8::MAX, vec![0], &mut stats);
    }
}

impl<const N: usize> Drop for Streams<N> {
    fn drop(&mut self) {
        // Unblock and reap the workers if `into_grammars` never ran.
        for lane in &mut self.lanes {
            drop(lane.tx.take());
        }
        for handle in self.workers.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
    }
}

/// [`RasgProfiler`] with grammar construction moved onto one worker
/// thread, overlapping record-grammar growth with the probe side.
///
/// Implements [`ProbeSink`] directly, like the sequential RASG
/// baseline — no object translation is involved.
#[derive(Debug)]
pub struct PipelinedRasg {
    records: Streams<1>,
    accesses: u64,
}

impl PipelinedRasg {
    /// Spawns an empty pipelined RASG profiler (always one worker —
    /// there is a single record stream).
    ///
    /// # Panics
    ///
    /// Panics if the worker thread cannot be spawned.
    #[must_use]
    pub fn spawn() -> Self {
        let batches = (SYMBOL_BATCH, QUEUE_BATCHES);
        PipelinedRasg {
            records: Streams::spawn([Sequitur::new()], ["records"], 1, 1, batches),
            accesses: 0,
        }
    }

    /// Flushes remaining records, shuts the worker down and returns
    /// the sequential [`RasgProfiler`] plus the worker totals.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when the grammar worker panicked.
    pub fn try_join(self) -> Result<(RasgProfiler, GrammarPipelineStats), PipelineError> {
        let ([records], stats) = self.records.into_grammars()?;
        let accesses = self.accesses;
        Ok((RasgProfiler { records, accesses }, stats))
    }
}

impl ProbeSink for PipelinedRasg {
    fn access(&mut self, ev: AccessEvent) {
        self.records.push([fuse(ev.instr.0, ev.addr.0)]);
        self.accesses += 1;
    }

    fn finish(&mut self) {
        self.records.flush();
    }
}

/// [`HybridProfiler`] with grammar construction spread over `workers`
/// threads, partitioned by the profiler's own vertical-decomposition
/// key (the instruction). Each instruction's sub-stream reaches one
/// worker complete and in order, so the
/// [`ShardableSink::merge`] at join reassembles state byte-identical
/// to sequential construction — the same argument as the sharded
/// collection pipeline, applied to the grammar stage.
#[derive(Debug)]
pub struct PipelinedHybrid {
    lanes: Vec<Lane<HybridWorker>>,
    /// Per-lane tuple batch under construction.
    pending: Vec<Vec<OrTuple>>,
    /// Per-lane feed totals (`symbols` counts tuples).
    stats: Vec<GrammarStreamStats>,
    workers: Vec<JoinHandle<HybridWorker>>,
}

impl PipelinedHybrid {
    /// Spawns `workers` hybrid grammar workers.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a thread cannot be spawned.
    #[must_use]
    pub fn spawn(workers: usize) -> Self {
        assert!(workers > 0, "at least one grammar worker is required");
        let (lanes, handles) = (0..workers)
            .map(|i| spawn_worker(i, HybridWorker::default(), QUEUE_BATCHES))
            .unzip();
        PipelinedHybrid {
            lanes,
            pending: (0..workers)
                .map(|_| Vec::with_capacity(SYMBOL_BATCH))
                .collect(),
            stats: vec![GrammarStreamStats::default(); workers],
            workers: handles,
        }
    }

    fn flush_lane(&mut self, lane: usize) {
        if !self.pending[lane].is_empty() {
            let batch = std::mem::take(&mut self.pending[lane]);
            self.pending[lane] = self.lanes[lane].ship(0, batch, &mut self.stats[lane]);
        }
    }

    /// Flushes remaining tuples, shuts the workers down and merges the
    /// per-worker profilers into the sequential-equivalent
    /// [`HybridProfiler`].
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] naming the worker when a grammar
    /// worker panicked.
    pub fn try_join(mut self) -> Result<(HybridProfiler, GrammarPipelineStats), PipelineError> {
        self.finish();
        for lane in &mut self.lanes {
            drop(lane.tx.take());
        }
        let mut parts = Vec::with_capacity(self.workers.len());
        let mut busy_ns = 0u64;
        for (i, handle) in self.workers.drain(..).enumerate() {
            let worker = handle.join().map_err(|payload| PipelineError {
                worker: format!("grammar worker {i}"),
                message: panic_message(payload),
            })?;
            parts.push(worker.sink);
            busy_ns += worker.busy_ns;
        }
        let stats = GrammarPipelineStats {
            workers: self.lanes.len() as u64,
            streams: vec![GrammarStreamStats {
                stream: "instructions",
                symbols: self.stats.iter().map(|s| s.symbols).sum(),
                batches: self.stats.iter().map(|s| s.batches).sum(),
                stalls: self.stats.iter().map(|s| s.stalls).sum(),
                busy_ns,
            }],
        };
        Ok((HybridProfiler::merge(parts), stats))
    }
}

impl OrSink for PipelinedHybrid {
    fn tuple(&mut self, t: &OrTuple) {
        let lane = (HybridProfiler::shard_key(t) % self.lanes.len() as u64) as usize;
        self.stats[lane].symbols += 1;
        self.pending[lane].push(*t);
        if self.pending[lane].len() >= SYMBOL_BATCH {
            self.flush_lane(lane);
        }
    }

    fn finish(&mut self) {
        for lane in 0..self.lanes.len() {
            self.flush_lane(lane);
        }
    }
}

impl Drop for PipelinedHybrid {
    fn drop(&mut self) {
        for lane in &mut self.lanes {
            drop(lane.tx.take());
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}
