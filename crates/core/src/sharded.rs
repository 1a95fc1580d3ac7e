//! The sharded parallel collection pipeline.
//!
//! The paper's implementation note (§3.1) runs the CDC/OMC on another
//! thread than the instrumented program: "Interactions between the
//! instrumented program and the CDC/OMC components take place via
//! thread-to-thread communication". [`ShardedCdc`] is that design,
//! generalized to N profiler workers. Even at one shard it runs two
//! threads — the translator plus one worker — where the paper used one:
//!
//! ```text
//! probe side ──batches──▶ translator ──per-shard batches──▶ worker 0
//!                         (owns the OMC,                ├──▶ worker 1
//!                          fast-path translate,         ├──▶ …
//!                          time-stamps, routing)        └──▶ worker N-1
//! ```
//!
//! The translator owns the [`Omc`] and performs the cheap part — the
//! page-index/MRU fast-path translation and time-stamping — exactly as
//! a single-threaded [`Cdc`] would, so time-stamps, untracked counts
//! and probe-anomaly counts are identical by construction. Tuples are
//! then routed to workers by the profiler's **vertical-decomposition
//! key** ([`ShardableSink::shard_key`]): `instr` for WHOMP's hybrid
//! per-instruction grammars, `(instr, group)` for LEAP. Because a
//! profiler's state is partitioned by that key, every worker sees each
//! of its keys' sub-streams completely and in collection order, and the
//! deterministic merge on [`ShardedCdc::try_join`] reassembles state
//! *byte-identical* to the single-threaded run — regardless of shard
//! count or how keys were balanced across shards.
//!
//! All queues are bounded (back-pressure instead of unbounded memory),
//! and batch buffers are recycled through return channels instead of
//! being reallocated per batch.

use std::collections::VecDeque;

use orp_trace::{AccessEvent, AllocEvent, FreeEvent, InstrId, ProbeEvent, ProbeSink};

use orp_obs::Recorder;

use crate::omc::FastU64Map;
use crate::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use crate::sync::thread::{self, JoinHandle};
use crate::{Cdc, GroupId, Omc, OrSink, OrTuple, Sampler, Timestamp};

/// Probe events per batch shipped to the translator.
#[cfg(not(loom))]
pub const EVENT_BATCH: usize = 16384;
/// Model-checking build: tiny batches, so a handful of events exercises
/// multiple channel transitions without exploding the schedule space.
#[cfg(loom)]
pub const EVENT_BATCH: usize = 2;

/// Translated tuples per batch shipped to a shard worker.
#[cfg(not(loom))]
const TUPLE_BATCH: usize = 8192;
#[cfg(loom)]
const TUPLE_BATCH: usize = 2;

/// Bounded queue depth, in batches, of every channel in the pipeline.
/// Deep enough that the probe side rarely stalls on a busy translator
/// (and, on a single hardware thread, stages run as long uninterrupted
/// stretches instead of ping-ponging per batch); still bounded, so a
/// stuck worker back-pressures the probe instead of exhausting memory.
#[cfg(not(loom))]
const QUEUE_BATCHES: usize = 32;
/// Model-checking build: depth 1 makes back-pressure (a full queue
/// blocking the sender) reachable within a few events.
#[cfg(loom)]
const QUEUE_BATCHES: usize = 1;

/// A profiler whose state is partitioned by a vertical-decomposition
/// key, making it collectable on sharded workers.
///
/// # Contract
///
/// Tuples with different [`ShardableSink::shard_key`] values must never
/// interact in the sink's state, and [`ShardableSink::merge`] over
/// parts that each consumed a *disjoint key set* (every key's tuples
/// complete and in collection order) must equal the state of a single
/// sink that consumed the whole stream. Under that contract the sharded
/// pipeline's output is byte-identical to single-threaded collection.
pub trait ShardableSink: OrSink + Send + Sized + 'static {
    /// The vertical-decomposition key partitioning this sink's state.
    fn shard_key(t: &OrTuple) -> u64;

    /// Merges shard-local states (disjoint key sets) into the combined
    /// state. `parts` is ordered by shard index.
    fn merge(parts: Vec<Self>) -> Self;
}

/// Fuses an `(instr, group)` pair into a shard key.
#[must_use]
pub fn instr_group_key(instr: InstrId, group: GroupId) -> u64 {
    (u64::from(instr.0) << 32) | u64::from(group.0)
}

impl ShardableSink for crate::VecOrSink {
    /// Any key works for a sink whose merge re-sorts globally; partition
    /// by instruction to exercise the same routing as real profilers.
    fn shard_key(t: &OrTuple) -> u64 {
        u64::from(t.instr.0)
    }

    /// Re-interleaves the shard-local streams on their (globally unique)
    /// time-stamps, restoring exact collection order.
    ///
    /// The translator stamps tuples with consecutive times `0..n` and
    /// each worker appends in translator order, so at every point
    /// exactly one run's cursor holds the next time-stamp — the merge
    /// walks the runs' heads and copies maximal consecutive chunks,
    /// never comparing tuple against tuple. Parts with arbitrary
    /// time-stamps (no run offering the expected next time) fall back
    /// to a comparison sort of the concatenation.
    fn merge(parts: Vec<Self>) -> Self {
        let mut runs: Vec<Vec<OrTuple>> = parts.into_iter().map(Self::into_tuples).collect();
        // Shards that saw no keys (fewer keys than shards) contribute
        // empty runs.
        runs.retain(|run| !run.is_empty());
        if runs.len() <= 1 {
            return crate::VecOrSink::from_tuples(runs.pop().unwrap_or_default());
        }
        let total: usize = runs.iter().map(Vec::len).sum();
        let mut out: Vec<OrTuple> = Vec::with_capacity(total);
        let mut cursors = vec![0usize; runs.len()];
        'dense: while out.len() < total {
            let next = out.len() as u64;
            for (run, cursor) in runs.iter().zip(cursors.iter_mut()) {
                if run.get(*cursor).is_some_and(|t| t.time.0 == next) {
                    let start = *cursor;
                    let mut expect = next;
                    while run.get(*cursor).is_some_and(|t| t.time.0 == expect) {
                        *cursor += 1;
                        expect += 1;
                    }
                    out.extend_from_slice(&run[start..*cursor]);
                    continue 'dense;
                }
            }
            // No run offers time `next`: the streams aren't densely
            // stamped, so the structure-exploiting path doesn't apply.
            break;
        }
        if out.len() == total {
            return crate::VecOrSink::from_tuples(out);
        }
        let mut all: Vec<OrTuple> = Vec::with_capacity(total);
        for run in runs {
            all.extend(run);
        }
        all.sort_unstable_by_key(|t| t.time);
        crate::VecOrSink::from_tuples(all)
    }
}

/// A worker thread of the collection pipeline died by panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// Which thread died: `"translator"`, `"shard 3"`, or a grammar
    /// worker named with its streams.
    pub worker: String,
    /// The panic payload, if it was a string.
    pub message: String,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "collection pipeline {} panicked: {}",
            self.worker, self.message
        )
    }
}

impl std::error::Error for PipelineError {}

/// Renders a panic payload as text (panics carry `&str` or `String`
/// payloads in practice). Public so sibling pipelines built on the
/// same worker contract (e.g. `orp-whomp`'s grammar workers) report
/// dead workers the same way.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One shard lane's routing totals, as counted by the translator.
///
/// Plain integers bumped inline on the routing path; nothing here
/// calls out until [`PipelineStats::record_metrics`] runs at join.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: u64,
    /// Tuples routed to this shard.
    pub tuples: u64,
    /// Batches flushed onto this shard's queue.
    pub batches: u64,
    /// Flushes that found the queue full and had to block (the probe
    /// side out-ran this worker).
    pub stalls: u64,
    /// Tuples re-routed to the salvage fallback sink after this
    /// shard's worker died (always zero outside salvage mode).
    pub salvaged: u64,
}

/// Per-shard routing totals plus the merge cost, harvested at join.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PipelineStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
    /// Wall-clock nanoseconds spent in [`ShardableSink::merge`].
    pub merge_nanos: u64,
    /// Shards whose worker died and whose later tuples were re-routed
    /// to the fallback sink (salvage mode only; empty on a clean run).
    pub degraded_shards: Vec<u64>,
}

impl PipelineStats {
    /// Total tuples diverted to the salvage fallback across shards.
    #[must_use]
    pub fn salvaged_tuples(&self) -> u64 {
        self.shards.iter().map(|s| s.salvaged).sum()
    }

    /// Publishes the pipeline's totals (`pipeline.*`) to `rec`.
    pub fn record_metrics(&self, rec: &mut dyn Recorder) {
        for s in &self.shards {
            rec.counter("pipeline.tuples_routed", s.tuples);
            rec.counter("pipeline.batches", s.batches);
            rec.counter("pipeline.queue_stalls", s.stalls);
            rec.observe("pipeline.tuples_per_shard", s.tuples);
        }
        rec.span("pipeline.merge", self.merge_nanos);
        if !self.degraded_shards.is_empty() {
            rec.counter(
                "pipeline.degraded_shards",
                self.degraded_shards.len() as u64,
            );
            rec.counter("pipeline.salvaged_tuples", self.salvaged_tuples());
        }
    }
}

/// What the translator thread hands back at shutdown: the OMC plus the
/// counters a single-threaded [`Cdc`] would have accumulated, plus the
/// per-lane routing totals and (in salvage mode) the fallback sink
/// that absorbed tuples for dead lanes.
struct Translated<S> {
    omc: Omc,
    sampler: Sampler,
    time: u64,
    untracked: u64,
    probe_anomalies: u64,
    lane_stats: Vec<ShardStats>,
    fallback: Option<S>,
}

/// The outcome of joining a salvage-mode pipeline (see
/// [`ShardedCdc::try_join_salvage`]): the merged profile — possibly
/// degraded — plus what went wrong.
#[derive(Debug)]
pub struct SalvagedJoin<S: ShardableSink> {
    /// The merged collection: surviving shards plus the fallback sink.
    pub cdc: Cdc<S>,
    /// Routing totals; [`PipelineStats::degraded_shards`] lists the
    /// dead lanes and [`ShardStats::salvaged`] counts the diverted
    /// tuples per lane.
    pub stats: PipelineStats,
    /// One [`PipelineError`] per dead shard worker, in shard order.
    /// Empty means the run was clean and `cdc` is not degraded.
    pub degraded: Vec<PipelineError>,
}

impl<S: ShardableSink> SalvagedJoin<S> {
    /// True when every worker survived: the profile is the same as a
    /// non-salvage join would have produced.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.degraded.is_empty()
    }
}

/// The collection state a resumed pipeline continues from — the
/// contents of a checkpoint container, unpacked (see
/// [`Session::resume_sharded`](crate::Session::resume_sharded)).
#[derive(Debug)]
pub struct ResumeState<S> {
    /// The restored object management component.
    pub omc: Omc,
    /// The time-stamp counter at the checkpoint.
    pub time: Timestamp,
    /// Untracked accesses at the checkpoint.
    pub untracked: u64,
    /// Probe anomalies at the checkpoint.
    pub probe_anomalies: u64,
    /// The restored profiler state; becomes shard 0's initial sink.
    pub stem: S,
    /// Shard keys present in `stem`, pre-routed to shard 0.
    pub stem_keys: Vec<u64>,
    /// The restored sampling front-end (pass-through for checkpoints
    /// of unsampled runs).
    pub sampler: Sampler,
}

/// One shard's outbound lane: its tuple channel, the buffer-recycling
/// return channel, and the batch under construction.
struct Lane {
    tx: SyncSender<Vec<OrTuple>>,
    recycled: Receiver<Vec<OrTuple>>,
    pending: Vec<OrTuple>,
    /// Set when the worker hung up (it panicked); further tuples for
    /// this shard are dropped and the panic surfaces at join.
    dead: bool,
    /// Tuples routed here, batches flushed, and full-queue stalls.
    stats: ShardStats,
}

impl Lane {
    /// Buffers a tuple; returns a batch the dead worker could not
    /// accept, for the caller to salvage or drop.
    fn push(&mut self, t: OrTuple) -> Option<Vec<OrTuple>> {
        self.stats.tuples += 1;
        self.pending.push(t);
        if self.pending.len() >= TUPLE_BATCH {
            return self.flush();
        }
        None
    }

    /// Ships the pending batch to the worker. When the worker has hung
    /// up (it panicked), the undeliverable batch is handed back —
    /// channel errors carry the value, so nothing is lost in transit —
    /// and the caller decides whether to salvage or drop it.
    fn flush(&mut self) -> Option<Vec<OrTuple>> {
        if self.pending.is_empty() {
            return None;
        }
        let fresh = self
            .recycled
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(TUPLE_BATCH));
        let batch = std::mem::replace(&mut self.pending, fresh);
        if self.dead {
            return Some(batch);
        }
        // Try the non-blocking send first so a full queue — the worker
        // back-pressuring the translator — is observable as a stall
        // before the blocking send parks this thread.
        match self.tx.try_send(batch) {
            Ok(()) => {
                self.stats.batches += 1;
                None
            }
            Err(TrySendError::Full(batch)) => {
                self.stats.stalls += 1;
                match self.tx.send(batch) {
                    Ok(()) => {
                        self.stats.batches += 1;
                        None
                    }
                    Err(mpsc::SendError(batch)) => {
                        self.dead = true;
                        Some(batch)
                    }
                }
            }
            Err(TrySendError::Disconnected(batch)) => {
                self.dead = true;
                Some(batch)
            }
        }
    }
}

/// A probe sink collecting through the sharded pipeline described in
/// the [module docs](self).
///
/// # Examples
///
/// ```
/// use orp_core::sharded::ShardedCdc;
/// use orp_core::{Omc, Sampler, VecOrSink};
/// use orp_trace::{AccessEvent, AllocEvent, AllocSiteId, InstrId, ProbeSink, RawAddress};
///
/// let mut probe = ShardedCdc::spawn(Omc::new(), Sampler::off(), 2, false, |_| VecOrSink::new());
/// probe.alloc(AllocEvent { site: AllocSiteId(0), base: RawAddress(0x100), size: 16 });
/// probe.access(AccessEvent::load(InstrId(0), RawAddress(0x108), 8));
/// let cdc = probe.try_join().unwrap();
/// assert_eq!(cdc.sink().len(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedCdc<S: ShardableSink> {
    to_translator: Option<SyncSender<Vec<ProbeEvent>>>,
    recycled: Receiver<Vec<ProbeEvent>>,
    batch: Vec<ProbeEvent>,
    translator: Option<JoinHandle<Translated<S>>>,
    workers: VecDeque<JoinHandle<S>>,
}

impl<S: ShardableSink> ShardedCdc<S> {
    /// Spawns the translator plus `shards` worker threads; worker `i`
    /// runs the sink built by `make_sink(i)` (all must be identically
    /// configured for the merge to be meaningful).
    ///
    /// The translator consults `sampler` after each successful
    /// translation, exactly as an inline [`Cdc`] would, so a fixed-rate
    /// sampled sharded run is byte-identical to the sampled
    /// single-threaded run ([`Sampler::off`] collects every access).
    ///
    /// With `salvage`, a panicked shard worker no longer forfeits the
    /// run. Tuples the dead worker could not accept — its undeliverable
    /// batches and everything routed to its keys afterwards — are
    /// diverted to a fallback sink (built by `make_sink(shards)`) that
    /// lives in the translator, and [`ShardedCdc::try_join_salvage`]
    /// merges the surviving shards with the fallback instead of
    /// failing. Salvage is best-effort: batches already handed to the
    /// worker when it died (consumed or sitting in its queue) are lost,
    /// so a dead lane's keys are generally *partial* in the salvaged
    /// profile. Keys routed to surviving lanes are unaffected and
    /// remain byte-identical to the non-degraded run.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or a thread cannot be spawned.
    #[must_use]
    pub fn spawn(
        omc: Omc,
        sampler: Sampler,
        shards: usize,
        salvage: bool,
        mut make_sink: impl FnMut(usize) -> S,
    ) -> Self {
        assert!(shards > 0, "at least one shard worker is required");
        let sinks = (0..shards).map(&mut make_sink).collect();
        Self::launch(
            Translated {
                omc,
                sampler,
                time: 0,
                untracked: 0,
                probe_anomalies: 0,
                lane_stats: Vec::new(),
                fallback: salvage.then(|| make_sink(shards)),
            },
            Vec::new(),
            sinks,
        )
    }

    /// Continues a checkpointed collection on the sharded pipeline.
    ///
    /// The translator resumes from the restored OMC and counters. The
    /// restored profiler state (`stem`) becomes shard 0's initial sink,
    /// and every key in `stem_keys` is pre-routed to shard 0 — a key
    /// already represented in the stem must keep feeding the state that
    /// holds its prefix, so each key's sub-stream stays complete within
    /// one part and [`ShardableSink::merge`]'s disjointness contract
    /// (and with it byte-identical output) is preserved.
    ///
    /// `make_sink(i)` builds the empty sinks for shards `1..shards`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or a thread cannot be spawned.
    #[must_use]
    pub fn resume(
        state: ResumeState<S>,
        shards: usize,
        mut make_sink: impl FnMut(usize) -> S,
    ) -> Self {
        assert!(shards > 0, "at least one shard worker is required");
        let mut sinks = Vec::with_capacity(shards);
        sinks.push(state.stem);
        sinks.extend((1..shards).map(&mut make_sink));
        Self::launch(
            Translated {
                omc: state.omc,
                sampler: state.sampler,
                time: state.time.0,
                untracked: state.untracked,
                probe_anomalies: state.probe_anomalies,
                lane_stats: Vec::new(),
                fallback: None,
            },
            state.stem_keys,
            sinks,
        )
    }

    /// Spawns the pipeline threads from an initial translator state and
    /// one sink per shard.
    fn launch(init: Translated<S>, seeded_keys: Vec<u64>, sinks: Vec<S>) -> Self {
        let shards = sinks.len();
        let (probe_tx, probe_rx) = mpsc::sync_channel::<Vec<ProbeEvent>>(QUEUE_BATCHES);
        let (probe_recycle_tx, probe_recycle_rx) = mpsc::sync_channel(QUEUE_BATCHES);

        let mut lanes = Vec::with_capacity(shards);
        let mut workers = VecDeque::with_capacity(shards);
        for (shard, mut sink) in sinks.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Vec<OrTuple>>(QUEUE_BATCHES);
            let (recycle_tx, recycle_rx) = mpsc::sync_channel::<Vec<OrTuple>>(QUEUE_BATCHES);
            let handle = thread::Builder::new()
                .name(format!("orp-shard-{shard}"))
                .spawn(move || {
                    while let Ok(batch) = rx.recv() {
                        sink.tuple_batch(&batch);
                        let mut spent = batch;
                        spent.clear();
                        let _ = recycle_tx.try_send(spent);
                    }
                    sink
                })
                .expect("spawn shard worker");
            lanes.push(Lane {
                tx,
                recycled: recycle_rx,
                pending: Vec::with_capacity(TUPLE_BATCH),
                dead: false,
                stats: ShardStats {
                    shard: shard as u64,
                    ..ShardStats::default()
                },
            });
            workers.push_back(handle);
        }

        let translator = thread::Builder::new()
            .name("orp-translate".to_owned())
            .spawn(move || {
                translate_loop::<S>(init, &seeded_keys, &probe_rx, &probe_recycle_tx, &mut lanes)
            })
            .expect("spawn translator thread");

        ShardedCdc {
            to_translator: Some(probe_tx),
            recycled: probe_recycle_rx,
            batch: Vec::with_capacity(EVENT_BATCH),
            translator: Some(translator),
            workers,
        }
    }

    fn push(&mut self, ev: ProbeEvent) {
        self.batch.push(ev);
        if self.batch.len() >= EVENT_BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let fresh = self
            .recycled
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(EVENT_BATCH));
        let batch = std::mem::replace(&mut self.batch, fresh);
        if let Some(tx) = &self.to_translator {
            // A send failure means the translator died; keep accepting
            // (and dropping) events so the panic surfaces at join
            // instead of cascading into the probe side.
            if tx.send(batch).is_err() {
                self.to_translator = None;
            }
        }
    }

    /// Flushes pending events, shuts the pipeline down, merges the
    /// shard sinks and returns the finished [`Cdc`] (its sink has seen
    /// `finish`).
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] naming the thread when the
    /// translator or a shard worker panicked.
    pub fn try_join(self) -> Result<Cdc<S>, PipelineError> {
        self.try_join_stats().map(|(cdc, _)| cdc)
    }

    /// [`ShardedCdc::try_join`], additionally returning the pipeline's
    /// per-shard routing totals and merge time.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] naming the thread when the
    /// translator or a shard worker panicked.
    pub fn try_join_stats(mut self) -> Result<(Cdc<S>, PipelineStats), PipelineError> {
        self.flush();
        drop(self.to_translator.take());
        // The translator must wind down first: it owns the shard
        // senders, and dropping them releases the workers.
        let translated = match self.translator.take().expect("join called once").join() {
            Ok(t) => Ok(t),
            Err(payload) => Err(PipelineError {
                worker: "translator".to_owned(),
                message: panic_message(payload),
            }),
        };
        let mut first_error = translated.as_ref().err().cloned();
        let mut sinks = Vec::with_capacity(self.workers.len());
        for (shard, handle) in self.workers.drain(..).enumerate() {
            match handle.join() {
                Ok(sink) => sinks.push(sink),
                Err(payload) => {
                    let err = PipelineError {
                        worker: format!("shard {shard}"),
                        message: panic_message(payload),
                    };
                    first_error.get_or_insert(err);
                }
            }
        }
        if let Some(err) = first_error {
            return Err(err);
        }
        let t = translated.expect("checked above");
        let merge_start = std::time::Instant::now();
        let merged = S::merge(sinks);
        let merge_nanos = u64::try_from(merge_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut cdc = Cdc::from_parts(
            t.omc,
            merged,
            Timestamp(t.time),
            t.untracked,
            t.probe_anomalies,
        );
        cdc.set_sampler(t.sampler);
        ProbeSink::finish(&mut cdc);
        Ok((
            cdc,
            PipelineStats {
                shards: t.lane_stats,
                merge_nanos,
                degraded_shards: Vec::new(),
            },
        ))
    }

    /// Joins a salvage-mode pipeline (see [`ShardedCdc::spawn`]): dead
    /// shard workers degrade the run instead of forfeiting it. The
    /// surviving shards' sinks and
    /// the translator's fallback sink merge into the salvaged profile;
    /// each dead worker's panic is reported in
    /// [`SalvagedJoin::degraded`] and its shard index in
    /// [`PipelineStats::degraded_shards`].
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] only when the *translator* panicked
    /// — it owns the OMC, so nothing can be salvaged without it.
    pub fn try_join_salvage(mut self) -> Result<SalvagedJoin<S>, PipelineError> {
        self.flush();
        drop(self.to_translator.take());
        let t = match self.translator.take().expect("join called once").join() {
            Ok(t) => t,
            Err(payload) => {
                // Release and reap the workers before surfacing the
                // translator's panic.
                for handle in self.workers.drain(..) {
                    let _ = handle.join();
                }
                return Err(PipelineError {
                    worker: "translator".to_owned(),
                    message: panic_message(payload),
                });
            }
        };
        let mut sinks = Vec::with_capacity(self.workers.len() + 1);
        let mut degraded = Vec::new();
        let mut degraded_shards = Vec::new();
        for (shard, handle) in self.workers.drain(..).enumerate() {
            match handle.join() {
                Ok(sink) => sinks.push(sink),
                Err(payload) => {
                    degraded.push(PipelineError {
                        worker: format!("shard {shard}"),
                        message: panic_message(payload),
                    });
                    degraded_shards.push(shard as u64);
                }
            }
        }
        // The fallback is last: merge contracts order parts by shard,
        // and the fallback holds (partial) streams of dead-lane keys —
        // key sets disjoint from every surviving part.
        sinks.extend(t.fallback);
        let merge_start = std::time::Instant::now();
        let merged = S::merge(sinks);
        let merge_nanos = u64::try_from(merge_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut cdc = Cdc::from_parts(
            t.omc,
            merged,
            Timestamp(t.time),
            t.untracked,
            t.probe_anomalies,
        );
        cdc.set_sampler(t.sampler);
        ProbeSink::finish(&mut cdc);
        Ok(SalvagedJoin {
            cdc,
            stats: PipelineStats {
                shards: t.lane_stats,
                merge_nanos,
                degraded_shards,
            },
            degraded,
        })
    }

    /// [`ShardedCdc::try_join`], panicking on pipeline errors.
    ///
    /// # Panics
    ///
    /// Panics with the [`PipelineError`] description when a pipeline
    /// thread panicked.
    #[must_use]
    pub fn join(self) -> Cdc<S> {
        match self.try_join() {
            Ok(cdc) => cdc,
            Err(err) => panic!("{err}"),
        }
    }
}

/// Diverts a batch a dead worker could not accept into the salvage
/// fallback sink, or drops it when salvage mode is off.
///
/// The fallback is the pipeline's last line of defense, so it gets one
/// of its own: if the fallback sink itself panics, the translator — and
/// with it every lane's routing totals, including the salvaged count
/// accumulated so far — must survive to the join. The panic is caught,
/// the fallback is retired, and later diverted batches are dropped
/// (exactly what non-salvage mode does). `salvaged` counts only tuples
/// the fallback actually accepted.
fn salvage_batch<S: ShardableSink>(
    fallback: &mut Option<S>,
    stats: &mut ShardStats,
    batch: &[OrTuple],
) {
    if let Some(sink) = fallback.as_mut() {
        let fed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sink.tuple_batch(batch);
        }));
        if fed.is_ok() {
            stats.salvaged += batch.len() as u64;
        } else {
            *fallback = None;
        }
    }
}

/// The translator thread: replicates [`Cdc`] event handling (fast-path
/// translation, time-stamping, anomaly counting) and routes tuples to
/// shard lanes by `S::shard_key`.
fn translate_loop<S: ShardableSink>(
    init: Translated<S>,
    seeded_keys: &[u64],
    probe_rx: &Receiver<Vec<ProbeEvent>>,
    probe_recycle_tx: &SyncSender<Vec<ProbeEvent>>,
    lanes: &mut [Lane],
) -> Translated<S> {
    let shards = lanes.len();
    let Translated {
        mut omc,
        mut sampler,
        mut time,
        mut untracked,
        mut probe_anomalies,
        lane_stats: _,
        mut fallback,
    } = init;
    // First-seen round-robin key→shard assignment: deterministic for a
    // given event stream, and balance never affects the merged result
    // (the merge is a key-set union). Keys restored from a checkpoint
    // are pinned to shard 0, which holds the restored state.
    let mut routes: FastU64Map<usize> = FastU64Map::default();
    for &key in seeded_keys {
        routes.insert(key, 0);
    }
    let mut next_shard = 0usize;
    // Consecutive tuples overwhelmingly come from a handful of keys
    // (instructions running loops, often a couple of them interleaved);
    // a small recently-used memo answers those ahead of the map lookup.
    let mut route_memo: [(u64, usize); 4] = [(u64::MAX, 0); 4];
    let mut memo_slot = 0usize;
    while let Ok(events) = probe_rx.recv() {
        for ev in &events {
            match *ev {
                ProbeEvent::Access(AccessEvent {
                    instr,
                    kind,
                    addr,
                    size,
                }) => match omc.translate_cached(instr, addr.0) {
                    Some((group, object, offset)) => {
                        // Same admission decision, in the same event
                        // order, as the inline Cdc: sampled sharded
                        // collection stays byte-identical.
                        if !sampler.is_off() && !sampler.admit(instr_group_key(instr, group)) {
                            continue;
                        }
                        let tuple = OrTuple {
                            instr,
                            kind,
                            group,
                            object,
                            offset,
                            time: Timestamp(time),
                            size,
                        };
                        time += 1;
                        let key = S::shard_key(&tuple);
                        let shard = match route_memo.iter().find(|(k, _)| *k == key) {
                            Some(&(_, s)) => s,
                            None => {
                                let s = *routes.entry(key).or_insert_with(|| {
                                    let s = next_shard;
                                    next_shard = (next_shard + 1) % shards;
                                    s
                                });
                                route_memo[memo_slot] = (key, s);
                                memo_slot = (memo_slot + 1) % route_memo.len();
                                s
                            }
                        };
                        let lane = &mut lanes[shard];
                        if let Some(batch) = lane.push(tuple) {
                            salvage_batch(&mut fallback, &mut lane.stats, &batch);
                        }
                    }
                    None => untracked += 1,
                },
                ProbeEvent::Alloc(AllocEvent { site, base, size }) => {
                    if omc.on_alloc(site, base.0, size, Timestamp(time)).is_err() {
                        probe_anomalies += 1;
                    }
                }
                ProbeEvent::Free(FreeEvent { base }) => {
                    if omc.on_free(base.0, Timestamp(time)).is_err() {
                        probe_anomalies += 1;
                    }
                }
            }
        }
        let mut spent = events;
        spent.clear();
        let _ = probe_recycle_tx.try_send(spent);
    }
    for lane in lanes.iter_mut() {
        if let Some(batch) = lane.flush() {
            salvage_batch(&mut fallback, &mut lane.stats, &batch);
        }
    }
    Translated {
        omc,
        sampler,
        time,
        untracked,
        probe_anomalies,
        lane_stats: lanes.iter().map(|lane| lane.stats).collect(),
        fallback,
    }
}

impl<S: ShardableSink> ProbeSink for ShardedCdc<S> {
    fn access(&mut self, ev: AccessEvent) {
        self.push(ProbeEvent::Access(ev));
    }

    fn alloc(&mut self, ev: AllocEvent) {
        self.push(ProbeEvent::Alloc(ev));
    }

    fn free(&mut self, ev: FreeEvent) {
        self.push(ProbeEvent::Free(ev));
    }

    fn finish(&mut self) {
        self.flush();
    }
}

impl<S: ShardableSink> Drop for ShardedCdc<S> {
    fn drop(&mut self) {
        // Unblock and reap the pipeline if `try_join` was never called.
        drop(self.to_translator.take());
        if let Some(translator) = self.translator.take() {
            let _ = translator.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Omc, VecOrSink};
    use orp_trace::{AllocSiteId, RawAddress};

    fn churn_run(sink: &mut dyn ProbeSink, nodes: u64, passes: u64) {
        for k in 0..nodes {
            sink.alloc(AllocEvent {
                site: AllocSiteId((k % 3) as u32),
                base: RawAddress(0x1000 + k * 64),
                size: 48,
            });
        }
        for p in 0..passes {
            for k in 0..nodes {
                let instr = InstrId(((k + p) % 7) as u32);
                sink.access(AccessEvent::load(
                    instr,
                    RawAddress(0x1000 + k * 64 + (p % 48)),
                    1,
                ));
            }
            // Untracked access and a mid-stream realloc.
            sink.access(AccessEvent::load(InstrId(99), RawAddress(0x10), 1));
            sink.free(FreeEvent {
                base: RawAddress(0x1000 + (p % nodes) * 64),
            });
            sink.alloc(AllocEvent {
                site: AllocSiteId(3),
                base: RawAddress(0x1000 + (p % nodes) * 64),
                size: 32,
            });
        }
        sink.finish();
    }

    #[test]
    fn sharded_collection_is_identical_to_inline_collection() {
        let mut inline = Cdc::new(Omc::new(), VecOrSink::new());
        churn_run(&mut inline, 50, 40);

        for shards in [1, 2, 3, 8] {
            let mut sharded = ShardedCdc::spawn(Omc::new(), Sampler::off(), shards, false, |_| {
                VecOrSink::new()
            });
            churn_run(&mut sharded, 50, 40);
            let cdc = sharded.try_join().expect("pipeline healthy");
            assert_eq!(
                cdc.sink().tuples(),
                inline.sink().tuples(),
                "{shards} shards"
            );
            assert_eq!(cdc.time(), inline.time());
            assert_eq!(cdc.untracked(), inline.untracked());
            assert_eq!(cdc.probe_anomalies(), inline.probe_anomalies());
        }
    }

    #[test]
    fn pipeline_stats_account_for_every_routed_tuple() {
        let mut sharded =
            ShardedCdc::spawn(Omc::new(), Sampler::off(), 3, false, |_| VecOrSink::new());
        churn_run(&mut sharded, 50, 40);
        let (cdc, stats) = sharded.try_join_stats().expect("pipeline healthy");
        assert_eq!(stats.shards.len(), 3);
        let routed: u64 = stats.shards.iter().map(|s| s.tuples).sum();
        assert_eq!(routed, cdc.sink().len() as u64, "every tuple counted");
        for (i, s) in stats.shards.iter().enumerate() {
            assert_eq!(s.shard, i as u64);
            assert!(
                s.tuples == 0 || s.batches > 0,
                "a shard with tuples flushed at least one batch: {s:?}"
            );
        }
    }

    #[test]
    fn panicking_shard_worker_is_reported_by_name() {
        #[derive(Debug)]
        struct Grenade;
        impl OrSink for Grenade {
            fn tuple(&mut self, _: &OrTuple) {
                panic!("sink exploded");
            }
        }
        impl ShardableSink for Grenade {
            fn shard_key(t: &OrTuple) -> u64 {
                u64::from(t.instr.0)
            }
            fn merge(_: Vec<Self>) -> Self {
                Grenade
            }
        }
        let mut sharded = ShardedCdc::spawn(Omc::new(), Sampler::off(), 2, false, |_| Grenade);
        sharded.alloc(AllocEvent {
            site: AllocSiteId(0),
            base: RawAddress(0x100),
            size: 64,
        });
        sharded.access(AccessEvent::load(InstrId(0), RawAddress(0x100), 8));
        let err = sharded.try_join().expect_err("worker must have died");
        assert_eq!(err.worker, "shard 0");
        assert!(err.message.contains("sink exploded"), "{err}");
        assert!(err.to_string().contains("shard 0"));
    }

    /// A sink that panics on its first tuple when armed, recording
    /// into a [`VecOrSink`] otherwise. Deterministic: shard 1's worker
    /// always dies on its first delivered batch.
    #[derive(Debug)]
    struct FusedVec {
        armed: bool,
        inner: VecOrSink,
    }
    impl OrSink for FusedVec {
        fn tuple(&mut self, t: &OrTuple) {
            assert!(!self.armed, "armed sink detonated");
            self.inner.tuple(t);
        }
    }
    impl ShardableSink for FusedVec {
        fn shard_key(t: &OrTuple) -> u64 {
            u64::from(t.instr.0)
        }
        fn merge(parts: Vec<Self>) -> Self {
            FusedVec {
                armed: false,
                inner: VecOrSink::merge(parts.into_iter().map(|p| p.inner).collect()),
            }
        }
    }

    #[test]
    fn salvage_mode_survives_a_dead_worker_and_keeps_surviving_lanes_exact() {
        // Reference: the same stream collected inline.
        let mut inline = Cdc::new(Omc::new(), VecOrSink::new());
        // Two keys with 2 shards: instr 0 is first-seen → shard 0
        // (survives), instr 1 → shard 1 (armed sink, dies on its first
        // batch).
        let alloc = AllocEvent {
            site: AllocSiteId(0),
            base: RawAddress(0x1000),
            size: 64,
        };
        let wave = |sink: &mut dyn ProbeSink| {
            for i in 0..(TUPLE_BATCH as u64 + 256) {
                sink.access(AccessEvent::load(
                    InstrId(0),
                    RawAddress(0x1000 + i % 64),
                    1,
                ));
                sink.access(AccessEvent::load(
                    InstrId(1),
                    RawAddress(0x1000 + i % 64),
                    1,
                ));
            }
        };
        inline.alloc(alloc);
        wave(&mut inline);
        wave(&mut inline);
        inline.finish();

        let mut sharded = ShardedCdc::spawn(Omc::new(), Sampler::off(), 2, true, |i| FusedVec {
            armed: i == 1,
            inner: VecOrSink::new(),
        });
        sharded.alloc(alloc);
        wave(&mut sharded);
        // Ship wave 1 to the translator, then give shard 1's worker time to
        // receive its first batch, die, and drop its receiver, so wave 2's
        // flushes bounce.
        sharded.finish();
        std::thread::sleep(std::time::Duration::from_millis(100));
        wave(&mut sharded);
        let join = sharded.try_join_salvage().expect("translator survived");

        assert!(!join.is_clean());
        assert_eq!(join.degraded.len(), 1);
        assert_eq!(join.degraded[0].worker, "shard 1");
        assert!(join.degraded[0].message.contains("detonated"));
        assert_eq!(join.stats.degraded_shards, vec![1]);

        // The surviving lane's key is byte-identical to the inline run.
        let survived: Vec<&OrTuple> = join
            .cdc
            .sink()
            .inner
            .tuples()
            .iter()
            .filter(|t| t.instr == InstrId(0))
            .collect();
        let reference: Vec<&OrTuple> = inline
            .sink()
            .tuples()
            .iter()
            .filter(|t| t.instr == InstrId(0))
            .collect();
        assert_eq!(survived, reference, "surviving lane degraded");

        // Everything else in the profile came through the fallback, and
        // the stats account for exactly those tuples.
        let salvaged_in_profile = join.cdc.sink().inner.len() - survived.len();
        assert_eq!(join.stats.salvaged_tuples(), salvaged_in_profile as u64);
        assert_eq!(join.stats.shards[1].salvaged, salvaged_in_profile as u64);
        assert_eq!(join.stats.shards[0].salvaged, 0);
        assert!(
            salvaged_in_profile > 0,
            "wave 2 should have bounced off the dead lane into the fallback"
        );
    }

    #[test]
    fn salvage_mode_clean_run_matches_strict_join() {
        let mut strict =
            ShardedCdc::spawn(Omc::new(), Sampler::off(), 3, false, |_| VecOrSink::new());
        churn_run(&mut strict, 50, 40);
        let reference = strict.try_join().expect("pipeline healthy");

        let mut salvaging =
            ShardedCdc::spawn(Omc::new(), Sampler::off(), 3, true, |_| VecOrSink::new());
        churn_run(&mut salvaging, 50, 40);
        let join = salvaging.try_join_salvage().expect("pipeline healthy");
        assert!(join.is_clean());
        assert!(join.stats.degraded_shards.is_empty());
        assert_eq!(join.stats.salvaged_tuples(), 0);
        assert_eq!(join.cdc.sink().tuples(), reference.sink().tuples());
        assert_eq!(join.cdc.time(), reference.time());
    }

    #[test]
    fn drop_without_join_does_not_hang() {
        let mut sharded =
            ShardedCdc::spawn(Omc::new(), Sampler::off(), 4, false, |_| VecOrSink::new());
        sharded.access(AccessEvent::load(InstrId(0), RawAddress(0x100), 8));
        drop(sharded);
    }

    #[test]
    fn instr_group_key_is_injective_on_the_id_spaces() {
        let a = instr_group_key(InstrId(1), GroupId(2));
        let b = instr_group_key(InstrId(2), GroupId(1));
        assert_ne!(a, b);
        assert_eq!(instr_group_key(InstrId(0), GroupId(0)), 0);
    }
}
