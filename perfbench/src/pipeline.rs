//! Pieces every workload shares: recording inputs, the slow reference
//! translation, frame timing, durable writes, and the run's checks.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use orprof::allocsim::AllocatorKind;
use orprof::core::{Cdc, GroupId, ObjectSerial, Omc, OrTuple, Timestamp, VecOrSink};
use orprof::format::{AtomicFile, RetryWrite};
use orprof::trace::{
    replay, AccessEvent, AllocEvent, FreeEvent, ProbeEvent, ProbeSink, TraceWriter, VecSink,
};
use orprof::workloads::{spec_suite, RunConfig, Tracer};

use crate::probe::HostProbe;

/// Events per frame: the unit whose latency `latency_p50_ms` and
/// `latency_p95_ms` report, on every workload. A quarter of the
/// daemon's wire frame, so a tenant's explicit flush is never preempted
/// by the client's own; larger frames would leave too few frames for a
/// tail that rare scheduler stalls do not decide.
pub const FRAME_EVENTS: usize = orprof::orpd::FRAME_EVENTS / 4;

/// The fewest frames a run times: enough for fifty beyond the p95.
pub const MIN_FRAMES: usize = 1000;

/// Runs the timed loop takes at least, whatever `--seconds` says.
pub const MIN_RUNS: usize = 3;

/// Times the input recording is repeated to report `setup_s`: each
/// set-up is short, so the median needs many of them to hold still.
pub const SETUPS: usize = 11;

/// The second heap seed the seed check records under.
#[must_use]
pub fn other_seed(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15
}

/// The program's view of a heap seed: randomizing placement, so raw
/// addresses (and with them OMC lookup cost) move with the seed while
/// object-relative profiles must not.
#[must_use]
pub fn run_config(seed: u64) -> RunConfig {
    RunConfig {
        allocator: AllocatorKind::Randomizing,
        heap_seed: seed,
        ..RunConfig::default()
    }
}

/// Records one SPEC-like workload's probe stream into an in-memory
/// `.orpt` trace container.
///
/// # Errors
///
/// Unknown workload names and trace-writer failures.
pub fn record(name: &str, scale: u32, seed: u64) -> Result<Vec<u8>, String> {
    let workload = spec_suite(scale)
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let mut writer = TraceWriter::new(Vec::new()).map_err(|e| format!("record {name}: {e}"))?;
    let mut tracer = Tracer::new(&run_config(seed), &mut writer);
    workload.run(&mut tracer);
    tracer.finish();
    writer
        .into_inner()
        .map_err(|e| format!("record {name}: {e}"))
}

/// Times `SETUPS` calls of `setup`, each scaled to the reference host
/// by the probes around it, keeping the last result.
///
/// # Errors
///
/// The first failing call's or probe's error.
pub fn timed_setup<T>(
    probe: &mut HostProbe,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    let mut probed = probe.measure()?;
    for _ in 0..SETUPS {
        drop(last.take());
        let clock = Instant::now();
        last = Some(setup()?);
        let elapsed = clock.elapsed().as_secs_f64();
        times.push(elapsed * probe.rescale(&mut probed)?);
    }
    Ok((last.expect("SETUPS > 0"), times))
}

/// Whether the timed loop should start another run.
#[must_use]
pub fn more_runs(start: Instant, budget: Duration, runs: usize, frames: usize) -> bool {
    runs < MIN_RUNS || frames < MIN_FRAMES || start.elapsed() < budget
}

/// The slow reference translation: every access goes through
/// [`Omc::translate_reference`], the ordered-map predecessor query,
/// on one thread, and the tuples are kept in order.
#[derive(Debug, Default)]
pub struct ReferenceCdc {
    omc: Omc,
    tuples: Vec<OrTuple>,
}

impl ReferenceCdc {
    #[must_use]
    pub fn into_parts(self) -> (Omc, Vec<OrTuple>) {
        (self.omc, self.tuples)
    }
}

impl ProbeSink for ReferenceCdc {
    fn access(&mut self, ev: AccessEvent) {
        if let Some((group, object, offset)) = self.omc.translate_reference(ev.addr.0) {
            let time = Timestamp(self.tuples.len() as u64);
            self.tuples.push(OrTuple {
                instr: ev.instr,
                kind: ev.kind,
                group,
                object,
                offset,
                time,
                size: ev.size,
            });
        }
    }

    fn alloc(&mut self, ev: AllocEvent) {
        let now = Timestamp(self.tuples.len() as u64);
        // Probe anomalies are tolerated and uncounted, as in `Cdc`.
        let _ = self.omc.on_alloc(ev.site, ev.base.0, ev.size, now);
    }

    fn free(&mut self, ev: FreeEvent) {
        let now = Timestamp(self.tuples.len() as u64);
        let _ = self.omc.on_free(ev.base.0, now);
    }
}

/// The reference translation of a recorded trace.
///
/// # Errors
///
/// Trace decode failures.
pub fn reference_tuples(trace: &[u8]) -> Result<(Omc, Vec<OrTuple>), String> {
    let mut cdc = ReferenceCdc::default();
    replay(&mut &trace[..], &mut cdc).map_err(|e| format!("replay: {e}"))?;
    Ok(cdc.into_parts())
}

/// A recorded trace's events, decoded into memory.
///
/// # Errors
///
/// Trace decode failures.
pub fn decode(trace: &[u8]) -> Result<Vec<ProbeEvent>, String> {
    let mut sink = VecSink::new();
    replay(&mut &trace[..], &mut sink).map_err(|e| format!("replay: {e}"))?;
    Ok(sink.into_events())
}

/// `events` through an inline `Cdc` into memory: the CDC, its sink
/// emptied, and the tuples it collected.
#[must_use]
pub fn translate(events: &[ProbeEvent]) -> (Cdc<VecOrSink>, Vec<OrTuple>) {
    let mut cdc = Cdc::new(Omc::new(), VecOrSink::new());
    for &ev in events {
        cdc.event(ev);
    }
    cdc.finish();
    let tuples = std::mem::take(cdc.sink_mut()).into_tuples();
    (cdc, tuples)
}

/// The `(instr, group, object, offset)` quadruple WHOMP's grammars
/// encode for one tuple.
#[must_use]
pub fn quad(t: &OrTuple) -> (u64, u64, u64, u64) {
    let GroupId(group) = t.group;
    let ObjectSerial(object) = t.object;
    (u64::from(t.instr.0), u64::from(group), object, t.offset)
}

/// Forwards probe events to `inner`, timing every [`FRAME_EVENTS`]
/// events as one frame.
pub struct FrameClock<'a, S: ProbeSink> {
    inner: S,
    pending: usize,
    last: Instant,
    frames: &'a mut Vec<f64>,
}

impl<'a, S: ProbeSink> FrameClock<'a, S> {
    pub fn new(inner: S, frames: &'a mut Vec<f64>) -> Self {
        FrameClock {
            inner,
            pending: 0,
            last: Instant::now(),
            frames,
        }
    }

    #[inline]
    fn tick(&mut self) {
        self.pending += 1;
        if self.pending == FRAME_EVENTS {
            let now = Instant::now();
            self.frames.push((now - self.last).as_secs_f64() * 1e3);
            self.last = now;
            self.pending = 0;
        }
    }
}

impl<S: ProbeSink> ProbeSink for FrameClock<'_, S> {
    fn access(&mut self, ev: AccessEvent) {
        self.inner.access(ev);
        self.tick();
    }

    fn alloc(&mut self, ev: AllocEvent) {
        self.inner.alloc(ev);
        self.tick();
    }

    fn free(&mut self, ev: FreeEvent) {
        self.inner.free(ev);
        self.tick();
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

/// Writes `bytes` to `dest` the way the CLI publishes artifacts: temp
/// sibling, bounded retry, fsync, atomic rename. Returns the retries.
///
/// # Errors
///
/// Any failed step; `dest` then keeps its old contents.
pub fn write_durable(dest: &Path, bytes: &[u8]) -> io::Result<u64> {
    let mut w = RetryWrite::new(AtomicFile::create(dest)?);
    w.write_all(bytes)?;
    let retries = w.retries();
    w.into_inner().commit()?;
    Ok(retries)
}

/// Serializes through a `Write`-based encoder into a fresh buffer.
///
/// # Errors
///
/// The encoder's error.
pub fn encode(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    write(&mut bytes).map_err(|e| format!("encode: {e}"))?;
    Ok(bytes)
}

/// The process's peak resident set size so far, in MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Output checks: every one is an attempted operation, and a false one
/// a failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check, reporting a failure on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Records an operation that produced `output`: it fails when it
    /// errored or its output differs from `expected`.
    pub fn output(&mut self, output: &Result<Vec<u8>, String>, expected: &[u8], what: &str) {
        match output {
            Ok(bytes) => self.check(bytes == expected, || {
                format!("{what}: output differs from the reference")
            }),
            Err(e) => self.check(false, || format!("{what}: {e}")),
        }
    }
}
