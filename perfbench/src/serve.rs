//! The `serve-leap` workload: an in-process `orpd` daemon with its
//! default 64Ki-event durable checkpoints, driven by two tenant
//! connections in a closed loop. Each tenant sends its next frame when
//! the previous flush returns and runs sessions back to back over four
//! recorded traces with different working sets.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use orprof::core::{Cdc, OrSink, Session};
use orprof::format::Hello;
use orprof::leap::LeapProfiler;
use orprof::orpd::{Daemon, DaemonConfig, OrpdStats, TenantClient, DONE_CLEAN};
use orprof::trace::{replay, AccessEvent, AllocEvent, FreeEvent, ProbeEvent, ProbeSink};

use crate::ledger::Ledger;
use crate::pipeline::{
    decode, encode, other_seed, peak_rss_mib, record, translate, Checks, FRAME_EVENTS, MIN_FRAMES,
    SETUPS,
};
use crate::report::{traced_loop, EndToEnd, Metric, Samples, PER_LAYER};
use crate::Ctx;

/// The tenants' traces: program and scale.
const TRACES: [(&str, u32); 4] = [
    ("164.gzip", 8),
    ("186.crafty", 1),
    ("197.parser", 2),
    ("256.bzip2", 2),
];

/// Concurrent tenant connections in the untraced run.
const TENANTS: usize = 2;

/// Cycles (one session per trace) each tenant runs at least.
const MIN_CYCLES: usize = 2;

fn record_all(seed: u64) -> Result<Vec<Vec<u8>>, String> {
    TRACES
        .iter()
        .map(|&(program, scale)| record(program, scale, seed))
        .collect()
}

/// The profile an inline `Session` makes of the same events.
fn inline_profile(trace: &[u8]) -> Result<Vec<u8>, String> {
    let mut session = Session::new(LeapProfiler::new());
    replay(&mut &trace[..], &mut session).map_err(|e| format!("replay: {e}"))?;
    encode(|w| session.finalize(w))
}

/// A tenant connection fed one probe event at a time, flushing every
/// [`FRAME_EVENTS`] events and timing how long each flush blocks.
struct Feed<'a> {
    client: TenantClient,
    pending: usize,
    events: u64,
    frames: &'a mut Vec<f64>,
    ledger: Option<&'a mut Ledger>,
    error: Option<String>,
}

impl Feed<'_> {
    fn push(&mut self, ev: ProbeEvent) {
        if self.error.is_some() {
            return;
        }
        self.events += 1;
        self.pending += 1;
        if let Err(e) = self.client.event(ev) {
            self.error = Some(e.to_string());
        } else if self.pending == FRAME_EVENTS {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.pending == 0 || self.error.is_some() {
            return;
        }
        self.pending = 0;
        let Feed {
            client,
            frames,
            ledger,
            ..
        } = self;
        let clock = Instant::now();
        let flushed = match ledger {
            Some(l) => l.span("orpd.flush", |_| client.flush_frame()),
            None => client.flush_frame(),
        };
        frames.push(clock.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = flushed {
            self.error = Some(e.to_string());
        }
    }

    /// Ends the session; it counts only when the daemon finished it
    /// clean with every event accounted for.
    fn done(mut self) -> Result<u64, String> {
        self.flush();
        if let Some(e) = self.error {
            return Err(e);
        }
        let (client, events) = (self.client, self.events);
        let done = match self.ledger {
            Some(l) => l.span("orpd.finish", |_| client.finish()),
            None => client.finish(),
        }
        .map_err(|e| e.to_string())?;
        if done.status != DONE_CLEAN || done.events != events || done.salvaged != 0 {
            return Err(format!(
                "session ended with status {} after {} of {events} events ({} salvaged)",
                done.status, done.events, done.salvaged
            ));
        }
        Ok(events)
    }
}

impl ProbeSink for Feed<'_> {
    fn access(&mut self, ev: AccessEvent) {
        self.push(ev.into());
    }

    fn alloc(&mut self, ev: AllocEvent) {
        self.push(ev.into());
    }

    fn free(&mut self, ev: FreeEvent) {
        self.push(ev.into());
    }

    fn finish(&mut self) {
        self.flush();
    }
}

fn connect<'a>(
    socket: &Path,
    tenant: &str,
    frames: &'a mut Vec<f64>,
    ledger: Option<&'a mut Ledger>,
) -> Result<Feed<'a>, String> {
    let hello = Hello::new(tenant).map_err(|e| e.to_string())?;
    let client = TenantClient::connect(socket, &hello).map_err(|e| format!("{tenant}: {e}"))?;
    Ok(Feed {
        client,
        pending: 0,
        events: 0,
        frames,
        ledger,
        error: None,
    })
}

/// Streams one trace's events as one tenant session: `events`.
fn stream(
    socket: &Path,
    tenant: &str,
    events: &[ProbeEvent],
    frames: &mut Vec<f64>,
) -> Result<u64, String> {
    let mut feed = connect(socket, tenant, frames, None)?;
    for &ev in events {
        feed.push(ev);
    }
    feed.done()
}

/// The recorded traces' events, decoded once in set-up so that the
/// tenants spend their time on the wire rather than on decoding.
fn decode_all(traces: &[Vec<u8>]) -> Result<Vec<Vec<ProbeEvent>>, String> {
    traces.iter().map(|trace| decode(trace)).collect()
}

/// One tenant's closed loop in the untraced run, its times scaled to
/// the reference host by the probes around each cycle.
#[derive(Default)]
struct TenantLog {
    /// Events per second over each cycle of four sessions, frame
    /// times, and the probes taken after each cycle.
    e2e: EndToEnd,
    /// Tenant name, trace index and outcome of every session.
    sessions: Vec<(String, usize, Result<u64, String>)>,
}

/// What the tenant loops share: frames sent and cycles finished by
/// either tenant, and the peak RSS read once both tenants' first
/// [`MIN_CYCLES`] cycles are done. The daemon keeps each finished
/// connection's thread until shutdown, so its memory grows with the
/// sessions served; reading it after a fixed amount of work keeps the
/// figure from depending on how fast the run went.
#[derive(Default)]
struct Progress {
    frames: AtomicUsize,
    cycles: AtomicUsize,
    peak_rss_mib: OnceLock<Option<f64>>,
}

/// Runs tenant `id`'s cycles until the time budget is spent and enough
/// cycles and frames are in, probing the host before the first cycle
/// and after each one.
///
/// # Errors
///
/// When the host cannot be probed.
fn tenant_loop(
    id: usize,
    ctx: &Ctx,
    socket: &Path,
    traces: &[Vec<ProbeEvent>],
    progress: &Progress,
) -> Result<TenantLog, String> {
    let mut log = TenantLog::default();
    let mut probed = ctx.probe()?.measure()?;
    let start = Instant::now();
    let mut cycles = 0;
    while cycles < MIN_CYCLES
        || start.elapsed() < ctx.budget
        || progress.frames.load(Ordering::Relaxed) < MIN_FRAMES
    {
        let first = log.e2e.frames.len();
        let clock = Instant::now();
        let mut events = 0;
        for k in 0..traces.len() {
            let index = (id + k) % traces.len();
            let tenant = format!("t{id}-c{cycles}-s{index}");
            let before = log.e2e.frames.len();
            let outcome = stream(socket, &tenant, &traces[index], &mut log.e2e.frames);
            progress
                .frames
                .fetch_add(log.e2e.frames.len() - before, Ordering::Relaxed);
            events += outcome.as_ref().map_or(0, |n| *n);
            log.sessions.push((tenant, index, outcome));
        }
        let seconds = clock.elapsed().as_secs_f64();
        let scale = ctx.probe()?.rescale(&mut probed)?;
        log.e2e.scaled(seconds, events, first, scale, probed);
        cycles += 1;
        if progress.cycles.fetch_add(1, Ordering::Relaxed) + 1 == TENANTS * MIN_CYCLES {
            progress.peak_rss_mib.get_or_init(peak_rss_mib);
        }
    }
    Ok(log)
}

/// Served profile bytes of `tenant`, from the daemon's artifact dir.
fn served(dir: &Path, tenant: &str) -> Result<Vec<u8>, String> {
    let path = dir.join(format!("{tenant}.orp"));
    std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// The traced run's untraced twin, doing the same work: per trace, the
/// inline session's profile, then the same events as one tenant
/// session; the four served profiles back to back.
fn single_tenant(
    socket: &Path,
    dir: &Path,
    traces: &[Vec<u8>],
    events: &[Vec<ProbeEvent>],
    tag: &str,
) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    for (i, (trace, events)) in traces.iter().zip(events).enumerate() {
        let inline = inline_profile(trace)?;
        let tenant = format!("{tag}-s{i}");
        stream(socket, &tenant, events, &mut Vec::new())?;
        let profile = served(dir, &tenant)?;
        if profile != inline {
            return Err("a served profile differs from the inline session's".to_owned());
        }
        out.extend(profile);
    }
    Ok(out)
}

/// The traced run: per trace, the daemon's server-side work staged
/// inline (decode, translate, LMAD, checkpoint, encode), then the same
/// events streamed as one tenant session with its flushes and finish
/// in spans. Daemon counters are read as deltas around the run.
fn staged(
    daemon: &Daemon,
    dir: &Path,
    traces: &[Vec<u8>],
    tag: &str,
    l: &mut Ledger,
    s: &mut Samples,
) -> Result<Vec<u8>, String> {
    let stats = daemon.stats();
    let counters = |st: &OrpdStats| {
        [
            &st.frames,
            &st.stalls,
            &st.checkpoints,
            &st.checkpoint_nanos,
        ]
        .map(OrpdStats::get)
    };
    let before = counters(stats);
    let mut tenants = Vec::new();
    let mut inline = Vec::new();
    // Counts summed over the four traces: decode bytes, tuples, memo
    // hits, memo lookups, untracked accesses, streams, checkpoint bytes.
    let mut totals = [0u64; 7];
    l.span("run", |l| {
        for (i, trace) in traces.iter().enumerate() {
            let events = l.span("trace.decode", |_| decode(trace))?;
            let (cdc, tuples) = l.span("core.translate", |_| translate(&events));
            let (memo, tuple_count) = (cdc.omc().translate_stats(), tuples.len() as u64);
            let profiler = l.span("leap.lmad", |_| {
                let mut p = LeapProfiler::new();
                p.tuple_batch(&tuples);
                p.finish();
                drop(tuples);
                p
            });
            let (time, untracked, anomalies) = (cdc.time(), cdc.untracked(), cdc.probe_anomalies());
            let omc = cdc.into_parts().0;
            let streams = profiler.stream_count() as u64;
            let mut session =
                Session::from_cdc(Cdc::from_parts(omc, profiler, time, untracked, anomalies));
            let checkpoint = l.span("core.checkpoint", |_| encode(|w| session.checkpoint(w)))?;
            inline.extend(l.span("format.encode", |_| encode(|w| session.finalize(w)))?);
            let counts = [
                trace.len() as u64,
                tuple_count,
                memo.memo_hits,
                memo.memo_hits + memo.memo_misses,
                untracked,
                streams,
                checkpoint.len() as u64,
            ];
            for (total, n) in totals.iter_mut().zip(counts) {
                *total += n;
            }
            let tenant = format!("{tag}-s{i}");
            l.span("orpd.client", |l| {
                let mut frames = Vec::new();
                let mut feed = connect(daemon.socket(), &tenant, &mut frames, Some(l))?;
                for ev in events {
                    feed.push(ev);
                }
                feed.done()
            })?;
            tenants.push(tenant);
        }
        Ok::<_, String>(())
    })?;
    let [decode_bytes, tuples, hits, lookups, untracked, streams, checkpoint_bytes] =
        totals.map(|n| n as f64);
    s.push("trace.decode_bytes", decode_bytes);
    s.push("core.tuples", tuples);
    s.push("core.memo_hit_rate", hits / lookups.max(1.0));
    s.push("core.untracked", untracked);
    s.push("leap.streams", streams);
    s.push("core.checkpoint_bytes", checkpoint_bytes);
    let after = counters(stats);
    let [frames, stalls, checkpoints, checkpoint_nanos] =
        [0, 1, 2, 3].map(|i| (after[i] - before[i]) as f64);
    s.push("orpd.frames", frames);
    s.push("orpd.stall_ratio", stalls / frames.max(1.0));
    s.push("orpd.checkpoints", checkpoints);
    s.push("orpd.checkpoint_s", checkpoint_nanos / 1e9);
    let mut out = Vec::new();
    for tenant in &tenants {
        out.extend(served(dir, tenant)?);
    }
    if out != inline {
        return Err("a served profile differs from the inline session's".to_owned());
    }
    Ok(out)
}

/// Runs `serve-leap` for `ctx`, returning its metrics and runs.
///
/// # Errors
///
/// Set-up failures (recording, daemon start); failed sessions and
/// output mismatches are counted in `checks` instead.
pub fn run(ctx: &Ctx, checks: &mut Checks) -> Result<(Vec<Metric>, usize), String> {
    let socket = ctx.work.join("orpd.sock");
    let dir = ctx.work.join("tenants");
    let mut setup = Vec::with_capacity(SETUPS);
    let mut started = None;
    let mut probed = ctx.probe()?.measure()?;
    for _ in 0..SETUPS {
        if let Some((_, _, daemon)) = started.take() {
            Daemon::stop(daemon).map_err(|e| format!("stop daemon: {e}"))?;
        }
        let clock = Instant::now();
        let traces = record_all(ctx.seed)?;
        let events = decode_all(&traces)?;
        let daemon = Daemon::start(DaemonConfig::new(&socket, &dir))
            .map_err(|e| format!("start daemon: {e}"))?;
        let seconds = clock.elapsed().as_secs_f64();
        setup.push(seconds * ctx.probe()?.rescale(&mut probed)?);
        started = Some((traces, events, daemon));
    }
    let (traces, events, daemon) = started.expect("SETUPS > 0");
    let expected = traces
        .iter()
        .map(|t| inline_profile(t))
        .collect::<Result<Vec<_>, _>>()?;

    let result = if ctx.trace {
        let (mut untraced_runs, mut traced_runs) = (0, 0);
        let traced = traced_loop(
            ctx.budget,
            checks,
            &expected.concat(),
            || {
                untraced_runs += 1;
                let tag = format!("u{untraced_runs}");
                single_tenant(daemon.socket(), &dir, &traces, &events, &tag)
            },
            |l, s| {
                traced_runs += 1;
                staged(&daemon, &dir, &traces, &format!("r{traced_runs}"), l, s)
            },
        );
        (traced.layers.report(PER_LAYER), traced.runs)
    } else {
        let progress = Progress::default();
        let logs: Vec<TenantLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..TENANTS)
                .map(|id| {
                    let (socket, events, progress) = (daemon.socket(), &events, &progress);
                    scope.spawn(move || tenant_loop(id, ctx, socket, events, progress))
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| match h.join() {
                    Ok(Ok(log)) => Some(log),
                    Ok(Err(e)) => {
                        checks.check(false, || format!("a tenant stopped: {e}"));
                        None
                    }
                    Err(_) => {
                        checks.check(false, || "a tenant thread panicked".to_owned());
                        None
                    }
                })
                .collect()
        });
        let mut e2e = EndToEnd {
            setup,
            peak_rss_mib: progress
                .peak_rss_mib
                .get()
                .copied()
                .flatten()
                .ok_or("peak RSS is unavailable")?,
            artifact_bytes: expected.iter().map(|p| p.len() as u64).sum(),
            ..EndToEnd::default()
        };
        let mut cycles = 0;
        for log in logs {
            checks.check(true, String::new);
            cycles += log.e2e.rates.len();
            e2e.rates.extend(log.e2e.rates);
            e2e.frames.extend(log.e2e.frames);
            e2e.probes.extend(log.e2e.probes);
            for (tenant, index, outcome) in log.sessions {
                let output = outcome.and_then(|_| served(&dir, &tenant));
                checks.output(&output, &expected[index], &tenant);
            }
        }
        checks.check(cycles >= TENANTS * MIN_CYCLES, || {
            format!("only {cycles} tenant cycles completed")
        });
        (e2e.report(checks), cycles)
    };
    Daemon::stop(daemon).map_err(|e| format!("stop daemon: {e}"))?;
    for (trace, want) in record_all(other_seed(ctx.seed))?.iter().zip(&expected) {
        checks.check(&inline_profile(trace)? == want, || {
            "a served trace's profile changes with the heap seed".to_owned()
        });
    }
    Ok(result)
}
