//! The batch workloads `whomp-mcf` and `leap-twolf`: one recorded trace
//! replayed through the CLI's default `run --from-trace` path (inline
//! `Cdc` in a `Session`, one thread) into a durable profile.

use std::path::Path;

use orprof::core::{OrSink, Session, SessionSink};
use orprof::leap::LeapProfiler;
use orprof::trace::replay;
use orprof::whomp::WhompProfiler;

use crate::ledger::Ledger;
use crate::pipeline::{
    decode, encode, other_seed, quad, record, reference_tuples, timed_setup, translate,
    write_durable, Checks, FrameClock,
};
use crate::report::{timed_loop, traced_loop, EndToEnd, Metric, Samples, PER_LAYER};
use crate::Ctx;

#[derive(Debug, Clone, Copy)]
enum Profiler {
    Whomp,
    Leap,
}

/// One batch workload: which recorded program, at which scale, under
/// which profiler.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    program: &'static str,
    scale: u32,
    profiler: Profiler,
}

/// Grammar construction on a two-object program: the OMC memo almost
/// always hits, so translation is bypassed and Sequitur dominates.
pub const WHOMP_MCF: Batch = Batch {
    program: "181.mcf",
    scale: 4,
    profiler: Profiler::Whomp,
};

/// LEAP on a churning heap of thousands of live objects: OMC lookups,
/// trace decode and LMAD compression, and no grammar.
pub const LEAP_TWOLF: Batch = Batch {
    program: "300.twolf",
    scale: 16,
    profiler: Profiler::Leap,
};

/// Replays `trace` into a fresh session, finalizes its profile and
/// publishes it durably: `(profile bytes, events)`.
fn profile<S: SessionSink>(
    mut session: Session<S>,
    trace: &[u8],
    out: &Path,
    frames: &mut Vec<f64>,
) -> Result<(Vec<u8>, u64), String> {
    let events = replay(&mut &trace[..], &mut FrameClock::new(&mut session, frames))
        .map_err(|e| format!("replay: {e}"))?;
    let (_omc, sink) = session.into_cdc().into_parts();
    let bytes = encode(|w| sink.finalize_profile(w))?;
    write_durable(out, &bytes).map_err(|e| format!("write {}: {e}", out.display()))?;
    Ok((bytes, events))
}

impl Batch {
    fn run_once(
        self,
        trace: &[u8],
        out: &Path,
        frames: &mut Vec<f64>,
    ) -> Result<(Vec<u8>, u64), String> {
        match self.profiler {
            Profiler::Whomp => profile(Session::new(WhompProfiler::new()), trace, out, frames),
            Profiler::Leap => profile(Session::new(LeapProfiler::new()), trace, out, frames),
        }
    }

    /// The profile of `trace` through the slow reference translation;
    /// for WHOMP, also whether the grammars expand back to exactly the
    /// reference tuple stream.
    fn reference(self, trace: &[u8]) -> Result<(Vec<u8>, bool), String> {
        let (_omc, tuples) = reference_tuples(trace)?;
        match self.profiler {
            Profiler::Whomp => {
                let mut p = WhompProfiler::new();
                p.tuple_batch(&tuples);
                p.finish();
                let omsg = p.into_omsg();
                let lossless = omsg.expand().into_iter().eq(tuples.iter().map(quad));
                Ok((encode(|w| omsg.write_to(w))?, lossless))
            }
            Profiler::Leap => {
                let mut p = LeapProfiler::new();
                p.tuple_batch(&tuples);
                p.finish();
                Ok((encode(|w| p.into_profile().write_to(w))?, true))
            }
        }
    }

    /// The same run as [`Batch::run_once`], staged: each layer's public
    /// entry point is called on the whole stream in turn, inside a span.
    fn staged(
        self,
        trace: &[u8],
        out: &Path,
        l: &mut Ledger,
        s: &mut Samples,
    ) -> Result<Vec<u8>, String> {
        l.span("run", |l| {
            let events = l.span("trace.decode", |_| decode(trace))?;
            s.push("trace.decode_bytes", trace.len() as f64);
            let (cdc, tuples) = l.span("core.translate", |_| {
                let translated = translate(&events);
                drop(events);
                translated
            });
            let (stats, untracked) = (cdc.omc().translate_stats(), cdc.untracked());
            s.push("core.tuples", tuples.len() as f64);
            s.push("core.memo_hit_rate", stats.hit_rate());
            s.push("core.untracked", untracked as f64);
            let bytes = match self.profiler {
                Profiler::Whomp => {
                    let p = l.span("whomp.grammar", |_| {
                        let mut p = WhompProfiler::new();
                        p.tuple_batch(&tuples);
                        p.finish();
                        drop(tuples);
                        p
                    });
                    s.push("whomp.grammar_symbols", p.total_size() as f64);
                    s.push(
                        "whomp.symbols_per_tuple",
                        p.total_size() as f64 / p.tuples().max(1) as f64,
                    );
                    l.span("format.encode", |_| encode(|w| p.into_omsg().write_to(w)))?
                }
                Profiler::Leap => {
                    let profile = l.span("leap.lmad", |_| {
                        let mut p = LeapProfiler::new();
                        p.tuple_batch(&tuples);
                        p.finish();
                        drop(tuples);
                        p.into_profile()
                    });
                    s.push("leap.streams", profile.streams().len() as f64);
                    s.push(
                        "leap.sample_quality",
                        profile.sample_quality().accesses_captured,
                    );
                    l.span("format.encode", |_| encode(|w| profile.write_to(w)))?
                }
            };
            let retries = l
                .span("format.durable_write", |_| write_durable(out, &bytes))
                .map_err(|e| format!("write {}: {e}", out.display()))?;
            s.push("format.io_retries", retries as f64);
            Ok(bytes)
        })
    }
}

/// Runs one batch workload for `ctx`, returning its metrics and runs.
///
/// # Errors
///
/// Set-up failures (recording, the reference run); output mismatches
/// are counted in `checks` instead.
pub fn run(b: Batch, ctx: &Ctx, checks: &mut Checks) -> Result<(Vec<Metric>, usize), String> {
    let (trace, setup) = timed_setup(&mut *ctx.probe()?, || record(b.program, b.scale, ctx.seed))?;
    let out = ctx.work.join("profile.orp");
    let (metrics, runs, reference) = if ctx.trace {
        let (reference, _) = b.reference(&trace)?;
        let traced = traced_loop(
            ctx.budget,
            checks,
            &reference,
            || {
                b.run_once(&trace, &out, &mut Vec::new())
                    .map(|(bytes, _)| bytes)
            },
            |l, s| b.staged(&trace, &out, l, s),
        );
        (traced.layers.report(PER_LAYER), traced.runs, reference)
    } else {
        let mut e2e = EndToEnd {
            setup,
            ..EndToEnd::default()
        };
        let outputs = timed_loop(&mut *ctx.probe()?, ctx.budget, &mut e2e, |frames| {
            b.run_once(&trace, &out, frames)
        })?;
        // The reference runs after the timed loop, outside the
        // measured runs.
        let (reference, lossless) = b.reference(&trace)?;
        checks.check(lossless, || {
            "the reference grammars do not expand to the reference tuple stream".to_owned()
        });
        for output in &outputs {
            checks.output(output, &reference, "timed run");
        }
        e2e.artifact_bytes = reference.len() as u64;
        (e2e.report(checks), outputs.len(), reference)
    };
    drop(trace);
    let (other, _) = b.reference(&record(b.program, b.scale, other_seed(ctx.seed))?)?;
    checks.check(other == reference, || {
        format!(
            "the profile changes with the heap seed ({} vs {} bytes)",
            other.len(),
            reference.len()
        )
    });
    Ok((metrics, runs))
}
