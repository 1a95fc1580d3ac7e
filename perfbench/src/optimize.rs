//! The `optimize-vpr` workload: `orprof-cli optimize`'s loop on a
//! recorded trace — profile, advise, plan, publish the plan durably,
//! then evaluate it with one cache replay per transform.

use std::path::Path;

use orprof::allocsim::AllocatorKind;
use orprof::cache::evaluate::{evaluate_plan, extents_from_records, EvalConfig};
use orprof::core::{Cdc, ObjectRecord, Omc, OrSink, OrTuple};
use orprof::opt::{AdvisorSet, LayoutPlan};
use orprof::trace::replay;

use crate::ledger::Ledger;
use crate::pipeline::{
    decode, other_seed, record, reference_tuples, timed_setup, translate, write_durable, Checks,
    FrameClock,
};
use crate::report::{timed_loop, traced_loop, EndToEnd, Metric, Samples, PER_LAYER};
use crate::Ctx;

const PROGRAM: &str = "175.vpr";
const SCALE: u32 = 2;

/// The optimize loop's collection sink, as in the CLI: one pass feeds
/// every adviser and keeps the tuples for the replays.
#[derive(Default)]
struct Collector {
    advisors: AdvisorSet,
    tuples: Vec<OrTuple>,
}

impl OrSink for Collector {
    fn tuple(&mut self, t: &OrTuple) {
        self.advisors.tuple(t);
        self.tuples.push(*t);
    }
}

/// Every object the OMC saw, in allocation order.
fn object_records(omc: &Omc) -> Vec<ObjectRecord> {
    let mut records = omc.archive().to_vec();
    records.extend(omc.live_records());
    records.sort_by_key(|r| (r.alloc_time, r.group, r.serial));
    records
}

fn eval_config(seed: u64) -> EvalConfig {
    EvalConfig {
        allocator: AllocatorKind::Randomizing,
        seed,
        ..EvalConfig::default()
    }
}

/// What a run produced and is checked on: the plan's bytes followed
/// by the planned layout's L1 miss rate.
fn outcome(plan_bytes: &[u8], l1_miss_rate: f64) -> Vec<u8> {
    [plan_bytes, &l1_miss_rate.to_bits().to_le_bytes()].concat()
}

/// Advises, plans and evaluates over a translated stream.
fn plan_and_evaluate(
    omc: &Omc,
    advisors: &AdvisorSet,
    tuples: &[OrTuple],
    seed: u64,
    out: &Path,
) -> Result<Vec<u8>, String> {
    let records = object_records(omc);
    let plan = advisors.plan();
    let plan_bytes = plan.to_bytes();
    write_durable(out, &plan_bytes).map_err(|e| format!("write {}: {e}", out.display()))?;
    let eval = evaluate_plan(
        &plan,
        &extents_from_records(&records),
        tuples,
        &eval_config(seed),
    )
    .map_err(|e| format!("apply plan: {e}"))?;
    Ok(outcome(&plan_bytes, eval.planned.l1_miss_rate()))
}

fn optimize_once(
    trace: &[u8],
    seed: u64,
    out: &Path,
    frames: &mut Vec<f64>,
) -> Result<(Vec<u8>, u64), String> {
    let mut cdc = Cdc::new(Omc::new(), Collector::default());
    let events = replay(&mut &trace[..], &mut FrameClock::new(&mut cdc, frames))
        .map_err(|e| format!("replay: {e}"))?;
    let (omc, collected) = cdc.into_parts();
    let result = plan_and_evaluate(&omc, &collected.advisors, &collected.tuples, seed, out)?;
    Ok((result, events))
}

/// The same loop through the slow reference translation.
fn reference_run(trace: &[u8], seed: u64, out: &Path) -> Result<Vec<u8>, String> {
    let (omc, tuples) = reference_tuples(trace)?;
    let mut advisors = AdvisorSet::new();
    advisors.tuple_batch(&tuples);
    plan_and_evaluate(&omc, &advisors, &tuples, seed, out)
}

/// The loop staged: each layer's public entry point on the whole
/// stream in turn, inside a span.
fn staged(
    trace: &[u8],
    seed: u64,
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
        let omc = cdc.into_parts().0;
        s.push("core.tuples", tuples.len() as f64);
        s.push("core.memo_hit_rate", stats.hit_rate());
        s.push("core.untracked", untracked as f64);
        let (records, plan): (Vec<ObjectRecord>, LayoutPlan) = l.span("opt.advise", |_| {
            let mut advisors = AdvisorSet::new();
            advisors.tuple_batch(&tuples);
            (object_records(&omc), advisors.plan())
        });
        s.push("opt.transforms", plan.len() as f64);
        let plan_bytes = l.span("format.encode", |_| plan.to_bytes());
        let retries = l
            .span("format.durable_write", |_| write_durable(out, &plan_bytes))
            .map_err(|e| format!("write {}: {e}", out.display()))?;
        s.push("format.io_retries", retries as f64);
        let eval = l
            .span("cache.evaluate", |_| {
                evaluate_plan(
                    &plan,
                    &extents_from_records(&records),
                    &tuples,
                    &eval_config(seed),
                )
            })
            .map_err(|e| format!("apply plan: {e}"))?;
        s.push("opt.l1_miss_rate", eval.planned.l1_miss_rate());
        s.push("cache.replays", (2 + eval.transforms.len()) as f64);
        s.push("cache.replay_skipped", eval.planned.skipped as f64);
        Ok(outcome(&plan_bytes, eval.planned.l1_miss_rate()))
    })
}

/// Runs `optimize-vpr` for `ctx`, returning its metrics and runs.
///
/// # Errors
///
/// Set-up failures (recording, the reference run); output mismatches
/// are counted in `checks` instead.
pub fn run(ctx: &Ctx, checks: &mut Checks) -> Result<(Vec<Metric>, usize), String> {
    let (trace, setup) = timed_setup(&mut *ctx.probe()?, || record(PROGRAM, SCALE, ctx.seed))?;
    let out = ctx.work.join("plan.orp");
    let (metrics, runs, reference) = if ctx.trace {
        let reference = reference_run(&trace, ctx.seed, &out)?;
        let traced = traced_loop(
            ctx.budget,
            checks,
            &reference,
            || optimize_once(&trace, ctx.seed, &out, &mut Vec::new()).map(|(r, _)| r),
            |l, s| staged(&trace, ctx.seed, &out, l, s),
        );
        (traced.layers.report(PER_LAYER), traced.runs, reference)
    } else {
        let mut e2e = EndToEnd {
            setup,
            ..EndToEnd::default()
        };
        let outputs = timed_loop(&mut *ctx.probe()?, ctx.budget, &mut e2e, |frames| {
            optimize_once(&trace, ctx.seed, &out, frames)
        })?;
        let reference = reference_run(&trace, ctx.seed, &out)?;
        for output in &outputs {
            checks.output(output, &reference, "timed run");
        }
        // The artifact is the plan; the trailing 8 bytes are the
        // checked miss rate, not part of it.
        e2e.artifact_bytes = reference.len() as u64 - 8;
        (e2e.report(checks), outputs.len(), reference)
    };
    drop(trace);
    // Recorded under another heap seed but evaluated on the same
    // simulated heap, the plan and its miss rate must not move.
    let other = reference_run(
        &record(PROGRAM, SCALE, other_seed(ctx.seed))?,
        ctx.seed,
        &out,
    )?;
    checks.check(other == reference, || {
        "the evaluated layout plan changes with the heap seed".to_owned()
    });
    Ok((metrics, runs))
}
