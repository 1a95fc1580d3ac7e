//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <whomp-mcf|leap-twolf|serve-leap|optimize-vpr>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this process only. Set-up
//! records the workload's probe streams from generated inputs into
//! in-memory `.orpt` traces under a randomizing heap seeded by
//! `--seed`; the timed loop replays them through the program's public
//! pipelines for `--seconds`. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced runs with traced ones that
//! call each layer in turn inside a span, and reports per-layer self
//! times and counts. Every output is checked against a slow reference,
//! and the profile must not change with the heap seed. End-to-end
//! times are scaled to a reference host by a memory probe that brackets
//! each timed unit of work (see [`probe`]).
//!
//! Standard output ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only when every check passed.

#![forbid(unsafe_code)]

mod batch;
mod ledger;
mod optimize;
mod pipeline;
mod probe;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::pipeline::Checks;
use crate::probe::HostProbe;
use crate::report::Metric;

/// What one invocation runs.
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    /// Scratch directory for the run's durable artifacts.
    pub work: PathBuf,
    /// The host-speed probe, shared by the tenant threads.
    pub probe: Mutex<HostProbe>,
}

impl Ctx {
    /// The probe, for one measurement or a bracketed run of them.
    ///
    /// # Errors
    ///
    /// When a thread panicked while probing.
    pub fn probe(&self) -> Result<MutexGuard<'_, HostProbe>, String> {
        self.probe
            .lock()
            .map_err(|_| "a thread panicked while probing the host".to_owned())
    }
}

const WORKLOADS: [&str; 4] = ["whomp-mcf", "leap-twolf", "serve-leap", "optimize-vpr"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload.clone_from(value),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// The commit of the checkout, read from `.git` without leaving it.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (JSON has none for values that are not finite; the
/// run checks that there are none).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn print_report(args: &Args, runs: usize, metrics: &[Metric], checks: &Checks) {
    println!(
        "perfbench {} seed={} trace={} runs={runs} run_seconds={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!(
        "{:<26} {:>6} {:>16} {:>16} {:>16} {:>8} {:>7}",
        "metric", "unit", "value", "q1", "q3", "spread", "n"
    );
    let mut summaries = Vec::new();
    for m in metrics {
        println!(
            "{:<26} {:>6} {:>16.6} {:>16.6} {:>16.6} {:>8.4} {:>7}",
            m.name,
            m.unit,
            m.value,
            m.summary.q1,
            m.summary.q3,
            m.summary.spread(),
            m.summary.n
        );
        let s = m.summary;
        summaries.push(format!(
            "{}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            json_string(&m.name),
            json_string(m.unit),
            json_number(s.median),
            json_number(s.q1),
            json_number(s.q3),
            s.n
        ));
    }
    let error_rate = stats::error_rate(checks.failed, checks.attempted).unwrap_or(1.0);
    println!(
        "error_rate {error_rate} ({} of {} checked operations failed)",
        checks.failed, checks.attempted
    );
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    println!(
        "meta {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"available_parallelism\": {parallelism}, \
         \"git_commit\": {}, \"rustc\": {}, \"runs\": {runs}, \"run_seconds\": {}, \
         \"error_rate\": {error_rate}, \"summaries\": {{{}}}}}",
        json_string(&args.workload),
        args.seed,
        u8::from(args.trace),
        json_string(&git_commit()),
        json_string(&rustc_version()),
        args.seconds,
        summaries.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == [probe::SERVER_FLAG] {
        return probe::serve();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let probe = match HostProbe::start() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        work,
        probe: Mutex::new(probe),
    };
    let mut checks = Checks::default();
    let outcome = match args.workload.as_str() {
        "whomp-mcf" => batch::run(batch::WHOMP_MCF, &ctx, &mut checks),
        "leap-twolf" => batch::run(batch::LEAP_TWOLF, &ctx, &mut checks),
        "serve-leap" => serve::run(&ctx, &mut checks),
        _ => optimize::run(&ctx, &mut checks),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(".bench_work");
    let stopped = ctx
        .probe
        .into_inner()
        .map_err(|_| "a thread panicked while probing the host".to_owned())
        .and_then(HostProbe::stop);
    let (metrics, runs) = match outcome.and_then(|o| stopped.map(|()| o)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let finite = |m: &Metric| {
        [m.value, m.summary.q1, m.summary.q3]
            .iter()
            .all(|v| v.is_finite())
    };
    checks.check(metrics.iter().all(finite), || {
        "a metric is not a finite number".to_owned()
    });
    print_report(&args, runs, &metrics, &checks);
    let values: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        values.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
