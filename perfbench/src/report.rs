//! The benchmark's metric vocabulary and how a run reports it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::ledger::{self, Ledger};
use crate::pipeline::{more_runs, peak_rss_mib, Checks, MIN_FRAMES, MIN_RUNS};
use crate::probe::{HostProbe, PROBE_REF_S};
use crate::stats::{percentile, tail_percentile, Summary};

/// End-to-end metrics, reported by untraced runs on every workload;
/// the times among them are scaled to the reference host.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("artifact_bytes", "bytes"),
];

/// Per-layer metrics, reported by traced runs on every workload; a
/// layer the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.decode_s", "s"),
    ("trace.decode_bytes", "bytes"),
    ("core.translate_s", "s"),
    ("core.tuples", "count"),
    ("core.memo_hit_rate", "ratio"),
    ("core.untracked", "count"),
    ("core.checkpoint_s", "s"),
    ("core.checkpoint_bytes", "bytes"),
    ("whomp.grammar_s", "s"),
    ("whomp.grammar_symbols", "count"),
    ("whomp.symbols_per_tuple", "ratio"),
    ("leap.lmad_s", "s"),
    ("leap.streams", "count"),
    ("leap.sample_quality", "ratio"),
    ("format.encode_s", "s"),
    ("format.durable_write_s", "s"),
    ("format.io_retries", "count"),
    ("orpd.client_s", "s"),
    ("orpd.flush_s", "s"),
    ("orpd.finish_s", "s"),
    ("orpd.frames", "count"),
    ("orpd.stall_ratio", "ratio"),
    ("orpd.checkpoints", "count"),
    ("orpd.checkpoint_s", "s"),
    ("opt.advise_s", "s"),
    ("opt.transforms", "count"),
    ("opt.l1_miss_rate", "ratio"),
    ("cache.evaluate_s", "s"),
    ("cache.replays", "count"),
    ("cache.replay_skipped", "count"),
    ("unattributed_s", "s"),
    ("traced_wall_s", "s"),
    ("trace_overhead", "ratio"),
];

/// One reported metric: its value plus the median and quartiles of the
/// samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
}

/// Samples per metric name, gathered over a run's repetitions.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_owned()).or_default().push(value);
    }

    pub fn extend(&mut self, name: &str, values: &[f64]) {
        self.0
            .entry(name.to_owned())
            .or_default()
            .extend_from_slice(values);
    }

    /// One metric per name in `schema`, in schema order, valued at the
    /// median of its samples; a name without samples reports 0.
    ///
    /// # Panics
    ///
    /// When a sampled name is not in `schema`: a measurement the
    /// benchmark takes must also be one it reports.
    #[must_use]
    pub fn report(&self, schema: &[(&str, &'static str)]) -> Vec<Metric> {
        for name in self.0.keys() {
            assert!(
                schema.iter().any(|(n, _)| n == name),
                "metric {name} is measured but not in the schema"
            );
        }
        schema
            .iter()
            .map(|&(name, unit)| {
                let samples = self.0.get(name).map_or(&[0.0][..], Vec::as_slice);
                let summary = Summary::of(samples).expect("at least one sample");
                Metric {
                    name: name.to_owned(),
                    unit,
                    value: summary.median,
                    summary,
                }
            })
            .collect()
    }
}

/// What a workload's untraced run measured, with times scaled to the
/// reference host.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds per repeated set-up.
    pub setup: Vec<f64>,
    /// Probe events per second, one sample per run.
    pub rates: Vec<f64>,
    /// Milliseconds per frame of events.
    pub frames: Vec<f64>,
    /// Seconds per host probe taken between timed runs.
    pub probes: Vec<f64>,
    pub peak_rss_mib: f64,
    pub artifact_bytes: u64,
}

impl EndToEnd {
    /// Records one timed unit of work that took `seconds` and produced
    /// the frames from index `first` on, scaling them by `scale`.
    pub fn scaled(&mut self, seconds: f64, events: u64, first: usize, scale: f64, probe: f64) {
        for frame in &mut self.frames[first..] {
            *frame *= scale;
        }
        self.rates.push(events as f64 / (seconds * scale));
        self.probes.push(probe);
    }

    /// The end-to-end metrics. Latency percentiles are taken over every
    /// frame of the run; the p95 of a thousand frames or more has fifty
    /// beyond it. The highest percentile that has ten beyond it is
    /// printed beside them, and so is the host probe.
    #[must_use]
    pub fn report(self, checks: &mut Checks) -> Vec<Metric> {
        let mut samples = Samples::default();
        samples.extend("setup_s", &self.setup);
        samples.extend("events_per_s", &self.rates);
        samples.push("peak_rss_mib", self.peak_rss_mib);
        samples.push("artifact_bytes", self.artifact_bytes as f64);
        let n = self.frames.len();
        checks.check(n >= MIN_FRAMES, || {
            format!("{n} frames are fewer than {MIN_FRAMES}")
        });
        let mut sorted = self.frames;
        sorted.sort_by(f64::total_cmp);
        for (name, p) in [("latency_p50_ms", 5000), ("latency_p95_ms", 9500)] {
            if let Some(value) = percentile(&sorted, p) {
                samples.push(name, value);
            }
        }
        if let Some(p) = tail_percentile(n) {
            let value = percentile(&sorted, p).unwrap_or(0.0);
            println!(
                "latency tail p{} = {value} ms over {n} frames",
                f64::from(p) / 100.0
            );
        }
        if let Some(probe) = Summary::of(&self.probes) {
            println!(
                "host probe median {} s (quartiles {} and {}) over {} probes; times scaled to {PROBE_REF_S} s",
                probe.median, probe.q1, probe.q3, probe.n
            );
        }
        samples.report(END_TO_END)
    }
}

/// The untraced loop: runs `op` (which returns its output and the
/// events it replayed, timing frames into the vector it is handed)
/// until the time budget is spent and enough runs and frames are in,
/// probing the host before the first run and after each one. Peak RSS
/// is read after the first run, when the pipeline has run once end to
/// end and before the loop's own bookkeeping grows.
///
/// # Errors
///
/// When the host cannot be probed or the peak RSS cannot be read.
pub fn timed_loop(
    probe: &mut HostProbe,
    budget: Duration,
    e2e: &mut EndToEnd,
    mut op: impl FnMut(&mut Vec<f64>) -> Result<(Vec<u8>, u64), String>,
) -> Result<Vec<Result<Vec<u8>, String>>, String> {
    let mut outputs = Vec::new();
    let mut probed = probe.measure()?;
    let start = Instant::now();
    while more_runs(start, budget, outputs.len(), e2e.frames.len()) {
        let first = e2e.frames.len();
        let clock = Instant::now();
        let output = op(&mut e2e.frames);
        let seconds = clock.elapsed().as_secs_f64();
        let scale = probe.rescale(&mut probed)?;
        if let Ok((_, events)) = &output {
            e2e.scaled(seconds, *events, first, scale, probed);
        }
        outputs.push(output.map(|(bytes, _)| bytes));
        if outputs.len() == 1 {
            e2e.peak_rss_mib = peak_rss_mib().ok_or("peak RSS is unavailable")?;
        }
    }
    Ok(outputs)
}

/// What a workload's traced run measured.
#[derive(Debug, Default)]
pub struct Traced {
    pub layers: Samples,
    pub runs: usize,
}

/// The traced loop: alternates an untraced run with a traced one until
/// the time budget is spent. Both must produce `expected`, and each
/// traced run's ledger must close; its span self times become
/// `<span>_s` metrics, and the ratio of the median traced to the median
/// untraced wall becomes `trace_overhead`.
pub fn traced_loop(
    budget: Duration,
    checks: &mut Checks,
    expected: &[u8],
    mut untraced: impl FnMut() -> Result<Vec<u8>, String>,
    mut traced: impl FnMut(&mut Ledger, &mut Samples) -> Result<Vec<u8>, String>,
) -> Traced {
    let mut out = Traced::default();
    let (mut plain, mut walls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while out.runs < MIN_RUNS || start.elapsed() < budget {
        let clock = Instant::now();
        let output = untraced();
        plain.push(clock.elapsed().as_secs_f64());
        checks.output(&output, expected, "untraced run");
        let mut ledger = Ledger::default();
        let output = traced(&mut ledger, &mut out.layers);
        checks.output(&output, expected, "traced run");
        out.runs += 1;
        match ledger::close(ledger.spans()) {
            Ok(closed) => {
                checks.check(true, String::new);
                for (name, &nanos) in &closed.self_nanos {
                    out.layers.push(&format!("{name}_s"), nanos as f64 / 1e9);
                }
                out.layers
                    .push("unattributed_s", closed.unattributed_nanos as f64 / 1e9);
                out.layers
                    .push("traced_wall_s", closed.wall_nanos as f64 / 1e9);
                walls.push(closed.wall_nanos as f64 / 1e9);
            }
            Err(e) => checks.check(false, || e),
        }
    }
    if let (Some(t), Some(u)) = (Summary::of(&walls), Summary::of(&plain)) {
        out.layers.push("trace_overhead", t.median / u.median);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric this package reports is declared, with its unit,
    /// in the repository's `BENCHMARK.json`, and nothing else is.
    #[test]
    fn schema_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) is not declared");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn scaled_runs_divide_rates_and_multiply_frames() {
        let mut e2e = EndToEnd {
            frames: vec![1.0, 2.0, 4.0],
            ..EndToEnd::default()
        };
        e2e.scaled(2.0, 1000, 1, 0.5, 0.14);
        assert_eq!(e2e.frames, vec![1.0, 1.0, 2.0]);
        assert_eq!(e2e.rates, vec![1000.0]);
        assert_eq!(e2e.probes, vec![0.14]);
    }

    #[test]
    fn unsampled_metrics_report_zero_and_sampled_ones_their_median() {
        let mut samples = Samples::default();
        samples.extend("trace.decode_s", &[3.0, 1.0, 2.0]);
        let metrics = samples.report(PER_LAYER);
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |n: &str| metrics.iter().find(|m| m.name == n).map(|m| m.value);
        assert_eq!(value("trace.decode_s"), Some(2.0));
        assert_eq!(value("whomp.grammar_s"), Some(0.0));
    }
}
