//! Host-speed normalisation of the end-to-end timings.
//!
//! The benchmark shares its host's memory system with other tenants,
//! whose load changes how fast the same work runs by a quarter or more
//! within minutes; a pure compute loop barely moves meanwhile. So every
//! timed unit of work (one set-up, one batch run, one serve cycle) is
//! bracketed by two runs of a fixed memory probe, and its times are
//! scaled by [`PROBE_REF_S`] over the mean of the two probe times: the
//! time the work would take on a host whose probe takes [`PROBE_REF_S`].
//! The probe is benchmark code, identical on every commit, so a change
//! to the program moves the scaled figures as it moves the raw ones.
//!
//! The probe runs in a child process (this binary with
//! [`SERVER_FLAG`]) that keeps its tables for the whole run, so they
//! neither count in the benchmark process's peak RSS nor page-fault
//! inside a measurement.

use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

/// The argument that starts the probe server instead of a workload.
pub const SERVER_FLAG: &str = "--probe-server";

/// Seconds one probe takes on the reference host, a 2-vCPU Xeon VM
/// whose memory is shared with other tenants: the median measured
/// there.
pub const PROBE_REF_S: f64 = 0.07;

/// Cache-sized table: 4 MiB of `u64`.
const SMALL_BITS: u32 = 19;
/// Table past the last-level cache: 64 MiB of `u64`.
const LARGE_BITS: u32 = 23;
const SMALL_UPDATES: u64 = 4_000_000;
const LARGE_UPDATES: u64 = 2_000_000;
const LARGE_SWEEPS: usize = 4;

/// The probe's tables, touched once on creation.
struct Kernel {
    small: Vec<u64>,
    large: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        let table = |bits: u32| (0..1u64 << bits).collect::<Vec<u64>>();
        Kernel {
            small: table(SMALL_BITS),
            large: table(LARGE_BITS),
        }
    }

    /// Random read-modify-writes over a cache-sized table and over one
    /// past the cache, then sequential sweeps of the large one: the
    /// access kinds the profilers' hash tables, object maps and trace
    /// buffers make. Returns the seconds taken.
    fn run(&mut self) -> f64 {
        let clock = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for (table, updates) in [
            (&mut self.small, SMALL_UPDATES),
            (&mut self.large, LARGE_UPDATES),
        ] {
            let mask = table.len() - 1;
            for _ in 0..updates {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = &mut table[x as usize & mask];
                *slot = slot.wrapping_add(x);
            }
            black_box(&*table);
        }
        let mut sum = 0u64;
        for _ in 0..LARGE_SWEEPS {
            sum = black_box(self.large.iter().fold(sum, |s, &v| s.wrapping_add(v)));
        }
        black_box(sum);
        clock.elapsed().as_secs_f64()
    }
}

/// The child process's loop: one probe per line read from standard
/// input, its seconds written as one line; ends at end of input.
pub fn serve() -> ExitCode {
    let mut kernel = Kernel::new();
    let mut out = io::stdout().lock();
    for line in io::stdin().lock().lines() {
        if line.is_err() {
            return ExitCode::FAILURE;
        }
        let seconds = kernel.run();
        if writeln!(out, "{seconds}")
            .and_then(|()| out.flush())
            .is_err()
        {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// A running probe server.
pub struct HostProbe {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl HostProbe {
    /// Starts the probe server.
    ///
    /// # Errors
    ///
    /// When the child process cannot be started.
    pub fn start() -> Result<HostProbe, String> {
        let exe = std::env::current_exe().map_err(|e| format!("probe: {e}"))?;
        let mut child = Command::new(exe)
            .arg(SERVER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start probe: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(HostProbe {
            child,
            stdin: Some(stdin),
            stdout,
        })
    }

    /// Runs the probe once: the seconds it took.
    ///
    /// # Errors
    ///
    /// When the server has gone or answers with something else.
    pub fn measure(&mut self) -> Result<f64, String> {
        let stdin = self.stdin.as_mut().ok_or("probe: stopped")?;
        writeln!(stdin)
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("probe: {e}"))?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("probe: {e}"))?;
        match line.trim().parse::<f64>() {
            Ok(s) if s > 0.0 && s.is_finite() => Ok(s),
            _ => Err(format!("probe: unexpected answer {line:?}")),
        }
    }

    /// Probes the host again and returns the factor that scales a time
    /// measured since the probe that gave `last` to the reference host;
    /// `last` becomes the new probe's time.
    ///
    /// # Errors
    ///
    /// As [`HostProbe::measure`].
    pub fn rescale(&mut self, last: &mut f64) -> Result<f64, String> {
        let now = self.measure()?;
        let scale = scale(*last, now);
        *last = now;
        Ok(scale)
    }

    /// Ends the server and waits for it.
    ///
    /// # Errors
    ///
    /// When it cannot be waited for or did not exit cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| format!("probe: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("probe server exited with {status}"))
        }
    }
}

impl Drop for HostProbe {
    /// A server still running (an early return) is killed and reaped.
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The factor that scales a time measured between probes taking
/// `before` and `after` seconds to the reference host.
#[must_use]
pub fn scale(before: f64, after: f64) -> f64 {
    PROBE_REF_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_between_slow_probes_is_scaled_down() {
        assert_eq!(scale(PROBE_REF_S, PROBE_REF_S), 1.0);
        // A host twice as slow as the reference halves the times.
        assert!((scale(0.1, 0.18) - 0.5).abs() < 1e-12);
        assert!((scale(0.035, 0.035) - 2.0).abs() < 1e-12);
    }
}
