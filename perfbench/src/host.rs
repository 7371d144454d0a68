//! Host fingerprint and resident-memory readings.

/// The host a result was measured on.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile, optimisation level and debug-info setting.
    pub profile: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and build.
    pub fn read() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc,
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: format!(
                "{} opt-level={} debug={}",
                env!("PERFBENCH_PROFILE"),
                env!("PERFBENCH_OPT_LEVEL"),
                env!("PERFBENCH_DEBUG")
            ),
        }
    }

    /// One line for the run's output.
    pub fn line(&self) -> String {
        format!(
            "host nproc={} cpu=\"{}\" rustc=\"{}\" profile=\"{}\"",
            self.nproc, self.cpu, self.rustc, self.profile
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0
/// where `/proc` does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
