//! Host fingerprint and process memory, recorded with every result so
//! numbers from different hosts are never compared.

/// The compiler that built this binary (captured by `build.rs`).
const RUSTC_VERSION: &str = env!("PERFBENCH_RUSTC_VERSION");

/// The environment variable that opts the solver layers into threads.
pub const THREADS_ENV: &str = "HSCHED_THREADS";

/// Where and how a result was measured.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// First `model name` in `/proc/cpuinfo` (`unknown` if unreadable).
    pub cpu_model: String,
    /// The value `HSCHED_THREADS` had when the run started, if set. The
    /// benchmark always runs single-threaded regardless.
    pub hsched_threads: Option<String>,
}

impl Fingerprint {
    /// Fingerprint of this host; `hsched_threads` is the value the caller
    /// found before clearing the variable.
    pub fn of_host(hsched_threads: Option<String>) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: RUSTC_VERSION.to_string(),
            cpu_model,
            hsched_threads,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB (2^20 bytes);
/// 0 if `/proc/self/status` is unreadable.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
