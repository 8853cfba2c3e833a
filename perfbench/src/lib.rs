//! The repository's benchmark: two closed-loop workloads with one
//! caller, end-to-end metrics from an untraced run and a per-layer split
//! from a traced run. See `README.md` next to this crate for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

pub mod host;
pub mod offline;
pub mod online;
pub mod stats;
pub mod trace;

use trace::Tracer;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Durable service, LP tier on every epoch (`semi_partitioned(5)`).
    OnlineChurn,
    /// The offline Theorem V.2 pipeline (`two_approx`) on a seeded batch.
    OfflineBatch,
}

impl Workload {
    /// Every workload the command accepts.
    pub const ALL: [Workload; 2] = [Workload::OnlineChurn, Workload::OfflineBatch];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OnlineChurn => "online-churn",
            Workload::OfflineBatch => "offline-batch",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one run does. Inputs are generated once per set-up;
/// the timed loop cycles through them until `seconds` have elapsed
/// (always finishing the pass or instance it is in, and doing at least
/// one).
#[derive(Clone, Debug)]
pub struct Plan {
    /// Measured wall time of the timed loop.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Online: distinct event streams (one per pass, a fresh service
    /// each).
    pub streams: usize,
    /// Online: long-lived jobs arriving at the start of each stream.
    pub base_jobs: usize,
    /// Online: churn events per stream after the long-lived arrivals.
    pub events: usize,
    /// Online: kill and recover the service after every this many events.
    pub kill_every: usize,
    /// Online: solve the live state offline after every this many events.
    pub resolve_every: usize,
    /// Offline: distinct batch instances.
    pub instances: usize,
    /// Offline: jobs per instance.
    pub jobs: usize,
    /// Offline: serve one `online-churn` stream after every this many
    /// solved instances.
    pub serve_every: usize,
}

/// The service checkpoints after every this many events (all workloads).
pub const CHECKPOINT_EVERY: usize = 16;

impl Plan {
    /// The benchmark's sizes for a run lasting `seconds`.
    ///
    /// 24 long-lived jobs keep each online pass in one regime. Kills land
    /// 15 events after a checkpoint, three times per stream: a replayed
    /// churn epoch either skips the LP or costs tens of milliseconds, and
    /// a longer tail narrows the spread of the recovery times whose
    /// median `recover_p50_ms` reports. There are more streams and
    /// instances than a 55 s run consumes.
    pub fn full(seconds: f64) -> Plan {
        Plan {
            seconds,
            setup_reps: 31,
            streams: 160,
            base_jobs: 24,
            events: 69,
            kill_every: 31,
            resolve_every: 8,
            instances: 288,
            jobs: 48,
            serve_every: 3,
        }
    }

    /// A run small enough for the benchmark's own tests.
    pub fn smoke() -> Plan {
        Plan {
            seconds: 0.0,
            setup_reps: 2,
            streams: 1,
            base_jobs: 4,
            events: 36,
            kill_every: 20,
            resolve_every: 10,
            instances: 3,
            jobs: 24,
            serve_every: 1,
        }
    }
}

/// Correctness bookkeeping: every operation (ingest, recovery, solve,
/// traced mirror step) is attempted once and fails if any of its checks
/// does.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Count one operation and its verdict.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = verdict {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(msg);
            }
        }
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One reported metric with the samples it summarises. Its unit is the
/// one listed for its name in [`END_TO_END`] or [`PER_LAYER`].
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// The raw samples the value was derived from (empty for counts and
    /// ratios of totals).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric derived from `samples`.
    pub fn from_samples(name: &'static str, value: f64, samples: &[f64]) -> Self {
        Metric { name, value, samples: samples.to_vec() }
    }

    /// A metric with no sample series.
    pub fn scalar(name: &'static str, value: f64) -> Self {
        Metric { name, value, samples: Vec::new() }
    }

    /// The metric's unit.
    pub fn unit(&self) -> &'static str {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == self.name)
            .map(|(_, u)| *u)
            .expect("every metric is listed in END_TO_END or PER_LAYER")
    }
}

/// Everything one run produced.
pub struct Outcome {
    /// Correctness verdicts.
    pub checks: Checks,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

/// End-to-end metric names with units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("epoch_p50_ms", "ms"),
    ("epoch_p99_ms", "ms"),
    ("recover_p50_ms", "ms"),
    ("instances_per_s", "1/s"),
    ("solve_p50_ms", "ms"),
    ("solve_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metric names with units, in `BENCHMARK.json` order. A
/// traced run reports all of them; a layer its workload does not call
/// reports 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("service.ingest.mean_ms", "ms"),
    ("service.apply.self_ms", "ms"),
    ("service.apply.p50_ms", "ms"),
    ("service.apply.p99_ms", "ms"),
    ("service.validate.self_ms", "ms"),
    ("service.journal.self_ms", "ms"),
    ("service.checkpoint.self_ms", "ms"),
    ("service.journal.bytes_per_event", "B"),
    ("service.checkpoint.bytes", "B"),
    ("service.journal.bytes", "B"),
    ("service.recover.self_ms", "ms"),
    ("service.recover.scan_ms", "ms"),
    ("service.recover.restore_ms", "ms"),
    ("service.recover.replay_ms", "ms"),
    ("service.recover.replayed_events", "count"),
    ("service.live_jobs.mean", "count"),
    ("service.live_jobs.max", "count"),
    ("service.events", "count"),
    ("service.epochs.tier1", "count"),
    ("service.epochs.tier2", "count"),
    ("service.epochs.tier3", "count"),
    ("service.budget_exhaustions", "count"),
    ("lp.hybrid_certified", "count"),
    ("lp.hybrid_fallbacks", "count"),
    ("lp.factor_reuses", "count"),
    ("lp.warm_fallbacks", "count"),
    ("core.two_approx.mean_ms", "ms"),
    ("core.prepare.self_ms", "ms"),
    ("core.tstar_search.self_ms", "ms"),
    ("core.lst_round.self_ms", "ms"),
    ("core.horizon.self_ms", "ms"),
    ("core.alg23.self_ms", "ms"),
    ("core.instances", "count"),
    ("lp.probes", "count"),
    ("lp.columns_priced", "count"),
    ("lp.columns", "count"),
    ("lp.probe_search_ms", "ms"),
    ("check.validate_ms", "ms"),
    ("check.simulate_ms", "ms"),
    ("workloads.generate_ms", "ms"),
    ("tracing.overhead_pct", "%"),
    ("tracing.coverage_pct", "%"),
    ("check.error_rate", "ratio"),
];

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Median wall time (seconds) of `reps` calls of `setup`, and the last
/// call's product.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, Vec<f64>, T) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        let made = std::hint::black_box(setup());
        samples.push(t0.elapsed().as_secs_f64());
        last = Some(made);
    }
    (stats::median(&samples), samples, last.expect("at least one set-up"))
}

/// Run one workload: untraced (end-to-end metrics) or traced (per-layer
/// metrics).
pub fn run(workload: Workload, plan: &Plan, seed: u64, traced: bool) -> Outcome {
    let mut out = match workload {
        Workload::OnlineChurn => online::run(plan, seed, traced),
        Workload::OfflineBatch => offline::run(plan, seed, traced),
    };
    if traced {
        out.metrics.push(Metric::scalar("check.error_rate", out.checks.error_rate()));
    } else {
        out.metrics.push(Metric::scalar("peak_rss_mb", host::peak_rss_mb()));
    }
    // Report every listed metric once, in listed order. A traced run
    // reports 0 for a layer its workload never calls; an untraced run
    // measures every end-to-end metric on every workload.
    let listed: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(listed.len());
    for (name, _) in listed {
        match out.metrics.iter().position(|m| m.name == *name) {
            Some(i) => ordered.push(out.metrics.swap_remove(i)),
            None if traced => ordered.push(Metric::scalar(name, 0.0)),
            None => panic!("end-to-end metric {name} was not measured"),
        }
    }
    assert!(out.metrics.is_empty(), "unlisted metrics: {:?}", out.metrics);
    out.metrics = ordered;
    out
}
