//! `online-churn`: the durable, hardened service path
//! (`DurableScheduler::ingest`, a checkpoint every [`CHECKPOINT_EVERY`]
//! events) driven by one closed-loop caller, with the service killed and
//! recovered from its journal at a fixed cadence.

use std::time::Instant;

use hsched_core::approx::two_approx;
use hsched_core::Instance;
use rand::rngs::StdRng;
use rand::SeedableRng;
use service::journal::{self, Record};
use service::{
    event_stream, DurableScheduler, EpochOutcome, Event, Ingest, JobSpec, JournalWriter, Scheduler,
    ServiceConfig, ServiceReport, SolverFault, StreamConfig, Tier,
};

use crate::trace::Tracer;
use crate::CHECKPOINT_EVERY;
use crate::{ms_since, offline, stats, timed_setup, Checks, Metric, Outcome, Plan};

/// The service `online-churn` drives: `ServiceConfig::semi_partitioned(5)`.
pub fn config() -> ServiceConfig {
    ServiceConfig::semi_partitioned(5)
}

/// The tier every epoch must take under `fault`: the warm LP ladder
/// without a fault, the LP-free tier 3 under a deadline overrun.
fn expected_tier(fault: Option<SolverFault>) -> Tier {
    match fault {
        None => Tier::Warm,
        Some(_) => Tier::Degraded,
    }
}

/// The traffic mix: arrive 40 / depart 40 / fail 10 / recover 10, 15 %
/// of arrivals pinned, base demand 1–20.
fn stream_config(events: usize) -> StreamConfig {
    StreamConfig {
        events,
        arrive_pct: 40,
        depart_pct: 40,
        fail_pct: 10,
        pin_pct: 15,
        base_lo: 1,
        base_hi: 20,
    }
}

/// The run's event streams, one per pass, each a pure function of
/// `(seed, pass)`: `plan.base_jobs` arrivals of long-lived jobs (drawn
/// like the traffic but never departed), then `plan.events` events of
/// churn whose job ids follow theirs.
pub fn generate(plan: &Plan, seed: u64) -> Vec<Vec<Event>> {
    let family = config().family;
    let base = StreamConfig {
        arrive_pct: 100,
        depart_pct: 0,
        fail_pct: 0,
        ..stream_config(plan.base_jobs)
    };
    let offset = plan.base_jobs as u64;
    (0..plan.streams)
        .map(|k| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut events = event_stream(&family, &base, &mut rng);
            events.extend(
                event_stream(&family, &stream_config(plan.events), &mut rng).into_iter().map(|e| {
                    match e {
                        Event::Arrive(spec) => {
                            Event::Arrive(JobSpec { id: spec.id + offset, ..spec })
                        }
                        Event::Depart(id) => Event::Depart(id + offset),
                        other => other,
                    }
                }),
            );
            events
        })
        .collect()
}

/// Wall times of served events and recoveries.
#[derive(Clone, Debug, Default)]
pub struct Served {
    /// Per applied event: `DurableScheduler::ingest` wall ms.
    pub epoch_ms: Vec<f64>,
    /// Per kill: `DurableScheduler::recover` wall ms.
    pub recover_ms: Vec<f64>,
}

/// Ingest one event, timing the call, and check it took the tier `fault`
/// calls for. `None` (after counting the failure) when the event was not
/// applied: the pass cannot continue.
fn ingest_timed(
    svc: &mut DurableScheduler,
    event: &Event,
    fault: Option<SolverFault>,
    checks: &mut Checks,
    served: &mut Served,
) -> Option<EpochOutcome> {
    let t0 = Instant::now();
    let res = svc.ingest(event, fault);
    let ms = ms_since(t0);
    match res {
        Ok(Ingest::Applied(o)) => {
            served.epoch_ms.push(ms);
            checks.op(tier_check(&o, expected_tier(fault)));
            Some(o)
        }
        Ok(Ingest::Rejected(e)) => {
            checks.op(Err(format!("well-formed event rejected: {e}")));
            None
        }
        Err(e) => {
            checks.op(Err(format!("service error: {e}")));
            None
        }
    }
}

fn tier_check(o: &EpochOutcome, tier: Tier) -> Result<(), String> {
    if o.tier == tier {
        Ok(())
    } else {
        Err(format!("event {} took tier {:?}, expected {tier:?}", o.event_index, o.tier))
    }
}

/// Kill the service (drop it, keeping only its journal bytes as
/// written) and time `DurableScheduler::recover` on them. The recovered
/// service must report exactly what the killed one did.
fn kill_and_recover(
    svc: DurableScheduler,
    cfg: &ServiceConfig,
    checks: &mut Checks,
    served: &mut Served,
) -> Option<DurableScheduler> {
    let bytes = svc.journal_bytes().to_vec();
    let (before, seq) = (svc.report(), svc.seq());
    drop(svc);
    let cfg = cfg.clone();
    let t0 = Instant::now();
    let res = DurableScheduler::recover(cfg, &bytes, CHECKPOINT_EVERY);
    let ms = ms_since(t0);
    let verdict = match &res {
        Err(e) => Err(format!("recovery failed: {e}")),
        Ok((rec, info)) => {
            served.recover_ms.push(ms);
            if info.tail.is_some() || info.next_seq != seq {
                Err(format!("recovery stopped early: {:?} at {}", info.tail, info.next_seq))
            } else if rec.report() != before {
                Err(format!("recovered report differs at seq {seq}"))
            } else if rec.journal_bytes() != bytes.as_slice() {
                Err(format!("recovered journal differs at seq {seq}"))
            } else {
                Ok(())
            }
        }
    };
    let ok = verdict.is_ok();
    checks.op(verdict);
    res.ok().filter(|_| ok).map(|(rec, _)| rec)
}

/// The service's processing time of `spec` on family set `a` (the same
/// migration-overhead model `Scheduler` applies).
fn ptime(cfg: &ServiceConfig, spec: &JobSpec, a: usize) -> Option<u64> {
    let set = cfg.family.set(a);
    match spec.pinned {
        Some(i) => (set.len() == 1 && set.contains(i)).then_some(spec.base),
        None => {
            let m = cfg.family.num_machines() as u64;
            let extra = spec.base * cfg.ovh_num * (set.len() as u64 - 1);
            Some(spec.base + extra.div_ceil(cfg.ovh_den * m))
        }
    }
}

/// The instance the service's last epoch scheduled: its live jobs over
/// its healthy machines. `None` when no job is live.
fn live_instance(sched: &Scheduler) -> Option<Result<Instance, String>> {
    let cfg = sched.config();
    let specs = sched.active_jobs();
    if specs.is_empty() {
        return None;
    }
    let full = Instance::from_fn(cfg.family.clone(), specs.len(), |j, a| ptime(cfg, &specs[j], a));
    Some(match full {
        Err(e) => Err(format!("live jobs do not form an instance: {e:?}")),
        Ok(inst) => inst
            .restrict_to(sched.healthy())
            .map(|r| r.instance)
            .ok_or_else(|| "no healthy machine".to_string()),
    })
}

/// Solve a live state offline with `two_approx`, timing the call, and
/// cross-check it against the tier-1 epoch that produced that state:
/// both certify the same `T*`.
fn resolve(inst: &Instance, last: &EpochOutcome, checks: &mut Checks, solve_ms: &mut Vec<f64>) {
    let t0 = Instant::now();
    let r = two_approx(inst);
    solve_ms.push(ms_since(t0));
    let verdict = offline::check_solution(&r).verdict.and_then(|()| {
        if last.tier == Tier::Warm && r.t_star == last.t_star {
            Ok(())
        } else {
            Err(format!(
                "epoch {} ({:?}) certified T* {}, offline T* is {}",
                last.event_index, last.tier, last.t_star, r.t_star
            ))
        }
    });
    checks.op(verdict);
}

/// Serve one stream through a fresh durable service over [`config`],
/// every event carrying `fault`, killing and recovering the service
/// every `plan.kill_every` events. With `solve_ms`, the live state after
/// every `plan.resolve_every` events is also solved offline, once the
/// pass is over so the solves do not disturb the epochs' timings.
/// Returns the final journal bytes, or `None` if the pass was aborted by
/// a failure.
pub fn serve(
    stream: &[Event],
    plan: &Plan,
    fault: Option<SolverFault>,
    checks: &mut Checks,
    served: &mut Served,
    solve_ms: Option<&mut Vec<f64>>,
) -> Option<Vec<u8>> {
    let cfg = config();
    let mut svc = DurableScheduler::new(cfg.clone(), CHECKPOINT_EVERY);
    let mut live = Vec::new();
    for (i, event) in stream.iter().enumerate() {
        let o = ingest_timed(&mut svc, event, fault, checks, served)?;
        if (i + 1) % plan.kill_every == 0 {
            svc = kill_and_recover(svc, &cfg, checks, served)?;
        }
        if solve_ms.is_some() && (i + 1) % plan.resolve_every == 0 {
            match live_instance(svc.scheduler()) {
                Some(Ok(inst)) => live.push((inst, o)),
                Some(Err(e)) => checks.op(Err(e)),
                None => {}
            }
        }
    }
    if let Some(solves) = solve_ms {
        for (inst, o) in &live {
            resolve(inst, o, checks, solves);
        }
    }
    Some(svc.journal_bytes().to_vec())
}

/// What the traced mirror measures besides spans.
#[derive(Default)]
struct MirrorStats {
    events: usize,
    event_bytes: usize,
    checkpoint_bytes: Vec<f64>,
    journal_bytes_at_kill: Vec<f64>,
    replayed: Vec<f64>,
    live_jobs: Vec<f64>,
    report: ServiceReport,
}

impl MirrorStats {
    /// Add the counters the per-layer split reports from one pass.
    fn add_counters(&mut self, r: &ServiceReport) {
        let t = &mut self.report;
        t.epochs_tier1 += r.epochs_tier1;
        t.epochs_tier2 += r.epochs_tier2;
        t.epochs_tier3 += r.epochs_tier3;
        t.budget_exhaustions += r.budget_exhaustions;
        t.hybrid_certified += r.hybrid_certified;
        t.hybrid_fallbacks += r.hybrid_fallbacks;
        t.factor_reuses += r.factor_reuses;
        t.warm_fallbacks += r.warm_fallbacks;
    }
}

/// The traced mirror of one `DurableScheduler`: the public pieces it
/// wraps, called in the same order, each inside its span.
struct MirrorService {
    cfg: ServiceConfig,
    sched: Scheduler,
    journal: JournalWriter,
    since_checkpoint: usize,
}

impl MirrorService {
    fn new(cfg: ServiceConfig) -> Self {
        let sched = Scheduler::new(cfg.clone());
        MirrorService { cfg, sched, journal: JournalWriter::new(), since_checkpoint: 0 }
    }

    /// `DurableScheduler::ingest` of event `seq`.
    fn ingest(
        &mut self,
        tr: &mut Tracer,
        request: u64,
        seq: u64,
        event: &Event,
        mirror: &mut MirrorStats,
    ) -> Result<(), String> {
        let (fault, sched, journal) = (None, &mut self.sched, &mut self.journal);
        tr.enter("service.ingest", request);
        let before = journal.len();
        tr.span("service.journal", request, || journal.append_event(seq, event, fault));
        let verdict = tr
            .span("service.validate", request, || sched.validate_event(event))
            .map_err(|e| format!("well-formed event rejected: {e}"))
            .and_then(|()| {
                tr.span("service.apply", request, || sched.apply(event, fault))
                    .map_err(|e| format!("service error: {e}"))
            })
            .inspect(|o| tr.span("service.journal", request, || journal.append_outcome(seq, o)));
        mirror.event_bytes += journal.len() - before;
        if verdict.is_ok() {
            self.since_checkpoint += 1;
            if self.since_checkpoint >= CHECKPOINT_EVERY {
                let before = journal.len();
                tr.span("service.checkpoint", request, || {
                    journal.append_checkpoint(&sched.checkpoint())
                });
                mirror.checkpoint_bytes.push((journal.len() - before) as f64);
                self.since_checkpoint = 0;
            }
        }
        tr.exit();
        mirror.events += 1;
        mirror.live_jobs.push(sched.active_jobs().len() as f64);
        verdict.and_then(|o| tier_check(&o, Tier::Warm))
    }

    /// `DurableScheduler::recover` on this service's journal, which ends
    /// at an event boundary: scan, restore the last checkpoint, replay
    /// the tail cross-checking each journaled outcome. The recovered
    /// scheduler replaces the running one and must report what it did.
    fn recover(
        &mut self,
        tr: &mut Tracer,
        request: u64,
        mirror: &mut MirrorStats,
    ) -> Result<(), String> {
        let (cfg, bytes) = (&self.cfg, self.journal.as_bytes());
        mirror.journal_bytes_at_kill.push(bytes.len() as f64);
        tr.enter("service.recover", request);
        let recovered = (|| {
            let scan = tr
                .span("service.recover.scan", request, || journal::recover(bytes))
                .map_err(|e| format!("journal scan failed: {e}"))?;
            if scan.tail.is_some() || scan.valid_len != bytes.len() {
                return Err(format!("journal scan stopped early: {:?}", scan.tail));
            }
            let base = scan.records.iter().rposition(|(_, r)| matches!(r, Record::Checkpoint(_)));
            let mut sched = tr.span("service.recover.restore", request, || match base {
                Some(i) => match &scan.records[i].1 {
                    Record::Checkpoint(ck) => Scheduler::restore(cfg.clone(), ck)
                        .map_err(|e| format!("restore failed: {e}")),
                    _ => unreachable!("rposition found a checkpoint"),
                },
                None => Ok(Scheduler::new(cfg.clone())),
            })?;
            let tail = &scan.records[base.map_or(0, |i| i + 1)..];
            let replayed = tr.span("service.recover.replay", request, || {
                let mut replayed = 0usize;
                for pair in tail.chunks(2) {
                    let (
                        Record::Event { seq, event, fault },
                        Some((_, Record::Outcome { outcome, .. })),
                    ) = (&pair[0].1, pair.get(1))
                    else {
                        return Err("journal tail is not event/outcome pairs".to_string());
                    };
                    match sched.ingest(event, *fault) {
                        Ok(Ingest::Applied(o)) if o == *outcome => replayed += 1,
                        _ => return Err(format!("replay diverged at seq {seq}")),
                    }
                }
                Ok(replayed)
            })?;
            mirror.replayed.push(replayed as f64);
            Ok(sched)
        })();
        tr.exit();
        let sched = recovered?;
        if sched.report() != self.sched.report() {
            return Err(format!("recovered report differs at request {request}"));
        }
        self.sched = sched;
        // `DurableScheduler::recover` restarts the checkpoint cadence.
        self.since_checkpoint = 0;
        Ok(())
    }
}

/// The traced mirror of [`serve`] (without the offline re-solves).
/// Returns the final journal bytes.
fn traced_serve(
    stream: &[Event],
    plan: &Plan,
    request_base: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
    mirror: &mut MirrorStats,
) -> Option<Vec<u8>> {
    let mut svc = MirrorService::new(config());
    for (i, event) in stream.iter().enumerate() {
        let seq = i as u64;
        let request = request_base + seq;
        let mut verdict = svc.ingest(tr, request, seq, event, mirror);
        if verdict.is_ok() && (i + 1) % plan.kill_every == 0 {
            verdict = svc.recover(tr, request, mirror);
        }
        let ok = verdict.is_ok();
        checks.op(verdict);
        if !ok {
            return None;
        }
    }
    mirror.add_counters(&svc.sched.report());
    Some(svc.journal.as_bytes().to_vec())
}

/// Run `online-churn`.
pub fn run(plan: &Plan, seed: u64, traced: bool) -> Outcome {
    let (setup_s, setup_samples, (streams, generate_ms)) = timed_setup(plan.setup_reps, || {
        let t0 = Instant::now();
        let streams = generate(plan, seed);
        let generate_ms = ms_since(t0);
        std::hint::black_box(DurableScheduler::new(config(), CHECKPOINT_EVERY));
        (streams, generate_ms)
    });
    let mut checks = Checks::default();
    let mut served = Served::default();
    let start = Instant::now();
    if !traced {
        // Throughputs are totals over the run; the per-pass rates are
        // kept as their samples.
        let (mut solve_ms, mut event_rates, mut solve_rates) = (Vec::new(), Vec::new(), Vec::new());
        let mut pass = 0;
        loop {
            let stream = &streams[pass % streams.len()];
            let (e0, s0) = (served.epoch_ms.len(), solve_ms.len());
            serve(stream, plan, None, &mut checks, &mut served, Some(&mut solve_ms));
            event_rates.extend(stats::per_second(&served.epoch_ms[e0..]));
            solve_rates.extend(stats::per_second(&solve_ms[s0..]));
            pass += 1;
            if start.elapsed().as_secs_f64() >= plan.seconds {
                break;
            }
        }
        let e = &served.epoch_ms;
        return Outcome {
            checks,
            metrics: vec![
                Metric::from_samples("setup_s", setup_s, &setup_samples),
                Metric::from_samples("events_per_s", stats::rate(e), &event_rates),
                Metric::from_samples("epoch_p50_ms", stats::median(e), e),
                Metric::from_samples("epoch_p99_ms", stats::percentile(e, 0.99), e),
                Metric::from_samples(
                    "recover_p50_ms",
                    stats::median(&served.recover_ms),
                    &served.recover_ms,
                ),
                Metric::from_samples("instances_per_s", stats::rate(&solve_ms), &solve_rates),
                Metric::from_samples("solve_p50_ms", stats::median(&solve_ms), &solve_ms),
                Metric::from_samples("solve_p90_ms", stats::percentile(&solve_ms, 0.9), &solve_ms),
            ],
            tracer: None,
        };
    }

    let mut tr = Tracer::default();
    let mut mirror = MirrorStats::default();
    let mut pass = 0;
    let mut request_base = 0;
    loop {
        let stream = &streams[pass % streams.len()];
        let plain = serve(stream, plan, None, &mut checks, &mut served, None);
        let mirrored = traced_serve(stream, plan, request_base, &mut tr, &mut checks, &mut mirror);
        checks.op(match (plain, mirrored) {
            (Some(a), Some(b)) if a == b => Ok(()),
            (Some(_), Some(_)) => {
                Err(format!("traced journal differs from untraced (pass {pass})"))
            }
            _ => Err(format!("pass {pass} aborted")),
        });
        request_base += stream.len() as u64;
        pass += 1;
        if start.elapsed().as_secs_f64() >= plan.seconds {
            break;
        }
    }

    let totals = tr.totals();
    let per = |name: &str, n: usize| totals.get(name).map_or(0.0, |t| t.2 / n.max(1) as f64);
    let n = mirror.events;
    let recovers = mirror.replayed.len();
    let apply: Vec<f64> =
        tr.spans().iter().filter(|s| s.name == "service.apply").map(|s| s.ms()).collect();
    let traced_ms = totals.get("service.ingest").map_or(0.0, |t| t.1);
    let plain_ms: f64 = served.epoch_ms.iter().sum();
    let r = &mirror.report;
    let metrics = vec![
        Metric::scalar("service.ingest.mean_ms", traced_ms / n.max(1) as f64),
        Metric::scalar("service.apply.self_ms", per("service.apply", n)),
        Metric::from_samples("service.apply.p50_ms", stats::median(&apply), &apply),
        Metric::from_samples("service.apply.p99_ms", stats::percentile(&apply, 0.99), &apply),
        Metric::scalar("service.validate.self_ms", per("service.validate", n)),
        Metric::scalar("service.journal.self_ms", per("service.journal", n)),
        Metric::scalar("service.checkpoint.self_ms", per("service.checkpoint", n)),
        Metric::scalar(
            "service.journal.bytes_per_event",
            mirror.event_bytes as f64 / n.max(1) as f64,
        ),
        Metric::from_samples(
            "service.checkpoint.bytes",
            stats::median(&mirror.checkpoint_bytes),
            &mirror.checkpoint_bytes,
        ),
        Metric::from_samples(
            "service.journal.bytes",
            stats::median(&mirror.journal_bytes_at_kill),
            &mirror.journal_bytes_at_kill,
        ),
        Metric::scalar("service.recover.self_ms", per("service.recover", recovers)),
        Metric::scalar("service.recover.scan_ms", per("service.recover.scan", recovers)),
        Metric::scalar("service.recover.restore_ms", per("service.recover.restore", recovers)),
        Metric::scalar("service.recover.replay_ms", per("service.recover.replay", recovers)),
        Metric::from_samples(
            "service.recover.replayed_events",
            mirror.replayed.iter().sum::<f64>() / recovers.max(1) as f64,
            &mirror.replayed,
        ),
        Metric::scalar(
            "service.live_jobs.mean",
            mirror.live_jobs.iter().sum::<f64>() / n.max(1) as f64,
        ),
        Metric::scalar(
            "service.live_jobs.max",
            mirror.live_jobs.iter().copied().fold(0.0, f64::max),
        ),
        Metric::scalar("service.events", n as f64),
        Metric::scalar("service.epochs.tier1", r.epochs_tier1 as f64),
        Metric::scalar("service.epochs.tier2", r.epochs_tier2 as f64),
        Metric::scalar("service.epochs.tier3", r.epochs_tier3 as f64),
        Metric::scalar("service.budget_exhaustions", r.budget_exhaustions as f64),
        Metric::scalar("lp.hybrid_certified", r.hybrid_certified as f64),
        Metric::scalar("lp.hybrid_fallbacks", r.hybrid_fallbacks as f64),
        Metric::scalar("lp.factor_reuses", r.factor_reuses as f64),
        Metric::scalar("lp.warm_fallbacks", r.warm_fallbacks as f64),
        Metric::scalar("workloads.generate_ms", generate_ms),
        Metric::scalar("tracing.overhead_pct", 100.0 * (traced_ms - plain_ms) / plain_ms),
        Metric::scalar("tracing.coverage_pct", tr.coverage_pct("service.ingest")),
    ];
    // Whole-run tier expectations on the per-epoch counters.
    checks.op(if r.epochs_tier2 + r.epochs_tier3 > 0 {
        Err(format!("churn took {} tier-2 and {} tier-3 epochs", r.epochs_tier2, r.epochs_tier3))
    } else {
        Ok(())
    });
    Outcome { checks, metrics, tracer: Some(tr) }
}
