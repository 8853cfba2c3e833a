//! `offline-batch`: the paper's offline Theorem V.2 pipeline
//! (`two_approx`) on a seeded batch of migration-overhead instances over
//! three topologies, solved one at a time.

use std::time::Instant;

use hsched_core::approx::{singleton_times, two_approx, TwoApproxResult};
use hsched_core::hier::schedule_hierarchical;
use hsched_core::lst::{lst_assign, lst_binary_search_priced, LstProbe};
use hsched_core::{Assignment, Instance};
use laminar::{topology, LaminarFamily};
use numeric::Q;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simulator::simulate;
use workloads::random::overhead_instance;

use crate::online::{self, Served};
use crate::trace::Tracer;
use crate::{ms_since, stats, timed_setup, Checks, Metric, Outcome, Plan};

/// The batch's topologies, used round-robin: semi-partitioned over 16
/// machines, 4 clusters of 4, and a 2×4×4 SMP-CMP tree (32 machines).
fn topologies() -> [LaminarFamily; 3] {
    [topology::semi_partitioned(16), topology::clustered(4, 4), topology::smp_cmp(&[2, 4, 4])]
}

/// The batch: `plan.instances` overhead-model instances (base 1–20,
/// overhead 1/4), a pure function of `seed`.
pub fn generate(plan: &Plan, seed: u64) -> Vec<Instance> {
    let families = topologies();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..plan.instances)
        .map(|i| overhead_instance(families[i % 3].clone(), plan.jobs, 1, 20, 1, 4, &mut rng))
        .collect()
}

/// The correctness verdict on one `two_approx` result, with the time
/// each check took.
pub(crate) struct SolutionCheck {
    /// `Ok` when every check passed.
    pub(crate) verdict: Result<(), String>,
    /// Wall ms of `Schedule::validate`.
    pub(crate) validate_ms: f64,
    /// Wall ms of `simulate`.
    pub(crate) simulate_ms: f64,
}

/// The schedule validates at its horizon, and replaying it on the
/// simulator gives the reported makespan, which is at most `2·T*`.
pub(crate) fn check_solution(r: &TwoApproxResult) -> SolutionCheck {
    let t0 = Instant::now();
    let valid = match r.assignment.minimal_integral_horizon(&r.instance) {
        None => Err("assignment uses an inadmissible pair".to_string()),
        Some(t) => r
            .schedule
            .validate(&r.instance, &r.assignment, &Q::from(t))
            .map_err(|e| format!("schedule invalid: {e:?}")),
    };
    let validate_ms = ms_since(t0);
    let t0 = Instant::now();
    let replay = simulate(&r.schedule, r.instance.num_machines());
    let simulate_ms = ms_since(t0);
    let verdict = valid.and_then(|()| match replay {
        Err(e) => Err(format!("simulation failed: {e:?}")),
        Ok(rep) if rep.makespan != r.makespan => {
            Err(format!("simulated makespan {} != reported {}", rep.makespan, r.makespan))
        }
        Ok(rep) if rep.makespan > Q::from(2 * r.t_star) => {
            Err(format!("makespan {} exceeds 2·T* = {}", rep.makespan, 2 * r.t_star))
        }
        Ok(_) => Ok(()),
    });
    SolutionCheck { verdict, validate_ms, simulate_ms }
}

/// What `two_approx` derives from an instance before searching `T*`:
/// the singleton-completed instance, its per-machine times, and the
/// search bracket.
struct Prepared {
    completed: Instance,
    p: Vec<Vec<Option<u64>>>,
    lo: u64,
    hi: u64,
}

fn prepare(inst: &Instance) -> Prepared {
    let completed = inst.with_singletons();
    let p = singleton_times(&completed);
    let lo = completed.bottleneck_lower_bound().max(completed.volume_lower_bound()).max(1);
    let hi = completed.sequential_upper_bound().max(lo);
    Prepared { completed, p, lo, hi }
}

/// The traced mirror of `two_approx`: the same public calls in the same
/// order, each inside its span. Returns `(T*, makespan)`.
fn traced_two_approx(tr: &mut Tracer, id: u64, inst: &Instance) -> Result<(u64, Q), String> {
    tr.enter("core.two_approx", id);
    let res = (|| {
        let Prepared { completed, p, lo, hi } = tr.span("core.prepare", id, || prepare(inst));
        let m = completed.num_machines();
        let (t_star, _) = tr
            .span("core.tstar_search", id, || {
                lst_binary_search_priced(&p, m, lo, hi, lp::Pricing::default())
            })
            .ok_or("T* search found no feasible horizon")?;
        let rounding =
            tr.span("core.lst_round", id, || lst_assign(&p, m, t_star)).ok_or("rounding failed")?;
        let (assignment, t_sched) = tr
            .span("core.horizon", id, || {
                let singles = completed.singleton_index();
                let mask =
                    rounding.machine_of.iter().map(|&i| singles[i]).collect::<Option<Vec<_>>>();
                let assignment = Assignment::new(mask?);
                let t = assignment.minimal_integral_horizon(&completed)?;
                Some((assignment, t))
            })
            .ok_or("rounding used a machine without a singleton set")?;
        let schedule = tr
            .span("core.alg23", id, || {
                schedule_hierarchical(&completed, &assignment, &Q::from(t_sched))
            })
            .map_err(|e| format!("Algorithms 2+3 failed: {e:?}"))?;
        Ok((t_star, schedule.makespan()))
    })();
    tr.exit();
    res
}

/// LP work counters of a binary search for `T*` on `inst`, from a shadow
/// [`LstProbe`] search (the one `lst_binary_search` runs), outside the
/// span tree.
#[derive(Default)]
struct Shadow {
    probes: usize,
    columns_priced: usize,
    columns: usize,
    hybrid_certified: usize,
    hybrid_fallbacks: usize,
    factor_reuses: usize,
    warm_fallbacks: usize,
    search_ms: Vec<f64>,
}

impl Shadow {
    /// Search `T*` and fold the probe's counters in; returns `T*`.
    fn search(&mut self, inst: &Instance) -> Option<u64> {
        let Prepared { completed, p, mut lo, mut hi } = prepare(inst);
        let m = completed.num_machines();
        let t0 = Instant::now();
        let mut probe = LstProbe::new(&p, m);
        let mut probes = 1;
        while !probe.feasible(hi) {
            hi = hi.saturating_mul(2).max(1);
            probes += 1;
            if probes > 65 {
                return None;
            }
        }
        lo = lo.min(hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes += 1;
            if probe.feasible(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        self.search_ms.push(ms_since(t0));
        let cache = probe.cache();
        self.probes += probes;
        self.columns_priced += cache.columns_priced();
        self.columns += p.iter().flatten().filter(|t| t.is_some()).count();
        self.hybrid_certified += cache.hybrid_certified();
        self.hybrid_fallbacks += cache.hybrid_fallbacks();
        self.factor_reuses += cache.factor_reuses();
        self.warm_fallbacks += cache.warm_fallbacks();
        Some(lo)
    }
}

/// Run `offline-batch`.
pub fn run(plan: &Plan, seed: u64, traced: bool) -> Outcome {
    let (setup_s, setup_samples, (batch, streams, generate_ms)) =
        timed_setup(plan.setup_reps, || {
            let t0 = Instant::now();
            let batch = generate(plan, seed);
            // The churn traffic the untraced run serves between solves.
            let streams = online::generate(plan, seed);
            (batch, streams, ms_since(t0))
        });
    let mut checks = Checks::default();
    let mut solve_ms = Vec::new();
    let start = Instant::now();
    if !traced {
        // Throughputs are totals over the run; the per-group rates (a
        // served stream's events; `serve_every` consecutive solves) are
        // kept as their samples.
        let mut served = Served::default();
        let (mut event_rates, mut solve_rates) = (Vec::new(), Vec::new());
        let mut k = 0;
        loop {
            let t0 = Instant::now();
            let r = two_approx(&batch[k % batch.len()]);
            solve_ms.push(ms_since(t0));
            checks.op(check_solution(&r).verdict);
            k += 1;
            if k % plan.serve_every == 0 {
                solve_rates.extend(stats::per_second(&solve_ms[k - plan.serve_every..]));
                let stream = &streams[(k / plan.serve_every - 1) % streams.len()];
                let e0 = served.epoch_ms.len();
                online::serve(stream, plan, None, &mut checks, &mut served, None);
                event_rates.extend(stats::per_second(&served.epoch_ms[e0..]));
            }
            if start.elapsed().as_secs_f64() >= plan.seconds {
                break;
            }
        }
        let (e, rec) = (&served.epoch_ms, &served.recover_ms);
        return Outcome {
            checks,
            metrics: vec![
                Metric::from_samples("setup_s", setup_s, &setup_samples),
                Metric::from_samples("events_per_s", stats::rate(e), &event_rates),
                Metric::from_samples("epoch_p50_ms", stats::median(e), e),
                Metric::from_samples("epoch_p99_ms", stats::percentile(e, 0.99), e),
                Metric::from_samples("recover_p50_ms", stats::median(rec), rec),
                Metric::from_samples("instances_per_s", stats::rate(&solve_ms), &solve_rates),
                Metric::from_samples("solve_p50_ms", stats::median(&solve_ms), &solve_ms),
                Metric::from_samples("solve_p90_ms", stats::percentile(&solve_ms, 0.9), &solve_ms),
            ],
            tracer: None,
        };
    }

    let mut tr = Tracer::default();
    let mut shadow = Shadow::default();
    let (mut validate_ms, mut simulate_ms) = (Vec::new(), Vec::new());
    let mut k = 0;
    loop {
        let inst = &batch[k % batch.len()];
        let t0 = Instant::now();
        let r = two_approx(inst);
        solve_ms.push(ms_since(t0));
        let check = check_solution(&r);
        validate_ms.push(check.validate_ms);
        simulate_ms.push(check.simulate_ms);
        checks.op(check.verdict);
        let mirrored = traced_two_approx(&mut tr, k as u64, inst);
        checks.op(mirrored.and_then(|(t, makespan)| {
            if t == r.t_star && makespan == r.makespan {
                Ok(())
            } else {
                Err(format!("traced mirror of instance {k} differs from two_approx"))
            }
        }));
        checks.op(match shadow.search(inst) {
            Some(t) if t == r.t_star => Ok(()),
            other => Err(format!("shadow search found {other:?}, two_approx {}", r.t_star)),
        });
        k += 1;
        if start.elapsed().as_secs_f64() >= plan.seconds {
            break;
        }
    }

    let totals = tr.totals();
    let per = |name: &str| totals.get(name).map_or(0.0, |t| t.2 / k as f64);
    let traced_ms = totals.get("core.two_approx").map_or(0.0, |t| t.1);
    let plain_ms: f64 = solve_ms.iter().sum();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let metrics = vec![
        Metric::scalar("core.two_approx.mean_ms", traced_ms / k as f64),
        Metric::scalar("core.prepare.self_ms", per("core.prepare")),
        Metric::scalar("core.tstar_search.self_ms", per("core.tstar_search")),
        Metric::scalar("core.lst_round.self_ms", per("core.lst_round")),
        Metric::scalar("core.horizon.self_ms", per("core.horizon")),
        Metric::scalar("core.alg23.self_ms", per("core.alg23")),
        Metric::scalar("core.instances", k as f64),
        Metric::scalar("lp.probes", shadow.probes as f64),
        Metric::scalar("lp.columns_priced", shadow.columns_priced as f64),
        Metric::scalar("lp.columns", shadow.columns as f64),
        Metric::scalar("lp.hybrid_certified", shadow.hybrid_certified as f64),
        Metric::scalar("lp.hybrid_fallbacks", shadow.hybrid_fallbacks as f64),
        Metric::scalar("lp.factor_reuses", shadow.factor_reuses as f64),
        Metric::scalar("lp.warm_fallbacks", shadow.warm_fallbacks as f64),
        Metric::from_samples("lp.probe_search_ms", mean(&shadow.search_ms), &shadow.search_ms),
        Metric::from_samples("check.validate_ms", mean(&validate_ms), &validate_ms),
        Metric::from_samples("check.simulate_ms", mean(&simulate_ms), &simulate_ms),
        Metric::scalar("workloads.generate_ms", generate_ms),
        Metric::scalar("tracing.overhead_pct", 100.0 * (traced_ms - plain_ms) / plain_ms),
        Metric::scalar("tracing.coverage_pct", tr.coverage_pct("core.two_approx")),
    ];
    Outcome { checks, metrics, tracer: Some(tr) }
}
