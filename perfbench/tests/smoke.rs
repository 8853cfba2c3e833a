//! Smoke-sized runs of every workload, and determinism of the inputs
//! and of everything the program computes from them.

use perfbench::online::{self, Served};
use perfbench::{offline, run, Checks, Plan, Workload, CHECKPOINT_EVERY, END_TO_END, PER_LAYER};
use service::{DurableScheduler, SolverFault};

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        for traced in [false, true] {
            let out = run(workload, &Plan::smoke(), 3, traced);
            let listed: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = listed.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expected, "{} traced={traced}", workload.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            assert_eq!(out.checks.failed, 0, "{:?}", out.checks.messages);
            assert!(out.checks.attempted > 0);
            assert_eq!(out.tracer.is_some(), traced);
            if !traced {
                // End-to-end metrics are never 0 on a run that did work.
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{} {} is 0", workload.name(), m.name);
                }
            }
        }
    }
}

#[test]
fn traced_runs_cover_the_wrapped_calls_and_split_the_layers() {
    let value = |out: &perfbench::Outcome, name: &str| {
        out.metrics.iter().find(|m| m.name == name).expect("listed metric").value
    };
    for workload in Workload::ALL {
        let out = run(workload, &Plan::smoke(), 5, true);
        assert!(value(&out, "tracing.coverage_pct") >= 90.0, "{}", workload.name());
        let spans = out.tracer.as_ref().expect("traced").to_jsonl();
        assert!(spans.lines().all(|l| l.contains("\"request\":")));
    }
    let churn = run(Workload::OnlineChurn, &Plan::smoke(), 5, true);
    assert_eq!(value(&churn, "service.epochs.tier1"), value(&churn, "service.events"));
    assert!(value(&churn, "lp.hybrid_certified") > 0.0);
    let batch = run(Workload::OfflineBatch, &Plan::smoke(), 5, true);
    for layer in ["core.tstar_search.self_ms", "core.lst_round.self_ms", "lp.probes"] {
        assert!(value(&batch, layer) > 0.0, "{layer} on offline-batch");
    }
    assert_eq!(value(&batch, "service.events"), 0.0);
}

#[test]
fn a_deadline_overrun_on_every_event_keeps_every_epoch_lp_free() {
    let plan = Plan::smoke();
    for stream in online::generate(&plan, 5) {
        let mut checks = Checks::default();
        let fault = Some(SolverFault::DeadlineOverrun);
        let bytes = online::serve(&stream, &plan, fault, &mut checks, &mut Served::default(), None)
            .expect("pass completes");
        // Every ingest was checked to take tier 3.
        assert_eq!(checks.failed, 0, "{:?}", checks.messages);
        let (svc, _) = DurableScheduler::recover(online::config(), &bytes, CHECKPOINT_EVERY)
            .expect("journal recovers");
        let r = svc.report();
        assert_eq!(r.epochs_tier3, stream.len());
        assert_eq!(r.epochs_tier1 + r.epochs_tier2, 0);
        let lp = [r.hybrid_certified, r.hybrid_fallbacks, r.factor_reuses, r.warm_fallbacks];
        assert_eq!(lp, [0; 4]);
    }
}

#[test]
fn same_seed_gives_identical_inputs_counts_and_journal_bytes() {
    let plan = Plan::smoke();
    let journals = |seed| {
        online::generate(&plan, seed)
            .iter()
            .map(|stream| {
                let mut checks = Checks::default();
                let bytes =
                    online::serve(stream, &plan, None, &mut checks, &mut Served::default(), None);
                assert_eq!(checks.failed, 0, "{:?}", checks.messages);
                (bytes.expect("pass completes"), checks.attempted)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(journals(11), journals(11));
    assert_ne!(online::generate(&plan, 11), online::generate(&plan, 12));
    let batch = |seed| {
        let ptimes = |i: &hsched_core::Instance| {
            (0..i.num_jobs())
                .flat_map(|j| (0..i.family().len()).map(move |a| i.ptime(j, a)))
                .collect::<Vec<_>>()
        };
        offline::generate(&plan, seed).iter().map(ptimes).collect::<Vec<_>>()
    };
    assert_eq!(batch(11), batch(11));
    assert_ne!(batch(11), batch(12));

    // Every count in the traced split repeats exactly; only timings move.
    for workload in Workload::ALL {
        let counts = |seed| {
            run(workload, &plan, seed, true)
                .metrics
                .into_iter()
                .filter(|m| m.unit() == "count" || m.unit() == "B")
                .map(|m| (m.name, m.value))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(21), counts(21), "{}", workload.name());
    }
}
