//! `two_approx`'s `T*` search against the plain algorithm it replaced:
//! bisect `[lo, hi]` with one feasibility solve per probe, then round
//! once with `lst_assign(p, m, t*)`. The lower-bound-first search and
//! the reuse of its rounding must give the same `T*`, assignment and
//! makespan, on inputs where `lo` is feasible and where it is not.

use hsched_core::approx::{singleton_times, two_approx};
use hsched_core::hier::schedule_hierarchical;
use hsched_core::lst::{lst_assign, lst_binary_search, lst_lower_bound};
use hsched_core::{Assignment, Instance};
use laminar::{topology, LaminarFamily};
use numeric::Q;
use workloads::{random, rng};

/// `two_approx`'s `(lo, hi)` bounds on the singleton-completed instance.
fn bounds(completed: &Instance) -> (u64, u64) {
    let lo = completed.bottleneck_lower_bound().max(completed.volume_lower_bound()).max(1);
    (lo, completed.sequential_upper_bound().max(lo))
}

/// The reference pipeline: `(T*, assignment, makespan)` from a plain
/// bisection of `[lo, hi]` (cold exact solves), one rounding at `T*`,
/// and Algorithms 2+3 at the rounding's minimal horizon.
fn reference(inst: &Instance) -> (u64, Assignment, Q) {
    let completed = inst.with_singletons();
    let m = completed.num_machines();
    let p = singleton_times(&completed);
    let (mut lo, mut hi) = bounds(&completed);
    assert!(lst_assign(&p, m, hi).is_some(), "the sequential bound is feasible");
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if lst_assign(&p, m, mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let rounding = lst_assign(&p, m, lo).expect("T* is feasible");
    let singles = completed.singleton_index();
    let assignment = Assignment::new(
        rounding.machine_of.iter().map(|&i| singles[i].expect("singleton")).collect(),
    );
    let t = assignment.minimal_integral_horizon(&completed).expect("finite pairs");
    let schedule =
        schedule_hierarchical(&completed, &assignment, &Q::from(t)).expect("feasible schedule");
    (lo, assignment, schedule.makespan())
}

/// Is `two_approx`'s lower bound `lo` itself a feasible horizon?
fn lo_feasible(inst: &Instance) -> bool {
    let completed = inst.with_singletons();
    let (lo, _) = bounds(&completed);
    lst_assign(&singleton_times(&completed), completed.num_machines(), lo).is_some()
}

fn assert_matches_reference(inst: &Instance, what: &str) {
    let (t_star, assignment, makespan) = reference(inst);
    let r = two_approx(inst);
    assert_eq!(r.t_star, t_star, "{what}: T*");
    assert_eq!(r.assignment, assignment, "{what}: assignment");
    assert_eq!(r.makespan, makespan, "{what}: makespan");
}

fn families() -> [(&'static str, LaminarFamily); 3] {
    [
        ("semi_partitioned(16)", topology::semi_partitioned(16)),
        ("clustered(4,4)", topology::clustered(4, 4)),
        ("smp_cmp([2,4,4])", topology::smp_cmp(&[2, 4, 4])),
    ]
}

/// Seeded overhead instances (the offline benchmark's generator, small
/// `n`): `lo` is feasible on every one, so the search is one probe.
#[test]
fn two_approx_matches_plain_bisection_on_overhead_instances() {
    for (name, family) in families() {
        for seed in 0..3u64 {
            let inst =
                random::overhead_instance(family.clone(), 6, 1, 20, 1, 4, &mut rng(seed * 7 + 1));
            assert!(lo_feasible(&inst), "{name} seed {seed}: lo is T* on overhead instances");
            assert_matches_reference(&inst, &format!("{name} seed {seed}"));
        }
    }
}

/// Heterogeneous machine speeds make the lower bound infeasible, so the
/// search falls back to checking `hi` and bisecting `[lo + 1, hi]`.
#[test]
fn two_approx_matches_plain_bisection_when_lo_is_infeasible() {
    for (name, family, seed) in [
        ("semi_partitioned(4)", topology::semi_partitioned(4), 3u64),
        ("clustered(2,2)", topology::clustered(2, 2), 5),
    ] {
        let inst = random::heterogeneous_instance(family, 6, 1, 30, 6, &mut rng(seed));
        assert!(!lo_feasible(&inst), "{name} seed {seed}: lo must be infeasible here");
        assert_matches_reference(&inst, &format!("{name} seed {seed}"));
    }
}

/// The lower bound the other LST callers search from never exceeds `T*`,
/// and searching from it or from 1 gives the same `T*` and rounding.
#[test]
fn lst_lower_bound_keeps_the_search_result() {
    for seed in 0..4u64 {
        let inst = random::heterogeneous_instance(
            topology::semi_partitioned(3),
            5,
            1,
            30,
            5,
            &mut rng(seed + 40),
        )
        .with_singletons();
        let (p, m) = (singleton_times(&inst), inst.num_machines());
        let hi: u64 = p.iter().map(|row| row.iter().flatten().min().unwrap()).sum();
        let lb = lst_lower_bound(&p, m).max(1);
        let (t_from_1, a_from_1) = lst_binary_search(&p, m, 1, hi).expect("feasible");
        let (t_from_lb, a_from_lb) = lst_binary_search(&p, m, lb, hi).expect("feasible");
        assert!(lb <= t_from_1, "seed {seed}: lower bound {lb} above T* {t_from_1}");
        assert_eq!(t_from_lb, t_from_1, "seed {seed}");
        assert_eq!(a_from_lb.machine_of, a_from_1.machine_of, "seed {seed}");
        assert_eq!(a_from_lb.fractional, a_from_1.fractional, "seed {seed}");
    }
}
