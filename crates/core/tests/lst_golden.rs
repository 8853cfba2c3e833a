//! Pins the cold exact LST rounding on the offline benchmark's instance
//! family (n = 48 overhead instances over its three topologies, at the
//! LST lower bound): the rounded assignment, the fractional vertex it
//! came from, and the revised simplex's work counters. The exact
//! kernel's fast paths may change how values are computed, never which
//! values: a drift in the vertex, the pivot count, or the priced-column
//! count shows up here.

use hsched_core::approx::singleton_times;
use hsched_core::lst::{lst_assign_with, lst_lower_bound};
use laminar::{topology, LaminarFamily};
use workloads::{random, rng};

/// One pinned rounding: the instance (family, seed), the horizon, and
/// what the cold exact solve must reproduce.
struct Pin {
    family: &'static str,
    seed: u64,
    t: u64,
    /// `machine_of`, space-separated.
    machine_of: &'static str,
    /// `job:machine=weight` for every job split across machines.
    fractional: &'static str,
    pivots: usize,
    columns_priced: usize,
}

const PINS: [Pin; 6] = [
    Pin {
        family: "semi_partitioned(16)",
        seed: 11,
        t: 29,
        machine_of: "15 14 14 13 13 12 12 11 11 10 10 10 9 9 9 8 8 8 7 7 7 6 6 6 6 6 5 5 5 4 4 4 4 4 3 3 3 3 3 2 2 2 1 1 0 0 0 0",
        fractional: "1:14=5/9 1:15=4/9 3:13=2/3 3:14=1/3 5:12=2/5 5:13=3/5 7:11=13/15 7:12=2/15 9:10=1/7 9:11=6/7 12:9=1/2 12:10=1/2 15:8=3/4 15:9=1/4 18:7=1/9 18:8=8/9 21:6=1/6 21:7=5/6 26:5=2/5 26:6=3/5 29:4=5/8 29:5=3/8 34:3=7/10 34:4=3/10 39:2=13/14 39:3=1/14 44:0=1/7 44:1=6/7",
        pivots: 368,
        columns_priced: 89157,
    },
    Pin {
        family: "semi_partitioned(16)",
        seed: 12,
        t: 27,
        machine_of: "15 15 15 14 14 14 14 13 13 12 11 11 11 11 10 10 9 9 9 9 8 8 8 8 7 7 7 6 6 6 6 5 5 5 5 4 4 3 3 2 2 2 1 1 1 0 0 0",
        fractional: "3:14=1/2 3:15=1/2 7:13=11/13 7:14=2/13 9:12=17/18 9:13=1/18 10:11=1/11 10:12=10/11 14:10=3/4 14:11=1/4 16:9=1/3 16:10=2/3 20:8=3/7 20:9=4/7 24:7=6/7 24:8=1/7 27:6=7/11 27:7=4/11 31:5=2/7 31:6=5/7 35:4=3/4 35:5=1/4 37:3=8/13 37:4=5/13 39:2=2/9 39:3=7/9 42:1=7/18 42:2=11/18 45:0=9/19 45:1=10/19",
        pivots: 422,
        columns_priced: 105693,
    },
    Pin {
        family: "clustered(4,4)",
        seed: 21,
        t: 31,
        machine_of: "15 15 14 14 14 13 13 12 12 12 12 11 11 11 10 10 10 9 9 9 8 8 8 7 7 6 6 6 5 5 5 5 5 4 4 3 3 3 2 2 1 1 1 1 0 0 0 0",
        fractional: "2:14=2/3 2:15=1/3 5:13=3/4 5:14=1/4 7:12=5/18 7:13=13/18 11:11=3/4 11:12=1/4 14:10=2/9 14:11=7/9 17:9=2/9 17:10=7/9 20:8=3/7 20:9=4/7 23:7=1/2 23:8=1/2 25:6=1/5 25:7=4/5 28:5=1/6 28:6=5/6 33:4=11/13 33:5=2/13 35:3=7/15 35:4=8/15 40:1=10/11 40:2=1/11",
        pivots: 405,
        columns_priced: 98376,
    },
    Pin {
        family: "clustered(4,4)",
        seed: 22,
        t: 29,
        machine_of: "15 15 14 14 13 13 13 12 11 11 10 10 10 10 9 9 9 8 8 8 8 8 7 7 7 6 6 6 6 5 5 5 4 4 4 4 3 3 2 2 2 1 1 0 0 0 0 0",
        fractional: "2:14=9/11 2:15=2/11 4:13=4/5 4:14=1/5 7:12=17/20 7:13=3/20 8:11=1/5 8:12=4/5 10:10=7/17 10:11=10/17 14:9=13/14 14:10=1/14 17:8=1/4 17:9=3/4 22:7=1/2 22:8=1/2 25:6=1/11 25:7=10/11 29:5=4/11 29:6=7/11 32:4=1/2 32:5=1/2 36:3=1/3 36:4=2/3 38:2=11/19 38:3=8/19 41:1=10/19 41:2=9/19 43:0=1/4 43:1=3/4",
        pivots: 391,
        columns_priced: 95476,
    },
    Pin {
        family: "smp_cmp([2,4,4])",
        seed: 31,
        t: 20,
        machine_of: "24 23 23 22 21 21 20 19 18 18 17 16 16 16 15 14 14 14 13 12 12 11 11 10 10 10 9 8 8 8 8 7 7 7 6 6 6 5 5 5 4 3 3 3 2 1 0 0",
        fractional: "1:23=7/18 1:24=11/18 3:22=13/20 3:23=7/20 4:21=10/17 4:22=7/17 6:20=13/15 6:21=2/15 7:19=5/12 7:20=7/12 8:18=1/6 8:19=5/6 10:17=1/3 10:18=2/3 11:16=5/19 11:17=14/19 14:15=7/10 14:16=3/10 15:14=7/13 15:15=6/13 18:13=3/5 18:14=2/5 19:12=3/5 19:13=2/5 21:11=3/4 21:12=1/4 23:10=3/4 23:11=1/4 27:8=4/15 27:9=11/15 31:7=4/9 31:8=5/9 34:6=1/5 34:7=4/5 37:5=4/9 37:6=5/9 40:4=3/5 40:5=2/5 41:3=3/14 41:4=11/14 44:2=4/5 44:3=1/5 45:1=1/3 45:2=2/3 46:0=1/5 46:1=4/5",
        pivots: 603,
        columns_priced: 304783,
    },
    Pin {
        family: "smp_cmp([2,4,4])",
        seed: 32,
        t: 20,
        machine_of: "23 23 22 22 21 21 20 20 20 20 19 19 18 17 16 16 15 15 14 14 14 13 13 12 12 11 11 10 10 9 8 8 8 7 7 6 5 5 5 4 3 3 3 2 1 1 0 0",
        fractional: "2:22=16/19 2:23=3/19 6:20=9/11 6:21=2/11 10:19=11/18 10:20=7/18 12:18=13/19 12:19=6/19 13:17=13/20 13:18=7/20 14:16=12/19 14:17=7/19 16:15=9/16 16:16=7/16 18:14=5/9 18:15=4/9 21:13=5/8 21:14=3/8 23:12=11/13 23:13=2/13 27:10=3/7 27:11=4/7 29:9=5/6 29:10=1/6 30:8=2/7 30:9=5/7 33:7=2/5 33:8=3/5 35:6=18/19 35:7=1/19 36:5=3/5 36:6=2/5 40:3=4/5 40:4=1/5 46:0=7/15 46:1=8/15",
        pivots: 638,
        columns_priced: 325428,
    },
];

fn family(name: &str) -> LaminarFamily {
    match name {
        "semi_partitioned(16)" => topology::semi_partitioned(16),
        "clustered(4,4)" => topology::clustered(4, 4),
        "smp_cmp([2,4,4])" => topology::smp_cmp(&[2, 4, 4]),
        other => panic!("unknown family {other}"),
    }
}

#[test]
fn lst_rounding_vertex_and_counters_are_pinned() {
    // Serial pricing: `columns_priced` is exact only for the serial scan.
    let opts = lp::RevisedOptions { threads: 1, ..lp::RevisedOptions::default() };
    for pin in &PINS {
        let what = format!("{} seed {}", pin.family, pin.seed);
        let inst =
            random::overhead_instance(family(pin.family), 48, 1, 20, 1, 4, &mut rng(pin.seed))
                .with_singletons();
        let (p, m) = (singleton_times(&inst), inst.num_machines());
        assert_eq!(lst_lower_bound(&p, m), pin.t, "{what}: horizon");
        let (a, stats) = lst_assign_with(&p, m, pin.t, &opts).expect("feasible at the lower bound");
        let machine_of: Vec<String> = a.machine_of.iter().map(|i| i.to_string()).collect();
        let fractional: Vec<String> = a
            .fractional
            .iter()
            .enumerate()
            .filter(|(_, support)| support.len() > 1)
            .flat_map(|(j, support)| support.iter().map(move |(i, w)| format!("{j}:{i}={w}")))
            .collect();
        assert_eq!(machine_of.join(" "), pin.machine_of, "{what}: machine_of");
        assert_eq!(fractional.join(" "), pin.fractional, "{what}: fractional vertex");
        assert!(!a.fallback_used, "{what}: matching fallback");
        assert_eq!(stats.pivots, pin.pivots, "{what}: pivots");
        assert_eq!(stats.columns_priced, pin.columns_priced, "{what}: columns priced");
    }
}

/// The default-options entry point rounds to the same assignment.
#[test]
fn lst_assign_matches_lst_assign_with() {
    let pin = &PINS[0];
    let inst = random::overhead_instance(family(pin.family), 48, 1, 20, 1, 4, &mut rng(pin.seed))
        .with_singletons();
    let (p, m) = (singleton_times(&inst), inst.num_machines());
    let plain = hsched_core::lst::lst_assign(&p, m, pin.t).expect("feasible");
    let (with, _) =
        lst_assign_with(&p, m, pin.t, &lp::RevisedOptions::default()).expect("feasible");
    assert_eq!(plain.machine_of, with.machine_of);
    assert_eq!(plain.fractional, with.fractional);
}
