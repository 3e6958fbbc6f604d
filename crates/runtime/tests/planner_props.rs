//! Property tests for the model-guided planner.
//!
//! The planner's core promise: whatever shape a job has and however
//! measured feedback steers it, every plan it hands out is a *valid*
//! configuration — `csize = bsize − 2·partime·rad > 0` (Eq. 2) and
//! `(partime·rad) mod 4 == 0` (Eq. 6) — and the cache counters account for
//! every request exactly.

use proptest::prelude::*;
use stencil_core::BlockConfig;
use stencil_runtime::{Backend, DeviceProfile, JobSpec, MetricsRegistry, PlanMode, Planner};

fn auto_spec(id: u64, dim: usize, rad: usize, nx: usize, ny: usize, nz: usize) -> JobSpec {
    let mut s = if dim == 2 {
        JobSpec::new_2d(id, rad, nx, ny, 2)
    } else {
        JobSpec::new_3d(id, rad, nx, ny, nz, 2)
    };
    s.plan = PlanMode::Auto;
    s.seed = id.wrapping_mul(0x9e37_79b9);
    s
}

/// Rebuilds and revalidates the plan's `BlockConfig` from the choice fields
/// alone — the same reconstruction the report validator performs.
fn assert_choice_valid(dim: usize, rad: usize, c: &stencil_runtime::PlanChoice) {
    let cfg = match dim {
        2 => BlockConfig::new_2d(rad, c.bsize_x, c.parvec, c.partime),
        _ => BlockConfig::new_3d(rad, c.bsize_x, c.bsize_y, c.parvec, c.partime),
    }
    .expect("planned config constructs");
    cfg.validate().expect("planned config validates");
    assert!(cfg.csize_x() > 0, "Eq. 2: csize must stay positive");
    if dim == 3 {
        assert!(cfg.csize_y() > 0, "Eq. 2 in y");
    }
    assert_eq!((c.partime * rad) % 4, 0, "Eq. 6 alignment");
}

proptest! {
    /// Every cached plan satisfies Eq. 2 and Eq. 6 for random
    /// (dim, rad, grid) — repeated same-shape jobs pile up in flight, so
    /// the load-aware exploit rule spills across the candidate table.
    #[test]
    fn cached_plans_always_satisfy_eq2_and_eq6(
        dim in 2usize..=3,
        rad in 1usize..=4,
        nx in 8usize..400,
        ny in 8usize..200,
        nz in 4usize..24,
        jobs in 1usize..12,
    ) {
        let planner = Planner::new(DeviceProfile::Ddr);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        for id in 0..jobs as u64 {
            let spec = auto_spec(id, dim, rad, nx, ny, nz);
            let asg = planner.plan(&spec, &served, &metrics).unwrap();
            assert_choice_valid(dim, rad, &asg.choice);
        }
    }

    /// Feedback — even adversarial feedback praising arbitrary candidate
    /// slots — never makes the planner select a candidate that failed
    /// validation, because invalid configs are filtered before entering the
    /// table.
    #[test]
    fn feedback_never_selects_an_invalid_candidate(
        rad in 1usize..=4,
        nx in 16usize..300,
        ny in 8usize..120,
        praised_slot in 0usize..8,
        reps in 1usize..6,
    ) {
        let planner = Planner::new(DeviceProfile::Ddr);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        let first = planner
            .plan(&auto_spec(0, 2, rad, nx, ny, 8), &served, &metrics)
            .unwrap();
        // Praise an arbitrary slot (wrapped into range) with huge measured
        // throughput so pure exploitation must chase it.
        for _ in 0..reps {
            let mut fake = first.clone();
            fake.index = praised_slot % (first.index + 4);
            planner.record_throughput(&fake, 1e12, &metrics);
        }
        for id in 1..6u64 {
            let asg = planner
                .plan(&auto_spec(id, 2, rad, nx, ny, 8), &served, &metrics)
                .unwrap();
            assert_choice_valid(2, rad, &asg.choice);
        }
    }

    /// Cache hit/miss counters are consistent with the job count: every
    /// plan request is exactly one hit or one miss, and the first sight of
    /// each shape class is the miss.
    #[test]
    fn counters_are_consistent_with_job_count(
        shapes in prop::collection::vec((1usize..=4, 20usize..200, 10usize..100), 1..5),
        per_shape in 1usize..8,
    ) {
        let planner = Planner::new(DeviceProfile::Ddr);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        let mut distinct = std::collections::BTreeSet::new();
        let mut id = 0u64;
        for &(rad, nx, ny) in &shapes {
            for _ in 0..per_shape {
                let spec = auto_spec(id, 2, rad, nx, ny, 8);
                id += 1;
                let asg = planner.plan(&spec, &served, &metrics).unwrap();
                let first_sight = distinct.insert(asg.key);
                prop_assert_eq!(first_sight, !asg.choice.cached,
                    "miss exactly on first sight of a shape class");
            }
        }
        let requested = metrics.counter("plans_requested").get();
        let hits = metrics.counter("plan_cache_hits").get();
        let misses = metrics.counter("plan_cache_misses").get();
        prop_assert_eq!(requested, id, "one request per job");
        prop_assert_eq!(hits + misses, requested);
        prop_assert_eq!(misses, distinct.len() as u64, "one miss per shape class");
    }
}
