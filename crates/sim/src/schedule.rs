//! Pre-generated event schedules and their serial/concurrent runners.
//!
//! [`run_sim`](crate::events::run_sim) samples its RNG lazily (a tenant's
//! dwell time is drawn only if it is admitted), which ties the random
//! stream to admission outcomes — fine for one-at-a-time admission, but a
//! speculative engine cannot know arrival `i`'s tag before earlier
//! outcomes settle. A [`Schedule`] cuts that knot: arrival times, tenant
//! choices, and dwell times are all drawn up front, so the whole event
//! sequence (arrivals interleaved with the departures of admitted tenants)
//! is a pure function of the configuration.
//!
//! Both runners hand the schedule to `cm-core` and fold the per-event
//! outcomes into a [`SimResult`]:
//!
//! * [`run_schedule_serial`] —
//!   [`run_events_serial`](cm_core::placement::run_events_serial): one
//!   placer, one topology, events in order; the ground truth.
//! * [`run_schedule_concurrent`] —
//!   [`run_events`](cm_core::placement::run_events), the sharded
//!   optimistic engine, which must produce **identical** outcomes for any
//!   thread count; the concurrency stress tests assert exactly that,
//!   record by record.
//!
//! Schedules use their own RNG stream; results are *statistically*, not
//! bitwise, comparable with `run_sim` on the same configuration.

use crate::events::{exp_sample, scale_pool, SimConfig};
use crate::metrics::{OpLatencies, RejectionCounts, WcsAccumulator, WcsByLevel};
use crate::SimResult;
use cm_core::placement::{
    replay_outcomes, run_events, run_events_serial, ConcurrentConfig, ConcurrentOutcome, Event,
    EventOutcome, Placer, RejectReason,
};
use cm_topology::Topology;
use cm_workloads::TenantPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A fully pre-generated admission event sequence (see the module docs).
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Arrivals and departures in simulation-time order.
    pub events: Vec<Event>,
    /// Number of arrival events.
    pub arrivals: usize,
    /// The topology every run of this schedule starts from.
    pub topo: Topology,
    /// Fault-domain level for per-tenant WCS.
    pub wcs_level: u8,
}

/// Everything one schedule run produces: the folded simulation metrics
/// plus the raw per-event outcomes (placements included), which is what
/// the serial-vs-concurrent equivalence tests compare.
#[derive(Debug, Clone)]
pub struct ScheduleRun {
    /// Folded metrics, comparable with [`run_sim`](crate::events::run_sim)
    /// results.
    pub result: SimResult,
    /// Per-event outcomes, aligned with [`Schedule::events`].
    pub outcomes: Vec<EventOutcome>,
}

/// Build the event schedule for a configuration: Poisson arrivals at the
/// load-derived rate, tenants sampled uniformly from the scaled pool,
/// exponential dwell times, and departures interleaved exactly where the
/// classic loop would process them (before the first arrival at or after
/// the departure time; simultaneous departures ordered by arrival id).
pub fn build_schedule(cfg: &SimConfig, pool: &TenantPool) -> Schedule {
    let pool = scale_pool(pool, cfg.bmax_kbps);
    let lambda = cfg.arrival_rate(&pool);
    let topo = Topology::build(&cfg.spec);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut now = 0.0f64;
    // (time, kind, arrival-order): kind 0 = departure, 1 = arrival, so a
    // departure at exactly an arrival's time sorts first — matching the
    // classic loop's `d.time <= now` drain.
    let mut keyed: Vec<(f64, u8, usize)> = Vec::with_capacity(cfg.arrivals * 2);
    let mut tags: Vec<Arc<cm_core::model::Tag>> = Vec::with_capacity(cfg.arrivals);
    for i in 0..cfg.arrivals {
        now += exp_sample(&mut rng, lambda);
        let tag = Arc::clone(&pool.tenants()[rng.random_range(0..pool.len())]);
        let dwell = exp_sample(&mut rng, 1.0 / cfg.td_mean);
        keyed.push((now, 1, i));
        keyed.push((now + dwell, 0, i));
        tags.push(tag);
    }
    keyed.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("event times are finite")
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    let mut events = Vec::with_capacity(keyed.len());
    let mut arrival_event = vec![usize::MAX; cfg.arrivals];
    for (_, kind, i) in keyed {
        if kind == 1 {
            arrival_event[i] = events.len();
            events.push(Event::Arrive {
                tag: Arc::clone(&tags[i]),
            });
        } else {
            let a = arrival_event[i];
            debug_assert_ne!(a, usize::MAX, "dwell times are positive");
            events.push(Event::Depart { arrival: a });
        }
    }
    Schedule {
        events,
        arrivals: cfg.arrivals,
        topo,
        wcs_level: cfg.wcs_level,
    }
}

/// Run a schedule with one placer on one topology, strictly in order —
/// the serial ground truth the concurrent engine is validated against.
pub fn run_schedule_serial<P: Placer>(schedule: &Schedule, placer: P) -> ScheduleRun {
    let name = placer.name();
    let outcomes = run_events_serial(&schedule.topo, &schedule.events, schedule.wcs_level, placer);
    // Tenants still live at the end (a schedule need not drain) keep their
    // resources; the ledger the outcomes add up to must still be consistent.
    crate::debug_invariant_sweep(|| {
        let mut topo = schedule.topo.clone();
        replay_outcomes(&mut topo, &schedule.events, &outcomes)?;
        topo.check_invariants()
    });
    ScheduleRun {
        result: fold_outcomes(schedule, &outcomes, name),
        outcomes,
    }
}

/// Run a schedule on the concurrent engine with the given thread count.
/// Outcomes are bit-identical to [`run_schedule_serial`] for any
/// `threads` (the engine's sequence-numbered commit protocol; asserted by
/// `tests/concurrent_equivalence.rs`).
pub fn run_schedule_concurrent<P, F>(
    schedule: &Schedule,
    make_placer: F,
    threads: usize,
) -> ScheduleRun
where
    P: Placer,
    F: Fn() -> P + Sync,
{
    let name = make_placer().name();
    let cfg = ConcurrentConfig {
        threads,
        wcs_level: schedule.wcs_level,
        ..Default::default()
    };
    let outcomes = run_events(&schedule.topo, &schedule.events, make_placer, &cfg);
    ScheduleRun {
        result: fold_outcomes(schedule, &outcomes, name),
        outcomes,
    }
}

/// Fold per-event outcomes into the classic [`SimResult`] metrics,
/// deterministically (strict event order).
fn fold_outcomes(schedule: &Schedule, outcomes: &[EventOutcome], algo: &'static str) -> SimResult {
    let mut counts = RejectionCounts::default();
    let mut wcs_acc = WcsAccumulator::default();
    let mut wcs_levels = WcsByLevel::new(&schedule.topo);
    let mut live = 0usize;
    let mut peak = 0usize;
    let mut admitted = vec![false; schedule.events.len()];
    for (ei, (e, o)) in schedule.events.iter().zip(outcomes).enumerate() {
        match (e, o) {
            (Event::Arrive { tag }, EventOutcome::Arrival(out)) => {
                counts.arrivals += 1;
                counts.total_vms += tag.total_vms();
                counts.total_bw_kbps += tag.total_bandwidth_kbps() as u128;
                match out {
                    ConcurrentOutcome::Admitted(rec) => {
                        wcs_acc.record(&rec.wcs, &rec.tier_sizes);
                        wcs_levels.record(&schedule.topo, &rec.placement, &rec.tier_sizes);
                        admitted[ei] = true;
                        live += 1;
                        peak = peak.max(live);
                    }
                    ConcurrentOutcome::Rejected(reason) => {
                        counts.rejected_tenants += 1;
                        counts.rejected_vms += tag.total_vms();
                        counts.rejected_bw_kbps += tag.total_bandwidth_kbps() as u128;
                        match reason {
                            RejectReason::InsufficientSlots => counts.rejected_for_slots += 1,
                            RejectReason::InsufficientBandwidth => {
                                counts.rejected_for_bandwidth += 1
                            }
                        }
                    }
                }
            }
            (Event::Depart { arrival }, EventOutcome::Departure) => {
                if admitted[*arrival] {
                    admitted[*arrival] = false;
                    live -= 1;
                }
            }
            _ => unreachable!("outcomes align with events"),
        }
    }
    SimResult {
        algo,
        rejections: counts,
        wcs: wcs_acc.finish(),
        wcs_by_level: wcs_levels.finish(),
        peak_tenants: peak,
        admit: OpLatencies::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::placement::{CmConfig, CmPlacer};
    use cm_topology::{mbps, TreeSpec};
    use cm_workloads::mixed_pool;

    fn small_cfg() -> SimConfig {
        SimConfig {
            seed: 3,
            arrivals: 150,
            load: 0.7,
            td_mean: 100.0,
            bmax_kbps: mbps(100.0),
            spec: TreeSpec::small(2, 4, 8, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]),
            wcs_level: 0,
        }
    }

    #[test]
    fn schedule_interleaves_departures_deterministically() {
        let pool = mixed_pool(1);
        let a = build_schedule(&small_cfg(), &pool);
        let b = build_schedule(&small_cfg(), &pool);
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.events.len(), 2 * a.arrivals);
        let arrivals = a
            .events
            .iter()
            .filter(|e| matches!(e, Event::Arrive { .. }))
            .count();
        assert_eq!(arrivals, 150);
        // Departures reference earlier arrivals.
        for (i, e) in a.events.iter().enumerate() {
            if let Event::Depart { arrival } = e {
                assert!(*arrival < i);
                assert!(matches!(a.events[*arrival], Event::Arrive { .. }));
            }
        }
    }

    #[test]
    fn serial_and_concurrent_schedule_runs_agree() {
        let pool = mixed_pool(1);
        let schedule = build_schedule(&small_cfg(), &pool);
        let mut placer = CmPlacer::new(CmConfig::cm());
        let serial = run_schedule_serial(&schedule, &mut placer);
        for threads in [1usize, 3] {
            let conc =
                run_schedule_concurrent(&schedule, || CmPlacer::new(CmConfig::cm()), threads);
            assert_eq!(conc.outcomes, serial.outcomes, "threads = {threads}");
            assert_eq!(conc.result.rejections, serial.result.rejections);
            assert_eq!(conc.result.wcs, serial.result.wcs);
            assert_eq!(conc.result.wcs_by_level, serial.result.wcs_by_level);
            assert_eq!(conc.result.peak_tenants, serial.result.peak_tenants);
        }
    }

    #[test]
    fn folded_metrics_look_like_a_simulation() {
        let pool = mixed_pool(2);
        let schedule = build_schedule(&small_cfg(), &pool);
        let run = run_schedule_serial(&schedule, &mut CmPlacer::new(CmConfig::cm()));
        assert_eq!(run.result.rejections.arrivals, 150);
        assert!(run.result.peak_tenants > 0);
        assert!(run.result.rejections.tenant_rate() <= 1.0);
    }
}
