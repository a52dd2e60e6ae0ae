//! The exploration drivers.
//!
//! **Exhaustive DFS with sleep sets.** The controller consults the
//! decider only where ≥ 2 threads are runnable, so the schedule space is
//! a tree of choice points. The explorer walks it depth-first: each run
//! replays a forced prefix (`plan`), extends it greedily (first enabled
//! pick), and records every fresh choice point; backtracking then bumps
//! the deepest point with an untried branch. Sleep sets prune commuting
//! interleavings: after branch `b` of a node is fully explored, `b` goes
//! to *sleep* for the node's remaining branches, and wakes only when a
//! conflicting operation executes (two ops conflict when they touch a
//! common object and one writes —
//! [`Op::conflicts`](cm_core::sync::model::Op::conflicts)). A run whose
//! every
//! enabled thread is asleep is abandoned: any behaviour it could exhibit
//! was already covered in the branch order explored first.
//!
//! **Random walk.** A seeded LCG picks uniformly at every choice point —
//! the probe mode for worker counts whose exhaustive tree is too big.
//! Same checks, fully reproducible from the seed.
//!
//! **Replay.** A [`ScheduleId`](crate::schedule::ScheduleId)'s picks
//! are forced verbatim; divergence
//! (the tree changed under the id) aborts as a prune and is reported as
//! a stale id rather than a wrong result.

// The explorer↔decider channel is the only lock (`shared`); the decider
// side runs under the controller's state lock, the explorer side only
// between runs, so the two never interleave on one thread.
// cm-analyze: lock-order(shared)

use crate::run::{run_schedule, RunOutcome};
use crate::scenario::Scenario;
use crate::schedule::{Mutation, ScheduleId};
use cm_analyze::Finding;
use cm_core::sync::model::{Choice, ChoicePoint, Decider, Op, Tid, TraceEvent};
use std::sync::{Arc, Mutex as StdMutex};

/// Safety caps for exploration (`complete` reports whether they bound
/// the result).
#[derive(Debug, Clone, Copy)]
pub struct Caps {
    /// Maximum runs (explored + pruned) before giving up.
    pub max_runs: usize,
    /// Stop once this many findings have accumulated.
    pub max_findings: usize,
}

impl Default for Caps {
    fn default() -> Caps {
        Caps {
            max_runs: 200_000,
            max_findings: 10,
        }
    }
}

/// Aggregated result of an exploration.
#[derive(Debug)]
pub struct ExploreReport {
    /// Scenario explored.
    pub scenario: String,
    /// Worker count.
    pub workers: usize,
    /// Engine mutation in effect.
    pub mutation: Mutation,
    /// Schedules fully executed and checked.
    pub schedules: usize,
    /// Runs abandoned by sleep-set pruning.
    pub pruned: usize,
    /// Deepest choice-point count seen.
    pub max_depth: usize,
    /// Whether the state space was exhausted (always `false` for walks,
    /// which sample; `false` for DFS only if a cap fired).
    pub complete: bool,
    /// All check failures, schedule ids embedded in each finding's path.
    pub findings: Vec<Finding>,
}

/// The exhaustive-mode gate: `Err` naming the first scenario whose
/// exploration a cap (or a diverged prefix) stopped short of exhaustion.
pub fn require_exhausted(reports: &[ExploreReport]) -> Result<(), String> {
    match reports.iter().find(|r| !r.complete) {
        Some(r) => Err(format!(
            "{}: stopped after {} run(s) by a cap; the state space was not exhausted",
            r.scenario,
            r.schedules + r.pruned
        )),
        None => Ok(()),
    }
}

/// One node on the DFS path: the runnable set seen there, the sleep set
/// in force when descending, and the branch currently being explored.
#[derive(Debug, Clone)]
struct PlanStep {
    enabled: Vec<(Tid, Op)>,
    sleep: Vec<(Tid, Op)>,
    pick: usize,
}

/// Decider⇄explorer shared state for one DFS run.
#[derive(Debug, Default)]
struct DfsShared {
    /// Forced prefix (the current DFS path).
    plan: Vec<PlanStep>,
    /// Choice index within this run.
    depth: usize,
    /// Sleep set, filtered live as events execute.
    live_sleep: Vec<(Tid, Op)>,
    /// Choice points first visited this run (beyond the plan).
    fresh: Vec<PlanStep>,
    /// A plan step no longer matches the tree (internal error).
    diverged: bool,
}

struct DfsDecider {
    shared: Arc<StdMutex<DfsShared>>,
}

fn lock<'a>(shared: &'a StdMutex<DfsShared>) -> std::sync::MutexGuard<'a, DfsShared> {
    match shared.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

impl Decider for DfsDecider {
    fn choose(&mut self, point: &ChoicePoint) -> Choice {
        let mut s = lock(&self.shared);
        let d = s.depth;
        s.depth += 1;
        if d < s.plan.len() {
            if s.plan[d].enabled != point.enabled {
                s.diverged = true;
                return Choice::Abort;
            }
            s.live_sleep = s.plan[d].sleep.clone();
            return Choice::Pick(s.plan[d].pick);
        }
        let entry = s.live_sleep.clone();
        match point.enabled.iter().position(|e| !entry.contains(e)) {
            Some(i) => {
                s.fresh.push(PlanStep {
                    enabled: point.enabled.clone(),
                    sleep: entry,
                    pick: i,
                });
                Choice::Pick(i)
            }
            // Every runnable thread is asleep: all interleavings from
            // here commute with ones already explored.
            None => Choice::Abort,
        }
    }

    fn observe(&mut self, ev: &TraceEvent) {
        let mut s = lock(&self.shared);
        if s.live_sleep.is_empty() {
            return;
        }
        s.live_sleep.retain(|&(t, op)| {
            if ev.tid == t {
                // The sleeper moved past the slept transition.
                !ev.op.is_yield()
            } else {
                // A conflicting op makes the slept order distinguishable
                // again.
                !op.conflicts(ev.op)
            }
        });
    }
}

/// Exhaustively explore every (sleep-set-inequivalent) schedule of
/// `scn` at `workers` threads under `mutation`.
pub fn explore_exhaustive(
    scn: &Scenario,
    workers: usize,
    mutation: Mutation,
    caps: &Caps,
) -> ExploreReport {
    let mut report = ExploreReport {
        scenario: scn.name.to_string(),
        workers,
        mutation,
        schedules: 0,
        pruned: 0,
        max_depth: 0,
        complete: false,
        findings: Vec::new(),
    };
    let mut plan: Vec<PlanStep> = Vec::new();
    loop {
        let shared = Arc::new(StdMutex::new(DfsShared {
            plan: plan.clone(),
            ..DfsShared::default()
        }));
        let out = run_schedule(
            scn,
            workers,
            mutation,
            Box::new(DfsDecider {
                shared: Arc::clone(&shared),
            }),
        );
        let st = std::mem::take(&mut *lock(&shared));
        if st.diverged {
            // A forced prefix stopped matching the tree: the scenario is
            // nondeterministic beyond the schedule, which the model does
            // not support. Surface as incomplete rather than looping.
            report.complete = false;
            return report;
        }
        if out.pruned {
            report.pruned += 1;
        } else {
            report.schedules += 1;
        }
        report.max_depth = report.max_depth.max(st.depth);
        report.findings.extend(out.findings);
        if report.findings.len() >= caps.max_findings
            || report.schedules + report.pruned >= caps.max_runs
        {
            return report;
        }
        // Backtrack: deepest node with an untried, awake branch.
        let mut full = plan;
        full.extend(st.fresh);
        loop {
            let Some(mut last) = full.pop() else {
                report.complete = true;
                return report;
            };
            let explored = last.enabled[last.pick];
            last.sleep.push(explored);
            if let Some(i) = last.enabled.iter().position(|e| !last.sleep.contains(e)) {
                last.pick = i;
                full.push(last);
                break;
            }
        }
        plan = full;
    }
}

/// A fixed-seed multiplicative LCG walk decider (Knuth MMIX constants).
struct WalkDecider {
    state: u64,
}

impl Decider for WalkDecider {
    fn choose(&mut self, point: &ChoicePoint) -> Choice {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        Choice::Pick(((self.state >> 33) as usize) % point.enabled.len())
    }
}

/// Run `count` seeded random-walk schedules. Reproducible: walk `k` of a
/// given seed always takes the same picks.
pub fn random_walks(
    scn: &Scenario,
    workers: usize,
    mutation: Mutation,
    seed: u64,
    count: usize,
    caps: &Caps,
) -> ExploreReport {
    let mut report = ExploreReport {
        scenario: scn.name.to_string(),
        workers,
        mutation,
        schedules: 0,
        pruned: 0,
        max_depth: 0,
        complete: false,
        findings: Vec::new(),
    };
    for k in 0..count {
        let state = seed ^ (k as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let out = run_schedule(scn, workers, mutation, Box::new(WalkDecider { state }));
        report.schedules += 1;
        report.max_depth = report.max_depth.max(out.id.picks.len());
        report.findings.extend(out.findings);
        if report.findings.len() >= caps.max_findings {
            break;
        }
    }
    report
}

/// Force a recorded schedule's picks verbatim.
struct ReplayDecider {
    picks: Vec<usize>,
    next: usize,
}

impl Decider for ReplayDecider {
    fn choose(&mut self, point: &ChoicePoint) -> Choice {
        let Some(&p) = self.picks.get(self.next) else {
            // More choice points than the id recorded: the code changed
            // under the id. Run on deterministically so the caller can
            // still compare, but the pick count will expose it.
            return Choice::Pick(0);
        };
        self.next += 1;
        if p < point.enabled.len() {
            Choice::Pick(p)
        } else {
            Choice::Abort // stale id
        }
    }
}

/// Replay one schedule id. [`RunOutcome::pruned`] (or a pick count in
/// `RunOutcome::id` differing from the requested id) means the id is
/// stale: the yield-point structure changed since it was recorded.
pub fn replay(scn: &Scenario, id: &ScheduleId) -> RunOutcome {
    run_schedule(
        scn,
        id.workers,
        id.mutation,
        Box::new(ReplayDecider {
            picks: id.picks.clone(),
            next: 0,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    fn explore(name: &str, workers: usize, mutation: Mutation) -> ExploreReport {
        let scn = scenario::find(name).expect("scenario exists");
        explore_exhaustive(&scn, workers, mutation, &Caps::default())
    }

    #[test]
    fn parmap_exhausts_cleanly() {
        let r = explore("parmap", 2, Mutation::None);
        assert!(r.complete, "parmap should exhaust");
        assert!(r.schedules > 1, "expected multiple schedules");
        assert!(r.findings.is_empty(), "{:#?}", r.findings);
    }

    #[test]
    fn a_fired_cap_fails_the_exhaustion_gate() {
        let scn = scenario::find("samepod2").expect("scenario");
        let caps = Caps {
            max_runs: 3,
            ..Caps::default()
        };
        let capped = explore_exhaustive(&scn, 2, Mutation::None, &caps);
        assert_eq!(capped.schedules + capped.pruned, 3);
        let reports = [explore("parmap", 2, Mutation::None), capped];
        assert!(require_exhausted(&reports[..1]).is_ok());
        let err = require_exhausted(&reports).expect_err("samepod2 hit the run cap");
        assert!(err.starts_with("samepod2: stopped after 3 run(s)"), "{err}");
    }

    // The backtracker skips sleeping sibling branches before a run ever
    // starts, so reduction shows up as branches never taken, not as
    // `pruned` runs — test the filtering rules directly instead.
    #[test]
    fn sleep_entries_wake_on_conflicts_only() {
        let shared = Arc::new(StdMutex::new(DfsShared::default()));
        let mut d = DfsDecider {
            shared: Arc::clone(&shared),
        };
        lock(&shared).live_sleep = vec![(0, Op::Lock(1)), (1, Op::Lock(2))];
        let ev = |step, tid, op| TraceEvent { step, tid, op };
        // An unrelated lock wakes no-one.
        d.observe(&ev(0, 2, Op::Lock(3)));
        assert_eq!(lock(&shared).live_sleep.len(), 2);
        // A conflicting op (same mutex) wakes that mutex's sleeper.
        d.observe(&ev(1, 2, Op::Lock(1)));
        assert_eq!(lock(&shared).live_sleep, vec![(1, Op::Lock(2))]);
        // A sleeper executing its own yield clears its entry.
        d.observe(&ev(2, 1, Op::Lock(2)));
        assert!(lock(&shared).live_sleep.is_empty());
    }

    #[test]
    fn seeded_mutation_is_caught_and_replayable() {
        let scn = scenario::find("samepod2").expect("scenario");
        let r = explore_exhaustive(
            &scn,
            2,
            Mutation::SkipPodConflict,
            &Caps {
                max_findings: 1,
                ..Caps::default()
            },
        );
        assert!(
            !r.findings.is_empty(),
            "the nopc mutation must be caught (explored {} schedules)",
            r.schedules
        );
        // The finding's path is a schedule id that replays to the same
        // failure…
        let id = ScheduleId::parse(&r.findings[0].path).expect("finding path is a schedule id");
        let replayed = replay(&scn, &id);
        assert!(!replayed.pruned, "pinned id must not be stale");
        assert_eq!(replayed.id, id, "replay must take the recorded picks");
        assert!(
            !replayed.findings.is_empty(),
            "replay must reproduce the failure"
        );
        // …and the same picks with the check *enabled* are clean.
        let fixed = ScheduleId {
            mutation: Mutation::None,
            ..id
        };
        let healthy = replay(&scn, &fixed);
        assert!(
            healthy.pruned || healthy.findings.is_empty(),
            "unmutated engine must be clean on those picks: {:#?}",
            healthy.findings
        );
    }

    #[test]
    fn random_walks_are_reproducible() {
        let scn = scenario::find("churn").expect("scenario");
        let caps = Caps::default();
        let a = random_walks(&scn, 2, Mutation::None, 7, 3, &caps);
        let b = random_walks(&scn, 2, Mutation::None, 7, 3, &caps);
        assert_eq!(a.schedules, b.schedules);
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
    }
}
