//! # cm-race
//!
//! Deterministic schedule exploration and happens-before race detection
//! for the CloudMirror concurrency surface: the optimistic concurrent
//! admission engine (`cm_core::placement::concurrent`) and the sweep
//! worker pool (`cm_sim::parallel`).
//!
//! The static pass (`cm-analyze`) checks what the source *says* about
//! concurrency — lock-order headers, transaction discipline, atomic
//! orderings. This crate checks what the code *does*: it runs the real
//! engine on real threads under the virtualized scheduler from
//! [`cm_core::sync::model`], which grants the processor to exactly one
//! thread at a time and turns every lock, condvar and atomic operation
//! into a recorded, replayable scheduling decision.
//!
//! Three layers:
//!
//! * [`scenario`] — small, fixed workloads (same-pod conflicting
//!   arrivals, churn with departures, capacity rejections, the sweep
//!   pool, a deliberately racy cell) chosen so the interesting protocol
//!   paths are reachable within an exhaustively explorable depth.
//! * [`explore`] — the drivers: exhaustive DFS over scheduling choices
//!   with sleep-set pruning (schedules differing only in the order of
//!   independent operations are explored once), a seeded random-walk
//!   mode for depths beyond exhaustion, and exact replay of a recorded
//!   schedule.
//! * [`hb`] + [`run`] — per-schedule checking: serial equivalence
//!   against [`cm_core::placement::run_events_serial`], delta-log replay
//!   convergence + topology invariants, deadlock/livelock detection, a
//!   vector-clock happens-before race detector, and a lock acquisition
//!   graph for order inversions.
//!
//! Failures are reported as [`cm_analyze::Finding`]s sharing the static
//! pass's rule names (`lock-order`, `txn-discipline`) plus the dynamic
//! ones (`data-race`, `serial-equivalence`), with a **schedule id** as
//! the location. A schedule id like `r1.samepod2.w2.nopc.102` encodes
//! scenario, worker count, engine mutation and the exact branch picks,
//! so `cm-race --replay <id>` reproduces the failing interleaving
//! bit-for-bit. See `ANALYSIS.md` ("Dynamic analysis: cm-race").

/// The exploration drivers: exhaustive DFS, random walk, replay.
pub mod explore;
/// Vector-clock happens-before analysis and the lock acquisition graph.
pub mod hb;
/// One schedule: execute a scenario under a decider and check it.
pub mod run;
/// The fixed model-checking workloads.
pub mod scenario;
/// Schedule identities: replayable names for explored interleavings.
pub mod schedule;

/// Escape a string as a JSON string literal (hand-rolled — no serde in
/// the offline container; shared by the CLI and `cm_bench`'s report
/// writer).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
