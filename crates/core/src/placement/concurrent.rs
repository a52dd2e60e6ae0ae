//! Sharded concurrent admission with a sequence-numbered optimistic
//! commit protocol.
//!
//! The serial engine admits one tenant at a time against one global
//! [`Topology`]. This module admits a *fixed event sequence* (arrivals and
//! departures) with several worker threads while producing **bit-identical
//! decisions** to the serial engine — the property the stress tests assert
//! and the only sane contract for an admission controller whose results
//! feed deterministic experiments.
//!
//! ## Architecture
//!
//! * **Replicated state, shared log.** Each worker owns a full replica of
//!   the topology plus its own placer instance. All committed changes live
//!   in an append-only commit log of compact deltas (slot allocations +
//!   uplink reservations); workers sync their replica by replaying log
//!   entries, so no lock is held during placement computation.
//! * **Pod shards.** The tree is partitioned into the subtrees below a
//!   configurable level ([`PodPartition`], default: the root's children —
//!   the paper datacenter's 8 pods). Every commit records which shards it
//!   touched; a commit whose delta reaches a core node (above the shard
//!   level) conservatively touches [`ShardSet::All`].
//! * **Speculation.** A worker claims the next event (atomic ticket),
//!   syncs its replica to the log prefix it can see, and computes the
//!   placement *speculatively*, recording the read-set evidence of the
//!   search ([`PlacementTrace`]: every attempted subtree).
//! * **Sequence-numbered commit.** Commits apply strictly in event order.
//!   At its turn, a worker validates its speculation against the commits
//!   that landed after its snapshot:
//!
//!   - non-mutating commits (rejections, departures of rejected tenants)
//!     never conflict;
//!   - an intervening **admission** conflicts iff its touched shards
//!     intersect the speculation's read shards. Admissions only *consume*
//!     resources, and the subtree search is an argmax over (free slots,
//!     id) with bandwidth gates, so candidates in degraded pods can only
//!     become less attractive: a speculative winner whose search never
//!     attempted a touched pod is still the serial winner (see
//!     "Exactness" below);
//!   - an intervening **departure** always conflicts (resources improved;
//!     improvement is not monotone for the search).
//!
//!   A validated speculation commits as-is; an invalidated one is rolled
//!   back off the replica and recomputed at-turn — which *is* serial
//!   execution, so the fallback is exact by construction. That bounded
//!   retry (speculate once, then recompute in sequence) keeps the protocol
//!   deterministic for any thread interleaving.
//!
//! ## Exactness
//!
//! The argument that a validated speculation equals the serial decision:
//! the placer's search is `find_lowest_subtree` (argmax over subtrees at a
//! level by (free slots desc, id asc), gated by root-path bandwidth)
//! followed by an attempt whose reads stay inside the attempted subtree
//! and its root path. An intervening admission into untouched-by-me pod
//! `q` strictly decreases `q`'s free slots and link availability and
//! changes nothing else. Hence (a) every find that returned a node in an
//! unmodified pod still returns it (competitors only degraded; gates only
//! tightened; ties already broke my way), (b) every find that returned
//! `None` still returns `None`, and (c) every attempt inside an unmodified
//! pod — including *failed* ones, which is why traces record all attempts
//! — runs on unchanged state. Rejections and untraced placers are treated
//! as having read everything. Placer state that spans arrivals (the
//! CM demand predictor) advances exactly once per arrival in sequence
//! order through [`Placer::note_arrival`], never during speculation.
//!
//! ## Constraints
//!
//! The build environment is offline, so there is deliberately no rayon /
//! crossbeam here: plain scoped workers, a `Mutex` + `Condvar` sequencer,
//! and atomic tickets. Every synchronization primitive comes from
//! [`crate::sync`] — a zero-cost std passthrough in production, and the
//! virtualized model scheduler under the `model` feature, which is how
//! `cm-race` exhaustively explores this protocol's interleavings.

// The commit log is this module's only Mutex (the Condvar sequencer waits
// on the same guard). Any second lock added here must extend this header
// with its acquisition position — cm-analyze checks inversions against it.
// cm-analyze: lock-order(log)

use crate::model::Tag;
use crate::placement::{Deployed, PlacementTrace, Placer, RejectReason};
use crate::sync::{scope, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering};
use cm_topology::{Kbps, NodeId, PodPartition, ShardSet, Topology};
use std::sync::Arc;

/// One event of the admission sequence.
#[derive(Debug, Clone)]
pub enum Event {
    /// A tenant arrives and requests admission.
    Arrive {
        /// The tenant's TAG (shared, never deep-cloned).
        tag: Arc<Tag>,
    },
    /// The tenant admitted at event index `arrival` departs (a no-op if
    /// that arrival was rejected).
    Depart {
        /// Event index of the corresponding [`Event::Arrive`].
        arrival: usize,
    },
}

/// Everything recorded about one admitted tenant at commit time. Node ids
/// are global (every replica is a clone of the same topology), so records
/// compare directly across engines.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitRecord {
    /// Per-server VM counts per tier, sorted by server id.
    pub placement: Vec<(NodeId, Vec<u32>)>,
    /// Per-uplink reservation, sorted by node id.
    pub reservations: Vec<(NodeId, (Kbps, Kbps))>,
    /// Tier sizes of the tenant's model (aligned with `wcs`).
    pub tier_sizes: Vec<u32>,
    /// Worst-case survivability per tier at the configured level.
    pub wcs: Vec<Option<f64>>,
}

/// Outcome of one arrival.
#[derive(Debug, Clone, PartialEq)]
pub enum ConcurrentOutcome {
    /// Admitted with the recorded placement.
    Admitted(Arc<AdmitRecord>),
    /// Rejected for the given reason.
    Rejected(RejectReason),
}

/// Outcome of one event (aligned with the input sequence).
#[derive(Debug, Clone, PartialEq)]
pub enum EventOutcome {
    /// An arrival's admission decision.
    Arrival(ConcurrentOutcome),
    /// A departure was processed (possibly a no-op).
    Departure,
}

/// Configuration of a concurrent admission run.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Worker threads (clamped to ≥ 1).
    pub threads: usize,
    /// Shard level; `None` uses [`PodPartition::default_level`] (directly
    /// below the root).
    pub shard_level: Option<u8>,
    /// Fault-domain level for the per-tenant WCS recorded at commit.
    pub wcs_level: u8,
    /// Test knob: treat every speculation as invalidated, forcing the
    /// rollback + at-turn recompute path (used by the interleaving
    /// proptest; keep `false` in production).
    pub force_invalidate: bool,
    /// Mutation-testing knob: skip the pod-conflict check when validating
    /// a speculation against intervening admissions, i.e. deliberately
    /// break the protocol. `cm-race`'s CI gate proves the explorer catches
    /// the resulting stale commits; keep `false` everywhere else.
    pub skip_conflict_validation: bool,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        ConcurrentConfig {
            threads: 1,
            shard_level: None,
            wcs_level: 0,
            force_invalidate: false,
            skip_conflict_validation: false,
        }
    }
}

/// A compact, replayable state delta: what one admission added (applied
/// with `dir = +1`) or one departure removed (`dir = -1`).
#[derive(Debug)]
struct Delta {
    /// Per-server total VM slots.
    slots: Vec<(NodeId, u32)>,
    /// Per-uplink reservation.
    links: Vec<(NodeId, (Kbps, Kbps))>,
}

impl Delta {
    fn from_record(rec: &AdmitRecord) -> Delta {
        Delta {
            slots: rec
                .placement
                .iter()
                .map(|(s, c)| (*s, c.iter().sum::<u32>()))
                .filter(|&(_, n)| n > 0)
                .collect(),
            links: rec.reservations.clone(),
        }
    }

    /// Apply (`dir = 1`) or revert (`dir = -1`) onto a synced replica.
    /// Replay of a committed delta cannot fail: the global sequence already
    /// admitted it, and replicas replay the same sequence.
    fn apply(&self, topo: &mut Topology, dir: i64) {
        self.try_apply(topo, dir)
            .expect("replica replay of a committed delta cannot fail"); // cm-analyze: allow(no-unwrap-in-hot-path) -- the global sequence already admitted this delta
    }

    /// Fallible apply: the replay-convergence checker uses this so a
    /// corrupted log (e.g. from a deliberately broken validation under
    /// `skip_conflict_validation`) surfaces as an error, not a panic.
    fn try_apply(&self, topo: &mut Topology, dir: i64) -> Result<(), String> {
        for &(s, n) in &self.slots {
            let r = if dir > 0 {
                topo.alloc_slots(s, n) // cm-analyze: allow(txn-discipline) -- replica replay of a committed delta, not a new reservation
            } else {
                topo.release_slots(s, n) // cm-analyze: allow(txn-discipline) -- replica replay of a committed delta, not a new reservation
            };
            r.map_err(|e| format!("slot delta at node {s:?}: {e:?}"))?;
        }
        for &(l, (o, i)) in &self.links {
            topo.adjust_uplink(l, dir * o as i64, dir * i as i64) // cm-analyze: allow(txn-discipline) -- replica replay of a committed delta, not a new reservation
                .map_err(|e| format!("link delta at node {l:?}: {e:?}"))?;
        }
        Ok(())
    }

    /// The shards this delta touches ([`ShardSet::All`] when it reaches a
    /// core node above the shard level).
    fn touched(&self, part: &PodPartition) -> ShardSet {
        let mut set = ShardSet::EMPTY;
        for &(s, _) in &self.slots {
            set.insert_node(part, s);
        }
        for &(l, _) in &self.links {
            set.insert_node(part, l);
        }
        set
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommitKind {
    /// No state change (rejection, or departure of a rejected tenant).
    Noop,
    /// An admission: resources strictly consumed.
    Admit,
    /// A departure: resources strictly returned.
    Depart,
}

struct CommitEntry {
    kind: CommitKind,
    delta: Option<Arc<Delta>>,
    touched: ShardSet,
}

struct LogState {
    /// Number of committed events; also the current turn.
    committed: usize,
    commits: Vec<CommitEntry>,
    outcomes: Vec<EventOutcome>,
}

struct Shared<'a> {
    events: &'a [Event],
    part: PodPartition,
    log: Mutex<LogState>,
    turn: Condvar,
    next: AtomicUsize,
    force_invalidate: bool,
    skip_conflict_validation: bool,
    wcs_level: u8,
}

/// Per-worker state: a full topology replica plus a private placer.
struct Worker<P: Placer> {
    topo: Topology,
    placer: P,
    /// Log prefix applied to `topo`.
    applied: usize,
    /// Event prefix whose arrivals were fed to `placer.note_arrival`.
    noted: usize,
}

impl<P: Placer> Worker<P> {
    /// Replay committed deltas `[self.applied..upto)` onto the replica.
    /// Caller guarantees the replica carries no unvalidated speculation, or
    /// that the speculation is disjoint from every replayed delta.
    fn sync_to(&mut self, shared: &Shared<'_>, upto: usize) {
        if self.applied >= upto {
            return;
        }
        let deltas: Vec<(Option<Arc<Delta>>, CommitKind)> = {
            let log = shared.log.lock().expect("log lock"); // cm-analyze: allow(no-unwrap-in-hot-path) -- poisoned log means a worker panicked; propagating is the only sound recovery
            log.commits[self.applied..upto]
                .iter()
                .map(|c| (c.delta.clone(), c.kind))
                .collect()
        };
        for (delta, kind) in deltas {
            if let Some(d) = delta {
                d.apply(
                    &mut self.topo,
                    if kind == CommitKind::Depart { -1 } else { 1 },
                );
            }
        }
        self.applied = upto;
    }

    /// Feed `note_arrival` for every arrival in `events[self.noted..i)`, so
    /// cross-arrival placer state (the CM demand predictor) reaches the
    /// exact pre-event-`i` state regardless of which worker computed what.
    fn note_upto(&mut self, events: &[Event], i: usize) {
        while self.noted < i {
            if let Event::Arrive { tag } = &events[self.noted] {
                self.placer.note_arrival(tag);
            }
            self.noted += 1;
        }
    }
}

/// Run the event sequence concurrently and return per-event outcomes,
/// bit-identical to serial in-order execution of the same placer (see the
/// module docs for the protocol and the exactness argument).
pub fn run_events<P, F>(
    topo: &Topology,
    events: &[Event],
    make_placer: F,
    cfg: &ConcurrentConfig,
) -> Vec<EventOutcome>
where
    P: Placer,
    F: Fn() -> P + Sync,
{
    for (i, e) in events.iter().enumerate() {
        if let Event::Depart { arrival } = e {
            assert!(
                *arrival < i && matches!(events[*arrival], Event::Arrive { .. }),
                "departure at {i} must reference an earlier arrival"
            );
        }
    }
    let threads = cfg.threads.max(1);
    let shard_level = cfg
        .shard_level
        .unwrap_or_else(|| PodPartition::default_level(topo));
    let shared = Shared {
        events,
        part: PodPartition::new(topo, shard_level),
        log: Mutex::new(LogState {
            committed: 0,
            commits: Vec::with_capacity(events.len()),
            outcomes: Vec::with_capacity(events.len()),
        }),
        turn: Condvar::new(),
        next: AtomicUsize::new(0),
        force_invalidate: cfg.force_invalidate,
        skip_conflict_validation: cfg.skip_conflict_validation,
        wcs_level: cfg.wcs_level,
    };
    scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let shared = &shared;
            let make_placer = &make_placer;
            handles.push(scope.spawn(move || {
                let mut w = Worker {
                    topo: topo.clone(),
                    placer: make_placer(),
                    applied: 0,
                    noted: 0,
                };
                worker_loop(shared, &mut w);
            }));
        }
        for h in handles {
            h.join().expect("admission worker panicked"); // cm-analyze: allow(no-unwrap-in-hot-path) -- a panicked worker must abort the whole admission run, not be swallowed
        }
    });
    let log = shared.log.into_inner().expect("log lock"); // cm-analyze: allow(no-unwrap-in-hot-path) -- poisoned log means a worker panicked; propagating is the only sound recovery
    debug_assert_eq!(log.committed, events.len());
    log.outcomes
}

/// In-order execution of the event sequence with one placer on one
/// topology — the ground truth [`run_events`] must match bit-for-bit.
/// Place first, note after: arrival `i` is priced with the strict-prefix
/// predictor state, exactly like the engine's exclusive `note_upto`.
///
/// Exposed so equivalence harnesses (`cm-race`, the stress tests) share
/// one reference implementation instead of each reimplementing it.
pub fn run_events_serial<P: Placer>(
    topo: &Topology,
    events: &[Event],
    wcs_level: u8,
    mut placer: P,
) -> Vec<EventOutcome> {
    let mut t = topo.clone();
    // Indexed by event, like `Event::Depart::arrival`, so a departure
    // finds its tenant without recounting the arrivals before it.
    let mut live: Vec<Option<Deployed>> = Vec::new();
    live.resize_with(events.len(), || None);
    let mut out = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        match e {
            Event::Arrive { tag } => {
                let mut trace = PlacementTrace::default();
                let placed = placer.place_speculative(&mut t, tag, &mut trace);
                placer.note_arrival(tag);
                match placed {
                    Ok(d) => {
                        let rec = AdmitRecord {
                            placement: d.placement(&t),
                            reservations: d.reservations(),
                            tier_sizes: d.tier_sizes(),
                            wcs: d.wcs_at_level(&t, wcs_level),
                        };
                        live[i] = Some(d);
                        out.push(EventOutcome::Arrival(ConcurrentOutcome::Admitted(
                            Arc::new(rec),
                        )));
                    }
                    Err(r) => out.push(EventOutcome::Arrival(ConcurrentOutcome::Rejected(r))),
                }
            }
            Event::Depart { arrival } => {
                if let Some(d) = live[*arrival].take() {
                    d.release(&mut t);
                }
                out.push(EventOutcome::Departure);
            }
        }
    }
    out
}

/// Replay a run's outcomes onto a fresh copy of the starting topology:
/// every admission's delta applied in order, every departure's reverted.
/// This is the delta-log convergence check — a healthy run replays
/// cleanly and leaves the topology satisfying its invariants; a run that
/// committed conflicting speculations (a protocol bug) over-allocates and
/// surfaces here as an `Err`.
pub fn replay_outcomes(
    topo: &mut Topology,
    events: &[Event],
    outcomes: &[EventOutcome],
) -> Result<(), String> {
    if events.len() != outcomes.len() {
        return Err(format!(
            "outcome count {} does not match event count {}",
            outcomes.len(),
            events.len()
        ));
    }
    for (i, (e, o)) in events.iter().zip(outcomes).enumerate() {
        match (e, o) {
            (Event::Arrive { .. }, EventOutcome::Arrival(ConcurrentOutcome::Admitted(rec))) => {
                Delta::from_record(rec)
                    .try_apply(topo, 1)
                    .map_err(|err| format!("replay of admission at event {i} failed: {err}"))?;
            }
            (Event::Arrive { .. }, EventOutcome::Arrival(ConcurrentOutcome::Rejected(_))) => {}
            (Event::Depart { arrival }, EventOutcome::Departure) => {
                if let EventOutcome::Arrival(ConcurrentOutcome::Admitted(rec)) = &outcomes[*arrival]
                {
                    Delta::from_record(rec)
                        .try_apply(topo, -1)
                        .map_err(|err| format!("replay of departure at event {i} failed: {err}"))?;
                }
            }
            _ => {
                return Err(format!(
                    "outcome at event {i} does not match the event kind"
                ));
            }
        }
    }
    Ok(())
}

fn worker_loop<P: Placer>(shared: &Shared<'_>, w: &mut Worker<P>) {
    loop {
        let i = shared.next.fetch_add(1, Ordering::SeqCst);
        if i >= shared.events.len() {
            return;
        }
        match &shared.events[i] {
            Event::Depart { arrival } => commit_departure(shared, w, i, *arrival),
            Event::Arrive { tag } => process_arrival(shared, w, i, tag),
        }
    }
}

/// Block until `committed == i`; returns with the log lock held.
fn wait_turn<'a>(shared: &'a Shared<'_>, i: usize) -> MutexGuard<'a, LogState> {
    let mut log = shared.log.lock().expect("log lock"); // cm-analyze: allow(no-unwrap-in-hot-path) -- poisoned log means a worker panicked; propagating is the only sound recovery
    while log.committed != i {
        log = shared.turn.wait(log).expect("log lock"); // cm-analyze: allow(no-unwrap-in-hot-path) -- poisoned log means a worker panicked; propagating is the only sound recovery
    }
    log
}

fn append_commit(
    shared: &Shared<'_>,
    mut log: MutexGuard<'_, LogState>,
    outcome: EventOutcome,
    entry: CommitEntry,
) {
    log.commits.push(entry);
    log.outcomes.push(outcome);
    log.committed += 1;
    drop(log);
    shared.turn.notify_all();
}

fn commit_departure<P: Placer>(shared: &Shared<'_>, _w: &mut Worker<P>, i: usize, arrival: usize) {
    let log = wait_turn(shared, i);
    let rec = match &log.outcomes[arrival] {
        EventOutcome::Arrival(ConcurrentOutcome::Admitted(rec)) => Some(Arc::clone(rec)),
        _ => None,
    };
    let entry = match rec {
        Some(rec) => {
            let delta = Arc::new(Delta::from_record(&rec));
            let touched = delta.touched(&shared.part);
            CommitEntry {
                kind: CommitKind::Depart,
                delta: Some(delta),
                touched,
            }
        }
        None => CommitEntry {
            kind: CommitKind::Noop,
            delta: None,
            touched: ShardSet::EMPTY,
        },
    };
    append_commit(shared, log, EventOutcome::Departure, entry);
    // The worker's own replica replays this commit on its next sync.
}

/// The read shards a speculation depended on: the pods of every attempted
/// subtree, degraded to `All` for untraced searches, attempts above the
/// shard level, and rejections (whose final classification reads the
/// whole tree).
fn read_set(
    part: &PodPartition,
    trace: &PlacementTrace,
    result: &Result<Deployed, RejectReason>,
) -> ShardSet {
    if !trace.complete || result.is_err() {
        return ShardSet::All;
    }
    let mut set = ShardSet::EMPTY;
    for &n in &trace.attempts {
        set.insert_node(part, n);
    }
    set
}

fn process_arrival<P: Placer>(shared: &Shared<'_>, w: &mut Worker<P>, i: usize, tag: &Arc<Tag>) {
    // Speculate against the freshest replica we can assemble without
    // waiting: sync to the committed prefix, then place.
    let snapshot = {
        let log = shared.log.lock().expect("log lock"); // cm-analyze: allow(no-unwrap-in-hot-path) -- poisoned log means a worker panicked; propagating is the only sound recovery
        log.committed.min(i)
    };
    w.sync_to(shared, snapshot);
    w.note_upto(shared.events, i);
    let mut trace = PlacementTrace::default();
    trace.reset();
    let spec_result = w.placer.place_speculative(&mut w.topo, tag, &mut trace);
    let reads = read_set(&shared.part, &trace, &spec_result);

    // From here on this worker owns turn `i`: `committed` cannot advance
    // until we append, so the log lock can be dropped and retaken freely.
    let valid = {
        let log = wait_turn(shared, i);
        !shared.force_invalidate
            && log.commits[snapshot..i].iter().all(|c| match c.kind {
                CommitKind::Noop => true,
                CommitKind::Admit => {
                    shared.skip_conflict_validation || !c.touched.intersects(&reads)
                }
                CommitKind::Depart => false,
            })
    };

    let result = if valid {
        spec_result
    } else {
        // Roll the speculation off the replica, then recompute at-turn:
        // with every prior event committed this is exact serial execution.
        if let Ok(deployed) = spec_result {
            deployed.release(&mut w.topo);
        }
        w.sync_to(shared, i);
        trace.reset();
        w.placer.place_speculative(&mut w.topo, tag, &mut trace)
    };
    // `sync_to(i)` is safe even with the validated speculation still on the
    // replica: validation proved the missing deltas are disjoint from it.
    // (No-op on the recompute path, which already synced.)
    w.sync_to(shared, i);
    let log = shared.log.lock().expect("log lock"); // cm-analyze: allow(no-unwrap-in-hot-path) -- poisoned log means a worker panicked; propagating is the only sound recovery
    debug_assert_eq!(log.committed, i);

    match result {
        Ok(deployed) => {
            let rec = Arc::new(AdmitRecord {
                placement: deployed.placement(&w.topo),
                reservations: deployed.reservations(),
                tier_sizes: deployed.tier_sizes(),
                wcs: deployed.wcs_at_level(&w.topo, shared.wcs_level),
            });
            // The resources stay accounted in the log delta; dropping the
            // handle (instead of releasing it) keeps them in the replica.
            drop(deployed);
            let delta = Arc::new(Delta::from_record(&rec));
            let touched = delta.touched(&shared.part);
            w.applied = i + 1; // our own commit is already in our replica
            append_commit(
                shared,
                log,
                EventOutcome::Arrival(ConcurrentOutcome::Admitted(rec)),
                CommitEntry {
                    kind: CommitKind::Admit,
                    delta: Some(delta),
                    touched,
                },
            );
        }
        Err(reason) => {
            w.applied = i + 1;
            append_commit(
                shared,
                log,
                EventOutcome::Arrival(ConcurrentOutcome::Rejected(reason)),
                CommitEntry {
                    kind: CommitKind::Noop,
                    delta: None,
                    touched: ShardSet::EMPTY,
                },
            );
        }
    }
}

/// Compile-time audit that everything crossing thread boundaries is
/// `Send`/`Sync`: topology replicas, shared tags, placers, and the engine's
/// shared state.
#[allow(dead_code)]
fn send_sync_audit() {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Topology>();
    assert_sync::<Topology>();
    assert_send::<Arc<Tag>>();
    assert_sync::<Arc<Tag>>();
    assert_send::<crate::placement::CmPlacer>();
    assert_send::<crate::reserve::TenantState<Tag>>();
    assert_send::<Deployed>();
    assert_sync::<PodPartition>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TagBuilder;
    use crate::placement::{CmConfig, CmPlacer};
    use cm_topology::{mbps, TreeSpec};

    fn topo() -> Topology {
        Topology::build(&TreeSpec::small(
            4,
            2,
            4,
            4,
            [mbps(1000.0), mbps(2000.0), mbps(4000.0)],
        ))
    }

    fn hose(n: u32, sr: Kbps) -> Arc<Tag> {
        let mut b = TagBuilder::new("hose");
        let t = b.tier("t", n);
        b.self_loop(t, sr).unwrap();
        Arc::new(b.build().unwrap())
    }

    fn serial_reference<P: Placer>(
        topo: &Topology,
        events: &[Event],
        wcs_level: u8,
        placer: P,
    ) -> Vec<EventOutcome> {
        run_events_serial(topo, events, wcs_level, placer)
    }

    fn mixed_events() -> Vec<Event> {
        let mut events = Vec::new();
        for k in 0..30u32 {
            events.push(Event::Arrive {
                tag: hose(2 + (k % 5), 50 + 10 * (k as u64 % 7)),
            });
            if k % 3 == 2 {
                // Depart the arrival from two rounds ago.
                let arrival = events.len() - 3;
                if matches!(events[arrival], Event::Arrive { .. }) {
                    events.push(Event::Depart { arrival });
                }
            }
        }
        events
    }

    #[test]
    fn concurrent_matches_serial_across_thread_counts() {
        let topo = topo();
        let events = mixed_events();
        let expected = serial_reference(&topo, &events, 0, CmPlacer::new(CmConfig::cm()));
        for threads in [1usize, 2, 3, 4] {
            let cfg = ConcurrentConfig {
                threads,
                ..Default::default()
            };
            let got = run_events(&topo, &events, || CmPlacer::new(CmConfig::cm()), &cfg);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn forced_invalidation_still_matches_serial() {
        let topo = topo();
        let events = mixed_events();
        let expected = serial_reference(&topo, &events, 0, CmPlacer::new(CmConfig::cm()));
        let cfg = ConcurrentConfig {
            threads: 3,
            force_invalidate: true,
            ..Default::default()
        };
        let got = run_events(&topo, &events, || CmPlacer::new(CmConfig::cm()), &cfg);
        assert_eq!(got, expected);
    }

    #[test]
    fn explicit_shard_levels_are_exact_too() {
        let topo = topo();
        let events = mixed_events();
        let expected = serial_reference(&topo, &events, 0, CmPlacer::new(CmConfig::cm()));
        for level in [1u8, 2] {
            let cfg = ConcurrentConfig {
                threads: 4,
                shard_level: Some(level),
                ..Default::default()
            };
            let got = run_events(&topo, &events, || CmPlacer::new(CmConfig::cm()), &cfg);
            assert_eq!(got, expected, "shard level {level}");
        }
    }

    #[test]
    fn opp_ha_stateful_predictor_matches_serial() {
        // Opportunistic HA is the one configuration whose decisions depend
        // on the cross-arrival demand predictor AND on whole-topology
        // availability sums: it exercises the note/peek split and the
        // global-read trace degradation together.
        let topo = topo();
        let events = mixed_events();
        let make = || CmPlacer::named(CmConfig::cm_opp_ha(), "CM+oppHA");
        let expected = serial_reference(&topo, &events, 0, make());
        for threads in [1usize, 3] {
            let cfg = ConcurrentConfig {
                threads,
                ..Default::default()
            };
            let got = run_events(&topo, &events, make, &cfg);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn replay_outcomes_converges_and_keeps_invariants() {
        let topo = topo();
        let events = mixed_events();
        let cfg = ConcurrentConfig {
            threads: 3,
            ..Default::default()
        };
        let got = run_events(&topo, &events, || CmPlacer::new(CmConfig::cm()), &cfg);
        let mut replayed = topo.clone();
        replay_outcomes(&mut replayed, &events, &got).expect("healthy run must replay cleanly");
        replayed
            .check_invariants()
            .expect("invariants after replay");
    }

    #[test]
    fn empty_sequence_is_fine() {
        let topo = topo();
        let got = run_events(
            &topo,
            &[],
            || CmPlacer::new(CmConfig::cm()),
            &ConcurrentConfig::default(),
        );
        assert!(got.is_empty());
    }
}
