//! One rep of one workload: set-up, the measured closed loop over
//! `Cluster`, the correctness checks, and (when tracing) the per-layer
//! numbers. One client, one thread: the next op is issued only after the
//! previous op — and the traffic step that re-enforces guarantees after
//! it — has completed.

use crate::calib::SpeedClock;
use crate::replay::{self, LoggedOp, ReplayOp};
use crate::stats;
use crate::trace::{self, Trace};
use crate::workload::{Workload, BMAX_KBPS};
use cloudmirror::topology::NodeId;
use cloudmirror::workloads::{bing_like_pool, TenantPool};
use cloudmirror::{
    Cluster, CmConfig, CmError, CmPlacer, Fault, GuaranteeModel, TenantId, TierId, Topology,
    TrafficReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Seeds the tenant pool and the set-up fill, so every run of a workload
/// starts from the same datacenter; `--seed` drives the measured op stream.
///
/// The pool generator's 80 tenants differ so much from seed to seed (one
/// more oversized tenant and `place_hi` runs 30 times slower), and a
/// stepping run turns over so little of its population, that a per-seed
/// pool or fill would measure the draw, not the code. Pool 4 is a middling
/// one: ~13% of `place_hi` ops are refused and its fill takes under 1 s.
pub const POPULATION_SEED: u64 = 4;

/// What ends the measured phase. A count makes a rep repeat exactly
/// (same ops, same decisions, same fingerprint); a duration makes its
/// wall time predictable whatever the code's speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    Arrivals(usize),
    Seconds(f64),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug)]
pub struct RepResult {
    pub arrivals: usize,
    /// Ops attempted in the measured phase.
    pub ops: u64,
    /// Ops refused for capacity: a rejected admit, scale or migrate, a
    /// scale or migrate of a fault-damaged tenant, a repair that left
    /// tenants degraded. Legitimate outcomes, counted so that "faster by
    /// refusing more" shows.
    pub rejected: u64,
    /// Ops that failed any other way; always a bug.
    pub errors: u64,
    /// One set-up — the median of up to five when it is short — at
    /// reference machine speed (as `wall_s` and `lat_us` are: see `calib`).
    pub setup_s: f64,
    pub wall_s: f64,
    /// Wall time of the measured phase over `wall_s`: how much slower than
    /// the reference the machine ran meanwhile.
    pub slowdown: f64,
    /// Op latencies of the measured phase, µs, ascending (a uniform sample
    /// of them once there are more than 65,536).
    pub lat_us: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Hash of every decision (set-up included) and every step's counts.
    pub fingerprint: u64,
    /// `(arrivals completed, fingerprint so far)` at fixed arrival counts,
    /// so reps that ran for different times compare their common prefix.
    pub marks: Vec<(usize, u64)>,
    pub checks: Vec<Check>,
    /// Per-layer metrics, in `metrics::PER_LAYER` order; empty unless traced.
    pub layers: Vec<(&'static str, f64)>,
    pub trace: Option<Trace>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Depart,
    Admit,
    Scale,
    Migrate,
    InjectFault,
    Repair,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Depart => "cluster.depart",
            Kind::Admit => "cluster.admit",
            Kind::Scale => "cluster.scale",
            Kind::Migrate => "cluster.migrate",
            Kind::InjectFault => "cluster.inject_fault",
            Kind::Repair => "cluster.repair",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Rejected,
    Error,
}

/// What one mutating call decided: the verdict plus a number that pins the
/// decision's content (new tenant id, new tier size, VMs lost, ...).
struct Outcome {
    verdict: Verdict,
    detail: u64,
}

impl Outcome {
    fn of<T>(result: Result<T, CmError>, detail: impl FnOnce(T) -> u64) -> Outcome {
        match result {
            Ok(v) => Outcome {
                verdict: Verdict::Ok,
                detail: detail(v),
            },
            Err(CmError::Rejected(_) | CmError::Damaged(_) | CmError::RepairFailed { .. }) => {
                Outcome {
                    verdict: Verdict::Rejected,
                    detail: 0,
                }
            }
            Err(_) => Outcome {
                verdict: Verdict::Error,
                detail: 0,
            },
        }
    }
}

/// FNV-1a over 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn mix(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Op latencies for the percentiles: every op up to `CAP`, beyond that a
/// uniform random sample of `CAP` of them (reservoir sampling), so that the
/// benchmark's own memory — which `peak_rss_mb` includes — does not grow
/// when the code under test gets faster.
struct Latencies {
    /// `(wall µs, speed-clock segment the op ran in)`.
    samples: Vec<(f64, u32)>,
    seen: u64,
    rng: StdRng,
}

impl Latencies {
    const CAP: usize = 1 << 16;

    fn new() -> Latencies {
        Latencies {
            samples: Vec::with_capacity(Self::CAP),
            seen: 0,
            rng: StdRng::seed_from_u64(0),
        }
    }

    fn push(&mut self, us: f64, segment: u32) {
        self.seen += 1;
        if self.samples.len() < Self::CAP {
            self.samples.push((us, segment));
        } else {
            // A uniform slot in 0..seen; it replaces a sample when it
            // falls inside the reservoir.
            let slot = ((u128::from(self.rng.next_u64()) * u128::from(self.seen)) >> 64) as usize;
            if slot < Self::CAP {
                self.samples[slot] = (us, segment);
            }
        }
    }
}

/// Counters fed by every traffic step's report.
#[derive(Default)]
struct StepTotals {
    steps: u64,
    solve_s: f64,
    solve_warm_s: f64,
    components_dirty: u64,
    components_total: u64,
    fluid_flows: u64,
    cross_flows: u64,
    violations: u64,
    violations_outside_fault: u64,
    non_work_conserving: u64,
    phases_over_wall: u64,
    ecmp_max: f64,
    ecmp_mean_sum: f64,
}

#[derive(Default)]
struct FaultTotals {
    injected: [u64; 3],
    tenants_damaged: u64,
    tenants_evicted: u64,
    vms_lost: u64,
    repair_degraded: u64,
}

struct Runner<'a> {
    w: &'a Workload,
    traced: bool,
    cluster: Cluster<CmPlacer>,
    pool: TenantPool,
    rng: StdRng,
    /// Pool indices still to arrive before the next reshuffle.
    deck: Vec<usize>,
    /// Live tenants, oldest first.
    live: VecDeque<TenantId>,
    measuring: bool,
    trace: Trace,
    root_span: u32,
    latencies: Latencies,
    ops: u64,
    rejected: u64,
    errors: u64,
    fp: Fingerprint,
    /// Every op since the empty datacenter, for the bare-placer replay.
    log: Vec<LoggedOp>,
    steps: StepTotals,
    faults: FaultTotals,
    /// The fault in force and the arrival at which it is repaired.
    outstanding: Option<(Fault, usize)>,
    live_sum: u64,
    search_calls: u64,
    clock: SpeedClock,
    /// When the last op ended: the reading the speed clock ticks on.
    last_op_end: Instant,
}

impl Runner<'_> {
    /// One op: `call` mutates the cluster, then (on stepping workloads, in
    /// the measured phase) one traffic step re-enforces every guarantee.
    fn op(
        &mut self,
        kind: Kind,
        replay: Option<ReplayOp>,
        call: impl FnOnce(&mut Cluster<CmPlacer>) -> Outcome,
    ) -> Verdict {
        let op_id = self.ops as u32;
        self.clock.tick(self.last_op_end);
        let t0 = Instant::now();
        let out = call(&mut self.cluster);
        let t1 = Instant::now();
        let stepped = (self.measuring && self.w.step).then(|| {
            let report = self.cluster.traffic_step_as(GuaranteeModel::Tag);
            (report, Instant::now())
        });
        let t2 = stepped.as_ref().map_or(t1, |(_, t)| *t);
        self.last_op_end = t2;

        self.fp.mix(kind as u64);
        self.fp.mix(out.verdict as u64);
        self.fp.mix(out.detail);
        if self.traced {
            if let Some(op) = replay {
                self.log.push(LoggedOp {
                    op,
                    ok: out.verdict == Verdict::Ok,
                    measured: self.measuring,
                });
            }
        }
        if !self.measuring {
            return out.verdict;
        }
        self.ops += 1;
        match out.verdict {
            Verdict::Ok => {}
            Verdict::Rejected => self.rejected += 1,
            Verdict::Error => self.errors += 1,
        }
        self.latencies
            .push((t2 - t0).as_secs_f64() * 1e6, self.clock.segment());
        let spans = self.traced.then(|| {
            let (n0, n1, n2) = (self.trace.ns(t0), self.trace.ns(t1), self.trace.ns(t2));
            let op_span = self
                .trace
                .push(trace::OP, n0, n2, Some(self.root_span), op_id);
            self.trace.push(kind.span(), n0, n1, Some(op_span), op_id);
            (op_span, n1, n2)
        });
        if let Some((report, _)) = stepped {
            self.absorb_step(&report, t2 - t1);
            if let Some((op_span, n1, n2)) = spans {
                let step = self.trace.push(trace::STEP, n1, n2, Some(op_span), op_id);
                // The report times its phases but not when they ran: lay
                // them end to end from the start of the step.
                let mut at = n1;
                for (name, secs) in [
                    (trace::EXPAND, report.expand_secs),
                    (trace::ROUTE, report.route_secs),
                    (trace::SOLVE, report.solve_secs),
                    (trace::SCORE, report.score_secs),
                ] {
                    let end = at + (secs * 1e9) as u64;
                    self.trace.push(name, at, end, Some(step), op_id);
                    at = end;
                }
            }
        }
        out.verdict
    }

    fn absorb_step(&mut self, r: &TrafficReport, wall: Duration) {
        let s = &mut self.steps;
        s.steps += 1;
        s.solve_s += r.solve_secs;
        s.solve_warm_s += r.solve_warm_secs;
        s.components_dirty += r.components_dirty as u64;
        s.components_total += r.components_total as u64;
        s.fluid_flows += r.fluid_flows as u64;
        s.cross_flows += r.cross_flows as u64;
        s.violations += r.violations as u64;
        if self.outstanding.is_none() {
            s.violations_outside_fault += r.violations as u64;
        }
        s.non_work_conserving += u64::from(!r.work_conserving);
        let phases = r.expand_secs + r.route_secs + r.solve_secs + r.score_secs;
        s.phases_over_wall += u64::from(phases > wall.as_secs_f64());
        s.ecmp_max = s.ecmp_max.max(r.ecmp_max_utilization);
        s.ecmp_mean_sum += r.ecmp_mean_utilization;
        self.fp.mix(r.violations as u64);
        self.fp.mix(r.cross_flows as u64);
        self.fp.mix(r.colocated_flows as u64);
    }

    fn admit(&mut self) {
        // Arrivals walk a shuffled deck of the pool, reshuffled when it
        // runs out: every tenant shape arrives equally often whatever the
        // seed, so seeds differ in order, not in mix.
        if self.deck.is_empty() {
            self.deck = (0..self.pool.tenants().len()).collect();
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.random_range(0..=i));
            }
        }
        let idx = self.deck.pop().expect("deck was just refilled");
        let tag = std::sync::Arc::clone(&self.pool.tenants()[idx]);
        if self.traced && self.measuring {
            // What the placer's subtree search costs on this topology, seen
            // from outside: the same descent, read-only, for every level.
            let topo = self.cluster.topology();
            for level in 0..=self.w.fanout.len() {
                let t0 = Instant::now();
                std::hint::black_box(topo.descend_to_level(level, tag.total_vms(), (0, 0)));
                let t1 = Instant::now();
                let (n0, n1) = (self.trace.ns(t0), self.trace.ns(t1));
                self.trace
                    .push(trace::SEARCH, n0, n1, Some(self.root_span), self.ops as u32);
                self.search_calls += 1;
            }
        }
        let mut admitted = None;
        self.op(Kind::Admit, Some(ReplayOp::Admit { pool_idx: idx }), |c| {
            Outcome::of(c.admit(&tag), |h| {
                admitted = Some(h.id());
                h.id().raw()
            })
        });
        self.live.extend(admitted);
    }

    fn depart_oldest(&mut self) {
        let Some(id) = self.live.pop_front() else {
            return;
        };
        self.op(Kind::Depart, Some(ReplayOp::Depart { id: id.raw() }), |c| {
            Outcome::of(c.depart(id), |()| 0)
        });
    }

    /// Scale a random internal tier of a random live tenant out by `d`,
    /// then, if that was admitted, back in by `d`.
    fn scale_cycle(&mut self) {
        if self.live.is_empty() {
            return;
        }
        let id = self.live[self.rng.random_range(0..self.live.len())];
        let tiers: Vec<TierId> = self
            .cluster
            .tag_of(id)
            .map(|tag| tag.internal_tiers().collect())
            .unwrap_or_default();
        if tiers.is_empty() {
            return;
        }
        let tier = tiers[self.rng.random_range(0..tiers.len())];
        let d = self.rng.random_range(1..=4i64);
        for delta in [d, -d] {
            let op = ReplayOp::Scale {
                id: id.raw(),
                tier,
                delta,
            };
            let verdict = self.op(Kind::Scale, Some(op), |c| {
                Outcome::of(c.scale_tier(id, tier, delta), u64::from)
            });
            if verdict != Verdict::Ok {
                break;
            }
        }
    }

    fn migrate(&mut self) {
        if self.live.is_empty() {
            return;
        }
        let id = self.live[self.rng.random_range(0..self.live.len())];
        self.op(
            Kind::Migrate,
            Some(ReplayOp::Migrate { id: id.raw() }),
            |c| Outcome::of(c.migrate(id), |()| 0),
        );
    }

    /// The rotating fault: a whole rack (ToR fault domain), one server,
    /// one pod uplink at half capacity.
    fn inject_fault(&mut self, arrival: usize) {
        let topo = self.cluster.topology();
        let kind = (self.faults.injected.iter().sum::<u64>() % 3) as usize;
        let pick = |nodes: &[NodeId], rng: &mut StdRng| nodes[rng.random_range(0..nodes.len())];
        let fault = match kind {
            0 => Fault::Domain(pick(topo.nodes_at_level(1), &mut self.rng)),
            1 => Fault::Server(pick(topo.servers(), &mut self.rng)),
            _ => Fault::DegradeLink {
                node: pick(topo.nodes_at_level(2), &mut self.rng),
                fraction: 0.5,
            },
        };
        self.faults.injected[kind] += 1;
        // In force from the moment it is injected: the step inside this op
        // already runs against the failed substrate.
        self.outstanding = Some((fault, arrival + 3));
        let mut damage = (0, 0, 0);
        self.op(Kind::InjectFault, None, |c| {
            Outcome::of(c.inject_fault(fault), |r| {
                let evicted = r.tenants.iter().filter(|t| t.evicted).count() as u64;
                damage = (r.tenants.len() as u64, evicted, r.lost_vms);
                r.lost_vms ^ (r.tenants.len() as u64) << 32 ^ evicted << 48
            })
        });
        self.faults.tenants_damaged += damage.0;
        self.faults.tenants_evicted += damage.1;
        self.faults.vms_lost += damage.2;
    }

    fn repair(&mut self, fault: Fault) {
        let mut degraded = 0;
        self.op(Kind::Repair, None, |c| match c.repair(fault) {
            Ok(r) if r.degraded.is_empty() => Outcome {
                verdict: Verdict::Ok,
                detail: r.repaired.len() as u64,
            },
            Ok(r) => {
                degraded = r.degraded.len() as u64;
                Outcome {
                    verdict: Verdict::Rejected,
                    detail: r.repaired.len() as u64 ^ degraded << 32,
                }
            }
            Err(e) => Outcome::of(Err::<(), _>(e), |()| 0),
        });
        // Cleared after the op: its step still belongs to the fault window.
        self.outstanding = None;
        self.faults.repair_degraded += degraded;
    }

    /// The op stream of one arrival.
    fn arrival(&mut self, arrival: usize) {
        if self.live.len() >= self.w.target_live {
            self.depart_oldest();
        }
        if self.w.faults {
            if let Some((fault, due)) = self.outstanding {
                if arrival >= due {
                    self.repair(fault);
                }
            }
            if arrival.is_multiple_of(8) && self.outstanding.is_none() {
                self.inject_fault(arrival);
            }
        }
        self.admit();
        self.scale_cycle();
        self.scale_cycle();
        if (arrival + 1).is_multiple_of(16) {
            self.migrate();
        }
        self.live_sum += self.live.len() as u64;
    }
}

/// Peak resident set of this process so far (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What set-up measured besides its own duration.
struct SetUp {
    pool_build_ms: f64,
    topo_build_ms: f64,
    slot_occupancy: f64,
    first_step_ms: f64,
}

/// Set-up: build the pool and the datacenter, fill it to the steady-state
/// population, then one cold traffic step so the engine exists before the
/// first measured op. Ends on a mark of the speed clock.
fn set_up(
    w: &Workload,
    traced: bool,
    clock: SpeedClock,
    started: Instant,
) -> Result<(Runner<'_>, SetUp), String> {
    let t_pool = Instant::now();
    let pool = bing_like_pool(POPULATION_SEED).scaled_to_bmax(BMAX_KBPS);
    let pool_build_ms = t_pool.elapsed().as_secs_f64() * 1e3;
    let t_topo = Instant::now();
    let topo = Topology::build(&w.tree());
    let topo_build_ms = t_topo.elapsed().as_secs_f64() * 1e3;
    let mut cluster = Cluster::adopt(topo, CmPlacer::new(CmConfig::cm()));
    cluster.set_traffic_ecmp(w.ecmp());

    let mut r = Runner {
        w,
        traced,
        cluster,
        pool,
        rng: StdRng::seed_from_u64(POPULATION_SEED),
        deck: Vec::new(),
        live: VecDeque::new(),
        measuring: false,
        trace: Trace::new(started),
        root_span: 0,
        latencies: Latencies::new(),
        ops: 0,
        rejected: 0,
        errors: 0,
        fp: Fingerprint(0xcbf2_9ce4_8422_2325),
        log: Vec::new(),
        steps: StepTotals::default(),
        faults: FaultTotals::default(),
        outstanding: None,
        live_sum: 0,
        search_calls: 0,
        clock,
        last_op_end: started,
    };

    let mut fill_attempts = 0;
    while r.live.len() < w.target_live {
        fill_attempts += 1;
        if fill_attempts > 20 * w.target_live {
            return Err(format!(
                "{}: fill stalled at {} of {} live tenants",
                w.name,
                r.live.len(),
                w.target_live
            ));
        }
        r.admit();
    }
    let util = r.cluster.utilization();
    let slot_occupancy = util.slots_in_use as f64 / util.slots_total as f64;
    let mut first_step_ms = 0.0;
    if w.step {
        let t = Instant::now();
        let report = r.cluster.traffic_step_as(GuaranteeModel::Tag);
        first_step_ms = t.elapsed().as_secs_f64() * 1e3;
        r.fp.mix(report.violations as u64);
    }
    r.clock.mark();
    let gauges = SetUp {
        pool_build_ms,
        topo_build_ms,
        slot_occupancy,
        first_step_ms,
    };
    Ok((r, gauges))
}

/// Run one rep. `started` is when the process started: the first set-up
/// begins there, and trace timestamps count from it.
pub fn run_rep(
    w: &Workload,
    seed: u64,
    limit: Limit,
    traced: bool,
    started: Instant,
) -> Result<RepResult, String> {
    // Set-up is the same work every time, so a short one is done again —
    // up to five times or 0.3 s in all — and `setup_s` is the median: one
    // 30 ms set-up right after process start measures page faults and cold
    // caches more than the code.
    let mut clock = SpeedClock::start(started);
    let mut setups_s = Vec::new();
    let (mut r, set_up_gauges) = loop {
        // A fresh mark: dropping the previous datacenter is not set-up.
        let from = clock.mark();
        let (r, gauges) = set_up(w, traced, clock, started)?;
        setups_s.push(r.clock.between(from, r.clock.last_mark()).1);
        if setups_s.len() == 5 || setups_s.iter().sum::<f64>() > 0.3 {
            break (r, gauges);
        }
        clock = r.clock;
    };
    let setup_s = stats::median(&setups_s).expect("at least one set-up ran");
    let setup_end = r.clock.last_mark();

    // The measured phase: from here on every choice comes from `seed`.
    r.rng = StdRng::seed_from_u64(seed);
    r.deck.clear();
    r.measuring = true;
    let t_start = Instant::now();
    let n_start = r.trace.ns(t_start);
    r.root_span = r.trace.push(trace::MEASURE, n_start, n_start, None, 0);
    let (max_arrivals, deadline) = match limit {
        Limit::Arrivals(n) => (n, None),
        Limit::Seconds(s) => (usize::MAX, Some(t_start + Duration::from_secs_f64(s))),
    };
    let mark_every = (w.arrivals / 8).max(1);
    let mut marks = Vec::new();
    let mut arrivals = 0;
    while arrivals < max_arrivals && deadline.is_none_or(|d| Instant::now() < d) {
        r.arrival(arrivals);
        arrivals += 1;
        if arrivals.is_multiple_of(mark_every) {
            marks.push((arrivals, r.fp.0));
        }
    }
    let t_end = Instant::now();
    let measured_end = r.clock.mark();
    let (raw_wall_s, wall_s) = r.clock.between(setup_end, measured_end);
    r.measuring = false;
    let n_end = r.trace.ns(t_end);
    r.trace.set_end(r.root_span, n_end);

    // Correctness: the books balance while live, and after a full drain.
    let mut checks = Vec::new();
    let mut check = |name: &str, ok: bool, detail: String| {
        checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    };
    let live_ok = r.cluster.check_invariants();
    check(
        "invariants_live",
        live_ok.is_ok(),
        live_ok.err().unwrap_or_default(),
    );
    if let Some((fault, _)) = r.outstanding.take() {
        r.cluster
            .repair(fault)
            .map_err(|e| format!("final repair: {e}"))?;
    }
    while let Some(id) = r.live.pop_front() {
        r.cluster
            .depart(id)
            .map_err(|e| format!("final drain: {e}"))?;
    }
    let drained = r.cluster.check_invariants();
    check(
        "invariants_drained",
        drained.is_ok(),
        drained.err().unwrap_or_default(),
    );
    let left = r.cluster.topology().slots_in_use();
    check(
        "drain_frees_every_slot",
        left == 0,
        format!("{left} slots still in use"),
    );
    check(
        "no_unexpected_errors",
        r.errors == 0,
        format!("{} ops failed other than by refusal", r.errors),
    );
    let s = &r.steps;
    check(
        "steps_work_conserving",
        s.non_work_conserving == 0,
        format!("{} of {} steps", s.non_work_conserving, s.steps),
    );
    check(
        "no_violations_outside_fault_windows",
        s.violations_outside_fault == 0,
        format!("{} violated pairs", s.violations_outside_fault),
    );
    check(
        "phases_within_step_wall",
        s.phases_over_wall == 0,
        format!("{} of {} steps", s.phases_over_wall, s.steps),
    );
    if w.faults {
        check(
            "every_fault_kind_injected",
            r.faults.injected.iter().all(|&n| n > 0),
            format!("domain/server/link = {:?}", r.faults.injected),
        );
    }
    let peak_rss_mb = peak_rss_mb();

    let mut layers = Vec::new();
    if traced {
        let shares = r.trace.shares();
        check(
            "shares_sum_to_one",
            (shares.sum() - 1.0).abs() <= 0.02,
            format!("sum = {}", shares.sum()),
        );
        let replayed = if w.faults {
            None // faults are substrate changes the bare placer never sees
        } else {
            let rp = replay::run(&w.tree(), &r.pool, &r.log);
            check(
                "replay_decisions_match",
                rp.mismatches == 0,
                format!(
                    "{} of {} ops decided differently",
                    rp.mismatches,
                    r.log.len()
                ),
            );
            Some(rp)
        };
        layers = layer_metrics(
            &r,
            replayed.as_ref(),
            &Gauges {
                shares,
                set_up: set_up_gauges,
                arrivals,
                slowdown: raw_wall_s / wall_s,
            },
        );
    }

    let mut lat_us: Vec<f64> = r
        .latencies
        .samples
        .iter()
        .map(|&(us, segment)| us * r.clock.factor(segment))
        .collect();
    stats::sort(&mut lat_us);
    Ok(RepResult {
        arrivals,
        ops: r.ops,
        rejected: r.rejected,
        errors: r.errors,
        setup_s,
        wall_s,
        slowdown: raw_wall_s / wall_s,
        lat_us,
        peak_rss_mb,
        fingerprint: r.fp.0,
        marks,
        checks,
        layers,
        trace: traced.then_some(r.trace),
    })
}

/// Measurements `layer_metrics` reports but does not derive from spans.
struct Gauges {
    shares: trace::Shares,
    set_up: SetUp,
    arrivals: usize,
    slowdown: f64,
}

/// Every per-layer metric, in `metrics::PER_LAYER` order. A layer the
/// workload never calls reports 0.
fn layer_metrics(
    r: &Runner<'_>,
    replayed: Option<&replay::Replayed>,
    g: &Gauges,
) -> Vec<(&'static str, f64)> {
    let t = &r.trace;
    let dur = |name: &str, p: f64| stats::percentile(&t.durations_us(name), p);
    let sync_self = t.self_us(trace::STEP);
    let sh = g.shares;
    let s = &r.steps;
    let per_step = |total: f64| {
        if s.steps == 0 {
            0.0
        } else {
            total / s.steps as f64
        }
    };
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let core = |v: fn(&replay::Replayed) -> &Vec<f64>, p: f64| {
        replayed.map_or(0.0, |rp| stats::percentile(v(rp), p))
    };
    // Cluster admit minus the bare placer's place, admit by admit.
    let admit_self: Vec<f64> = replayed.map_or_else(Vec::new, |rp| {
        t.durations_us("cluster.admit")
            .iter()
            .zip(&rp.place_us)
            .map(|(c, p)| c - p)
            .collect()
    });
    vec![
        ("workloads.pool_build_ms", g.set_up.pool_build_ms),
        ("topology.build_ms", g.set_up.topo_build_ms),
        ("topology.search_us_p50", dur(trace::SEARCH, 50.0)),
        ("topology.search_us_p99", dur(trace::SEARCH, 99.0)),
        ("topology.search_calls", r.search_calls as f64),
        ("topology.slot_occupancy", g.set_up.slot_occupancy),
        ("core.place_us_p50", core(|rp| &rp.place_us, 50.0)),
        ("core.place_us_p99", core(|rp| &rp.place_us, 99.0)),
        ("core.scale_us_p50", core(|rp| &rp.scale_us, 50.0)),
        ("core.scale_us_p99", core(|rp| &rp.scale_us, 99.0)),
        ("core.release_us_p50", core(|rp| &rp.release_us, 50.0)),
        (
            "core.reject_share",
            replayed.map_or(0.0, |rp| ratio(rp.rejected as f64, rp.measured as f64)),
        ),
        ("cluster.admit_us_p50", dur("cluster.admit", 50.0)),
        ("cluster.admit_us_p99", dur("cluster.admit", 99.0)),
        ("cluster.scale_us_p50", dur("cluster.scale", 50.0)),
        ("cluster.scale_us_p99", dur("cluster.scale", 99.0)),
        ("cluster.depart_us_p50", dur("cluster.depart", 50.0)),
        ("cluster.migrate_us_p50", dur("cluster.migrate", 50.0)),
        (
            "cluster.inject_fault_us_p50",
            dur("cluster.inject_fault", 50.0),
        ),
        (
            "cluster.inject_fault_us_p99",
            dur("cluster.inject_fault", 99.0),
        ),
        ("cluster.repair_us_p50", dur("cluster.repair", 50.0)),
        ("cluster.repair_us_p99", dur("cluster.repair", 99.0)),
        ("cluster.traffic_step_us_p50", dur(trace::STEP, 50.0)),
        ("cluster.traffic_step_us_p99", dur(trace::STEP, 99.0)),
        (
            "cluster.traffic_sync_self_us_p50",
            stats::percentile(&sync_self, 50.0),
        ),
        (
            "cluster.traffic_sync_self_us_p99",
            stats::percentile(&sync_self, 99.0),
        ),
        (
            "cluster.admit_self_us_p50",
            stats::percentile(&admit_self, 50.0),
        ),
        (
            "cluster.live_tenants_mean",
            ratio(r.live_sum as f64, g.arrivals as f64),
        ),
        ("cluster.tenants_damaged", r.faults.tenants_damaged as f64),
        ("cluster.tenants_evicted", r.faults.tenants_evicted as f64),
        ("cluster.vms_lost", r.faults.vms_lost as f64),
        ("cluster.repair_degraded", r.faults.repair_degraded as f64),
        ("enforce.first_step_ms", g.set_up.first_step_ms),
        ("enforce.expand_us_p50", dur(trace::EXPAND, 50.0)),
        ("enforce.expand_us_p99", dur(trace::EXPAND, 99.0)),
        ("enforce.route_us_p50", dur(trace::ROUTE, 50.0)),
        ("enforce.solve_us_p50", dur(trace::SOLVE, 50.0)),
        ("enforce.solve_us_p99", dur(trace::SOLVE, 99.0)),
        ("enforce.score_us_p50", dur(trace::SCORE, 50.0)),
        ("enforce.score_us_p99", dur(trace::SCORE, 99.0)),
        ("enforce.warm_share", ratio(s.solve_warm_s, s.solve_s)),
        (
            "enforce.dirty_share",
            ratio(s.components_dirty as f64, s.components_total as f64),
        ),
        (
            "enforce.components_total_mean",
            per_step(s.components_total as f64),
        ),
        ("enforce.fluid_flows_mean", per_step(s.fluid_flows as f64)),
        ("enforce.cross_flows_mean", per_step(s.cross_flows as f64)),
        ("enforce.violations", s.violations as f64),
        (
            "enforce.non_work_conserving_steps",
            s.non_work_conserving as f64,
        ),
        ("enforce.ecmp_max_utilization", s.ecmp_max),
        ("enforce.ecmp_mean_utilization", per_step(s.ecmp_mean_sum)),
        ("share.mutate", sh.mutate),
        ("share.sync", sh.sync),
        ("share.expand", sh.expand),
        ("share.route", sh.route),
        ("share.solve", sh.solve),
        ("share.score", sh.score),
        ("share.harness", sh.harness),
        ("trace.op_p50_us", dur(trace::OP, 50.0)),
        ("trace.op_p99_us", dur(trace::OP, 99.0)),
        ("trace.machine_slowdown", g.slowdown),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 64 servers, 20 live tenants: small enough for a debug-build test.
    fn tiny(step: bool, faults: bool) -> Workload {
        Workload {
            name: "tiny",
            why: "unit test",
            fanout: [2, 4, 8],
            uplinks_gbps: [10.0, 80.0, 80.0],
            ecmp_ways: 1,
            target_live: 20,
            arrivals: 48,
            step,
            faults,
        }
    }

    fn rep(w: &Workload, seed: u64, traced: bool) -> RepResult {
        run_rep(w, seed, Limit::Arrivals(w.arrivals), traced, Instant::now()).unwrap()
    }

    fn failed(r: &RepResult) -> Vec<&Check> {
        r.checks.iter().filter(|c| !c.ok).collect()
    }

    #[test]
    fn op_stream_is_a_pure_function_of_the_seed() {
        let w = tiny(false, false);
        let (a, b, c) = (rep(&w, 1, false), rep(&w, 1, false), rep(&w, 2, false));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!((a.ops, a.rejected, &a.marks), (b.ops, b.rejected, &b.marks));
        assert_ne!(a.fingerprint, c.fingerprint, "another seed, another stream");
        assert_eq!(a.marks.len(), 8, "a mark every eighth of the arrivals");
        assert!(a.ops >= 4 * 48, "depart, admit and scale ops per arrival");
        assert!(failed(&a).is_empty(), "{:?}", failed(&a));
    }

    #[test]
    fn a_time_limit_walks_a_prefix_of_the_same_stream() {
        let w = tiny(false, false);
        let counted = rep(&w, 3, false);
        let timed = run_rep(&w, 3, Limit::Seconds(0.05), false, Instant::now()).unwrap();
        assert!(timed.arrivals > 0);
        for (n, fp) in &timed.marks {
            if let Some((_, same)) = counted.marks.iter().find(|(m, _)| m == n) {
                assert_eq!(fp, same, "fingerprints differ after {n} arrivals");
            }
        }
    }

    #[test]
    fn tracing_changes_no_decision_and_the_replay_agrees() {
        let w = tiny(true, false);
        let (plain, traced) = (rep(&w, 5, false), rep(&w, 5, true));
        assert_eq!(plain.fingerprint, traced.fingerprint);
        assert!(failed(&traced).is_empty(), "{:?}", failed(&traced));
        assert!(traced
            .checks
            .iter()
            .any(|c| c.name == "replay_decisions_match"));
        assert!(traced.checks.iter().any(|c| c.name == "shares_sum_to_one"));
        let names: Vec<&str> = traced.layers.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = crate::metrics::PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| *n != "trace.overhead_pct")
            .collect();
        assert_eq!(
            names, expected,
            "layer metrics follow the catalogue's order"
        );
        let layer = |name: &str| traced.layers.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(layer("share.solve") + layer("share.score") > 0.0);
        assert!(layer("core.place_us_p50") > 0.0);
        assert_eq!(layer("topology.search_calls"), 4.0 * 48.0);
        assert!(plain.layers.is_empty() && plain.trace.is_none());
    }

    #[test]
    fn fault_schedule_injects_every_kind_and_keeps_the_books() {
        let w = tiny(true, true);
        let r = rep(&w, 7, true);
        assert!(failed(&r).is_empty(), "{:?}", failed(&r));
        assert!(r
            .checks
            .iter()
            .any(|c| c.name == "every_fault_kind_injected"));
        assert!(
            !r.checks.iter().any(|c| c.name == "replay_decisions_match"),
            "the bare placer cannot replay substrate faults"
        );
        let spans = &r.trace.as_ref().unwrap().spans;
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("cluster.inject_fault"), 6, "arrivals 0, 8, ..., 40");
        assert_eq!(count("cluster.repair"), 6, "each repaired 3 arrivals later");
    }

    #[test]
    fn latency_reservoir_is_bounded_and_uniform() {
        let mut l = Latencies::new();
        let n = 10 * Latencies::CAP;
        for i in 0..n {
            l.push(i as f64, 1);
        }
        assert_eq!(l.samples.len(), Latencies::CAP);
        let kept: Vec<f64> = l.samples.iter().map(|s| s.0).collect();
        let median = stats::percentile(&kept, 50.0);
        assert!(
            (median / n as f64 - 0.5).abs() < 0.01,
            "median {median} of 0..{n}"
        );
    }
}
