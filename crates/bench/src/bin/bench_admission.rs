//! Admission-throughput macro-benchmark: run the paper-default simulation
//! for every placer and record arrivals/sec plus per-placement latency
//! percentiles into `BENCH_placement.json` — the workspace's performance
//! trajectory artifact.
//!
//! Beyond the six production placers, the benchmark also runs CloudMirror
//! on the pre-descend **linear-scan reference** search
//! ([`SearchStrategy::LinearReference`]), so every report carries its own
//! before/after comparison on the same machine; the `pre_change_baseline`
//! block additionally records the numbers measured at the commit before
//! the descend-search/allocation-free rewrite landed.
//!
//! Modes: default 2,000 arrivals; `--full` the paper's 10,000; `--quick`
//! a 300-arrival CI smoke run. Throughput entries for CloudMirror run
//! `REPS` repetitions and report the median to damp machine noise.

use cm_baselines::{OktopusVcPlacer, OvocPlacer, SecondNetPlacer};
use cm_bench::print_table;
use cm_core::placement::{CmConfig, CmPlacer, HaPolicy, Placer, SearchStrategy};
use cm_enforce::{EcmpConfig, GuaranteeModel};
use cm_race::explore::{explore_exhaustive, Caps, ExploreReport};
use cm_race::schedule::Mutation;
use cm_sim::faults::{run_churn_faults, FaultChurnConfig, FaultChurnReport};
use cm_sim::lifecycle::{run_churn, ChurnConfig, ChurnReport};
use cm_sim::schedule::{build_schedule, run_schedule_concurrent, Schedule};
use cm_sim::traffic::{run_churn_traffic, TrafficChurnConfig, TrafficChurnReport};
use cm_sim::{run_sim, SimConfig};
use cm_topology::{gbps, TreeSpec};
use cm_workloads::{bing_like_pool, TenantPool};
use std::fmt::Write as _;
use std::time::Instant;

struct BenchRow {
    name: String,
    arrivals: usize,
    admitted: usize,
    wall_secs: f64,
    admit_secs: f64,
    p50_us: f64,
    p99_us: f64,
}

impl BenchRow {
    fn arrivals_per_sec(&self) -> f64 {
        self.arrivals as f64 / self.wall_secs
    }
}

fn bench_one<P: Placer>(
    make: impl Fn() -> P,
    base: &SimConfig,
    pool: &TenantPool,
    scale: f64,
    reps: usize,
) -> BenchRow {
    let mut cfg = base.clone();
    cfg.arrivals = ((cfg.arrivals as f64 * scale) as usize).max(50);
    let mut rows: Vec<BenchRow> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let res = run_sim(&cfg, pool, make());
            let wall = t0.elapsed().as_secs_f64();
            BenchRow {
                name: res.algo.to_string(),
                arrivals: cfg.arrivals,
                admitted: res.rejections.arrivals - res.rejections.rejected_tenants,
                wall_secs: wall,
                admit_secs: res.admit.total_secs(),
                p50_us: res.admit.quantile_us(0.5).unwrap_or(0.0),
                p99_us: res.admit.quantile_us(0.99).unwrap_or(0.0),
            }
        })
        .collect();
    rows.sort_by(|a, b| a.wall_secs.partial_cmp(&b.wall_secs).expect("finite"));
    rows.swap_remove(rows.len() / 2) // median by wall time
}

/// Pre-change throughput (arrivals/sec) measured with this same harness at
/// the commit preceding the descend-search + allocation-free hot path
/// (linear `find_lowest_subtree`, deep-cloned models, per-call scratch),
/// on the same bing-like pool and paper datacenter. Only the default
/// (2,000-arrival) and `--full` (10,000-arrival) workloads were measured;
/// `--quick` has no like-for-like baseline and reports none.
fn pre_change_baseline(quick: bool, full: bool) -> Option<&'static [(&'static str, f64)]> {
    if quick {
        None
    } else if full {
        Some(&[
            ("CM", 4609.0),
            ("Coloc", 5157.6),
            ("Balance", 25546.6),
            ("OVOC", 18018.7),
            ("VC", 17207.0),
            ("SecondNet", 669.1),
        ])
    } else {
        Some(&[
            ("CM", 10175.9),
            ("Coloc", 2084.9),
            ("Balance", 26655.3),
            ("OVOC", 23910.0),
            ("VC", 14789.6),
            ("SecondNet", 794.7),
        ])
    }
}

/// One thread-scaling measurement: the concurrent engine driving `threads`
/// workers over a pre-generated schedule.
struct ScalingRow {
    placer: &'static str,
    threads: usize,
    arrivals: usize,
    wall_secs: f64,
}

fn bench_concurrent<P: Placer, F: Fn() -> P + Sync>(
    schedule: &Schedule,
    make: F,
    threads: usize,
) -> ScalingRow {
    let name = make().name();
    let t0 = Instant::now();
    let run = run_schedule_concurrent(schedule, make, threads);
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(run.result.rejections.arrivals, schedule.arrivals);
    ScalingRow {
        placer: name,
        threads,
        arrivals: schedule.arrivals,
        wall_secs: wall,
    }
}

/// The thread counts to record: always 1/2/4 (the scaling-curve artifact),
/// extended by `--threads N` when N is larger.
fn thread_counts(max: usize) -> Vec<usize> {
    let mut v: Vec<usize> = [1usize, 2, 4].into_iter().filter(|&t| t <= max).collect();
    if !v.contains(&max) {
        v.push(max);
    }
    v
}

/// The autoscaling-churn scenario (admit → scale out → scale in → depart,
/// with periodic migrations), per placer — the lifecycle workload class the
/// `Cluster` controller opened. Tenant counts scale with the run mode.
fn lifecycle_churn(quick: bool, full: bool, pool: &TenantPool) -> Vec<ChurnReport> {
    let mut cfg = ChurnConfig::paper_default();
    cfg.tenants = if quick {
        80
    } else if full {
        1_200
    } else {
        400
    };
    vec![
        run_churn(&cfg, pool, CmPlacer::new(CmConfig::cm())),
        run_churn(&cfg, pool, OvocPlacer::new()),
    ]
}

/// Fault injection & recovery: the lifecycle churn with a rotating fault
/// schedule (ToR-level domain kill, single-server kill, 50% link
/// degradation) injected every few arrivals and repaired a few arrivals
/// later. CM+HA enforces Eq. 7 at the killed level and must measure zero
/// survivability violations; plain CM is judged against the same bound it
/// never enforced — the gap is what §4.5 buys. Tenant counts scale with
/// the run mode.
fn fault_churn(quick: bool, full: bool, pool: &TenantPool) -> Vec<FaultChurnReport> {
    let mut churn = ChurnConfig::paper_default();
    churn.tenants = if quick {
        80
    } else if full {
        1_200
    } else {
        400
    };
    let cfg = FaultChurnConfig::quick(churn);
    let ha = CmConfig {
        ha: HaPolicy::Guaranteed {
            rwcs: cfg.rwcs,
            laa_level: cfg.domain_level,
        },
        ..CmConfig::default()
    };
    vec![
        run_churn_faults(&cfg, pool, CmPlacer::new(CmConfig::cm())),
        run_churn_faults(&cfg, pool, CmPlacer::named(ha, "CM+HA")),
    ]
}

/// One traffic-bench run plus the scale it ran at (the JSON's `servers`
/// field lets CI apply per-scale step-latency bounds).
struct TrafficRun {
    servers: usize,
    ecmp_ways: u32,
    report: TrafficChurnReport,
}

/// The datacenter traffic workload: lifecycle churn with periodic
/// incremental traffic-engine steps, once under the paper's TAG-patched
/// enforcement and once under the plain hose baseline — identical
/// placements, different floors — on the paper's 2,048-server datacenter,
/// plus a 32,768-server ECMP fat-tree run under the Tag model. Records
/// per-step expand/route/solve/score latency and guarantee-compliance
/// violations.
fn traffic_bench(quick: bool, full: bool, pool: &TenantPool) -> Vec<TrafficRun> {
    let (tenants, solve_every) = if quick {
        (60, 20)
    } else if full {
        (400, 40)
    } else {
        (200, 25)
    };
    let mut runs: Vec<TrafficRun> = [GuaranteeModel::Tag, GuaranteeModel::Hose]
        .into_iter()
        .map(|model| {
            let mut cfg = TrafficChurnConfig::paper_default(model);
            cfg.churn.tenants = tenants;
            cfg.solve_every = solve_every;
            TrafficRun {
                servers: 2048,
                ecmp_ways: 1,
                report: run_churn_traffic(&cfg, pool, CmPlacer::new(CmConfig::cm())),
            }
        })
        .collect();
    // 32k-server fat-tree: 32 pods x 32 racks x 32 servers, 8-way
    // ECMP-hashed core — the scale the incremental engine exists for.
    let mut cfg = TrafficChurnConfig::paper_default(GuaranteeModel::Tag);
    cfg.churn.spec = TreeSpec {
        fanout_top_down: vec![32, 32, 32],
        uplink_kbps: vec![gbps(10.0), gbps(80.0), gbps(320.0)],
        slots_per_server: 25,
    };
    cfg.churn.tenants = tenants;
    cfg.churn.target_live = 180;
    cfg.solve_every = solve_every;
    cfg.ecmp = EcmpConfig::hashed(8);
    runs.push(TrafficRun {
        servers: 32_768,
        ecmp_ways: 8,
        report: run_churn_traffic(&cfg, pool, CmPlacer::new(CmConfig::cm())),
    });
    // 131k-server fat-tree: 32 pods x 64 racks x 64 servers, 8-way
    // ECMP-hashed core — past the paper's scale by 64x, reachable only
    // because churn re-solves just the components it touched.
    let mut cfg = TrafficChurnConfig::paper_default(GuaranteeModel::Tag);
    cfg.churn.spec = TreeSpec {
        fanout_top_down: vec![32, 64, 64],
        uplink_kbps: vec![gbps(10.0), gbps(80.0), gbps(320.0)],
        slots_per_server: 25,
    };
    cfg.churn.tenants = tenants;
    cfg.churn.target_live = 180;
    cfg.solve_every = solve_every;
    cfg.ecmp = EcmpConfig::hashed(8);
    runs.push(TrafficRun {
        servers: 131_072,
        ecmp_ways: 8,
        report: run_churn_traffic(&cfg, pool, CmPlacer::new(CmConfig::cm())),
    });
    runs
}

/// One exhaustively explored model-checking scenario plus its wall time:
/// schedules/sec is the throughput figure the JSON tracks run-over-run.
struct ModelCheckRun {
    report: ExploreReport,
    wall_secs: f64,
}

impl ModelCheckRun {
    fn schedules_per_sec(&self) -> f64 {
        self.report.schedules as f64 / self.wall_secs.max(1e-9)
    }
}

/// Exhaustive 2-worker schedule exploration over every expect-clean
/// cm-race scenario. This is a *throughput* benchmark — correctness is
/// CI's `race` job — but the explored-schedule counts double as a canary:
/// a sync-shim change that adds or removes yield points shows up here as
/// a state-space size shift before any pinned replay id goes stale.
fn model_check_bench(quick: bool) -> Vec<ModelCheckRun> {
    let caps = Caps::default();
    cm_race::scenario::all()
        .into_iter()
        .filter(|s| s.expect_clean)
        // --quick keeps the two cheapest state spaces (the CI smoke run
        // budget); default/full explore everything.
        .filter(|s| !quick || s.name == "samepod2" || s.name == "parmap")
        .map(|scn| {
            let start = Instant::now();
            let report = explore_exhaustive(&scn, 2, Mutation::None, &caps);
            ModelCheckRun {
                report,
                wall_secs: start.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

fn thread_scaling(cfg: &SimConfig, pool: &TenantPool, max_threads: usize) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    let counts = thread_counts(max_threads);
    // The five production placers of the stress suite. SecondNet gets a
    // reduced arrival slice, as in the main table.
    let mut sn_cfg = cfg.clone();
    sn_cfg.arrivals = (cfg.arrivals / 4).max(50);
    let sched = build_schedule(cfg, pool);
    let sn_sched = build_schedule(&sn_cfg, pool);
    for &t in &counts {
        rows.push(bench_concurrent(
            &sched,
            || CmPlacer::new(CmConfig::cm()),
            t,
        ));
    }
    for &t in &counts {
        rows.push(bench_concurrent(
            &sched,
            || CmPlacer::named(CmConfig::cm_ha(0.5), "CM+HA"),
            t,
        ));
    }
    for &t in &counts {
        rows.push(bench_concurrent(&sched, OvocPlacer::new, t));
    }
    for &t in &counts {
        rows.push(bench_concurrent(&sched, OktopusVcPlacer::new, t));
    }
    for &t in &counts {
        rows.push(bench_concurrent(&sn_sched, SecondNetPlacer::new, t));
    }
    rows
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let full = std::env::args().any(|a| a == "--full");
    let args: Vec<String> = std::env::args().collect();
    let max_threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
        .max(1);
    let mut cfg = SimConfig::paper_default();
    cfg.arrivals = if quick {
        300
    } else if full {
        10_000
    } else {
        2_000
    };
    let reps = if quick { 1 } else { 3 };
    let pool = bing_like_pool(42);

    // SecondNet is orders of magnitude slower (paper §5.1), so it gets a
    // slice of the arrival count.
    let rows = [
        bench_one(|| CmPlacer::new(CmConfig::cm()), &cfg, &pool, 1.0, reps),
        bench_one(
            || {
                CmPlacer::named(CmConfig::cm(), "CM (linear-scan reference)")
                    .with_search_strategy(SearchStrategy::LinearReference)
            },
            &cfg,
            &pool,
            1.0,
            reps,
        ),
        bench_one(
            || CmPlacer::new(CmConfig::coloc_only()),
            &cfg,
            &pool,
            1.0,
            1,
        ),
        bench_one(
            || CmPlacer::new(CmConfig::balance_only()),
            &cfg,
            &pool,
            1.0,
            1,
        ),
        bench_one(OvocPlacer::new, &cfg, &pool, 1.0, 1),
        bench_one(OktopusVcPlacer::new, &cfg, &pool, 1.0, 1),
        bench_one(SecondNetPlacer::new, &cfg, &pool, 0.05, 1),
    ];

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.arrivals.to_string(),
                r.admitted.to_string(),
                format!("{:.2}", r.wall_secs),
                format!("{:.1}", r.arrivals_per_sec()),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
            ]
        })
        .collect();
    print_table(
        "Admission throughput (paper datacenter, bing-like pool)",
        &[
            "placer",
            "arrivals",
            "admitted",
            "wall (s)",
            "arrivals/s",
            "p50 (us)",
            "p99 (us)",
        ],
        &table,
    );

    let cm = &rows[0];
    let cm_ref = &rows[1];
    let baseline = pre_change_baseline(quick, full);
    let baseline_cm = baseline.map(|b| {
        b.iter()
            .find(|(n, _)| *n == "CM")
            .map(|&(_, v)| v)
            .expect("baseline has CM")
    });
    match baseline_cm {
        Some(base) => println!(
            "\nCM admission: {:.0} arrivals/s — {:.2}x vs in-binary linear-scan \
             reference ({:.0}/s), {:.2}x vs pre-change baseline ({:.0}/s).",
            cm.arrivals_per_sec(),
            cm.arrivals_per_sec() / cm_ref.arrivals_per_sec(),
            cm_ref.arrivals_per_sec(),
            cm.arrivals_per_sec() / base,
            base,
        ),
        None => println!(
            "\nCM admission: {:.0} arrivals/s — {:.2}x vs in-binary linear-scan \
             reference ({:.0}/s); no pre-change baseline for --quick.",
            cm.arrivals_per_sec(),
            cm.arrivals_per_sec() / cm_ref.arrivals_per_sec(),
            cm_ref.arrivals_per_sec(),
        ),
    }

    // ------------------------------------------------------------------
    // Thread scaling: the sharded concurrent engine over a pre-generated
    // schedule, per placer, at 1/2/4 (and --threads N) workers.
    // ------------------------------------------------------------------
    let scaling = thread_scaling(&cfg, &pool, max_threads);
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scaling_table: Vec<Vec<String>> = scaling
        .iter()
        .map(|r| {
            vec![
                r.placer.to_string(),
                r.threads.to_string(),
                r.arrivals.to_string(),
                format!("{:.2}", r.wall_secs),
                format!("{:.1}", r.arrivals as f64 / r.wall_secs),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Concurrent admission thread scaling (sharded engine; {hardware_threads} hardware thread(s))"
        ),
        &["placer", "threads", "arrivals", "wall (s)", "arrivals/s"],
        &scaling_table,
    );

    // ------------------------------------------------------------------
    // Lifecycle churn: the admit → scale out → scale in → depart workload
    // over the Cluster controller (exact-incremental scaling for CM, the
    // generic re-place fallback for OVOC).
    // ------------------------------------------------------------------
    let churn = lifecycle_churn(quick, full, &pool);
    let churn_table: Vec<Vec<String>> = churn
        .iter()
        .map(|r| {
            vec![
                r.placer.to_string(),
                format!("{}/{}", r.admitted, r.admits_attempted),
                format!("{}/{}", r.scale_ops - r.scale_rejected, r.scale_ops),
                r.migrates.to_string(),
                format!("{:.1}", r.ops_per_sec()),
                format!("{:.1}", r.admit.quantile_us(0.99).unwrap_or(0.0)),
                format!("{:.1}", r.scale.quantile_us(0.5).unwrap_or(0.0)),
                format!("{:.1}", r.scale.quantile_us(0.99).unwrap_or(0.0)),
            ]
        })
        .collect();
    print_table(
        "Lifecycle churn (Cluster: admit / scale ±n / migrate / depart)",
        &[
            "placer",
            "admitted",
            "scales ok",
            "migrates",
            "ops/s",
            "admit p99 (us)",
            "scale p50 (us)",
            "scale p99 (us)",
        ],
        &churn_table,
    );

    // ------------------------------------------------------------------
    // Fault injection & recovery: the same churn with a rotating fault
    // schedule, CM+HA's measured survivability against plain CM's.
    // ------------------------------------------------------------------
    let faults = fault_churn(quick, full, &pool);
    let fault_table: Vec<Vec<String>> = faults
        .iter()
        .map(|r| {
            vec![
                r.churn.placer.to_string(),
                format!("{}/{}/{}", r.domain_kills, r.server_kills, r.degrades),
                r.vms_lost.to_string(),
                format!("{}/{}", r.tenants_evicted, r.tenants_damaged),
                format!("{}/{}", r.survivability_violations, r.survivability_checks),
                format!("{:.3}", r.worst_survival),
                format!("{}/{}", r.repair_failures, r.repairs),
                format!("{:.2}", r.repair.quantile_us(0.99).unwrap_or(0.0) / 1000.0),
                format!("{:.1}", r.violation_seconds),
            ]
        })
        .collect();
    print_table(
        "Fault injection & recovery (ToR kills / server kills / link degrades mid-churn)",
        &[
            "placer",
            "kills (domain/server/degrade)",
            "VMs lost",
            "evicted/damaged",
            "Eq.7 violations/checks",
            "worst survival",
            "repair fail/ok",
            "repair p99 (ms)",
            "violation-secs",
        ],
        &fault_table,
    );

    // ------------------------------------------------------------------
    // Datacenter traffic engine: every live tenant's flows routed over the
    // physical tree and solved as one shared max-min network, stepped
    // through the churn — TAG-patched enforcement vs the hose baseline.
    // ------------------------------------------------------------------
    let traffic = traffic_bench(quick, full, &pool);
    let traffic_table: Vec<Vec<String>> = traffic
        .iter()
        .map(|t| {
            let r = &t.report;
            let expand = r.phase_latencies(|s| s.expand_secs);
            let route = r.phase_latencies(|s| s.route_secs);
            let solve = r.solve_latencies();
            let score = r.phase_latencies(|s| s.score_secs);
            let step = r.step_latencies();
            vec![
                t.servers.to_string(),
                format!("{:?}", r.model),
                format!("{}x", t.ecmp_ways),
                r.steps.len().to_string(),
                r.flows_max().to_string(),
                format!("{:.2}", expand.quantile_us(0.99).unwrap_or(0.0) / 1000.0),
                format!("{:.2}", route.quantile_us(0.99).unwrap_or(0.0) / 1000.0),
                format!("{:.2}", solve.quantile_us(0.99).unwrap_or(0.0) / 1000.0),
                format!("{:.2}", score.quantile_us(0.99).unwrap_or(0.0) / 1000.0),
                format!("{:.2}", step.quantile_us(0.99).unwrap_or(0.0) / 1000.0),
                format!(
                    "{:.1}/{}",
                    r.components_dirty_mean(),
                    r.components_total_last()
                ),
                r.violations_total().to_string(),
                format!("{}/{}", r.work_conserving_steps(), r.steps.len()),
            ]
        })
        .collect();
    print_table(
        "Datacenter traffic (incremental engine; p99 per phase, ms)",
        &[
            "servers",
            "model",
            "ecmp",
            "steps",
            "flows (max)",
            "expand",
            "route",
            "solve",
            "score",
            "step",
            "comps (dirty/total)",
            "violations",
            "work-conserving",
        ],
        &traffic_table,
    );

    // ------------------------------------------------------------------
    // Model checking: exhaustive 2-worker schedule exploration of the
    // concurrent engine under the cm-race sync shim — state-space size
    // and schedules/sec as tracked quantities.
    // ------------------------------------------------------------------
    let model_check = model_check_bench(quick);
    let model_check_table: Vec<Vec<String>> = model_check
        .iter()
        .map(|m| {
            let r = &m.report;
            vec![
                r.scenario.clone(),
                r.workers.to_string(),
                r.schedules.to_string(),
                r.pruned.to_string(),
                r.max_depth.to_string(),
                if r.complete { "yes" } else { "NO" }.to_string(),
                r.findings.len().to_string(),
                format!("{:.0}", m.schedules_per_sec()),
            ]
        })
        .collect();
    print_table(
        "Model checking (cm-race exhaustive DFS, 2 workers)",
        &[
            "scenario",
            "workers",
            "schedules",
            "pruned",
            "max depth",
            "complete",
            "findings",
            "schedules/sec",
        ],
        &model_check_table,
    );

    // ------------------------------------------------------------------
    // BENCH_placement.json
    // ------------------------------------------------------------------
    let mut json = String::new();
    let mode = if quick {
        "quick"
    } else if full {
        "full"
    } else {
        "default"
    };
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"bench_admission\",");
    let _ = writeln!(json, "  \"mode\": \"{mode}\",");
    let _ = writeln!(json, "  \"datacenter\": \"paper_2048_servers\",");
    let _ = writeln!(json, "  \"pool\": \"bing_like_seed42\",");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"placer\": \"{}\", \"arrivals\": {}, \"admitted\": {}, \
             \"wall_secs\": {:.4}, \"arrivals_per_sec\": {:.1}, \
             \"admit_secs\": {:.4}, \"p50_us\": {:.2}, \"p99_us\": {:.2}}}{comma}",
            r.name,
            r.arrivals,
            r.admitted,
            r.wall_secs,
            r.arrivals_per_sec(),
            r.admit_secs,
            r.p50_us,
            r.p99_us,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"thread_scaling\": {{");
    let _ = writeln!(json, "    \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(
        json,
        "    \"note\": \"sharded concurrent engine (pod shards, sequence-numbered optimistic commits) over a pre-generated schedule; decisions are identical to the serial engine at every thread count. Scaling beyond 1x requires hardware_threads > 1.\","
    );
    let _ = writeln!(json, "    \"entries\": [");
    for (i, r) in scaling.iter().enumerate() {
        let base = scaling
            .iter()
            .find(|b| b.placer == r.placer && b.threads == 1)
            .expect("1-thread baseline recorded");
        let comma = if i + 1 < scaling.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"placer\": \"{}\", \"threads\": {}, \"arrivals\": {}, \
             \"wall_secs\": {:.4}, \"arrivals_per_sec\": {:.1}, \
             \"speedup_vs_1_thread\": {:.2}}}{comma}",
            r.placer,
            r.threads,
            r.arrivals,
            r.wall_secs,
            r.arrivals as f64 / r.wall_secs,
            base.wall_secs / r.wall_secs,
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"lifecycle_churn\": {{");
    let _ = writeln!(
        json,
        "    \"note\": \"autoscaling churn over the Cluster lifecycle controller: steady-state admits with 2 scale-out/scale-in cycles per arrival and periodic migrations; CM scales exact-incrementally (only delta VMs move), baselines re-place wholesale under a snapshot\","
    );
    let _ = writeln!(json, "    \"entries\": [");
    for (i, r) in churn.iter().enumerate() {
        let comma = if i + 1 < churn.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"placer\": \"{}\", \"admits_attempted\": {}, \"admitted\": {}, \
             \"scale_ops\": {}, \"scale_rejected\": {}, \"migrates\": {}, \"departs\": {}, \
             \"wall_secs\": {:.4}, \"ops_per_sec\": {:.1}, \
             \"admit_p50_us\": {:.2}, \"admit_p99_us\": {:.2}, \
             \"scale_p50_us\": {:.2}, \"scale_p99_us\": {:.2}, \
             \"depart_p99_us\": {:.2}}}{comma}",
            r.placer,
            r.admits_attempted,
            r.admitted,
            r.scale_ops,
            r.scale_rejected,
            r.migrates,
            r.departs,
            r.wall_secs,
            r.ops_per_sec(),
            r.admit.quantile_us(0.5).unwrap_or(0.0),
            r.admit.quantile_us(0.99).unwrap_or(0.0),
            r.scale.quantile_us(0.5).unwrap_or(0.0),
            r.scale.quantile_us(0.99).unwrap_or(0.0),
            r.depart.quantile_us(0.99).unwrap_or(0.0),
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fault_recovery\": {{");
    let _ = writeln!(
        json,
        "    \"note\": \"lifecycle churn with a rotating fault schedule (ToR-level domain kill, single-server kill, 50% link degrade) injected every few arrivals and repaired a few arrivals later; every domain kill is judged per damaged tier against the paper's Eq. 7 bound (a tier of n VMs admitted at rwcs may lose at most max(1, floor(n*(1-rwcs))) VMs to one domain) — CM+HA enforces the bound at admission and must record zero survivability_violations, plain CM is judged against the same bound it never enforced; violation_seconds sums traffic-guarantee violations measured by the fluid solve over degraded arrivals at one arrival per second; repair latency covers the topology restore plus every tenant re-placement it triggered\","
    );
    let _ = writeln!(json, "    \"entries\": [");
    for (i, r) in faults.iter().enumerate() {
        let comma = if i + 1 < faults.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"placer\": \"{}\", \"admitted\": {}, \"departs\": {}, \
             \"domain_kills\": {}, \"server_kills\": {}, \"degrades\": {}, \
             \"vms_lost\": {}, \"tenants_damaged\": {}, \"tenants_evicted\": {}, \
             \"survivability_checks\": {}, \"survivability_violations\": {}, \
             \"worst_survival\": {:.4}, \"repairs\": {}, \"repair_failures\": {}, \
             \"repair_p50_ms\": {:.3}, \"repair_p99_ms\": {:.3}, \
             \"degraded_arrivals\": {}, \"violation_seconds\": {:.1}, \
             \"wall_secs\": {:.4}}}{comma}",
            r.churn.placer,
            r.churn.admitted,
            r.churn.departs,
            r.domain_kills,
            r.server_kills,
            r.degrades,
            r.vms_lost,
            r.tenants_damaged,
            r.tenants_evicted,
            r.survivability_checks,
            r.survivability_violations,
            r.worst_survival,
            r.repairs,
            r.repair_failures,
            r.repair.quantile_us(0.5).unwrap_or(0.0) / 1000.0,
            r.repair.quantile_us(0.99).unwrap_or(0.0) / 1000.0,
            r.degraded_arrivals,
            r.violation_seconds,
            r.churn.wall_secs,
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"traffic\": {{");
    let _ = writeln!(
        json,
        "    \"note\": \"incremental traffic engine stepped through lifecycle churn: dirty tenants re-expand their TAG edges into bundled flows kept live in a persistent fluid network (expand), one component-scoped guarantee-weighted max-min solve over only the churn-dirty connected components, warm-started from the previous step's per-link water levels with a verified cold fallback (solve = solve_cold + solve_warm), achieved rates scored against TAG intents (score); *_p99_ms are per-phase p99s, step_p99_ms the whole engine step; components_dirty_mean / components_total gauge how much of the graph each step re-solves; ecmp_*_utilization is the residual hash imbalance over ECMP core sub-links; violations count pairs whose achieved rate falls below the TAG-intended guarantee\","
    );
    let _ = writeln!(json, "    \"entries\": [");
    for (i, t) in traffic.iter().enumerate() {
        let r = &t.report;
        let expand = r.phase_latencies(|s| s.expand_secs);
        let route = r.phase_latencies(|s| s.route_secs);
        let solve = r.solve_latencies();
        let score = r.phase_latencies(|s| s.score_secs);
        let step = r.step_latencies();
        let comma = if i + 1 < traffic.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"placer\": \"{}\", \"servers\": {}, \"ecmp_ways\": {}, \
             \"model\": \"{:?}\", \"steps\": {}, \
             \"flows_mean\": {:.1}, \"flows_max\": {}, \
             \"expand_p99_ms\": {:.3}, \"route_p99_ms\": {:.3}, \
             \"solve_p50_ms\": {:.3}, \"solve_p99_ms\": {:.3}, \
             \"solve_cold_p99_ms\": {:.3}, \"solve_warm_p99_ms\": {:.3}, \
             \"components_dirty_mean\": {:.1}, \"components_total\": {}, \
             \"score_p99_ms\": {:.3}, \"step_p99_ms\": {:.3}, \
             \"ecmp_max_utilization\": {:.4}, \"ecmp_mean_utilization\": {:.4}, \
             \"violations\": {}, \"violating_tenants_max\": {}, \
             \"work_conserving_steps\": {}, \"max_link_utilization\": {:.4}}}{comma}",
            r.churn.placer,
            t.servers,
            t.ecmp_ways,
            r.model,
            r.steps.len(),
            r.flows_mean(),
            r.flows_max(),
            expand.quantile_us(0.99).unwrap_or(0.0) / 1000.0,
            route.quantile_us(0.99).unwrap_or(0.0) / 1000.0,
            solve.quantile_us(0.5).unwrap_or(0.0) / 1000.0,
            solve.quantile_us(0.99).unwrap_or(0.0) / 1000.0,
            r.phase_latencies(|s| s.solve_cold_secs)
                .quantile_us(0.99)
                .unwrap_or(0.0)
                / 1000.0,
            r.phase_latencies(|s| s.solve_warm_secs)
                .quantile_us(0.99)
                .unwrap_or(0.0)
                / 1000.0,
            r.components_dirty_mean(),
            r.components_total_last(),
            score.quantile_us(0.99).unwrap_or(0.0) / 1000.0,
            step.quantile_us(0.99).unwrap_or(0.0) / 1000.0,
            r.ecmp_max_utilization(),
            r.ecmp_mean_utilization(),
            r.violations_total(),
            r.steps
                .iter()
                .map(|s| s.violating_tenants)
                .max()
                .unwrap_or(0),
            r.work_conserving_steps(),
            r.steps
                .iter()
                .map(|s| s.max_link_utilization)
                .fold(0.0, f64::max),
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"model_check\": {{");
    let _ = writeln!(
        json,
        "    \"note\": \"cm-race exhaustive DFS with sleep-set pruning over every expect-clean scenario at 2 workers (--quick keeps the two cheapest state spaces); every schedule is checked for serial equivalence, delta-log replay convergence, and topology invariants. schedules counts fully executed interleavings, pruned the sleep-set abandonments; schedules_per_sec is the tracked throughput. A shift in the schedule counts means the sync shim's yield-point structure changed — re-explore before trusting pinned replay ids.\","
    );
    let _ = writeln!(json, "    \"entries\": [");
    for (i, m) in model_check.iter().enumerate() {
        let r = &m.report;
        let comma = if i + 1 < model_check.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"scenario\": \"{}\", \"workers\": {}, \"schedules\": {}, \
             \"pruned\": {}, \"max_depth\": {}, \"complete\": {}, \
             \"findings\": {}, \"wall_secs\": {:.4}, \"schedules_per_sec\": {:.1}}}{comma}",
            r.scenario,
            r.workers,
            r.schedules,
            r.pruned,
            r.max_depth,
            r.complete,
            r.findings.len(),
            m.wall_secs,
            m.schedules_per_sec(),
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"speedup_vs_linear_reference\": {:.2},",
        cm.arrivals_per_sec() / cm_ref.arrivals_per_sec()
    );
    match (baseline, baseline_cm) {
        (Some(baseline), Some(base)) => {
            let _ = writeln!(
                json,
                "  \"speedup_vs_pre_change\": {:.2},",
                cm.arrivals_per_sec() / base
            );
            let _ = writeln!(json, "  \"pre_change_baseline\": {{");
            let _ = writeln!(
                json,
                "    \"note\": \"arrivals/sec measured with this harness at the commit before the descend-search + allocation-free hot path (same machine, same pool, same arrival count)\","
            );
            for (i, (n, v)) in baseline.iter().enumerate() {
                let comma = if i + 1 < baseline.len() { "," } else { "" };
                let _ = writeln!(json, "    \"{n}\": {v:.1}{comma}");
            }
            let _ = writeln!(json, "  }}");
        }
        _ => {
            let _ = writeln!(json, "  \"speedup_vs_pre_change\": null,");
            let _ = writeln!(json, "  \"pre_change_baseline\": null");
        }
    }
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_placement.json", &json).expect("write BENCH_placement.json");
    println!("\nWrote BENCH_placement.json");
}
