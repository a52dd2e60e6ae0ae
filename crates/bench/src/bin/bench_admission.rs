//! Admission macro-benchmark: run the paper-default simulation for every
//! placer, then the thread-scaling, lifecycle-churn, fault-recovery,
//! traffic-engine and model-checking workloads, and record all six as
//! sections of `BENCH_placement.json` (written to the working directory) —
//! the workspace's performance trajectory artifact.
//!
//! Every number is regenerated in this run next to its baseline: beside
//! the six production placers, `results` carries CloudMirror on the
//! pre-descend **linear-scan reference** search
//! ([`SearchStrategy::LinearReference`](cm_core::placement::SearchStrategy)),
//! and `speedup_vs_linear_reference` is the ratio of the two rows.
//! Parent-vs-change wall-clock is not judged here but by `benchmark/`,
//! which runs both commits side by side.
//!
//! Each section below is described once, as rows of `(key, value)`; the
//! stdout table and the JSON are both rendered from those rows
//! ([`Section`]). After the JSON is written the binary gates itself on the
//! machine-independent facts of the run (`cm_bench::gate_*`: drained
//! churns, zero CM+HA survivability violations, work-conserving traffic
//! steps, exhausted clean state spaces, …) and exits non-zero listing
//! every violated gate.
//!
//! Modes: default 2,000 arrivals; `--full` the paper's 10,000; `--quick`
//! a 300-arrival CI smoke run. `--threads N` (N > 4) extends the 1/2/4
//! thread-scaling curve.

use cm_bench::{
    admission_results, fault_churn, gate_admission, gate_churn, gate_faults, gate_model_check,
    gate_traffic, lifecycle_churn, model_check_bench, report_json, thread_scaling, traffic_bench,
    BenchRow, Fields, ModelCheckRun, ScalingRow, Section, Size, TrafficRun, Val,
};
use cm_sim::faults::FaultChurnReport;
use cm_sim::lifecycle::ChurnReport;
use cm_sim::metrics::OpLatencies;
use cm_sim::TrafficStep;
use cm_workloads::bing_like_pool;
use std::process::ExitCode;

/// `lat`'s `q`-quantile in µs; `Null` when nothing was sampled.
fn us(lat: &OpLatencies, q: f64) -> Val {
    lat.quantile_us(q).map_or(Val::Null, |us| Val::Float(us, 2))
}

/// `lat`'s `q`-quantile in ms; `Null` when nothing was sampled.
fn ms(lat: &OpLatencies, q: f64) -> Val {
    lat.quantile_us(q)
        .map_or(Val::Null, |us| Val::Float(us / 1000.0, 3))
}

fn result_row(r: &BenchRow) -> Fields {
    vec![
        ("placer", r.name.into()),
        ("arrivals", r.arrivals.into()),
        ("admitted", r.admitted.into()),
        ("wall_secs", Val::Float(r.wall_secs, 4)),
        ("arrivals_per_sec", Val::Float(r.arrivals_per_sec(), 1)),
        ("admit_secs", Val::Float(r.admit.total_secs(), 4)),
        ("p50_us", us(&r.admit, 0.5)),
        ("p99_us", us(&r.admit, 0.99)),
    ]
}

const SCALING_NOTE: &str = "sharded concurrent engine (pod shards, sequence-numbered optimistic \
    commits) over a pre-generated schedule; decisions are identical to the serial engine at every \
    thread count. Scaling beyond 1x requires hardware_threads > 1.";

fn scaling_row(r: &ScalingRow, one_thread: &ScalingRow) -> Fields {
    vec![
        ("placer", r.placer.into()),
        ("threads", r.threads.into()),
        ("arrivals", r.arrivals.into()),
        ("wall_secs", Val::Float(r.wall_secs, 4)),
        (
            "arrivals_per_sec",
            Val::Float(r.arrivals as f64 / r.wall_secs, 1),
        ),
        (
            "speedup_vs_1_thread",
            Val::Float(one_thread.wall_secs / r.wall_secs, 2),
        ),
    ]
}

const CHURN_NOTE: &str = "autoscaling churn over the Cluster lifecycle controller: steady-state \
    admits with 2 scale-out/scale-in cycles per arrival and periodic migrations; CM scales \
    exact-incrementally (only delta VMs move), baselines re-place wholesale under a snapshot";

fn churn_row(r: &ChurnReport) -> Fields {
    vec![
        ("placer", r.placer.into()),
        ("admits_attempted", r.admits_attempted.into()),
        ("admitted", r.admitted.into()),
        ("scale_ops", r.scale_ops.into()),
        ("scale_rejected", r.scale_rejected.into()),
        ("migrates", r.migrates.into()),
        ("departs", r.departs.into()),
        ("wall_secs", Val::Float(r.wall_secs, 4)),
        ("ops_per_sec", Val::Float(r.ops_per_sec(), 1)),
        ("admit_p50_us", us(&r.admit, 0.5)),
        ("admit_p99_us", us(&r.admit, 0.99)),
        ("scale_p50_us", us(&r.scale, 0.5)),
        ("scale_p99_us", us(&r.scale, 0.99)),
        ("depart_p99_us", us(&r.depart, 0.99)),
    ]
}

const FAULTS_NOTE: &str = "lifecycle churn with a rotating fault schedule (ToR-level domain kill, \
    single-server kill, 50% link degrade) injected every few arrivals and repaired a few arrivals \
    later; every domain kill is judged per damaged tier against the paper's Eq. 7 bound (a tier \
    of n VMs admitted at rwcs may lose at most max(1, floor(n*(1-rwcs))) VMs to one domain) — \
    CM+HA enforces the bound at admission and must record zero survivability_violations, plain CM \
    is judged against the same bound it never enforced; violation_seconds sums traffic-guarantee \
    violations measured by the fluid solve over degraded arrivals at one arrival per second; \
    repair latency covers the topology restore plus every tenant re-placement it triggered";

fn fault_row(r: &FaultChurnReport) -> Fields {
    vec![
        ("placer", r.churn.placer.into()),
        ("admitted", r.churn.admitted.into()),
        ("departs", r.churn.departs.into()),
        ("domain_kills", r.domain_kills.into()),
        ("server_kills", r.server_kills.into()),
        ("degrades", r.degrades.into()),
        ("vms_lost", Val::Int(r.vms_lost)),
        ("tenants_damaged", r.tenants_damaged.into()),
        ("tenants_evicted", r.tenants_evicted.into()),
        ("survivability_checks", r.survivability_checks.into()),
        (
            "survivability_violations",
            r.survivability_violations.into(),
        ),
        ("worst_survival", Val::Float(r.worst_survival, 4)),
        ("repairs", r.repairs.into()),
        ("repair_failures", r.repair_failures.into()),
        ("repair_p50_ms", ms(&r.repair, 0.5)),
        ("repair_p99_ms", ms(&r.repair, 0.99)),
        ("degraded_arrivals", r.degraded_arrivals.into()),
        ("violation_seconds", Val::Float(r.violation_seconds, 1)),
        ("wall_secs", Val::Float(r.churn.wall_secs, 4)),
    ]
}

const TRAFFIC_NOTE: &str = "incremental traffic engine stepped through lifecycle churn: dirty \
    tenants re-expand their TAG edges into bundled flows kept live in a persistent fluid network \
    (expand), one component-scoped guarantee-weighted max-min solve over only the churn-dirty \
    connected components, each by the same kernel as the global solve (solve), achieved rates \
    scored against TAG intents (score); *_p99_ms are per-phase p99s, step_p99_ms the whole engine step; \
    components_dirty_mean / components_total gauge how much of the graph each step re-solves, \
    tenants_rescored_mean / links_rescored_mean how much of it each step re-scores (deterministic \
    counts: tenant summaries and per-link usages recomputed; everything else is served from \
    caches); violations count pairs whose achieved rate falls below the TAG-intended guarantee";

fn traffic_row(t: &TrafficRun) -> Fields {
    let r = &t.report;
    let solve = r.solve_latencies();
    let p99 = |phase: fn(&TrafficStep) -> f64| ms(&r.phase_latencies(phase), 0.99);
    let violating = r.steps.iter().map(|s| s.violating_tenants).max();
    let utilization = r.steps.iter().map(|s| s.max_link_utilization);
    vec![
        ("placer", r.churn.placer.into()),
        ("servers", t.servers.into()),
        ("model", Val::Str(format!("{:?}", r.model))),
        ("steps", r.steps.len().into()),
        ("flows_mean", Val::Float(r.flows_mean(), 1)),
        ("flows_max", r.flows_max().into()),
        ("expand_p99_ms", p99(|s| s.expand_secs)),
        ("solve_p50_ms", ms(&solve, 0.5)),
        ("solve_p99_ms", ms(&solve, 0.99)),
        (
            "components_dirty_mean",
            Val::Float(r.components_dirty_mean(), 1),
        ),
        ("components_total", r.components_total_last().into()),
        (
            "tenants_rescored_mean",
            Val::Float(r.tenants_rescored_mean(), 1),
        ),
        (
            "links_rescored_mean",
            Val::Float(r.links_rescored_mean(), 1),
        ),
        ("score_p99_ms", p99(|s| s.score_secs)),
        ("step_p99_ms", ms(&r.step_latencies(), 0.99)),
        ("violations", r.violations_total().into()),
        ("violating_tenants_max", violating.unwrap_or(0).into()),
        ("work_conserving_steps", r.work_conserving_steps().into()),
        (
            "max_link_utilization",
            Val::Float(utilization.fold(0.0, f64::max), 4),
        ),
    ]
}

const MODEL_CHECK_NOTE: &str = "cm-race exhaustive DFS with sleep-set pruning over every \
    expect-clean scenario at 2 workers (--quick keeps the two cheapest state spaces); every \
    schedule is checked for serial equivalence, delta-log replay convergence, and topology \
    invariants. schedules counts fully executed interleavings, pruned the sleep-set abandonments; \
    schedules_per_sec is the tracked throughput. A shift in the schedule counts means the sync \
    shim's yield-point structure changed — re-explore before trusting pinned replay ids.";

fn model_check_row(m: &ModelCheckRun) -> Fields {
    let r = &m.report;
    vec![
        ("scenario", r.scenario.as_str().into()),
        ("workers", r.workers.into()),
        ("schedules", r.schedules.into()),
        ("pruned", r.pruned.into()),
        ("max_depth", r.max_depth.into()),
        ("complete", Val::Bool(r.complete)),
        ("findings", r.findings.len().into()),
        ("wall_secs", Val::Float(m.wall_secs, 4)),
        (
            "schedules_per_sec",
            Val::Float(r.schedules as f64 / m.wall_secs.max(1e-9), 1),
        ),
    ]
}

fn main() -> ExitCode {
    let size = Size::from_args();
    let args: Vec<String> = std::env::args().collect();
    let max_threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4);
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = bing_like_pool(42);

    // Each table prints as soon as its workload finishes (`--full` takes
    // minutes); the JSON is written once, from the same sections.
    let mut sections = Vec::new();
    let mut emit = |section: Section| {
        section.print();
        sections.push(section);
    };

    let results = admission_results(size, &pool);
    emit(Section {
        key: "results",
        title: "Admission throughput (paper datacenter, bing-like pool)",
        note: None,
        head: vec![],
        rows: results.iter().map(result_row).collect(),
    });
    let (cm, cm_ref) = (&results[0], &results[1]);
    let speedup = cm.arrivals_per_sec() / cm_ref.arrivals_per_sec();
    println!(
        "\nCM admission: {:.0} arrivals/s — {speedup:.2}x vs the same-run linear-scan \
         reference ({:.0}/s).",
        cm.arrivals_per_sec(),
        cm_ref.arrivals_per_sec(),
    );

    let scaling = thread_scaling(size, &pool, max_threads);
    let one_thread = |r: &ScalingRow| {
        let base = scaling
            .iter()
            .find(|b| b.placer == r.placer && b.threads == 1);
        base.expect("every curve starts at 1 thread")
    };
    emit(Section {
        key: "thread_scaling",
        title: "Concurrent admission thread scaling (sharded engine)",
        note: Some(SCALING_NOTE),
        head: vec![("hardware_threads", hardware_threads.into())],
        rows: scaling
            .iter()
            .map(|r| scaling_row(r, one_thread(r)))
            .collect(),
    });

    let churn = lifecycle_churn(size, &pool);
    emit(Section {
        key: "lifecycle_churn",
        title: "Lifecycle churn (Cluster: admit / scale ±n / migrate / depart)",
        note: Some(CHURN_NOTE),
        head: vec![],
        rows: churn.iter().map(churn_row).collect(),
    });

    let faults = fault_churn(size, &pool);
    emit(Section {
        key: "fault_recovery",
        title: "Fault injection & recovery (ToR kills / server kills / link degrades mid-churn)",
        note: Some(FAULTS_NOTE),
        head: vec![],
        rows: faults.iter().map(fault_row).collect(),
    });

    let traffic = traffic_bench(size, &pool);
    emit(Section {
        key: "traffic",
        title: "Datacenter traffic (incremental engine stepped through churn)",
        note: Some(TRAFFIC_NOTE),
        head: vec![],
        rows: traffic.iter().map(traffic_row).collect(),
    });

    let model_check = model_check_bench(size);
    emit(Section {
        key: "model_check",
        title: "Model checking (cm-race exhaustive DFS, 2 workers)",
        note: Some(MODEL_CHECK_NOTE),
        head: vec![],
        rows: model_check.iter().map(model_check_row).collect(),
    });

    let head = vec![
        ("benchmark", "bench_admission".into()),
        ("mode", size.name().into()),
        ("datacenter", "paper_2048_servers".into()),
        ("pool", "bing_like_seed42".into()),
        ("speedup_vs_linear_reference", Val::Float(speedup, 2)),
    ];
    std::fs::write("BENCH_placement.json", report_json(&head, &sections))
        .expect("write BENCH_placement.json");
    println!("\nWrote BENCH_placement.json");

    let violated: Vec<String> = [
        gate_admission(&results, &scaling, hardware_threads),
        gate_churn(&churn),
        gate_faults(&faults),
        gate_traffic(&traffic),
        gate_model_check(&model_check),
    ]
    .into_iter()
    .filter_map(Result::err)
    .collect();
    if violated.is_empty() {
        println!("All gates passed.");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_admission: gates violated:\n{}", violated.join("\n"));
        ExitCode::FAILURE
    }
}
