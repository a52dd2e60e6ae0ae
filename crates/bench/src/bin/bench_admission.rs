//! Admission cost golden: run the paper-default simulation (10,000
//! arrivals) for every placer, with the CloudMirror placers' work
//! counters, then the lifecycle-churn, fault-recovery and traffic-engine
//! workloads, and record all five as sections of `BENCH_placement.json`,
//! written to the working directory.
//!
//! Every number is a decision or a deterministic work count: no clock is
//! read, so two runs write byte-identical files and the committed file is
//! a golden. CI regenerates it from the repository root and fails on any
//! diff; a change that moves a count updates the file on purpose.
//! Wall-clock time is judged by `benchmark/`, which runs parent and change
//! side by side.
//!
//! Each section below is described once, as rows of `(key, value)`; the
//! stdout table and the JSON are both rendered from those rows
//! ([`Section`]). After the JSON is written the binary gates itself on the
//! facts of the run (`cm_bench::gate_*`: drained churns, zero CM+HA
//! survivability violations, work-conserving traffic steps, …) and exits
//! non-zero listing every violated gate.
//!
//! The binary takes no arguments; any argument prints usage and exits 2.

use cm_bench::{
    admission_results, fault_churn, gate_admission, gate_churn, gate_faults, gate_traffic,
    lifecycle_churn, report_json, traffic_bench, BenchRow, Fields, Section, Size, TrafficRun, Val,
};
use cm_core::placement::LevelCounters;
use cm_sim::faults::FaultChurnReport;
use cm_sim::lifecycle::ChurnReport;
use cm_workloads::bing_like_pool;
use std::process::ExitCode;

const USAGE: &str = "usage: bench_admission\n\
    Takes no arguments. Runs the paper's 10,000 arrivals and writes \
    BENCH_placement.json to the working directory.";

fn result_row(r: &BenchRow) -> Fields {
    vec![
        ("placer", r.name.into()),
        ("arrivals", r.arrivals.into()),
        ("admitted", r.admitted.into()),
    ]
}

const COUNTERS_NOTE: &str = "deterministic work counters of the CloudMirror placers over the \
    same runs as `results`; per-level columns list servers first, joined by '/'. Each level a \
    search visits ends placed, or stopped by slots (no subtree of the level has room) or by \
    bandwidth (descend found no subtree with the path bandwidth, or the attempt's Alloc or its \
    reservation above failed); attempts are the Alloc runs for a whole tenant, allocs every Alloc \
    call at any depth. fills_run counts Balance's greedy fills, groups_built \
    FindTiersToColoc's build_group calls, uplink_prechecked the Colocate groups on a server the \
    closed-form uplink check refused before staging, coloc_server_rollbacks those staged and then \
    rolled back by the server's own uplink sync (gated to 0), memo_hits the Allocs answered by the \
    failure memo, edges_priced the Eq. 1 edge crossings FindTiersToColoc's probes priced (side \
    sums walked plus pair probes' shared-edge corrections; memo and empty-subtree table reads \
    price none)";

fn counters_row(r: &BenchRow) -> Option<Fields> {
    let c = r.counters.as_ref()?;
    let per_level = |f: fn(&LevelCounters) -> u64| {
        let v: Vec<String> = c.levels.iter().map(|l| f(l).to_string()).collect();
        Val::Str(v.join("/"))
    };
    Some(vec![
        ("placer", r.name.into()),
        ("attempts", per_level(|l| l.attempts)),
        ("placed", per_level(|l| l.placed)),
        ("slots", per_level(|l| l.slots)),
        ("bandwidth", per_level(|l| l.bandwidth)),
        ("allocs", per_level(|l| l.allocs)),
        ("fills_run", Val::Int(c.fills_run)),
        ("groups_built", Val::Int(c.groups_built)),
        ("uplink_prechecked", Val::Int(c.uplink_prechecked)),
        ("coloc_server_rollbacks", Val::Int(c.coloc_server_rollbacks)),
        ("memo_hits", Val::Int(c.memo_hits)),
        ("edges_priced", Val::Int(c.edges_priced)),
    ])
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
    ]
}

const FAULTS_NOTE: &str = "lifecycle churn with a rotating fault schedule (ToR-level domain kill, \
    single-server kill, 50% link degrade) injected every few arrivals and repaired a few arrivals \
    later; every domain kill is judged per damaged tier against the paper's Eq. 7 bound (a tier \
    of n VMs admitted at rwcs may lose at most max(1, floor(n*(1-rwcs))) VMs to one domain) — \
    CM+HA enforces the bound at admission and must record zero survivability_violations, plain CM \
    is judged against the same bound it never enforced; violation_seconds sums traffic-guarantee \
    violations measured by the fluid solve over degraded arrivals at one arrival per second";

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
        ("degraded_arrivals", r.degraded_arrivals.into()),
        ("violation_seconds", Val::Float(r.violation_seconds, 1)),
    ]
}

const TRAFFIC_NOTE: &str = "incremental traffic engine stepped through lifecycle churn: dirty \
    tenants re-expand their TAG edges into bundled flows kept live in a persistent fluid network, \
    one component-scoped guarantee-weighted max-min solve runs over only the churn-dirty \
    connected components, each by the same kernel as the global solve, and achieved rates are \
    scored against TAG intents; components_dirty_mean / components_total gauge how much of the \
    graph each step re-solves, tenants_rescored_mean / links_rescored_mean how much of it each \
    step re-scores (deterministic counts: tenant summaries and per-link usages recomputed; \
    everything else is served from caches); fill_rounds_mean counts the max-min filling rounds \
    each step ran, rounds_reused_mean the rounds of the components' last fills it resumed past \
    instead of running, flows_reused_mean the re-solved flows those rounds froze, which kept \
    their rates, and full_solves_mean the components solved from round 0 without a log to \
    resume from (new, split, or phase 1 scaled a floor), and patch_items_mean the path items \
    and row entries the step's component patches, splits and resumed-fill restores visited one \
    at a time (what churned, not what the components hold); violations count pairs whose \
    achieved rate falls below the TAG-intended guarantee";

fn traffic_row(t: &TrafficRun) -> Fields {
    let r = &t.report;
    let violating = r.steps.iter().map(|s| s.violating_tenants).max();
    let utilization = r.steps.iter().map(|s| s.max_link_utilization);
    vec![
        ("placer", r.churn.placer.into()),
        ("servers", t.servers.into()),
        ("model", Val::Str(format!("{:?}", r.model))),
        ("steps", r.steps.len().into()),
        ("flows_mean", Val::Float(r.flows_mean(), 1)),
        ("flows_max", r.flows_max().into()),
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
        ("fill_rounds_mean", Val::Float(r.fill_rounds_mean(), 1)),
        ("rounds_reused_mean", Val::Float(r.rounds_reused_mean(), 1)),
        ("flows_reused_mean", Val::Float(r.flows_reused_mean(), 1)),
        ("full_solves_mean", Val::Float(r.full_solves_mean(), 1)),
        ("patch_items_mean", Val::Float(r.patch_items_mean(), 1)),
        ("violations", r.violations_total().into()),
        ("violating_tenants_max", violating.unwrap_or(0).into()),
        ("work_conserving_steps", r.work_conserving_steps().into()),
        (
            "max_link_utilization",
            Val::Float(utilization.fold(0.0, f64::max), 4),
        ),
    ]
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let size = Size::Full;
    let pool = bing_like_pool(42);

    // Each table prints as soon as its workload finishes; the JSON is
    // written once, from the same sections.
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
        rows: results.iter().map(result_row).collect(),
    });

    emit(Section {
        key: "search_counters",
        title: "Placer work counters (same runs as the admission table)",
        note: Some(COUNTERS_NOTE),
        rows: results.iter().filter_map(counters_row).collect(),
    });

    let churn = lifecycle_churn(size, &pool);
    emit(Section {
        key: "lifecycle_churn",
        title: "Lifecycle churn (Cluster: admit / scale ±n / migrate / depart)",
        note: Some(CHURN_NOTE),
        rows: churn.iter().map(churn_row).collect(),
    });

    let faults = fault_churn(size, &pool);
    emit(Section {
        key: "fault_recovery",
        title: "Fault injection & recovery (ToR kills / server kills / link degrades mid-churn)",
        note: Some(FAULTS_NOTE),
        rows: faults.iter().map(fault_row).collect(),
    });

    let traffic = traffic_bench(size, &pool);
    emit(Section {
        key: "traffic",
        title: "Datacenter traffic (incremental engine stepped through churn)",
        note: Some(TRAFFIC_NOTE),
        rows: traffic.iter().map(traffic_row).collect(),
    });

    let head = vec![
        ("benchmark", "bench_admission".into()),
        ("datacenter", "paper_2048_servers".into()),
        ("pool", "bing_like_seed42".into()),
    ];
    std::fs::write("BENCH_placement.json", report_json(&head, &sections))
        .expect("write BENCH_placement.json");
    println!("\nWrote BENCH_placement.json");

    let violated: Vec<String> = [
        gate_admission(&results),
        gate_churn(&churn),
        gate_faults(&faults),
        gate_traffic(&traffic),
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
