//! # cm-bench
//!
//! Reproduction harness for the paper's evaluation (§5).
//!
//! [`figures`] holds every table and figure as a registry entry that
//! prints its tables and checks its own claims; the `reproduce` binary
//! runs them in-process and exits non-zero when a claim fails. `--full`
//! runs at the paper's scale (10,000 arrivals) instead of the faster
//! default; `--only NAME` runs one entry. All runs are seeded and
//! deterministic.
//!
//! The library also carries everything `bench_admission` shares with its
//! tests: the [`Section`] writer that renders one row description as both
//! the stdout table and `BENCH_placement.json`, the workloads behind the
//! artifact's sections, and the gates the binary fails on. Every number
//! in the artifact is a decision or a deterministic work count, never a
//! clock reading, so the committed file is a golden that a fresh run
//! reproduces byte for byte; wall-clock time is measured by the standalone
//! `benchmark/` package.

pub mod figures;

use cm_baselines::{OktopusVcPlacer, OvocPlacer, SecondNetPlacer};
use cm_core::placement::{CmConfig, CmPlacer, HaPolicy, Placer, SearchCounters};
use cm_enforce::GuaranteeModel;
use cm_sim::faults::{run_churn_faults, FaultChurnConfig, FaultChurnReport};
use cm_sim::lifecycle::{run_churn, ChurnConfig, ChurnReport};
use cm_sim::traffic::{run_churn_traffic, TrafficChurnConfig, TrafficChurnReport};
use cm_sim::{run_sim, SimConfig};
use cm_topology::{gbps, TreeSpec};
use cm_workloads::TenantPool;
use std::fmt::{Debug, Write as _};

/// Render a markdown-ish table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |cells: &[String]| {
        let body: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        format!("| {} |\n", body.join(" | "))
    };
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
    let mut out = format!("\n## {title}\n\n");
    out += &line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    out += &format!("|{}|\n", rule.join("|"));
    for r in rows {
        out += &line(r);
    }
    out
}

// ----------------------------------------------------------------------
// One row description → stdout table and JSON
// ----------------------------------------------------------------------

/// One field value of a benchmark row. `Float` carries the decimals both
/// renderings print, so table and JSON can never round differently.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// A string (JSON-escaped on output).
    Str(String),
    /// A count.
    Int(u64),
    /// A measurement and its printed decimals.
    Float(f64, usize),
}

impl From<usize> for Val {
    fn from(n: usize) -> Val {
        Val::Int(n as u64)
    }
}

impl From<&str> for Val {
    fn from(s: &str) -> Val {
        Val::Str(s.to_string())
    }
}

impl Val {
    fn cell(&self) -> String {
        match self {
            Val::Str(s) => s.clone(),
            Val::Int(n) => n.to_string(),
            Val::Float(x, decimals) => format!("{x:.decimals$}"),
        }
    }

    fn json(&self) -> String {
        match self {
            Val::Str(s) => json_str(s),
            other => other.cell(),
        }
    }
}

/// Escape a string as a JSON string literal (hand-rolled — no serde in
/// the offline container).
fn json_str(s: &str) -> String {
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

/// Named values in output order: a row, or a report's scalar fields.
pub type Fields = Vec<(&'static str, Val)>;

fn json_object(fields: &Fields) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), v.json()))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One section of a benchmark report, described once: [`Section::print`]
/// and [`Section::write_json`] both render `rows`, so a key is spelled in
/// exactly one place and the table's column headers *are* the JSON keys.
#[derive(Debug, Clone)]
pub struct Section {
    /// JSON key of the section.
    pub key: &'static str,
    /// Table title.
    pub title: &'static str,
    /// `Some`: the JSON is `{"note", "entries": rows}`; `None`: the bare
    /// array of rows.
    pub note: Option<&'static str>,
    /// One entry per measured configuration, all with the same keys.
    pub rows: Vec<Fields>,
}

impl Section {
    /// The stdout table: the title, then one column per key.
    pub fn table(&self) -> String {
        let keys: Vec<&str> = self
            .rows
            .first()
            .map_or(Vec::new(), |r| r.iter().map(|(k, _)| *k).collect());
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|(_, v)| v.cell()).collect())
            .collect();
        render_table(self.title, &keys, &cells)
    }

    /// Print [`Section::table`].
    pub fn print(&self) {
        print!("{}", self.table());
    }

    /// Append `"key": …` (two-space indent, no trailing comma or newline).
    pub fn write_json(&self, out: &mut String) {
        let array = |pad: &str| {
            if self.rows.is_empty() {
                return "[]".to_string();
            }
            let lines: Vec<String> = self
                .rows
                .iter()
                .map(|r| format!("{pad}  {}", json_object(r)))
                .collect();
            format!("[\n{}\n{pad}]", lines.join(",\n"))
        };
        let _ = write!(out, "  {}: ", json_str(self.key));
        let Some(note) = self.note else {
            out.push_str(&array("  "));
            return;
        };
        let _ = writeln!(out, "{{\n    \"note\": {},", json_str(note));
        let _ = write!(out, "    \"entries\": {}\n  }}", array("    "));
    }
}

/// A whole report: `head` scalars, then every section, as one JSON object.
pub fn report_json(head: &Fields, sections: &[Section]) -> String {
    let mut out = String::from("{\n");
    for (k, v) in head {
        let _ = writeln!(out, "  {}: {},", json_str(k), v.json());
    }
    for (i, s) in sections.iter().enumerate() {
        s.write_json(&mut out);
        out.push_str(if i + 1 < sections.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

// ----------------------------------------------------------------------
// bench_admission: the workloads behind BENCH_placement.json's sections
// ----------------------------------------------------------------------

/// `bench_admission`'s run size: the paper's 10,000 arrivals, which the
/// binary always runs, or a small run for the gate tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// 300 arrivals.
    Quick,
    /// The paper's 10,000 arrivals.
    Full,
}

impl Size {
    fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Size::Quick => quick,
            Size::Full => full,
        }
    }

    /// The paper-default simulation at this size's arrival count.
    fn sim_config(self) -> SimConfig {
        SimConfig {
            arrivals: self.pick(300, 10_000),
            ..SimConfig::paper_default()
        }
    }

    /// Tenants of the churn and fault workloads.
    fn churn_config(self) -> ChurnConfig {
        ChurnConfig {
            tenants: self.pick(80, 1_200),
            ..ChurnConfig::paper_default()
        }
    }
}

/// One placer's serial admission run (the `results` section).
pub struct BenchRow {
    /// Placer label, as the report prints it.
    pub name: &'static str,
    /// Tenant arrivals offered.
    pub arrivals: usize,
    /// Arrivals the placer admitted.
    pub admitted: usize,
    /// The placer's work counters over the run; CloudMirror placers only.
    pub counters: Option<SearchCounters>,
}

/// Run `cfg` once; `counters` reads the placer's work counters after it.
fn bench_one<P: Placer>(
    mut placer: P,
    cfg: &SimConfig,
    pool: &TenantPool,
    counters: fn(&P) -> Option<SearchCounters>,
) -> BenchRow {
    let res = run_sim(cfg, pool, &mut placer);
    BenchRow {
        name: res.algo,
        arrivals: cfg.arrivals,
        admitted: res.rejections.arrivals - res.rejections.rejected_tenants,
        counters: counters(&placer),
    }
}

fn cm_counters(p: &CmPlacer) -> Option<SearchCounters> {
    Some(p.counters().clone())
}

/// The paper-default simulation per placer: CM first, then the two
/// ablations and the three baselines. SecondNet, orders of magnitude
/// slower (paper §5.1), gets a twentieth of the arrivals.
pub fn admission_results(size: Size, pool: &TenantPool) -> Vec<BenchRow> {
    let cfg = size.sim_config();
    let secondnet_cfg = SimConfig {
        arrivals: (cfg.arrivals / 20).max(50),
        ..cfg.clone()
    };
    let cm = CmPlacer::new;
    vec![
        bench_one(cm(CmConfig::cm()), &cfg, pool, cm_counters),
        bench_one(cm(CmConfig::coloc_only()), &cfg, pool, cm_counters),
        bench_one(cm(CmConfig::balance_only()), &cfg, pool, cm_counters),
        bench_one(OvocPlacer::new(), &cfg, pool, |_| None),
        bench_one(OktopusVcPlacer::new(), &cfg, pool, |_| None),
        bench_one(SecondNetPlacer::new(), &secondnet_cfg, pool, |_| None),
    ]
}

/// The autoscaling-churn scenario over the `Cluster` controller: CM scales
/// exact-incrementally, OVOC takes the generic re-place fallback.
pub fn lifecycle_churn(size: Size, pool: &TenantPool) -> Vec<ChurnReport> {
    let cfg = size.churn_config();
    vec![
        run_churn(&cfg, pool, CmPlacer::new(CmConfig::cm())),
        run_churn(&cfg, pool, OvocPlacer::new()),
    ]
}

/// The lifecycle churn under a rotating fault schedule. CM+HA enforces
/// Eq. 7 at the killed level; plain CM is judged against the same bound it
/// never enforced — the gap is what §4.5 buys.
pub fn fault_churn(size: Size, pool: &TenantPool) -> Vec<FaultChurnReport> {
    let cfg = FaultChurnConfig::quick(size.churn_config());
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

/// One traffic run plus the scale it ran at.
pub struct TrafficRun {
    /// Servers in the datacenter the run used.
    pub servers: usize,
    /// The churn run's traffic-step report.
    pub report: TrafficChurnReport,
}

/// Lifecycle churn with periodic traffic-engine steps under CM placements:
/// the paper's datacenter under the TAG patch and under the plain hose
/// baseline (identical placements, different floors), then Tag on
/// fat-trees of 32 pods × `fanout` racks × `fanout` servers — 32k, the
/// scale the incremental engine exists for, and 131k, reachable only
/// because churn re-solves just the components it touched.
pub fn traffic_bench(size: Size, pool: &TenantPool) -> Vec<TrafficRun> {
    let run = |model, fat_tree: Option<u32>| {
        let mut cfg = TrafficChurnConfig::paper_default(model);
        cfg.churn.tenants = size.pick(60, 400);
        cfg.solve_every = size.pick(20, 40);
        if let Some(fanout) = fat_tree {
            cfg.churn.spec = TreeSpec {
                fanout_top_down: vec![32, fanout, fanout],
                uplink_kbps: vec![gbps(10.0), gbps(80.0), gbps(320.0)],
                slots_per_server: 25,
            };
            cfg.churn.target_live = 180;
        }
        TrafficRun {
            servers: cfg.churn.spec.fanout_top_down.iter().product::<u32>() as usize,
            report: run_churn_traffic(&cfg, pool, CmPlacer::new(CmConfig::cm())),
        }
    };
    vec![
        run(GuaranteeModel::Tag, None),
        run(GuaranteeModel::Hose, None),
        run(GuaranteeModel::Tag, Some(32)),
        run(GuaranteeModel::Tag, Some(64)),
    ]
}

// ----------------------------------------------------------------------
// bench_admission: machine-independent gates over the typed reports
// ----------------------------------------------------------------------

/// Record "`<at>`: `<condition>` does not hold" in `$bad` unless it does;
/// the condition's own text names the field.
macro_rules! check {
    ($bad:expr, $at:expr, $holds:expr) => {
        let holds: bool = $holds;
        if !holds {
            let condition = stringify!($holds);
            $bad.push(format!("{}: `{condition}` does not hold", $at));
        }
    };
}

/// Record every member of `want` that `got` lacks.
fn check_covers<T: PartialEq + Debug>(bad: &mut Vec<String>, at: &str, got: &[T], want: &[T]) {
    for missing in want.iter().filter(|w| !got.contains(w)) {
        bad.push(format!("{at} lacks {missing:?}"));
    }
}

/// `Err` listing every recorded violation, one per line.
fn verdict(bad: Vec<String>) -> Result<(), String> {
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}

/// `results` is non-empty, and no CloudMirror placer staged a `Colocate`
/// group on a server only to roll it back on that server's uplink (the
/// pre-check decides those without staging).
pub fn gate_admission(results: &[BenchRow]) -> Result<(), String> {
    let mut bad = Vec::new();
    check!(bad, "results", !results.is_empty());
    for r in results {
        if let Some(c) = &r.counters {
            let at = format!("results[{}]", r.name);
            check!(bad, at, c.coloc_server_rollbacks == 0);
        }
    }
    verdict(bad)
}

/// Every churn drains, for CM and OVOC at least.
pub fn gate_churn(churn: &[ChurnReport]) -> Result<(), String> {
    let mut bad = Vec::new();
    let placers: Vec<&str> = churn.iter().map(|r| r.placer).collect();
    check_covers(
        &mut bad,
        "lifecycle_churn placers",
        &placers,
        &["CM", "OVOC"],
    );
    for r in churn {
        check!(
            bad,
            format!("lifecycle_churn[{}]", r.placer),
            r.departs == r.admitted
        );
    }
    verdict(bad)
}

/// Every fault schedule kills domains and repairs every fault; CM+HA
/// (Eq. 7 enforced at the killed level) measures zero survivability
/// violations where plain CM measurably breaks the bound it never enforced.
pub fn gate_faults(faults: &[FaultChurnReport]) -> Result<(), String> {
    let mut bad = Vec::new();
    let placers: Vec<&str> = faults.iter().map(|r| r.churn.placer).collect();
    check_covers(
        &mut bad,
        "fault_recovery placers",
        &placers,
        &["CM", "CM+HA"],
    );
    for r in faults {
        let at = format!("fault_recovery[{}]", r.churn.placer);
        check!(bad, at, r.domain_kills >= 1);
        check!(
            bad,
            at,
            r.repairs == r.domain_kills + r.server_kills + r.degrades
        );
        if r.churn.placer == "CM+HA" {
            check!(bad, at, r.survivability_checks >= 1);
            check!(bad, at, r.survivability_violations == 0);
        } else {
            check!(bad, at, r.survivability_violations > 0);
        }
    }
    verdict(bad)
}

/// Both models and all three scales ran; every run steps, carries flows,
/// is work-conserving throughout and re-solves at most the components that
/// exist; `Tag` runs (floors reserved by admission) hold every intent.
pub fn gate_traffic(traffic: &[TrafficRun]) -> Result<(), String> {
    let mut bad = Vec::new();
    let models: Vec<GuaranteeModel> = traffic.iter().map(|t| t.report.model).collect();
    let servers: Vec<usize> = traffic.iter().map(|t| t.servers).collect();
    let both = [GuaranteeModel::Tag, GuaranteeModel::Hose];
    check_covers(&mut bad, "traffic models", &models, &both);
    check_covers(
        &mut bad,
        "traffic servers",
        &servers,
        &[2048, 32_768, 131_072],
    );
    for t in traffic {
        let r = &t.report;
        let at = format!("traffic[{} {:?}]", t.servers, r.model);
        let components_total = r.components_total_last();
        check!(bad, at, !r.steps.is_empty());
        check!(bad, at, r.flows_max() >= 1);
        check!(bad, at, r.work_conserving_steps() == r.steps.len());
        check!(bad, at, components_total >= 1);
        check!(
            bad,
            at,
            r.components_dirty_mean() <= components_total as f64
        );
        check!(
            bad,
            at,
            r.model != GuaranteeModel::Tag || r.violations_total() == 0
        );
    }
    verdict(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Section {
        let row = vec![
            ("name", "a\"b\\c\n\u{1}".into()),
            ("count", 3.into()),
            ("ratio", Val::Float(2.0 / 3.0, 3)),
        ];
        Section {
            key: "demo",
            title: "Demo",
            note: Some("a \"note\""),
            rows: vec![row],
        }
    }

    #[test]
    fn json_escapes_strings_and_renders_every_value_kind() {
        let empty = |key, note| Section {
            key,
            note,
            rows: vec![],
            ..demo()
        };
        let sections = [empty("bare", None), demo(), empty("empty", Some(""))];
        let golden = r#"{
  "benchmark": "demo",
  "bare": [],
  "demo": {
    "note": "a \"note\"",
    "entries": [
      {"name": "a\"b\\c\n\u0001", "count": 3, "ratio": 0.667}
    ]
  },
  "empty": {
    "note": "",
    "entries": []
  }
}
"#;
        let head = vec![("benchmark", "demo".into())];
        assert_eq!(report_json(&head, &sections), golden);
    }

    #[test]
    fn table_columns_are_the_json_keys_in_order() {
        let section = demo();
        let table = section.table();
        let header = table.lines().nth(3).expect("title, blank, then the header");
        let columns: Vec<&str> = header.split('|').map(str::trim).collect();
        let keys: Vec<&str> = section.rows[0].iter().map(|(k, _)| *k).collect();
        assert_eq!(columns[1..columns.len() - 1], keys[..]);

        let mut json = String::new();
        section.write_json(&mut json);
        let mut rest = json.as_str();
        for key in keys {
            let at = rest
                .find(&format!("\"{key}\": "))
                .expect("key after its predecessor");
            rest = &rest[at + 1..];
        }
    }

    #[test]
    fn gates_pass_quick_reports_and_name_the_doctored_field() {
        let violated = |gate: &str| Err(format!("{gate}` does not hold"));
        let pool = cm_workloads::bing_like_pool(42);

        let results = admission_results(Size::Quick, &pool);
        assert_eq!(gate_admission(&results), Ok(()));
        assert_eq!(
            gate_admission(&[]),
            violated("results: `!results.is_empty()")
        );
        let mut doctored = admission_results(Size::Quick, &pool);
        doctored[0]
            .counters
            .as_mut()
            .expect("CM counts its work")
            .coloc_server_rollbacks = 1;
        assert_eq!(
            gate_admission(&doctored),
            violated("results[CM]: `c.coloc_server_rollbacks == 0")
        );

        // Two violations: both are listed, in report order.
        let mut churn = lifecycle_churn(Size::Quick, &pool);
        assert_eq!(gate_churn(&churn), Ok(()));
        churn[0].departs -= 1;
        churn[1].departs -= 1;
        let drained = "lifecycle_churn[CM]: `r.departs == r.admitted` does not hold\n\
                       lifecycle_churn[OVOC]: `r.departs == r.admitted";
        assert_eq!(gate_churn(&churn), violated(drained));

        let mut faults = fault_churn(Size::Quick, &pool);
        assert_eq!(gate_faults(&faults), Ok(()));
        faults[1].survivability_violations = 1;
        let survives = violated("fault_recovery[CM+HA]: `r.survivability_violations == 0");
        assert_eq!(gate_faults(&faults), survives);

        let mut traffic = traffic_bench(Size::Quick, &pool);
        assert_eq!(gate_traffic(&traffic), Ok(()));
        traffic[3].report.steps[0].work_conserving = false;
        let conserves = "traffic[131072 Tag]: `r.work_conserving_steps() == r.steps.len()";
        assert_eq!(gate_traffic(&traffic), violated(conserves));
    }
}
