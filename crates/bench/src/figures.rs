//! The paper's evaluation as one registry: Table 1, Figs. 1–13, the §3
//! inference score and the §5.1 runtime, each an entry that builds its
//! tables and checks its own claims.
//!
//! An entry returns a [`Figure`]: the text it prints and the [`Claim`]s it
//! makes. A claim is the paper's sentence next to a predicate over the
//! entry's own numbers. A sentence the numbers contradict because of an
//! open question in the placer carries no predicate: it prints as
//! `unverified` with those numbers, and ROADMAP.md tracks it.

use crate::render_table;
use cm_baselines::{OvocPlacer, SecondNetPlacer};
use cm_core::cut::CutModel;
use cm_core::model::VocModel;
use cm_core::placement::{self, CmConfig, CmPlacer, Placer};
use cm_enforce::{fig13_throughput, fig4_throughput, GuaranteeModel};
use cm_inference::{
    adjusted_mutual_information, feature_similarity, louvain, synthesize_trace, SynthConfig,
};
use cm_sim::experiments::{
    ablation, ha_sweep, sweep_bmax, sweep_load, sweep_oversubscription, Algo, SweepPoint,
};
use cm_sim::metrics::WcsStats;
use cm_sim::{SimConfig, SimResult};
use cm_topology::{kbps_to_mbps, mbps, Topology, TreeSpec};
use cm_workloads::{apps, bing_like_pool, TenantPool};
use std::fmt;
use std::time::Instant;

/// The run size every entry shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMode {
    /// Paper-scale run (10,000 arrivals) instead of the quick 3,000.
    pub full: bool,
}

impl RunMode {
    /// The paper's default simulation at this mode's arrival count.
    fn sim_config(&self) -> SimConfig {
        SimConfig {
            arrivals: if self.full { 10_000 } else { 3_000 },
            ..SimConfig::paper_default()
        }
    }
}

/// The verdict of a claim.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The predicate holds.
    Pass,
    /// The predicate does not hold.
    Fail,
    /// No predicate: the numbers contradict the sentence for a reason
    /// still open. Carries those numbers.
    Unverified(String),
}

/// One sentence of the paper and its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Short name, unique within its figure.
    pub name: &'static str,
    /// The sentence the predicate checks.
    pub sentence: &'static str,
    /// Its verdict.
    pub verdict: Verdict,
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, sentence) = (self.name, self.sentence);
        match &self.verdict {
            Verdict::Pass => write!(f, "[pass] {name}: {sentence}"),
            Verdict::Fail => write!(f, "[FAIL] {name}: {sentence}"),
            Verdict::Unverified(numbers) => {
                write!(f, "[unverified] {name}: {sentence} ({numbers})")
            }
        }
    }
}

/// What one registry entry prints, and the claims it makes.
#[derive(Debug, Clone, Default)]
pub struct Figure {
    text: String,
    claims: Vec<Claim>,
}

impl Figure {
    /// The tables and notes, exactly as printed.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Every claim, in the order the entry made them.
    pub fn claims(&self) -> &[Claim] {
        &self.claims
    }

    fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        self.text += &render_table(title, headers, rows);
    }

    fn line(&mut self, line: &str) {
        self.text += line;
        self.text.push('\n');
    }

    fn claim(&mut self, name: &'static str, sentence: &'static str, holds: bool) {
        let verdict = if holds { Verdict::Pass } else { Verdict::Fail };
        self.claims.push(Claim {
            name,
            sentence,
            verdict,
        });
    }

    fn unverified(&mut self, name: &'static str, sentence: &'static str, numbers: String) {
        let verdict = Verdict::Unverified(numbers);
        self.claims.push(Claim {
            name,
            sentence,
            verdict,
        });
    }
}

/// A registry entry: the name `--only` selects it by, and its builder.
pub type Entry = (&'static str, fn(RunMode) -> Figure);

/// Every entry, in the order `reproduce` runs them.
const REGISTRY: &[Entry] = &[
    ("fig1", fig1),
    ("fig3_fig4_fig6", fig3_fig4_fig6),
    ("table1", table1),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("inference_ami", inference_ami),
    ("runtime", runtime),
];

/// `reproduce`'s command line: `[--full] [--only NAME]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// The run size.
    pub mode: RunMode,
    /// The one entry to run; `None` runs them all.
    pub only: Option<&'static str>,
}

impl Args {
    /// Parse the arguments after the program name. Anything but `--full`
    /// and `--only NAME` with a registered NAME is an error whose text
    /// lists the valid names.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            mode: RunMode { full: false },
            only: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => parsed.mode.full = true,
                "--only" => {
                    let name = args.next().ok_or_else(|| usage("`--only` needs a name"))?;
                    let (known, _) = REGISTRY
                        .iter()
                        .find(|(known, _)| *known == name)
                        .ok_or_else(|| usage(&format!("no figure named `{name}`")))?;
                    parsed.only = Some(known);
                }
                other => return Err(usage(&format!("unknown argument `{other}`"))),
            }
        }
        Ok(parsed)
    }

    /// The entries to run, in registry order.
    pub fn entries(&self) -> impl Iterator<Item = &'static Entry> + '_ {
        REGISTRY
            .iter()
            .filter(|(name, _)| self.only.is_none_or(|only| only == *name))
    }
}

fn usage(problem: &str) -> String {
    let names: Vec<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
    format!(
        "{problem}\nusage: reproduce [--full] [--only NAME]\nNAME is one of: {}",
        names.join(", ")
    )
}

/// Format a rate as a percentage string.
fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Rates as percentages joined by `/`.
fn pcts(xs: &[f64]) -> String {
    xs.iter().map(|&x| pct(x)).collect::<Vec<_>>().join("/")
}

/// Whether `xs` never decreases.
fn non_decreasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] <= w[1])
}

/// Whether `f(a[i], b[i])` holds at every `i`.
fn pairwise(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> bool) -> bool {
    a.iter().zip(b).all(|(&x, &y)| f(x, y))
}

/// `f` of every sweep point's result.
fn of(sweep: &[SweepPoint], f: fn(&SimResult) -> f64) -> Vec<f64> {
    sweep.iter().map(|p| f(&p.result)).collect()
}

fn bw_rate(r: &SimResult) -> f64 {
    r.rejections.bw_rate()
}

/// The lowest worst-case survivability Eq. 7 admits at `rwcs` over the
/// pool's tiers that the WCS statistics measure (size ≥ 2): the least
/// [`placement::wcs_floor`] over their sizes.
fn wcs_floor(rwcs: f64, pool: &TenantPool) -> f64 {
    pool.tenants()
        .iter()
        .flat_map(|tag| tag.placeable_counts())
        .filter(|&n| n >= 2)
        .map(|n| placement::wcs_floor(n, rwcs))
        .fold(1.0, f64::min)
}

// ----------------------------------------------------------------------
// Fig. 1: bandwidth-to-CPU ratios of cloud workloads vs. datacenter
// provisioning
// ----------------------------------------------------------------------

/// A Fig. 1 series point: name, type or level, low and high Mbps/GHz,
/// source.
type Point = (&'static str, &'static str, f64, f64, &'static str);

/// The paper's motivation figure has nothing to simulate: the workload
/// ranges are reconstructed from the benchmark reports it cites ([18–24]),
/// matching the relative ordering in Fig. 1(a): interactive (blue)
/// similar-or-higher than batch (red).
const WORKLOADS: [Point; 10] = [
    (
        "Redis",
        "interactive",
        400.0,
        6000.0,
        "[19] tx/s at 100-1500B",
    ),
    ("VoltDB", "interactive", 300.0, 4500.0, "[20] 877k TPS"),
    ("Vyatta router", "interactive", 800.0, 3000.0, "[21]"),
    ("Ally inspection", "interactive", 300.0, 900.0, "[22]"),
    ("HTTP streaming", "interactive", 200.0, 700.0, "[23]"),
    ("Wikipedia", "interactive", 50.0, 200.0, "[17] WikiBench"),
    (
        "Cassandra",
        "interactive",
        40.0,
        150.0,
        "[24] Netflix on AWS",
    ),
    ("OLTP web", "interactive", 30.0, 120.0, "[12]"),
    ("Hadoop", "batch", 20.0, 90.0, "[18]"),
    ("Hive", "batch", 10.0, 60.0, "[18]"),
];

/// Provisioned BW:CPU at the server / ToR / aggregation levels (Fig.
/// 1(b)), three consecutive points per datacenter: the Facebook
/// datacenter papers [2, 25], the synthetic topology of [4, 18] and ours.
const DATACENTERS: [Point; 9] = [
    ("Facebook DC (server)", "server", 300.0, 500.0, "[2,25]"),
    ("Facebook DC (ToR)", "ToR", 70.0, 130.0, "[2,25]"),
    ("Facebook DC (agg)", "aggregation", 8.0, 16.0, "[2,25]"),
    ("Synthetic DC (server)", "server", 250.0, 400.0, "[4,18]"),
    ("Synthetic DC (ToR)", "ToR", 50.0, 100.0, "[4,18]"),
    ("Synthetic DC (agg)", "aggregation", 6.0, 12.0, "[4,18]"),
    (
        "Paper eval DC (server)",
        "server",
        390.0,
        410.0,
        "TreeSpec::paper_datacenter",
    ),
    (
        "Paper eval DC (ToR)",
        "ToR",
        95.0,
        105.0,
        "derived: 80G / 800 slots",
    ),
    (
        "Paper eval DC (agg)",
        "aggregation",
        11.0,
        14.0,
        "derived: 80G / 6400 slots",
    ),
];

fn rows(pts: &[Point]) -> Vec<Vec<String>> {
    pts.iter()
        .map(|&(name, kind, lo, hi, source)| {
            let (lo, hi) = (format!("{lo:.0}"), format!("{hi:.0}"));
            vec![
                name.to_string(),
                kind.to_string(),
                lo,
                hi,
                source.to_string(),
            ]
        })
        .collect()
}

/// Fig. 1: bandwidth-to-CPU ratio of workloads and of datacenter levels.
fn fig1(_: RunMode) -> Figure {
    let mut fig = Figure::default();
    fig.line("Fig. 1 — bandwidth-to-CPU ratio (Mbps/GHz), log-scale in the paper");
    fig.table(
        "Fig. 1(a): workloads (batch in red, interactive in blue)",
        &["workload", "type", "low", "high", "source"],
        &rows(&WORKLOADS),
    );
    fig.table(
        "Fig. 1(b): datacenter provisioning by level",
        &["datacenter", "level", "low", "high", "source"],
        &rows(&DATACENTERS),
    );

    // A point's `.2` is its low end, `.3` its high end.
    let of_kind = |kind| WORKLOADS.iter().filter(move |p| p.1 == kind);
    let batch_lo = of_kind("batch").map(|p| p.2).fold(0.0, f64::max);
    let batch_hi = of_kind("batch").map(|p| p.3).fold(0.0, f64::max);
    fig.claim(
        "interactive_at_least_batch",
        "interactive demand >= batch: each interactive range starts and ends at or above every \
         batch one's",
        of_kind("interactive").all(|p| p.2 >= batch_lo && p.3 >= batch_hi),
    );
    // [server, ToR, aggregation] of each datacenter.
    let mut levels = DATACENTERS.chunks_exact(3);
    fig.claim(
        "server_level_provisioned",
        "DCs are provisioned at the server level: each covers the batch workloads' highest demand",
        levels.clone().all(|l| l[0].2 >= batch_hi),
    );
    // Only aggregation is 1-2 orders of magnitude short; the ToR sits
    // 2-4x below the server level.
    fig.claim(
        "oversubscribed_above_server",
        "each level provides less than the one below it; aggregation 10-100x less than servers",
        levels.all(|l| {
            l[0].2 > l[1].3 && l[1].2 > l[2].3 && (10.0..=100.0).contains(&(l[0].2 / l[2].3))
        }),
    );
    fig
}

// ----------------------------------------------------------------------
// Figs. 2–6: the paper's motivating examples, regenerated numerically
// ----------------------------------------------------------------------

/// Figs. 2/4 (the three-tier web app: hose over-reservation on a cut and
/// the 300:300 congestion failure vs. TAG's 500:100), Fig. 3 (the Storm
/// app: VOC reserves 2S·B where TAG needs S·B) and Fig. 6 (colocation vs.
/// balanced utilization on a 4-server rack).
fn fig3_fig4_fig6(_: RunMode) -> Figure {
    let mut fig = Figure::default();
    fig2_fig4(&mut fig);
    fig3(&mut fig);
    fig6(&mut fig);
    fig
}

fn fig2_fig4(fig: &mut Figure) {
    // Fig. 2: web/logic/db, B1=500, B2=100, B3=50 Mbps per VM, 4 VMs each.
    let tag = apps::three_tier(4, 4, 4, mbps(500.0), mbps(100.0), mbps(50.0));
    let vc = VocModel::vc_from_tag(&tag);
    // Deployment of Fig. 2(c): each tier in its own subtree. The cut above
    // the DB tier (link L3) under the hose model reserves B2+B3 per VM
    // even though B3 never leaves the subtree.
    let db_only = vec![0, 0, 4];
    let (tag_out, tag_in) = tag.cut_kbps(&db_only);
    let (vc_out, vc_in) = vc.cut_kbps(&db_only);
    fig.table(
        "Fig. 2: bandwidth on the DB subtree uplink (Mbps, out/in)",
        &["model", "out", "in"],
        &[
            vec![
                "TAG (B2 only)".into(),
                format!("{:.0}", kbps_to_mbps(tag_out)),
                format!("{:.0}", kbps_to_mbps(tag_in)),
            ],
            vec![
                "hose (B2+B3 wasted)".into(),
                format!("{:.0}", kbps_to_mbps(vc_out)),
                format!("{:.0}", kbps_to_mbps(vc_in)),
            ],
        ],
    );

    let tag_rates = fig4_throughput(5, 5, GuaranteeModel::Tag);
    let hose_rates = fig4_throughput(5, 5, GuaranteeModel::Hose);
    fig.table(
        "Fig. 4: logic VM under simultaneous web+DB bursts (Mbps)",
        &["model", "web->logic", "db->logic"],
        &[
            vec![
                "TAG".into(),
                format!("{:.0}", tag_rates.web_mbps),
                format!("{:.0}", tag_rates.db_mbps),
            ],
            vec![
                "hose".into(),
                format!("{:.0}", hose_rates.web_mbps),
                format!("{:.0}", hose_rates.db_mbps),
            ],
        ],
    );

    let (b2, b3) = (4 * mbps(100.0), 4 * mbps(50.0));
    fig.claim(
        "fig2_hose_wastes_b3",
        "on the DB subtree's uplink TAG reserves B2 per DB VM, the hose B2+B3",
        (tag_out, tag_in, vc_out, vc_in) == (b2, b2, b2 + b3, b2 + b3),
    );
    let near = |got: f64, want: f64| (got - want).abs() < 1.0;
    fig.claim(
        "fig4_tag_isolates",
        "TAG holds 500/100; the hose degrades to 300:300",
        near(tag_rates.web_mbps, 500.0)
            && near(tag_rates.db_mbps, 100.0)
            && near(hose_rates.web_mbps, 300.0)
            && near(hose_rates.db_mbps, 300.0),
    );
}

fn fig3(fig: &mut Figure) {
    let s = 10u32;
    let b = mbps(10.0);
    let tag = apps::storm(s, b);
    let voc = VocModel::from_tag(&tag);
    // Fig. 3(c) deployment: {spout1, bolt1} | {bolt2, bolt3}.
    let split = vec![s, s, 0, 0];
    let (tag_out, _) = tag.cut_kbps(&split);
    let (voc_out, _) = voc.cut_kbps(&split);
    fig.table(
        "Fig. 3: Storm split across two subtrees — uplink reservation",
        &["model", "reserved (Mbps)", "expected"],
        &[
            vec![
                "TAG".into(),
                format!("{:.0}", kbps_to_mbps(tag_out)),
                "S*B = 100".into(),
            ],
            vec![
                "VOC".into(),
                format!("{:.0}", kbps_to_mbps(voc_out)),
                "2S*B = 200".into(),
            ],
        ],
    );
    fig.claim(
        "fig3_voc_doubles_storm_cut",
        "VOC reserves twice the actual inter-component traffic: 2S*B where TAG needs S*B",
        (tag_out, voc_out) == (s as u64 * b, 2 * s as u64 * b),
    );
}

fn fig6(fig: &mut Figure) {
    let tag = apps::fig6_request();
    let mut topo = Topology::build(&TreeSpec::fig6_rack());
    let mut placer = CmPlacer::new(CmConfig::cm());
    let mut paired = false;
    match placer.place_tag(&mut topo, &tag) {
        Ok(state) => {
            let placement = state.placement(&topo);
            let rows: Vec<Vec<String>> = placement
                .iter()
                .map(|(server, counts)| {
                    let (up, _) = topo.uplink_used(*server).unwrap();
                    vec![
                        format!("{server}"),
                        format!("A:{} B:{} C:{}", counts[0], counts[1], counts[2]),
                        format!("{:.0}", kbps_to_mbps(up)),
                    ]
                })
                .collect();
            fig.table(
                "Fig. 6(d): balanced placement on the 4-server rack (10 Mbps NICs)",
                &["server", "VMs", "NIC reserved (Mbps)"],
                &rows,
            );
            paired = placement.len() == 4
                && placement.iter().all(|(server, counts)| {
                    let up = topo.uplink_used(*server).map(|(up, _)| up);
                    (counts[..] == [1, 0, 1] || counts[..] == [0, 1, 1]) && up == Some(mbps(10.0))
                });
        }
        Err(e) => fig.line(&format!("Fig. 6 request unexpectedly rejected: {e}")),
    }
    fig.claim(
        "fig6_balance_pairs_c",
        "every server pairs one C VM with one low-bandwidth VM at exactly 10 Mbps",
        paired,
    );
    let mut topo = Topology::build(&TreeSpec::fig6_rack());
    let coloc_only = CmPlacer::new(CmConfig::coloc_only()).place_tag(&mut topo, &tag);
    fig.claim(
        "fig6_coloc_strands_c",
        "blind colocation (Fig. 6(c)) would have left C unplaceable",
        coloc_only.is_err(),
    );
}

// ----------------------------------------------------------------------
// Table 1
// ----------------------------------------------------------------------

/// Table 1: reserved bandwidth (Gbps) at the server / ToR / aggregation
/// levels for CM+TAG, CM+VOC (same placement, VOC pricing) and OVOC on the
/// bing-like workload — arrivals only, unlimited link capacity, stopping
/// at the first slot rejection. The paper has 3209/1006.8/0.7 Gbps for
/// CM+TAG.
fn table1(_: RunMode) -> Figure {
    let mut fig = Figure::default();
    let pool = bing_like_pool(42);
    let rows = cm_sim::experiments::table1(&pool, 1, 800_000);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let base = &rows[0].gbps;
            vec![
                r.label.to_string(),
                format!("{:.1}", r.gbps[0]),
                format!("{:.1}", r.gbps[1]),
                format!("{:.1}", r.gbps[2]),
                format!(
                    "({:.2}) ({:.2}) ({:.2})",
                    safe_ratio(r.gbps[0], base[0]),
                    safe_ratio(r.gbps[1], base[1]),
                    safe_ratio(r.gbps[2], base[2]),
                ),
            ]
        })
        .collect();
    fig.table(
        "Table 1: reserved bandwidth (Gbps) for the bing-like workload",
        &["algorithm", "server", "ToR", "agg", "ratio vs CM+TAG"],
        &table,
    );

    let (tag, voc, ovoc) = (rows[0].gbps, rows[1].gbps, rows[2].gbps);
    fig.claim(
        "voc_exceeds_tag",
        "VOC pricing exceeds TAG at every level (strictly above the server level)",
        tag[0] <= voc[0] && tag[1] < voc[1] && tag[2] < voc[2],
    );
    fig.claim(
        "ovoc_worst_above_server",
        "OVOC reserves the most at the ToR and aggregation levels",
        ovoc[1] > voc[1] && ovoc[2] > voc[2],
    );
    // No claim that the gap keeps growing to aggregation: the ratios do
    // not depend on B_max, and over seeds 1-4 the aggregation ratio falls
    // below the ToR one on 3 seeds for CM+VOC and on all 4 for OVOC. The
    // steps checked here hold on every seed.
    let grows = |g: [f64; 3]| {
        let r = [0, 1, 2].map(|l| safe_ratio(g[l], tag[l]));
        r[1] > r[0] && r[0] >= 1.0 && r[2] >= 1.0
    };
    fig.claim(
        "gap_largest_above_server",
        "for CM+VOC and OVOC, the ratio to CM+TAG is >= 1 at every level and larger at the ToR \
         than at the server (paper: 1.02/1.22/2.55 for CM+VOC, 0.93/1.29/22.08 for OVOC)",
        grows(voc) && grows(ovoc),
    );
    fig
}

fn safe_ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        if a == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a / b
    }
}

// ----------------------------------------------------------------------
// Figs. 7–12: the simulator sweeps
// ----------------------------------------------------------------------

/// One row per sweep point: x, then CM's and OVOC's rejected bandwidth
/// and VMs.
fn cm_vs_ovoc_rows(cm: &[SweepPoint], ovoc: &[SweepPoint]) -> Vec<Vec<String>> {
    cm.iter()
        .zip(ovoc)
        .map(|(c, o)| {
            vec![
                format!("{:.0}", c.x),
                pct(c.result.rejections.bw_rate()),
                pct(c.result.rejections.vm_rate()),
                pct(o.result.rejections.bw_rate()),
                pct(o.result.rejections.vm_rate()),
            ]
        })
        .collect()
}

/// Fig. 7: rejection rates (bandwidth and VM) vs. `B_max`, at 50 % and
/// 90 % load, CM vs OVOC on the bing-like workload over the 32:8:1
/// oversubscribed datacenter. Our synthetic bing pool shifts the
/// rejection onset to higher `B_max` than the proprietary dataset, so the
/// sweep extends past the paper's 800 Mbps to 2000 Mbps.
fn fig7(mode: RunMode) -> Figure {
    let mut fig = Figure::default();
    let pool = bing_like_pool(42);
    let bmaxes = [400.0, 800.0, 1200.0, 1600.0, 2000.0];
    let mut series = Vec::new();
    for load in [0.5, 0.9] {
        let mut cfg = mode.sim_config();
        cfg.load = load;
        let cm = sweep_bmax(&pool, &cfg, Algo::Cm(CmConfig::cm()), &bmaxes);
        let ovoc = sweep_bmax(&pool, &cfg, Algo::Ovoc, &bmaxes);
        fig.table(
            &format!("Fig. 7: rejection vs B_max at load {:.0}%", load * 100.0),
            &["Bmax (Mbps)", "BW CM", "VM CM", "BW OVOC", "VM OVOC"],
            &cm_vs_ovoc_rows(&cm, &ovoc),
        );
        series.push((of(&cm, bw_rate), of(&ovoc, bw_rate)));
    }

    // "Almost all" only up to the paper's 800 Mbps: past it the fabric
    // saturates for CM too (32.7 % at 2000 Mbps and 90 % load), still
    // under OVOC.
    fig.claim(
        "cm_deploys_almost_all_to_800",
        "up to B_max = 800 Mbps CM deploys almost all requests (rejects under 5% of bandwidth) \
         at both loads, while OVOC rejects more than that at 800",
        series
            .iter()
            .all(|(cm, ovoc)| cm[..2].iter().all(|&c| c < 0.05) && ovoc[1] > 0.05),
    );
    fig.claim(
        "cm_below_ovoc",
        "CM rejects less bandwidth than OVOC wherever it rejects any",
        series
            .iter()
            .all(|(cm, ovoc)| pairwise(cm, ovoc, |c, o| c < o || c == 0.0)),
    );
    fig.claim(
        "rise_with_bmax",
        "both rise with B_max",
        series
            .iter()
            .all(|(cm, ovoc)| non_decreasing(cm) && non_decreasing(ovoc)),
    );
    fig
}

/// Fig. 8: rejection rates vs. datacenter load at fixed `B_max`. The paper
/// fixes `B_max` = 800 Mbps; our synthetic pool shifts the onset upward,
/// so we report 800 and the stressier 1600.
fn fig8(mode: RunMode) -> Figure {
    let mut fig = Figure::default();
    let pool = bing_like_pool(42);
    let loads = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0];
    let mut series = Vec::new();
    for bmax in [800_000u64, 1_600_000] {
        let mut cfg = mode.sim_config();
        cfg.bmax_kbps = bmax;
        let cm = sweep_load(&pool, &cfg, Algo::Cm(CmConfig::cm()), &loads);
        let ovoc = sweep_load(&pool, &cfg, Algo::Ovoc, &loads);
        fig.table(
            &format!("Fig. 8: rejection vs load, Bmax = {} Mbps", bmax / 1000),
            &["load (%)", "BW CM", "VM CM", "BW OVOC", "VM OVOC"],
            &cm_vs_ovoc_rows(&cm, &ovoc),
        );
        series.push((of(&cm, bw_rate), of(&ovoc, bw_rate)));
    }

    fig.claim(
        "ovoc_fails_at_low_load",
        "OVOC fails tenants with large demands even at 10% load, where CM rejects none",
        series
            .iter()
            .all(|(cm, ovoc)| ovoc[0] > 0.0 && cm[0] == 0.0),
    );
    fig.claim(
        "cm_places_most",
        "CM places most of the demand at every load, rejecting less than OVOC",
        series
            .iter()
            .all(|(cm, ovoc)| pairwise(cm, ovoc, |c, o| c < o && c < 0.5)),
    );
    fig
}

/// Fig. 9: bandwidth rejection rate vs. topology oversubscription
/// (16×–128×) for CM and OVOC.
fn fig9(mode: RunMode) -> Figure {
    let mut fig = Figure::default();
    let pool = bing_like_pool(42);
    let ratios = [16.0, 32.0, 64.0, 128.0];
    let mut cfg = mode.sim_config();
    cfg.bmax_kbps = 1_200_000; // stress the fabric so the sweep separates
    cfg.load = 0.9;
    let cm = sweep_oversubscription(&pool, &cfg, Algo::Cm(CmConfig::cm()), &ratios);
    let ovoc = sweep_oversubscription(&pool, &cfg, Algo::Ovoc, &ratios);
    let rows: Vec<Vec<String>> = cm
        .iter()
        .zip(&ovoc)
        .map(|(c, o)| {
            vec![
                format!("{:.0}x", c.x),
                pct(c.result.rejections.bw_rate()),
                pct(o.result.rejections.bw_rate()),
            ]
        })
        .collect();
    fig.table(
        "Fig. 9: rejected bandwidth vs oversubscription (load 90%, Bmax 1200)",
        &["oversubscription", "CM", "OVOC"],
        &rows,
    );

    let (cm, ovoc) = (of(&cm, bw_rate), of(&ovoc, bw_rate));
    // No claim that OVOC degrades as oversubscription grows: at this B_max
    // and load it is near saturation already at 16x, and from 16x to 128x
    // both placers rise by about 7 points.
    fig.claim(
        "cm_resilient",
        "CM stays low: under half of OVOC's rejected bandwidth at every ratio",
        pairwise(&cm, &ovoc, |c, o| c < o / 2.0),
    );
    fig.claim(
        "ovoc_incapable",
        "OVOC is quickly incapable: it rejects over a third of the demand from 16x on",
        ovoc.iter().all(|&o| o > 1.0 / 3.0),
    );
    fig
}

/// Fig. 10: micro-benchmark of the CM subroutines — full CM
/// (Coloc+Balance), Coloc-only, Balance-only — with OVOC for reference.
fn fig10(mode: RunMode) -> Figure {
    let mut fig = Figure::default();
    let pool = bing_like_pool(42);
    let mut cfg = mode.sim_config();
    // Always the paper's 10,000 arrivals: the Coloc/Balance order depends
    // on scale. At 3,000 arrivals Coloc rejects more bandwidth than
    // Balance on seeds 1-5; at 10,000 it rejects less on all five.
    cfg.arrivals = 10_000;
    cfg.bmax_kbps = 1_200_000;
    cfg.load = 0.9;
    let results = ablation(&pool, &cfg);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                match r.algo {
                    "CM" => "Coloc+Balance".to_string(),
                    other => other.to_string(),
                },
                pct(r.rejections.bw_rate()),
                pct(r.rejections.vm_rate()),
            ]
        })
        .collect();
    fig.table(
        "Fig. 10: CM subroutine ablation (load 90%, Bmax 1200)",
        &["variant", "rejected BW", "rejected VMs"],
        &rows,
    );

    let [both, coloc, balance, ovoc] = [0, 1, 2, 3].map(|i| bw_rate(&results[i]));
    // Balance is not level with OVOC: it removes 9 of OVOC's 45 points,
    // Coloc 15.
    fig.claim(
        "ablation_order",
        "Coloc+Balance < Coloc < Balance < OVOC on rejected bandwidth: colocation is the main \
         factor, balance prevents stranding compute behind saturated uplinks",
        both < coloc && coloc < balance && balance < ovoc,
    );
    fig
}

/// The WCS cell of Figs. 11–12: the mean with `decimals`, then [min-max].
fn wcs_cell(wcs: &WcsStats, decimals: usize) -> String {
    let (mean, min, max) = (wcs.mean * 100.0, wcs.min * 100.0, wcs.max * 100.0);
    format!("{mean:.decimals$}% [{min:.0}-{max:.0}]")
}

/// Fig. 11: guaranteeing worst-case survivability — achieved WCS and
/// rejected bandwidth vs. the required WCS (LAA = server level), for CM+HA
/// and the Oktopus-style baseline extended with the same Eq. 7 cap.
fn fig11(mode: RunMode) -> Figure {
    let mut fig = Figure::default();
    let pool = bing_like_pool(42);
    let mut cfg = mode.sim_config();
    cfg.bmax_kbps = 800_000;
    cfg.load = 0.9;
    let rows_raw = ha_sweep(&pool, &cfg, &[0.0, 0.25, 0.5, 0.75]);
    let rows: Vec<Vec<String>> = rows_raw
        .iter()
        .map(|(rwcs, cm, ovoc)| {
            vec![
                format!("{rwcs:.0}%"),
                wcs_cell(&cm.wcs, 1),
                pct(cm.rejections.bw_rate()),
                wcs_cell(&ovoc.wcs, 1),
                pct(ovoc.rejections.bw_rate()),
            ]
        })
        .collect();
    fig.table(
        "Fig. 11: guaranteed WCS at the server level (load 90%, Bmax 800)",
        &[
            "required WCS",
            "CM+HA achieved (mean [min-max])",
            "CM+HA rej BW",
            "OVOC+HA achieved",
            "OVOC+HA rej BW",
        ],
        &rows,
    );

    // Not "min >= required": at 75 % both minimums are 50 %, because Eq. 7
    // lets a 2-VM tier lose one VM.
    fig.claim(
        "required_wcs_achieved",
        "both achieve the required WCS up to Eq. 7's granularity (min WCS >= wcs_floor)",
        rows_raw.iter().all(|(rwcs, cm, ovoc)| {
            let floor = wcs_floor(rwcs / 100.0, &pool);
            cm.wcs.min >= floor && ovoc.wcs.min >= floor
        }),
    );
    // Not at 75 %: there Eq. 7 pins both placements, and over seeds 1-5
    // the two means sit at 78.2-78.4 %, within 0.1 point either way.
    fig.claim(
        "cm_ha_higher_mean",
        "CM+HA's mean WCS exceeds OVOC+HA's wherever the requirement leaves room (<= 50%)",
        rows_raw
            .iter()
            .all(|(rwcs, cm, ovoc)| *rwcs > 50.0 || cm.wcs.mean > ovoc.wcs.mean),
    );
    let cm_bw: Vec<f64> = rows_raw.iter().map(|(_, cm, _)| bw_rate(cm)).collect();
    let ovoc_bw: Vec<f64> = rows_raw.iter().map(|(_, _, ovoc)| bw_rate(ovoc)).collect();
    let rise = |bw: &[f64]| bw[bw.len() - 1] - bw[0];
    fig.claim(
        "cm_ha_rejection_mild",
        "CM+HA's rejected bandwidth rises only mildly with the requirement: it never falls, \
         rises less from 0% to 75% than OVOC+HA's, and stays below OVOC+HA's at every point",
        non_decreasing(&cm_bw)
            && rise(&cm_bw) < rise(&ovoc_bw)
            && pairwise(&cm_bw, &ovoc_bw, |c, o| c < o),
    );
    fig.unverified(
        "ovoc_ha_rejection_rises",
        "OVOC+HA's rejected bandwidth rises with the requirement (from 50% to 75% it falls on \
         seeds 1-5, all for bandwidth; cause open)",
        format!("OVOC+HA rej BW {}", pcts(&ovoc_bw)),
    );
    fig
}

/// Fig. 12: comparison of the HA mechanisms across `B_max` — default CM
/// (no HA), CM+HA (guaranteed 50 % WCS) and CM+oppHA (opportunistic).
fn fig12(mode: RunMode) -> Figure {
    let mut fig = Figure::default();
    let pool = bing_like_pool(42);
    let bmaxes = [400.0, 800.0, 1200.0];
    let mut cfg = mode.sim_config();
    cfg.load = 0.9;
    let variants = [
        ("CM", Algo::Cm(CmConfig::cm())),
        ("CM+HA", Algo::Cm(CmConfig::cm_ha(0.5))),
        ("CM+oppHA", Algo::Cm(CmConfig::cm_opp_ha())),
    ];
    let sweeps: Vec<_> = variants
        .iter()
        .map(|(_, a)| sweep_bmax(&pool, &cfg, *a, &bmaxes))
        .collect();

    let rows: Vec<Vec<String>> = (0..bmaxes.len())
        .map(|i| {
            let mut row = vec![format!("{:.0}", bmaxes[i])];
            for s in &sweeps {
                let r = &s[i].result;
                row.push(pct(r.rejections.bw_rate()));
                row.push(wcs_cell(&r.wcs, 0));
            }
            row
        })
        .collect();
    fig.table(
        "Fig. 12: HA mechanisms across Bmax (load 90%)",
        &[
            "Bmax (Mbps)",
            "CM rej BW",
            "CM WCS",
            "CM+HA rej BW",
            "CM+HA WCS",
            "oppHA rej BW",
            "oppHA WCS",
        ],
        &rows,
    );

    let [cm, ha, opp] = [0, 1, 2].map(|i| of(&sweeps[i], |r| r.wcs.mean));
    let floor = wcs_floor(0.5, &pool);
    fig.claim(
        "cm_ha_floor",
        "CM+HA guarantees the 50% floor up to Eq. 7's granularity (min WCS >= wcs_floor)",
        of(&sweeps[1], |r| r.wcs.min).iter().all(|&m| m >= floor),
    );
    fig.claim(
        "opp_lifts_wcs",
        "plain CM's mean WCS is poor: CM+HA and CM+oppHA both lift it at every B_max",
        pairwise(&cm, &ha, |c, h| c < h) && pairwise(&cm, &opp, |c, o| c < o),
    );
    fig.unverified(
        "opp_matches_cm_rejection",
        "CM+oppHA matches CM's (low) rejection (at 800 Mbps and 3,000 arrivals it rejects more \
         on 3 of seeds 1-5, all for bandwidth, where CM rejects none; its spread decision is \
         open)",
        format!(
            "rej BW CM {}, oppHA {}",
            pcts(&of(&sweeps[0], bw_rate)),
            pcts(&of(&sweeps[2], bw_rate))
        ),
    );
    fig
}

// ----------------------------------------------------------------------
// Fig. 13, §3 inference, §5.1 runtime
// ----------------------------------------------------------------------

/// Fig. 13: TAG guarantee enforcement on the ElasticSwitch-style runtime —
/// TCP throughput at VM Z as the number of intra-tier senders grows, with
/// the 450 Mbps C1→C2 trunk protected by the TAG patch (and diluted
/// without it).
fn fig13(_: RunMode) -> Figure {
    let mut fig = Figure::default();
    let points: Vec<_> = (0..=5)
        .map(|senders| {
            let tag = fig13_throughput(senders, GuaranteeModel::Tag);
            let hose = fig13_throughput(senders, GuaranteeModel::Hose);
            (senders, tag, hose)
        })
        .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|(senders, tag, hose)| {
            vec![
                senders.to_string(),
                format!("{:.0}", tag.x_to_z_mbps),
                format!("{:.0}", tag.intra_mbps.max(0.0)),
                format!("{:.0}", hose.x_to_z_mbps),
                format!("{:.0}", hose.intra_mbps.max(0.0)),
            ]
        })
        .collect();
    fig.table(
        "Fig. 13(b): throughput at VM Z (Mbps), 1 Gbps bottleneck, 10% unreserved",
        &[
            "senders in C2",
            "X->Z (TAG)",
            "intra (TAG)",
            "X->Z (hose)",
            "intra (hose)",
        ],
        &rows,
    );

    fig.claim(
        "tag_protects_trunk",
        "with the TAG patch, X->Z never drops below its 450 Mbps guarantee no matter how many \
         intra-tier senders compete",
        points.iter().all(|(_, tag, _)| tag.x_to_z_mbps >= 450.0),
    );
    fig.claim(
        "hose_dilutes",
        "the plain hose dilutes X's share to 1/(n+1) of Z's 1 Gbps with n intra-tier senders",
        points
            .iter()
            .all(|(n, _, hose)| (hose.x_to_z_mbps - 1000.0 / (*n as f64 + 1.0)).abs() < 1.0),
    );
    fig
}

/// §3 "Producing TAG Models": inference quality of the clustering pipeline
/// — adjusted mutual information between inferred and ground-truth
/// components over a pool of synthetic tenants with load-balancer skew and
/// background noise. The paper reports a mean AMI of 0.54 over 80 bing
/// applications using Louvain clustering; our traces are synthetic (the
/// real dataset is proprietary), so the absolute score differs with the
/// noise knobs, but the pipeline and metric are the paper's.
fn inference_ami(mode: RunMode) -> Figure {
    let mut fig = Figure::default();
    let pool = bing_like_pool(42);
    // Trace synthesis is O(n²·snapshots); cap tenant size for the quick run.
    let cap = if mode.full { 400 } else { 120 };
    let mut rows = Vec::new();
    let mut amis = Vec::new();
    let mut quiet_amis = Vec::new();
    for (i, tag) in pool.tenants().iter().enumerate() {
        if tag.total_vms() > cap || tag.total_vms() < 6 || tag.internal_tiers().count() < 2 {
            continue;
        }
        for noise in [0.05, 0.3] {
            let cfg = SynthConfig {
                seed: 1000 + i as u64,
                snapshots: 16,
                skew: 0.8,
                noise,
            };
            let (trace, truth) = synthesize_trace(tag, &cfg);
            let sim = feature_similarity(&trace);
            let labels = louvain(trace.num_vms(), &sim);
            let ami = adjusted_mutual_information(&labels, &truth);
            if noise == 0.3 {
                amis.push(ami);
                if rows.len() < 12 {
                    rows.push(vec![
                        tag.name().to_string(),
                        tag.total_vms().to_string(),
                        tag.internal_tiers().count().to_string(),
                        format!("{ami:.2}"),
                    ]);
                }
            } else {
                quiet_amis.push(ami);
            }
        }
    }
    fig.table(
        "TAG inference quality (noisy traces, first 12 tenants shown)",
        &["tenant", "VMs", "tiers", "AMI"],
        &rows,
    );
    let mean = amis.iter().sum::<f64>() / amis.len() as f64;
    fig.line(&format!(
        "\nMean AMI over {} tenants: {mean:.2}  (paper: 0.54 on the real \
         bing dataset — 'substantial commonality ... but also the need for \
         further improvement')",
        amis.len()
    ));

    fig.claim(
        "substantial_commonality",
        "inferred and true components share substantial structure: mean AMI on noisy synthetic \
         traces is at least the paper's 0.54 on real ones",
        mean >= 0.54,
    );
    let quiet_mean = quiet_amis.iter().sum::<f64>() / quiet_amis.len() as f64;
    fig.claim(
        "noise_hurts",
        "background noise costs accuracy: mean AMI at noise 0.05 is at least that at 0.3",
        quiet_mean >= mean,
    );
    fig
}

/// Placements per placer and tenant size in [`runtime`].
const RUNTIME_REPS: usize = 21;

/// §5.1 "Algorithm runtime": CM, OVOC and SecondNet each place the same
/// three-tier tenant (a DB-style self-loop, n/3 VMs per tier) on a fresh
/// paper datacenter; each cell is the median of [`RUNTIME_REPS`]
/// placements, and the claims read ratios within the run. The paper
/// reports CM (Python) under 200 ms for hundreds of VMs and SecondNet
/// "tens of minutes" for large tenants.
fn runtime(_: RunMode) -> Figure {
    let mut fig = Figure::default();
    let spec = TreeSpec::paper_datacenter();
    let median_us = |placer: &mut dyn Placer, tag: &cm_core::Tag| {
        let mut us: Vec<f64> = (0..RUNTIME_REPS)
            .map(|_| {
                let mut topo = Topology::build(&spec);
                let t0 = Instant::now();
                let placed = placer.place(&mut topo, tag);
                let elapsed = t0.elapsed().as_secs_f64() * 1e6;
                assert!(
                    placed.is_ok(),
                    "{} rejects on an empty datacenter",
                    placer.name()
                );
                elapsed
            })
            .collect();
        us.sort_by(f64::total_cmp);
        us[RUNTIME_REPS / 2]
    };
    let sizes = [57u32, 200];
    // Per size: [CM, OVOC, SecondNet] median µs.
    let us: Vec<[f64; 3]> = sizes
        .iter()
        .map(|&n| {
            let per = (n / 3).max(1);
            let tag = apps::three_tier(per, per, n - 2 * per, 200_000, 50_000, 20_000);
            let placers: [Box<dyn Placer>; 3] = [
                Box::new(CmPlacer::new(CmConfig::cm())),
                Box::new(OvocPlacer::new()),
                Box::new(SecondNetPlacer::new()),
            ];
            placers.map(|mut placer| median_us(placer.as_mut(), &tag))
        })
        .collect();
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .zip(&us)
        .map(|(n, t)| {
            let mut row = vec![n.to_string()];
            row.extend(t.map(|t| format!("{t:.1}")));
            row.extend([format!("{:.2}", t[1] / t[0]), format!("{:.1}", t[2] / t[0])]);
            row
        })
        .collect();
    fig.table(
        "§5.1: placement runtime on a fresh paper datacenter (median us)",
        &["VMs", "CM", "OVOC", "SecondNet", "OVOC/CM", "SecondNet/CM"],
        &rows,
    );

    let ratio = |size: usize, placer: usize| us[size][placer] / us[size][0];
    fig.claim(
        "cm_comparable_to_ovoc",
        "CM and Oktopus are comparable: within 10x of each other at every size",
        (0..sizes.len()).all(|i| (0.1..=10.0).contains(&ratio(i, 1))),
    );
    fig.claim(
        "secondnet_orders_slower",
        "SecondNet-style pipe placement is orders of magnitude slower: at least 10x CM at 200 \
         VMs, and the gap grows with tenant size",
        ratio(1, 2) >= 10.0 && ratio(1, 2) > ratio(0, 2),
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn arguments_select_mode_and_entries() {
        let all = parse(&[]).expect("valid");
        assert_eq!(all.mode, RunMode { full: false });
        assert_eq!(all.entries().count(), REGISTRY.len());
        let fig10 = parse(&["--only", "fig10", "--full"]).expect("valid");
        assert_eq!(fig10.mode, RunMode { full: true });
        let names: Vec<&str> = fig10.entries().map(|(name, _)| *name).collect();
        assert_eq!(names, ["fig10"]);
    }

    #[test]
    fn bad_arguments_are_rejected_with_the_valid_names() {
        let names: Vec<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
        for (args, problem) in [
            (&["--ful"][..], "unknown argument `--ful`"),
            (&["--only", "fig99"], "no figure named `fig99`"),
            (&["--only"], "`--only` needs a name"),
            (&["fig10"], "unknown argument `fig10`"),
        ] {
            let err = parse(args).expect_err("must be rejected");
            assert!(err.starts_with(problem), "{args:?}: {err}");
            assert!(err.ends_with(&names.join(", ")), "{err}");
        }
    }

    #[test]
    fn wcs_floor_follows_eq7_granularity() {
        let pool = bing_like_pool(42);
        let floors = [0.0, 0.25, 0.5, 0.75].map(|r| wcs_floor(r, &pool));
        assert_eq!(floors, [0.0, 0.25, 0.5, 0.5]);
    }

    /// The entries cheap enough for a debug build, in their real quick
    /// configuration. The sweeps (Figs. 7–12) and the runtime entry are
    /// not reduced to fit, since a smaller Fig. 10 checks a different
    /// claim; they run in release under `reproduce`.
    #[test]
    fn cheap_entries_hold_every_claim() {
        for name in ["fig1", "fig3_fig4_fig6", "fig13", "table1", "inference_ami"] {
            let (_, build) = REGISTRY
                .iter()
                .find(|(n, _)| *n == name)
                .expect("registered");
            let figure = build(RunMode { full: false });
            assert!(!figure.claims().is_empty(), "{name} makes no claim");
            for claim in figure.claims() {
                assert_eq!(claim.verdict, Verdict::Pass, "{name}: {claim}");
            }
        }
    }
}
