//! Golden admission decisions of `run_sim`.
//!
//! The simulator's event loop is a thin driver over the
//! `cm_cluster::Cluster` controller (arrival = `admit`, departure =
//! `depart`) handed a `Placer`. That is pure plumbing: every fingerprint
//! below was captured from the loop that predates the controller and must
//! keep matching bit-for-bit — paper sims on the 2048-server datacenter plus a
//! bandwidth-starved small tree, seeds 1–6, for every CloudMirror variant
//! and both Oktopus baselines (SecondNet has its own golden file,
//! `secondnet_decisions.rs`).

use cloudmirror::baselines::{OktopusVcPlacer, OvocPlacer};
use cloudmirror::sim::events::{run_sim, SimConfig};
use cloudmirror::workloads::bing_like_pool;
use cloudmirror::{mbps, CmConfig, CmPlacer, Placer, TreeSpec};

fn fingerprint(cfg: &SimConfig, placer: Box<dyn Placer>) -> String {
    let pool = bing_like_pool(42);
    let r = run_sim(cfg, &pool, placer);
    format!(
        "rej={} slots={} bw={} vms={} bwk={} wcs_components={} wcs_mean={:.6} peak={}",
        r.rejections.rejected_tenants,
        r.rejections.rejected_for_slots,
        r.rejections.rejected_for_bandwidth,
        r.rejections.rejected_vms,
        r.rejections.rejected_bw_kbps,
        r.wcs.components,
        r.wcs.mean,
        r.peak_tenants
    )
}

fn paper_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.seed = seed;
    cfg.arrivals = 150;
    cfg
}

fn small_cfg(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        arrivals: 250,
        load: 0.9,
        td_mean: 100.0,
        bmax_kbps: mbps(300.0),
        spec: TreeSpec::small(2, 4, 8, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]),
    }
}

fn assert_goldens(
    make: impl Fn() -> Box<dyn Placer>,
    name: &str,
    paper: [&str; 6],
    small: [&str; 6],
) {
    for seed in 1..=6u64 {
        assert_eq!(
            fingerprint(&paper_cfg(seed), make()),
            paper[(seed - 1) as usize],
            "{name} paper seed {seed}"
        );
        assert_eq!(
            fingerprint(&small_cfg(seed), make()),
            small[(seed - 1) as usize],
            "{name} small seed {seed}"
        );
    }
}

#[test]
fn cm_decisions_unchanged_seeds_1_to_6() {
    assert_goldens(
        || Box::new(CmPlacer::default()),
        "CM",
        [
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=849 wcs_mean=0.102429 peak=136",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=604 wcs_mean=0.080362 peak=138",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=762 wcs_mean=0.101845 peak=140",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=810 wcs_mean=0.088642 peak=138",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=789 wcs_mean=0.082080 peak=137",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=728 wcs_mean=0.104821 peak=136",
        ],
        [
            "rej=44 slots=3 bw=41 vms=6366 bwk=755626575 wcs_components=706 wcs_mean=0.384371 peak=13",
            "rej=40 slots=7 bw=33 vms=8405 bwk=889446665 wcs_components=772 wcs_mean=0.366180 peak=11",
            "rej=76 slots=9 bw=67 vms=12135 bwk=1345029826 wcs_components=595 wcs_mean=0.403161 peak=11",
            "rej=40 slots=8 bw=32 vms=8953 bwk=887700693 wcs_components=664 wcs_mean=0.381908 peak=13",
            "rej=53 slots=9 bw=44 vms=8803 bwk=1030522043 wcs_components=647 wcs_mean=0.367860 peak=12",
            "rej=42 slots=7 bw=35 vms=8678 bwk=972556537 wcs_components=578 wcs_mean=0.410218 peak=12",
        ],
    );
}

#[test]
fn cm_ha_decisions_unchanged_seeds_1_to_6() {
    assert_goldens(
        || Box::new(CmPlacer::named(CmConfig::cm_ha(0.5), "CM+HA")),
        "CM+HA",
        [
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=849 wcs_mean=0.546868 peak=136",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=604 wcs_mean=0.544178 peak=138",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=762 wcs_mean=0.544527 peak=140",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=810 wcs_mean=0.543342 peak=138",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=789 wcs_mean=0.546130 peak=137",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=728 wcs_mean=0.542035 peak=136",
        ],
        [
            "rej=52 slots=3 bw=49 vms=6849 bwk=826501287 wcs_components=648 wcs_mean=0.600395 peak=12",
            "rej=40 slots=9 bw=31 vms=8474 bwk=897558221 wcs_components=770 wcs_mean=0.596451 peak=11",
            "rej=67 slots=9 bw=58 vms=11448 bwk=1248145162 wcs_components=619 wcs_mean=0.615393 peak=11",
            "rej=40 slots=8 bw=32 vms=8816 bwk=880541916 wcs_components=665 wcs_mean=0.611535 peak=13",
            "rej=55 slots=5 bw=50 vms=8581 bwk=990246397 wcs_components=671 wcs_mean=0.601126 peak=12",
            "rej=42 slots=5 bw=37 vms=7721 bwk=855375266 wcs_components=599 wcs_mean=0.608542 peak=12",
        ],
    );
}

#[test]
fn cm_opp_ha_decisions_unchanged_seeds_1_to_6() {
    assert_goldens(
        || Box::new(CmPlacer::named(CmConfig::cm_opp_ha(), "CM+oppHA")),
        "CM+oppHA",
        [
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=849 wcs_mean=0.196653 peak=136",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=604 wcs_mean=0.256750 peak=138",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=762 wcs_mean=0.298229 peak=140",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=810 wcs_mean=0.292164 peak=138",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=789 wcs_mean=0.250998 peak=137",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=728 wcs_mean=0.230683 peak=136",
        ],
        [
            "rej=44 slots=3 bw=41 vms=6488 bwk=762512357 wcs_components=705 wcs_mean=0.410347 peak=13",
            "rej=42 slots=7 bw=35 vms=8464 bwk=879999382 wcs_components=745 wcs_mean=0.409962 peak=11",
            "rej=64 slots=12 bw=52 vms=12789 bwk=1362074550 wcs_components=637 wcs_mean=0.433748 peak=11",
            "rej=43 slots=10 bw=33 vms=9031 bwk=936890841 wcs_components=675 wcs_mean=0.414510 peak=13",
            "rej=51 slots=8 bw=43 vms=8066 bwk=943773619 wcs_components=668 wcs_mean=0.412959 peak=12",
            "rej=42 slots=7 bw=35 vms=8678 bwk=972556537 wcs_components=578 wcs_mean=0.427916 peak=12",
        ],
    );
}

#[test]
fn ablation_decisions_unchanged_seeds_1_to_6() {
    assert_goldens(
        || Box::new(CmPlacer::named(CmConfig::coloc_only(), "Coloc")),
        "Coloc",
        [
            "rej=2 slots=0 bw=2 vms=408 bwk=136674557 wcs_components=649 wcs_mean=0.067368 peak=138",
            "rej=1 slots=0 bw=1 vms=290 bwk=104897640 wcs_components=595 wcs_mean=0.074901 peak=137",
            "rej=8 slots=0 bw=8 vms=2590 bwk=832971644 wcs_components=576 wcs_mean=0.083427 peak=136",
            "rej=4 slots=0 bw=4 vms=612 bwk=200560397 wcs_components=639 wcs_mean=0.082140 peak=131",
            "rej=3 slots=0 bw=3 vms=526 bwk=168451474 wcs_components=779 wcs_mean=0.073775 peak=132",
            "rej=10 slots=0 bw=10 vms=2260 bwk=792104048 wcs_components=586 wcs_mean=0.076498 peak=125",
        ],
        [
            "rej=157 slots=6 bw=151 vms=13404 bwk=1575418092 wcs_components=300 wcs_mean=0.157927 peak=8",
            "rej=145 slots=2 bw=143 vms=11888 bwk=1445246716 wcs_components=393 wcs_mean=0.167041 peak=9",
            "rej=167 slots=9 bw=158 vms=16113 bwk=1873231408 wcs_components=269 wcs_mean=0.140637 peak=7",
            "rej=163 slots=5 bw=158 vms=13864 bwk=1656056242 wcs_components=290 wcs_mean=0.137101 peak=9",
            "rej=153 slots=2 bw=151 vms=11908 bwk=1425727061 wcs_components=284 wcs_mean=0.152265 peak=9",
            "rej=131 slots=4 bw=127 vms=11662 bwk=1364817351 wcs_components=346 wcs_mean=0.153423 peak=10",
        ],
    );
    assert_goldens(
        || Box::new(CmPlacer::named(CmConfig::balance_only(), "Balance")),
        "Balance",
        [
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=849 wcs_mean=0.133480 peak=136",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=604 wcs_mean=0.126440 peak=138",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=762 wcs_mean=0.134565 peak=140",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=810 wcs_mean=0.129277 peak=138",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=789 wcs_mean=0.129029 peak=137",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=728 wcs_mean=0.147812 peak=136",
        ],
        [
            "rej=59 slots=6 bw=53 vms=7546 bwk=842354794 wcs_components=610 wcs_mean=0.446258 peak=13",
            "rej=37 slots=3 bw=34 vms=6155 bwk=654836130 wcs_components=725 wcs_mean=0.418356 peak=11",
            "rej=67 slots=7 bw=60 vms=10500 bwk=1225306853 wcs_components=602 wcs_mean=0.420719 peak=13",
            "rej=55 slots=9 bw=46 vms=9947 bwk=1083681885 wcs_components=559 wcs_mean=0.415596 peak=15",
            "rej=58 slots=6 bw=52 vms=9465 bwk=1124840238 wcs_components=655 wcs_mean=0.401438 peak=13",
            "rej=44 slots=6 bw=38 vms=8496 bwk=946849080 wcs_components=567 wcs_mean=0.428212 peak=12",
        ],
    );
}

#[test]
fn baseline_decisions_unchanged_seeds_1_to_6() {
    assert_goldens(
        || Box::new(OvocPlacer::new()),
        "OVOC",
        [
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=849 wcs_mean=0.041327 peak=136",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=604 wcs_mean=0.037308 peak=138",
            "rej=2 slots=0 bw=2 vms=1464 bwk=343617774 wcs_components=701 wcs_mean=0.041342 peak=141",
            "rej=2 slots=0 bw=2 vms=1464 bwk=343617774 wcs_components=708 wcs_mean=0.036230 peak=133",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=789 wcs_mean=0.035471 peak=137",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=728 wcs_mean=0.043471 peak=136",
        ],
        [
            "rej=61 slots=4 bw=57 vms=8309 bwk=1019891891 wcs_components=576 wcs_mean=0.312832 peak=15",
            "rej=69 slots=4 bw=65 vms=8168 bwk=1009750617 wcs_components=607 wcs_mean=0.284573 peak=12",
            "rej=67 slots=7 bw=60 vms=12011 bwk=1401651076 wcs_components=525 wcs_mean=0.352973 peak=11",
            "rej=69 slots=7 bw=62 vms=10821 bwk=1216557248 wcs_components=431 wcs_mean=0.391388 peak=16",
            "rej=73 slots=5 bw=68 vms=10508 bwk=1302829578 wcs_components=496 wcs_mean=0.307918 peak=14",
            "rej=47 slots=5 bw=42 vms=7375 bwk=814212817 wcs_components=545 wcs_mean=0.311833 peak=11",
        ],
    );
    assert_goldens(
        || Box::new(OktopusVcPlacer::new()),
        "VC",
        [
            "rej=1 slots=0 bw=1 vms=732 bwk=171808887 wcs_components=721 wcs_mean=0.041581 peak=139",
            "rej=0 slots=0 bw=0 vms=0 bwk=0 wcs_components=604 wcs_mean=0.041883 peak=138",
            "rej=2 slots=0 bw=2 vms=1464 bwk=343617774 wcs_components=666 wcs_mean=0.042626 peak=141",
            "rej=2 slots=0 bw=2 vms=1464 bwk=343617774 wcs_components=673 wcs_mean=0.034984 peak=132",
            "rej=1 slots=0 bw=1 vms=732 bwk=171808887 wcs_components=740 wcs_mean=0.039297 peak=135",
            "rej=3 slots=0 bw=3 vms=2196 bwk=515426661 wcs_components=644 wcs_mean=0.036745 peak=133",
        ],
        [
            "rej=63 slots=4 bw=59 vms=8083 bwk=955245921 wcs_components=542 wcs_mean=0.313894 peak=15",
            "rej=76 slots=2 bw=74 vms=8177 bwk=1007370445 wcs_components=619 wcs_mean=0.265700 peak=12",
            "rej=89 slots=6 bw=83 vms=12224 bwk=1447237525 wcs_components=523 wcs_mean=0.296370 peak=10",
            "rej=74 slots=8 bw=66 vms=11559 bwk=1343121300 wcs_components=476 wcs_mean=0.321684 peak=13",
            "rej=67 slots=6 bw=61 vms=11290 bwk=1391901830 wcs_components=508 wcs_mean=0.314669 peak=14",
            "rej=59 slots=6 bw=53 vms=9407 bwk=1074746235 wcs_components=548 wcs_mean=0.285558 peak=11",
        ],
    );
}
