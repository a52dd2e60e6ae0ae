//! Golden decision streams of the three churn drivers (`run_churn`,
//! `run_churn_traffic`, `run_churn_faults`) at one fixed seed, for CM,
//! CM+HA and OVOC. Every non-timing report field is fingerprinted, so any
//! change to the order of lifecycle operations, to the point in the RNG
//! stream where a fault target is drawn, or to what a traffic step sees
//! shows up here as a string diff.

use cloudmirror::baselines::OvocPlacer;
use cloudmirror::sim::faults::{run_churn_faults, FaultChurnConfig};
use cloudmirror::sim::lifecycle::{run_churn, ChurnConfig, ChurnReport};
use cloudmirror::sim::traffic::{run_churn_traffic, TrafficChurnConfig};
use cloudmirror::workloads::bing_like_pool;
use cloudmirror::{mbps, CmConfig, CmPlacer, GuaranteeModel, HaPolicy, Placer, TreeSpec};

const RWCS: f64 = 0.25;

fn churn_cfg() -> ChurnConfig {
    ChurnConfig {
        seed: 7,
        spec: TreeSpec::small(2, 4, 8, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]),
        bmax_kbps: mbps(300.0),
        tenants: 96,
        target_live: 14,
        scale_cycles: 2,
        migrate_every: 6,
    }
}

fn churn_fp(r: &ChurnReport) -> String {
    format!(
        "{} att={} adm={} scale={} scale_rej={} mig={} dep={}",
        r.placer,
        r.admits_attempted,
        r.admitted,
        r.scale_ops,
        r.scale_rejected,
        r.migrates,
        r.departs
    )
}

fn traffic_fp<P: Placer>(placer: P) -> String {
    let cfg = TrafficChurnConfig {
        churn: churn_cfg(),
        solve_every: 16,
        model: GuaranteeModel::Tag,
    };
    let r = run_churn_traffic(&cfg, &bing_like_pool(42), placer);
    let steps: Vec<String> = r
        .steps
        .iter()
        .map(|s| {
            format!(
                "{}:{}:{}:{}:{}:{}:{}",
                s.arrival,
                s.live_tenants,
                s.cross_flows,
                s.colocated_flows,
                s.violations,
                s.work_conserving,
                s.components_total
            )
        })
        .collect();
    format!("{} | {}", churn_fp(&r.churn), steps.join(" "))
}

fn fault_fp<P: Placer>(placer: P) -> String {
    let name = placer.name();
    let mut cfg = FaultChurnConfig::quick(churn_cfg());
    cfg.rwcs = RWCS;
    let r = run_churn_faults(&cfg, &bing_like_pool(42), placer);
    format!(
        "{} kills={}/{}/{} lost={} damaged={} evicted={} checks={} viol={} worst={:.4} \
         repairs={} repair_fail={} degraded={} viol_secs={}",
        name,
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
        r.degraded_arrivals,
        r.violation_seconds
    )
}

fn cm() -> CmPlacer {
    CmPlacer::new(CmConfig::cm())
}

fn cm_ha() -> CmPlacer {
    CmPlacer::new(CmConfig {
        ha: HaPolicy::Guaranteed {
            rwcs: RWCS,
            laa_level: 1,
        },
        ..CmConfig::default()
    })
}

/// Plain-churn goldens; the traffic driver's embedded churn must equal them
/// (a traffic step only reads the cluster).
const CHURN: [&str; 3] = [
    "CM att=96 adm=47 scale=331 scale_rej=53 mig=16 dep=47",
    "CM+HA att=96 adm=12 scale=234 scale_rej=152 mig=16 dep=12",
    "OVOC att=96 adm=40 scale=340 scale_rej=44 mig=16 dep=40",
];

#[test]
fn plain_churn_decisions_are_pinned() {
    let pool = bing_like_pool(42);
    let got = [
        churn_fp(&run_churn(&churn_cfg(), &pool, cm())),
        churn_fp(&run_churn(&churn_cfg(), &pool, cm_ha())),
        churn_fp(&run_churn(&churn_cfg(), &pool, OvocPlacer::new())),
    ];
    assert_eq!(got, CHURN);
}

#[test]
fn traffic_churn_decisions_are_pinned() {
    let steps = [
        "15:12:5130:725:0:true:1 31:13:4701:668:0:true:4 47:14:3436:632:0:true:8 \
         63:14:3177:501:0:true:6 79:13:4509:524:0:true:1 95:13:4452:581:0:true:1",
        "15:8:3331:474:0:true:1 31:9:3716:541:0:true:1 47:10:3758:541:0:true:1 \
         63:11:3759:552:0:true:1 79:12:4537:684:0:true:1 95:12:4543:678:0:true:1",
        "15:10:4823:640:0:true:4 31:12:4857:720:0:true:5 47:14:4413:722:0:true:6 \
         63:14:2650:356:0:true:19 79:14:4376:364:0:true:8 95:13:4374:492:0:true:3",
    ];
    let got = [
        traffic_fp(cm()),
        traffic_fp(cm_ha()),
        traffic_fp(OvocPlacer::new()),
    ];
    for i in 0..3 {
        assert_eq!(got[i], format!("{} | {}", CHURN[i], steps[i]));
    }
}

#[test]
fn fault_churn_decisions_are_pinned() {
    let got = [
        fault_fp(cm()),
        fault_fp(cm_ha()),
        fault_fp(OvocPlacer::new()),
    ];
    let want = [
        "CM kills=4/4/4 lost=158 damaged=15 evicted=6 checks=20 viol=12 worst=0.0000 \
         repairs=12 repair_fail=4 degraded=34 viol_secs=3032",
        "CM+HA kills=4/4/4 lost=132 damaged=25 evicted=1 checks=25 viol=0 worst=0.2500 \
         repairs=12 repair_fail=29 degraded=34 viol_secs=1501",
        "OVOC kills=4/4/4 lost=169 damaged=16 evicted=0 checks=15 viol=10 worst=0.0000 \
         repairs=12 repair_fail=3 degraded=34 viol_secs=3302",
    ];
    assert_eq!(got, want);
}
