//! Fig. 7: rejection rates (bandwidth and VM) vs. `B_max`, at 50 % and
//! 90 % load, CM vs OVOC on the bing-like workload over the 32:8:1
//! oversubscribed datacenter.
//!
//! Expected shape: rejection grows with `B_max`; OVOC rejects a multiple
//! of CM's bandwidth. Note on the x-range: our synthetic bing pool shifts
//! the rejection onset to higher `B_max` than the proprietary dataset,
//! so the sweep extends to 2000 Mbps.

use cm_bench::{pct, print_table, RunMode};
use cm_core::placement::CmConfig;
use cm_sim::experiments::{sweep_bmax, Algo};
use cm_workloads::bing_like_pool;

fn main() {
    let mode = RunMode::from_args();
    let pool = bing_like_pool(42);
    let bmaxes = [400.0, 800.0, 1200.0, 1600.0, 2000.0];
    for load in [0.5, 0.9] {
        let mut cfg = mode.sim_config();
        cfg.load = load;
        let cm = sweep_bmax(&pool, &cfg, Algo::Cm(CmConfig::cm()), &bmaxes);
        let ovoc = sweep_bmax(&pool, &cfg, Algo::Ovoc, &bmaxes);
        let rows: Vec<Vec<String>> = cm
            .iter()
            .zip(&ovoc)
            .map(|(c, o)| {
                vec![
                    format!("{:.0}", c.x),
                    pct(c.result.rejections.bw_rate()),
                    pct(c.result.rejections.vm_rate()),
                    pct(o.result.rejections.bw_rate()),
                    pct(o.result.rejections.vm_rate()),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 7: rejection vs B_max at load {:.0}%", load * 100.0),
            &["Bmax (Mbps)", "BW CM", "VM CM", "BW OVOC", "VM OVOC"],
            &rows,
        );
    }
    println!(
        "\nShape check (paper Fig. 7): OVOC rejects up to ~40% of bandwidth while \
         CM deploys almost all requests; both rise with B_max."
    );
}
