//! The bare-placer replay: the op stream a `Cluster` run just executed,
//! driven again through `CmPlacer` on a bare `Topology`. It times the
//! `core` layer without the cluster's registry and bookkeeping around it,
//! and its accept/reject sequence must equal the cluster run's.

use cloudmirror::core::placement::place_incremental_replace;
use cloudmirror::workloads::TenantPool;
use cloudmirror::{CmConfig, CmPlacer, Deployed, Placer, Tag, TierId, Topology, TreeSpec};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayOp {
    Admit { pool_idx: usize },
    Scale { id: u64, tier: TierId, delta: i64 },
    Migrate { id: u64 },
    Depart { id: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoggedOp {
    pub op: ReplayOp,
    /// Whether the cluster run's call returned `Ok`.
    pub ok: bool,
    /// Set-up ops are replayed (they shape the datacenter) but not timed.
    pub measured: bool,
}

#[derive(Debug, Default)]
pub struct Replayed {
    /// `place_shared` per measured admit, µs, in op order.
    pub place_us: Vec<f64>,
    /// `place_incremental` per measured scale, µs.
    pub scale_us: Vec<f64>,
    /// `Deployed::release` per measured depart, µs.
    pub release_us: Vec<f64>,
    pub measured: u64,
    pub rejected: u64,
    /// Ops whose accept/reject differed from the cluster run's.
    pub mismatches: u64,
}

pub fn run(tree: &TreeSpec, pool: &TenantPool, log: &[LoggedOp]) -> Replayed {
    let mut topo = Topology::build(tree);
    let mut placer = CmPlacer::new(CmConfig::cm());
    // Tenant ids are the cluster's: assigned from 0, one per accepted admit.
    let mut tenants: HashMap<u64, (Arc<Tag>, Deployed)> = HashMap::new();
    let mut next_id = 0u64;
    let mut out = Replayed::default();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;

    for entry in log {
        let (ok, timing) = match entry.op {
            ReplayOp::Admit { pool_idx } => {
                let tag = &pool.tenants()[pool_idx];
                let t = Instant::now();
                let placed = placer.place_shared(&mut topo, tag);
                let took = us(t);
                let ok = placed.is_ok();
                if let Ok(deployed) = placed {
                    tenants.insert(next_id, (Arc::clone(tag), deployed));
                    next_id += 1;
                }
                (ok, Some((&mut out.place_us, took)))
            }
            ReplayOp::Scale { id, tier, delta } => match tenants.get_mut(&id) {
                Some((tag, deployed)) => {
                    let size = (i64::from(tag.tier(tier).size) + delta) as u32;
                    let resized = Arc::new(tag.resized(tier, size));
                    let t = Instant::now();
                    let scaled =
                        placer.place_incremental(&mut topo, deployed, &resized, tier, size);
                    let took = us(t);
                    if scaled.is_ok() {
                        *tag = resized;
                    }
                    (scaled.is_ok(), Some((&mut out.scale_us, took)))
                }
                None => (false, None),
            },
            ReplayOp::Migrate { id } => match tenants.get_mut(&id) {
                Some((tag, deployed)) => (
                    place_incremental_replace(&mut placer, &mut topo, deployed, tag).is_ok(),
                    None,
                ),
                None => (false, None),
            },
            ReplayOp::Depart { id } => match tenants.remove(&id) {
                Some((_, deployed)) => {
                    let t = Instant::now();
                    deployed.release(&mut topo);
                    (true, Some((&mut out.release_us, us(t))))
                }
                None => (false, None),
            },
        };
        out.mismatches += u64::from(ok != entry.ok);
        if entry.measured {
            out.measured += 1;
            out.rejected += u64::from(!ok);
            if let Some((samples, took)) = timing {
                samples.push(took);
            }
        }
    }
    out
}
