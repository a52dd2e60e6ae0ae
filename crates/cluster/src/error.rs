//! The unified lifecycle error surface.

use crate::TenantId;
use cm_core::model::{TagError, TierId};
use cm_core::placement::RejectReason;
use cm_topology::TopologyError;

/// Everything a [`crate::Cluster`] lifecycle operation can fail with, in
/// one type implementing [`std::error::Error`] — callers `?` across crate
/// boundaries instead of matching three per-crate error enums.
/// [`RejectReason`] (placement) and [`TopologyError`] (substrate) fold in
/// via `From`, and remain inspectable through
/// [`CmError::reject_reason`] / [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmError {
    /// The placer could not deploy (or re-deploy, or grow) the tenant.
    Rejected(RejectReason),
    /// No live tenant has this id (never admitted, or already departed).
    UnknownTenant(TenantId),
    /// [`crate::Cluster::admit`] was handed a TAG that no cut can price:
    /// its guarantees break [`cm_core::model::Tag::cut_bound_kbps`]
    /// ([`TagError::BandwidthOverflow`]). `TagBuilder::build` rejects such
    /// a TAG, but `Tag::scaled` and `Tag::resized` can make one.
    InvalidTag(TagError),
    /// The tier does not exist in the tenant's TAG, or is an external
    /// component (which has no placeable VMs to scale).
    UnknownTier {
        /// The tenant addressed.
        tenant: TenantId,
        /// The offending tier id.
        tier: TierId,
    },
    /// A scale request would take the tier size out of range: below 1 VM
    /// (use [`crate::Cluster::depart`] instead of scaling to zero), or so
    /// large that the resized TAG breaks
    /// [`cm_core::model::Tag::cut_bound_kbps`].
    InvalidScale {
        /// The tenant addressed.
        tenant: TenantId,
        /// The tier addressed.
        tier: TierId,
        /// The tier's current size.
        current: u32,
        /// The requested delta.
        delta: i64,
    },
    /// An active-pair list referenced VM indices outside the tenant's
    /// placement (or a self-pair) — stale after a scale-in, typically.
    InvalidPair {
        /// The tenant addressed.
        tenant: TenantId,
        /// The offending pair's source VM index.
        src: usize,
        /// The offending pair's destination VM index.
        dst: usize,
        /// VMs the tenant currently has placed.
        vms: usize,
    },
    /// A raw substrate operation failed (surfaced by custom controllers
    /// built on the same error type; `Cluster` itself stages all mutations
    /// transactionally and reports `Rejected` instead).
    Topology(TopologyError),
    /// A lifecycle operation (scale, migrate) addressed a tenant with
    /// unrepaired fault damage. Damaged deployments can disagree with
    /// their admitted model (an evicted tenant has no VMs at all), so
    /// incremental ops have no consistent base;
    /// [`crate::Cluster::repair_tenant`] first.
    Damaged(TenantId),
    /// [`crate::Cluster::repair_tenant`] was asked to repair a tenant that
    /// carries no fault damage (never hit by a fault, or already repaired).
    NothingToRepair(TenantId),
    /// A repair could not re-place a tenant's lost VMs — the capacity is
    /// still gone (another fault active, or the datacenter filled up while
    /// degraded). The deployment is left in its consistent degraded state;
    /// retry after more capacity returns.
    RepairFailed {
        /// The tenant whose repair failed.
        tenant: TenantId,
        /// Why the re-placement of the lost VMs was rejected.
        reason: RejectReason,
    },
}

impl CmError {
    /// The placement-level rejection, when that is what this error is.
    pub fn reject_reason(&self) -> Option<RejectReason> {
        match self {
            CmError::Rejected(r) => Some(*r),
            CmError::RepairFailed { reason, .. } => Some(*reason),
            _ => None,
        }
    }
}

impl std::fmt::Display for CmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmError::Rejected(r) => write!(f, "placement rejected: {r}"),
            CmError::UnknownTenant(id) => write!(f, "{id} is not live in this cluster"),
            CmError::InvalidTag(e) => write!(f, "invalid TAG: {e}"),
            CmError::UnknownTier { tenant, tier } => {
                write!(f, "{tenant} has no scalable tier {tier}")
            }
            CmError::InvalidScale {
                tenant,
                tier,
                current,
                delta,
            } => write!(
                f,
                "{tenant} tier {tier}: scaling {current} VMs by {delta:+} is out of range"
            ),
            CmError::InvalidPair {
                tenant,
                src,
                dst,
                vms,
            } => write!(
                f,
                "{tenant}: active pair ({src}, {dst}) invalid for {vms} placed VMs"
            ),
            CmError::Topology(e) => write!(f, "topology operation failed: {e}"),
            CmError::Damaged(id) => {
                write!(f, "{id} has unrepaired fault damage; repair it first")
            }
            CmError::NothingToRepair(id) => {
                write!(f, "{id} has no fault damage to repair")
            }
            CmError::RepairFailed { tenant, reason } => {
                write!(f, "{tenant}: repair could not re-place lost VMs: {reason}")
            }
        }
    }
}

impl std::error::Error for CmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CmError::Rejected(r) => Some(r),
            CmError::InvalidTag(e) => Some(e),
            CmError::Topology(e) => Some(e),
            CmError::RepairFailed { reason, .. } => Some(reason),
            _ => None,
        }
    }
}

impl From<RejectReason> for CmError {
    fn from(r: RejectReason) -> CmError {
        CmError::Rejected(r)
    }
}

impl From<TagError> for CmError {
    fn from(e: TagError) -> CmError {
        CmError::InvalidTag(e)
    }
}

impl From<TopologyError> for CmError {
    fn from(e: TopologyError) -> CmError {
        CmError::Topology(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_chain_reaches_the_reject_reason() {
        let e: CmError = RejectReason::InsufficientBandwidth.into();
        assert_eq!(e.reject_reason(), Some(RejectReason::InsufficientBandwidth));
        let src = std::error::Error::source(&e).expect("has a source");
        assert_eq!(src.to_string(), "insufficient bandwidth");
        assert!(e.to_string().contains("insufficient bandwidth"));
    }

    #[test]
    fn question_mark_works_across_error_types() {
        fn lifecycle() -> Result<(), CmError> {
            Err(RejectReason::InsufficientSlots)?
        }
        fn substrate() -> Result<(), CmError> {
            Err(TopologyError::InsufficientBandwidth {
                node: cm_topology::NodeId(3),
            })?
        }
        assert!(matches!(lifecycle().unwrap_err(), CmError::Rejected(_)));
        assert!(matches!(substrate().unwrap_err(), CmError::Topology(_)));
    }
}
