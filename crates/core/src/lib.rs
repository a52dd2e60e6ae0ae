//! # cm-core
//!
//! Core of the CloudMirror reproduction ("Application-Driven Bandwidth
//! Guarantees in Datacenters", SIGCOMM 2014): the **Tenant Application
//! Graph** abstraction, the bandwidth-cut mathematics, and the CloudMirror
//! **VM placement algorithm** with its high-availability extensions.
//!
//! ## Quick start
//!
//! ```
//! use cm_core::model::TagBuilder;
//! use cm_core::placement::{CmConfig, CmPlacer, Placer};
//! use cm_topology::{mbps, Topology, TreeSpec};
//!
//! // Describe the application (Fig. 2(a)): web/logic/db with inter-tier
//! // guarantees and a db-internal hose.
//! let mut b = TagBuilder::new("shop");
//! let web = b.tier("web", 6);
//! let logic = b.tier("logic", 6);
//! let db = b.tier("db", 4);
//! b.sym_edge(web, logic, mbps(500.0)).unwrap();
//! b.sym_edge(logic, db, mbps(100.0)).unwrap();
//! b.self_loop(db, mbps(50.0)).unwrap();
//! let tag = b.build().unwrap();
//!
//! // Deploy it on a small datacenter.
//! let mut topo = Topology::build(&TreeSpec::small(
//!     2, 2, 4, 4, [mbps(1000.0), mbps(2000.0), mbps(4000.0)],
//! ));
//! let mut placer = CmPlacer::new(CmConfig::cm());
//! let deployed = placer.place(&mut topo, &tag).expect("fits");
//! assert_eq!(deployed.total_placed(&topo), 16);
//!
//! // ... and release it.
//! deployed.release(&mut topo);
//! ```
//!
//! Every algorithm in the workspace — CloudMirror and the Oktopus/SecondNet
//! baselines — implements the same [`placement::Placer`] trait and returns
//! the same [`placement::Deployed`] handle, so simulators, experiment
//! drivers and benches are written once against the trait.
//!
//! ## Modules
//!
//! * [`model`] — TAG, generalized VOC, VC and pipe models.
//! * [`cut`] — the [`cut::CutModel`] trait: Eq. 1 / footnote 7 cut pricing.
//! * [`reserve`] — per-tenant placement + bandwidth reservation ledger.
//! * [`txn`] — transactional staging over the ledger: savepoints, commit,
//!   exact rollback.
//! * [`placement`] — the unified [`placement::Placer`] engine and the
//!   CloudMirror placer (Algorithm 1, §4.5 HA). Admission is serial: one
//!   tenant at a time searches the tree, prices cuts and commits.

/// Min-cut bandwidth model over the tenant virtual network.
pub mod cut;
/// Small deterministic hash primitives for placement tie-breaking.
pub mod fasthash;
/// The tenant-side abstraction: TAG virtual networks and their components.
pub mod model;
/// Placement engines: the shared search loop and CloudMirror.
pub mod placement;
/// The sanctioned reservation layer: every `Topology` mutation flows through here.
pub mod reserve;
/// Undo-logged reservation transactions with all-or-nothing rollback.
pub mod txn;

pub use cut::CutModel;
pub use model::{Tag, TagBuilder, TierId};
pub use placement::{CmConfig, CmPlacer, Deployed, Evacuation, HaPolicy, Placer, RejectReason};
pub use reserve::TenantState;
pub use txn::{ReservationTxn, Savepoint, UndoLog};
