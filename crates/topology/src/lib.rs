//! # cm-topology
//!
//! Tree-shaped datacenter topology substrate for CloudMirror (SIGCOMM 2014).
//!
//! The paper deploys tenants onto "tree-shaped physical topologies" (§4): a
//! single-rooted tree whose leaves are servers with VM slots and whose every
//! non-root node has one *uplink* to its parent with independent capacity in
//! each direction. This crate provides exactly that substrate:
//!
//! * [`TreeSpec`] — declarative description of a tree (fanouts, per-level
//!   uplink capacities, slots per server), including the paper's evaluation
//!   datacenter (2048 servers, 25 slots each, 10 G server uplinks,
//!   32:8:1 oversubscription — §5 "Simulation Setup").
//! * [`Topology`] — the instantiated tree with slot accounting on servers and
//!   directional bandwidth accounting on every uplink.
//!
//! Bandwidth is carried as integer **kbps** ([`Kbps`]) so that admission
//! decisions are exact: there is no floating-point drift in capacity checks
//! no matter how many tenants are reserved and released.
//!
//! Levels are numbered bottom-up: level 0 is the server level (the paper's
//! `FindLowestSubtree(g, 0)` starts there), and `num_levels() - 1` is the
//! root. A "subtree at level L" is identified by its top [`NodeId`].
//!
//! The crate is deliberately free of placement policy: reservation semantics
//! (which bandwidth a tenant needs on a cut) live in `cm-core`; this crate
//! only enforces physical capacity.
//!
//! ## Incremental aggregates and the descend search
//!
//! Beyond raw accounting, every mutation maintains a set of aggregates so
//! the placement hot path never scans a level:
//!
//! * **`sub_slots_free`** — free slots per subtree (the original scheme);
//! * **max-free-per-target-level** — for each node and each level `L`
//!   below it, the largest `sub_slots_free` of any descendant subtree
//!   rooted at `L`. A slot mutation recomputes each row on the server's
//!   parent path from the children's rows.
//! * **cached uplink availability** — `capacity − used` per direction,
//!   updated by [`Topology::adjust_uplink`];
//! * **per-level totals** — reserved bandwidth, capacity, and the §4.5
//!   availability half-sum per level, making
//!   [`Topology::reserved_at_level`] / [`Topology::capacity_at_level`] /
//!   [`Topology::avail_half_sum_at_level`] O(1).
//!
//! [`Topology::descend_to_level`] implements `FindLowestSubtree` on top:
//! a branch-and-bound walk root→target-level that visits children in id
//! order, threads the running path-minimum of available bandwidth, and
//! skips every child whose max-free bound cannot beat the incumbent — the
//! same subtree the full linear scan would pick. Because the aggregates
//! are maintained *inside* `alloc_slots`/`release_slots`/`adjust_uplink`,
//! transactional rollback in `cm-core` (which replays exact inverse
//! operations) keeps them correct by construction;
//! [`Topology::check_invariants`] recomputes every aggregate brute-force
//! for the property tests.

#![expect(
    clippy::disallowed_methods,
    reason = "the defining crate: the mutators, their tests and their own maintenance"
)]

mod spec;
mod tree;
mod units;

pub use spec::TreeSpec;
pub use tree::{NodeId, Topology, TopologyError};
pub use units::{gbps, kbps_to_gbps, kbps_to_mbps, mbps, Kbps, UNLIMITED_KBPS};
