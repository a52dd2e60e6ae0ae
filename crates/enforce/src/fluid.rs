//! Fluid-flow network: max-min fair rate allocation with floors, caps and
//! weights.
//!
//! Steady-state TCP throughput over a capacitated network is classically
//! modeled as (weighted) max-min fairness; progressive filling computes it
//! exactly in the fluid limit. Floors model enforced guarantees (rate
//! limiters never throttle a pair below its guarantee), caps model rate
//! limiters, weights model the guarantee-proportional spare sharing that
//! ElasticSwitch's probing converges to.
//!
//! Progressive filling is implemented **once**, in the crate-private
//! kernel `Fluid::fill`, over a `Layout`: flows in slots (each with its
//! path, parameters and last rate), an ascending link list with one
//! key-ordered row of flows per link, and per-link floor sums. The kernel
//! reads no
//! [`FlowSpec`]; it advances a single fill level, and every round
//! provably freezes at least one flow. A round reads only the links a
//! min-heap of saturation levels says may be its event or saturate, and
//! the links of the flows it freezes. Each link keeps an *anchor*, its
//! residual at some fill level, so a read at any level is one expression,
//! whatever the rounds the link missed; a freeze re-anchors the links it
//! touches before their weight sums change. Debug builds check each round
//! against every live link read eagerly.
//! A layout's fill can resume from the log of its last one at the first
//! round its changes could alter (see `Fluid::fill`).
//! It has two callers.
//! [`crate::incremental::IncrementalFluid`], the traffic engine's solver,
//! keeps one layout per connected component across solves and patches
//! only the components churn touched (see that module's docs for the
//! partition and determinism invariants). [`Fluid::rates`] builds one
//! layout over every flow and every link; the hand-built networks of
//! [`crate::scenario`] and the tests solve that way.
//!
//! The kernel is tested against two independent oracles that share no
//! code with it and live in the `fluid` module of the dev-only
//! `cm-testkit` crate: the pre-rewrite `O(flows × links)` scan (a
//! different algorithm) and the KKT definition of the allocation.

#![warn(clippy::float_cmp)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One flow: a path over link indices plus its rate-control parameters.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Links the flow traverses (indices into the fluid network's links).
    /// Order is irrelevant; a link must not appear twice.
    pub path: Vec<usize>,
    /// Application demand (kbps; `f64::INFINITY` for a greedy TCP flow).
    pub demand: f64,
    /// Guaranteed floor (kbps) — granted before any fair sharing.
    pub floor: f64,
    /// Weight for sharing capacity beyond the floors.
    pub weight: f64,
}

impl FlowSpec {
    /// A greedy (infinite-demand) flow with no guarantee and unit weight.
    pub fn greedy(path: Vec<usize>) -> Self {
        FlowSpec {
            path,
            demand: f64::INFINITY,
            floor: 0.0,
            weight: 1.0,
        }
    }

    /// Set the guaranteed floor and use it as the sharing weight
    /// (ElasticSwitch shares spare bandwidth in proportion to guarantees).
    /// Only an exactly-zero guarantee keeps a token unit weight so the flow
    /// still participates in the fill; any positive guarantee — however
    /// small — shares spare capacity in exact proportion to it. (The old
    /// `g.max(1.0)` clamp made every sub-kbps guarantee share as if it were
    /// 1 kbps, collapsing unequal small guarantees into equal shares.)
    /// Note the declared discontinuity at zero: a sub-unit guarantee weighs
    /// *less* than the 1.0 token of an unguaranteed flow — guarantees are
    /// kbps-scale in practice, and callers who care can set
    /// [`FlowSpec::weight`] directly.
    pub fn with_guarantee(mut self, g: f64) -> Self {
        self.floor = g;
        self.weight = if g > 0.0 { g } else { 1.0 };
        self
    }
}

/// Make room for `n` elements in `v` at once, with an eighth to spare: a
/// pooled buffer grows in one step, not through a chain of doublings
/// whose abandoned halves outlive the step.
pub(crate) fn reserve_for<T>(v: &mut Vec<T>, n: usize) {
    if v.capacity() < n {
        v.reserve_exact(n + n / 8 - v.len());
    }
}

/// Give back the memory of a buffer holding over four times `n` elements
/// (and more than 64), keeping room for `n` and an eighth.
fn fit<T>(v: &mut Vec<T>, n: usize) {
    if v.capacity() > 4 * n.max(16) {
        v.clear();
        v.shrink_to(n + n / 8);
    }
}

/// Give most of a buffer back when it exceeds 64 KiB and holds over four
/// times its `len`: a one-off peak (the first solve, a large merge) must
/// not keep its memory for the rest of the run.
pub(crate) fn trim<T>(v: &mut Vec<T>) {
    let cap = v.capacity();
    if cap * std::mem::size_of::<T>() > 1 << 16 && cap > 4 * v.len() {
        v.shrink_to(2 * v.len());
    }
}

/// Where a row of [`Rows`] lives in the arena: `len` items from `at`,
/// with room for `cap` there.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    at: u32,
    len: u32,
    cap: u32,
}

/// Rows of `u32`s in one arena: row `r` is `items[at..at + len]` of its
/// span. A row edited in place keeps its room; one that outgrows it moves
/// to the end of the arena, and the room rows leave behind (`garbage`) is
/// reclaimed by [`Rows::compact`] once it is over a quarter of the arena.
/// Buffers grow by an eighth at a time, not by doubling: a layout's rows
/// and paths are kept, so their slack is kept too.
#[derive(Debug, Default)]
pub(crate) struct Rows {
    span: Vec<Span>,
    items: Vec<u32>,
    garbage: usize,
}

/// Pooled scratch of [`Rows::gather`] and [`Rows::compact`].
#[derive(Debug, Default)]
pub(crate) struct RowScratch {
    /// The spans being re-listed.
    spans: Vec<Span>,
    /// Every row with room, in arena order.
    order: Vec<u32>,
}

impl RowScratch {
    /// Make room to compact `rows` without growing: a compaction comes
    /// whenever garbage builds up, so its scratch is sized beforehand.
    pub(crate) fn fit_for(&mut self, rows: &Rows) {
        reserve_for(&mut self.order, rows.len());
    }
}

impl Rows {
    /// Row `r`.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[u32] {
        let s = self.span[r];
        &self.items[s.at as usize..(s.at + s.len) as usize]
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.span.len()
    }

    /// Number of items the rows have room for.
    pub(crate) fn num_items(&self) -> usize {
        self.items.len() - self.garbage
    }

    pub(crate) fn clear(&mut self) {
        self.span.clear();
        self.items.clear();
        self.garbage = 0;
    }

    /// Append a row.
    #[inline]
    pub(crate) fn push_row(&mut self, row: impl ExactSizeIterator<Item = u32>) {
        let at = self.items.len() as u32;
        let (n, rows) = (self.items.len() + row.len(), self.span.len() + 1);
        reserve_for(&mut self.items, n);
        reserve_for(&mut self.span, rows);
        self.items.extend(row);
        let len = self.items.len() as u32 - at;
        self.span.push(Span { at, len, cap: len });
    }

    /// Room for `n` items at the end of the arena, at the returned
    /// position. An arena that would outgrow its buffer while holding
    /// garbage is compacted first: it grows only when its rows do.
    fn room(&mut self, n: usize, scratch: &mut RowScratch) -> usize {
        if self.items.len() + n > self.items.capacity() && self.garbage > 0 {
            self.compact_now(scratch);
        }
        let at = self.items.len();
        reserve_for(&mut self.items, at + n);
        self.items.resize(at + n, 0);
        at
    }

    /// Make row `r` (`r <= len()`, appended if equal) hold `row`.
    pub(crate) fn set_row(
        &mut self,
        r: usize,
        row: impl ExactSizeIterator<Item = u32>,
        scratch: &mut RowScratch,
    ) {
        if r == self.span.len() {
            self.push_row(row);
            return;
        }
        let n = row.len() as u32;
        if n > self.span[r].cap {
            let at = self.room(n as usize, scratch) as u32;
            self.garbage += self.span[r].cap as usize;
            self.span[r] = Span { at, len: 0, cap: n };
        }
        let s = &mut self.span[r];
        s.len = n;
        let at = s.at as usize;
        for (slot, x) in self.items[at..at + n as usize].iter_mut().zip(row) {
            *slot = x;
        }
    }

    /// Keep the items of row `r` that `keep` accepts, in order.
    pub(crate) fn retain(&mut self, r: usize, mut keep: impl FnMut(u32) -> bool) {
        let s = &mut self.span[r];
        let row = &mut self.items[s.at as usize..(s.at + s.len) as usize];
        let mut w = 0;
        for k in 0..row.len() {
            if keep(row[k]) {
                row[w] = row[k];
                w += 1;
            }
        }
        s.len = w as u32;
    }

    /// Make room for `n` more items at once.
    pub(crate) fn reserve(&mut self, n: usize) {
        let end = self.items.len() + n;
        reserve_for(&mut self.items, end);
    }

    /// Empty row `r`; it keeps its room for what it holds next.
    pub(crate) fn free_row(&mut self, r: usize) {
        self.span[r].len = 0;
    }

    /// Re-list the rows: new row `k` is old row `from[k]`, or empty if
    /// that is `None`; every old row not taken gives its room back.
    pub(crate) fn gather(
        &mut self,
        from: impl Iterator<Item = Option<u32>>,
        scratch: &mut RowScratch,
    ) {
        let mut freed: usize = self.span.iter().map(|s| s.cap as usize).sum();
        let spans = &mut scratch.spans;
        spans.clear();
        for f in from {
            let s = f.map_or(Span::default(), |f| self.span[f as usize]);
            freed -= s.cap as usize;
            spans.push(s);
        }
        self.span.clear();
        reserve_for(&mut self.span, spans.len());
        self.span.extend_from_slice(spans);
        self.garbage += freed;
    }

    /// Drop the items at ascending positions `at` of row `r`, moving each
    /// block between them once.
    pub(crate) fn remove_at(&mut self, r: usize, at: &[u32]) {
        if at.is_empty() {
            return;
        }
        let s = &mut self.span[r];
        let base = s.at as usize;
        let row = &mut self.items[base..base + s.len as usize];
        let mut w = at[0] as usize;
        for (j, &p) in at.iter().enumerate() {
            let end = at.get(j + 1).map_or(row.len(), |&q| q as usize);
            row.copy_within(p as usize + 1..end, w);
            w += end - p as usize - 1;
        }
        s.len = w as u32;
    }

    /// Insert into row `r` each `(position, item)` of `ins` (positions
    /// ascending, taken in the row as it stands; equal ones keep their
    /// order), moving each block of the row once. A row without room for
    /// them moves to the end of the arena, with an eighth to spare.
    pub(crate) fn insert_at(&mut self, r: usize, ins: &[(u32, u32)], scratch: &mut RowScratch) {
        let (len, m) = (self.span[r].len as usize, ins.len());
        let (src, dst) = if len + m <= self.span[r].cap as usize {
            (self.span[r].at as usize, self.span[r].at as usize)
        } else {
            let cap = len + m + (len + m) / 8 + 2;
            let dst = self.room(cap, scratch);
            let s = &mut self.span[r];
            self.garbage += s.cap as usize;
            let src = s.at as usize;
            s.at = dst as u32;
            s.cap = cap as u32;
            (src, dst)
        };
        self.span[r].len = (len + m) as u32;
        // Back to front: every read is at or below the write it precedes.
        let mut end = len;
        for (j, &(p, x)) in ins.iter().enumerate().rev() {
            let p = p as usize;
            self.items.copy_within(src + p..src + end, dst + p + j + 1);
            self.items[dst + p + j] = x;
            end = p;
        }
        if src != dst {
            self.items.copy_within(src..src + end, dst);
        }
    }

    /// Reclaim the garbage once it is over a quarter of the arena: every
    /// row moves down in arena order, keeping its room.
    pub(crate) fn compact(&mut self, scratch: &mut RowScratch) {
        if self.garbage > self.items.len() / 4 {
            self.compact_now(scratch);
        }
    }

    fn compact_now(&mut self, scratch: &mut RowScratch) {
        let order = &mut scratch.order;
        order.clear();
        order.extend((0..self.span.len() as u32).filter(|&r| self.span[r as usize].cap > 0));
        order.sort_unstable_by_key(|&r| self.span[r as usize].at);
        let mut w = 0u32;
        for &r in order.iter() {
            let s = &mut self.span[r as usize];
            self.items
                .copy_within(s.at as usize..(s.at + s.len) as usize, w as usize);
            s.at = w;
            w += s.cap;
        }
        self.items.truncate(w as usize);
        self.garbage = 0;
    }

    /// Make `out` the transpose over `cols` columns (every item is below
    /// `cols`): row `c` of `out` lists the rows holding `c`, ascending.
    /// A counting sort: the counts land in `out`'s spans, whose prefix
    /// sums then serve as write cursors.
    pub(crate) fn transpose_into(&self, cols: usize, out: &mut Rows) {
        out.clear();
        out.span.resize(cols, Span::default());
        for r in 0..self.len() {
            for &c in self.row(r) {
                out.span[c as usize].cap += 1;
            }
        }
        let mut at = 0;
        for s in &mut out.span {
            s.at = at;
            at += s.cap;
        }
        out.items.resize(at as usize, 0);
        for r in 0..self.len() {
            for &c in self.row(r) {
                let s = &mut out.span[c as usize];
                out.items[(s.at + s.len) as usize] = r as u32;
                s.len += 1;
            }
        }
    }

    /// [`fit`] every buffer to `rows` rows of `items` items.
    fn fit(&mut self, rows: usize, items: usize) {
        fit(&mut self.span, rows);
        fit(&mut self.items, items);
    }

    /// Renumber the rows: row `r` becomes row `map[r]`, or is dropped if
    /// that is `FREE`; the kept rows keep their order.
    fn renumber(&mut self, map: &[u32]) {
        let mut w = 0;
        for (r, &to) in map.iter().enumerate() {
            let s = self.span[r];
            match to {
                FREE => self.garbage += s.cap as usize,
                _ => {
                    self.span[w] = s;
                    w += 1;
                }
            }
        }
        self.span.truncate(w);
    }

    /// Map every item of every row through `map`; returns the items mapped.
    fn map_items(&mut self, map: &[u32]) -> usize {
        let mut n = 0;
        for s in &self.span {
            for x in &mut self.items[s.at as usize..(s.at + s.len) as usize] {
                *x = map[*x as usize];
            }
            n += s.len as usize;
        }
        n
    }

    /// Whether `self` and `other` hold the same rows: the debug
    /// re-derivation check.
    #[cfg(debug_assertions)]
    pub(crate) fn same(&self, other: &Rows) -> bool {
        self.len() == other.len() && (0..self.len()).all(|r| self.row(r) == other.row(r))
    }
}

/// [`Layout::flows`] of a free slot.
pub(crate) const FREE: u32 = u32::MAX;

/// [`FillLog::froze`] of a flow still active when phase 2 ended;
/// [`FillLog::sat`] of a link that never saturated.
pub(crate) const NEVER: u32 = u32::MAX;
/// [`FillLog::sat`] of a link whose log is void: touched since the last
/// fill, or new to the layout; [`FillLog::remap`] of a link whose log is
/// dropped.
pub(crate) const CHANGED: u32 = u32::MAX - 1;
/// A flow event in [`Round::event`]: its stable id under this bit.
const FLOW_EVENT: u32 = 1 << 31;

/// A link's phase-2 state: its anchor (residual at fill level `level`),
/// active weight sum and active count.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkAt {
    residual: f64,
    level: f64,
    wsum: f64,
    wcount: u32,
}

/// One logged filling round.
#[derive(Debug, Clone, Copy)]
struct Round {
    /// The fill level after it.
    fill: f64,
    /// Its fill step.
    t: f64,
    /// Its event: a global link, or a stable flow id under `FLOW_EVENT`.
    event: u32,
    /// The end of its freezes in [`FillLog::frozen`].
    frozen: u32,
}

/// A breakpoint: a link's state after a round that froze one of its
/// flows, anchored at that round's fill level.
#[derive(Debug, Clone, Copy)]
struct Bp {
    residual: f64,
    wsum: f64,
    wcount: u32,
    round: u32,
    /// The local link.
    link: u32,
}

/// The log of a layout's last fill (see [`Fluid::fill`]): enough to
/// restore the kernel's state at the start of any logged round. Pooled
/// with its layout.
#[derive(Debug, Default)]
pub(crate) struct FillLog {
    /// Whether the log describes the layout's last fill.
    ok: bool,
    /// Whether the layout's fills write the log: set by its owner before
    /// a fill (see [`FillLog::keep`]).
    keep: bool,
    /// Whether that fill's phase 1 scaled a link.
    scaled: bool,
    /// Slot → 1 + the round its flow froze in, `NEVER` if it never froze;
    /// 0 if it was inactive when phase 2 began, if the flow is new to the
    /// layout since (see `added`), or if the slot is free: a released slot
    /// is reset, so a flow that takes it over inherits no round.
    pub(crate) froze: Vec<u32>,
    /// The slots in the order their flows froze, round after round (each
    /// round's end in [`Round::frozen`]), then those that never froze,
    /// ascending. A resume reopens what froze from its round on.
    frozen: Vec<u32>,
    /// Local link → its state when phase 2 began, anchored at level 0.
    pub(crate) start: Vec<LinkAt>,
    /// Local link → the round it saturated in, `NEVER`, or `CHANGED`.
    pub(crate) sat: Vec<u32>,
    rounds: Vec<Round>,
    /// The breakpoints, in round order.
    bps: Vec<Bp>,
    /// Set by the layout's patch (and split): the local link each link of
    /// the logged fill became, or `CHANGED` (it was touched, or left the
    /// layout).
    pub(crate) remap: Vec<u32>,
    /// Set by the layout's patch (and split): no round from this one on
    /// may be reused (a removed flow, or one of another piece of a split,
    /// froze in it, or a touched link saturated in it).
    pub(crate) cut: u32,
    /// Set by the layout's patch (and split), if the log is valid: the
    /// slots of the flows it added.
    pub(crate) added: Vec<u32>,
}

impl FillLog {
    /// Empty the log, keeping every allocation.
    fn clear(&mut self) {
        self.ok = false;
        self.keep = false;
        self.froze.clear();
        self.frozen.clear();
        self.start.clear();
        self.sat.clear();
        self.rounds.clear();
        self.bps.clear();
        self.remap.clear();
        self.cut = u32::MAX;
        self.added.clear();
    }

    /// Void the log: the layout's next fill starts from round 0.
    #[cfg(debug_assertions)]
    pub(crate) fn forget(&mut self) {
        self.ok = false;
    }

    /// Whether the log describes the layout's last fill.
    pub(crate) fn ok(&self) -> bool {
        self.ok
    }

    /// Whether the layout's next fills write the log. A log not kept is
    /// void, so that fill starts from round 0; a kept one lets the fill
    /// after it resume.
    pub(crate) fn keep(&mut self, on: bool) {
        self.keep = on;
        self.ok &= on;
    }

    /// Whether the layout's fills write the log.
    #[cfg(debug_assertions)]
    pub(crate) fn kept(&self) -> bool {
        self.keep
    }

    /// Whether `self` and `other` log the same fill, floats by their bits
    /// (breakpoints compared by round and link, their order within a round
    /// being free): the debug re-derivation check.
    #[cfg(debug_assertions)]
    pub(crate) fn same(&self, other: &FillLog) -> bool {
        // Each round's breakpoints, one per link, in any order.
        let bp = |b: &Bp| {
            (
                b.round,
                b.link,
                b.residual.to_bits(),
                b.wsum.to_bits(),
                b.wcount,
            )
        };
        let same_bps = self.bps.len() == other.bps.len()
            && self.bps.chunk_by(|a, b| a.round == b.round).all(|group| {
                let r = group[0].round;
                let from = other.bps.partition_point(|b| b.round < r);
                let theirs = &other.bps[from..other.bps.partition_point(|b| b.round <= r)];
                theirs.len() == group.len()
                    && group.iter().all(|a| theirs.iter().any(|b| bp(a) == bp(b)))
            });
        self.ok == other.ok && (!self.ok || self.same_fill(other, same_bps))
    }

    #[cfg(debug_assertions)]
    fn same_fill(&self, other: &FillLog, same_bps: bool) -> bool {
        let at = |a: &LinkAt| (a.residual.to_bits(), a.wsum.to_bits(), a.wcount);
        let round = |r: &Round| (r.fill.to_bits(), r.t.to_bits(), r.event, r.frozen);
        self.scaled == other.scaled
            && self.froze == other.froze
            && self.frozen == other.frozen
            && self.start.iter().map(at).eq(other.start.iter().map(at))
            && self.sat == other.sat
            && self
                .rounds
                .iter()
                .map(round)
                .eq(other.rounds.iter().map(round))
            && self.bps.windows(2).all(|w| w[0].round <= w[1].round)
            && same_bps
    }
}

/// A flow's kernel parameters: starting rate `floor.min(demand)`, demand,
/// weight, and its rate after the layout's last fill.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Params {
    pub(crate) init: f64,
    pub(crate) demand: f64,
    pub(crate) weight: f64,
    pub(crate) rate: f64,
}

impl Params {
    /// The parameters of a flow new to a layout.
    pub(crate) fn of(f: &FlowSpec) -> Params {
        let init = f.floor.min(f.demand);
        Params {
            init,
            demand: f.demand,
            weight: f.weight,
            rate: init,
        }
    }
}

/// The kernel's input: a subproblem of the network flattened once. Each
/// flow sits in a *slot* it keeps while it stays in the layout (a removed
/// flow's slot is free for the next added one), so its path, parameters,
/// rate and fill-log entry never move. The links are ascending; "local"
/// links are positions among them. Each local link keeps a *row*: the
/// slots of its flows in key order. Every per-link sum runs along a row
/// and every other flow-order loop along `finite` or a row, so the
/// kernel's result is a pure function of the flows, their key order and
/// the listed links' capacities, whatever slots the flows sit in.
#[derive(Debug, Default)]
pub(crate) struct Layout {
    /// Slot → its flow: a stable id in the incremental solver, a flow
    /// index in [`Fluid::rates`]; `FREE` for a free slot.
    pub(crate) flows: Vec<u32>,
    /// The free slots.
    pub(crate) free: Vec<u32>,
    /// The links, ascending (global indices). Every link of every listed
    /// flow's path is here, and no unlisted flow crosses one.
    pub(crate) links: Vec<u32>,
    /// Slot → its flow's global links, in its spec's path order; empty for
    /// a free slot.
    pub(crate) paths: Rows,
    /// Local link → the slots of its flows, in key order.
    pub(crate) rows: Rows,
    /// The slots of the finite-demand flows, in key order.
    pub(crate) finite: Vec<u32>,
    /// Slot → starting rate, `floor.min(demand)` (0 for a free slot).
    pub(crate) init: Vec<f64>,
    /// Slot → demand (0 for a free slot, which is so never active).
    pub(crate) demand: Vec<f64>,
    /// Slot → weight.
    pub(crate) weight: Vec<f64>,
    /// Slot → its flow's rate after the layout's last fill. The kernel
    /// reads and writes it as [`FillScratch::rate`], swapped in by the
    /// layout's owner: a resumed fill keeps the rates it does not reopen.
    pub(crate) rate: Vec<f64>,
    /// Local link → Σ `init` along its row: phase 1's first usage sums.
    pub(crate) floor_sum: Vec<f64>,
    /// The log of the layout's last fill. Its per-slot entries stay with
    /// the flows; its per-link entries are the caller's to rewrite, like
    /// `floor_sum`.
    pub(crate) log: FillLog,
}

impl Layout {
    /// Empty the layout, keeping every allocation.
    pub(crate) fn clear(&mut self) {
        self.flows.clear();
        self.free.clear();
        self.links.clear();
        self.paths.clear();
        self.rows.clear();
        self.finite.clear();
        self.init.clear();
        self.demand.clear();
        self.weight.clear();
        self.rate.clear();
        self.floor_sum.clear();
        self.log.clear();
    }

    /// [`Layout::clear`] on a pooled entry that may have held a much larger
    /// component: a buffer over four times too big for `flows` flows
    /// crossing `items` links in all over `links` links gives its memory
    /// back first.
    pub(crate) fn clear_fit(&mut self, flows: usize, items: usize, links: usize) {
        fit(&mut self.flows, flows);
        fit(&mut self.free, flows);
        self.paths.fit(flows, items);
        self.rows.fit(links, items);
        fit(&mut self.finite, flows);
        fit(&mut self.init, flows);
        fit(&mut self.demand, flows);
        fit(&mut self.weight, flows);
        fit(&mut self.rate, flows);
        fit(&mut self.log.froze, flows);
        fit(&mut self.log.frozen, flows);
        fit(&mut self.log.added, flows);
        fit(&mut self.log.rounds, flows);
        fit(&mut self.log.bps, items);
        fit(&mut self.links, links);
        fit(&mut self.floor_sum, links);
        fit(&mut self.log.start, links);
        fit(&mut self.log.sat, links);
        self.clear();
    }

    /// Once over a quarter of the slots are free, move every flow down to
    /// the lowest slots, in slot order (`map` is pooled scratch: old slot →
    /// new one), so that free slots cost memory only while churn refills
    /// them. Rows, `finite` and the log follow; the fill log must be
    /// complete (no flow added since the last fill). Returns the slots and
    /// row entries renumbered, 0 if it did nothing.
    pub(crate) fn compact_slots(&mut self, map: &mut Vec<u32>, scratch: &mut RowScratch) -> usize {
        let n = self.flows.len();
        if self.free.len() * 4 <= n {
            return 0;
        }
        map.clear();
        map.resize(n, FREE);
        let logged = self.log.ok;
        let mut w = 0;
        for (i, to) in map.iter_mut().enumerate() {
            if self.flows[i] == FREE {
                continue;
            }
            *to = w as u32;
            self.flows[w] = self.flows[i];
            self.init[w] = self.init[i];
            self.demand[w] = self.demand[i];
            self.weight[w] = self.weight[i];
            self.rate[w] = self.rate[i];
            if logged {
                self.log.froze[w] = self.log.froze[i];
            }
            w += 1;
        }
        for v in [
            &mut self.init,
            &mut self.demand,
            &mut self.weight,
            &mut self.rate,
        ] {
            v.truncate(w);
        }
        self.flows.truncate(w);
        self.free.clear();
        self.paths.renumber(map);
        self.paths.compact(scratch);
        let items = self.rows.map_items(map);
        for i in &mut self.finite {
            *i = map[*i as usize];
        }
        if logged {
            self.log.froze.truncate(w);
            for i in &mut self.log.frozen {
                *i = map[*i as usize];
            }
        }
        debug_assert!(self.log.added.is_empty(), "slots compacted before a fill");
        n + items
    }

    /// Make room for `flows` more flows crossing `items` links in all.
    pub(crate) fn reserve(&mut self, flows: usize, items: usize) {
        let n = self.flows.len() + flows.saturating_sub(self.free.len());
        reserve_for(&mut self.flows, n);
        reserve_for(&mut self.init, n);
        reserve_for(&mut self.demand, n);
        reserve_for(&mut self.weight, n);
        reserve_for(&mut self.rate, n);
        if self.log.ok {
            reserve_for(&mut self.log.froze, n);
        }
        self.paths.reserve(items);
    }

    /// Number of flows (slots not free).
    pub(crate) fn live(&self) -> usize {
        self.flows.len() - self.free.len()
    }

    /// Slot `slot`'s parameters.
    pub(crate) fn params(&self, slot: u32) -> Params {
        let i = slot as usize;
        Params {
            init: self.init[i],
            demand: self.demand[i],
            weight: self.weight[i],
            rate: self.rate[i],
        }
    }

    /// Put flow `id`, crossing the global links `path`, in a free slot or
    /// a new one, and return the slot. Rows and `finite` are the caller's
    /// to splice, and so is [`FillLog::added`]; the slot's
    /// [`FillLog::froze`] reads 0.
    pub(crate) fn alloc(
        &mut self,
        id: u32,
        path: impl ExactSizeIterator<Item = u32>,
        p: Params,
        scratch: &mut RowScratch,
    ) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.flows[i] = id;
                self.init[i] = p.init;
                self.demand[i] = p.demand;
                self.weight[i] = p.weight;
                self.rate[i] = p.rate;
                slot
            }
            None => {
                let n = self.flows.len() + 1;
                reserve_for(&mut self.flows, n);
                reserve_for(&mut self.init, n);
                reserve_for(&mut self.demand, n);
                reserve_for(&mut self.weight, n);
                reserve_for(&mut self.rate, n);
                self.flows.push(id);
                self.init.push(p.init);
                self.demand.push(p.demand);
                self.weight.push(p.weight);
                self.rate.push(p.rate);
                (self.flows.len() - 1) as u32
            }
        };
        self.paths.set_row(slot as usize, path, scratch);
        let froze = &mut self.log.froze;
        if self.log.ok && slot as usize == froze.len() {
            reserve_for(froze, froze.len() + 1);
            froze.push(0);
        }
        slot
    }

    /// Free slot `slot`, returning its flow's [`FillLog::froze`] (0 if the
    /// log is void). Rows and `finite` are the caller's to splice.
    pub(crate) fn release(&mut self, slot: u32) -> u32 {
        let i = slot as usize;
        self.flows[i] = FREE;
        self.paths.free_row(i);
        (self.init[i], self.demand[i], self.weight[i], self.rate[i]) = (0.0, 0.0, 0.0, 0.0);
        self.free.push(slot);
        match self.log.ok {
            true => std::mem::replace(&mut self.log.froze[i], 0),
            false => 0,
        }
    }

    /// Append flow `id`, read from its spec, with its finite demand (if
    /// any) last in `finite`. The layout's log is void; its rows are built
    /// apart ([`Layout::index_rows`]).
    pub(crate) fn push_spec(&mut self, id: u32, f: &FlowSpec) {
        let path = f.path.iter().map(|&l| l as u32);
        let slot = self.alloc(id, path, Params::of(f), &mut RowScratch::default());
        if f.demand.is_finite() {
            self.finite.push(slot);
        }
        self.log.ok = false;
    }

    /// Build every row from the paths, slots ascending (so in key order
    /// when slots are), `local` mapping a global link to a local one.
    pub(crate) fn index_rows(&mut self, local: &[u32]) {
        let mut paths = Rows::default();
        for slot in 0..self.flows.len() {
            paths.push_row(self.paths.row(slot).iter().map(|&l| local[l as usize]));
        }
        paths.transpose_into(self.links.len(), &mut self.rows);
    }

    /// Recompute `floor_sum` for every link (a global index) `stale`
    /// selects, summing `init` along its row; sized to `links` first, new
    /// entries zero.
    pub(crate) fn sum_floors(&mut self, stale: impl Fn(u32) -> bool) {
        self.floor_sum.resize(self.links.len(), 0.0);
        for li in 0..self.links.len() {
            if stale(self.links[li]) {
                self.floor_sum[li] = self
                    .rows
                    .row(li)
                    .iter()
                    .map(|&i| self.init[i as usize])
                    .sum();
            }
        }
    }

    /// The same layout with its flows in compact slots, in key order
    /// (`key` of a flow), rows, `finite` and log renumbered to match: what
    /// a layout built afresh from the same flows holds. Debug builds
    /// compare the two.
    #[cfg(debug_assertions)]
    pub(crate) fn canonical(&self, key: impl Fn(u32) -> u128) -> Layout {
        let mut order: Vec<u32> = (0..self.flows.len() as u32)
            .filter(|&i| self.flows[i as usize] != FREE)
            .collect();
        order.sort_unstable_by_key(|&i| key(self.flows[i as usize]));
        let mut pos = vec![FREE; self.flows.len()];
        for (p, &i) in order.iter().enumerate() {
            pos[i as usize] = p as u32;
        }
        let mut out = Layout {
            links: self.links.clone(),
            floor_sum: self.floor_sum.clone(),
            ..Layout::default()
        };
        for &i in &order {
            out.alloc(
                self.flows[i as usize],
                self.paths.row(i as usize).iter().copied(),
                self.params(i),
                &mut RowScratch::default(),
            );
        }
        for li in 0..self.rows.len() {
            out.rows
                .push_row(self.rows.row(li).iter().map(|&i| pos[i as usize]));
        }
        out.finite
            .extend(self.finite.iter().map(|&i| pos[i as usize]));
        let (log, to) = (&self.log, &mut out.log);
        to.ok = log.ok;
        to.keep = log.keep;
        if log.ok {
            to.scaled = log.scaled;
            to.froze = order.iter().map(|&i| log.froze[i as usize]).collect();
            to.frozen = log.frozen.iter().map(|&i| pos[i as usize]).collect();
            let tail = log.rounds.last().map_or(0, |r| r.frozen as usize);
            to.frozen[tail..].sort_unstable();
            to.start = log.start.clone();
            to.sat = log.sat.clone();
            to.rounds = log.rounds.clone();
            to.bps = log.bps.clone();
        }
        out
    }

    /// Whether `self` and `other` are the same layout, floats compared by
    /// their bits: the debug re-derivation check. The logs are compared
    /// apart ([`FillLog::same`]); so are the rates.
    #[cfg(debug_assertions)]
    pub(crate) fn same(&self, other: &Layout) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.flows == other.flows
            && self.links == other.links
            && self.paths.same(&other.paths)
            && self.rows.same(&other.rows)
            && self.finite == other.finite
            && bits(&self.init) == bits(&other.init)
            && bits(&self.demand) == bits(&other.demand)
            && bits(&self.weight) == bits(&other.weight)
            && bits(&self.floor_sum) == bits(&other.floor_sum)
    }
}

/// Scratch of the max-min kernel (`Fluid::fill`): pooled by a caller that
/// solves repeatedly, so steady-state solves allocate nothing. Indices are
/// local to the [`Layout`] solved.
#[derive(Debug, Default)]
pub(crate) struct FillScratch {
    /// Slot → solved rate (the kernel's output; a resumed fill's input,
    /// see [`Layout::rate`]).
    pub(crate) rate: Vec<f64>,
    /// Local link → capacity.
    pub(crate) lcaps: Vec<f64>,
    active: Vec<bool>,
    finite: Vec<u32>,
    used: Vec<f64>,
    /// Local links whose phase-1 sum a scaling made stale.
    stale: Vec<bool>,
    stale_links: Vec<u32>,
    /// Local link → its anchor's residual: after phase 1, its residual
    /// when phase 2 began; in phase 2, its residual at fill level `level`.
    residual: Vec<f64>,
    /// Local link → its anchor's fill level.
    level: Vec<f64>,
    wsum: Vec<f64>,
    wcount: Vec<u32>,
    to_freeze: Vec<u32>,
    /// Every live link (one with `wcount > 0`) once, keyed by the fill
    /// level at which it saturates (a lower bound, see `Fluid::fill`).
    heap: BinaryHeap<Reverse<Key>>,
    /// The links popped this round.
    popped: Vec<u32>,
    /// The links this round saturates.
    saturated: Vec<u32>,
    /// Debug builds: every link's residual at the round's level, read
    /// eagerly, to check each round against.
    #[cfg(debug_assertions)]
    shadow: Vec<f64>,
    /// A changed link's logged freezes: `(round, its place in the round,
    /// index in the link's row)`.
    order: Vec<(u32, u32, u32)>,
    /// Local link → touched by this round's freezes.
    mark: Vec<bool>,
    /// The links this round's freezes touched, in the order first touched,
    /// for their breakpoints and the link visits.
    touched: Vec<u32>,
    /// The changed links' breakpoints a restore replayed.
    rbp: Vec<Bp>,
    /// A restore's reopened slots, a bit each.
    bits: Vec<u64>,
    /// Local links whose log the last solve found void.
    pub(crate) changed: Vec<u32>,
    /// The changed links by the first logged round each could act in,
    /// with their phase-2 start.
    first: Vec<(u32, u32, LinkAt)>,
    /// The flows the last solve re-solved, if it resumed: those active
    /// again from round `reused` on, and those new to the layout and idle
    /// from phase 2's start. Slots ascending.
    pub(crate) reopened: Vec<u32>,
    /// Logged rounds the last solve reused instead of running.
    pub(crate) reused: usize,
    /// Whether the last solve had to start from round 0 (phase 1 scaled a
    /// link, now or in the logged fill, or there was no log).
    pub(crate) full: bool,
    /// Filling rounds of the last solve.
    pub(crate) rounds: usize,
    /// Links the last solve's rounds read: the heap pops plus the links
    /// a round's freezes touched that it did not pop.
    pub(crate) link_visits: usize,
    /// Row entries and fill-log entries the last solve's restore visited:
    /// the changed links' rows it replayed, the freezes it reopened and
    /// the added flows (0 for a fill from round 0).
    pub(crate) restore_items: usize,
}

/// A round's heap entry: a level (see [`ordered`]) above a local
/// link, so entries order by level, then by link.
type Key = u128;

fn key(level: f64, li: u32) -> Key {
    u128::from(ordered(level)) << 32 | u128::from(li)
}

/// `x`'s bits, mapped so that unsigned order is `x`'s order (no NaN
/// reaches here).
#[inline]
fn ordered(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// The fill level at which a link holding `residual` under active weight
/// `wsum` reaches the saturation threshold, from level `fill`: `−∞` if it
/// already has, `+∞` if it never drains.
#[inline]
fn saturation_level(residual: f64, wsum: f64, fill: f64) -> f64 {
    if residual <= 1e-6 {
        f64::NEG_INFINITY
    } else if wsum > 0.0 {
        fill + (residual - 1e-6) / wsum
    } else {
        f64::INFINITY
    }
}

/// How far a heap key may sit above the exact level it bounds, at level
/// `x`. A key and the ratio a later read gives differ only by the rounding
/// of the few operations each takes from the same anchor, a handful of
/// 2⁻⁵³ relative to `|x|`, however many rounds the link missed; the
/// `1e-12` covers `x` near zero. Debug builds check every round against
/// every live link read eagerly.
#[inline]
fn slack(x: f64) -> f64 {
    1e-9 * x.abs() + 1e-12
}

/// The residual at fill level `fill` of a link anchored at `residual` at
/// level `level` under active weight `wsum`: it drains by `wsum` per unit
/// of level, not at all while `wsum ≤ 0`.
#[inline]
fn residual_at(residual: f64, wsum: f64, level: f64, fill: f64) -> f64 {
    if wsum > 0.0 {
        residual - wsum * (fill - level)
    } else {
        residual
    }
}

/// A fluid network: capacitated links and flows. It keeps no per-link
/// index of its flows: [`Fluid::rates`] flattens them per call, and
/// [`crate::incremental::IncrementalFluid`] keeps its own per-component
/// layouts.
#[derive(Debug, Clone, Default)]
pub struct Fluid {
    caps: Vec<f64>,
    flows: Vec<FlowSpec>,
}

impl Fluid {
    /// Create an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a link with the given capacity (kbps, finite and nonnegative);
    /// returns its index.
    pub fn link(&mut self, cap_kbps: f64) -> usize {
        assert!(
            cap_kbps >= 0.0 && cap_kbps.is_finite(),
            "link capacity must be finite and nonnegative: {cap_kbps}"
        );
        self.caps.push(cap_kbps);
        self.caps.len() - 1
    }

    /// Add a flow; returns its index. Its weight must be finite and
    /// positive, its floor finite and nonnegative, and its demand not NaN
    /// (infinite is a greedy flow): the kernel's arithmetic assumes so.
    pub fn flow(&mut self, f: FlowSpec) -> usize {
        for (i, &l) in f.path.iter().enumerate() {
            assert!(l < self.caps.len(), "flow references unknown link {l}");
            debug_assert!(
                !f.path[..i].contains(&l),
                "flow path repeats link {l}; paths must be duplicate-free"
            );
        }
        assert!(
            f.floor >= 0.0 && f.floor.is_finite(),
            "flow floor must be finite and nonnegative: {}",
            f.floor
        );
        assert!(
            f.weight > 0.0 && f.weight.is_finite(),
            "flow weight must be finite and positive: {}",
            f.weight
        );
        assert!(!f.demand.is_nan(), "flow demand must not be NaN");
        self.flows.push(f);
        self.flows.len() - 1
    }

    /// Remove flow `i`: the **last** flow takes over its index
    /// (swap-remove), so callers tracking flow indices must apply that
    /// single rename. Returns the removed spec.
    pub fn remove_flow(&mut self, i: usize) -> FlowSpec {
        self.flows.swap_remove(i)
    }

    /// Drop every flow while keeping all links and their capacities.
    pub fn clear_flows(&mut self) {
        self.flows.clear();
    }

    /// Number of flows.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.caps.len()
    }

    /// Capacity of link `l` (kbps).
    pub fn link_cap(&self, l: usize) -> f64 {
        self.caps[l]
    }

    /// Change the capacity of link `l` (kbps, finite and nonnegative) —
    /// fault injection / repair. Rates computed before the change are
    /// stale; the caller re-solves.
    pub fn set_link_cap(&mut self, l: usize, cap_kbps: f64) {
        assert!(
            cap_kbps >= 0.0 && cap_kbps.is_finite(),
            "link capacity must be finite and nonnegative: {cap_kbps}"
        );
        self.caps[l] = cap_kbps;
    }

    /// The flows in insertion order (rate vectors index into this).
    pub fn flows(&self) -> &[FlowSpec] {
        &self.flows
    }

    /// Compute the weighted max-min fair allocation with floors.
    ///
    /// Phase 1 grants every flow its floor (capped by demand). Floors are
    /// assumed admissible (the placement layer reserved them); if they
    /// oversubscribe a link, they are scaled down proportionally on that
    /// link — mirroring what a real enforcer's rate limiters would do.
    /// Phase 2 progressively fills the remaining capacity in proportion to
    /// the flows' weights until each flow hits its demand or a saturated
    /// link.
    ///
    /// Termination is exact, not capped: every filling round either
    /// saturates the bottleneck link that produced the round's fill step
    /// (freezing its flows) or freezes the flow that reached its demand, so
    /// the loop runs at most `num_flows` rounds. On exit the allocation is
    /// debug-asserted work-conserving: every flow is demand-capped or
    /// crosses a saturated link.
    ///
    /// This lays out every flow in index order over every link and runs
    /// the max-min kernel (`Fluid::fill`) on it, allocating its scratch per
    /// call; the churn path, [`crate::incremental::IncrementalFluid`],
    /// keeps its layouts and pools its scratch.
    pub fn rates(&self) -> Vec<f64> {
        let (lay, local) = self.layout();
        let mut scratch = FillScratch::default();
        self.fill(&lay, &local, &mut scratch, &mut FillLog::default());
        debug_assert!(
            self.is_work_conserving(&scratch.rate),
            "allocation is not work-conserving"
        );
        scratch.rate
    }

    /// Every flow in index order, each in the slot of its index, over
    /// every link, laid out for the kernel; with the map from a global
    /// link to a local one (here the same index).
    fn layout(&self) -> (Layout, Vec<u32>) {
        let mut lay = Layout {
            links: (0..self.caps.len() as u32).collect(),
            ..Layout::default()
        };
        for (i, f) in self.flows.iter().enumerate() {
            lay.push_spec(i as u32, f);
        }
        lay.index_rows(&lay.links.clone());
        lay.sum_floors(|_| true);
        let local = lay.links.clone();
        (lay, local)
    }

    /// The max-min kernel — the one place progressive filling is
    /// implemented (see [`Fluid::rates`] for the two phases and the
    /// termination argument). Solves `lay`, `local` mapping each global
    /// link of its paths to its local link, and leaves slot `i`'s rate in
    /// `s.rate[i]`. The result is a pure function of the layout's flows,
    /// their key order and its links' capacities: links are visited
    /// ascending and each link's flows along its row, in key order, so
    /// nothing else in the network, no slot numbering and no churn history
    /// reaches the arithmetic.
    ///
    /// Phase 1 starts from the layout's floor sums and re-sums only the
    /// rows a scaling touched; every other row holds the same values in
    /// the same order, so its sum is the same bits. Phase 2's rounds drain
    /// lazily: each link keeps an anchor, its residual `r_a` at a fill
    /// level `f_a`, and a read at level `f` is `r_a − wsum·(f − f_a)`
    /// (`residual_at`; `r_a` while `wsum ≤ 0`), one expression however
    /// many rounds the link missed. A read never writes. A min-heap holds
    /// every live link (one still carrying an active flow) keyed by the
    /// fill level at which its anchor reaches the saturation threshold
    /// (`saturation_level`). A round pops the links whose key could beat
    /// the best exact ratio read so far, then those that may saturate at
    /// the new level, and reads them; a popped link that does not saturate
    /// is keyed afresh. The event's link is anchored at exactly zero, and
    /// the saturated links' flows freeze in ascending link order. A freeze
    /// re-anchors each link of the frozen flow's path at the round's level
    /// before its weight sum changes (again in the same round changes
    /// nothing: `x − w·0 = x`), and the link keeps its key: a lower weight
    /// sum only raises the true level, so the old key stays a lower bound
    /// (within `slack`). A round costs its pops plus the frozen flows' path
    /// lengths, not the live links. Debug builds read every live link
    /// eagerly each round and check the round's event (by a scan of every
    /// link), step, saturated links and every lazy read against it.
    ///
    /// Phase 2 also writes `log`, the layout's fill log: each round's
    /// level, step and event, each flow's freeze round, the freezes in
    /// round order, each link's phase-2 start and saturation round, and a
    /// breakpoint (residual, weight sum, active count) for each link after
    /// each round that froze one of its flows (its anchor at that round's
    /// level). When `log` describes the
    /// layout's last fill and neither fill's phase 1 scaled a link, phase
    /// 2 first finds the first logged round the layout's changes since
    /// could alter (`divergence`), restores the state at its start from
    /// the log (`restore`), and runs only the rounds from there on; the
    /// rounds before it would repeat the logged ones bit for bit (see the
    /// incremental module's "Resumed fills"). Such a fill reads `s.rate`
    /// as the layout's rates after its last fill ([`Layout::rate`]) and
    /// touches only the flows it reopens: those frozen from that round on
    /// and those added. Only a log its owner keeps ([`FillLog::keep`]) is
    /// written.
    pub(crate) fn fill(&self, lay: &Layout, local: &[u32], s: &mut FillScratch, log: &mut FillLog) {
        let nll = lay.links.len();
        let FillScratch {
            rate,
            lcaps,
            used,
            stale,
            stale_links,
            residual,
            ..
        } = s;
        lcaps.clear();
        lcaps.extend(lay.links.iter().map(|&l| self.caps[l as usize]));
        let row_sum = |rate: &[f64], li: usize| -> f64 {
            lay.rows.row(li).iter().map(|&i| rate[i as usize]).sum()
        };
        // The worst oversubscribed link and its scale, if any.
        let worst = |used: &[f64]| {
            let mut worst: Option<(usize, f64)> = None;
            for (li, &u) in used.iter().enumerate() {
                if u > lcaps[li] * (1.0 + 1e-9) {
                    let scale = lcaps[li] / u;
                    if worst.is_none_or(|(_, sc)| scale < sc) {
                        worst = Some((li, scale));
                    }
                }
            }
            worst
        };

        // Phase 1: floors capped by demand, defensively scaled on
        // oversubscribed links (worst link first, like the reference). A
        // resumed fill scales nothing and keeps the rates it was handed.
        used.clear();
        used.extend_from_slice(&lay.floor_sum);
        #[cfg(debug_assertions)]
        for (li, u) in used.iter().enumerate() {
            assert_eq!(
                u.to_bits(),
                row_sum(&lay.init, li).to_bits(),
                "phase-1 sum of local link {li} is stale"
            );
        }
        let mut next = worst(used);
        let scaled = next.is_some();
        s.full = !log.ok || log.scaled || scaled;
        if s.full {
            rate.clear();
            rate.extend_from_slice(&lay.init);
        }
        debug_assert_eq!(rate.len(), lay.flows.len(), "rates of another layout");
        stale.clear();
        stale.resize(nll, false);
        while let Some((li, scale)) = next {
            for &i in lay.rows.row(li) {
                rate[i as usize] *= scale;
                for &gl in lay.paths.row(i as usize) {
                    let pl = local[gl as usize];
                    if !std::mem::replace(&mut stale[pl as usize], true) {
                        stale_links.push(pl);
                    }
                }
            }
            for &pl in stale_links.iter() {
                used[pl as usize] = row_sum(rate, pl as usize);
                stale[pl as usize] = false;
            }
            stale_links.clear();
            #[cfg(debug_assertions)]
            for (li, u) in used.iter().enumerate() {
                assert_eq!(
                    u.to_bits(),
                    row_sum(rate, li).to_bits(),
                    "phase-1 sum of local link {li} is stale"
                );
            }
            next = worst(used);
        }
        residual.clear();
        residual.extend(
            lcaps
                .iter()
                .zip(used.iter())
                .map(|(&c, &u)| (c - u).max(0.0)),
        );

        // Phase 2: weighted progressive filling of the residual, driven by
        // one fill level. While flow `i` is active its rate is implicitly
        // `rate[i] + weight[i] × fill`; only the freeze event materializes
        // it, so a round never sweeps all flows or all links. It starts at
        // the first logged round this layout's changes could alter.
        s.reused = if s.full {
            0
        } else {
            s.divergence(lay, local, log)
        };
        s.restore_items = 0;
        log.scaled = scaled;
        let remaining = match s.reused {
            0 => {
                if !s.full {
                    // Nothing to reuse after all: start from the floors.
                    s.rate.clear();
                    s.rate.extend_from_slice(&lay.init);
                }
                s.start_phase2(lay, log)
            }
            k => s.restore(lay, local, log, k),
        };
        s.lazy_keys();
        let fill = log.rounds.last().map_or(0.0, |r| r.fill);
        let fill = s.lazy_rounds(lay, local, remaining, fill, log);
        log.cut = u32::MAX;
        log.added.clear();
        // Flows still active hit no capacitated link and no demand: they
        // are unbounded in the fluid limit; report the filled level reached
        // (matches the reference's early exit). The log lists them last,
        // ascending.
        let resumed = s.reused > 0;
        let FillScratch {
            rate,
            active,
            reopened,
            ..
        } = s;
        let tail = log.frozen.len();
        let mut unbounded = |i: usize| {
            if active[i] {
                rate[i] += lay.weight[i] * fill;
                if log.ok {
                    log.frozen.push(i as u32);
                }
            }
        };
        match resumed {
            false => (0..lay.flows.len()).for_each(&mut unbounded),
            true => reopened.iter().for_each(|&i| unbounded(i as usize)),
        }
        log.frozen[tail..].sort_unstable();
    }
}

/// A changed link's phase-2 start in `lay`: its residual after phase 1
/// (which scaled nothing) and the weights of its flows then active, summed
/// along its row as the kernel sums them.
fn link_start(lay: &Layout, residual: &[f64], li: usize) -> LinkAt {
    let mut at = LinkAt {
        residual: residual[li],
        ..LinkAt::default()
    };
    for &i in lay.rows.row(li) {
        let i = i as usize;
        if lay.init[i] + 1e-9 < lay.demand[i] {
            at.wsum += lay.weight[i];
            at.wcount += 1;
        }
    }
    at
}

/// Replay changed local link `li` from its phase-2 start `at` through the
/// logged rounds before `until`, with the kernel's arithmetic: a round
/// reads it at its levels, and one that froze some of its flows
/// re-anchors it at the round's level before they leave its sums in the
/// round's freeze order; `on_bp` sees it after each such round. Returns
/// the first round it could change: its ratio within `slack` of the
/// round's step (the event, or a tie with it), or its residual at the
/// round's level at the saturation threshold; `until` if none. `at` is
/// then its state entering round `until` (or left idle), anchored where
/// the kernel last anchored it.
///
/// A round freezes the flows of its saturated links by ascending link,
/// each link's along its row, then its event flow, then the flows at their
/// demand in key order. Every link that saturated before `until` kept its
/// log (a changed link that saturated cuts the reuse there), so `sat` and
/// the logged events give each flow its place; flows of one place keep
/// their order along `li`'s row, which is key order.
#[expect(
    clippy::too_many_arguments,
    reason = "the layout, the logged rounds, freezes and saturations, the link, and pooled scratch"
)]
fn replay(
    lay: &Layout,
    local: &[u32],
    rounds: &[Round],
    froze: &[u32],
    sat: &[u32],
    li: usize,
    at: &mut LinkAt,
    until: usize,
    order: &mut Vec<(u32, u32, u32)>,
    mut on_bp: impl FnMut(u32, &LinkAt),
) -> usize {
    let nll = lay.links.len() as u32;
    let row = lay.rows.row(li);
    let place = |r: u32, i: u32| {
        let by = lay
            .paths
            .row(i as usize)
            .iter()
            .map(|&gl| local[gl as usize])
            .filter(|&l| sat[l as usize] == r)
            .min();
        by.unwrap_or(
            match rounds[r as usize].event == lay.flows[i as usize] | FLOW_EVENT {
                true => nll,
                false => nll + 1,
            },
        )
    };
    // `(round, place, index in the row)` of each flow frozen before
    // `until`.
    order.clear();
    order.extend(row.iter().enumerate().filter_map(|(j, &i)| {
        let f = froze[i as usize];
        (f != 0 && f as usize <= until).then(|| (f - 1, 0, j as u32))
    }));
    order.sort_unstable();
    // Only flows that froze in the same round need their place in it.
    for run in order
        .chunk_by_mut(|a, b| a.0 == b.0)
        .filter(|run| run.len() > 1)
    {
        for e in run.iter_mut() {
            e.1 = place(e.0, row[e.2 as usize]);
        }
        run.sort_unstable();
    }
    let mut next = order
        .iter()
        .map(|&(_, _, j)| row[j as usize] as usize)
        .peekable();
    let read = |at: &LinkAt, fill| residual_at(at.residual, at.wsum, at.level, fill);
    let mut before = 0.0;
    for (j, r) in rounds[..until].iter().enumerate() {
        if at.wcount == 0 {
            break;
        }
        if at.wsum > 0.0 && read(at, before) / at.wsum <= r.t + slack(r.t) {
            return j;
        }
        let now = read(at, r.fill);
        if now <= 1e-6 {
            return j;
        }
        before = r.fill;
        if next.peek().is_none_or(|&i| froze[i] as usize != j + 1) {
            continue;
        }
        (at.residual, at.level) = (now, r.fill);
        while let Some(i) = next.next_if(|&i| froze[i] as usize == j + 1) {
            at.wsum -= lay.weight[i];
            at.wcount -= 1;
            if at.wcount == 0 {
                at.wsum = 0.0;
            }
        }
        on_bp(j as u32, at);
    }
    until
}

impl FillScratch {
    /// The first logged round the layout's changes since its last fill
    /// could alter: the least of the patch's `cut`, the logged round
    /// count, each changed link's [`replay`] and the round in which each
    /// added finite-demand flow could reach its demand (its level within
    /// `slack` of the round's step, or within 1e-6 of the demand after
    /// it). Every round before it runs exactly as logged. Lists the
    /// changed links in `changed`.
    fn divergence(&mut self, lay: &Layout, local: &[u32], log: &FillLog) -> usize {
        let mut k = (log.cut as usize).min(log.rounds.len());
        self.changed.clear();
        self.changed
            .extend((0..lay.links.len() as u32).filter(|&li| log.sat[li as usize] == CHANGED));
        // Replay the changed links by the first round each could act in,
        // were none of its flows to freeze (freezes only slow its drain),
        // so that a small k* is found first and bounds the rest.
        self.first.clear();
        for &li in &self.changed {
            let at = link_start(lay, &self.residual, li as usize);
            let level = match (at.wcount, at.wsum > 0.0) {
                (0, _) => continue,
                (_, false) if at.residual > 1e-6 => continue,
                (_, false) => f64::NEG_INFINITY,
                (_, true) => {
                    let level = (at.residual - 1e-6) / at.wsum;
                    level - 1e-6 * (level.abs() + 1.0)
                }
            };
            let first = log.rounds.partition_point(|r| r.fill < level);
            self.first.push((first as u32, li, at));
        }
        self.first
            .sort_unstable_by_key(|&(first, li, _)| (first, li));
        for &(first, li, mut at) in &self.first {
            if first as usize >= k {
                break;
            }
            let (froze, sat) = (&log.froze, &log.sat);
            k = replay(
                lay,
                local,
                &log.rounds,
                froze,
                sat,
                li as usize,
                &mut at,
                k,
                &mut self.order,
                |_, _| {},
            );
        }
        for &i in &log.added {
            let i = i as usize;
            let (d, w, r0) = (lay.demand[i], lay.weight[i], lay.init[i]);
            if !d.is_finite() || r0 + 1e-9 >= d {
                continue;
            }
            let mut before = 0.0;
            for (j, r) in log.rounds[..k].iter().enumerate() {
                let tf = (d - (r0 + w * before)) / w;
                if tf <= r.t + slack(r.t) || r0 + w * r.fill + 1e-6 >= d {
                    k = j;
                    break;
                }
                before = r.fill;
            }
        }
        k
    }

    /// Phase 2's state at round 0, logged as the layout's fresh log if
    /// the log is kept. Returns the active flows.
    fn start_phase2(&mut self, lay: &Layout, log: &mut FillLog) -> usize {
        let (n, nll) = (lay.flows.len(), lay.links.len());
        let FillScratch {
            rate,
            active,
            finite,
            residual,
            level,
            wsum,
            wcount,
            mark,
            touched,
            ..
        } = self;
        mark.clear();
        mark.resize(nll, false);
        touched.clear();
        level.clear();
        level.resize(nll, 0.0);
        active.clear();
        active.extend((0..n).map(|i| rate[i] + 1e-9 < lay.demand[i]));
        let remaining = active.iter().filter(|&&a| a).count();
        // Active weight sum and active flow count per link, along its row.
        // The count going to zero resets the sum to exactly 0.0, so
        // accumulated float error can never leave a ghost positive weight
        // on a drained link.
        wsum.clear();
        wcount.clear();
        for li in 0..nll {
            let (mut w, mut c) = (0.0, 0);
            for &i in lay.rows.row(li) {
                if active[i as usize] {
                    w += lay.weight[i as usize];
                    c += 1;
                }
            }
            wsum.push(w);
            wcount.push(c);
        }
        // Finite-demand active flows (greedy flows never appear here), in
        // key order.
        finite.clear();
        finite.extend(lay.finite.iter().filter(|&&i| active[i as usize]));
        log.rounds.clear();
        log.bps.clear();
        log.frozen.clear();
        log.ok = log.keep;
        if !log.ok {
            return remaining;
        }
        log.froze.clear();
        log.froze
            .extend(active.iter().map(|&a| if a { NEVER } else { 0 }));
        log.start.clear();
        log.start.extend((0..nll).map(|li| LinkAt {
            residual: residual[li],
            level: 0.0,
            wsum: wsum[li],
            wcount: wcount[li],
        }));
        log.sat.clear();
        log.sat.resize(nll, NEVER);
        remaining
    }

    /// Phase 2's state at the start of logged round `k` (at least 1): an
    /// unchanged link takes its last breakpoint before `k` as its anchor
    /// (or its phase-2 start, at level 0); a changed link takes what its
    /// [`replay`] reaches, anchor included. A
    /// flow frozen before `k` keeps the rate its freeze gave it; the flows
    /// the log lists as frozen from `k` on (or never) and the added ones
    /// are active again (`reopened`), from their starting rates. The log
    /// keeps what it held before round `k`, its breakpoints renumbered to
    /// the layout's links and still in round order. Returns the active
    /// flows.
    fn restore(&mut self, lay: &Layout, local: &[u32], log: &mut FillLog, k: usize) -> usize {
        let nll = lay.links.len();
        let FillScratch {
            rate,
            active,
            finite,
            residual,
            level,
            wsum,
            wcount,
            order,
            reopened,
            mark,
            touched,
            rbp,
            restore_items,
            bits,
            ..
        } = self;
        let FillLog {
            froze,
            frozen,
            start,
            sat,
            rounds,
            bps,
            remap,
            added,
            ..
        } = log;
        let kk = k as u32;
        wsum.clear();
        wsum.resize(nll, 0.0);
        wcount.clear();
        wcount.resize(nll, 0);
        level.clear();
        level.resize(nll, 0.0);
        mark.clear();
        mark.resize(nll, false);
        touched.clear();
        rbp.clear();
        for li in 0..nll {
            let at = if sat[li] == CHANGED {
                *restore_items += lay.rows.row(li).len();
                let mut at = link_start(lay, residual, li);
                start[li] = at;
                sat[li] = NEVER;
                replay(
                    lay,
                    local,
                    rounds,
                    froze,
                    sat,
                    li,
                    &mut at,
                    k,
                    order,
                    |round, at| {
                        rbp.push(Bp {
                            residual: at.residual,
                            wsum: at.wsum,
                            wcount: at.wcount,
                            round,
                            link: li as u32,
                        });
                    },
                );
                at
            } else {
                if sat[li] >= kk {
                    sat[li] = NEVER;
                }
                start[li]
            };
            (residual[li], level[li]) = (at.residual, at.level);
            (wsum[li], wcount[li]) = (at.wsum, at.wcount);
        }
        // The breakpoints before round `k` of the links kept unchanged, in
        // one pass: renumbered, each anchoring its link at its round's
        // level (the last one before `k` wins); then the changed links'
        // merged in by round.
        let end = bps.partition_point(|b| b.round < kk);
        let mut w = 0;
        for r in 0..end {
            let b = bps[r];
            let to = remap[b.link as usize];
            if to == CHANGED {
                continue;
            }
            let l = to as usize;
            (residual[l], level[l]) = (b.residual, rounds[b.round as usize].fill);
            (wsum[l], wcount[l]) = (b.wsum, b.wcount);
            bps[w] = Bp { link: to, ..b };
            w += 1;
        }
        rbp.sort_unstable_by_key(|b| (b.round, b.link));
        let total = w + rbp.len();
        bps.truncate(w);
        bps.extend_from_slice(rbp);
        let (mut i, mut j) = (w, rbp.len());
        for o in (0..total).rev() {
            if j == 0 {
                break;
            }
            if i > 0 && bps[i - 1].round > rbp[j - 1].round {
                bps[o] = bps[i - 1];
                i -= 1;
            } else {
                bps[o] = rbp[j - 1];
                j -= 1;
            }
        }
        // Reopen what froze from round `k` on, or never: an entry whose
        // slot has since been freed, or taken by an added flow, reads 0
        // and is skipped. Then the added flows: each active again unless its
        // floor meets its demand (it is idle from the start, at its
        // starting rate). Every other flow keeps its rate.
        active.clear();
        active.resize(lay.flows.len(), false);
        reopened.clear();
        let from = rounds[k - 1].frozen as usize;
        *restore_items += frozen.len() - from + added.len();
        for &i in &frozen[from..] {
            let iu = i as usize;
            if froze[iu] > kk {
                froze[iu] = NEVER;
                rate[iu] = lay.init[iu];
                active[iu] = true;
                reopened.push(i);
            }
        }
        frozen.truncate(from);
        for &i in added.iter() {
            let iu = i as usize;
            debug_assert_eq!(froze[iu], 0, "added slot {i}");
            rate[iu] = lay.init[iu];
            let on = lay.init[iu] + 1e-9 < lay.demand[iu];
            froze[iu] = if on { NEVER } else { 0 };
            active[iu] = on;
            reopened.push(i);
        }
        // In slot order, which keeps a tenant's flows together: the loops
        // over the reopened flows (here and in the owner's write-back) then
        // walk the per-flow arrays forward. A bitset sorts them in one pass
        // over a bit per slot.
        bits.clear();
        bits.resize(lay.flows.len().div_ceil(64), 0);
        for &i in reopened.iter() {
            bits[i as usize / 64] |= 1 << (i % 64);
        }
        reopened.clear();
        for (w, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                reopened.push((w * 64) as u32 + word.trailing_zeros());
                word &= word - 1;
            }
        }
        let remaining = reopened.iter().filter(|&&i| active[i as usize]).count();
        finite.clear();
        finite.extend(lay.finite.iter().filter(|&&i| active[i as usize]));
        rounds.truncate(k);
        remaining
    }

    /// The rounds' heap: every live link keyed by the level at which its
    /// anchor saturates.
    fn lazy_keys(&mut self) {
        let FillScratch {
            residual,
            level,
            wsum,
            wcount,
            heap,
            ..
        } = self;
        let mut keys = std::mem::take(heap).into_vec();
        fit(&mut keys, residual.len());
        keys.clear();
        keys.extend((0..wcount.len()).filter(|&l| wcount[l] > 0).map(|l| {
            Reverse(key(
                saturation_level(residual[l], wsum[l], level[l]),
                l as u32,
            ))
        }));
        *heap = BinaryHeap::from(keys);
    }

    /// Phase 2's rounds from level `fill`, each reading only the links it
    /// may act on (see [`Fluid::fill`]); returns the fill level reached.
    fn lazy_rounds(
        &mut self,
        lay: &Layout,
        local: &[u32],
        mut remaining: usize,
        mut fill: f64,
        log: &mut FillLog,
    ) -> f64 {
        #[cfg(debug_assertions)]
        let nll = lay.links.len();
        let FillScratch {
            rate,
            active,
            finite,
            residual,
            level,
            wsum,
            wcount,
            to_freeze,
            heap,
            popped,
            saturated,
            mark,
            touched,
            #[cfg(debug_assertions)]
            shadow,
            ..
        } = self;
        // Every link's residual at level `fill`, read eagerly.
        #[cfg(debug_assertions)]
        let eager = |shadow: &mut Vec<f64>, residual: &[f64], level: &[f64], wsum: &[f64], fill| {
            shadow.clear();
            shadow.extend((0..nll).map(|l| residual_at(residual[l], wsum[l], level[l], fill)));
        };
        let (mut rounds, mut link_visits) = (0usize, 0usize);
        let logged = log.ok;
        while remaining > 0 {
            #[cfg(debug_assertions)]
            eager(shadow, residual, level, wsum, fill);
            // The link event: pop every link whose key could beat the best
            // exact ratio read so far, and read it.
            let mut t = f64::INFINITY;
            let mut event_link: Option<usize> = None;
            popped.clear();
            let mut bound = ordered(f64::INFINITY);
            while let Some(&Reverse(k)) = heap.peek() {
                if (k >> 32) as u64 >= bound {
                    break;
                }
                heap.pop();
                link_visits += 1;
                let li = k as u32 as usize;
                if wcount[li] == 0 {
                    continue; // drained by a freeze since it was keyed
                }
                popped.push(li as u32);
                let w = wsum[li];
                if w > 0.0 {
                    let r = residual_at(residual[li], w, level[li], fill);
                    #[cfg(debug_assertions)]
                    assert_eq!(r.to_bits(), shadow[li].to_bits(), "link {li}");
                    let tl = r / w;
                    if tl < t || (tl <= t && event_link.is_some_and(|e| li < e)) {
                        t = tl;
                        event_link = Some(li);
                        // Past this, a key cannot reach a ratio of `t`.
                        bound = ordered(fill + t + slack(fill + t)).saturating_add(1);
                    }
                }
            }
            #[cfg(debug_assertions)]
            assert_eq!(
                full_scan(shadow, wsum),
                (event_link, t.to_bits()),
                "lazy round chose another event than the eager full scan"
            );
            rounds += 1;
            // The flow event: the finite-demand flow that reaches its
            // demand first, if it does so before the link event.
            let mut event_flow = None;
            for &i in finite.iter() {
                let iu = i as usize;
                let tf = (lay.demand[iu] - (rate[iu] + lay.weight[iu] * fill)) / lay.weight[iu];
                if tf < t {
                    t = tf;
                    event_flow = Some(i);
                }
            }
            if event_flow.is_some() {
                event_link = None;
            }
            if !t.is_finite() {
                break;
            }
            let t = t.max(0.0);
            fill += t;
            // Saturation: pop every link that may reach the threshold at
            // the new level; read the popped links at it, anchor the
            // event's link at exactly zero, and key again each one that
            // did not saturate.
            let bound = ordered(fill + slack(fill));
            while let Some(&Reverse(k)) = heap.peek() {
                if (k >> 32) as u64 > bound {
                    break;
                }
                heap.pop();
                link_visits += 1;
                if wcount[k as u32 as usize] > 0 {
                    popped.push(k as u32);
                }
            }
            #[cfg(debug_assertions)]
            {
                eager(shadow, residual, level, wsum, fill);
                if let Some(l) = event_link {
                    shadow[l] = 0.0;
                }
            }
            saturated.clear();
            for &li in popped.iter() {
                let l = li as usize;
                let r = if event_link == Some(l) {
                    (residual[l], level[l]) = (0.0, fill);
                    0.0
                } else {
                    residual_at(residual[l], wsum[l], level[l], fill)
                };
                #[cfg(debug_assertions)]
                assert_eq!(r.to_bits(), shadow[l].to_bits(), "link {l}");
                if r <= 1e-6 {
                    saturated.push(li);
                } else {
                    heap.push(Reverse(key(
                        saturation_level(residual[l], wsum[l], level[l]),
                        li,
                    )));
                }
            }
            saturated.sort_unstable();
            #[cfg(debug_assertions)]
            {
                let mut lazy_sat = saturated.iter();
                for li in (0..nll).filter(|&l| wcount[l] > 0 && shadow[l] <= 1e-6) {
                    assert_eq!(lazy_sat.next(), Some(&(li as u32)), "unsaturated lazily");
                }
                assert_eq!(lazy_sat.next(), None, "saturated lazily, not eagerly");
            }
            // Freeze the saturated links' flows by ascending link, then the
            // event flow, then every finite flow within 1e-6 of its demand.
            to_freeze.clear();
            for &li in saturated.iter() {
                to_freeze.extend(
                    lay.rows
                        .row(li as usize)
                        .iter()
                        .filter(|&&i| active[i as usize]),
                );
            }
            to_freeze.extend(event_flow);
            for &i in finite.iter() {
                let iu = i as usize;
                if active[iu] && rate[iu] + lay.weight[iu] * fill + 1e-6 >= lay.demand[iu] {
                    to_freeze.push(i);
                }
            }
            // A frozen flow takes its rate and leaves its links' sums, each
            // link re-anchored at this level first. The log takes each
            // flow's round and its place in the freeze order.
            let round = log.rounds.len() as u32;
            let mut frozen = 0usize;
            for &i in to_freeze.iter() {
                let i = i as usize;
                if !active[i] {
                    continue; // reachable via several saturated links
                }
                active[i] = false;
                rate[i] = (rate[i] + lay.weight[i] * fill).min(lay.demand[i]);
                if logged {
                    log.froze[i] = round + 1;
                    log.frozen.push(i as u32);
                }
                for &gl in lay.paths.row(i) {
                    let li = local[gl as usize] as usize;
                    residual[li] = residual_at(residual[li], wsum[li], level[li], fill);
                    level[li] = fill;
                    #[cfg(debug_assertions)]
                    assert_eq!(residual[li].to_bits(), shadow[li].to_bits(), "link {li}");
                    if !std::mem::replace(&mut mark[li], true) {
                        touched.push(li as u32);
                    }
                    wsum[li] -= lay.weight[i];
                    wcount[li] -= 1;
                    if wcount[li] == 0 {
                        wsum[li] = 0.0;
                    }
                }
                frozen += 1;
            }
            debug_assert!(
                frozen > 0,
                "filling round froze no flow: termination invariant broken"
            );
            remaining -= frozen;
            link_visits += touched.len();
            link_visits -= popped.iter().filter(|&&l| mark[l as usize]).count();
            // A breakpoint for each link the round touched; each one it
            // saturated notes the round.
            for &link in touched.iter() {
                let l = link as usize;
                mark[l] = false;
                if !logged {
                    continue;
                }
                if wcount[l] == 0 && residual[l] <= 1e-6 {
                    log.sat[l] = round;
                }
                log.bps.push(Bp {
                    residual: residual[l],
                    wsum: wsum[l],
                    wcount: wcount[l],
                    round,
                    link,
                });
            }
            touched.clear();
            if logged {
                let event = match (event_flow, event_link) {
                    (Some(i), _) => lay.flows[i as usize] | FLOW_EVENT,
                    (None, Some(l)) => lay.links[l],
                    (None, None) => NEVER,
                };
                log.rounds.push(Round {
                    fill,
                    t,
                    event,
                    frozen: log.frozen.len() as u32,
                });
            }
            if !finite.is_empty() {
                finite.retain(|&i| active[i as usize]);
            }
        }
        self.rounds = rounds;
        self.link_visits = link_visits;
        fill
    }
}

/// The eager event over every link, for debug checks: the first link of
/// least `residual / wsum` among those with `wsum > 0`, and that ratio's
/// bits.
#[cfg(debug_assertions)]
fn full_scan(residual: &[f64], wsum: &[f64]) -> (Option<usize>, u64) {
    let (mut t, mut link) = (f64::INFINITY, None);
    for (li, &w) in wsum.iter().enumerate() {
        if w > 0.0 && residual[li] / w < t {
            t = residual[li] / w;
            link = Some(li);
        }
    }
    (link, t.to_bits())
}

impl Fluid {
    /// Whether `rates` is work-conserving: no link exceeds its capacity and
    /// every flow with a nonempty path is either demand-capped or crosses a
    /// saturated link (i.e. no flow could be increased without violating a
    /// constraint). Degenerate flows with empty paths are exempt.
    pub fn is_work_conserving(&self, rates: &[f64]) -> bool {
        assert_eq!(rates.len(), self.flows.len());
        let mut used = vec![0.0f64; self.caps.len()];
        for (f, &r) in self.flows.iter().zip(rates) {
            for &l in &f.path {
                used[l] += r;
            }
        }
        let sat = |l: usize| used[l] >= self.caps[l] - tol(self.caps[l]);
        for (l, &u) in used.iter().enumerate() {
            if u > self.caps[l] + tol(self.caps[l]) {
                return false;
            }
        }
        self.flows.iter().zip(rates).all(|(f, &r)| {
            f.path.is_empty()
                || r + tol(f.demand.min(1e12)) >= f.demand
                || f.path.iter().any(|&l| sat(l))
        })
    }
}

#[cfg(test)]
impl Fluid {
    /// Solve the whole network as [`Fluid::rates`] does, without its
    /// work-conservation check: the rates, the rounds and the link visits.
    pub(crate) fn solve_counted(&self) -> (Vec<f64>, usize, usize) {
        let (lay, local) = self.layout();
        let mut s = FillScratch::default();
        self.fill(&lay, &local, &mut s, &mut FillLog::default());
        (s.rate, s.rounds, s.link_visits)
    }
}

/// Absolute + relative comparison slack for kbps-scale quantities (shared
/// with the incremental component solver's cached verdicts).
#[inline]
pub(crate) fn tol(magnitude: f64) -> f64 {
    1e-6 + 1e-9 * magnitude.abs()
}

/// The oracle checks of these networks — the reference allocation and the
/// max-min definition — run in `tests/fluid_differential.rs`: the oracles
/// live in the dev-only `cm-testkit`, which would see a second copy of
/// this crate's types from a unit test.
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A random network of `links` links, from `seed`. Capacities come
    /// from a short list (equal ratios, so ties must go to the lowest
    /// link) or are zero; a flow climbs a tree of fan-out 8 from a random
    /// link, so large networks are one large component; weights are
    /// log-uniform in [1e-3, 1e6]; a third of the demands are finite;
    /// floors reach a few hundred kbps, so small links oversubscribe and
    /// phase 1 scales.
    fn random_network(links: usize, seed: u64) -> Fluid {
        let mut rng = proptest::TestRng::new(seed);
        let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let caps = [0.0, 1.0, 100.0, 250.0, 1000.0, 1000.0, 4000.0, 1e5];
        let mut net = Fluid::new();
        for _ in 0..links {
            let c = if unit() < 0.75 {
                caps[(unit() * caps.len() as f64) as usize]
            } else {
                (unit() * 1e4).round()
            };
            net.link(c);
        }
        let flows = links + (unit() * 2.0 * links as f64) as usize;
        for _ in 0..flows {
            let mut l = (unit() * links as f64) as usize;
            let mut path = vec![l];
            for _ in 0..(unit() * 4.0) as usize {
                if l == 0 {
                    break;
                }
                l /= 8;
                path.push(l);
            }
            let extra = (unit() * links as f64) as usize;
            if unit() < 0.3 && !path.contains(&extra) {
                path.push(extra);
            }
            let mut f = FlowSpec::greedy(path);
            f.weight = 10f64.powf(unit() * 9.0 - 3.0);
            f.floor = if unit() < 0.5 { 0.0 } else { unit() * 300.0 };
            if unit() < 1.0 / 3.0 {
                f.demand = unit() * 600.0;
            }
            net.flow(f);
        }
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every round, on networks of one to 3,000 links, against the
        /// eager shadow: debug builds check each round's event, step,
        /// saturated links and every residual read against every live
        /// link read at the round's level. A round freezes at least one
        /// flow.
        #[test]
        fn every_round_matches_the_eager_shadow_bit_for_bit(
            links in prop::sample::select(vec![1usize, 2, 3, 8, 40, 300, 1023, 1024, 1800, 3000]),
            seed in any::<u64>(),
        ) {
            let net = random_network(links, seed);
            let (rates, rounds, _) = net.solve_counted();
            prop_assert_eq!(rates.len(), net.num_flows());
            prop_assert!(rounds <= net.num_flows(), "{} links, seed {}", links, seed);
        }
    }

    /// A link whose weight sum cancels to 0.0 while it still carries an
    /// active flow: `1e17 + 1` rounds to `1e17`, so when the heavy flow
    /// freezes (its private link saturates first) the shared link keeps
    /// the light flow at weight sum 0.0. It never drains and is never the
    /// event; the rounds must agree with the eager shadow, and the light
    /// flow still fills its own link.
    #[test]
    fn a_cancelled_weight_sum_agrees_eagerly_and_lazily() {
        let mut net = Fluid::new();
        let (private, shared, own) = (net.link(10.0), net.link(1000.0), net.link(500.0));
        let mut heavy = FlowSpec::greedy(vec![private, shared]);
        heavy.weight = 1e17;
        net.flow(heavy);
        net.flow(FlowSpec::greedy(vec![shared, own]));
        let (rates, rounds, _) = net.solve_counted();
        assert_eq!(rounds, 2);
        assert!((rates[0] - 10.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 500.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    #[should_panic(expected = "link capacity must be finite")]
    fn an_infinite_link_capacity_is_rejected() {
        Fluid::new().link(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "link capacity must be finite")]
    fn an_infinite_capacity_change_is_rejected() {
        let mut net = Fluid::new();
        let l = net.link(100.0);
        net.set_link_cap(l, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "flow weight must be finite")]
    fn an_infinite_weight_is_rejected() {
        let mut net = Fluid::new();
        let l = net.link(100.0);
        let mut f = FlowSpec::greedy(vec![l]);
        f.weight = f64::INFINITY;
        net.flow(f);
    }

    #[test]
    #[should_panic(expected = "flow floor must be finite")]
    fn an_infinite_floor_is_rejected() {
        let mut net = Fluid::new();
        let l = net.link(100.0);
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "flow demand must not be NaN")]
    fn a_nan_demand_is_rejected() {
        let mut net = Fluid::new();
        let l = net.link(100.0);
        let mut f = FlowSpec::greedy(vec![l]);
        f.demand = f64::NAN;
        net.flow(f);
    }

    #[test]
    fn single_link_equal_split() {
        let mut net = Fluid::new();
        let l = net.link(900.0);
        for _ in 0..3 {
            net.flow(FlowSpec::greedy(vec![l]));
        }
        let r = net.rates();
        for &x in &r {
            assert!((x - 300.0).abs() < 1e-6, "{r:?}");
        }
    }

    #[test]
    fn demands_cap_rates() {
        let mut net = Fluid::new();
        let l = net.link(900.0);
        let mut f = FlowSpec::greedy(vec![l]);
        f.demand = 100.0;
        net.flow(f);
        net.flow(FlowSpec::greedy(vec![l]));
        let r = net.rates();
        assert!((r[0] - 100.0).abs() < 1e-6);
        assert!((r[1] - 800.0).abs() < 1e-6, "work conserving: {r:?}");
    }

    #[test]
    fn floors_are_respected() {
        let mut net = Fluid::new();
        let l = net.link(1000.0);
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(450.0));
        // Five ungranted flows compete for the rest.
        for _ in 0..5 {
            net.flow(FlowSpec::greedy(vec![l]));
        }
        let r = net.rates();
        assert!(r[0] >= 450.0, "guaranteed flow got {}", r[0]);
        let total: f64 = r.iter().sum();
        assert!((total - 1000.0).abs() < 1e-3, "full utilization: {total}");
    }

    #[test]
    fn weighted_sharing_of_spare() {
        let mut net = Fluid::new();
        let l = net.link(900.0);
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(400.0));
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(200.0));
        let r = net.rates();
        // Spare 300 split 2:1 → 600/300.
        assert!((r[0] - 600.0).abs() < 1e-6, "{r:?}");
        assert!((r[1] - 300.0).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn sub_kbps_guarantees_share_proportionally() {
        // The old `g.max(1.0)` weight clamp made both flows share the spare
        // equally; guarantee-proportional weights keep the 2:1 ratio at any
        // magnitude.
        let mut net = Fluid::new();
        let l = net.link(0.9);
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(0.4));
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(0.2));
        let r = net.rates();
        assert!((r[0] - 0.6).abs() < 1e-9, "{r:?}");
        assert!((r[1] - 0.3).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn zero_guarantee_keeps_token_weight() {
        let mut net = Fluid::new();
        let l = net.link(300.0);
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(0.0));
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(0.0));
        let r = net.rates();
        // Two zero-guarantee flows share equally via the token weight.
        assert!((r[0] - 150.0).abs() < 1e-6, "{r:?}");
        assert!((r[1] - 150.0).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn multihop_bottleneck() {
        let mut net = Fluid::new();
        let a = net.link(1000.0);
        let b = net.link(100.0);
        net.flow(FlowSpec::greedy(vec![a, b]));
        net.flow(FlowSpec::greedy(vec![a]));
        let r = net.rates();
        assert!((r[0] - 100.0).abs() < 1e-6);
        assert!((r[1] - 900.0).abs() < 1e-6);
    }

    #[test]
    fn oversubscribed_floors_scale_down() {
        let mut net = Fluid::new();
        let l = net.link(300.0);
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(400.0));
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(200.0));
        let r = net.rates();
        let total: f64 = r.iter().sum();
        assert!(total <= 300.0 + 1e-6);
        assert!(r[0] > r[1], "proportional scale keeps ordering");
    }

    #[test]
    fn empty_network() {
        let net = Fluid::new();
        assert!(net.rates().is_empty());
    }

    /// Build the same flow set twice — incrementally (with interleaved
    /// removals) and from scratch — and require identical allocations.
    #[test]
    fn incremental_removal_matches_fresh_build() {
        // Deterministic pseudo-random flow shapes over a small link set.
        let mut state = 0x9e37_79b9_u64;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        let mut net = Fluid::new();
        let links: Vec<usize> = (0..8).map(|i| net.link(500.0 + 100.0 * i as f64)).collect();
        let mk = |a: usize, b: usize, g: f64| {
            let mut path = vec![links[a]];
            if b != a {
                path.push(links[b]);
            }
            FlowSpec::greedy(path).with_guarantee(g)
        };
        let mut live: Vec<FlowSpec> = Vec::new();
        for step in 0..200 {
            if !live.is_empty() && next(3) == 0 {
                let victim = next(net.num_flows());
                let spec = net.remove_flow(victim);
                // remove_flow swap-removes: mirror that on the shadow list.
                let shadow = live.swap_remove(victim);
                assert_eq!(spec.path, shadow.path);
                assert_eq!(spec.floor.to_bits(), shadow.floor.to_bits());
            } else {
                let f = mk(next(8), next(8), (step % 5) as f64 * 50.0);
                live.push(f.clone());
                net.flow(f);
            }
            // The incremental network must allocate like a network rebuilt
            // from the shadow list. Swap-removal permutes the per-link flow
            // lists, so float summation order differs — tolerance equality,
            // not bit equality (that stronger property belongs to
            // `clear_flows` + in-order re-add, tested separately).
            let mut fresh = Fluid::new();
            for &c in &[500.0, 600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0, 1200.0] {
                fresh.link(c);
            }
            for f in &live {
                fresh.flow(f.clone());
            }
            let a = net.rates();
            let b = fresh.rates();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x - y).abs() < 1e-6 * (1.0 + y.abs()),
                    "step {step}: {x} vs {y}"
                );
            }
            assert!(net.is_work_conserving(&a));
        }
    }

    #[test]
    fn clear_flows_retains_links_and_resets_state() {
        let mut net = Fluid::new();
        let a = net.link(1000.0);
        let b = net.link(100.0);
        net.flow(FlowSpec::greedy(vec![a, b]));
        net.flow(FlowSpec::greedy(vec![a]));
        let first = net.rates();
        net.clear_flows();
        assert_eq!(net.num_flows(), 0);
        assert_eq!(net.num_links(), 2);
        assert!(net.rates().is_empty());
        // Re-adding the same flows reproduces the original allocation.
        net.flow(FlowSpec::greedy(vec![a, b]));
        net.flow(FlowSpec::greedy(vec![a]));
        let again = net.rates();
        for (x, y) in first.iter().zip(&again) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn remove_last_and_only_flows() {
        let mut net = Fluid::new();
        let l = net.link(900.0);
        net.flow(FlowSpec::greedy(vec![l]));
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(100.0));
        // Removing the last flow needs no rename.
        net.remove_flow(1);
        assert_eq!(net.num_flows(), 1);
        let r = net.rates();
        assert!((r[0] - 900.0).abs() < 1e-6, "{r:?}");
        // Removing the only flow empties the network.
        net.remove_flow(0);
        assert_eq!(net.num_flows(), 0);
        assert!(net.rates().is_empty());
    }

    /// The kernel on a strict subset: of two disjoint components it is
    /// handed one (flows in a caller-chosen order, links ascending) and
    /// must produce, bit for bit, what `rates` produces on a network
    /// holding only that component in that order — nothing of the other
    /// component, and nothing of the flows' index order, may reach the
    /// arithmetic.
    #[test]
    fn kernel_on_one_component_matches_a_network_holding_only_it() {
        let caps = [900.0, 250.0, 700.0, 400.0, 650.0];
        let mut net = Fluid::new();
        for &c in &caps {
            net.link(c);
        }
        // Component A on links {0, 2, 3}, component B on links {1, 4},
        // interleaved; A oversubscribes link 3's floors (phase 1 scales)
        // and holds a finite demand (a flow event in phase 2).
        let mut capped = FlowSpec::greedy(vec![0]).with_guarantee(50.0);
        capped.demand = 120.0;
        let a_specs = [
            FlowSpec::greedy(vec![0, 2]).with_guarantee(100.0),
            FlowSpec::greedy(vec![2, 3]).with_guarantee(300.0),
            capped,
            FlowSpec::greedy(vec![3]).with_guarantee(250.0),
            FlowSpec::greedy(vec![0, 3]),
        ];
        let b_specs = [
            FlowSpec::greedy(vec![1, 4]).with_guarantee(80.0),
            FlowSpec::greedy(vec![4]),
            FlowSpec::greedy(vec![1]).with_guarantee(200.0),
        ];
        let mut a_ids = Vec::new();
        for k in 0..a_specs.len().max(b_specs.len()) {
            if let Some(f) = a_specs.get(k) {
                a_ids.push(net.flow(f.clone()) as u32);
            }
            if let Some(f) = b_specs.get(k) {
                net.flow(f.clone());
            }
        }
        // Scramble the flow indices: remove and re-add a B flow, which
        // swap-renames the last flow (an A flow).
        let moved = net.num_flows() as u32 - 1;
        assert_eq!(a_ids.last(), Some(&moved));
        let spec = net.remove_flow(1);
        net.flow(spec);
        *a_ids.last_mut().unwrap() = 1;
        // Hand the kernel A in reverse order.
        a_ids.reverse();

        // Lay A out over its links {0, 2, 3} and solve it alone.
        let a_links: [u32; 3] = [0, 2, 3];
        let mut lay = Layout {
            links: a_links.to_vec(),
            ..Layout::default()
        };
        for &fi in &a_ids {
            lay.push_spec(fi, &net.flows()[fi as usize]);
        }
        let mut local = vec![u32::MAX; caps.len()];
        for (li, &l) in a_links.iter().enumerate() {
            local[l as usize] = li as u32;
        }
        lay.index_rows(&local);
        lay.sum_floors(|_| true);
        let mut scratch = FillScratch::default();
        net.fill(&lay, &local, &mut scratch, &mut FillLog::default());

        let mut only_a = Fluid::new();
        for &c in &caps {
            only_a.link(c);
        }
        for f in a_specs.iter().rev() {
            only_a.flow(f.clone());
        }
        let want = only_a.rates();
        assert_eq!(scratch.rate.len(), want.len());
        for (got, want) in scratch.rate.iter().zip(&want) {
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        }
        assert!(want[1] < 250.0, "phase-1 scaling engaged: {want:?}");
        // And the whole network, solved globally, agrees on A's flows.
        let all = net.rates();
        for (got, &fi) in scratch.rate.iter().zip(&a_ids) {
            let global = all[fi as usize];
            assert!(
                (got - global).abs() < 1e-6 * (1.0 + global.abs()),
                "{got} vs global {global}"
            );
        }
    }

    #[test]
    fn termination_is_exact_on_a_long_freeze_cascade() {
        // A chain of links with strictly decreasing spare capacity freezes
        // exactly one flow per round — the shape that exhausted the
        // reference implementation's fixed iteration cap when scaled up.
        let mut net = Fluid::new();
        let mut links = Vec::new();
        for i in 0..60 {
            links.push(net.link(1000.0 + 10.0 * i as f64));
        }
        for (i, &l) in links.iter().enumerate() {
            // One private flow per link plus one flow crossing all links.
            net.flow(FlowSpec::greedy(vec![l]).with_guarantee(100.0 + i as f64));
        }
        net.flow(FlowSpec::greedy(links.clone()));
        let r = net.rates();
        assert!(net.is_work_conserving(&r));
    }
}
