//! Spans recorded by the benchmark's own loop around its calls into each
//! layer. Kept in memory for the whole run and written out once at exit.

use std::io::Write;
use std::time::Instant;

/// One timed interval. Spans of one op share its `op` id; `parent` is the
/// index of the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The measured phase, first op to last: the root of every other span.
/// Its self time is the benchmark's own work between ops (`share.harness`).
pub const MEASURE: &str = "measure";
/// The span of one whole op: the mutating `Cluster` call plus the traffic
/// step that follows it.
pub const OP: &str = "op";
/// Wall time of `Cluster::traffic_step_as`; its children are the phases the
/// returned `TrafficReport` attributes, its self time is the tenant scan
/// and version diff the report does not cover.
pub const STEP: &str = "cluster.traffic_step";
pub const EXPAND: &str = "enforce.expand";
pub const ROUTE: &str = "enforce.route";
pub const SOLVE: &str = "enforce.solve";
pub const SCORE: &str = "enforce.score";
/// The read-only `Topology::descend_to_level` probe before an admit.
pub const SEARCH: &str = "topology.search";

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span; returns its index, to be named as a child's parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span whose end was not known when it was pushed.
    pub fn set_end(&mut self, span: u32, end_ns: u64) {
        self.spans[span as usize].end_ns = end_ns;
    }

    /// Self time per span: its duration minus what its child spans cover
    /// (children of one parent never overlap here).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Durations (µs) of every span with this name, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Self times (µs) of every span with this name, in recording order.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.self_ns()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(&own, _)| own as f64 / 1e3)
            .collect()
    }

    /// Where the measured phase went, as shares of its wall time. By
    /// construction the seven shares sum to 1 unless children overran a
    /// parent (the caller checks the sum).
    pub fn shares(&self) -> Shares {
        let own = self.self_ns();
        let mut total = 0u64;
        let mut sh = [0u64; 7];
        for (s, &own) in self.spans.iter().zip(&own) {
            let slot = match s.name {
                MEASURE => {
                    total += s.dur_ns();
                    6
                }
                // An op is exactly its call plus its step; the probe is
                // the benchmark's own work.
                OP | SEARCH => 6,
                STEP => 1,
                EXPAND => 2,
                ROUTE => 3,
                SOLVE => 4,
                SCORE => 5,
                _ => 0, // the mutating cluster.* call
            };
            sh[slot] += own;
        }
        let f = |ns: u64| {
            if total == 0 {
                0.0
            } else {
                ns as f64 / total as f64
            }
        };
        Shares {
            mutate: f(sh[0]),
            sync: f(sh[1]),
            expand: f(sh[2]),
            route: f(sh[3]),
            solve: f(sh[4]),
            score: f(sh[5]),
            harness: f(sh[6]),
        }
    }

    /// One JSON object per line: name, start, end (ns since process
    /// start), parent span index (or null) and op id.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shares {
    pub mutate: f64,
    pub sync: f64,
    pub expand: f64,
    pub route: f64,
    pub solve: f64,
    pub score: f64,
    pub harness: f64,
}

impl Shares {
    pub fn sum(&self) -> f64 {
        self.mutate + self.sync + self.expand + self.route + self.solve + self.score + self.harness
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// measure[0,100] { probe[0,5], op[10,95] { cluster.admit[10,30],
    /// step[30,95] { expand[30,40], solve[40,70], score[70,90] } } }
    fn sample() -> Trace {
        let mut t = Trace::new(Instant::now());
        let root = t.push(MEASURE, 0, 0, None, 0);
        t.push(SEARCH, 0, 5, Some(root), 0);
        let op = t.push(OP, 10, 95, Some(root), 0);
        t.push("cluster.admit", 10, 30, Some(op), 0);
        let step = t.push(STEP, 30, 95, Some(op), 0);
        t.push(EXPAND, 30, 40, Some(step), 0);
        t.push(SOLVE, 40, 70, Some(step), 0);
        t.push(SCORE, 70, 90, Some(step), 0);
        t.set_end(root, 100);
        t
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = sample();
        let own = t.self_ns();
        assert_eq!(own[0], 100 - 5 - 85, "measure: minus probe and op");
        assert_eq!(own[2], 0, "an op is exactly its call plus its step");
        assert_eq!(own[3], 20, "a leaf keeps its duration");
        assert_eq!(own[4], 65 - 10 - 30 - 20, "step: minus its phases");
        assert_eq!(t.self_us(STEP), vec![0.005]);
        assert_eq!(t.durations_us(SOLVE), vec![0.03]);
    }

    #[test]
    fn shares_sum_to_one() {
        let sh = sample().shares();
        assert!((sh.sum() - 1.0).abs() < 1e-12, "{sh:?}");
        assert_eq!(sh.mutate, 0.20);
        assert_eq!(sh.sync, 0.05);
        assert_eq!(sh.expand, 0.10);
        assert_eq!(sh.route, 0.0);
        assert_eq!(sh.solve, 0.30);
        assert_eq!(sh.score, 0.20);
        assert_eq!(sh.harness, 0.15, "gaps between ops plus the probe");
    }

    #[test]
    fn overrunning_children_break_the_sum() {
        let mut t = Trace::new(Instant::now());
        let root = t.push(MEASURE, 0, 100, None, 0);
        let op = t.push(OP, 0, 100, Some(root), 0);
        let step = t.push(STEP, 0, 50, Some(op), 0);
        t.push(SOLVE, 0, 80, Some(step), 0); // claims more than the step took
        assert!(t.shares().sum() > 1.02);
    }
}
