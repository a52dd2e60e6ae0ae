//! The speed clock: wall time re-expressed at a reference machine speed.
//!
//! The benchmark's host is a few cores of a shared machine whose speed
//! wanders by up to 1.6× over seconds to minutes as neighbours come and go
//! (a latency-bound multiply chain never slows, branchy cache-resident code
//! does: the neighbours take execution slots and cache, not clock). Raw
//! wall time therefore measures the neighbours. Every 10 ms of the run the
//! clock times a fixed burst of the benchmark's own work — fill 16 KiB with
//! xorshift values and sort them — and each interval between two bursts is
//! scaled by `REFERENCE_BURST_US / (mean cost of the two bursts)`. Across
//! identical runs the burst's cost tracks the workloads' own slowdown with
//! correlation 0.86–0.98, and scaling by it roughly halves the ten-seed
//! spread of the time metrics (see baseline.md).
//!
//! The burst is benchmark code: no change to the program under test can
//! move it, so it cancels between a parent's and a change's runs.

use std::time::Instant;

/// What one burst costs on an otherwise idle core of the machine the first
/// baseline was measured on (Xeon @ 2.1 GHz). Only a unit: on that machine,
/// undisturbed, normalised time equals wall time.
pub const REFERENCE_BURST_US: f64 = 60.0;

/// A burst is due once this much time has passed since the last one.
const PERIOD_US: u128 = 10_000;

const WORDS: usize = 4096;

#[derive(Debug, Clone, Copy)]
struct Burst {
    start_ns: u64,
    end_ns: u64,
    /// The fastest of three back-to-back timings, so that an interrupt or a
    /// cold cache in one of them does not count.
    cost_us: f64,
}

#[derive(Debug)]
pub struct SpeedClock {
    epoch: Instant,
    last_end: Instant,
    buf: Box<[u32; WORDS]>,
    state: u32,
    bursts: Vec<Burst>,
}

impl SpeedClock {
    /// Start the clock with burst 0. `epoch` is when the process started.
    pub fn start(epoch: Instant) -> SpeedClock {
        let mut clock = SpeedClock {
            epoch,
            last_end: epoch,
            buf: Box::new([0; WORDS]),
            state: 0x9e37_79b9,
            bursts: Vec::new(),
        };
        clock.mark();
        clock
    }

    /// Run a burst if one is due. `now` is a recent clock reading the
    /// caller already has (the end of its last op), so ticking costs no
    /// clock read of its own.
    pub fn tick(&mut self, now: Instant) {
        if now.saturating_duration_since(self.last_end).as_micros() >= PERIOD_US {
            self.mark();
        }
    }

    /// Run a burst now; returns its index. Phases begin and end on marks.
    pub fn mark(&mut self) -> usize {
        let start = Instant::now();
        let mut cost_us = f64::INFINITY;
        let mut t = start;
        let mut x = self.state;
        for _ in 0..3 {
            for v in self.buf.iter_mut() {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                *v = x;
            }
            self.buf.sort_unstable();
            std::hint::black_box(self.buf[WORDS / 2]);
            let end = Instant::now();
            cost_us = cost_us.min((end - t).as_secs_f64() * 1e6);
            t = end;
        }
        let ns = |i: Instant| i.duration_since(self.epoch).as_nanos() as u64;
        self.bursts.push(Burst {
            start_ns: ns(start),
            end_ns: ns(t),
            cost_us,
        });
        self.state = x;
        self.last_end = t;
        self.last_mark()
    }

    /// Index of the latest burst.
    pub fn last_mark(&self) -> usize {
        self.bursts.len() - 1
    }

    /// The interval now running: the one burst `segment()` will close.
    pub fn segment(&self) -> u32 {
        self.bursts.len() as u32
    }

    /// What a duration measured inside `segment` is multiplied by. An
    /// interval no burst has closed yet is scaled by the burst that opened it.
    pub fn factor(&self, segment: u32) -> f64 {
        let at = |i: usize| self.bursts[i.min(self.bursts.len() - 1)].cost_us;
        let (open, close) = (
            at((segment as usize).saturating_sub(1)),
            at(segment as usize),
        );
        REFERENCE_BURST_US / ((open + close) / 2.0)
    }

    /// Time between two marks as `(wall, normalised)` seconds, the bursts
    /// themselves left out of both.
    pub fn between(&self, from: usize, to: usize) -> (f64, f64) {
        let (mut wall, mut normalised) = (0.0, 0.0);
        for k in from + 1..=to {
            let gap = self.bursts[k]
                .start_ns
                .saturating_sub(self.bursts[k - 1].end_ns) as f64
                / 1e9;
            wall += gap;
            normalised += gap * self.factor(k as u32);
        }
        (wall, normalised)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock whose bursts are given, not measured: `(start, end, cost)`.
    fn clock(bursts: &[(u64, u64, f64)]) -> SpeedClock {
        let mut c = SpeedClock::start(Instant::now());
        c.bursts = bursts
            .iter()
            .map(|&(start_ns, end_ns, cost_us)| Burst {
                start_ns,
                end_ns,
                cost_us,
            })
            .collect();
        c
    }

    #[test]
    fn intervals_are_scaled_by_the_bursts_around_them() {
        let r = REFERENCE_BURST_US;
        // Reference speed, then a stretch where the burst costs twice as much.
        let c = clock(&[
            (0, 1_000, r),
            (1_001_000, 1_002_000, r),
            (3_002_000, 3_003_000, 2.0 * r),
            (5_003_000, 5_004_000, 2.0 * r),
        ]);
        assert_eq!(c.factor(1), 1.0);
        assert_eq!(c.factor(2), 1.0 / 1.5, "the mean of both neighbours");
        assert_eq!(c.factor(3), 0.5);
        assert_eq!(c.factor(4), 0.5, "not closed yet: the opening burst alone");
        let (wall, normalised) = c.between(0, 3);
        assert!(
            (wall - 0.005).abs() < 1e-12,
            "1 + 2 + 2 ms, bursts left out"
        );
        assert!((normalised - (0.001 + 0.002 / 1.5 + 0.001)).abs() < 1e-12);
        assert_eq!(c.between(1, 1), (0.0, 0.0));
    }

    #[test]
    fn bursts_run_when_due_and_on_marks() {
        let t0 = Instant::now();
        let mut c = SpeedClock::start(t0);
        assert_eq!(c.segment(), 1, "burst 0 starts the clock");
        c.tick(c.last_end);
        assert_eq!(c.segment(), 1, "not due");
        c.tick(c.last_end + std::time::Duration::from_millis(11));
        assert_eq!(c.segment(), 2);
        assert_eq!(c.mark(), 2);
        let b = c.bursts[2];
        assert!(b.cost_us > 0.0 && b.end_ns > b.start_ns);
        assert!(c.factor(1) > 0.0);
    }
}
