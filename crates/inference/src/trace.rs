//! VM-to-VM traffic traces.

/// A time series of `n × n` traffic matrices (kbps, row = sender,
/// column = receiver), the raw input of TAG inference.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficTrace {
    n: usize,
    /// Row-major `n × n` matrices, one per measurement interval.
    snapshots: Vec<Vec<f64>>,
}

impl TrafficTrace {
    /// Create a trace over `n` VMs from row-major snapshots.
    ///
    /// # Panics
    /// Panics when a snapshot has the wrong dimension or negative entries.
    pub fn new(n: usize, snapshots: Vec<Vec<f64>>) -> Self {
        for s in &snapshots {
            assert_eq!(s.len(), n * n, "snapshot must be n×n row-major");
            assert!(s.iter().all(|&v| v >= 0.0), "traffic must be >= 0");
        }
        TrafficTrace { n, snapshots }
    }

    /// Number of VMs.
    pub fn num_vms(&self) -> usize {
        self.n
    }

    /// Number of snapshots.
    pub fn num_snapshots(&self) -> usize {
        self.snapshots.len()
    }

    /// One snapshot as a row-major slice.
    pub fn snapshot(&self, k: usize) -> &[f64] {
        &self.snapshots[k]
    }

    /// Traffic `i → j` in snapshot `k`.
    #[inline]
    pub fn at(&self, k: usize, i: usize, j: usize) -> f64 {
        self.snapshots[k][i * self.n + j]
    }

    /// The element-wise time-average matrix (row-major).
    pub fn mean_matrix(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.n * self.n];
        if self.snapshots.is_empty() {
            return m;
        }
        for s in &self.snapshots {
            for (acc, &v) in m.iter_mut().zip(s) {
                *acc += v;
            }
        }
        let k = self.snapshots.len() as f64;
        for v in &mut m {
            *v /= k;
        }
        m
    }

    /// Peak over time of the aggregate traffic from VM set `a` to VM set
    /// `b` (the "peak of the sum", which statistical multiplexing makes
    /// smaller than the sum of per-pair peaks).
    pub fn peak_group_traffic(&self, a: &[usize], b: &[usize]) -> f64 {
        self.snapshots
            .iter()
            .map(|s| {
                a.iter()
                    .flat_map(|&i| b.iter().map(move |&j| (i, j)))
                    .filter(|(i, j)| i != j)
                    .map(|(i, j)| s[i * self.n + j])
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let t = TrafficTrace::new(2, vec![vec![0.0, 1.0, 2.0, 0.0], vec![0.0, 3.0, 4.0, 0.0]]);
        assert_eq!(t.num_vms(), 2);
        assert_eq!(t.num_snapshots(), 2);
        assert_eq!(t.at(0, 0, 1), 1.0);
        assert_eq!(t.at(1, 1, 0), 4.0);
        assert_eq!(t.mean_matrix(), vec![0.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn peak_of_sum_vs_sum_of_peaks() {
        // Load-balancing flips traffic between two destinations; the peak
        // of the sum (3.0) is below the sum of per-pair peaks (3+3=6).
        let t = TrafficTrace::new(
            3,
            vec![
                vec![0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                vec![0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            ],
        );
        assert_eq!(t.peak_group_traffic(&[0], &[1, 2]), 3.0);
    }

    #[test]
    #[should_panic(expected = "n×n")]
    fn dimension_checked() {
        TrafficTrace::new(2, vec![vec![0.0; 3]]);
    }
}
