//! Demand prediction for the opportunistic-HA desirability test.
//!
//! §4.5: bandwidth-saving desirability compares available bandwidth per free
//! slot against "the average per-VM bandwidth demand of input g, factoring
//! in the expected contributions of future tenant VMs (predicted based on
//! previous arrivals)". We blend the incoming tenant's demand with an EWMA
//! over past arrivals.

/// Exponentially-weighted moving average of per-VM tenant demand (kbps).
#[derive(Debug, Clone)]
pub struct DemandPredictor {
    ewma: f64,
    alpha: f64,
    observed: u64,
}

impl Default for DemandPredictor {
    fn default() -> Self {
        Self::new(0.1)
    }
}

impl DemandPredictor {
    /// Create a predictor with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        DemandPredictor {
            ewma: 0.0,
            alpha,
            observed: 0,
        }
    }

    /// Record a tenant's average per-VM demand and return the blended
    /// estimate (half current tenant, half history; pure current until any
    /// history exists) to use for its placement decisions.
    pub fn observe(&mut self, demand_kbps: f64) -> f64 {
        let mixed = if self.observed == 0 {
            self.ewma = demand_kbps;
            demand_kbps
        } else {
            let mixed = 0.5 * demand_kbps + 0.5 * self.ewma;
            self.ewma = self.alpha * demand_kbps + (1.0 - self.alpha) * self.ewma;
            mixed
        };
        self.observed += 1;
        mixed
    }

    /// Current EWMA estimate (0 until anything is observed).
    pub fn estimate(&self) -> f64 {
        self.ewma
    }

    /// Number of tenants observed.
    pub fn observed(&self) -> u64 {
        self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_passes_through() {
        let mut p = DemandPredictor::default();
        assert_eq!(p.observe(1000.0), 1000.0);
        assert_eq!(p.estimate(), 1000.0);
    }

    #[test]
    fn blends_with_history() {
        let mut p = DemandPredictor::new(0.5);
        p.observe(1000.0);
        // mixed = 0.5*2000 + 0.5*1000 = 1500; ewma = 0.5*2000+0.5*1000 = 1500.
        assert_eq!(p.observe(2000.0), 1500.0);
        assert_eq!(p.estimate(), 1500.0);
        assert_eq!(p.observed(), 2);
    }

    #[test]
    fn converges_to_steady_demand() {
        let mut p = DemandPredictor::new(0.2);
        for _ in 0..100 {
            p.observe(500.0);
        }
        assert!((p.estimate() - 500.0).abs() < 1e-6);
    }
}
