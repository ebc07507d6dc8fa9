//! A privacy-budget odometer: track cumulative RDP spend across multiple
//! releases on the same database.
//!
//! Real deployments run *several* SQM analyses over one dataset (e.g. a DP
//! covariance for auditing, then an LR training run). Lemma 10 says RDP
//! curves add; the odometer holds the running composition and answers
//! "what `(eps, delta)` have we spent so far?" and "does this next release
//! still fit the budget?" before any noise is drawn.

use serde::{Deserialize, Serialize};

use crate::default_alpha_grid;
use crate::rdp::RdpCurve;

/// Result of asking the odometer to admit one more release.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The release fits; it has been recorded.
    Admitted,
    /// The release would exceed the budget; nothing was recorded.
    Rejected,
}

/// A running account of RDP spend against a fixed `(eps, delta)` budget.
///
/// ```
/// use sqm_accounting::budget::{Admission, PrivacyOdometer};
/// use sqm_accounting::{default_alpha_grid, gaussian_rdp, RdpCurve};
///
/// let mut odometer = PrivacyOdometer::new(2.0, 1e-5);
/// let release = RdpCurve::from_fn(&default_alpha_grid(), |a| gaussian_rdp(a as f64, 1.0, 6.0));
/// assert_eq!(odometer.admit(&release), Admission::Admitted);
/// assert!(odometer.spent_epsilon() <= 2.0);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PrivacyOdometer {
    budget_eps: f64,
    delta: f64,
    spent: RdpCurve,
    /// `spent` converted to epsilon, once per admitted release.
    spent_eps: f64,
    releases: usize,
}

impl PrivacyOdometer {
    /// A fresh odometer with an overall `(budget_eps, delta)` budget.
    pub fn new(budget_eps: f64, delta: f64) -> Self {
        assert!(budget_eps > 0.0, "budget epsilon must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let spent = RdpCurve::zero(&default_alpha_grid());
        PrivacyOdometer {
            budget_eps,
            delta,
            spent_eps: spent.to_epsilon(delta).0,
            spent,
            releases: 0,
        }
    }

    /// The same spend against a new overall budget.
    pub fn with_budget(self, budget_eps: f64) -> Self {
        assert!(budget_eps > 0.0, "budget epsilon must be positive");
        PrivacyOdometer { budget_eps, ..self }
    }

    /// The configured overall budget.
    pub fn budget(&self) -> (f64, f64) {
        (self.budget_eps, self.delta)
    }

    /// Number of releases recorded so far.
    pub fn releases(&self) -> usize {
        self.releases
    }

    /// The `(eps, alpha)` already spent (0-release odometers report the
    /// small-but-nonzero conversion floor of the zero curve).
    pub fn spent_epsilon(&self) -> f64 {
        self.spent_eps
    }

    /// Would composing `curve` stay within budget? Does not record.
    pub fn fits(&self, curve: &RdpCurve) -> bool {
        self.within(self.spent.compose(curve).to_epsilon(self.delta).0)
    }

    fn within(&self, eps: f64) -> bool {
        eps <= self.budget_eps * (1.0 + 1e-12)
    }

    /// Try to admit a release described by its RDP curve. Records the spend
    /// only if the composed total stays within budget.
    pub fn admit(&mut self, curve: &RdpCurve) -> Admission {
        let spent = self.spent.compose(curve);
        let (eps, _) = spent.to_epsilon(self.delta);
        if !self.within(eps) {
            return Admission::Rejected;
        }
        self.spent = spent;
        self.spent_eps = eps;
        self.releases += 1;
        Admission::Admitted
    }

    /// Remaining headroom: the budget minus the current spend (may be
    /// negative only by floating error; clamped at 0).
    pub fn remaining_epsilon(&self) -> f64 {
        (self.budget_eps - self.spent_eps).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::gaussian_rdp;

    fn release(sigma: f64) -> RdpCurve {
        RdpCurve::from_fn(&default_alpha_grid(), |a| {
            gaussian_rdp(a as f64, 1.0, sigma)
        })
    }

    #[test]
    fn admits_until_budget_exhausted() {
        let mut odo = PrivacyOdometer::new(2.0, 1e-5);
        let r = release(5.0); // each ~ eps 0.7-0.9 alone
        let mut admitted = 0;
        for _ in 0..20 {
            if odo.admit(&r) == Admission::Admitted {
                admitted += 1;
            }
        }
        assert!(
            admitted >= 2,
            "at least two releases should fit, got {admitted}"
        );
        assert!(admitted <= 8, "budget must bind, admitted {admitted}");
        assert!(odo.spent_epsilon() <= 2.0 + 1e-9);
        assert_eq!(odo.releases(), admitted);
    }

    #[test]
    fn rejection_does_not_record() {
        let mut odo = PrivacyOdometer::new(0.5, 1e-5);
        let huge = release(0.5);
        let before = odo.spent_epsilon();
        assert_eq!(odo.admit(&huge), Admission::Rejected);
        assert_eq!(odo.spent_epsilon(), before);
        assert_eq!(odo.releases(), 0);
    }

    #[test]
    fn fits_is_pure() {
        let odo = PrivacyOdometer::new(1.0, 1e-5);
        let r = release(10.0);
        assert!(odo.fits(&r));
        assert_eq!(odo.releases(), 0);
    }

    #[test]
    fn remaining_decreases_monotonically() {
        let mut odo = PrivacyOdometer::new(4.0, 1e-5);
        let r = release(8.0);
        let mut last = odo.remaining_epsilon();
        for _ in 0..3 {
            assert_eq!(odo.admit(&r), Admission::Admitted);
            let now = odo.remaining_epsilon();
            assert!(now < last);
            last = now;
        }
    }

    #[test]
    fn rdp_composition_beats_naive_addition() {
        // The odometer composes in RDP space: k releases cost less than
        // k * (single-release eps).
        let mut odo = PrivacyOdometer::new(100.0, 1e-5);
        let r = release(5.0);
        let single = {
            let mut o = PrivacyOdometer::new(100.0, 1e-5);
            o.admit(&r);
            o.spent_epsilon()
        };
        for _ in 0..9 {
            odo.admit(&r);
        }
        assert!(
            odo.spent_epsilon() < 9.0 * single,
            "{} vs {}",
            odo.spent_epsilon(),
            9.0 * single
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_budget() {
        PrivacyOdometer::new(0.0, 1e-5);
    }
}
