//! Session orchestration with an explicit, auditable server view.
//!
//! The paper's threat model distinguishes what the *server* observes
//! (Eq. 3) from what a *client* observes (Eq. 4). [`VflSession`] makes the
//! server side of that boundary executable: every value that crosses from
//! the clients to the server goes through [`ServerView::receive`], which
//! records it, so a test (or an auditor) can verify that the server's
//! entire view of a protocol run consists of exactly the DP-accounted
//! releases — never raw data, shares, or noise components.

use sqm_accounting::skellam::Sensitivity;
use sqm_accounting::{default_alpha_grid, skellam_rdp, Admission, PrivacyOdometer, RdpCurve};
use sqm_core::sensitivity::{lr_sensitivity, pca_sensitivity};
use sqm_linalg::Matrix;
use sqm_mpc::RunStats;
use sqm_obs::ledger::PrivacyLedger;
use std::fmt;

use crate::covariance::covariance_skellam;
use crate::gradient::gradient_sum_skellam;
use crate::mean::column_sums_skellam;
use crate::partition::ColumnPartition;
use crate::VflConfig;

/// One value the server received, with its provenance.
#[derive(Clone, Debug)]
pub struct Release {
    /// What protocol produced it.
    pub kind: ReleaseKind,
    /// The opened (already perturbed, still amplified) values.
    pub values: Vec<f64>,
    /// The Skellam parameter the release was perturbed with.
    pub mu: f64,
    /// The quantization scale.
    pub gamma: f64,
}

/// Protocol that produced a release.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReleaseKind {
    Covariance,
    GradientSum,
    ColumnSums,
}

/// The untrusted coordinator's complete view of a session.
#[derive(Debug, Default)]
pub struct ServerView {
    releases: Vec<Release>,
}

impl ServerView {
    fn receive(&mut self, release: Release) {
        self.releases.push(release);
    }

    /// Everything the server has seen.
    pub fn releases(&self) -> &[Release] {
        &self.releases
    }

    /// Number of DP releases observed.
    pub fn len(&self) -> usize {
        self.releases.len()
    }

    pub fn is_empty(&self) -> bool {
        self.releases.is_empty()
    }
}

/// A release refused by the session's [`PrivacyOdometer`]: admitting it
/// would push the composed server-observed epsilon past the session budget.
/// The refusal happens *before* any MPC round runs — no shares move, no
/// noise is drawn, nothing reaches the server view or the ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetRefusal {
    /// The protocol that was refused.
    pub kind: ReleaseKind,
    /// Server-observed epsilon the refused release alone would cost
    /// (infinite for an unperturbed `mu = 0` request).
    pub requested_epsilon: f64,
    /// Epsilon already spent by admitted releases.
    pub spent: f64,
    /// The session's overall epsilon budget.
    pub budget: f64,
}

impl fmt::Display for BudgetRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "privacy budget refusal: {:?} release costing eps={:.4} refused \
             (spent {:.4} of budget {:.4})",
            self.kind, self.requested_epsilon, self.spent, self.budget
        )
    }
}

impl std::error::Error for BudgetRefusal {}

/// A VFL session: fixed clients/partition, a sequence of protocol calls,
/// and the accumulated [`ServerView`].
pub struct VflSession {
    partition: ColumnPartition,
    cfg: VflConfig,
    view: ServerView,
    total_stats: Vec<RunStats>,
    ledger: PrivacyLedger,
    odometer: PrivacyOdometer,
    delta: f64,
}

/// The `delta` the session's privacy ledger reports epsilons at unless
/// overridden with [`VflSession::with_delta`].
pub const DEFAULT_LEDGER_DELTA: f64 = 1e-5;

impl VflSession {
    pub fn new(partition: ColumnPartition, cfg: VflConfig) -> Self {
        Self::with_delta(partition, cfg, DEFAULT_LEDGER_DELTA)
    }

    /// Like [`VflSession::new`] but reporting ledger epsilons at `delta`.
    pub fn with_delta(partition: ColumnPartition, cfg: VflConfig, delta: f64) -> Self {
        assert_eq!(
            partition.n_clients(),
            cfg.n_clients(),
            "partition/config mismatch"
        );
        let ledger = PrivacyLedger::new(cfg.n_clients(), delta);
        VflSession {
            partition,
            cfg,
            view: ServerView::default(),
            total_stats: Vec::new(),
            ledger,
            // Unlimited by default: `admit()` still gates every release,
            // it just always fits. `with_budget` makes the gate bite.
            odometer: PrivacyOdometer::new(f64::INFINITY, delta),
            delta,
        }
    }

    /// Enforce an overall server-observed `(budget_eps, delta)` budget:
    /// every release must pass [`PrivacyOdometer::admit`] *before* its MPC
    /// rounds run, and an over-budget request is refused with a typed
    /// [`BudgetRefusal`]. The delta is the session's ledger delta.
    pub fn with_budget(mut self, budget_eps: f64) -> Self {
        self.odometer = PrivacyOdometer::new(budget_eps, self.delta);
        self
    }

    /// The server's accumulated view.
    pub fn server_view(&self) -> &ServerView {
        &self.view
    }

    /// Per-protocol MPC statistics, in execution order.
    pub fn stats(&self) -> &[RunStats] {
        &self.total_stats
    }

    /// The privacy ledger: one entry per release, with server- and
    /// client-observed epsilons and the running RDP composition.
    pub fn ledger(&self) -> &PrivacyLedger {
        &self.ledger
    }

    /// The budget odometer gating every release.
    pub fn odometer(&self) -> &PrivacyOdometer {
        &self.odometer
    }

    /// Does the odometer's recorded spend agree with the ledger's composed
    /// server curve? Both are fed the same per-release Skellam RDP curves,
    /// so any disagreement beyond floating error means a release bypassed
    /// one of the two accounts. (Trivially true while the ledger is
    /// unbounded from an unperturbed release — the odometer only admits
    /// those on unlimited sessions.)
    pub fn budget_consistent_with_ledger(&self) -> bool {
        let ledger_eps = self.ledger.server_epsilon();
        if ledger_eps.is_infinite() {
            return self.odometer.budget().0.is_infinite();
        }
        if self.ledger.is_empty() {
            return self.odometer.releases() == 0;
        }
        let spent = self.odometer.spent_epsilon();
        (spent - ledger_eps).abs() <= 1e-9 * ledger_eps.max(1.0)
    }

    /// Gate one release through the odometer, before any MPC work.
    fn admit(
        &mut self,
        kind: ReleaseKind,
        mu: f64,
        sens: Sensitivity,
    ) -> Result<(), BudgetRefusal> {
        let (budget, _) = self.odometer.budget();
        if mu <= 0.0 {
            // An unperturbed opening is an infinite-epsilon release; only
            // a session with an unlimited budget may run one.
            if budget.is_infinite() {
                return Ok(());
            }
            return Err(BudgetRefusal {
                kind,
                requested_epsilon: f64::INFINITY,
                spent: self.odometer.spent_epsilon(),
                budget,
            });
        }
        let curve = RdpCurve::from_fn(&default_alpha_grid(), |a| skellam_rdp(a, sens, mu));
        match self.odometer.admit(&curve) {
            Admission::Admitted => Ok(()),
            Admission::Rejected => Err(BudgetRefusal {
                kind,
                requested_epsilon: curve.to_epsilon(self.delta).0,
                spent: self.odometer.spent_epsilon(),
                budget,
            }),
        }
    }

    /// Run the noisy covariance protocol; the server receives only the
    /// opened `hatC` and down-scales it.
    ///
    /// Panics on a budget refusal; use [`VflSession::try_covariance`] on
    /// budgeted sessions.
    pub fn covariance(&mut self, data: &Matrix, gamma: f64, mu: f64) -> Matrix {
        self.try_covariance(data, gamma, mu)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`VflSession::covariance`] with over-budget requests refused as a
    /// typed [`BudgetRefusal`] before any MPC round runs.
    pub fn try_covariance(
        &mut self,
        data: &Matrix,
        gamma: f64,
        mu: f64,
    ) -> Result<Matrix, BudgetRefusal> {
        let n = data.cols();
        let c = data.max_row_norm().max(1e-9);
        let sens = pca_sensitivity(gamma, c, n);
        self.admit(ReleaseKind::Covariance, mu, sens)?;
        let out = covariance_skellam(data, &self.partition, gamma, mu, &self.cfg);
        self.view.receive(Release {
            kind: ReleaseKind::Covariance,
            values: out.c_hat.as_slice().to_vec(),
            mu,
            gamma,
        });
        self.ledger.record("covariance", n * n, gamma, mu, sens);
        self.total_stats.push(out.stats);
        Ok(out.c_hat.scaled(1.0 / (gamma * gamma)))
    }

    /// Run one noisy gradient-sum step.
    ///
    /// Panics on a budget refusal; use [`VflSession::try_gradient_sum`] on
    /// budgeted sessions.
    pub fn gradient_sum(
        &mut self,
        data: &Matrix,
        batch: &[usize],
        w: &[f64],
        gamma: f64,
        mu: f64,
    ) -> Vec<f64> {
        self.try_gradient_sum(data, batch, w, gamma, mu)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`VflSession::gradient_sum`] with over-budget requests refused as a
    /// typed [`BudgetRefusal`] before any MPC round runs.
    pub fn try_gradient_sum(
        &mut self,
        data: &Matrix,
        batch: &[usize],
        w: &[f64],
        gamma: f64,
        mu: f64,
    ) -> Result<Vec<f64>, BudgetRefusal> {
        let d = w.len();
        let sens = lr_sensitivity(gamma, d);
        self.admit(ReleaseKind::GradientSum, mu, sens)?;
        let out = gradient_sum_skellam(data, &self.partition, batch, w, gamma, mu, &self.cfg);
        self.view.receive(Release {
            kind: ReleaseKind::GradientSum,
            values: out.grad_sum.iter().map(|&g| g * gamma.powi(3)).collect(),
            mu,
            gamma,
        });
        self.ledger.record("gradient_sum", d, gamma, mu, sens);
        self.total_stats.push(out.stats);
        Ok(out.grad_sum)
    }

    /// Run the noisy column-sum (mean) protocol.
    ///
    /// Panics on a budget refusal; use [`VflSession::try_column_sums`] on
    /// budgeted sessions.
    pub fn column_sums(&mut self, data: &Matrix, gamma: f64, mu: f64) -> Vec<f64> {
        self.try_column_sums(data, gamma, mu)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`VflSession::column_sums`] with over-budget requests refused as a
    /// typed [`BudgetRefusal`] before any MPC round runs.
    pub fn try_column_sums(
        &mut self,
        data: &Matrix,
        gamma: f64,
        mu: f64,
    ) -> Result<Vec<f64>, BudgetRefusal> {
        // Lemma 3 shape at lambda = 1: replacing one record moves the
        // amplified sums by at most `gamma * c` plus one rounding unit per
        // column.
        let n = data.cols();
        let c = data.max_row_norm().max(1e-9);
        let sens = Sensitivity::from_l2_for_dim(gamma * c + (n as f64).sqrt(), n);
        self.admit(ReleaseKind::ColumnSums, mu, sens)?;
        let out = column_sums_skellam(data, &self.partition, gamma, mu, &self.cfg);
        self.view.receive(Release {
            kind: ReleaseKind::ColumnSums,
            values: out.sums_hat.clone(),
            mu,
            gamma,
        });
        self.ledger.record("column_sums", n, gamma, mu, sens);
        self.total_stats.push(out.stats);
        Ok(out.sums_hat.iter().map(|&s| s / gamma).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Matrix {
        Matrix::from_rows(&[
            vec![0.5, -0.2, 0.1, 1.0],
            vec![-0.4, 0.3, 0.2, 0.0],
            vec![0.1, 0.1, -0.5, 1.0],
            vec![0.6, 0.0, 0.3, 0.0],
        ])
    }

    #[test]
    fn view_records_every_release_and_nothing_else() {
        let partition = ColumnPartition::even(4, 2);
        let mut session = VflSession::new(partition, VflConfig::fast(2));
        let x = data();
        let gamma = 512.0;
        session.covariance(&x, gamma, 10.0);
        session.column_sums(&x, gamma, 10.0);
        session.gradient_sum(&x, &[0, 1, 2], &[0.1, 0.0, -0.1], gamma, 10.0);

        let view = session.server_view();
        assert_eq!(view.len(), 3);
        assert_eq!(view.releases()[0].kind, ReleaseKind::Covariance);
        assert_eq!(view.releases()[1].kind, ReleaseKind::ColumnSums);
        assert_eq!(view.releases()[2].kind, ReleaseKind::GradientSum);
        assert_eq!(session.stats().len(), 3);
    }

    #[test]
    fn releases_are_perturbed_not_raw() {
        // With visible noise, the server's view of the covariance must
        // differ from the exact quantized statistic — i.e. the server never
        // sees the noiseless value.
        let partition = ColumnPartition::even(4, 2);
        let x = data();
        let gamma = 64.0;
        let mu = 1e5;
        let mut noisy = VflSession::new(partition.clone(), VflConfig::fast(2));
        let c_noisy = noisy.covariance(&x, gamma, mu);
        let mut clean = VflSession::new(partition, VflConfig::fast(2));
        let c_clean = clean.covariance(&x, gamma, 0.0);
        let delta = c_noisy.sub(&c_clean).frobenius_norm();
        assert!(delta > 0.1, "server view not perturbed: {delta}");
    }

    #[test]
    fn downscaled_outputs_are_consistent_with_view() {
        let partition = ColumnPartition::even(4, 2);
        let mut session = VflSession::new(partition, VflConfig::fast(2));
        let x = data();
        let gamma = 1024.0;
        let sums = session.column_sums(&x, gamma, 0.0);
        let raw = &session.server_view().releases()[0].values;
        for (s, r) in sums.iter().zip(raw) {
            assert!((s * gamma - r).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn rejects_partition_config_mismatch() {
        VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(3));
    }

    #[test]
    fn exactly_one_release_per_invocation_with_parameters() {
        let mut session = VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2));
        let x = data();
        assert!(session.server_view().is_empty());
        session.covariance(&x, 256.0, 5.0);
        assert_eq!(session.server_view().len(), 1);
        session.covariance(&x, 512.0, 7.0);
        assert_eq!(session.server_view().len(), 2);
        let r = &session.server_view().releases()[1];
        assert_eq!(r.kind, ReleaseKind::Covariance);
        assert_eq!(r.gamma, 512.0);
        assert_eq!(r.mu, 7.0);
        assert_eq!(r.values.len(), 16); // 4x4 covariance entries
    }

    #[test]
    fn gradient_release_is_the_amplified_opening() {
        // The recorded values must be the *amplified* (gamma^3-scaled)
        // integers the server actually observed, not the down-scaled output.
        let mut session = VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2));
        let x = data();
        let gamma = 128.0;
        let grad = session.gradient_sum(&x, &[0, 1], &[0.2, -0.1, 0.0], gamma, 0.0);
        let rel = &session.server_view().releases()[0];
        assert_eq!(rel.values.len(), grad.len());
        for (v, g) in rel.values.iter().zip(&grad) {
            assert!((v - g * gamma.powi(3)).abs() < 1e-6);
            // Amplified openings are integers.
            assert!((v - v.round()).abs() < 1e-6, "not an integer opening: {v}");
        }
    }

    #[test]
    fn ledger_tracks_every_release() {
        let mut session = VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2));
        let x = data();
        session.covariance(&x, 512.0, 1e6);
        session.column_sums(&x, 512.0, 1e4);
        session.gradient_sum(&x, &[0, 1, 2], &[0.1, 0.0, -0.1], 32.0, 1e8);

        let ledger = session.ledger();
        assert_eq!(ledger.len(), session.server_view().len());
        for (entry, release) in ledger
            .entries()
            .iter()
            .zip(session.server_view().releases())
        {
            assert_eq!(entry.gamma, release.gamma);
            assert_eq!(entry.mu, release.mu);
            assert!(entry.server_epsilon.is_finite());
            // The client view is strictly weaker (Eq. 4 vs Eq. 3).
            assert!(entry.client_epsilon > entry.server_epsilon);
        }
        assert_eq!(ledger.entries()[0].kind, "covariance");
        assert_eq!(ledger.entries()[1].kind, "column_sums");
        assert_eq!(ledger.entries()[2].kind, "gradient_sum");
        // Composition only grows.
        assert!(ledger.server_epsilon() >= ledger.entries()[0].server_epsilon);
        assert!(ledger.server_epsilon().is_finite());
    }

    #[test]
    fn unperturbed_release_is_flagged_unbounded() {
        let mut session = VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2));
        session.column_sums(&data(), 64.0, 0.0);
        assert!(session.ledger().server_epsilon().is_infinite());
    }

    #[test]
    fn mu_starved_release_is_refused_before_any_mpc_round() {
        // A tight budget with near-zero noise: the requested epsilon is
        // enormous, so admission must refuse it up front — no MPC rounds,
        // no server view, no ledger entry, no odometer spend.
        let mut session =
            VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2)).with_budget(1.0);
        let err = session.try_covariance(&data(), 512.0, 1e-6).unwrap_err();
        assert_eq!(err.kind, ReleaseKind::Covariance);
        assert!(err.requested_epsilon > err.budget);
        assert_eq!(err.budget, 1.0);
        assert!(
            session.stats().is_empty(),
            "refusal must happen before any MPC round runs"
        );
        assert!(session.server_view().is_empty());
        assert!(session.ledger().is_empty());
        assert_eq!(session.odometer().releases(), 0);
    }

    #[test]
    fn budgeted_session_admits_until_exhausted_then_refuses() {
        let x = data();
        // Measure one release's cost on an unlimited session, then budget
        // for about two of them.
        let mut probe = VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2));
        probe.covariance(&x, 64.0, 1e8);
        let one = probe.ledger().server_epsilon();

        let mut session =
            VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2)).with_budget(2.5 * one);
        let mut admitted = 0;
        let err = loop {
            match session.try_covariance(&x, 64.0, 1e8) {
                Ok(_) => admitted += 1,
                Err(e) => break e,
            }
            assert!(admitted < 50, "refusal never fired");
        };
        // RDP composition is sublinear in epsilon, so a 2.5x budget admits
        // at least two releases — and must eventually refuse.
        assert!(admitted >= 2, "expected >= 2 admitted, got {admitted}");
        assert!(err.spent <= err.budget, "spend never exceeds budget");
        // Only the admitted releases ran and were accounted.
        assert_eq!(session.stats().len(), admitted);
        assert_eq!(session.ledger().len(), admitted);
        assert_eq!(session.odometer().releases(), admitted);
        assert!(session.budget_consistent_with_ledger());
    }

    #[test]
    fn unperturbed_release_needs_an_unlimited_budget() {
        let mut session =
            VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2)).with_budget(10.0);
        let err = session.try_column_sums(&data(), 64.0, 0.0).unwrap_err();
        assert_eq!(err.kind, ReleaseKind::ColumnSums);
        assert!(err.requested_epsilon.is_infinite());
        assert!(session.stats().is_empty());
    }

    #[test]
    fn odometer_spend_matches_ledger_composition() {
        let mut session = VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2));
        let x = data();
        session.covariance(&x, 512.0, 1e6);
        session.column_sums(&x, 512.0, 1e4);
        assert!(session.budget_consistent_with_ledger());
        assert_eq!(session.odometer().releases(), session.ledger().len());
    }
}
