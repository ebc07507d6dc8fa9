//! Session orchestration with an explicit, auditable server view.
//!
//! The paper's threat model distinguishes what the *server* observes
//! (Eq. 3) from what a *client* observes (Eq. 4). [`VflSession`] makes the
//! server side of that boundary executable: every value that crosses from
//! the clients to the server goes through [`ServerView::receive`], which
//! records it, so a test (or an auditor) can verify that the server's
//! entire view of a protocol run consists of exactly the DP-accounted
//! releases — never raw data, shares, or noise components.
//!
//! [`PrivacyAccount`] owns both books of a session — the budget odometer
//! and the obs ledger — for [`VflSession`] and `sqm::serve` tenants alike:
//! `admit` is the pure gate before a release, `commit` writes both books in
//! one call after its MPC run succeeded, so a release that is refused or
//! whose run fails spends nothing in either.

use sqm_accounting::skellam::Sensitivity;
use sqm_accounting::{default_alpha_grid, skellam_rdp, Admission, PrivacyOdometer, RdpCurve};
use sqm_core::sensitivity::{lr_sensitivity, pca_sensitivity};
use sqm_linalg::Matrix;
use sqm_mpc::{RunStats, TransportError};
use sqm_obs::ledger::{LedgerEntry, PrivacyLedger};
use std::fmt;

use crate::covariance::try_covariance_skellam;
use crate::gradient::try_gradient_sum_skellam;
use crate::mean::try_column_sums_skellam;
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

impl ReleaseKind {
    /// The kind as the privacy ledger spells it.
    fn ledger_name(self) -> &'static str {
        match self {
            ReleaseKind::Covariance => "covariance",
            ReleaseKind::GradientSum => "gradient_sum",
            ReleaseKind::ColumnSums => "column_sums",
        }
    }
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

/// A release refused by [`PrivacyAccount::admit`]: admitting it would push
/// the composed server-observed epsilon past the session budget.
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

/// Why a [`VflSession`] release produced no output; either way nothing
/// reached the server view, the account or `stats()`.
#[derive(Clone, Debug, PartialEq)]
pub enum ReleaseError {
    /// Refused by the budget gate before any MPC round ran.
    Refused(BudgetRefusal),
    /// Admitted, but the MPC run failed; the permit was dropped unspent.
    Transport(TransportError),
}

impl fmt::Display for ReleaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReleaseError::Refused(refusal) => refusal.fmt(f),
            ReleaseError::Transport(e) => write!(f, "mpc transport failure: {e}"),
        }
    }
}

impl std::error::Error for ReleaseError {}

/// Proof that a release passed [`PrivacyAccount::admit`]. It spends nothing
/// until [`PrivacyAccount::commit`]; drop it when the release's run fails.
#[derive(Debug)]
pub struct ReleasePermit {
    kind: ReleaseKind,
    dims: usize,
    gamma: f64,
    mu: f64,
    sens: Sensitivity,
    /// `None`: an unperturbed release, which the odometer cannot price.
    curve: Option<RdpCurve>,
}

/// The privacy account of one session: the odometer that enforces the
/// budget and the ledger that reports the spend, in step because
/// [`PrivacyAccount::commit`] is the only way to write either.
pub struct PrivacyAccount {
    odometer: PrivacyOdometer,
    ledger: PrivacyLedger,
}

impl PrivacyAccount {
    /// An empty account with an overall server-observed `(budget_eps,
    /// delta)` budget; `f64::INFINITY` never refuses.
    pub fn new(n_clients: usize, budget_eps: f64, delta: f64) -> Self {
        PrivacyAccount {
            odometer: PrivacyOdometer::new(budget_eps, delta),
            ledger: PrivacyLedger::new(n_clients, delta),
        }
    }

    /// The budget gate, before any MPC work; records nothing.
    pub fn admit(
        &self,
        kind: ReleaseKind,
        dims: usize,
        gamma: f64,
        mu: f64,
        sens: Sensitivity,
    ) -> Result<ReleasePermit, BudgetRefusal> {
        let (budget, delta) = self.odometer.budget();
        let grid = default_alpha_grid();
        let curve = (mu > 0.0).then(|| RdpCurve::from_fn(&grid, |a| skellam_rdp(a, sens, mu)));
        // An unperturbed opening is an infinite-epsilon release: only an
        // unlimited budget admits one.
        let fits = match &curve {
            Some(curve) => self.odometer.fits(curve),
            None => budget.is_infinite(),
        };
        if !fits {
            return Err(BudgetRefusal {
                kind,
                requested_epsilon: curve.map_or(f64::INFINITY, |c| c.to_epsilon(delta).0),
                spent: self.odometer.spent_epsilon(),
                budget,
            });
        }
        Ok(ReleasePermit {
            kind,
            dims,
            gamma,
            mu,
            sens,
            curve,
        })
    }

    /// Record an admitted release whose run succeeded: compose its curve
    /// into the odometer and append its ledger entry, which is returned.
    pub fn commit(&mut self, permit: ReleasePermit) -> &LedgerEntry {
        if let Some(curve) = &permit.curve {
            let admitted = self.odometer.admit(curve);
            assert_eq!(admitted, Admission::Admitted, "permit outlived a commit");
        }
        let kind = permit.kind.ledger_name();
        self.ledger
            .record(kind, permit.dims, permit.gamma, permit.mu, permit.sens)
            .expect("record appends an entry")
    }

    /// One entry per committed release, with server- and client-observed
    /// epsilons and the running RDP composition.
    pub fn ledger(&self) -> &PrivacyLedger {
        &self.ledger
    }

    /// The budget odometer behind [`PrivacyAccount::admit`].
    pub fn odometer(&self) -> &PrivacyOdometer {
        &self.odometer
    }

    /// Does the odometer's spend agree with the ledger's composed server
    /// curve? `commit` feeds both the same curve, so a disagreement beyond
    /// floating error is a bug here. (An unperturbed release makes the
    /// ledger unbounded; only an unlimited budget, which the odometer then
    /// does not charge, admits one.)
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
}

/// A VFL session: fixed clients/partition, a sequence of protocol calls,
/// the accumulated [`ServerView`] and the session's [`PrivacyAccount`].
///
/// **Caveat: noise replay.** Every release is a one-shot protocol run from
/// the session's one `cfg.seed()`, so two releases of the same kind draw
/// the same quantization and noise streams, while the account composes
/// them as if their noise were independent. Reseed between such releases
/// (`tasks::logreg` does, per round). Per-release seeds wait on the
/// benchmark: `lr_train` pins a session's releases to one fixed-seed run.
pub struct VflSession {
    partition: ColumnPartition,
    cfg: VflConfig,
    view: ServerView,
    total_stats: Vec<RunStats>,
    account: PrivacyAccount,
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
        VflSession {
            // Unlimited by default: `admit` still gates every release, it
            // just always fits. `with_budget` makes the gate bite.
            account: PrivacyAccount::new(cfg.n_clients(), f64::INFINITY, delta),
            partition,
            cfg,
            view: ServerView::default(),
            total_stats: Vec::new(),
        }
    }

    /// Enforce an overall server-observed `(budget_eps, delta)` budget:
    /// every release must pass [`PrivacyAccount::admit`] *before* its MPC
    /// rounds run, and an over-budget request is refused with a typed
    /// [`BudgetRefusal`]. The delta is the session's ledger delta.
    pub fn with_budget(mut self, budget_eps: f64) -> Self {
        let delta = self.account.ledger.delta();
        self.account = PrivacyAccount::new(self.cfg.n_clients(), budget_eps, delta);
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

    /// The session's privacy account: both books and their cross-check.
    pub fn account(&self) -> &PrivacyAccount {
        &self.account
    }

    /// See [`PrivacyAccount::ledger`].
    pub fn ledger(&self) -> &PrivacyLedger {
        &self.account.ledger
    }

    /// See [`PrivacyAccount::odometer`].
    pub fn odometer(&self) -> &PrivacyOdometer {
        &self.account.odometer
    }

    /// Every release: admit, run, and only then record, so the server view,
    /// both books and `stats()` move together or not at all. `run` returns
    /// the amplified values the server receives, the run's statistics and
    /// the caller's down-scaled output.
    fn release<T>(
        &mut self,
        kind: ReleaseKind,
        dims: usize,
        gamma: f64,
        mu: f64,
        sens: Sensitivity,
        run: impl FnOnce(&ColumnPartition, &VflConfig) -> RunResult<T>,
    ) -> Result<T, ReleaseError> {
        let admitted = self.account.admit(kind, dims, gamma, mu, sens);
        let permit = admitted.map_err(ReleaseError::Refused)?;
        let ran = run(&self.partition, &self.cfg);
        let (values, stats, out) = ran.map_err(ReleaseError::Transport)?;
        self.view.receive(Release {
            kind,
            values,
            mu,
            gamma,
        });
        self.account.commit(permit);
        self.total_stats.push(stats);
        Ok(out)
    }

    /// Run the noisy covariance protocol; the server receives only the
    /// opened `hatC` and down-scales it.
    ///
    /// Panics on a [`ReleaseError`]; use [`VflSession::try_covariance`] on
    /// budgeted sessions or faulty transports.
    pub fn covariance(&mut self, data: &Matrix, gamma: f64, mu: f64) -> Matrix {
        self.try_covariance(data, gamma, mu)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`VflSession::covariance`] with an over-budget request (refused
    /// before any MPC round runs) or a failed run as a typed
    /// [`ReleaseError`]; neither spends anything.
    pub fn try_covariance(
        &mut self,
        data: &Matrix,
        gamma: f64,
        mu: f64,
    ) -> Result<Matrix, ReleaseError> {
        let n = data.cols();
        let sens = pca_sensitivity(gamma, data.max_row_norm().max(1e-9), n);
        let kind = ReleaseKind::Covariance;
        self.release(kind, n * n, gamma, mu, sens, |partition, cfg| {
            let out = try_covariance_skellam(data, partition, gamma, mu, cfg)?;
            let scaled = out.c_hat.scaled(1.0 / (gamma * gamma));
            Ok((out.c_hat.as_slice().to_vec(), out.stats, scaled))
        })
    }

    /// Run one noisy gradient-sum step.
    ///
    /// Panics on a [`ReleaseError`]; see [`VflSession::try_gradient_sum`].
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

    /// [`VflSession::gradient_sum`] with a typed [`ReleaseError`].
    pub fn try_gradient_sum(
        &mut self,
        data: &Matrix,
        batch: &[usize],
        w: &[f64],
        gamma: f64,
        mu: f64,
    ) -> Result<Vec<f64>, ReleaseError> {
        let d = w.len();
        let kind = ReleaseKind::GradientSum;
        let sens = lr_sensitivity(gamma, d);
        self.release(kind, d, gamma, mu, sens, |partition, cfg| {
            let out = try_gradient_sum_skellam(data, partition, batch, w, gamma, mu, cfg)?;
            let amplified = out.grad_sum.iter().map(|&g| g * gamma.powi(3)).collect();
            Ok((amplified, out.stats, out.grad_sum))
        })
    }

    /// Run the noisy column-sum (mean) protocol.
    ///
    /// Panics on a [`ReleaseError`]; see [`VflSession::try_column_sums`].
    pub fn column_sums(&mut self, data: &Matrix, gamma: f64, mu: f64) -> Vec<f64> {
        self.try_column_sums(data, gamma, mu)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`VflSession::column_sums`] with a typed [`ReleaseError`].
    pub fn try_column_sums(
        &mut self,
        data: &Matrix,
        gamma: f64,
        mu: f64,
    ) -> Result<Vec<f64>, ReleaseError> {
        // Lemma 3 shape at lambda = 1: replacing one record moves the
        // amplified sums by at most `gamma * c` plus one rounding unit per
        // column.
        let n = data.cols();
        let c = data.max_row_norm().max(1e-9);
        let sens = Sensitivity::from_l2_for_dim(gamma * c + (n as f64).sqrt(), n);
        let kind = ReleaseKind::ColumnSums;
        self.release(kind, n, gamma, mu, sens, |partition, cfg| {
            let out = try_column_sums_skellam(data, partition, gamma, mu, cfg)?;
            let scaled = out.sums_hat.iter().map(|&s| s / gamma).collect();
            Ok((out.sums_hat, out.stats, scaled))
        })
    }
}

/// What a release's protocol run hands [`VflSession::release`].
type RunResult<T> = Result<(Vec<f64>, RunStats, T), TransportError>;

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

    /// The refusal a `try_*` call was expected to end in.
    fn refusal(err: ReleaseError) -> BudgetRefusal {
        match err {
            ReleaseError::Refused(refusal) => refusal,
            other => panic!("expected a budget refusal, got {other:?}"),
        }
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
        let err = refusal(session.try_covariance(&data(), 512.0, 1e-6).unwrap_err());
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
                Err(e) => break refusal(e),
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
        assert!(session.account().budget_consistent_with_ledger());
    }

    #[test]
    fn unperturbed_release_needs_an_unlimited_budget() {
        let mut session =
            VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2)).with_budget(10.0);
        let err = refusal(session.try_column_sums(&data(), 64.0, 0.0).unwrap_err());
        assert_eq!(err.kind, ReleaseKind::ColumnSums);
        assert!(err.requested_epsilon.is_infinite());
        assert!(session.stats().is_empty());
    }

    #[test]
    fn failed_run_is_a_typed_error_that_spends_nothing_in_either_book() {
        use sqm_mpc::{FaultSpec, NetBackend};
        // Party 1 crashes in round 1: every release dies at its open, after
        // the budget gate has admitted it.
        let crash = TransportError::Crashed { party: 1, round: 1 };
        let x = data();
        let w = [0.1, 0.0, -0.1];
        for backend in [NetBackend::InProcess, NetBackend::tcp()] {
            let cfg = VflConfig::fast(2)
                .with_seed(5)
                .with_backend(backend.clone());
            let faulty = cfg
                .clone()
                .with_faults(Some(FaultSpec::seeded(5).with_crash(1, 1)));
            let mut session =
                VflSession::new(ColumnPartition::even(4, 2), faulty).with_budget(10.0);
            let before = session.odometer().spent_epsilon();
            let errors = [
                session.try_covariance(&x, 64.0, 1e8).unwrap_err(),
                session
                    .try_gradient_sum(&x, &[0, 1, 2], &w, 64.0, 1e12)
                    .unwrap_err(),
                session.try_column_sums(&x, 64.0, 1e8).unwrap_err(),
            ];
            for err in errors {
                assert_eq!(err, ReleaseError::Transport(crash.clone()), "{backend:?}");
            }
            assert!(session.server_view().is_empty(), "{backend:?}");
            assert!(session.ledger().is_empty(), "{backend:?}");
            assert!(session.stats().is_empty(), "{backend:?}");
            assert_eq!(session.odometer().releases(), 0, "{backend:?}");
            assert_eq!(
                session.odometer().spent_epsilon().to_bits(),
                before.to_bits(),
                "{backend:?}"
            );
            assert!(session.account().budget_consistent_with_ledger());

            // A fault-free session of the same seed is unaffected: it
            // releases what a session that never saw a fault releases.
            let release = |cfg: &VflConfig| {
                let mut session =
                    VflSession::new(ColumnPartition::even(4, 2), cfg.clone()).with_budget(10.0);
                let c = session.try_covariance(&x, 64.0, 1e8).unwrap();
                assert_eq!(session.odometer().releases(), 1);
                assert!(session.account().budget_consistent_with_ledger());
                c
            };
            assert_eq!(release(&cfg), release(&VflConfig::fast(2).with_seed(5)));
        }
    }

    #[test]
    fn odometer_spend_matches_ledger_composition() {
        let mut session = VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2));
        let x = data();
        session.covariance(&x, 512.0, 1e6);
        session.column_sums(&x, 512.0, 1e4);
        assert!(session.account().budget_consistent_with_ledger());
        assert_eq!(session.odometer().releases(), session.ledger().len());
    }
}
