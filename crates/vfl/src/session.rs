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
//! A session keeps one privacy book, the obs [`PrivacyLedger`]: it prices,
//! gates, composes and reports each release once. [`VflSession`] and
//! `sqm::serve` tenants alike pass every release through
//! [`ReleasePermit::admit`], the pure gate before any MPC round, and write
//! the book with [`ReleasePermit::commit`] only after the run succeeded, so
//! a release that is refused or whose run fails spends nothing.

use sqm_accounting::skellam::Sensitivity;
use sqm_accounting::RdpCurve;
use sqm_linalg::Matrix;
use sqm_mpc::{RunStats, TransportError};
use sqm_obs::ledger::{LedgerEntry, PrivacyLedger};
use std::fmt;

use crate::partition::ColumnPartition;
use crate::plan::ReleasePlan;
use crate::{covariance, gradient, mean, VflConfig};

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

/// A release refused by [`ReleasePermit::admit`]: admitting it would push
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
/// reached the server view, the ledger or `stats()`.
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

/// Proof that a release passed [`ReleasePermit::admit`]. It spends nothing
/// until [`ReleasePermit::commit`]; drop it when the release's run fails.
#[derive(Debug)]
pub struct ReleasePermit {
    kind: ReleaseKind,
    dims: usize,
    gamma: f64,
    mu: f64,
    sens: Sensitivity,
    /// The release's [`PrivacyLedger::price`].
    curve: Option<RdpCurve>,
}

impl ReleasePermit {
    /// The budget gate, before any MPC work: price the release and check it
    /// against `ledger`'s budget. Records nothing.
    pub fn admit(
        ledger: &PrivacyLedger,
        kind: ReleaseKind,
        dims: usize,
        gamma: f64,
        mu: f64,
        sens: Sensitivity,
    ) -> Result<ReleasePermit, BudgetRefusal> {
        let curve = PrivacyLedger::price(mu, sens);
        if !ledger.fits(curve.as_ref()) {
            return Err(BudgetRefusal {
                kind,
                requested_epsilon: curve.map_or(f64::INFINITY, |c| c.to_epsilon(ledger.delta()).0),
                spent: ledger.server_epsilon(),
                budget: ledger.budget(),
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

    /// Record the admitted release, whose run succeeded, in `ledger`; its
    /// entry is returned.
    pub fn commit(self, ledger: &mut PrivacyLedger) -> &LedgerEntry {
        let kind = self.kind.ledger_name();
        ledger.commit(
            kind,
            self.dims,
            self.gamma,
            self.mu,
            self.sens,
            self.curve.as_ref(),
        )
    }
}

/// A VFL session: fixed clients/partition, a sequence of protocol calls,
/// the accumulated [`ServerView`] and the session's [`PrivacyLedger`].
///
/// **Caveat: noise replay.** Every release is a one-shot protocol run from
/// the session's one `cfg.seed()`, so two releases of the same kind draw
/// the same quantization and noise streams, while the ledger composes
/// them as if their noise were independent. Reseed between such releases
/// (`tasks::logreg` does, per round). Per-release seeds wait on the
/// benchmark: `lr_train` pins a session's releases to one fixed-seed run.
pub struct VflSession {
    partition: ColumnPartition,
    cfg: VflConfig,
    view: ServerView,
    total_stats: Vec<RunStats>,
    ledger: PrivacyLedger,
}

impl VflSession {
    /// A session with no budget limit, reporting epsilons at `delta = 1e-5`.
    pub fn new(partition: ColumnPartition, cfg: VflConfig) -> Self {
        assert_eq!(
            partition.n_clients(),
            cfg.n_clients(),
            "partition/config mismatch"
        );
        VflSession {
            // Unlimited by default: every release still passes the gate, it
            // just always fits. `with_budget` makes the gate bite.
            ledger: PrivacyLedger::new(cfg.n_clients(), 1e-5),
            partition,
            cfg,
            view: ServerView::default(),
            total_stats: Vec::new(),
        }
    }

    /// Enforce an overall server-observed epsilon budget: every later
    /// release must pass [`ReleasePermit::admit`] *before* its MPC rounds
    /// run, and an over-budget request is refused with a typed
    /// [`BudgetRefusal`]. Releases already made stay spent.
    pub fn with_budget(self, budget_eps: f64) -> Self {
        let ledger = self.ledger.with_budget(budget_eps);
        VflSession { ledger, ..self }
    }

    /// The server's accumulated view.
    pub fn server_view(&self) -> &ServerView {
        &self.view
    }

    /// Per-protocol MPC statistics, in execution order.
    pub fn stats(&self) -> &[RunStats] {
        &self.total_stats
    }

    /// The session's privacy book: one entry per release, with server- and
    /// client-observed epsilons, the running RDP composition and the budget.
    pub fn ledger(&self) -> &PrivacyLedger {
        &self.ledger
    }

    /// Every release: admit at its plan's sensitivity, run, and only then
    /// record, so the server view, the ledger and `stats()` move together or
    /// not at all. `run` returns the amplified values the server receives,
    /// the run's statistics and the caller's down-scaled output.
    fn release<T>(
        &mut self,
        kind: ReleaseKind,
        dims: usize,
        mu: f64,
        plan: &ReleasePlan,
        run: impl FnOnce(&VflConfig) -> RunResult<T>,
    ) -> Result<T, ReleaseError> {
        let gamma = plan.gamma;
        let admitted = ReleasePermit::admit(&self.ledger, kind, dims, gamma, mu, plan.sensitivity);
        let permit = admitted.map_err(ReleaseError::Refused)?;
        let (values, stats, out) = run(&self.cfg).map_err(ReleaseError::Transport)?;
        self.view.receive(Release {
            kind,
            values,
            mu,
            gamma,
        });
        permit.commit(&mut self.ledger);
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
        let plan = covariance::data_plan(data, &self.partition, gamma, mu, &self.cfg);
        self.release(ReleaseKind::Covariance, n * n, mu, &plan, |cfg| {
            let out = covariance::release(&plan, data, cfg, data.rows().max(1))?;
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
        let plan = gradient::plan(data, &self.partition, batch, w, gamma, mu, &self.cfg);
        self.release(ReleaseKind::GradientSum, w.len(), mu, &plan, |cfg| {
            let (opened, out) = gradient::release(&plan, data, batch, cfg)?;
            let amplified = opened.iter().map(|&v| v as f64).collect();
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
        let plan = mean::plan(data, &self.partition, gamma, mu, &self.cfg);
        self.release(ReleaseKind::ColumnSums, data.cols(), mu, &plan, |cfg| {
            let out = mean::release(&plan, data, cfg)?;
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
    fn the_server_view_holds_the_released_integers() {
        // The benchmark's LR shape: gamma = 18, d = 100, P = 4, seed 3. An
        // opening divided by gamma^3 in f64 and multiplied back is not
        // always an integer, so the view must keep what the receiver got.
        use rand::{Rng, SeedableRng};
        let (m, d, p, gamma) = (200, 100, 4, 18.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = Matrix::from_vec(
            m,
            d + 1,
            (0..m * (d + 1))
                .map(|i| {
                    if i % (d + 1) == d {
                        f64::from(rng.gen::<bool>())
                    } else {
                        rng.gen_range(-0.1..0.1)
                    }
                })
                .collect(),
        );
        let (partition, cfg) = (
            ColumnPartition::even(d + 1, p),
            VflConfig::fast(p).with_seed(3),
        );
        let (batch, w): (Vec<usize>, _) = ((0..m).collect(), vec![0.01; d]);
        let mut session = VflSession::new(partition.clone(), cfg.clone());
        session.gradient_sum(&x, &batch, &w, gamma, 1e6);
        let plan = gradient::plan(&x, &partition, &batch, &w, gamma, 1e6, &cfg);
        let exact = plan.exact(&[vec![(&x, &batch[..])]], cfg.seed(), 0);
        let values = &session.server_view().releases()[0].values;
        assert_eq!(values.len(), d);
        for (k, (v, e)) in values.iter().zip(&exact).enumerate() {
            assert_eq!(v.fract(), 0.0, "entry {k}: {v} is not an integer");
            assert_eq!(*v, *e as f64, "entry {k}");
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
            let before = session.ledger().server_epsilon();
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
            assert_eq!(
                session.ledger().server_epsilon().to_bits(),
                before.to_bits(),
                "{backend:?}"
            );

            // A fault-free session of the same seed is unaffected: it
            // releases what a session that never saw a fault releases.
            let release = |cfg: &VflConfig| {
                let mut session =
                    VflSession::new(ColumnPartition::even(4, 2), cfg.clone()).with_budget(10.0);
                let c = session.try_covariance(&x, 64.0, 1e8).unwrap();
                assert_eq!(session.ledger().len(), 1);
                c
            };
            assert_eq!(release(&cfg), release(&VflConfig::fast(2).with_seed(5)));
        }
    }

    #[test]
    fn odometer_spend_matches_ledger_composition() {
        // The book composes the same curves, in the same order, as an
        // odometer fed them by hand: the same bits.
        use sqm_accounting::{Admission, PrivacyOdometer};
        let mut session = VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2));
        let x = data();
        session.covariance(&x, 512.0, 1e6);
        session.column_sums(&x, 512.0, 1e4);
        let mut odometer = PrivacyOdometer::new(f64::INFINITY, 1e-5);
        for e in session.ledger().entries() {
            let sens = Sensitivity {
                l1: e.sensitivity_l1,
                l2: e.sensitivity_l2,
            };
            let curve = PrivacyLedger::price(e.mu, sens).unwrap();
            assert_eq!(odometer.admit(&curve), Admission::Admitted);
            assert_eq!(
                e.server_epsilon_total.to_bits(),
                odometer.spent_epsilon().to_bits()
            );
        }
        assert_eq!(odometer.releases(), session.ledger().len());
    }

    #[test]
    fn with_budget_after_a_release_keeps_the_spend() {
        let x = data();
        let mut session = VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2));
        session.covariance(&x, 64.0, 1e8);
        let entry = session.ledger().entries()[0].clone();
        let spent = session.ledger().server_epsilon();

        let mut session = session.with_budget(1.2 * spent);
        assert_eq!(session.ledger().len(), 1);
        assert_eq!(session.ledger().entries()[0].index, entry.index);
        assert_eq!(session.ledger().entries()[0].kind, entry.kind);
        assert_eq!(session.ledger().server_epsilon().to_bits(), spent.to_bits());
        // A second equal release alone fits 1.2x one; on top of the kept
        // spend it does not.
        let err = refusal(session.try_covariance(&x, 64.0, 1e8).unwrap_err());
        assert_eq!(err.spent.to_bits(), spent.to_bits());
        assert!(err.requested_epsilon < err.budget);
        assert_eq!(session.ledger().len(), 1);
        assert_eq!(session.stats().len(), 1);
    }

    #[test]
    fn unperturbed_release_reports_infinite_spend_everywhere() {
        let mut session = VflSession::new(ColumnPartition::even(4, 2), VflConfig::fast(2));
        session.column_sums(&data(), 64.0, 1e4);
        session.column_sums(&data(), 64.0, 0.0);
        let ledger = session.ledger();
        assert!(ledger.server_epsilon().is_infinite());
        assert!(ledger.client_epsilon().is_infinite());
        assert!(
            ledger.remaining_epsilon().is_infinite(),
            "an unlimited budget"
        );
        let report = ledger.report();
        assert!(report.server_epsilon_total.is_infinite());
        assert!(report.client_epsilon_total.is_infinite());
        let last = ledger.last_entry().unwrap();
        assert!(last.server_epsilon_total.is_infinite());
        assert!(last.client_epsilon_total.is_infinite());
        // The perturbed release before it kept its finite price.
        assert!(ledger.entries()[0].server_epsilon_total.is_finite());
    }
}
