//! One tenant: a long-lived streaming covariance session with an enforced
//! privacy budget.
//!
//! Every release goes through [`PrivacyAccount::admit`] *before* any MPC
//! round runs; a refusal is the typed [`ServeError::BudgetExhausted`] and
//! costs nothing. A release is written to the account — the odometer and
//! the obs [`PrivacyLedger`] in one [`PrivacyAccount::commit`] — only after
//! its MPC run has succeeded, so a failed run costs nothing either.

use sqm_accounting::PrivacyOdometer;
use sqm_core::sensitivity::pca_sensitivity;
use sqm_linalg::Matrix;
use sqm_mpc::{FaultSpec, RunStats};
use sqm_obs::ledger::PrivacyLedger;
use sqm_obs::metrics;
use sqm_obs::span::{RequestContext, EXEC};
use sqm_vfl::session::{ReleaseKind, ReleasePermit};
use sqm_vfl::{ColumnPartition, PrivacyAccount, StreamCov, VflConfig};

use std::time::Instant;

use crate::error::ServeError;

/// Static description of a tenant's session, fixed at creation.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Unique tenant name (the protocol's routing key).
    pub name: String,
    /// Feature columns, split evenly across the MPC clients.
    pub n_cols: usize,
    /// MPC parties (>= 2; >= 3 for actual inter-client secrecy).
    pub n_clients: usize,
    /// Quantization scale.
    pub gamma: f64,
    /// Skellam parameter per release (mu > 0 for a finite budget).
    pub mu: f64,
    /// Overall server-observed epsilon budget for the session's lifetime.
    pub budget_eps: f64,
    /// Delta the budget and ledger epsilons are reported at.
    pub delta: f64,
    /// Seed for the session's quantization/noise/share streams.
    pub seed: u64,
    /// Declared envelope: most records the session may ever ingest.
    pub max_rows: usize,
    /// Declared envelope: largest per-record l2 norm.
    pub max_row_norm: f64,
    /// Optional deterministic fault injection on the tenant's transports
    /// (tests use this to crash a party mid-session).
    pub faults: Option<FaultSpec>,
    /// Capture engine traces on every release so the request's MPC span
    /// carries the run's critical path (over the trace's flows). Tracing
    /// is passive — results are bit-identical with it on or off.
    pub request_tracing: bool,
}

impl TenantConfig {
    /// A small default workload shape; callers override fields as needed.
    pub fn new(name: &str) -> TenantConfig {
        TenantConfig {
            name: name.to_string(),
            n_cols: 3,
            n_clients: 3,
            gamma: 256.0,
            mu: 100.0,
            budget_eps: 10.0,
            delta: 1e-5,
            seed: 7,
            max_rows: 10_000,
            max_row_norm: 1.0,
            faults: None,
            request_tracing: false,
        }
    }

    fn validate(&self) -> Result<(), ServeError> {
        let bad = |detail: &str| {
            Err(ServeError::BadRequest {
                detail: detail.to_string(),
            })
        };
        if self.name.is_empty() {
            return bad("tenant name must be non-empty");
        }
        if self.n_cols == 0 {
            return bad("n_cols must be positive");
        }
        if self.n_clients < 2 || self.n_clients > self.n_cols.max(2) {
            return bad("n_clients must be in 2..=n_cols");
        }
        if !(self.gamma > 0.0 && self.gamma.is_finite()) {
            return bad("gamma must be positive and finite");
        }
        if !(self.mu >= 0.0 && self.mu.is_finite()) {
            return bad("mu must be non-negative and finite");
        }
        if self.budget_eps <= 0.0 || self.budget_eps.is_nan() {
            return bad("budget_eps must be positive");
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return bad("delta must be in (0,1)");
        }
        if self.max_rows == 0 {
            return bad("max_rows must be positive");
        }
        if !(self.max_row_norm > 0.0 && self.max_row_norm.is_finite()) {
            return bad("max_row_norm must be positive and finite");
        }
        // Before any meshing: a session whose covariance bound no field
        // holds would panic in `StreamCov::new`.
        if !StreamCov::envelope_fits(self.gamma, self.mu, self.max_rows, self.max_row_norm) {
            return bad("gamma, mu, max_rows and max_row_norm bound the covariance past M127");
        }
        Ok(())
    }
}

/// One successful release as the server hands it back.
#[derive(Clone, Debug)]
pub struct ReleaseReply {
    /// The down-scaled noisy covariance (row-major `n_cols * n_cols`).
    pub covariance: Vec<f64>,
    pub n_cols: usize,
    /// Rows covered by this release (everything ingested so far).
    pub rows_covered: usize,
    /// This tenant's release counter after this release.
    pub release_index: usize,
    /// Server-observed epsilon of this release alone.
    pub release_epsilon: f64,
    /// Composed epsilon spent after this release.
    pub spent_epsilon: f64,
    /// Budget headroom left.
    pub remaining_epsilon: f64,
    /// MPC accounting for this release.
    pub stats: RunStats,
}

/// Point-in-time budget/session numbers for `/status`.
#[derive(Clone, Debug)]
pub struct TenantReport {
    pub name: String,
    pub releases: usize,
    pub refusals: u64,
    pub rows_ingested: usize,
    pub pending_rows: usize,
    pub spent_epsilon: f64,
    pub remaining_epsilon: f64,
    pub budget_eps: f64,
    pub failed: bool,
}

/// A live tenant session.
pub struct Tenant {
    config: TenantConfig,
    stream: StreamCov,
    account: PrivacyAccount,
    refusals: u64,
}

impl Tenant {
    /// Create the session: build the partition, mesh the parties, open the
    /// streaming accumulator. Fails fast on invalid config.
    pub fn create(config: TenantConfig) -> Result<Tenant, ServeError> {
        config.validate()?;
        let partition = ColumnPartition::even(config.n_cols, config.n_clients);
        let cfg = VflConfig::fast(config.n_clients)
            .with_seed(config.seed)
            .with_trace(config.request_tracing)
            .with_faults(config.faults.clone());
        let stream = StreamCov::new(
            partition,
            config.gamma,
            config.mu,
            &cfg,
            config.max_rows,
            config.max_row_norm,
        )
        .map_err(|error| ServeError::SessionFailed {
            tenant: config.name.clone(),
            error,
        })?;
        let account = PrivacyAccount::new(config.n_clients, config.budget_eps, config.delta);
        Ok(Tenant {
            config,
            stream,
            account,
            refusals: 0,
        })
    }

    pub fn config(&self) -> &TenantConfig {
        &self.config
    }

    /// Queue records for the next release. Cheap (no MPC).
    pub fn ingest(&mut self, records: &[Vec<f64>]) -> Result<usize, ServeError> {
        if let Some(error) = self.stream.failure() {
            return Err(ServeError::SessionFailed {
                tenant: self.config.name.clone(),
                error: error.clone(),
            });
        }
        if records.is_empty() {
            return Err(ServeError::BadRequest {
                detail: "empty batch".to_string(),
            });
        }
        for r in records {
            if r.len() != self.config.n_cols {
                return Err(ServeError::BadRequest {
                    detail: format!("record width {} != n_cols {}", r.len(), self.config.n_cols),
                });
            }
            let norm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > self.config.max_row_norm * (1.0 + 1e-12) {
                return Err(ServeError::BadRequest {
                    detail: format!(
                        "record norm {norm:.4} exceeds envelope {}",
                        self.config.max_row_norm
                    ),
                });
            }
        }
        let total = self.stream.rows_ingested() + self.stream.pending_rows() + records.len();
        if total > self.config.max_rows {
            return Err(ServeError::BadRequest {
                detail: format!(
                    "session would exceed {}-record envelope",
                    self.config.max_rows
                ),
            });
        }
        let batch = Matrix::from_rows(records);
        self.stream.ingest(&batch);
        Ok(self.stream.pending_rows())
    }

    /// One DP release: budget gate first, MPC second, both books third.
    pub fn release(&mut self) -> Result<ReleaseReply, ServeError> {
        self.release_spanned(None)
    }

    /// The budget gate alone, before any MPC round. Every release costs the
    /// same: its curve is pinned by the session's gamma/mu/envelope.
    fn admit_release(&mut self) -> Result<ReleasePermit, ServeError> {
        let TenantConfig {
            gamma, mu, n_cols, ..
        } = self.config;
        let sens = pca_sensitivity(gamma, self.config.max_row_norm.max(1e-9), n_cols);
        let kind = ReleaseKind::Covariance;
        let admitted = self.account.admit(kind, n_cols * n_cols, gamma, mu, sens);
        admitted.map_err(|refusal| {
            self.refusals += 1;
            metrics::counter_add("serve.budget_refusals", 1);
            metrics::counter_add(&format!("serve.budget_refusals.{}", self.config.name), 1);
            ServeError::BudgetExhausted {
                tenant: self.config.name.clone(),
                spent: refusal.spent,
                budget: refusal.budget,
            }
        })
    }

    /// [`Tenant::release`] with request-scoped tracing: the admit / MPC /
    /// encode phases each record a child span under the request's exec
    /// span and a per-tenant phase-latency histogram, and the MPC span
    /// links to the causal run id (the session seed), carrying the run's
    /// critical path when the session captures engine traces ([`TenantConfig::request_tracing`]).
    pub fn release_spanned(
        &mut self,
        mut ctx: Option<&mut RequestContext>,
    ) -> Result<ReleaseReply, ServeError> {
        if let Some(error) = self.stream.failure() {
            return Err(ServeError::SessionFailed {
                tenant: self.config.name.clone(),
                error: error.clone(),
            });
        }
        // --- budget gate, before any MPC round -------------------------
        let admit_started = Instant::now();
        let admitted = self.admit_release();
        let admit_wall = admit_started.elapsed();
        metrics::histogram_record(
            &format!("serve.request_phase_ns.admit.{}", self.config.name),
            admit_wall.as_nanos() as f64,
        );
        if let Some(c) = ctx.as_deref_mut() {
            c.add_child(EXEC, "admit", admit_wall);
        }
        let permit = admitted?;
        // --- MPC over the reused mesh -----------------------------------
        let mpc_started = Instant::now();
        let out = self.stream.release().map_err(|error| {
            metrics::counter_add("serve.sessions_failed", 1);
            ServeError::SessionFailed {
                tenant: self.config.name.clone(),
                error,
            }
        });
        let mpc_wall = mpc_started.elapsed();
        metrics::histogram_record(
            &format!("serve.request_phase_ns.mpc.{}", self.config.name),
            mpc_wall.as_nanos() as f64,
        );
        if let Some(c) = ctx.as_deref_mut() {
            let id = c.add_child(EXEC, "mpc", mpc_wall);
            if let Ok(out) = &out {
                let span = c.span_mut(id);
                // The causal run id is the session seed, which names the
                // flight recorder / chrome-trace artifacts of the same run.
                span.run_id = Some(self.config.seed);
                span.rounds = out.stats.total.rounds;
                span.messages = out.stats.total.messages;
                span.bytes = out.stats.total.bytes;
                if let Some(trace) = &out.trace {
                    span.critical = Some(sqm_obs::critical_path(trace));
                }
            }
        }
        let out = out?;
        // --- the run succeeded: spend the permit, encode the reply -------
        let encode_started = Instant::now();
        let release_epsilon = self.account.commit(permit).server_epsilon;
        debug_assert!(
            self.account.budget_consistent_with_ledger(),
            "odometer and ledger disagree for tenant {}",
            self.config.name
        );
        metrics::counter_add("serve.releases_admitted", 1);
        let gamma2 = self.config.gamma * self.config.gamma;
        let reply = ReleaseReply {
            covariance: out.c_hat.as_slice().iter().map(|v| v / gamma2).collect(),
            n_cols: self.config.n_cols,
            rows_covered: self.stream.rows_ingested(),
            release_index: self.stream.releases(),
            release_epsilon,
            spent_epsilon: self.odometer().spent_epsilon(),
            remaining_epsilon: self.odometer().remaining_epsilon(),
            stats: out.stats,
        };
        let encode_wall = encode_started.elapsed();
        metrics::histogram_record(
            &format!("serve.request_phase_ns.encode.{}", self.config.name),
            encode_wall.as_nanos() as f64,
        );
        if let Some(c) = ctx {
            c.add_child(EXEC, "encode", encode_wall);
        }
        Ok(reply)
    }

    /// The tenant's privacy account (both books and their cross-check).
    pub fn account(&self) -> &PrivacyAccount {
        &self.account
    }

    /// The obs privacy ledger (one entry per successful release).
    pub fn ledger(&self) -> &PrivacyLedger {
        self.account.ledger()
    }

    /// The odometer enforcing the budget.
    pub fn odometer(&self) -> &PrivacyOdometer {
        self.account.odometer()
    }

    pub fn report(&self) -> TenantReport {
        TenantReport {
            name: self.config.name.clone(),
            releases: self.stream.releases(),
            refusals: self.refusals,
            rows_ingested: self.stream.rows_ingested(),
            pending_rows: self.stream.pending_rows(),
            spent_epsilon: self.odometer().spent_epsilon(),
            remaining_epsilon: self.odometer().remaining_epsilon(),
            budget_eps: self.config.budget_eps,
            failed: self.stream.failure().is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize, cols: usize, scale: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..cols)
                    .map(|j| scale * ((i * cols + j) as f64 * 0.37).sin() / (cols as f64).sqrt())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn releases_until_budget_exhausted_then_typed_refusal() {
        // Measure one release's epsilon on an unlimited probe tenant, then
        // budget the real tenant for about two and a half of them.
        let mut cfg = TenantConfig::new("probe");
        cfg.mu = 1e8;
        cfg.gamma = 64.0;
        cfg.budget_eps = f64::INFINITY;
        let mut probe = Tenant::create(cfg.clone()).unwrap();
        probe.ingest(&records(4, 3, 0.9)).unwrap();
        let one = probe.release().unwrap().release_epsilon;
        assert!(one.is_finite() && one > 0.0);

        cfg.name = "acme".to_string();
        cfg.budget_eps = 2.5 * one;
        let budget = cfg.budget_eps;
        let mut tenant = Tenant::create(cfg).unwrap();
        tenant.ingest(&records(4, 3, 0.9)).unwrap();
        let mut admitted = 0;
        let err = loop {
            match tenant.release() {
                Ok(reply) => {
                    admitted += 1;
                    assert!(reply.spent_epsilon <= budget * (1.0 + 1e-9));
                    assert_eq!(reply.rows_covered, 4);
                }
                Err(e) => break e,
            }
            assert!(admitted < 100, "refusal never fired");
        };
        // RDP composition is sublinear in epsilon, so a 2.5x budget admits
        // at least two releases — and must eventually refuse.
        assert!(admitted >= 2, "budget admits at least two releases");
        match &err {
            ServeError::BudgetExhausted {
                tenant: name,
                spent,
                budget,
            } => {
                assert_eq!(name, "acme");
                assert!(*spent <= *budget);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(err.http_status(), 403);
        // Refusal costs nothing: release count unchanged, accounts agree.
        let report = tenant.report();
        assert_eq!(report.releases, admitted);
        assert_eq!(report.refusals, 1);
        assert!(tenant.account().budget_consistent_with_ledger());
        assert_eq!(tenant.ledger().len(), admitted);
    }

    #[test]
    fn failed_release_spends_nothing_in_either_book() {
        let mut cfg = TenantConfig::new("doomed");
        cfg.mu = 1e8;
        cfg.gamma = 64.0;
        // Crash party 1 in the first release's second (open) round, after
        // the budget gate has admitted the release.
        cfg.faults = Some(FaultSpec::seeded(5).with_crash(1, 1));
        let mut tenant = Tenant::create(cfg).unwrap();
        tenant.ingest(&records(4, 3, 0.9)).unwrap();
        // A zero-release odometer reports the zero curve's conversion
        // floor, not 0: compare against the value before the call.
        let before = tenant.report().spent_epsilon;
        match tenant.release().unwrap_err() {
            ServeError::SessionFailed { tenant, error } => {
                assert_eq!(tenant, "doomed");
                let crash = sqm_mpc::TransportError::Crashed { party: 1, round: 1 };
                assert_eq!(error, crash);
            }
            other => panic!("expected SessionFailed, got {other:?}"),
        }
        assert_eq!(tenant.report().spent_epsilon.to_bits(), before.to_bits());
        assert!(tenant.ledger().is_empty());
        assert_eq!(tenant.odometer().releases(), 0);
        assert!(tenant.account().budget_consistent_with_ledger());
    }

    #[test]
    fn mu_zero_release_is_always_refused() {
        let mut cfg = TenantConfig::new("nonoise");
        cfg.mu = 0.0;
        let mut tenant = Tenant::create(cfg).unwrap();
        tenant.ingest(&records(2, 3, 0.5)).unwrap();
        let err = tenant.release().unwrap_err();
        assert!(matches!(err, ServeError::BudgetExhausted { .. }));
        assert_eq!(tenant.report().releases, 0);
    }

    #[test]
    fn ingest_validates_width_norm_and_envelope() {
        let mut cfg = TenantConfig::new("v");
        cfg.max_rows = 3;
        let mut tenant = Tenant::create(cfg).unwrap();
        assert!(matches!(
            tenant.ingest(&[vec![0.1, 0.2]]).unwrap_err(),
            ServeError::BadRequest { .. }
        ));
        assert!(matches!(
            tenant.ingest(&[vec![5.0, 0.0, 0.0]]).unwrap_err(),
            ServeError::BadRequest { .. }
        ));
        tenant.ingest(&records(3, 3, 0.5)).unwrap();
        assert!(matches!(
            tenant.ingest(&records(1, 3, 0.5)).unwrap_err(),
            ServeError::BadRequest { .. }
        ));
    }

    #[test]
    fn replies_are_deterministic_for_a_fixed_seed() {
        let run = || {
            let mut cfg = TenantConfig::new("det");
            cfg.seed = 99;
            cfg.mu = 400.0;
            cfg.budget_eps = f64::INFINITY;
            let mut t = Tenant::create(cfg).unwrap();
            t.ingest(&records(5, 3, 0.8)).unwrap();
            let a = t.release().unwrap();
            t.ingest(&records(2, 3, 0.8)).unwrap();
            let b = t.release().unwrap();
            (a.covariance, b.covariance)
        };
        assert_eq!(run(), run());
    }
}
