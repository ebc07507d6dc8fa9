//! The privacy ledger: a session's one privacy book.
//!
//! The paper's threat model gives every release two epsilons: the
//! **server-observed** guarantee (Eq. 3 — the untrusted server sees the
//! aggregate `Sk(mu)`-perturbed opening) and the weaker **client-observed**
//! guarantee (Eq. 4 — a curious client knows her own noise share, leaving
//! `Sk((P-1)/P * mu)`, and neighboring datasets replace a record, doubling
//! sensitivity). The ledger records both for every release, along with the
//! mechanism parameters `(gamma, mu, sensitivity)` that justify them, and
//! maintains the running RDP composition (Lemma 10) of everything released
//! so far. The composition needs only running totals, so the ledger keeps
//! the entries of the most recent releases alone ([`RECENT_ENTRIES`]): a
//! long-lived session's book stays bounded however many releases it makes.
//!
//! It is also the budget gate. Its server-side spend is a
//! [`PrivacyOdometer`], so a release is priced ([`PrivacyLedger::price`]),
//! checked against the budget ([`PrivacyLedger::fits`]) and composed
//! ([`PrivacyLedger::commit`]) once, on one curve, and the spend it
//! reports was converted when the last release was committed. A ledger from
//! [`PrivacyLedger::new`] has no budget limit;
//! [`PrivacyLedger::with_budget`] sets one.

use serde::Serialize;
use sqm_accounting::budget::{Admission, PrivacyOdometer};
use sqm_accounting::skellam::{skellam_rdp, skellam_rdp_client_observed, Sensitivity};
use sqm_accounting::{default_alpha_grid, RdpCurve};

/// A ledger keeps at least the last `RECENT_ENTRIES` entries and fewer
/// than twice as many: on reaching `2 × RECENT_ENTRIES` it drops the
/// oldest half, so a release's commit moves entries only once in
/// `RECENT_ENTRIES` releases.
pub const RECENT_ENTRIES: usize = 256;

/// One recorded release.
#[derive(Clone, Debug, Serialize)]
pub struct LedgerEntry {
    /// Position in the release sequence (0-based).
    pub index: usize,
    /// What produced it (e.g. `"covariance"`, `"gradient_sum"`).
    pub kind: String,
    /// Output dimensionality of the released vector/matrix.
    pub dims: usize,
    /// Quantization scale.
    pub gamma: f64,
    /// Aggregate Skellam parameter (each of the `P` clients contributed
    /// `Sk(mu/P)`).
    pub mu: f64,
    /// L1 sensitivity of the amplified integer release.
    pub sensitivity_l1: f64,
    /// L2 sensitivity of the amplified integer release.
    pub sensitivity_l2: f64,
    /// Server-observed epsilon of this release alone (infinite when
    /// `mu = 0`).
    pub server_epsilon: f64,
    /// Client-observed epsilon of this release alone.
    pub client_epsilon: f64,
    /// Server-observed epsilon of the composition up to and including this
    /// release.
    pub server_epsilon_total: f64,
    /// Client-observed epsilon of the composition up to and including this
    /// release.
    pub client_epsilon_total: f64,
}

/// Running privacy account over a sequence of Skellam releases.
#[derive(Clone, Debug)]
pub struct PrivacyLedger {
    n_clients: usize,
    /// Releases committed, all of them.
    releases: usize,
    /// The most recent releases' entries (see [`RECENT_ENTRIES`]).
    entries: Vec<LedgerEntry>,
    /// Server-observed spend against the budget.
    server: PrivacyOdometer,
    client: RdpCurve,
    /// Set once any release had `mu = 0` (no noise): composed epsilons are
    /// infinite from then on.
    unbounded: bool,
}

impl PrivacyLedger {
    /// A fresh ledger for a `P`-client deployment with no budget limit,
    /// converting RDP to `(eps, delta)`-DP at the given `delta`.
    pub fn new(n_clients: usize, delta: f64) -> Self {
        assert!(
            n_clients >= 2,
            "client-observed DP needs at least 2 clients"
        );
        PrivacyLedger {
            n_clients,
            releases: 0,
            entries: Vec::new(),
            server: PrivacyOdometer::new(f64::INFINITY, delta),
            client: RdpCurve::zero(&default_alpha_grid()),
            unbounded: false,
        }
    }

    /// The same book under an overall server-observed epsilon budget
    /// (`f64::INFINITY` never refuses); what it has spent stays spent.
    pub fn with_budget(self, budget_eps: f64) -> Self {
        let server = self.server.with_budget(budget_eps);
        PrivacyLedger { server, ..self }
    }

    /// The server-observed RDP curve of one Skellam release (Lemma 1), or
    /// `None` for an unperturbed `mu = 0` opening, which has none.
    pub fn price(mu: f64, sens: Sensitivity) -> Option<RdpCurve> {
        (mu > 0.0).then(|| RdpCurve::from_fn(&default_alpha_grid(), |a| skellam_rdp(a, sens, mu)))
    }

    /// The budget gate: would a release priced `server` stay within
    /// budget? An unperturbed release is an infinite-epsilon one that only
    /// an unlimited budget admits. Records nothing.
    pub fn fits(&self, server: Option<&RdpCurve>) -> bool {
        match server {
            Some(curve) => self.server.fits(curve),
            None => self.budget().is_infinite(),
        }
    }

    /// Record one Skellam release: [`PrivacyLedger::price`] it, then
    /// [`PrivacyLedger::commit`] it.
    pub fn record(
        &mut self,
        kind: &str,
        dims: usize,
        gamma: f64,
        mu: f64,
        sens: Sensitivity,
    ) -> &LedgerEntry {
        let server = Self::price(mu, sens);
        self.commit(kind, dims, gamma, mu, sens, server.as_ref())
    }

    /// Record one release whose price `server` (from
    /// [`PrivacyLedger::price`]) passed [`PrivacyLedger::fits`]: compose it
    /// and its client-observed curve, and return its entry. Panics if it
    /// no longer fits the budget.
    pub fn commit(
        &mut self,
        kind: &str,
        dims: usize,
        gamma: f64,
        mu: f64,
        sens: Sensitivity,
        server: Option<&RdpCurve>,
    ) -> &LedgerEntry {
        const PAST_BUDGET: &str = "release committed past the budget";
        let delta = self.delta();
        let (server_eps, client_eps) = match server {
            Some(server) => {
                assert_eq!(
                    self.server.admit(server),
                    Admission::Admitted,
                    "{PAST_BUDGET}"
                );
                let client = RdpCurve::from_fn(&default_alpha_grid(), |a| {
                    skellam_rdp_client_observed(a, sens, mu, self.n_clients)
                });
                self.client = self.client.compose(&client);
                (server.to_epsilon(delta).0, client.to_epsilon(delta).0)
            }
            None => {
                // An unperturbed opening has no DP guarantee at all.
                assert!(self.budget().is_infinite(), "{PAST_BUDGET}");
                self.unbounded = true;
                (f64::INFINITY, f64::INFINITY)
            }
        };
        self.entries.push(LedgerEntry {
            index: self.releases,
            kind: kind.to_string(),
            dims,
            gamma,
            mu,
            sensitivity_l1: sens.l1,
            sensitivity_l2: sens.l2,
            server_epsilon: server_eps,
            client_epsilon: client_eps,
            server_epsilon_total: self.server_epsilon(),
            client_epsilon_total: self.client_epsilon(),
        });
        self.releases += 1;
        if self.entries.len() == 2 * RECENT_ENTRIES {
            self.entries.drain(..RECENT_ENTRIES);
        }
        &self.entries[self.entries.len() - 1]
    }

    /// The most recent releases' entries, in order: every release until
    /// there are `2 × RECENT_ENTRIES`, and at least the last
    /// `RECENT_ENTRIES` after that.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// The most recent release, if any has been recorded.
    pub fn last_entry(&self) -> Option<&LedgerEntry> {
        self.entries.last()
    }

    /// Releases committed, including those whose entries were dropped.
    pub fn len(&self) -> usize {
        self.releases
    }

    pub fn is_empty(&self) -> bool {
        self.releases == 0
    }

    /// The `delta` all epsilons are reported at.
    pub fn delta(&self) -> f64 {
        self.server.budget().1
    }

    /// The overall server-observed epsilon budget.
    pub fn budget(&self) -> f64 {
        self.server.budget().0
    }

    /// Server-observed epsilon of the full composition so far (an empty
    /// ledger reports the small-but-nonzero conversion floor of the zero
    /// curve).
    pub fn server_epsilon(&self) -> f64 {
        if self.unbounded {
            f64::INFINITY
        } else {
            self.server.spent_epsilon()
        }
    }

    /// Client-observed epsilon of the full composition so far.
    pub fn client_epsilon(&self) -> f64 {
        if self.unbounded {
            f64::INFINITY
        } else {
            self.client.to_epsilon(self.delta()).0
        }
    }

    /// Budget headroom: the budget minus the server-observed spend,
    /// clamped at 0 (an unlimited budget always has unlimited headroom).
    pub fn remaining_epsilon(&self) -> f64 {
        self.server.remaining_epsilon()
    }

    /// A serializable/printable report of the whole account.
    pub fn report(&self) -> LedgerReport {
        LedgerReport {
            n_clients: self.n_clients,
            delta: self.delta(),
            releases: self.releases,
            server_epsilon_total: self.server_epsilon(),
            client_epsilon_total: self.client_epsilon(),
            entries: self.entries.clone(),
        }
    }
}

/// Export form of a [`PrivacyLedger`].
#[derive(Clone, Debug, Serialize)]
pub struct LedgerReport {
    pub n_clients: usize,
    pub delta: f64,
    pub releases: usize,
    pub server_epsilon_total: f64,
    pub client_epsilon_total: f64,
    /// The most recent releases' entries ([`PrivacyLedger::entries`]).
    pub entries: Vec<LedgerEntry>,
}

impl std::fmt::Display for LedgerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "privacy ledger: {} release(s), P = {}, delta = {:.1e}",
            self.releases, self.n_clients, self.delta
        )?;
        writeln!(
            f,
            "{:<14} {:>6} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "kind", "dims", "gamma", "mu", "Delta_2", "eps(server)", "eps(client)"
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "{:<14} {:>6} {:>10.1} {:>12.3e} {:>12.3e} {:>12.4} {:>12.4}",
                e.kind, e.dims, e.gamma, e.mu, e.sensitivity_l2, e.server_epsilon, e.client_epsilon,
            )?;
        }
        write!(
            f,
            "composed totals: server eps = {:.4}, client eps = {:.4}",
            self.server_epsilon_total, self.client_epsilon_total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_accounting::budget::{Admission, PrivacyOdometer};

    fn sens(l2: f64, d: usize) -> Sensitivity {
        Sensitivity::from_l2_for_dim(l2, d)
    }

    #[test]
    fn records_both_views_per_release() {
        let mut ledger = PrivacyLedger::new(4, 1e-5);
        assert!(ledger.last_entry().is_none(), "fresh ledger has no entries");
        let e = ledger
            .record("covariance", 16, 18.0, 1e6, sens(330.0, 16))
            .clone();
        assert_eq!(e.index, 0);
        assert_eq!(e.kind, "covariance");
        assert!(e.server_epsilon.is_finite() && e.server_epsilon > 0.0);
        // Client view is strictly weaker: less effective noise, doubled
        // sensitivity.
        assert!(e.client_epsilon > e.server_epsilon);
        assert_eq!(e.server_epsilon_total, e.server_epsilon);
    }

    #[test]
    fn composition_grows_and_matches_the_odometer() {
        // The ledger's composed total must agree with the budget odometer
        // fed the same per-release RDP curves.
        let mut ledger = PrivacyLedger::new(4, 1e-5);
        let mut odometer = PrivacyOdometer::new(1e9, 1e-5);
        let grid = default_alpha_grid();
        let releases = [
            ("covariance", 330.0, 16, 1e6),
            ("gradient_sum", 5000.0, 8, 1e8),
            ("column_sums", 40.0, 4, 1e4),
        ];
        let mut last_total = 0.0;
        for (kind, l2, d, mu) in releases {
            let s = sens(l2, d);
            ledger.record(kind, d, 18.0, mu, s);
            let curve = RdpCurve::from_fn(&grid, |a| skellam_rdp(a, s, mu));
            assert_eq!(odometer.admit(&curve), Admission::Admitted);
            assert!(ledger.server_epsilon() > last_total);
            last_total = ledger.server_epsilon();
        }
        let diff = (ledger.server_epsilon() - odometer.spent_epsilon()).abs();
        assert!(
            diff < 1e-12,
            "ledger {} vs odometer {}",
            ledger.server_epsilon(),
            odometer.spent_epsilon()
        );
        assert_eq!(ledger.len(), 3);
        assert_eq!(
            ledger.entries()[2].server_epsilon_total,
            ledger.server_epsilon()
        );
    }

    #[test]
    fn zero_mu_is_unbounded() {
        let mut ledger = PrivacyLedger::new(2, 1e-5);
        ledger.record("covariance", 4, 18.0, 100.0, sens(10.0, 4));
        assert!(ledger.server_epsilon().is_finite());
        ledger.record("covariance", 4, 18.0, 0.0, sens(10.0, 4));
        assert!(ledger.server_epsilon().is_infinite());
        assert!(ledger.entries()[1].server_epsilon.is_infinite());
    }

    #[test]
    fn a_budget_gates_on_the_kept_spend() {
        let s = sens(330.0, 16);
        let curve = PrivacyLedger::price(1e6, s);
        let mut ledger = PrivacyLedger::new(4, 1e-5);
        ledger.record("covariance", 16, 18.0, 1e6, s);
        let one = ledger.server_epsilon();
        let ledger = ledger.with_budget(1.2 * one);
        assert_eq!(ledger.server_epsilon().to_bits(), one.to_bits());
        assert_eq!(ledger.len(), 1);
        assert!(
            !ledger.fits(curve.as_ref()),
            "two releases cost over 1.2x one"
        );
        assert!(
            !ledger.fits(None),
            "an unperturbed release needs an unlimited budget"
        );
        assert!(PrivacyLedger::new(4, 1e-5).fits(None));
    }

    #[test]
    #[should_panic(expected = "past the budget")]
    fn commit_refuses_a_release_past_the_budget() {
        let s = sens(330.0, 16);
        let mut ledger = PrivacyLedger::new(4, 1e-5).with_budget(0.01);
        let curve = PrivacyLedger::price(1e6, s);
        ledger.commit("covariance", 16, 18.0, 1e6, s, curve.as_ref());
    }

    #[test]
    fn report_serializes() {
        use serde::Serialize as _;
        let mut ledger = PrivacyLedger::new(3, 1e-6);
        ledger.record("column_sums", 4, 32.0, 1e5, sens(40.0, 4));
        let report = ledger.report();
        let json = report.to_json();
        assert!(json.contains("\"kind\":\"column_sums\""));
        assert!(json.contains("\"n_clients\":3"));
        let shown = format!("{report}");
        assert!(shown.contains("column_sums"));
        assert!(shown.contains("server"));
    }

    #[test]
    fn a_long_book_keeps_recent_entries_and_every_total() {
        let s = sens(330.0, 16);
        let mut ledger = PrivacyLedger::new(4, 1e-5);
        let mut odometer = PrivacyOdometer::new(f64::INFINITY, 1e-5);
        let curve = PrivacyLedger::price(1e6, s).unwrap();
        let n = 3 * RECENT_ENTRIES + 7;
        for _ in 0..n {
            ledger.record("covariance", 16, 18.0, 1e6, s);
            assert_eq!(odometer.admit(&curve), Admission::Admitted);
            assert!(ledger.entries().len() < 2 * RECENT_ENTRIES);
        }
        // Every release is counted and indexed; only the recent are kept.
        assert_eq!(ledger.len(), n);
        let kept = ledger.entries();
        assert_eq!(kept.len(), RECENT_ENTRIES + n % RECENT_ENTRIES);
        let first = n - kept.len();
        let indices: Vec<usize> = kept.iter().map(|e| e.index).collect();
        assert_eq!(indices, (first..n).collect::<Vec<_>>());
        // The totals compose all n releases, not the kept ones.
        assert_eq!(
            ledger.server_epsilon().to_bits(),
            odometer.spent_epsilon().to_bits()
        );
        let last = ledger.last_entry().unwrap();
        assert_eq!(last.server_epsilon_total, ledger.server_epsilon());
        assert_eq!(last.client_epsilon_total, ledger.client_epsilon());
        let report = ledger.report();
        assert_eq!(report.releases, n);
        assert_eq!(report.entries.len(), kept.len());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_single_client() {
        PrivacyLedger::new(1, 1e-5);
    }
}
