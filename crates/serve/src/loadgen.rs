//! Seeded closed-loop load generator.
//!
//! Drives a [`Server`] the way the smoke test and the SLO tests need: one
//! closed-loop driver thread per tenant, each running a fixed number of
//! ingest+release rounds. Everything is derived from [`LoadSpec::seed`],
//! so two runs against equal servers produce bit-identical release
//! checksums — which is how a scheduler change that alters a release
//! shows.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ServeError;
use crate::scheduler::{Reply, Request, Server};
use crate::tenant::TenantConfig;

/// Shape of one load run.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Concurrent tenant sessions (driver threads).
    pub tenants: usize,
    /// Ingest+release rounds per tenant.
    pub rounds: usize,
    /// Records per ingest batch.
    pub rows_per_batch: usize,
    /// Feature columns per tenant.
    pub n_cols: usize,
    /// MPC parties per tenant session.
    pub n_clients: usize,
    /// Skellam parameter per release.
    pub mu: f64,
    /// Per-tenant epsilon budget. Size it below `rounds` releases' worth
    /// to exercise budget refusals (the smoke test asserts at least one).
    pub budget_eps: f64,
    /// Master seed; tenant `i` derives its data and session streams from
    /// `seed + i`.
    pub seed: u64,
}

impl LoadSpec {
    /// A small deterministic workload that finishes in well under a
    /// second and still exercises at least one budget refusal.
    pub fn smoke() -> LoadSpec {
        LoadSpec {
            tenants: 3,
            rounds: 4,
            rows_per_batch: 4,
            n_cols: 3,
            n_clients: 3,
            mu: 6e6,
            budget_eps: 2.0,
            seed: 20_250_808,
        }
    }
}

/// One driver thread's account of its tenant.
#[derive(Clone, Debug)]
pub struct TenantLoadReport {
    pub tenant: String,
    /// One checksum per admitted release: the released covariance's bits
    /// folded into a `u64`. Deterministic for a fixed spec.
    pub checksums: Vec<u64>,
    pub releases_admitted: usize,
    pub budget_refusals: usize,
    pub overloaded: usize,
    /// Client-observed wall time of each admitted release (submit→reply).
    pub release_wall_ns: Vec<u64>,
    /// Spent epsilon after the run.
    pub spent_epsilon: f64,
}

/// The whole run's account.
#[derive(Clone, Debug)]
pub struct LoadReport {
    pub per_tenant: Vec<TenantLoadReport>,
    pub wall: Duration,
    /// Completed ingest+release rounds across all tenants.
    pub rounds_completed: usize,
}

impl LoadReport {
    pub fn releases_admitted(&self) -> usize {
        self.per_tenant.iter().map(|t| t.releases_admitted).sum()
    }

    pub fn budget_refusals(&self) -> usize {
        self.per_tenant.iter().map(|t| t.budget_refusals).sum()
    }

    /// Closed-loop throughput: session rounds completed per second.
    pub fn sessions_per_sec(&self) -> f64 {
        self.rounds_completed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Nearest-rank p99 of client-observed release latency, in ns.
    pub fn p99_release_ns(&self) -> u64 {
        let mut all: Vec<u64> = self
            .per_tenant
            .iter()
            .flat_map(|t| t.release_wall_ns.iter().copied())
            .collect();
        if all.is_empty() {
            return 0;
        }
        all.sort_unstable();
        all[sqm_obs::metrics::nearest_rank_index(all.len(), 0.99)]
    }

    /// Order-independent digest of every tenant's release checksums
    /// (tenant names fix the pairing, so equal digests mean bit-identical
    /// releases regardless of scheduling).
    pub fn digest(&self) -> u64 {
        let mut d = 0u64;
        for t in &self.per_tenant {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in t.tenant.as_bytes() {
                h = (h ^ *b as u64).wrapping_mul(0x1000_0000_01b3);
            }
            for c in &t.checksums {
                h = (h ^ *c).wrapping_mul(0x1000_0000_01b3);
            }
            d ^= h;
        }
        d
    }
}

/// The tenant config a load-generated tenant `i` runs with.
pub fn load_tenant_config(spec: &LoadSpec, i: usize) -> TenantConfig {
    let mut cfg = TenantConfig::new(&format!("load-{i}"));
    cfg.n_cols = spec.n_cols;
    cfg.n_clients = spec.n_clients;
    // Modest quantization keeps the per-release epsilon near 1 for the
    // spec's mu range, so budget refusals are reachable in a short run.
    cfg.gamma = 32.0;
    cfg.mu = spec.mu;
    cfg.budget_eps = spec.budget_eps;
    cfg.seed = spec.seed.wrapping_add(i as u64);
    cfg.max_rows = spec.rounds * spec.rows_per_batch + 1;
    cfg
}

fn batch(rng: &mut StdRng, rows: usize, cols: usize, max_norm: f64) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|_| {
            let mut r: Vec<f64> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let norm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > max_norm {
                for v in &mut r {
                    *v *= max_norm / norm * 0.999;
                }
            }
            r
        })
        .collect()
}

fn fold_bits(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        h = (h ^ v.to_bits()).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn drive_tenant(server: &Server, spec: &LoadSpec, i: usize) -> TenantLoadReport {
    let name = format!("load-{i}");
    let max_norm = load_tenant_config(spec, i).max_row_norm;
    let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(0xB0AD_0000 + i as u64));
    let mut report = TenantLoadReport {
        tenant: name.clone(),
        checksums: Vec::new(),
        releases_admitted: 0,
        budget_refusals: 0,
        overloaded: 0,
        release_wall_ns: Vec::new(),
        spent_epsilon: 0.0,
    };
    for _ in 0..spec.rounds {
        let records = batch(&mut rng, spec.rows_per_batch, spec.n_cols, max_norm);
        // Closed loop: retry typed backpressure, never skip a round.
        loop {
            match server.call(
                &name,
                Request::Ingest {
                    records: records.clone(),
                },
            ) {
                Ok(_) => break,
                Err(ServeError::Overloaded { .. }) => {
                    report.overloaded += 1;
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("load ingest failed for {name}: {e}"),
            }
        }
        let started = Instant::now();
        loop {
            match server.call(&name, Request::Release) {
                Ok(Reply::Released(rel)) => {
                    report
                        .release_wall_ns
                        .push(started.elapsed().as_nanos() as u64);
                    report.checksums.push(fold_bits(&rel.covariance));
                    report.releases_admitted += 1;
                    report.spent_epsilon = rel.spent_epsilon;
                    break;
                }
                Ok(other) => panic!("expected release reply, got {other:?}"),
                Err(ServeError::Overloaded { .. }) => {
                    report.overloaded += 1;
                    thread::sleep(Duration::from_millis(1));
                }
                Err(ServeError::BudgetExhausted { .. }) => {
                    // The odometer said no; the round still completes
                    // (this is the refusal path the smoke test asserts).
                    report.budget_refusals += 1;
                    break;
                }
                Err(e) => panic!("load release failed for {name}: {e}"),
            }
        }
    }
    report
}

/// Create `spec.tenants` sessions on `server` and drive them to
/// completion, one closed-loop thread per tenant.
pub fn run_load(server: &Arc<Server>, spec: &LoadSpec) -> LoadReport {
    for i in 0..spec.tenants {
        server
            .add_tenant(load_tenant_config(spec, i))
            .expect("load tenant creation");
    }
    let started = Instant::now();
    let handles: Vec<_> = (0..spec.tenants)
        .map(|i| {
            let server = Arc::clone(server);
            let spec = spec.clone();
            thread::Builder::new()
                .name(format!("sqm-loadgen-{i}"))
                .spawn(move || drive_tenant(&server, &spec, i))
                .expect("spawn load driver")
        })
        .collect();
    let per_tenant: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let wall = started.elapsed();
    LoadReport {
        rounds_completed: spec.tenants * spec.rounds,
        per_tenant,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ServerConfig;

    #[test]
    fn smoke_load_is_deterministic_and_exercises_refusals() {
        let run = || {
            let server = Server::start(ServerConfig {
                queue_bound: 32,
                workers: 4,
                tracing: None,
            });
            let report = run_load(&server, &LoadSpec::smoke());
            server.shutdown();
            report
        };
        let a = run();
        let b = run();
        assert!(a.releases_admitted() >= 1);
        assert!(
            a.budget_refusals() >= 1,
            "smoke spec must exhaust at least one tenant's budget"
        );
        assert_eq!(
            a.releases_admitted() + a.budget_refusals(),
            LoadSpec::smoke().tenants * LoadSpec::smoke().rounds
        );
        assert_eq!(a.digest(), b.digest(), "same spec, same releases");
        assert!(a.sessions_per_sec() > 0.0);
        assert!(a.p99_release_ns() > 0);
    }

    #[test]
    fn interleaving_does_not_change_the_digest() {
        let spec = LoadSpec {
            budget_eps: 1e6,
            ..LoadSpec::smoke()
        };
        let serial = {
            let server = Server::start(ServerConfig {
                queue_bound: 32,
                workers: 1,
                tracing: None,
            });
            let r = run_load(&server, &spec);
            server.shutdown();
            r
        };
        let parallel = {
            let server = Server::start(ServerConfig {
                queue_bound: 32,
                workers: 4,
                tracing: None,
            });
            let r = run_load(&server, &spec);
            server.shutdown();
            r
        };
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(serial.budget_refusals(), 0);
    }

    #[test]
    fn p99_uses_the_canonical_nearest_rank_method() {
        let report = LoadReport {
            per_tenant: vec![TenantLoadReport {
                tenant: "t".to_string(),
                checksums: Vec::new(),
                releases_admitted: 67,
                budget_refusals: 0,
                overloaded: 0,
                release_wall_ns: (0..67).collect(),
                spent_epsilon: 0.0,
            }],
            wall: Duration::from_secs(1),
            rounds_completed: 67,
        };
        // 67 samples 0..=66: round((67 - 1) * 0.99) = 65 — one below the
        // max, exactly where the old `ceil(len * p)` rank method returned
        // the max (66). Pinned at a length where the two methods differ,
        // so loadgen can never drift from the registry's quantiles again.
        assert_eq!(report.p99_release_ns(), 65);
        assert_eq!(sqm_obs::metrics::nearest_rank_index(67, 0.99), 65);
    }
}
