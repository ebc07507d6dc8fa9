//! Streaming mini-batch covariance over a persistent MPC session.
//!
//! The one-shot protocols in [`crate::covariance`] mesh the parties, run,
//! and tear everything down. A serving deployment (see `sqm::serve`)
//! instead keeps a session alive across many mini-batch arrivals and many
//! DP releases. [`StreamCov`] is that session: the one-shot covariance's
//! per-party program (`CovSession::release`) on a mesh and share state it
//! keeps.
//!
//! * **Transports are reused.** The party mesh is built once
//!   (`net::build_mesh`) and threaded through every release via
//!   `MpcEngine::try_run_on`, so a release costs protocol rounds but never
//!   re-meshing. Party round counters simply continue across releases.
//! * **Sufficient statistics accumulate.** Each party keeps its share of
//!   the degree-2t upper-triangular Gram accumulator between releases.
//!   A release only quantizes/shares/multiplies the records that arrived
//!   since the previous release — all pending batches coalesced into one
//!   input frame — then sums the accumulator plus fresh per-party noise to
//!   the receiver, leaving the accumulator itself noise-free: two rounds
//!   however many batches are pending, and prior work is amortized, never
//!   recomputed.
//! * **Randomness streams persist.** Quantization and Skellam noise RNGs
//!   are the same per-party streams the one-shot protocols derive from
//!   `cfg.seed()`, carried across releases. Release 0 is therefore
//!   bit-identical to [`crate::covariance::covariance_skellam_chunked`]
//!   with chunk boundaries at the batch boundaries, and release `r` is
//!   predicted bit-exactly by [`covariance_streaming_oracle`] with
//!   `noise_skip = r` (each release consumes the next `n(n+1)/2` noise
//!   draws per party). The engine's own streams — share polynomials and
//!   the pairwise masks of round 2 — are re-keyed by
//!   `MpcEngine::try_run_on` from the mesh's round counter (0 on a fresh
//!   mesh, continuing across releases), so no release is shared under a
//!   polynomial or masked under a stream an earlier one used.
//!
//! A transport failure poisons the session: the mesh and the accumulator
//! shares died with the party threads, the typed error is kept, and every
//! later call returns it. The caller (one serve tenant) fails; other
//! sessions are untouched.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm_field::{FieldChoice, M127, M61};
use sqm_linalg::Matrix;
use sqm_mpc::TransportError;
use sqm_sampling::rounding::stochastic_round;
use sqm_sampling::skellam::sample_skellam;

use crate::covariance::{
    magnitude_bound, symmetric_from_upper, CovSession, CovarianceOutput, RowBlock,
};
use crate::partition::ColumnPartition;
use crate::{field_for, validate_gamma, VflConfig};

/// The only field-dependent part of a streaming session: the mesh and the
/// per-party share state. The width is pinned at creation from the declared
/// workload envelope — it cannot change once accumulator shares exist.
enum FieldSession {
    M61(CovSession<M61>),
    M127(CovSession<M127>),
}

/// A long-lived streaming covariance session: ingest mini-batches, release
/// the running noisy covariance on demand. See the module docs for the
/// determinism and reuse contract.
pub struct StreamCov {
    partition: ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: VflConfig,
    session: FieldSession,
    failed: Option<TransportError>,
    pending: Vec<Matrix>,
    rows_ingested: usize,
    releases: usize,
    max_rows: usize,
    max_row_norm: f64,
}

impl StreamCov {
    /// Open a session. `max_rows` and `max_row_norm` declare the workload
    /// envelope (total records the session may ingest and the largest
    /// per-record l2 norm); they pin the field width for the whole session
    /// and are enforced on ingest.
    pub fn new(
        partition: ColumnPartition,
        gamma: f64,
        mu: f64,
        cfg: &VflConfig,
        max_rows: usize,
        max_row_norm: f64,
    ) -> Result<StreamCov, TransportError> {
        assert_eq!(
            partition.n_clients(),
            cfg.n_clients(),
            "partition/config client-count mismatch"
        );
        validate_gamma(gamma);
        assert!(max_rows >= 1, "declare a positive record envelope");
        let n = partition.n_cols();
        let session = match field_for(magnitude_bound(max_rows, max_row_norm, gamma, mu)) {
            FieldChoice::M61 => FieldSession::M61(CovSession::open(cfg, n)?),
            FieldChoice::M127 => FieldSession::M127(CovSession::open(cfg, n)?),
        };
        Ok(StreamCov {
            partition,
            gamma,
            mu,
            cfg: cfg.clone(),
            session,
            failed: None,
            pending: Vec::new(),
            rows_ingested: 0,
            releases: 0,
            max_rows,
            max_row_norm,
        })
    }

    /// Queue a mini-batch of records (rows) for the next release. Cheap:
    /// no MPC work happens until [`StreamCov::release`].
    pub fn ingest(&mut self, batch: &Matrix) {
        assert_eq!(
            batch.cols(),
            self.n_cols(),
            "batch/partition column mismatch"
        );
        assert!(
            self.rows_ingested + self.pending_rows() + batch.rows() <= self.max_rows,
            "session would exceed its declared {}-record envelope",
            self.max_rows
        );
        assert!(
            batch.max_row_norm() <= self.max_row_norm * (1.0 + 1e-12),
            "record norm exceeds the declared envelope {}",
            self.max_row_norm
        );
        self.pending.push(batch.clone());
    }

    /// Run one DP release over the reused mesh: share the pending batches in
    /// one round, accumulate, sum the running accumulator plus fresh
    /// distributed Skellam noise to the receiver. Consumes the pending
    /// queue. A release with nothing pending re-releases the current
    /// statistics under fresh noise (it still costs privacy budget —
    /// admission is the caller's job).
    pub fn release(&mut self) -> Result<CovarianceOutput, TransportError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let rows = self.pending_rows();
        let pending = std::mem::take(&mut self.pending);
        // All pending batches ride one input frame, in arrival order.
        let frame: Vec<RowBlock> = pending.iter().map(|b| (b, 0..b.rows())).collect();
        let (cfg, partition, gamma, mu) = (&self.cfg, &self.partition, self.gamma, self.mu);
        let released = match &mut self.session {
            FieldSession::M61(s) => s.release(cfg, partition, gamma, mu, &[frame]),
            FieldSession::M127(s) => s.release(cfg, partition, gamma, mu, &[frame]),
        };
        match &released {
            Ok(_) => {
                self.releases += 1;
                self.rows_ingested += rows;
            }
            Err(e) => self.failed = Some(e.clone()),
        }
        released
    }

    /// Records already folded into the accumulator (past releases).
    pub fn rows_ingested(&self) -> usize {
        self.rows_ingested
    }

    /// Records queued for the next release.
    pub fn pending_rows(&self) -> usize {
        self.pending.iter().map(Matrix::rows).sum()
    }

    /// Releases completed so far.
    pub fn releases(&self) -> usize {
        self.releases
    }

    /// Number of feature columns.
    pub fn n_cols(&self) -> usize {
        self.partition.n_cols()
    }

    /// The transport error that poisoned this session, if any.
    pub fn failure(&self) -> Option<&TransportError> {
        self.failed.as_ref()
    }
}

/// Bit-exact plaintext predictor of [`StreamCov`] release `noise_skip`
/// covering the cumulative `batches` ingested so far (the streaming
/// counterpart of [`crate::covariance::covariance_quantized_oracle`]).
///
/// Quantization replays each party's stream batch-by-batch in exactly the
/// order the session consumed it; the noise streams skip the
/// `noise_skip * n(n+1)/2` draws earlier releases consumed. Any divergence
/// from the MPC session is a correctness bug in share persistence,
/// transport reuse, or the masked sum.
pub fn covariance_streaming_oracle(
    batches: &[Matrix],
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
    noise_skip: usize,
) -> Matrix {
    let n = partition.n_cols();
    let upper_len = n * (n + 1) / 2;

    // Per-party quantization streams, consumed batch-major / column-major /
    // record-minor — the session's exact order.
    let mut qcols: Vec<Vec<i64>> = vec![Vec::new(); n];
    for p in 0..cfg.n_clients() {
        let mut qrng = StdRng::seed_from_u64(cfg.seed() ^ (0xA11C_E000 + p as u64));
        for batch in batches {
            for &j in &partition.columns_of(p) {
                for i in 0..batch.rows() {
                    qcols[j].push(stochastic_round(&mut qrng, gamma * batch[(i, j)]));
                }
            }
        }
    }

    let m: usize = batches.iter().map(|b| b.rows()).sum();
    let mut opened = vec![0i128; upper_len];
    let mut idx = 0;
    for j in 0..n {
        for k in j..n {
            opened[idx] = (0..m)
                .map(|i| qcols[j][i] as i128 * qcols[k][i] as i128)
                .sum();
            idx += 1;
        }
    }

    let local_mu = mu / cfg.n_clients() as f64;
    for p in 0..cfg.n_clients() {
        let mut nrng = StdRng::seed_from_u64(cfg.seed() ^ (0x5E11_A000 + p as u64));
        for _ in 0..noise_skip * upper_len {
            let _ = sample_skellam(&mut nrng, local_mu);
        }
        for slot in opened.iter_mut() {
            *slot += sample_skellam(&mut nrng, local_mu) as i128;
        }
    }

    symmetric_from_upper(&opened, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance::covariance_skellam_chunked;

    fn batches() -> Vec<Matrix> {
        vec![
            Matrix::from_rows(&[vec![0.5, -0.2, 0.1], vec![-0.4, 0.3, 0.2]]),
            Matrix::from_rows(&[vec![0.1, 0.1, -0.5], vec![0.6, 0.0, 0.3]]),
            Matrix::from_rows(&[vec![-0.2, -0.3, 0.1], vec![0.3, 0.2, 0.2]]),
        ]
    }

    fn concat(batches: &[Matrix]) -> Matrix {
        let rows: Vec<Vec<f64>> = batches
            .iter()
            .flat_map(|b| (0..b.rows()).map(|i| b.row(i).to_vec()).collect::<Vec<_>>())
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn first_release_is_bit_identical_to_chunked_mpc() {
        let partition = ColumnPartition::even(3, 3);
        let cfg = VflConfig::fast(3).with_seed(21);
        let (gamma, mu) = (512.0, 40.0);
        let mut stream = StreamCov::new(partition.clone(), gamma, mu, &cfg, 16, 1.0).unwrap();
        for b in batches() {
            stream.ingest(&b);
        }
        let streamed = stream.release().unwrap();
        // Batch boundaries == chunk boundaries (2 rows each).
        let chunked =
            covariance_skellam_chunked(&concat(&batches()), &partition, gamma, mu, &cfg, 2);
        assert_eq!(streamed.c_hat, chunked.c_hat);
    }

    #[test]
    fn later_releases_match_the_streaming_oracle_bit_exactly() {
        let partition = ColumnPartition::even(3, 3);
        let cfg = VflConfig::fast(3).with_seed(4242);
        let (gamma, mu) = (256.0, 25.0);
        let all = batches();
        let mut stream = StreamCov::new(partition.clone(), gamma, mu, &cfg, 16, 1.0).unwrap();

        stream.ingest(&all[0]);
        let r0 = stream.release().unwrap();
        assert_eq!(
            r0.c_hat,
            covariance_streaming_oracle(&all[..1], &partition, gamma, mu, &cfg, 0)
        );

        // Second release folds in two more batches and consumes the *next*
        // noise draws; prior rows are not re-shared (amortization), yet the
        // result covers all rows so far.
        stream.ingest(&all[1]);
        stream.ingest(&all[2]);
        let r1 = stream.release().unwrap();
        assert_eq!(
            r1.c_hat,
            covariance_streaming_oracle(&all, &partition, gamma, mu, &cfg, 1)
        );
        assert_eq!(stream.releases(), 2);
        assert_eq!(stream.rows_ingested(), 6);
    }

    #[test]
    fn empty_release_rereleases_under_fresh_noise() {
        let partition = ColumnPartition::even(3, 3);
        let cfg = VflConfig::fast(3).with_seed(9);
        let (gamma, mu) = (128.0, 100.0);
        let all = batches();
        let mut stream = StreamCov::new(partition.clone(), gamma, mu, &cfg, 16, 1.0).unwrap();
        stream.ingest(&all[0]);
        let r0 = stream.release().unwrap();
        let r1 = stream.release().unwrap();
        assert_ne!(r0.c_hat, r1.c_hat, "fresh noise per release");
        assert_eq!(
            r1.c_hat,
            covariance_streaming_oracle(&all[..1], &partition, gamma, mu, &cfg, 1)
        );
    }

    #[test]
    fn amortized_release_ships_fewer_bytes_than_recompute() {
        let partition = ColumnPartition::even(3, 3);
        let cfg = VflConfig::fast(3).with_seed(77);
        let all = batches();
        let mut stream = StreamCov::new(partition.clone(), 512.0, 0.0, &cfg, 16, 1.0).unwrap();
        for b in &all {
            stream.ingest(b);
        }
        let first = stream.release().unwrap();
        // Nothing pending: the second release's input frame carries only
        // the noise shares.
        let second = stream.release().unwrap();
        assert!(
            second.stats.total.bytes < first.stats.total.bytes,
            "second release {} bytes, first {} bytes",
            second.stats.total.bytes,
            first.stats.total.bytes
        );
        assert_eq!(second.stats.total.rounds, 2);
        assert_eq!(second.stats.phases.get("input").map(|p| p.rounds), Some(1));
    }

    #[test]
    fn transport_failure_poisons_the_session_with_a_typed_error() {
        let partition = ColumnPartition::even(3, 3);
        // Crash party 1 at round 1: the first release dies at its open.
        let cfg = VflConfig::fast(3)
            .with_seed(5)
            .with_faults(Some(sqm_mpc::FaultSpec::seeded(5).with_crash(1, 1)));
        let mut stream = StreamCov::new(partition, 64.0, 0.0, &cfg, 16, 1.0).unwrap();
        stream.ingest(&batches()[0]);
        let err = stream.release().unwrap_err();
        assert_eq!(err, TransportError::Crashed { party: 1, round: 1 });
        assert_eq!(stream.failure(), Some(&err));
        // Poisoned: later calls return the same typed error, no panic.
        let again = stream.release().unwrap_err();
        assert_eq!(err, again);
    }

    #[test]
    #[should_panic(expected = "envelope")]
    fn ingest_beyond_declared_envelope_is_rejected() {
        let partition = ColumnPartition::even(3, 3);
        let cfg = VflConfig::fast(3);
        let mut stream = StreamCov::new(partition, 64.0, 0.0, &cfg, 3, 1.0).unwrap();
        stream.ingest(&batches()[0]);
        stream.ingest(&batches()[1]); // 4 rows > 3-row envelope
    }
}
