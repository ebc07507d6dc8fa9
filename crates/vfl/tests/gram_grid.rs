//! Each party multiplies only the Gram entries the masked sum needs — its
//! own columns' block in the clear, and the cross-owner entries of every
//! triangle row but those it sits out (party `j mod P` sits out row `j`
//! when `P > 2t + 1`) — and the released integers must not move.
//!
//! One-shot, chunked and streaming releases (0, 1 and 3 pending batches)
//! over P in {2, 3, 4, 5, 10} — no spare point at odd P, one at even P —
//! over even, interleaved and "a client owns nothing" partitions, in both
//! fields, each equal bit for bit to its plaintext oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_linalg::Matrix;
use sqm_vfl::{
    covariance_quantized_oracle, covariance_skellam, covariance_skellam_chunked,
    covariance_streaming_oracle, ColumnPartition, StreamCov, VflConfig,
};

const N: usize = 11;
const ROWS: usize = 10;
const CHUNK: usize = 4;

fn data(rows: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let scale = 1.0 / (N as f64).sqrt();
    Matrix::from_vec(
        rows,
        N,
        (0..rows * N)
            .map(|_| rng.gen_range(-scale..scale))
            .collect(),
    )
}

/// The three partition shapes at `p` clients: contiguous blocks, column `j`
/// to client `j mod p`, and interleaved over every client but client 1,
/// who owns nothing.
fn partitions(p: usize) -> [(&'static str, ColumnPartition); 3] {
    let skip_one = (0..N).map(|j| j % (p - 1)).map(|c| c + usize::from(c >= 1));
    [
        ("even", ColumnPartition::even(N, p)),
        (
            "interleaved",
            ColumnPartition::from_owners((0..N).map(|j| j % p).collect(), p),
        ),
        (
            "owns nothing",
            ColumnPartition::from_owners(skip_one.collect(), p),
        ),
    ]
}

#[test]
fn every_covariance_path_equals_its_oracle_across_clients_partitions_and_fields() {
    let x = data(ROWS, 1);
    let chunks: Vec<Matrix> = (0..ROWS)
        .step_by(CHUNK)
        .map(|start| {
            let rows: Vec<Vec<f64>> = (start..(start + CHUNK).min(ROWS))
                .map(|i| x.row(i).to_vec())
                .collect();
            Matrix::from_rows(&rows)
        })
        .collect();
    let batches: Vec<Matrix> = (0..4).map(|b| data(2 + b, 10 + b as u64)).collect();
    // (gamma, mu): M61, then wide enough to dispatch to M127.
    for (gamma, mu) in [(256.0, 30.0), ((1u64 << 30) as f64, 1e6)] {
        for p in [2usize, 3, 4, 5, 10] {
            for (shape, partition) in partitions(p) {
                let what = format!("P={p} {shape} gamma={gamma}");
                if shape == "owns nothing" {
                    assert_eq!(partition.counts()[1], 0, "{what}");
                }
                let cfg = VflConfig::fast(p).with_seed(700 + p as u64);

                let one_shot = covariance_skellam(&x, &partition, gamma, mu, &cfg);
                let oracle = covariance_quantized_oracle(&x, &partition, gamma, mu, &cfg);
                assert_eq!(one_shot.c_hat, oracle, "{what}: one-shot");

                let chunked = covariance_skellam_chunked(&x, &partition, gamma, mu, &cfg, CHUNK);
                let oracle = covariance_streaming_oracle(&chunks, &partition, gamma, mu, &cfg, 0);
                assert_eq!(chunked.c_hat, oracle, "{what}: chunked");

                // Releases with 0, 1 and 3 pending batches; the 32-record
                // envelope keeps the session in the one-shot's field.
                let mut stream =
                    StreamCov::new(partition.clone(), gamma, mu, &cfg, 32, 1.0).unwrap();
                let mut ingested = 0;
                for (release, pending) in [0usize, 1, 3].into_iter().enumerate() {
                    for batch in &batches[ingested..ingested + pending] {
                        stream.ingest(batch);
                    }
                    ingested += pending;
                    let out = stream.release().unwrap();
                    let oracle = covariance_streaming_oracle(
                        &batches[..ingested],
                        &partition,
                        gamma,
                        mu,
                        &cfg,
                        release,
                    );
                    assert_eq!(out.c_hat, oracle, "{what}: stream, {pending} pending");
                }
            }
        }
    }
}
