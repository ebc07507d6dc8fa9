//! The realized degree-reduction traffic of the generic circuit path against
//! the profiler's `BatchingReport` prediction.
//!
//! Lives in its own test binary with a single test: the cost profiler is
//! process-global, so no other MPC run may execute in this process while
//! it is active or the snapshot would absorb foreign traffic.
//!
//! The workload is the generic circuit path on the covariance polynomial:
//! the fused covariance/gradient releases no longer degree-reduce, so the
//! circuit evaluator is the VFL path whose realized reduce-degree batching
//! can be held against the `BatchingReport` prediction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_core::polynomial::Polynomial;
use sqm_linalg::Matrix;
use sqm_obs::prof;
use sqm_vfl::{eval_polynomial_skellam, ColumnPartition, ProfConfig, VflConfig};

#[test]
fn prof_counters_differ_only_in_exchange_message_counts() {
    let (m, n, p) = (6usize, 4usize, 4usize);
    let mut rng = StdRng::seed_from_u64(4242);
    let data = Matrix::from_vec(m, n, (0..m * n).map(|_| rng.gen_range(-0.5..0.5)).collect());
    let partition = ColumnPartition::even(n, p);
    let poly = Polynomial::covariance(n);

    prof::install(&ProfConfig::default(), 42);
    prof::reset();
    let (_, stats) = eval_polynomial_skellam(
        &poly,
        &data,
        &partition,
        256.0,
        20.0,
        &VflConfig::fast(p).with_seed(42),
    );
    let snap = prof::snapshot().expect("profiler installed");
    prof::deactivate();
    prof::reset();

    // The profile's exchange totals reconcile with the engine's own
    // accounting; `engine;<phase>;exchange` and `engine;<phase>;round<k>`
    // double-record each round.
    let profiled_msgs: u64 = snap.nodes.values().map(|node| node.messages).sum();
    assert_eq!(profiled_msgs, 2 * stats.total.messages);

    // The batching-opportunity report: one mul layer holding every
    // per-record product of the n^2 output dimensions.
    let report = snap.batching.expect("the circuit reports its mul widths");
    assert_eq!(report.level_widths, vec![m * n * n]);
    assert_eq!(report.reduction_factor(), (m * n * n) as f64);

    // ...and the realized reduce-degree traffic equals its prediction.
    // Round 0 of the compute phase is the input sharing, round 1 the single
    // degree reduction: one frame per link.
    assert_eq!(snap.nodes["engine;compute;reduce_degree"].calls, p as u64);
    assert_eq!(
        snap.nodes["engine;compute;round0001"].messages,
        report.messages_batched
    );
}
