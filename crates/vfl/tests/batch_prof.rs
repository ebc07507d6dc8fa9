//! Profiler-counter equivalence between the batched and per-element
//! reference execution modes.
//!
//! Lives in its own test binary with a single test: the cost profiler is
//! process-global, so no other MPC run may execute in this process while
//! it is active or the snapshots would absorb foreign traffic.

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
use sqm_vfl::{eval_polynomial_skellam, Batching, ColumnPartition, ProfConfig, VflConfig};

#[test]
fn prof_counters_differ_only_in_exchange_message_counts() {
    let (m, n, p) = (6usize, 4usize, 4usize);
    let mut rng = StdRng::seed_from_u64(4242);
    let data = Matrix::from_vec(m, n, (0..m * n).map(|_| rng.gen_range(-0.5..0.5)).collect());
    let partition = ColumnPartition::even(n, p);
    let poly = Polynomial::covariance(n);

    let profile = |batching: Batching| {
        prof::install(&ProfConfig::default(), 42);
        prof::reset();
        let out = eval_polynomial_skellam(
            &poly,
            &data,
            &partition,
            256.0,
            20.0,
            &VflConfig::fast(p).with_seed(42).with_batching(batching),
        );
        let snap = prof::snapshot().expect("profiler installed");
        prof::deactivate();
        prof::reset();
        (out, snap)
    };

    let ((batched_vals, batched_stats), batched) = profile(Batching::default());
    let ((reference_vals, reference_stats), reference) = profile(Batching::Off);
    assert_eq!(batched_vals, reference_vals);

    // Same attribution tree: every recorded path exists in both modes.
    assert_eq!(
        batched.nodes.keys().collect::<Vec<_>>(),
        reference.nodes.keys().collect::<Vec<_>>()
    );
    let (mut batched_msgs, mut reference_msgs) = (0u64, 0u64);
    for (path, b) in &batched.nodes {
        let r = &reference.nodes[path];
        assert_eq!(b.calls, r.calls, "{path}: calls");
        assert_eq!(b.work, r.work, "{path}: work");
        assert_eq!(b.bytes, r.bytes, "{path}: bytes");
        if b.bytes == 0 {
            // Non-exchange nodes (field-op bulks, sampler draws, layer
            // widths) are bit-identical: batching is a wire concern.
            assert_eq!(b.messages, r.messages, "{path}: messages");
        } else {
            // Exchange nodes carry the same payload in fewer frames.
            assert!(b.messages <= r.messages, "{path}: message framing");
        }
        batched_msgs += b.messages;
        reference_msgs += r.messages;
    }
    // The profile's exchange totals reconcile with the engine's own
    // accounting in both modes; `engine;<phase>;exchange` and
    // `engine;<phase>;round<k>` double-record each round.
    assert_eq!(batched_msgs, 2 * batched_stats.total.messages);
    assert_eq!(reference_msgs, 2 * reference_stats.total.messages);
    assert_eq!(reference_stats.total.messages, reference_stats.total.elems);

    // The batching-opportunity report is a function of the workload, not
    // of the execution mode: one mul layer holding every per-record
    // product of the n^2 output dimensions.
    assert_eq!(batched.batching, reference.batching);
    let report = batched
        .batching
        .expect("the circuit reports its mul widths");
    assert_eq!(report.level_widths, vec![m * n * n]);
    assert_eq!(report.reduction_factor(), (m * n * n) as f64);

    // ...and the realized reduce-degree traffic equals its prediction in
    // both modes. Round 0 of the compute phase is the input sharing, round
    // 1 the single degree reduction: one frame per link batched, one
    // message per reduced element in the reference mode.
    assert_eq!(
        batched.nodes["engine;compute;reduce_degree"].calls,
        p as u64
    );
    let reduce_round = "engine;compute;round0001";
    assert_eq!(
        batched.nodes[reduce_round].messages,
        report.messages_batched
    );
    assert_eq!(
        reference.nodes[reduce_round].messages,
        report.messages_unbatched
    );
}
