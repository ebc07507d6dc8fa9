//! Every two-round release equals a plaintext replay of its seeded streams,
//! bit for bit, at every threshold the masked sum can run at: P = 2 (t = 0,
//! degree-0 "sharing"), P = 3 (t = 1), P = 5 (t = 2, 2t + 1 = P exactly) and
//! P = 10 (t = 4, one spare point).
//!
//! The noise and quantisation draws come from their own per-party streams,
//! so only the share polynomials and pair masks differ from run to run; a
//! divergence here is a bug in the input frame, the local products, or the
//! masked sum to the receiver. The last tests pin what round 2 puts on the
//! wire and what a fault aimed at it does.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_core::polynomial::{Monomial, Polynomial};
use sqm_core::quantize::quantize_vec;
use sqm_linalg::Matrix;
use sqm_mpc::RunStats;
use sqm_sampling::rounding::stochastic_round;
use sqm_sampling::skellam::sample_skellam;
use sqm_vfl::gradient::quantize_lr_coeffs;
use sqm_vfl::net::fault::schedule;
use sqm_vfl::{
    column_sums_skellam, covariance_quantized_oracle, covariance_skellam,
    covariance_skellam_chunked, covariance_streaming_oracle, eval_polynomial_skellam,
    gradient_sum_skellam, ColumnPartition, FaultSpec, NetBackend, ReleaseError, StreamCov,
    TransportError, VflConfig, VflSession,
};

const CLIENTS: [usize; 4] = [2, 3, 5, 10];
const N: usize = 11;

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

#[test]
fn covariance_equals_the_quantized_oracle_at_every_threshold() {
    let x = data(14, 1);
    let chunks: Vec<Matrix> = [0..5, 5..10, 10..14]
        .map(|rows| Matrix::from_rows(&rows.map(|i| x.row(i).to_vec()).collect::<Vec<_>>()))
        .to_vec();
    // The last case is wide enough to dispatch to M127.
    for (gamma, mu) in [(512.0, 0.0), (300.0, 60.0), ((1u64 << 24) as f64, 1e6)] {
        for p in CLIENTS {
            let partition = ColumnPartition::even(N, p);
            let cfg = VflConfig::fast(p).with_seed(1000 + p as u64);
            let oracle = covariance_quantized_oracle(&x, &partition, gamma, mu, &cfg);
            let out = covariance_skellam(&x, &partition, gamma, mu, &cfg);
            assert_eq!(out.c_hat, oracle, "P={p} gamma={gamma} mu={mu}");
            assert_eq!(out.stats.total.rounds, 2, "P={p}");
            // The memory-bounded variant quantises chunk by chunk, i.e. in
            // the streaming oracle's order with one batch per chunk.
            let chunked = covariance_skellam_chunked(&x, &partition, gamma, mu, &cfg, 5);
            let chunk_oracle = covariance_streaming_oracle(&chunks, &partition, gamma, mu, &cfg, 0);
            assert_eq!(chunked.c_hat, chunk_oracle, "P={p} gamma={gamma} mu={mu}");
            assert_eq!(chunked.stats.total.rounds, 3 + 1, "P={p}: chunks + open");
        }
    }
}

#[test]
fn covariance_oracle_holds_over_tcp_and_per_element_frames() {
    let x = data(9, 2);
    let (gamma, mu) = (256.0, 25.0);
    for p in [3usize, 5] {
        let partition = ColumnPartition::even(N, p);
        for backend in [NetBackend::InProcess, NetBackend::tcp()] {
            let cfg = VflConfig::fast(p)
                .with_seed(77)
                .with_backend(backend.clone());
            let oracle = covariance_quantized_oracle(&x, &partition, gamma, mu, &cfg);
            let out = covariance_skellam(&x, &partition, gamma, mu, &cfg);
            assert_eq!(out.c_hat, oracle, "P={p} {backend:?}");
        }
    }
}

#[test]
fn streaming_releases_coalesce_batches_and_match_the_streaming_oracle() {
    let batches: Vec<Matrix> = (0..5).map(|b| data(2 + b, 10 + b as u64)).collect();
    let (gamma, mu) = (256.0, 30.0);
    for p in CLIENTS {
        let partition = ColumnPartition::even(N, p);
        let cfg = VflConfig::fast(p).with_seed(500 + p as u64);
        let mut stream = StreamCov::new(partition.clone(), gamma, mu, &cfg, 64, 1.0).unwrap();
        // Release 0: three pending batches in one input frame. Release 1:
        // nothing pending (noise only). Release 2: two more batches.
        let mut ingested = 0;
        for (release, upto) in [(0usize, 3usize), (1, 3), (2, 5)] {
            for b in &batches[ingested..upto] {
                stream.ingest(b);
            }
            ingested = upto;
            let out = stream.release().unwrap();
            let oracle =
                covariance_streaming_oracle(&batches[..upto], &partition, gamma, mu, &cfg, release);
            assert_eq!(out.c_hat, oracle, "P={p} release {release}");
            assert_eq!(out.stats.total.rounds, 2, "P={p} release {release}");
            assert_eq!(
                out.stats.phases["input"].rounds, 1,
                "P={p} release {release}"
            );
        }
    }
}

/// One-shot, chunked and streaming are one per-party program fed different
/// frames. A seeded grid of uneven, interleaved partitions (a client may own
/// several columns or none), record counts that are no multiple of the
/// chunk, and one `M127` case.
#[test]
fn one_shot_chunked_and_streaming_run_the_same_program() {
    let wide = (1u64 << 30) as f64; // dispatches to M127
    let cases = [
        (2usize, 300.0, 60.0, 7usize, 3usize),
        (3, 512.0, 25.0, 14, 4),
        (5, 256.0, 0.0, 11, 5),
        (3, wide, 1e6, 10, 4),
    ];
    for (case, (p, gamma, mu, rows, chunk)) in cases.into_iter().enumerate() {
        let what = format!("case {case}: P={p} gamma={gamma} rows={rows} chunk={chunk}");
        let mut rng = StdRng::seed_from_u64(40 + case as u64);
        let owners: Vec<usize> = (0..N).map(|_| rng.gen_range(0..p)).collect();
        let partition = ColumnPartition::from_owners(owners, p);
        assert!(partition.counts().iter().any(|&c| c >= 2), "{what}");
        let cfg = VflConfig::fast(p).with_seed(rng.gen());
        let x = data(rows, 50 + case as u64);
        let batches: Vec<Matrix> = (0..rows)
            .step_by(chunk)
            .map(|start| {
                let rows: Vec<_> = (start..(start + chunk).min(rows))
                    .map(|i| x.row(i).to_vec())
                    .collect();
                Matrix::from_rows(&rows)
            })
            .collect();
        // The envelope a one-shot run derives from the data, so both pick
        // the same field.
        let stream =
            || StreamCov::new(partition.clone(), gamma, mu, &cfg, rows, x.max_row_norm()).unwrap();

        // Chunked == the streaming oracle with batches at the chunk
        // boundaries == a session fed those batches and released once.
        let oracle = covariance_streaming_oracle(&batches, &partition, gamma, mu, &cfg, 0);
        let chunked = covariance_skellam_chunked(&x, &partition, gamma, mu, &cfg, chunk);
        assert_eq!(chunked.c_hat, oracle, "{what}");
        assert_eq!(chunked.stats.total.rounds as usize, batches.len() + 1);
        let mut session = stream();
        for batch in &batches {
            session.ingest(batch);
        }
        assert_eq!(session.release().unwrap().c_hat, oracle, "{what}");

        // One-shot == a one-batch session's first release, in value and in
        // what every phase put on the wire.
        let one_shot = covariance_skellam(&x, &partition, gamma, mu, &cfg);
        let mut session = stream();
        session.ingest(&x);
        let first = session.release().unwrap();
        assert_eq!(first.c_hat, one_shot.c_hat, "{what}");
        assert_eq!(
            first.stats.phases.keys().collect::<Vec<_>>(),
            one_shot.stats.phases.keys().collect::<Vec<_>>(),
            "{what}"
        );
        for (name, a) in &one_shot.stats.phases {
            let b = &first.stats.phases[name];
            assert_eq!(
                (a.rounds, a.messages, a.bytes, a.elems),
                (b.rounds, b.messages, b.bytes, b.elems),
                "{what} phase {name}"
            );
        }
        let open = &one_shot.stats.phases["open"];
        let width = if gamma == wide { 16 } else { 8 };
        assert_eq!(open.bytes, width * open.elems, "{what}");
    }
}

#[test]
fn gradient_equals_a_replay_of_its_streams_at_every_threshold() {
    let rows = 12;
    let mut x = data(rows, 3);
    for i in 0..rows {
        x[(i, N - 1)] = f64::from(i % 2 == 0); // label column
    }
    let d = N - 1;
    let w: Vec<f64> = (0..d).map(|j| 0.05 * (j as f64 - 4.0)).collect();
    let batch = [0usize, 2, 3, 7, 8, 11];
    let (gamma, mu) = (128.0, 1e4);
    for p in CLIENTS {
        let partition = ColumnPartition::even(N, p);
        let cfg = VflConfig::fast(p).with_seed(900 + p as u64);
        let out = gradient_sum_skellam(&x, &partition, &batch, &w, gamma, mu, &cfg);
        assert_eq!(out.stats.total.rounds, 2, "P={p}");

        // Replay: per-party quantisation (column -> batch row), the public
        // coefficients, Eq. 9 on integers, then per-party noise.
        let mut q = vec![[0i128; N]; batch.len()]; // [record][column]
        for client in 0..p {
            let mut qrng = StdRng::seed_from_u64(cfg.seed() ^ (0x96AD_0000 + client as u64));
            for j in partition.columns_of(client) {
                for (slot, &i) in batch.iter().enumerate() {
                    q[slot][j] = stochastic_round(&mut qrng, gamma * x[(i, j)]) as i128;
                }
            }
        }
        let coeffs = quantize_lr_coeffs(&w, gamma, cfg.seed());
        let mut grad = vec![0i128; d];
        for row in &q {
            let v: i128 = (0..d)
                .map(|j| coeffs.w_quarter[j] as i128 * row[j])
                .sum::<i128>()
                - coeffs.label as i128 * row[d];
            for (g, xk) in grad.iter_mut().zip(row) {
                *g += (v + coeffs.half as i128) * xk;
            }
        }
        for client in 0..p {
            let mut nrng = StdRng::seed_from_u64(cfg.seed() ^ (0x5E11_B000 + client as u64));
            for g in grad.iter_mut() {
                *g += sample_skellam(&mut nrng, mu / p as f64) as i128;
            }
        }
        let amp = gamma.powi(3);
        let want: Vec<f64> = grad.iter().map(|&g| g as f64 / amp).collect();
        assert_eq!(out.grad_sum, want, "P={p}");
    }
}

#[test]
fn column_sums_equal_a_replay_of_their_streams_at_every_threshold() {
    let x = data(10, 4);
    let (gamma, mu) = (1024.0, 50.0);
    for p in CLIENTS {
        let partition = ColumnPartition::even(N, p);
        let cfg = VflConfig::fast(p).with_seed(300 + p as u64);
        let out = column_sums_skellam(&x, &partition, gamma, mu, &cfg);
        assert_eq!(out.stats.total.rounds, 2, "P={p}");

        let mut sums = [0i128; N];
        for client in 0..p {
            let mut qrng = StdRng::seed_from_u64(cfg.seed() ^ (0x3EA4_0000 + client as u64));
            for j in partition.columns_of(client) {
                sums[j] = quantize_vec(&mut qrng, &x.col(j), gamma)
                    .into_iter()
                    .map(|v| v as i128)
                    .sum();
            }
        }
        for client in 0..p {
            let mut nrng = StdRng::seed_from_u64(cfg.seed() ^ (0x5E11_D000 + client as u64));
            for s in sums.iter_mut() {
                *s += sample_skellam(&mut nrng, mu / p as f64) as i128;
            }
        }
        let want: Vec<f64> = sums.iter().map(|&s| s as f64).collect();
        assert_eq!(out.sums_hat, want, "P={p}");
    }
}

/// `stats` is `frames.len()` input rounds then the masked sum: each input
/// round is one message per link out of every party that holds inputs
/// (`frames[f][i]` elements at party `i`), round 2 one `width`-element
/// vector from each of the `P - 1` non-receivers. M61, 8 bytes an element.
fn assert_traffic(what: &str, stats: &RunStats, frames: &[Vec<usize>], width: usize) {
    let links = frames[0].len() as u64 - 1;
    let senders: usize = frames
        .iter()
        .map(|f| f.iter().filter(|&&len| len > 0).count())
        .sum();
    let inputs: usize = frames.iter().flatten().sum();
    assert_eq!(stats.total.rounds as usize, frames.len() + 1, "{what}");
    assert_eq!(stats.total.messages, (senders as u64 + 1) * links, "{what}");
    assert_eq!(
        stats.total.bytes,
        8 * links * (inputs + width) as u64,
        "{what}"
    );
    assert_masked_sum(what, stats, links, width);
}

/// The last round of `stats` is the masked sum — one `width`-element vector
/// from each of the `links` non-receivers — and sampling the noise moved
/// nothing.
fn assert_masked_sum(what: &str, stats: &RunStats, links: u64, width: usize) {
    let open = &stats.phases["open"];
    assert_eq!((open.rounds, open.messages), (1, links), "{what}");
    assert_eq!(open.bytes, 8 * links * width as u64, "{what}");
    let noise = &stats.phases["dp_noise"];
    assert_eq!(
        (noise.rounds, noise.messages, noise.bytes),
        (0, 0, 0),
        "{what}"
    );
}

#[test]
fn every_release_moves_its_inputs_once_and_one_masked_vector_per_non_receiver() {
    let (gamma, mu) = (64.0, 30.0);
    let upper = N * (N + 1) / 2;
    // An even split (every party sends: P(P-1) + (P-1) messages for one
    // frame) and one where client 2 owns nothing and so sends non-messages.
    let uneven = ColumnPartition::from_owners(vec![0, 0, 1, 3, 3, 0, 1, 1, 3, 0, 3], 4);
    for partition in [ColumnPartition::even(N, 3), uneven] {
        let p = partition.n_clients();
        let cfg = VflConfig::fast(p).with_seed(8);
        let counts = partition.counts();
        let frame = |rows: usize| counts.iter().map(|&c| c * rows).collect::<Vec<_>>();
        let x = data(7, 5);

        let out = covariance_skellam(&x, &partition, gamma, mu, &cfg);
        assert_traffic("one-shot", &out.stats, &[frame(7)], upper);
        let out = covariance_skellam_chunked(&x, &partition, gamma, mu, &cfg, 3);
        let chunks = [frame(3), frame(3), frame(1)];
        assert_traffic("chunked", &out.stats, &chunks, upper);

        // 0, 1 and 3 pending batches: one input frame each, empty or not.
        let mut stream = StreamCov::new(partition.clone(), gamma, mu, &cfg, 64, 1.0).unwrap();
        for pending in [0usize, 1, 3] {
            for b in 0..pending {
                stream.ingest(&data(2 + b, 20 + b as u64));
            }
            let rows = stream.pending_rows();
            let out = stream.release().unwrap();
            let what = format!("P={p} stream, {pending} pending");
            assert_traffic(&what, &out.stats, &[frame(rows)], upper);
        }

        let batch = [0usize, 2, 3, 6];
        let w = vec![0.1; N - 1];
        let out = gradient_sum_skellam(&x, &partition, &batch, &w, gamma, mu, &cfg);
        assert_traffic("gradient", &out.stats, &[frame(batch.len())], N - 1);
        let out = column_sums_skellam(&x, &partition, gamma, mu, &cfg);
        assert_traffic("column sums", &out.stats, &[frame(1)], N);

        // The generic path ends the same way after its GRR layers:
        // input 1 + depth 1 + masked sum 1.
        let poly = Polynomial::new(
            N,
            vec![
                vec![Monomial::new(1.0, vec![(0, 1), (2, 1)])],
                vec![Monomial::linear(1.0, 3), Monomial::linear(1.0, 4)],
            ],
        );
        let (_, stats) = eval_polynomial_skellam(&poly, &x, &partition, gamma, mu, &cfg);
        assert_eq!(stats.total.rounds, 3, "P={p} generic");
        assert_masked_sum("generic", &stats, p as u64 - 1, poly.n_dims());
    }
}

#[test]
fn a_crash_in_round_two_is_a_typed_error_that_spends_nothing() {
    // The receiver dying before it sums, and a client dying before it sends
    // its masked vector: either way every release fails typed, on both
    // backends, with both books of the account untouched.
    let x = data(6, 6);
    let w = vec![0.1; N - 1];
    let partition = ColumnPartition::even(N, 4);
    for backend in [NetBackend::InProcess, NetBackend::tcp()] {
        for party in [0usize, 2] {
            let what = format!("{backend:?}, party {party}");
            let cfg = VflConfig::fast(4)
                .with_backend(backend.clone())
                .with_faults(Some(FaultSpec::seeded(1).with_crash(party, 1)));
            let mut session = VflSession::new(partition.clone(), cfg).with_budget(10.0);
            let before = session.odometer().spent_epsilon();
            let errors = [
                session.try_covariance(&x, 64.0, 1e8).unwrap_err(),
                session
                    .try_gradient_sum(&x, &[0, 1, 4], &w, 64.0, 1e12)
                    .unwrap_err(),
                session.try_column_sums(&x, 64.0, 1e8).unwrap_err(),
            ];
            let crash = TransportError::Crashed { party, round: 1 };
            for err in errors {
                assert_eq!(err, ReleaseError::Transport(crash.clone()), "{what}");
            }
            assert!(session.server_view().is_empty(), "{what}");
            assert!(session.ledger().is_empty(), "{what}");
            assert_eq!(session.odometer().releases(), 0, "{what}");
            assert_eq!(
                session.odometer().spent_epsilon().to_bits(),
                before.to_bits(),
                "{what}"
            );
            assert!(session.account().budget_consistent_with_ledger(), "{what}");
        }
    }
}

#[test]
fn a_fault_aimed_at_an_idle_round_two_link_changes_nothing() {
    // Round 2 uses the P - 1 links into the receiver; the other links carry
    // non-messages. Find a schedule that drops and delays 1 -> 2 in round 1
    // (round 2 of a fresh mesh): the injector must leave that link alone —
    // no wait, no event — and the released integers must not move.
    let x = data(9, 7);
    let (gamma, mu) = (256.0, 25.0);
    let partition = ColumnPartition::even(N, 4);
    let spec = |seed| {
        FaultSpec::seeded(seed)
            .with_delay(Duration::from_micros(50), Duration::from_micros(300))
            .with_drop(0.3)
            .with_retransmit(Duration::from_micros(100), 32)
    };
    let seed = (0..)
        .find(|&seed| schedule(&spec(seed), 1, 2, 1).dropped_attempts >= 2)
        .unwrap();
    for backend in [NetBackend::InProcess, NetBackend::tcp()] {
        let cfg = VflConfig::fast(4)
            .with_seed(31)
            .with_backend(backend.clone())
            .with_trace(true)
            .with_faults(Some(spec(seed)));
        let out = covariance_skellam(&x, &partition, gamma, mu, &cfg);
        let oracle = covariance_quantized_oracle(&x, &partition, gamma, mu, &cfg);
        assert_eq!(out.c_hat, oracle, "{backend:?}");
        let frame: Vec<usize> = partition.counts().iter().map(|&c| c * 9).collect();
        assert_traffic("faulted", &out.stats, &[frame], N * (N + 1) / 2);
        let trace = out.trace.expect("trace requested");
        let events = trace.parties.iter().flat_map(|p| &p.net_events);
        let (mut round1, mut round2) = (0, 0);
        for e in events {
            match e.round {
                0 => round1 += 1,
                _ => {
                    assert_eq!(e.peer, 0, "{backend:?}: a fault on an idle link");
                    round2 += 1;
                }
            }
        }
        // Every real message is delayed: 12 in round 1, 3 in round 2.
        assert!(
            round1 >= 12 && round2 >= 3,
            "{backend:?}: {round1} {round2}"
        );
    }
}
