//! Round 2 of the two-round releases: `PartyCtx::sum_to_receiver`.
//!
//! Party `i` sends party 0 one vector `u_i = lambda_i * share_i + addend_i +
//! r_i` and nobody else anything; the pairwise zero-shares `r_i` cancel in
//! the receiver's sum. These tests tap every party's endpoint and pin what
//! that relies on: the sum is the recombined shares plus the addends and
//! only the receiver gets it; what the receiver — alone or with `t` colluding
//! clients — can compute from the honest `u_i` is uniform and independent of
//! the inputs (and the same statistic *does* separate the unmasked vectors);
//! no mask is replayed on a reused mesh; and the primitive behaves
//! identically over TCP and under the fault wrapper.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use sqm_field::{PrimeField, M127, M61};
use sqm_mpc::chacha::PairStream;
use sqm_mpc::net::{build_mesh, RoundOutcome, TraceHeader, Transport};
use sqm_mpc::shamir::lagrange_at_zero;
use sqm_mpc::{FaultSpec, MpcConfig, MpcEngine, MpcRun, NetBackend, TransportError, RECEIVER};

/// What one party put on and took off the wire in one round.
struct Round<F> {
    index: u64,
    sent: Vec<Vec<F>>,
    received: Vec<Vec<F>>,
}

/// Every party's rounds, `[party][round]`.
type Wire<F> = Arc<Mutex<Vec<Vec<Round<F>>>>>;

/// An endpoint that records its payloads on the way through.
struct Tap<F: PrimeField> {
    inner: Box<dyn Transport<F>>,
    wire: Wire<F>,
}

impl<F: PrimeField> Transport<F> for Tap<F> {
    fn id(&self) -> usize {
        self.inner.id()
    }
    fn n_parties(&self) -> usize {
        self.inner.n_parties()
    }
    fn round(&self) -> u64 {
        self.inner.round()
    }
    fn exchange_stamped(
        &mut self,
        outgoing: Vec<Vec<F>>,
        headers: Option<Vec<Option<TraceHeader>>>,
    ) -> Result<RoundOutcome<F>, TransportError> {
        let (index, sent) = (self.inner.round(), outgoing.clone());
        let outcome = self.inner.exchange_stamped(outgoing, headers)?;
        self.wire.lock().unwrap()[self.inner.id()].push(Round {
            index,
            sent,
            received: outcome.incoming.clone(),
        });
        Ok(outcome)
    }
}

/// The mesh `cfg` asks for, tapped.
fn tapped_mesh<F: PrimeField>(cfg: &MpcConfig) -> (Vec<Box<dyn Transport<F>>>, Wire<F>) {
    let wire: Wire<F> = Arc::new(Mutex::new((0..cfg.n_parties).map(|_| Vec::new()).collect()));
    let mesh = build_mesh::<F>(cfg.n_parties, &cfg.backend, cfg.faults.as_ref())
        .unwrap()
        .into_iter()
        .map(|inner| {
            let wire = wire.clone();
            Box::new(Tap { inner, wire }) as Box<dyn Transport<F>>
        })
        .collect();
    (mesh, wire)
}

fn fast(p: usize, seed: u64) -> MpcConfig {
    MpcConfig::semi_honest(p)
        .with_latency(Duration::ZERO)
        .with_seed(seed)
}

fn field<F: PrimeField>(v: &[i128]) -> Vec<F> {
    v.iter().map(|&x| F::from_i128(x)).collect()
}

/// The test's own replica of party `i`'s zero-share `r_i` of `len` slots
/// under `nonce`, keeping only the pair streams `keyed` admits: with every
/// peer it is what the engine adds; with a coalition it is what that
/// coalition can strip.
fn zero_share<F: PrimeField>(
    cfg: &MpcConfig,
    i: usize,
    nonce: u64,
    len: usize,
    keyed: impl Fn(usize) -> bool,
) -> Vec<F> {
    let mut r = vec![F::ZERO; len];
    for peer in (0..cfg.n_parties).filter(|&peer| peer != i && keyed(peer)) {
        let mut stream = PairStream::for_pair(cfg.seed, i, peer, nonce);
        for slot in r.iter_mut() {
            let mask = F::random(&mut stream);
            *slot = if i < peer { *slot + mask } else { *slot - mask };
        }
    }
    r
}

fn sub<F: PrimeField>(a: &[F], b: &[F]) -> Vec<F> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// One party's output of [`masked_products`]: its local product share and
/// what `sum_to_receiver` handed it.
type Output<F> = (Vec<F>, Option<Vec<F>>);

/// Party 0 owns `a`, party 1 owns `b`, every party adds `addend(id)`. Each
/// party returns its share of `a[k] * b[k]` (degree `2t`, never reduced) and
/// its view of the sum; the second value is the tapped wire.
fn masked_products<F: PrimeField>(
    cfg: MpcConfig,
    a: &[i128],
    b: &[i128],
    addend: impl Fn(usize) -> Vec<i128> + Sync,
) -> (MpcRun<Output<F>>, Vec<Vec<Round<F>>>) {
    let len = a.len();
    assert_eq!(b.len(), len);
    let (mesh, wire) = tapped_mesh::<F>(&cfg);
    let (run, mesh) = MpcEngine::new(cfg)
        .try_run_on(mesh, |ctx| {
            let mut expected = vec![0; ctx.n];
            expected[0] = len;
            expected[1] = len;
            let mine = match ctx.id {
                0 => field(a),
                1 => field(b),
                _ => Vec::new(),
            };
            ctx.set_phase("input");
            let contributions = ctx.share_all_uneven(&mine, &expected);
            ctx.set_phase("compute");
            let product: Vec<F> = (0..len)
                .map(|k| contributions[0][k] * contributions[1][k])
                .collect();
            ctx.set_phase("open");
            let sum = ctx.sum_to_receiver(&product, &field(&addend(ctx.id)));
            (product, sum)
        })
        .unwrap();
    drop(mesh);
    let wire = Arc::try_unwrap(wire).ok().expect("the mesh is gone");
    (run, wire.into_inner().unwrap())
}

fn check_receiver_sum<F: PrimeField>(p: usize, seed: u64) {
    let what = format!("P={p} {} bits", F::MODULUS_BITS);
    let (a, b) = ([-7i128, 1 << 20, 0], [6i128, -3, 0]);
    let addend = |id: usize| vec![id as i128 - 2, 100 * id as i128, 5];
    let want: Vec<i128> = (0..3)
        .map(|k| a[k] * b[k] + (0..p).map(|id| addend(id)[k]).sum::<i128>())
        .collect();
    let cfg = fast(p, seed);
    let (run, wire) = masked_products::<F>(cfg.clone(), &a, &b, addend);

    // Only the receiver learns the sum.
    for (id, (_, sum)) in run.outputs.iter().enumerate() {
        match sum {
            Some(sum) if id == RECEIVER => {
                let got: Vec<i128> = sum.iter().map(|v| v.to_centered_i128()).collect();
                assert_eq!(got, want, "{what}");
            }
            None if id != RECEIVER => {}
            other => panic!("{what}: party {id} got {other:?}"),
        }
    }

    // Round 2 is P - 1 messages: one from each non-receiver, to the
    // receiver, and nothing comes back.
    let width = u64::from(F::MODULUS_BITS.div_ceil(64) * 8);
    assert_eq!(run.stats.total.rounds, 2, "{what}");
    let open = &run.stats.phases["open"];
    assert_eq!(open.messages, p as u64 - 1, "{what}");
    assert_eq!(open.bytes, width * (p as u64 - 1) * 3, "{what}");
    let lambda = lagrange_at_zero::<F>(&(0..p).collect::<Vec<_>>());
    let mut total = vec![F::ZERO; 3];
    for (id, rounds) in wire.iter().enumerate() {
        let round2 = &rounds[1];
        assert_eq!(round2.index, 1, "{what}");
        let sent_to: Vec<usize> = (0..p).filter(|&j| !round2.sent[j].is_empty()).collect();
        assert_eq!(sent_to, [RECEIVER], "{what}: party {id}");
        if id != RECEIVER {
            assert!(round2.received.iter().all(Vec::is_empty), "{what}: {id}");
        }
        // What went out is lambda_i * share_i + addend_i + r_i, with r_i
        // the test's own pair-stream replica.
        let u = &wire[RECEIVER][1].received[id];
        assert_eq!(u, &round2.sent[RECEIVER], "{what}: party {id}");
        let unmasked = sub(u, &zero_share(&cfg, id, 1, 3, |_| true));
        let share = &run.outputs[id].0;
        for k in 0..3 {
            let own = F::from_i128(addend(id)[k]);
            assert_eq!(unmasked[k], lambda[id] * share[k] + own, "{what}: {id}");
            total[k] += u[k];
        }
    }
    assert_eq!(Some(total), run.outputs[RECEIVER].1, "{what}");
}

#[test]
fn receiver_sum_is_the_recombined_shares_plus_the_addends() {
    for p in [2usize, 3, 4, 5, 10] {
        check_receiver_sum::<M61>(p, 11);
        check_receiver_sum::<M61>(p, 12);
    }
    check_receiver_sum::<M127>(4, 13);
}

const BUCKETS: usize = 16;
// 15 degrees of freedom: P(chi2 > 37.7) = 0.001. The seeds are fixed, so
// this is a pinned draw, not a flaky one.
const CRITICAL: f64 = 37.7;

fn bucket(c: M61) -> usize {
    (c.to_canonical() % BUCKETS as u128) as usize
}

/// Pearson chi-square of `counts` against the uniform law.
fn chi_square_uniform(counts: &[u32]) -> f64 {
    let total: u32 = counts.iter().sum();
    let expect = total as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| (c as f64 - expect).powi(2) / expect)
        .sum()
}

/// Two-sample chi-square homogeneity statistic (equal sample sizes).
fn chi_square_homogeneity(x: &[u32], y: &[u32]) -> f64 {
    x.iter()
        .zip(y)
        .filter(|&(&a, &b)| a + b > 0)
        .map(|(&a, &b)| (a as f64 - b as f64).powi(2) / (a + b) as f64)
        .sum()
}

/// The degree-1 coefficient of the parabola through `(i + 1, ys[i])`.
fn linear_coefficient(ys: [M61; 3]) -> M61 {
    let x = |i: usize| M61::from_u64(i as u64 + 1);
    // l_j(x) = (x - x_k)(x - x_l) / ((x_j - x_k)(x_j - x_l)): its linear
    // coefficient is -(x_k + x_l) over that denominator.
    (0..3)
        .map(|j| {
            let (k, l) = ((j + 1) % 3, (j + 2) % 3);
            let denom = (x(j) - x(k)) * (x(j) - x(l));
            -(x(k) + x(l)) * denom.inverse() * ys[j]
        })
        .fold(M61::ZERO, |acc, term| acc + term)
}

#[test]
fn each_honest_u_i_is_uniform_and_independent_of_the_inputs() {
    // P = 3, t = 1, receiver alone. It holds its own product share and, of
    // each honest u_i, everything but the one stream it has no key for,
    // G(s_12). Slot 0 holds zero inputs, slot 1 large ones. Two statistics:
    // each honest vector with the receiver's own stream stripped, and the
    // linear coefficient of the product polynomial the receiver would
    // interpolate from those vectors — a r_b + b r_a, identically zero on
    // slot 0 if nothing hides it.
    const SEEDS: u64 = 2_000;
    let (a, b) = ([0i128, (1 << 40) + 12_345], [0i128, -(1 << 39) - 678]);
    let lambda = lagrange_at_zero::<M61>(&[0, 1, 2]);

    // [masked / r_i = 0][slot][u_1, u_2, linear coefficient]
    let mut hist = [[[[0u32; BUCKETS]; 3]; 2]; 2];
    for seed in 0..SEEDS {
        let cfg = fast(3, seed);
        let (run, wire) = masked_products::<M61>(cfg.clone(), &a, &b, |_| vec![0; 2]);
        let received = &wire[RECEIVER][1].received;
        for (control, keyed) in [(0, RECEIVER), (1, usize::MAX)] {
            // The receiver strips what it keys; the control strips it all.
            let strip = |peer: usize| keyed == usize::MAX || peer == keyed;
            let view: Vec<Vec<M61>> = (1..3)
                .map(|i| sub(&received[i], &zero_share(&cfg, i, 1, 2, strip)))
                .collect();
            for slot in 0..2 {
                let own = run.outputs[RECEIVER].0[slot];
                let points = [
                    own,
                    view[0][slot] * lambda[1].inverse(),
                    view[1][slot] * lambda[2].inverse(),
                ];
                let per_slot = &mut hist[control][slot];
                per_slot[0][bucket(view[0][slot])] += 1;
                per_slot[1][bucket(view[1][slot])] += 1;
                per_slot[2][bucket(linear_coefficient(points))] += 1;
            }
        }
    }
    let [masked, unmasked] = hist;
    for (slot, per_slot) in masked.iter().enumerate() {
        for (stat, counts) in per_slot.iter().enumerate() {
            let chi2 = chi_square_uniform(counts);
            assert!(
                chi2 < CRITICAL,
                "slot {slot} statistic {stat}: chi2 {chi2:.1} vs uniform, {counts:?}"
            );
        }
    }
    for (stat, (zeros, large)) in masked[0].iter().zip(&masked[1]).enumerate() {
        let chi2 = chi_square_homogeneity(zeros, large);
        assert!(
            chi2 < CRITICAL,
            "statistic {stat}: chi2 {chi2:.1} between zero and large inputs"
        );
    }

    // Negative control, r_i = 0: a Shamir share is uniform on its own, so
    // the per-vector histograms stay flat — but the interpolated coefficient
    // is pinned to zero on the zero inputs, and the check has teeth.
    assert!(chi_square_uniform(&unmasked[0][2]) > 10.0 * CRITICAL);
    assert!(chi_square_homogeneity(&unmasked[0][2], &unmasked[1][2]) > 10.0 * CRITICAL);
}

#[test]
fn a_coalition_of_receiver_and_t_clients_sees_only_the_honest_sum() {
    // P = 5, t = 2: parties 0, 1, 2 collude and strip every pair stream one
    // of them keys. Honest parties 3 and 4 pass *fixed* shares (zeros in
    // slots 0-1, large values in slots 2-3), the worst case for hiding: the
    // only randomness left in their residual vectors is G(s_34). Each
    // residual must be uniform and independent of the inputs; their sum is
    // the honest partial sum, exactly, as Lemmas 4/5 assume.
    const SEEDS: u64 = 500;
    const P: usize = 5;
    let honest = [3usize, 4];
    let shares = |id: usize| -> Vec<M61> {
        let big = (1i128 << 50) + 1_000 * id as i128;
        field(&[0, 0, big, -big - 77])
    };
    let addend = |id: usize| -> Vec<M61> { field(&[0, 0, id as i128, 40 - id as i128]) };
    let lambda = lagrange_at_zero::<M61>(&(0..P).collect::<Vec<_>>());

    // [coalition view / r_i = 0][honest party][zero slots, large slots]
    let mut hist = [[[[0u32; BUCKETS]; 2]; 2]; 2];
    for seed in 0..SEEDS {
        let cfg = fast(P, seed);
        let (mesh, wire) = tapped_mesh::<M61>(&cfg);
        MpcEngine::new(cfg.clone())
            .try_run_on(mesh, |ctx| {
                ctx.sum_to_receiver(&shares(ctx.id), &addend(ctx.id))
            })
            .unwrap();
        let wire = wire.lock().unwrap();
        let received = &wire[RECEIVER][0].received;
        let coalition = |peer: usize| !honest.contains(&peer);
        let residual: Vec<Vec<M61>> = honest
            .iter()
            .map(|&i| sub(&received[i], &zero_share(&cfg, i, 0, 4, coalition)))
            .collect();
        for slot in 0..4 {
            let known: M61 = honest
                .iter()
                .map(|&i| lambda[i] * shares(i)[slot] + addend(i)[slot])
                .fold(M61::ZERO, |acc, v| acc + v);
            assert_eq!(residual[0][slot] + residual[1][slot], known, "seed {seed}");
            for (h, &i) in honest.iter().enumerate() {
                hist[0][h][slot / 2][bucket(residual[h][slot])] += 1;
                let bare = received[i][slot] - zero_share(&cfg, i, 0, 4, |_| true)[slot];
                hist[1][h][slot / 2][bucket(bare)] += 1;
            }
        }
    }
    let [view, unmasked] = hist;
    for (h, [zeros, large]) in view.iter().enumerate() {
        for (class, counts) in [zeros, large].into_iter().enumerate() {
            let chi2 = chi_square_uniform(counts);
            assert!(
                chi2 < CRITICAL,
                "party {} class {class}: {chi2:.1}",
                honest[h]
            );
        }
        let chi2 = chi_square_homogeneity(zeros, large);
        assert!(
            chi2 < CRITICAL,
            "party {}: {chi2:.1} across inputs",
            honest[h]
        );
    }
    // Negative control: without G(s_34) the residuals are the inputs.
    for [zeros, large] in &unmasked {
        assert!(chi_square_uniform(zeros) > 10.0 * CRITICAL);
        assert!(chi_square_homogeneity(zeros, large) > 10.0 * CRITICAL);
    }
}

#[test]
fn sparse_round_is_backend_and_fault_independent() {
    let a: Vec<i128> = (0..40).map(|k| 3 * k - 50).collect();
    let b: Vec<i128> = (0..40).map(|k| 7 - k).collect();
    let addend =
        |id: usize| -> Vec<i128> { (0..40).map(|k| (id as i128 + 1) * (k - 20)).collect() };
    let (golden, golden_wire) = masked_products::<M61>(fast(4, 5), &a, &b, addend);

    let faults = FaultSpec::seeded(9)
        .with_delay(Duration::ZERO, Duration::from_micros(200))
        .with_drop(0.2)
        .with_retransmit(Duration::from_micros(100), 32);
    for backend in [NetBackend::InProcess, NetBackend::tcp()] {
        for faults in [None, Some(faults.clone())] {
            let what = format!("{backend:?} faults={}", faults.is_some());
            let cfg = fast(4, 5).with_backend(backend.clone()).with_faults(faults);
            let (run, wire) = masked_products::<M61>(cfg, &a, &b, addend);
            assert_eq!(run.outputs, golden.outputs, "{what}");
            assert_eq!(
                wire[RECEIVER][1].received, golden_wire[RECEIVER][1].received,
                "{what}: the receiver's view"
            );
            assert_eq!(run.stats.total.rounds, 2, "{what}");
            assert_eq!(run.stats.total.bytes, golden.stats.total.bytes, "{what}");
            assert_eq!(run.stats.total.elems, golden.stats.total.elems, "{what}");
            for phase in ["input", "open"] {
                let (r, g) = (&run.stats.phases[phase], &golden.stats.phases[phase]);
                assert_eq!(r.messages, g.messages, "{what} {phase}");
                assert_eq!(r.bytes, g.bytes, "{what} {phase}");
                assert_eq!(r.elems, g.elems, "{what} {phase}");
            }
        }
    }
    // Parties 0 and 1 ship 40 input shares per link, parties 2 and 3
    // nothing (non-messages); round 2 is one 40-element vector from each
    // non-receiver. 8 bytes per M61 element.
    assert_eq!(golden.stats.phases["input"].messages, 2 * 3);
    assert_eq!(golden.stats.phases["input"].bytes, 2 * 3 * 40 * 8);
    assert_eq!(golden.stats.phases["open"].messages, 3);
    assert_eq!(golden.stats.phases["open"].bytes, 3 * 40 * 8);
}

#[test]
fn runs_on_a_reused_mesh_never_replay_share_or_mask_polynomials() {
    // Two releases on one mesh from one config: party 0 moves its input
    // 1000 -> 2000, party 1 moves 1001 -> 2007. Were the share polynomials
    // replayed, curious party 2 would subtract its two shares of each input
    // and read the differences (1000 and 1006) in the clear. Round 2 then
    // sums the *same* shares and addends in both runs: were a pair stream
    // replayed, the two u_i of a party would be equal, and with moving
    // inputs their difference would be the inputs' difference.
    let inputs = [[1000i128, 1001], [2000, 2007]];
    let (shares, addend) = ([M61::from_u64(5)], [M61::from_u64(7)]);
    let lambda = lagrange_at_zero::<M61>(&[0, 1, 2]);
    for backend in [NetBackend::InProcess, NetBackend::tcp()] {
        let cfg = fast(3, 21).with_backend(backend.clone());
        let engine = MpcEngine::new(cfg.clone());
        let (mut mesh, wire) = tapped_mesh::<M61>(&cfg);
        let mut runs = Vec::new();
        for owned in inputs {
            let (run, back) = engine
                .try_run_on(mesh, |ctx| {
                    let mine: Vec<M61> = owned
                        .get(ctx.id)
                        .map(|&v| M61::from_i128(v))
                        .into_iter()
                        .collect();
                    let contributions = ctx.share_all_uneven(&mine, &[1, 1, 0]);
                    let sum = ctx.sum_to_receiver(&shares, &addend);
                    (contributions[0][0], contributions[1][0], sum)
                })
                .unwrap();
            mesh = back;
            runs.push(run);
        }
        let (first, second) = (&runs[0].outputs, &runs[1].outputs);
        // Party 2's view of the two owners' inputs.
        let (a0, b0, _) = first[2];
        let (a1, b1, _) = second[2];
        assert_ne!((a1 - a0).to_centered_i128(), 1000, "{backend:?}: party 0");
        assert_ne!((b1 - b0).to_centered_i128(), 1006, "{backend:?}: party 1");
        // Same sum both times: the lambdas sum to one, three addends of 7.
        for run in [first, second] {
            assert_eq!(run[RECEIVER].2, Some(vec![M61::from_u64(5 + 3 * 7)]));
        }
        // The honest parties' u_i: drawn afresh, each under the nonce of
        // the round it rode (1, then 3 — the mesh's counter carries on).
        let wire = wire.lock().unwrap();
        let (u_first, u_second) = (&wire[RECEIVER][1], &wire[RECEIVER][3]);
        assert_eq!((u_first.index, u_second.index), (1, 3), "{backend:?}");
        for (i, &weight) in lambda.iter().enumerate().skip(1) {
            assert_ne!(
                u_first.received[i], u_second.received[i],
                "{backend:?}: party {i} replayed its mask"
            );
            for round in [u_first, u_second] {
                let r = zero_share::<M61>(&cfg, i, round.index, 1, |_| true);
                assert_eq!(
                    round.received[i][0],
                    weight * shares[0] + addend[0] + r[0],
                    "{backend:?}: party {i} round {}",
                    round.index
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "party thread panicked")]
fn ragged_mask_shares_are_rejected() {
    // A party whose masked share vector u_i is shorter than the receiver's.
    MpcEngine::new(fast(3, 1)).run::<M61, _, _>(|ctx| {
        let len = if ctx.id == 1 { 1 } else { 2 };
        ctx.sum_to_receiver(&vec![M61::ONE; len], &vec![M61::ONE; len])
    });
}
