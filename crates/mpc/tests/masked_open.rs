//! The degree-`2t` masked open behind the two-round releases.
//!
//! `PartyCtx::share_all_masked` ships degree-`t` input shares and degree-`2t`
//! mask shares in one frame; the local product plus the summed mask shares
//! is opened directly, with no degree reduction in between. These tests pin
//! what that relies on: the opened polynomial has degree at most `2t` with
//! the expected constant term, every other coefficient is re-randomised by
//! the masks (uniform, and independent of the inputs), and the primitive
//! behaves identically over TCP and under the fault wrapper.

use std::time::Duration;

use sqm_field::{PrimeField, M61};
use sqm_mpc::net::build_mesh;
use sqm_mpc::{FaultSpec, MpcConfig, MpcEngine, MpcRun, NetBackend};

/// Party 0 owns `a`, party 1 owns `b`, every party contributes the masks
/// `mask(id)`. Each party returns its share of `a[k] * b[k] + sum_i mask_i[k]`
/// (degree `2t`, never reduced) and the opened values.
fn masked_products(
    cfg: MpcConfig,
    a: &[i128],
    b: &[i128],
    mask: impl Fn(usize) -> Vec<i128> + Sync,
) -> MpcRun<(Vec<M61>, Vec<M61>)> {
    let len = a.len();
    assert_eq!(b.len(), len);
    let field = |v: &[i128]| v.iter().map(|&x| M61::from_i128(x)).collect::<Vec<_>>();
    MpcEngine::new(cfg).run::<M61, _, _>(|ctx| {
        let mut expected = vec![0; ctx.n];
        expected[0] = len;
        expected[1] = len;
        let mine = match ctx.id {
            0 => field(a),
            1 => field(b),
            _ => Vec::new(),
        };
        ctx.set_phase("dp_noise");
        let masks = ctx.mask_shares(&field(&mask(ctx.id)));
        ctx.set_phase("input");
        let (contributions, mut masked) = ctx.share_all_masked(&mine, &expected, masks);
        ctx.set_phase("compute");
        for (k, share) in masked.iter_mut().enumerate() {
            *share += contributions[0][k] * contributions[1][k];
        }
        ctx.set_phase("open");
        let opened = ctx.open(&masked);
        (masked, opened)
    })
}

fn fast(p: usize, seed: u64) -> MpcConfig {
    MpcConfig::semi_honest(p)
        .with_latency(Duration::ZERO)
        .with_seed(seed)
}

/// Coefficients (constant first) of the unique polynomial of degree below
/// `ys.len()` through `(i + 1, ys[i])` — the parties' evaluation points.
fn interpolate(ys: &[M61]) -> Vec<M61> {
    let n = ys.len();
    let x = |i: usize| M61::from_u64(i as u64 + 1);
    let mut coeffs = vec![M61::ZERO; n];
    for (j, &yj) in ys.iter().enumerate() {
        // Lagrange basis l_j(x) = prod_{k != j} (x - x_k) / (x_j - x_k).
        let mut basis = vec![M61::ONE];
        let mut denom = M61::ONE;
        for k in (0..n).filter(|&k| k != j) {
            let mut next = vec![M61::ZERO; basis.len() + 1];
            for (i, &c) in basis.iter().enumerate() {
                next[i + 1] += c;
                next[i] -= c * x(k);
            }
            basis = next;
            denom *= x(j) - x(k);
        }
        let scale = yj * denom.inverse();
        for (c, b) in coeffs.iter_mut().zip(basis) {
            *c += b * scale;
        }
    }
    coeffs
}

/// The opened polynomial of slot `k`: interpolate the parties' shares.
fn opened_polynomial(run: &MpcRun<(Vec<M61>, Vec<M61>)>, k: usize) -> Vec<M61> {
    interpolate(&run.outputs.iter().map(|(s, _)| s[k]).collect::<Vec<_>>())
}

#[test]
fn opened_polynomial_has_degree_2t_and_only_its_constant_term_is_pinned() {
    let (a, b) = ([-7i128, 1 << 20, 0], [6i128, -3, 0]);
    for p in [2usize, 3, 4, 5, 10] {
        let t = (p - 1) / 2;
        let mask = |id: usize| vec![id as i128 - 2, 100 * id as i128, 5];
        let want: Vec<i128> = (0..3)
            .map(|k| a[k] * b[k] + (0..p).map(|id| mask(id)[k]).sum::<i128>())
            .collect();

        let first = masked_products(fast(p, 11), &a, &b, mask);
        let second = masked_products(fast(p, 12), &a, &b, mask);
        assert_eq!(first.stats.total.rounds, 2, "P={p}: input+masks, open");
        assert_eq!(first.stats.phases["dp_noise"].rounds, 0, "P={p}");
        for k in 0..3 {
            let (c1, c2) = (opened_polynomial(&first, k), opened_polynomial(&second, k));
            for (seed, coeffs, run) in [(11, &c1, &first), (12, &c2, &second)] {
                assert_eq!(
                    coeffs[0].to_centered_i128(),
                    want[k],
                    "P={p} seed={seed} slot {k}: constant term"
                );
                assert!(
                    coeffs[2 * t + 1..].iter().all(|&c| c == M61::ZERO),
                    "P={p} seed={seed} slot {k}: degree above 2t"
                );
                for (_, opened) in &run.outputs {
                    assert_eq!(opened[k].to_centered_i128(), want[k], "P={p} seed={seed}");
                }
            }
            // A different engine seed moves every non-constant coefficient
            // and nothing else.
            for d in 1..=2 * t {
                assert_ne!(c1[d], c2[d], "P={p} slot {k}: coefficient {d} did not move");
            }
        }
    }
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

#[test]
fn non_constant_coefficients_are_uniform_and_independent_of_the_inputs() {
    // P = 3, t = 1: the opened polynomial is c0 + c1 x + c2 x^2. Unmasked,
    // c1 = a r_b + b r_a and c2 = r_a r_b depend on the inputs — with
    // a = b = 0 (slot 0) c1 is identically zero. Masked, both must be
    // uniform whatever the inputs are: slot 0 holds zeros, slot 1 large
    // values, and the two slots' coefficient histograms must agree with the
    // uniform law and with each other.
    const SEEDS: u64 = 2_000;
    const BUCKETS: usize = 16;
    // 15 degrees of freedom: P(chi2 > 37.7) = 0.001. The seeds are fixed, so
    // this is a pinned draw, not a flaky one.
    const CRITICAL: f64 = 37.7;
    let (a, b) = ([0i128, (1 << 40) + 12_345], [0i128, -(1 << 39) - 678]);
    let bucket = |c: M61| (c.to_canonical() % BUCKETS as u128) as usize;

    let mut hist = [[[0u32; BUCKETS]; 2]; 2]; // [slot][coefficient - 1]
    for seed in 0..SEEDS {
        let run = masked_products(fast(3, seed), &a, &b, |id| vec![id as i128 - 1; 2]);
        for (slot, per_slot) in hist.iter_mut().enumerate() {
            let coeffs = opened_polynomial(&run, slot);
            assert_eq!(run.outputs[0].1[slot], coeffs[0]);
            for d in 1..=2 {
                per_slot[d - 1][bucket(coeffs[d])] += 1;
            }
        }
    }
    for (slot, per_slot) in hist.iter().enumerate() {
        for (d, counts) in per_slot.iter().enumerate() {
            let chi2 = chi_square_uniform(counts);
            assert!(
                chi2 < CRITICAL,
                "slot {slot} coefficient {}: chi2 {chi2:.1} vs uniform, {counts:?}",
                d + 1
            );
        }
    }
    for (d, (zeros, large)) in hist[0].iter().zip(&hist[1]).enumerate() {
        let chi2 = chi_square_homogeneity(zeros, large);
        assert!(
            chi2 < CRITICAL,
            "coefficient {}: chi2 {chi2:.1} between zero and large inputs",
            d + 1
        );
    }

    // Negative control: the same statistic on the *unmasked* local product
    // of the zero inputs is maximally non-uniform, so the check has teeth.
    let mut unmasked = [0u32; BUCKETS];
    for seed in 0..200 {
        let run = MpcEngine::new(fast(3, seed)).run::<M61, _, _>(|ctx| {
            let zero = [M61::ZERO];
            let x = ctx.share_input(0, (ctx.id == 0).then_some(&zero[..]), 1);
            let y = ctx.share_input(1, (ctx.id == 1).then_some(&zero[..]), 1);
            x[0] * y[0]
        });
        unmasked[bucket(interpolate(&run.outputs)[1])] += 1;
    }
    assert!(chi_square_uniform(&unmasked) > 10.0 * CRITICAL);
}

#[test]
fn fused_round_is_framing_backend_and_fault_independent() {
    let a: Vec<i128> = (0..40).map(|k| 3 * k - 50).collect();
    let b: Vec<i128> = (0..40).map(|k| 7 - k).collect();
    let mask = |id: usize| -> Vec<i128> { (0..40).map(|k| (id as i128 + 1) * (k - 20)).collect() };
    let golden = masked_products(fast(4, 5), &a, &b, mask);

    let faults = FaultSpec::seeded(9)
        .with_delay(Duration::ZERO, Duration::from_micros(200))
        .with_drop(0.2)
        .with_retransmit(Duration::from_micros(100), 32);
    for backend in [NetBackend::InProcess, NetBackend::tcp()] {
        for faults in [None, Some(faults.clone())] {
            let what = format!("{backend:?} faults={}", faults.is_some());
            let cfg = fast(4, 5).with_backend(backend.clone()).with_faults(faults);
            let run = masked_products(cfg, &a, &b, mask);
            assert_eq!(run.outputs, golden.outputs, "{what}");
            assert_eq!(run.stats.total.rounds, 2, "{what}");
            assert_eq!(run.stats.total.bytes, golden.stats.total.bytes, "{what}");
            assert_eq!(run.stats.total.elems, golden.stats.total.elems, "{what}");
            for phase in ["input", "open"] {
                let (r, g) = (&run.stats.phases[phase], &golden.stats.phases[phase]);
                assert_eq!(r.bytes, g.bytes, "{what} {phase}");
                assert_eq!(r.elems, g.elems, "{what} {phase}");
            }
            // One frame per link per round.
            assert_eq!(run.stats.total.messages, 2 * 4 * 3, "{what}");
        }
    }
    // Parties 0 and 1 ship 40 inputs + 40 masks per link, parties 2 and 3
    // only their 40 masks; 8 bytes per M61 element, 3 links per party.
    assert_eq!(
        golden.stats.phases["input"].bytes,
        (2 * 80 + 2 * 40) * 3 * 8
    );
    assert_eq!(golden.stats.phases["dp_noise"].bytes, 0);
}

#[test]
fn runs_on_a_reused_mesh_never_replay_share_or_mask_polynomials() {
    // Two releases on one mesh from one config: party 0 moves its input
    // 1000 -> 2000, party 1 moves 1001 -> 2007. Were the share polynomials
    // replayed, curious party 2 would subtract its two shares of each input
    // and read the differences (1000 and 1006) in the clear.
    let inputs = [[1000i128, 1001], [2000, 2007]];
    for backend in [NetBackend::InProcess, NetBackend::tcp()] {
        let cfg = fast(3, 21).with_backend(backend.clone());
        let engine = MpcEngine::new(cfg.clone());
        let mut mesh = build_mesh::<M61>(3, &cfg.backend, None).unwrap();
        let mut runs = Vec::new();
        for owned in inputs {
            let (run, back) = engine
                .try_run_on(mesh, |ctx| {
                    let mine: Vec<M61> = owned
                        .get(ctx.id)
                        .map(|&v| M61::from_i128(v))
                        .into_iter()
                        .collect();
                    let masks = ctx.mask_shares(&[M61::from_u64(5)]);
                    let (contributions, mask_sum) = ctx.share_all_masked(&mine, &[1, 1, 0], masks);
                    ctx.open(&mask_sum);
                    (contributions[0][0], contributions[1][0], mask_sum[0])
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
        // The opened mask polynomial: same constant term (3 x 5), every
        // other coefficient drawn afresh.
        let poly = |outputs: &[(M61, M61, M61)]| {
            interpolate(&outputs.iter().map(|o| o.2).collect::<Vec<_>>())
        };
        let (p0, p1) = (poly(first), poly(second));
        assert_eq!(p0[0], M61::from_u64(15), "{backend:?}");
        assert_eq!(p1[0], p0[0], "{backend:?}");
        for d in 1..=2 {
            assert_ne!(p0[d], p1[d], "{backend:?}: coefficient {d} replayed");
        }
    }
}

#[test]
#[should_panic(expected = "party thread panicked")]
fn ragged_mask_shares_are_rejected() {
    MpcEngine::new(fast(3, 1)).run::<M61, _, _>(|ctx| {
        let mut masks = ctx.mask_shares(&[M61::ONE, M61::ONE]);
        masks[1].pop();
        ctx.share_all_masked(&[], &[0, 0, 0], masks)
    });
}
