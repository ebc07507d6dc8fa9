//! Additive secret sharing with Beaver-triple multiplication — a second,
//! independent MPC backend.
//!
//! The paper (Section II) notes that BGW is used "as a black box" and "one
//! can replace BGW with any other MPC protocol without affecting the DP
//! guarantees" (e.g. Sharemind, ABY3, SPDZ-family). This module provides
//! that replacement: the SPDZ-style *online* phase over additive shares
//! (`s = sum_i s_i` with every `s_i` uniform), with multiplication triples
//! supplied by a trusted preprocessing dealer — the standard semi-honest
//! offline/online model. Linear operations are local; multiplication costs
//! one opening round; opening costs one round.
//!
//! Compared with Shamir/BGW: additive sharing tolerates `t = n - 1`
//! corruptions (full threshold) but has no redundancy and needs the dealer
//! (or an OT-based offline phase) for triples; BGW needs `t < n/2` but is
//! self-contained. Both produce identical opened values, which the tests
//! cross-check.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm_field::PrimeField;
use sqm_net::transport::build_mesh;
use sqm_net::TransportError;

use crate::engine::{MpcConfig, MpcRun};
use crate::runtime::{run_parties, PartyLink};

/// One party's additive shares of a Beaver triple `(a, b, c = a*b)`.
#[derive(Copy, Clone, Debug)]
pub struct AdditiveTriple<F: PrimeField> {
    a: F,
    b: F,
    c: F,
}

/// The additive-sharing engine.
pub struct AdditiveEngine {
    config: MpcConfig,
}

impl AdditiveEngine {
    /// Any `n >= 2` works; the threshold field of the config is ignored
    /// (additive sharing is full-threshold).
    pub fn new(config: MpcConfig) -> Self {
        assert!(config.n_parties >= 2, "need at least 2 parties");
        AdditiveEngine { config }
    }

    /// Run an SPMD program at every party.
    pub fn run<F, T, P>(&self, program: P) -> MpcRun<T>
    where
        F: PrimeField,
        T: Send,
        P: Fn(&mut AdditiveCtx<F>) -> T + Sync,
    {
        self.try_run(program)
            .unwrap_or_else(|e| panic!("mpc transport failure: {e}"))
    }

    /// Like [`AdditiveEngine::run`], but transport failures surface as the
    /// typed [`TransportError`] instead of panicking.
    pub fn try_run<F, T, P>(&self, program: P) -> Result<MpcRun<T>, TransportError>
    where
        F: PrimeField,
        T: Send,
        P: Fn(&mut AdditiveCtx<F>) -> T + Sync,
    {
        let n = self.config.n_parties;
        let endpoints = build_mesh::<F>(n, &self.config.backend, self.config.faults.as_ref())?;
        let seed = self.config.seed;
        run_parties(&self.config, "additive", endpoints, |link| {
            let id = link.id();
            let mut ctx = AdditiveCtx {
                id,
                n,
                rng: StdRng::seed_from_u64(seed ^ (0xADD1_7155_u64.wrapping_mul(id as u64 + 1))),
                dealer_rng: StdRng::seed_from_u64(seed ^ 0x00DE_A1E4),
                link,
            };
            let out = program(&mut ctx);
            (out, ctx.link)
        })
        .map(|(run, _mesh)| run)
    }
}

/// One party's context in the additive backend.
pub struct AdditiveCtx<F: PrimeField> {
    pub id: usize,
    pub n: usize,
    rng: StdRng,
    /// The trusted dealer's randomness stream — identical at every party,
    /// modelling the preprocessing functionality that hands each party its
    /// triple shares. (Semi-honest offline/online model; a real deployment
    /// replaces this with an OT- or HE-based offline phase.)
    dealer_rng: StdRng,
    link: PartyLink<F>,
}

impl<F: PrimeField> AdditiveCtx<F> {
    /// Switch accounting phase.
    pub fn set_phase(&mut self, name: &str) {
        self.link.set_phase(name);
    }

    /// Share a vector of secrets owned by `owner`: the owner sends uniform
    /// summands to everyone else and keeps the residual. One round.
    pub fn share_input(&mut self, owner: usize, values: Option<&[F]>, len: usize) -> Vec<F> {
        assert!(owner < self.n);
        let mut outgoing: Vec<Vec<F>> = vec![Vec::new(); self.n];
        if self.id == owner {
            let values = values.expect("owner must supply values");
            assert_eq!(values.len(), len);
            let mut per_party: Vec<Vec<F>> = vec![Vec::with_capacity(len); self.n];
            for &v in values {
                let mut residual = v;
                for (j, slot) in per_party.iter_mut().enumerate() {
                    if j == self.id {
                        continue;
                    }
                    let r = F::random(&mut self.rng);
                    residual -= r;
                    slot.push(r);
                }
                per_party[self.id].push(residual);
            }
            outgoing = per_party;
        }
        let incoming = self.link.exchange(outgoing);
        let mine = incoming[owner].clone();
        assert_eq!(mine.len(), len, "owner sent wrong share count");
        mine
    }

    /// `[a] + [b]`, local.
    pub fn add(&self, a: &[F], b: &[F]) -> Vec<F> {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| x + y).collect()
    }

    /// `[a] - [b]`, local.
    pub fn sub(&self, a: &[F], b: &[F]) -> Vec<F> {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| x - y).collect()
    }

    /// Multiply by a public constant, local.
    pub fn scale_public(&self, a: &[F], c: F) -> Vec<F> {
        a.iter().map(|&x| x * c).collect()
    }

    /// Add a public constant: exactly one party (index 0 by convention)
    /// shifts its share — the additive analog of BGW's every-party shift.
    pub fn add_public(&self, a: &[F], c: F) -> Vec<F> {
        a.iter()
            .map(|&x| if self.id == 0 { x + c } else { x })
            .collect()
    }

    /// Draw `count` Beaver triples from the trusted dealer. No
    /// communication: the dealer functionality is modelled by a shared
    /// randomness stream from which each party deterministically extracts
    /// *its own* share (and only its own — the full `a, b` values exist
    /// transiently inside the modelled functionality).
    pub fn dealer_triples(&mut self, count: usize) -> Vec<AdditiveTriple<F>> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            // The dealer samples all parties' shares; party i keeps row i.
            let mut a_shares = Vec::with_capacity(self.n);
            let mut b_shares = Vec::with_capacity(self.n);
            for _ in 0..self.n {
                a_shares.push(F::random(&mut self.dealer_rng));
                b_shares.push(F::random(&mut self.dealer_rng));
            }
            let a: F = a_shares.iter().fold(F::ZERO, |acc, &v| acc + v);
            let b: F = b_shares.iter().fold(F::ZERO, |acc, &v| acc + v);
            let c = a * b;
            // c is shared as: uniform shares for parties 1..n, residual to 0.
            let mut c_shares = Vec::with_capacity(self.n);
            let mut residual = c;
            for _ in 1..self.n {
                let r = F::random(&mut self.dealer_rng);
                residual -= r;
                c_shares.push(r);
            }
            c_shares.insert(0, residual);
            out.push(AdditiveTriple {
                a: a_shares[self.id],
                b: b_shares[self.id],
                c: c_shares[self.id],
            });
        }
        out
    }

    /// Beaver multiplication: one opening round for the masked values.
    pub fn mul_beaver(&mut self, x: &[F], y: &[F], triples: &[AdditiveTriple<F>]) -> Vec<F> {
        assert_eq!(x.len(), y.len());
        assert!(triples.len() >= x.len(), "not enough triples");
        let mut masked = Vec::with_capacity(2 * x.len());
        for ((&xi, &yi), t) in x.iter().zip(y).zip(triples) {
            masked.push(xi - t.a);
            masked.push(yi - t.b);
        }
        let opened = self.open(&masked);
        x.iter()
            .zip(triples)
            .enumerate()
            .map(|(k, (_, t))| {
                let d = opened[2 * k];
                let e = opened[2 * k + 1];
                // [z] = [c] + d[b] + e[a] + de (constant added by party 0).
                let mut z = t.c + t.b * d + t.a * e;
                if self.id == 0 {
                    z += d * e;
                }
                z
            })
            .collect()
    }

    /// Open shared values to all parties: everyone broadcasts its share and
    /// sums. One round.
    pub fn open(&mut self, shares: &[F]) -> Vec<F> {
        let incoming = self.link.exchange(vec![shares.to_vec(); self.n]);
        let len = shares.len();
        let mut out = vec![F::ZERO; len];
        for inc in &incoming {
            assert_eq!(inc.len(), len, "open: wrong share count");
            for (o, &s) in out.iter_mut().zip(inc) {
                *o += s;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_field::M61;
    use std::time::Duration;

    fn engine(n: usize) -> AdditiveEngine {
        AdditiveEngine::new(MpcConfig::semi_honest(n).with_latency(Duration::ZERO))
    }

    #[test]
    fn share_and_open_roundtrip() {
        let run = engine(4).run::<M61, _, _>(|ctx| {
            let v = vec![M61::from_i128(-99), M61::from_u64(1234)];
            let shares = ctx.share_input(1, (ctx.id == 1).then_some(&v), 2);
            ctx.open(&shares)
        });
        for out in run.outputs {
            assert_eq!(out[0].to_centered_i128(), -99);
            assert_eq!(out[1].to_centered_i128(), 1234);
        }
        assert_eq!(run.stats.total.rounds, 2);
    }

    #[test]
    fn linear_ops() {
        let run = engine(3).run::<M61, _, _>(|ctx| {
            let a = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(10)]).as_deref(),
                1,
            );
            let b = ctx.share_input(
                1,
                (ctx.id == 1).then(|| vec![M61::from_u64(4)]).as_deref(),
                1,
            );
            let s = ctx.add(&a, &b);
            let d = ctx.scale_public(&s, M61::from_u64(3));
            let e = ctx.add_public(&d, M61::from_u64(8));
            ctx.open(&e)
        });
        for out in run.outputs {
            assert_eq!(out[0].to_canonical(), (10 + 4) * 3 + 8);
        }
    }

    #[test]
    fn beaver_multiplication() {
        for n in [2usize, 3, 5] {
            let run = engine(n).run::<M61, _, _>(|ctx| {
                let x = ctx.share_input(
                    0,
                    (ctx.id == 0)
                        .then(|| vec![M61::from_i128(-6), M61::from_u64(9)])
                        .as_deref(),
                    2,
                );
                let y = ctx.share_input(
                    1,
                    (ctx.id == 1)
                        .then(|| vec![M61::from_u64(7), M61::from_i128(-3)])
                        .as_deref(),
                    2,
                );
                let triples = ctx.dealer_triples(2);
                let z = ctx.mul_beaver(&x, &y, &triples);
                ctx.open(&z)
            });
            for out in run.outputs {
                assert_eq!(out[0].to_centered_i128(), -42, "n={n}");
                assert_eq!(out[1].to_centered_i128(), -27, "n={n}");
            }
        }
    }

    #[test]
    fn dealer_triples_are_consistent_and_valid() {
        let run = engine(3).run::<M61, _, _>(|ctx| {
            let triples = ctx.dealer_triples(5);
            let flat: Vec<M61> = triples.iter().flat_map(|t| [t.a, t.b, t.c]).collect();
            ctx.open(&flat)
        });
        for out in run.outputs {
            for chunk in out.chunks(3) {
                assert_eq!(chunk[0] * chunk[1], chunk[2]);
            }
        }
    }

    #[test]
    fn matches_bgw_backend_on_inner_product() {
        // Same inputs through both backends must open the same value.
        let xs: Vec<M61> = (1..=20u64).map(M61::from_u64).collect();
        let ys: Vec<M61> = (1..=20u64).map(|v| M61::from_u64(3 * v)).collect();
        let expect: u128 = (1..=20u128).map(|v| v * 3 * v).sum();

        let xs2 = xs.clone();
        let ys2 = ys.clone();
        let additive = engine(3).run::<M61, _, _>(move |ctx| {
            let x = ctx.share_input(0, (ctx.id == 0).then_some(&xs2[..]), 20);
            let y = ctx.share_input(1, (ctx.id == 1).then_some(&ys2[..]), 20);
            let triples = ctx.dealer_triples(20);
            let prods = ctx.mul_beaver(&x, &y, &triples);
            let sum = prods.iter().fold(M61::ZERO, |acc, &v| acc + v);
            ctx.open(&[sum])
        });
        for out in &additive.outputs {
            assert_eq!(out[0].to_canonical(), expect);
        }

        let bgw =
            crate::engine::MpcEngine::new(MpcConfig::semi_honest(3).with_latency(Duration::ZERO))
                .run::<M61, _, _>(move |ctx| {
                let x = ctx.share_input(0, (ctx.id == 0).then_some(&xs[..]), 20);
                let y = ctx.share_input(1, (ctx.id == 1).then_some(&ys[..]), 20);
                let ip = ctx.inner_product(&x, &y);
                ctx.open(&[ip])
            });
        assert_eq!(bgw.outputs[0][0].to_canonical(), expect);
    }

    #[test]
    fn single_share_reveals_nothing_statistically() {
        // A non-owner's share of a fixed secret is uniform: histogram test.
        let buckets = 8;
        let p = <M61 as PrimeField>::modulus();
        let mut hist = vec![0usize; buckets];
        let trials = 200;
        for seed in 0..trials {
            let cfg = MpcConfig::semi_honest(3)
                .with_latency(Duration::ZERO)
                .with_seed(seed);
            let run = AdditiveEngine::new(cfg).run::<M61, _, _>(|ctx| {
                let v = vec![M61::from_u64(42)]; // fixed secret
                let shares = ctx.share_input(0, (ctx.id == 0).then_some(&v), 1);
                shares[0]
            });
            // Party 1's share:
            let s = run.outputs[1].to_canonical();
            hist[(s * buckets as u128 / p) as usize] += 1;
        }
        let expect = trials as f64 / buckets as f64;
        for (b, &h) in hist.iter().enumerate() {
            assert!(
                (h as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "bucket {b}: {h} vs {expect}"
            );
        }
    }

    #[test]
    fn trace_matches_stats_exactly() {
        let cfg = MpcConfig::semi_honest(3)
            .with_latency(Duration::from_millis(100))
            .with_trace(true);
        let run = AdditiveEngine::new(cfg).run::<M61, _, _>(|ctx| {
            ctx.set_phase("input");
            let x = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(2); 4]).as_deref(),
                4,
            );
            let triples = ctx.dealer_triples(4);
            ctx.set_phase("online");
            let x2 = x.clone();
            let z = ctx.mul_beaver(&x, &x2, &triples);
            ctx.open(&z)
        });
        let summary = run.trace.expect("trace requested").summary();
        assert_eq!(summary.total_simulated(), run.stats.simulated_time());
        assert_eq!(summary.total.rounds, run.stats.total.rounds);
        assert_eq!(summary.total.bytes, run.stats.total.bytes);
    }

    #[test]
    fn causal_critical_path_matches_simulated_time_exactly() {
        // Same exactness contract as the BGW engine: the critical path of
        // the reconstructed message DAG is the virtual clock, bit-exact.
        let cfg = MpcConfig::semi_honest(3)
            .with_latency(Duration::from_millis(100))
            .with_trace(true);
        let run = AdditiveEngine::new(cfg).run::<M61, _, _>(|ctx| {
            ctx.set_phase("input");
            let x = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(2); 4]).as_deref(),
                4,
            );
            let triples = ctx.dealer_triples(4);
            ctx.set_phase("online");
            let x2 = x.clone();
            let z = ctx.mul_beaver(&x, &x2, &triples);
            ctx.open(&z)
        });
        let trace = run.trace.expect("trace requested");
        let dag = sqm_obs::MessageDag::build(&trace);
        assert!(dag.fully_matched());
        assert_eq!(dag.lamport_violations(), 0);
        assert_eq!(dag.edges().len() as u64, run.stats.total.messages);
        assert_eq!(dag.critical_path().total, run.stats.simulated_time());
    }

    #[test]
    fn beaver_online_round_count() {
        let run = engine(4).run::<M61, _, _>(|ctx| {
            let x = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(2); 8]).as_deref(),
                8,
            );
            let triples = ctx.dealer_triples(8);
            ctx.set_phase("online");
            let x2 = x.clone();
            let z = ctx.mul_beaver(&x, &x2, &triples);
            ctx.open(&z)
        });
        assert_eq!(run.stats.phases["online"].rounds, 2);
        for out in run.outputs {
            assert!(out.iter().all(|v| v.to_canonical() == 4));
        }
    }
}
