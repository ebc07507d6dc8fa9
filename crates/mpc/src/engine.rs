//! The BGW protocol layer.
//!
//! [`MpcEngine::run`] hands one SPMD protocol program to the party
//! runtime (`crate::runtime`: one thread per party, one instrumented round
//! exchange), each party executing it against its own [`PartyCtx`]. The
//! context exposes the BGW operations SQM needs:
//!
//! * linear operations on shares (local, free);
//! * batched multiplication and inner products with GRR degree reduction
//!   (one communication round per batch, `t < n/2`);
//! * input sharing (single-owner and simultaneous all-party);
//! * opening to every party (reconstruction from all `n` shares — valid
//!   for any sharing of degree at most `2t`, since `2t < n`);
//! * the masked sum to one receiver ([`PartyCtx::sum_to_receiver`]): secure
//!   aggregation of the Lagrange-weighted shares plus one private addend
//!   per party, under pairwise [`crate::chacha`] zero-shares.
//!
//! All vector operations are batched: one round moves one payload per
//! ordered party pair regardless of how many field elements it carries,
//! matching the paper's synchronous cost model.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm_field::PrimeField;
use sqm_net::fault::FaultSpec;
use sqm_net::transport::{build_mesh, NetBackend, Transport};
use sqm_net::TransportError;
use sqm_obs::live::Collector;
use sqm_obs::metrics;
use sqm_obs::prof::Profiler;
use sqm_obs::trace::Trace;

use crate::chacha::PairStream;
use crate::runtime::{run_parties, PartyLink};
use crate::shamir::{lagrange_at_zero, share_secrets_batch};
use crate::stats::RunStats;

/// Sizing of the per-party worker pool for wide local arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchOptions {
    /// Size of the per-party worker pool that wide batches of polynomial
    /// evaluations and Lagrange recombinations split across. `1` keeps all
    /// arithmetic on the party thread.
    pub workers: usize,
    /// Minimum batch width (field elements) before the worker pool is
    /// engaged; narrower batches run inline, where thread hand-off would
    /// cost more than it saves.
    pub min_parallel_width: usize,
}

impl Default for BatchOptions {
    /// Sized for the SPMD engine, where every party is already a thread:
    /// the pool only helps once the machine has cores to spare beyond the
    /// party threads, so the default halves the available parallelism and
    /// caps it at 4 — on small containers (1-2 cores) it degenerates to
    /// `workers: 1` and all arithmetic stays inline. Results are
    /// bit-identical for every worker count; this knob is wall-clock only.
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        BatchOptions {
            workers: (cores / 2).clamp(1, 4),
            min_parallel_width: 1024,
        }
    }
}

impl BatchOptions {
    /// Should a batch of `width` elements use the worker pool?
    pub(crate) fn parallel(&self, width: usize) -> bool {
        self.workers > 1 && width >= self.min_parallel_width.max(2)
    }
}

/// Configuration of a BGW session.
#[derive(Clone, Debug)]
pub struct MpcConfig {
    /// Number of parties `n`.
    pub n_parties: usize,
    /// Sharing threshold `t`; BGW multiplication requires `2t < n`.
    pub threshold: usize,
    /// Simulated per-hop message latency (the paper fixes 0.1 s).
    pub latency: Duration,
    /// Seed for the parties' share-randomness streams.
    pub seed: u64,
    /// Record a structured [`Trace`] of the run (spans and per-round
    /// records on the simulated clock). Off by default; the accounting in
    /// [`RunStats`] is always on.
    pub trace: bool,
    /// Per-party bound on trace detail records (spans + rounds + net
    /// events). `None` uses [`sqm_obs::trace::DEFAULT_EVENT_CAP`]. Dropped
    /// detail is counted (`PartyTrace::dropped_events`, metric
    /// `obs.trace.dropped_events`); trace summaries stay exact regardless.
    pub trace_event_cap: Option<usize>,
    /// Transport backend the parties communicate over. The protocol is
    /// backend-agnostic; message/byte counts are identical across backends.
    pub backend: NetBackend,
    /// Optional deterministic fault plan injected over the backend.
    pub faults: Option<FaultSpec>,
    /// The live-telemetry collector runs under this config report to (see
    /// [`sqm_obs::live`]): rounds are published into it, the stall watchdog
    /// brackets the run, and a failure dumps its flight recorder. The
    /// embedder creates it and keeps a handle to read. `None` (the default)
    /// means unobserved: the run touches no collector. Accounting
    /// (`RunStats`, traces) is bit-identical either way.
    pub live: Option<Arc<Collector>>,
    /// The cost profiler runs under this config record into (see
    /// [`sqm_obs::prof`]): exchange/round traffic, degree reductions, mask
    /// sharing and bulk field ops by collapsed-stack path. The embedder
    /// creates it and keeps a handle to read. `None` (the default) means
    /// unprofiled: the run touches no profiler and builds no path string.
    /// Protocol bits and [`RunStats`] are identical either way.
    pub prof: Option<Arc<Profiler>>,
    /// Worker-pool sizing for wide share/recombine batches (see
    /// [`BatchOptions`]). Wall-clock only: results are bit-identical for
    /// every setting.
    pub batching: BatchOptions,
}

impl MpcConfig {
    /// Maximal semi-honest threshold: `t = floor((n-1)/2)`, 0.1 s latency.
    ///
    /// **Secrecy caveat:** with `n_parties = 2` the threshold degenerates to
    /// `t = 0`, i.e. degree-0 "shares" that *are* the secret — the protocol
    /// stays correct but provides **no secrecy between the two parties**
    /// (information-theoretic BGW fundamentally needs `n >= 3`). Real
    /// two-party deployments should enlist a third, column-less compute
    /// party (ROADMAP item 8(c) turns this caveat into a typed refusal).
    pub fn semi_honest(n_parties: usize) -> Self {
        assert!(
            n_parties >= 2,
            "BGW needs at least 2 parties, got {n_parties}"
        );
        MpcConfig {
            n_parties,
            threshold: (n_parties - 1) / 2,
            latency: Duration::from_millis(100),
            seed: 0x5153_4D00, // "SQM"
            trace: false,
            trace_event_cap: None,
            backend: NetBackend::InProcess,
            faults: None,
            live: None,
            prof: None,
            batching: BatchOptions::default(),
        }
    }

    /// Override the simulated latency.
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// Override the randomness seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Turn structured trace recording on or off.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Bound the trace detail kept per party (see
    /// [`MpcConfig::trace_event_cap`]).
    pub fn with_trace_event_cap(mut self, cap: usize) -> Self {
        self.trace_event_cap = Some(cap);
        self
    }

    /// Select the transport backend.
    pub fn with_backend(mut self, backend: NetBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Inject a deterministic fault plan over the backend.
    pub fn with_faults(mut self, faults: Option<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Report runs under this config to `live` (see [`MpcConfig::live`]).
    pub fn with_live(mut self, live: Option<Arc<Collector>>) -> Self {
        self.live = live;
        self
    }

    /// Profile runs under this config into `prof` (see [`MpcConfig::prof`]).
    pub fn with_prof(mut self, prof: Option<Arc<Profiler>>) -> Self {
        self.prof = prof;
        self
    }

    fn validate(&self) {
        assert!(self.n_parties >= 2, "need at least 2 parties");
        assert!(
            self.batching.workers >= 1,
            "batching needs at least one worker"
        );
        assert!(
            2 * self.threshold < self.n_parties,
            "BGW multiplication requires 2t < n (t={}, n={})",
            self.threshold,
            self.n_parties
        );
    }
}

/// The result of a run: each party's return value plus aggregate statistics.
#[derive(Debug)]
pub struct MpcRun<T> {
    /// `outputs[i]` is party `i`'s return value.
    pub outputs: Vec<T>,
    /// Rounds / traffic / virtual-clock accounting.
    pub stats: RunStats,
    /// Structured per-party trace (only when [`MpcConfig::trace`] is set).
    /// Its merged summary reproduces `stats.simulated_time()` exactly.
    pub trace: Option<Trace>,
}

/// What [`MpcEngine::try_run_on`] returns on success: the run itself plus
/// the party mesh, handed back so the next run can reuse it.
pub type RunOnMesh<F, T> = (MpcRun<T>, Vec<Box<dyn Transport<F>>>);

/// The BGW engine. Construct once, run protocol programs.
pub struct MpcEngine {
    config: MpcConfig,
}

impl MpcEngine {
    pub fn new(config: MpcConfig) -> Self {
        config.validate();
        MpcEngine { config }
    }

    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// Run `program` at every party concurrently and collect outputs.
    ///
    /// The program must be SPMD-deterministic: every party performs the same
    /// sequence of communicating operations (branching only on public data).
    ///
    /// ```
    /// use sqm_field::{M61, PrimeField};
    /// use sqm_mpc::{MpcConfig, MpcEngine};
    /// use std::time::Duration;
    ///
    /// let engine = MpcEngine::new(MpcConfig::semi_honest(3).with_latency(Duration::ZERO));
    /// let run = engine.run::<M61, _, _>(|ctx| {
    ///     // Party 0 holds 6, party 1 holds 7; everyone learns 42.
    ///     let a = ctx.share_input(0, (ctx.id == 0).then(|| vec![M61::from_u64(6)]).as_deref(), 1);
    ///     let b = ctx.share_input(1, (ctx.id == 1).then(|| vec![M61::from_u64(7)]).as_deref(), 1);
    ///     let p = ctx.mul(&a, &b);
    ///     ctx.open(&p)[0]
    /// });
    /// assert!(run.outputs.iter().all(|v| v.to_canonical() == 42));
    /// ```
    pub fn run<F, T, P>(&self, program: P) -> MpcRun<T>
    where
        F: PrimeField,
        T: Send,
        P: Fn(&mut PartyCtx<F>) -> T + Sync,
    {
        self.try_run(program)
            .unwrap_or_else(|e| panic!("mpc transport failure: {e}"))
    }

    /// Like [`MpcEngine::run`], but a transport failure (dropped party,
    /// socket timeout, injected crash, ...) is returned as the typed
    /// [`TransportError`] naming the offending party and round instead of
    /// panicking. Non-transport panics inside `program` still propagate.
    pub fn try_run<F, T, P>(&self, program: P) -> Result<MpcRun<T>, TransportError>
    where
        F: PrimeField,
        T: Send,
        P: Fn(&mut PartyCtx<F>) -> T + Sync,
    {
        let endpoints = build_mesh::<F>(
            self.config.n_parties,
            &self.config.backend,
            self.config.faults.as_ref(),
        )?;
        self.try_run_on(endpoints, program).map(|(run, _)| run)
    }

    /// Like [`MpcEngine::try_run`], but over a caller-supplied mesh of party
    /// endpoints instead of building (and tearing down) a fresh one. On
    /// success the endpoints are handed back so the *next* run can reuse
    /// them — this is how a long-lived server amortizes meshing across many
    /// releases in one session. On error the endpoints are consumed: a
    /// transport failure leaves the mesh in an undefined round state, so the
    /// caller must re-mesh (via [`crate::net::build_mesh`]) before retrying.
    ///
    /// Party round counters continue across runs on a reused mesh; nothing
    /// in the protocol layer depends on absolute round numbers. The counter
    /// at run start salts each party's share randomness, so two runs on one
    /// mesh never draw the same share polynomials (a fresh mesh starts at
    /// round 0, which leaves the seed unsalted); the pair masks of
    /// [`PartyCtx::sum_to_receiver`] are nonced with the counter itself.
    pub fn try_run_on<F, T, P>(
        &self,
        endpoints: Vec<Box<dyn Transport<F>>>,
        program: P,
    ) -> Result<RunOnMesh<F, T>, TransportError>
    where
        F: PrimeField,
        T: Send,
        P: Fn(&mut PartyCtx<F>) -> T + Sync,
    {
        let n = self.config.n_parties;
        let lagrange_all = lagrange_at_zero::<F>(&(0..n).collect::<Vec<_>>());
        if let Some(prof) = &self.config.prof {
            // One field inversion per Lagrange denominator.
            prof.record("engine;setup;field_inv", 1, n as u64);
        }
        run_parties(&self.config, endpoints, |link| {
            let id = link.id();
            // A replayed stream shares two secrets under one polynomial: a
            // curious party subtracts its shares and reads their difference.
            let run_salt = link.round().wrapping_mul(0xD6E8_FEB8_6659_FD93);
            let mut ctx = PartyCtx {
                id,
                n,
                t: self.config.threshold,
                rng: StdRng::seed_from_u64(
                    self.config.seed
                        ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id as u64 + 1)
                        ^ run_salt,
                ),
                link,
                lagrange_all: lagrange_all.clone(),
                batching: self.config.batching,
                seed: self.config.seed,
            };
            let out = program(&mut ctx);
            (out, ctx.link)
        })
    }
}

/// The party that learns the result of [`PartyCtx::sum_to_receiver`].
pub const RECEIVER: usize = 0;

/// One party's protocol context. A *share vector* is a plain `Vec<F>` whose
/// `k`-th entry is this party's Shamir share of the `k`-th secret.
pub struct PartyCtx<F: PrimeField> {
    /// This party's index in `0..n`.
    pub id: usize,
    /// Number of parties.
    pub n: usize,
    /// Sharing threshold.
    pub t: usize,
    rng: StdRng,
    link: PartyLink<F>,
    lagrange_all: Vec<F>,
    batching: BatchOptions,
    /// The session seed the pair-mask keys derive from.
    seed: u64,
}

impl<F: PrimeField> PartyCtx<F> {
    /// Switch accounting to a named phase (e.g. `"dp_noise"`). Wall time and
    /// rounds accrued so far are attributed to the previous phase.
    pub fn set_phase(&mut self, name: &str) {
        self.link.set_phase(name);
    }

    /// The party's private randomness stream (share polynomials etc.).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// The run's worker-pool options. Callers scheduling their own wide
    /// local arithmetic (e.g. the circuit evaluator's gate layers) use this
    /// to match the engine's parallelism policy.
    pub fn batch_options(&self) -> BatchOptions {
        self.batching
    }

    /// The run's cost profiler, for attributing protocol-level work; `None`
    /// on an unprofiled run, so a hook's path string is never built.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.link.observer().profiler()
    }

    /// Attribute `work` units to `engine;<phase>;<what>` on a profiled run.
    fn profile(&self, what: &str, work: usize) {
        if let Some(prof) = self.profiler() {
            let phase = self.link.phase();
            prof.record(&format!("engine;{phase};{what}"), 1, work as u64);
        }
    }

    /// Share a whole vector with fresh degree-`degree` polynomials:
    /// party-major shares of `values`.
    fn share_vector(&mut self, values: &[F], degree: usize) -> Vec<Vec<F>> {
        share_secrets_batch(
            &mut self.rng,
            values,
            degree,
            self.n,
            self.batching.workers,
            self.batching.min_parallel_width,
        )
    }

    /// Lagrange recombination `out[k] = sum_i lambda_i * incoming[i][k]`,
    /// split across the worker pool when the batch is wide. The
    /// accumulation order over `i` is unchanged by the chunking, so the
    /// result is bit-identical for every worker count.
    fn recombine(&self, incoming: &[Vec<F>], len: usize, what: &str) -> Vec<F> {
        for (i, inc) in incoming.iter().enumerate() {
            assert_eq!(inc.len(), len, "{what}: party {i} sent wrong share count");
        }
        let mut out = vec![F::ZERO; len];
        // Capture only the weight table, not `self`: the endpoint behind
        // `self` is deliberately not shared with the worker threads.
        let lagrange_all = &self.lagrange_all;
        let accumulate = |out: &mut [F], offset: usize| {
            for (i, inc) in incoming.iter().enumerate() {
                let li = lagrange_all[i];
                for (o, &s) in out.iter_mut().zip(&inc[offset..]) {
                    *o += li * s;
                }
            }
        };
        let opts = self.batching;
        if opts.parallel(len) {
            let chunk = len.div_ceil(opts.workers);
            std::thread::scope(|s| {
                let accumulate = &accumulate;
                for (ci, slice) in out.chunks_mut(chunk).enumerate() {
                    s.spawn(move || accumulate(slice, ci * chunk));
                }
            });
        } else {
            accumulate(&mut out, 0);
        }
        out
    }

    // ----- input sharing ---------------------------------------------------

    /// Share a vector of secrets owned by `owner`. The owner passes
    /// `Some(values)`; everyone else passes `None` and `len`. One round.
    pub fn share_input(&mut self, owner: usize, values: Option<&[F]>, len: usize) -> Vec<F> {
        assert!(owner < self.n, "owner {owner} out of range");
        let mut outgoing: Vec<Vec<F>> = vec![Vec::new(); self.n];
        if self.id == owner {
            let values = values.expect("owner must supply input values");
            assert_eq!(
                values.len(),
                len,
                "owner's values do not match the declared length"
            );
            outgoing = self.share_vector(values, self.t);
        } else {
            assert!(
                values.is_none(),
                "non-owner party {} supplied values",
                self.id
            );
        }
        let incoming = self.link.exchange(outgoing);
        let mine = incoming[owner].clone();
        assert_eq!(mine.len(), len, "owner sent wrong share count");
        mine
    }

    /// Every party simultaneously shares its own equal-length vector.
    /// Returns `contributions[i]` = my shares of party `i`'s vector.
    /// One round.
    pub fn share_all(&mut self, my_values: &[F]) -> Vec<Vec<F>> {
        let expected = vec![my_values.len(); self.n];
        self.share_all_uneven(my_values, &expected)
    }

    /// Like [`Self::share_all`] but each party may contribute a different
    /// (publicly known) number of secrets; `expected[i]` is party `i`'s
    /// contribution length. One round.
    pub fn share_all_uneven(&mut self, my_values: &[F], expected: &[usize]) -> Vec<Vec<F>> {
        assert_eq!(expected.len(), self.n, "need one expected length per party");
        assert_eq!(
            my_values.len(),
            expected[self.id],
            "party {}: declared length mismatch",
            self.id
        );
        let per_party = self.share_vector(my_values, self.t);
        let incoming = self.link.exchange(per_party);
        for (i, inc) in incoming.iter().enumerate() {
            assert_eq!(
                inc.len(),
                expected[i],
                "party {i} contributed a wrong-length vector"
            );
        }
        incoming
    }

    // ----- linear operations (local, no communication) ---------------------

    /// `[a] + [b]` element-wise.
    pub fn add(&self, a: &[F], b: &[F]) -> Vec<F> {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| x + y).collect()
    }

    /// `[a] - [b]` element-wise.
    pub fn sub(&self, a: &[F], b: &[F]) -> Vec<F> {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| x - y).collect()
    }

    /// Multiply shares by a public constant.
    pub fn scale_public(&self, a: &[F], c: F) -> Vec<F> {
        a.iter().map(|&x| x * c).collect()
    }

    /// Add a public constant to each shared secret. Every party adds `c`
    /// to its share (shifts the polynomial's constant term).
    pub fn add_public(&self, a: &[F], c: F) -> Vec<F> {
        a.iter().map(|&x| x + c).collect()
    }

    /// Sum a share vector into a single share of the sum of the secrets.
    pub fn sum(&self, a: &[F]) -> F {
        a.iter().fold(F::ZERO, |acc, &x| acc + x)
    }

    // ----- multiplication (one round per batch) -----------------------------

    /// Degree reduction (GRR): convert degree-`2t` shares into fresh
    /// degree-`t` shares of the same secrets. One round, batched.
    pub fn reduce_degree(&mut self, d: &[F]) -> Vec<F> {
        let len = d.len();
        if metrics::is_enabled() {
            metrics::counter_add("mpc.degree_reductions", 1);
            metrics::counter_add("mpc.reduced_elems", len as u64);
            metrics::histogram_record("mpc.degree_reduction_batch", len as f64);
        }
        self.profile("reduce_degree", len);
        // Bulk field multiplications underneath: re-sharing evaluates a
        // degree-t polynomial at n points (t muls each, Horner) and
        // recombination applies n Lagrange weights per element.
        self.profile("reduce_degree;field_mul", len * self.n * (self.t + 1));
        // Re-share each local value with a fresh degree-t polynomial.
        let per_party = self.share_vector(d, self.t);
        let incoming = self.link.exchange(per_party);
        // New share = sum_i lambda_i * (party i's re-share of its value).
        self.recombine(&incoming, len, "degree reduction")
    }

    /// `[a] * [b]` element-wise: local products followed by one batched
    /// degree reduction.
    pub fn mul(&mut self, a: &[F], b: &[F]) -> Vec<F> {
        assert_eq!(a.len(), b.len());
        let local: Vec<F> = a.iter().zip(b).map(|(&x, &y)| x * y).collect();
        self.reduce_degree(&local)
    }

    /// Inner product `<[a], [b]>` with a *single* degree reduction: the local
    /// products are summed while still at degree `2t` (addition is free at
    /// any degree), so communication is one field element per party pair
    /// regardless of the vector length. This is the trick that makes
    /// covariance computation communication-cheap.
    pub fn inner_product(&mut self, a: &[F], b: &[F]) -> F {
        self.reduce_degree(&[F::dot(a, b)])[0]
    }

    /// Batched inner products: `out[k] = <a[k], b[k]>`, one round total.
    pub fn inner_products(&mut self, pairs: &[(&[F], &[F])]) -> Vec<F> {
        let locals: Vec<F> = pairs.iter().map(|(a, b)| F::dot(a, b)).collect();
        self.reduce_degree(&locals)
    }

    // ----- opening ----------------------------------------------------------

    /// Open shared secrets to all parties: broadcast shares, reconstruct
    /// from all `n` evaluation points — exact for any sharing of degree
    /// below `n`, so degree-`2t` (masked product) shares open unchanged.
    /// One round.
    pub fn open(&mut self, shares: &[F]) -> Vec<F> {
        // Reconstruction applies n Lagrange weights per opened element.
        self.profile("open;field_mul", shares.len() * self.n);
        let incoming = self.link.exchange(vec![shares.to_vec(); self.n]);
        self.recombine(&incoming, shares.len(), "open")
    }

    /// Secure aggregation to party [`RECEIVER`], the only party that gets
    /// `Some(sum)`: `sum[k] = sum_i (lambda_i * shares_i[k] + addend_i[k])` —
    /// the secrets behind any sharing of degree below `n`, plus every party's
    /// private addend (its local DP noise, never shared). One round.
    ///
    /// Party `i` sends the receiver `u_i = lambda_i * shares_i + addend_i +
    /// r_i` and everyone else a non-message. `r_i = sum_{j > i} G(s_ij) -
    /// sum_{j < i} G(s_ji)` is a pairwise zero-share: the `r_i` cancel in the
    /// sum, and any proper subset of the honest `u_i` is pseudorandom to
    /// whoever lacks one of their pair keys (DESIGN.md's security note). The
    /// streams are nonced with this round's index, which no later call on
    /// this mesh repeats.
    pub fn sum_to_receiver(&mut self, shares: &[F], addend: &[F]) -> Option<Vec<F>> {
        let len = shares.len();
        assert_eq!(addend.len(), len, "one addend per share");
        self.profile("sum_to_receiver", len);
        let weight = self.lagrange_all[self.id];
        let mut masked: Vec<F> = shares
            .iter()
            .zip(addend)
            .map(|(&share, &own)| weight * share + own)
            .collect();
        let nonce = self.link.round();
        for peer in (0..self.n).filter(|&peer| peer != self.id) {
            let mut stream = PairStream::for_pair(self.seed, self.id, peer, nonce);
            let adds = self.id < peer;
            for slot in masked.iter_mut() {
                let mask = F::random(&mut stream);
                *slot += if adds { mask } else { -mask };
            }
        }
        let mut outgoing = vec![Vec::new(); self.n];
        outgoing[RECEIVER] = masked;
        let incoming = self.link.exchange(outgoing);
        (self.id == RECEIVER).then(|| {
            let mut sum = vec![F::ZERO; len];
            for (i, inc) in incoming.iter().enumerate() {
                assert_eq!(inc.len(), len, "party {i} sent a wrong-length masked share");
                for (acc, &part) in sum.iter_mut().zip(inc) {
                    *acc += part;
                }
            }
            sum
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_field::{PrimeField, M61};

    fn engine(n: usize) -> MpcEngine {
        MpcEngine::new(MpcConfig::semi_honest(n).with_latency(Duration::ZERO))
    }

    #[test]
    fn share_and_open_roundtrip() {
        let run = engine(4).run::<M61, _, _>(|ctx| {
            let secrets: Vec<M61> = vec![M61::from_i128(-5), M61::from_u64(42)];
            let shares = ctx.share_input(0, (ctx.id == 0).then_some(&secrets), 2);
            ctx.open(&shares)
        });
        for out in run.outputs {
            assert_eq!(out[0].to_centered_i128(), -5);
            assert_eq!(out[1].to_centered_i128(), 42);
        }
        assert_eq!(run.stats.total.rounds, 2); // share + open
    }

    #[test]
    fn linear_ops_are_free() {
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
            let c = ctx.add(&a, &b);
            let d = ctx.scale_public(&c, M61::from_u64(3));
            let e = ctx.add_public(&d, M61::from_u64(1));
            ctx.open(&e)
        });
        for out in run.outputs {
            assert_eq!(out[0].to_canonical(), (10 + 4) * 3 + 1);
        }
        assert_eq!(run.stats.total.rounds, 3); // two shares + open; linear ops free
    }

    #[test]
    fn multiplication_with_degree_reduction() {
        for n in [3, 4, 5, 7] {
            let run = engine(n).run::<M61, _, _>(|ctx| {
                let a = ctx.share_input(
                    0,
                    (ctx.id == 0)
                        .then(|| vec![M61::from_i128(-7), M61::from_u64(3)])
                        .as_deref(),
                    2,
                );
                let b = ctx.share_input(
                    1,
                    (ctx.id == 1)
                        .then(|| vec![M61::from_u64(6), M61::from_i128(-9)])
                        .as_deref(),
                    2,
                );
                let p = ctx.mul(&a, &b);
                ctx.open(&p)
            });
            for out in run.outputs {
                assert_eq!(out[0].to_centered_i128(), -42, "n={n}");
                assert_eq!(out[1].to_centered_i128(), -27, "n={n}");
            }
        }
    }

    #[test]
    fn inner_product_single_round() {
        let run = engine(4).run::<M61, _, _>(|ctx| {
            let a = ctx.share_input(
                0,
                (ctx.id == 0)
                    .then(|| (1..=100u64).map(M61::from_u64).collect::<Vec<_>>())
                    .as_deref(),
                100,
            );
            let b = ctx.share_input(
                1,
                (ctx.id == 1)
                    .then(|| vec![M61::from_u64(2); 100])
                    .as_deref(),
                100,
            );
            let ip = ctx.inner_product(&a, &b);
            ctx.open(&[ip])
        });
        // 2 * sum(1..=100) = 10100.
        for out in run.outputs {
            assert_eq!(out[0].to_canonical(), 10_100);
        }
        // share a, share b, reduce, open = 4 rounds for 100-element vectors.
        assert_eq!(run.stats.total.rounds, 4);
    }

    #[test]
    fn repeated_multiplication_chains() {
        // x^4 via two squarings on shares.
        let run = engine(5).run::<M61, _, _>(|ctx| {
            let x = ctx.share_input(
                2,
                (ctx.id == 2).then(|| vec![M61::from_u64(3)]).as_deref(),
                1,
            );
            let x2 = ctx.mul(&x, &x);
            let x4 = ctx.mul(&x2, &x2);
            ctx.open(&x4)
        });
        for out in run.outputs {
            assert_eq!(out[0].to_canonical(), 81);
        }
    }

    #[test]
    fn share_all_aggregates_noise_in_one_round() {
        let run = engine(4).run::<M61, _, _>(|ctx| {
            // Every party contributes a vector [id, 2*id].
            let mine = vec![
                M61::from_u64(ctx.id as u64),
                M61::from_u64(2 * ctx.id as u64),
            ];
            let contributions = ctx.share_all(&mine);
            // Sum all contributions (a sharing of the element-wise total).
            let mut acc = vec![M61::ZERO; 2];
            for c in contributions {
                acc = ctx.add(&acc, &c);
            }
            ctx.open(&acc)
        });
        for out in run.outputs {
            assert_eq!(out[0].to_canonical(), 1 + 2 + 3);
            assert_eq!(out[1].to_canonical(), 2 * (1 + 2 + 3));
        }
        assert_eq!(run.stats.total.rounds, 2); // share_all + open
    }

    #[test]
    fn batched_inner_products() {
        let run = engine(3).run::<M61, _, _>(|ctx| {
            let a = ctx.share_input(
                0,
                (ctx.id == 0)
                    .then(|| vec![M61::from_u64(1), M61::from_u64(2)])
                    .as_deref(),
                2,
            );
            let b = ctx.share_input(
                1,
                (ctx.id == 1)
                    .then(|| vec![M61::from_u64(10), M61::from_u64(20)])
                    .as_deref(),
                2,
            );
            let ips = ctx.inner_products(&[(&a[..], &b[..]), (&a[..1], &a[..1])]);
            ctx.open(&ips)
        });
        for out in run.outputs {
            assert_eq!(out[0].to_canonical(), 50); // 1*10 + 2*20
            assert_eq!(out[1].to_canonical(), 1); // 1*1
        }
    }

    #[test]
    fn outputs_consistent_across_parties() {
        let run = engine(6).run::<M61, _, _>(|ctx| {
            let x = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(9)]).as_deref(),
                1,
            );
            let y = ctx.mul(&x, &x);
            ctx.open(&y)
        });
        let first = &run.outputs[0];
        for out in &run.outputs {
            assert_eq!(out, first);
        }
    }

    #[test]
    fn stats_track_phases() {
        let run = engine(3).run::<M61, _, _>(|ctx| {
            ctx.set_phase("input");
            let x = ctx.share_input(0, (ctx.id == 0).then(|| vec![M61::ONE]).as_deref(), 1);
            ctx.set_phase("dp_noise");
            let z = ctx.share_all(&[M61::from_u64(ctx.id as u64)]);
            let mut acc = x;
            for c in z {
                acc = ctx.add(&acc, &c);
            }
            ctx.set_phase("open");
            ctx.open(&acc)
        });
        assert_eq!(run.stats.phases["input"].rounds, 1);
        assert_eq!(run.stats.phases["dp_noise"].rounds, 1);
        assert_eq!(run.stats.phases["open"].rounds, 1);
        assert_eq!(run.stats.total.rounds, 3);
        // 1 + 0 + 1 + 2 = 4 in total; value sanity:
        for out in run.outputs {
            assert_eq!(out[0].to_canonical(), 1 + 1 + 2);
        }
    }

    #[test]
    fn latency_accounting() {
        let cfg = MpcConfig::semi_honest(3).with_latency(Duration::from_millis(100));
        let run = MpcEngine::new(cfg).run::<M61, _, _>(|ctx| {
            let x = ctx.share_input(0, (ctx.id == 0).then(|| vec![M61::ONE]).as_deref(), 1);
            ctx.open(&x)
        });
        // 2 rounds * 100 ms <= simulated <= that plus some wall time.
        assert!(run.stats.simulated_time() >= Duration::from_millis(200));
        assert!(run.stats.simulated_time() < Duration::from_millis(300));
    }

    #[test]
    #[should_panic(expected = "2t < n")]
    fn rejects_bad_threshold() {
        MpcEngine::new(MpcConfig {
            n_parties: 4,
            threshold: 2,
            latency: Duration::ZERO,
            seed: 0,
            trace: false,
            trace_event_cap: None,
            backend: NetBackend::InProcess,
            faults: None,
            live: None,
            prof: None,
            batching: BatchOptions::default(),
        });
    }

    #[test]
    fn tcp_backend_matches_in_process_exactly() {
        let program = |ctx: &mut PartyCtx<M61>| {
            let a = ctx.share_input(
                0,
                (ctx.id == 0)
                    .then(|| vec![M61::from_i128(-3), M61::from_u64(12)])
                    .as_deref(),
                2,
            );
            let b = ctx.share_input(
                1,
                (ctx.id == 1)
                    .then(|| vec![M61::from_u64(5), M61::from_i128(-2)])
                    .as_deref(),
                2,
            );
            let p = ctx.mul(&a, &b);
            ctx.open(&p)
        };
        let base = MpcConfig::semi_honest(4).with_latency(Duration::ZERO);
        let inproc = MpcEngine::new(base.clone()).run::<M61, _, _>(program);
        let tcp = MpcEngine::new(base.with_backend(NetBackend::tcp())).run::<M61, _, _>(program);
        assert_eq!(inproc.outputs, tcp.outputs);
        assert_eq!(inproc.stats.total.rounds, tcp.stats.total.rounds);
        assert_eq!(inproc.stats.total.messages, tcp.stats.total.messages);
        assert_eq!(inproc.stats.total.bytes, tcp.stats.total.bytes);
    }

    #[test]
    fn try_run_on_reuses_a_mesh_across_runs_and_matches_fresh_meshes() {
        let program = |ctx: &mut PartyCtx<M61>| {
            let a = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(6)]).as_deref(),
                1,
            );
            let b = ctx.share_input(
                1,
                (ctx.id == 1).then(|| vec![M61::from_u64(7)]).as_deref(),
                1,
            );
            let p = ctx.mul(&a, &b);
            ctx.open(&p)[0]
        };
        let cfg = MpcConfig::semi_honest(3).with_latency(Duration::ZERO);
        let engine = MpcEngine::new(cfg.clone());
        let mesh = build_mesh::<M61>(3, &cfg.backend, None).unwrap();
        let (first, mesh) = engine.try_run_on(mesh, program).unwrap();
        // Second run on the SAME mesh: round counters continue, outputs and
        // per-run accounting match a fresh-mesh run exactly.
        let (second, _mesh) = engine.try_run_on(mesh, program).unwrap();
        let fresh = engine.try_run::<M61, _, _>(program).unwrap();
        for run in [&first, &second, &fresh] {
            assert!(run.outputs.iter().all(|v| v.to_canonical() == 42));
        }
        assert_eq!(first.stats.total.rounds, second.stats.total.rounds);
        assert_eq!(second.stats.total.messages, fresh.stats.total.messages);
        assert_eq!(second.stats.total.bytes, fresh.stats.total.bytes);
    }

    #[test]
    fn try_run_surfaces_injected_crash_as_typed_error() {
        let cfg = MpcConfig::semi_honest(4)
            .with_latency(Duration::ZERO)
            .with_faults(Some(sqm_net::FaultSpec::seeded(1).with_crash(2, 1)));
        let err = MpcEngine::new(cfg)
            .try_run::<M61, _, _>(|ctx| {
                let x = ctx.share_input(0, (ctx.id == 0).then(|| vec![M61::ONE]).as_deref(), 1);
                let y = ctx.mul(&x, &x);
                ctx.open(&y)
            })
            .unwrap_err();
        assert_eq!(err, TransportError::Crashed { party: 2, round: 1 });
        assert_eq!(err.party(), 2);
        assert_eq!(err.round(), Some(1));
    }

    #[test]
    #[should_panic(expected = "mpc transport failure")]
    fn run_panics_with_the_transport_diagnosis() {
        let cfg = MpcConfig::semi_honest(3)
            .with_latency(Duration::ZERO)
            .with_faults(Some(sqm_net::FaultSpec::seeded(2).with_crash(0, 0)));
        MpcEngine::new(cfg).run::<M61, _, _>(|ctx| {
            let x = ctx.share_input(1, (ctx.id == 1).then(|| vec![M61::ONE]).as_deref(), 1);
            ctx.open(&x)
        });
    }

    #[test]
    fn seeded_faults_leave_protocol_output_identical() {
        // Delays and drops perturb timing, never payloads: a faulted run
        // must produce exactly the fault-free outputs, and two runs with the
        // same fault seed must behave identically.
        let program = |ctx: &mut PartyCtx<M61>| {
            let x = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(9); 4]).as_deref(),
                4,
            );
            let y = ctx.mul(&x, &x);
            ctx.open(&y)
        };
        let clean = MpcEngine::new(MpcConfig::semi_honest(3).with_latency(Duration::ZERO))
            .run::<M61, _, _>(program);
        let faults = sqm_net::FaultSpec::seeded(77)
            .with_delay(Duration::ZERO, Duration::from_micros(300))
            .with_drop(0.2)
            .with_retransmit(Duration::from_micros(100), 32);
        let faulted = || {
            MpcEngine::new(
                MpcConfig::semi_honest(3)
                    .with_latency(Duration::ZERO)
                    .with_faults(Some(faults.clone())),
            )
            .run::<M61, _, _>(program)
        };
        let a = faulted();
        let b = faulted();
        assert_eq!(a.outputs, clean.outputs);
        assert_eq!(b.outputs, clean.outputs);
        assert_eq!(a.stats.total.messages, clean.stats.total.messages);
        assert_eq!(a.stats.total.bytes, clean.stats.total.bytes);
    }

    #[test]
    fn trace_reproduces_simulated_time_exactly() {
        let cfg = MpcConfig::semi_honest(4)
            .with_latency(Duration::from_millis(100))
            .with_trace(true);
        let run = MpcEngine::new(cfg).run::<M61, _, _>(|ctx| {
            ctx.set_phase("input");
            let x = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(5); 3]).as_deref(),
                3,
            );
            ctx.set_phase("mul");
            let y = ctx.mul(&x, &x);
            ctx.set_phase("open");
            ctx.open(&y)
        });
        let trace = run.trace.expect("trace requested");
        let summary = trace.summary();
        // The recorder was fed the same Instant measurements as the stats,
        // so the totals must agree to the nanosecond — not approximately.
        assert_eq!(summary.total_simulated(), run.stats.simulated_time());
        assert_eq!(summary.total.rounds, run.stats.total.rounds);
        assert_eq!(summary.total.messages, run.stats.total.messages);
        assert_eq!(summary.total.bytes, run.stats.total.bytes);
        for (name, p) in &run.stats.phases {
            let row = summary
                .phases
                .iter()
                .find(|r| &r.name == name)
                .unwrap_or_else(|| panic!("phase {name} missing from trace summary"));
            assert_eq!(row.rounds, p.rounds, "{name}");
            assert_eq!(row.messages, p.messages, "{name}");
            assert_eq!(row.bytes, p.bytes, "{name}");
            assert_eq!(row.simulated, p.simulated_time(run.stats.latency), "{name}");
        }
        // Each party recorded each of its rounds.
        assert_eq!(
            trace.parties.iter().map(|p| p.rounds.len()).sum::<usize>() as u64,
            4 * run.stats.total.rounds
        );
    }

    #[test]
    fn capped_trace_still_reproduces_simulated_time_exactly() {
        // A cap of 2 detail events per party drops most spans/rounds, but
        // the per-phase totals keep the merged summary exact.
        let cfg = MpcConfig::semi_honest(4)
            .with_latency(Duration::from_millis(50))
            .with_trace(true)
            .with_trace_event_cap(2);
        let run = MpcEngine::new(cfg).run::<M61, _, _>(|ctx| {
            ctx.set_phase("input");
            let x = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(5); 3]).as_deref(),
                3,
            );
            ctx.set_phase("mul");
            let y = ctx.mul(&x, &x);
            let y = ctx.mul(&y, &x);
            ctx.set_phase("open");
            ctx.open(&y)
        });
        let trace = run.trace.expect("trace requested");
        assert!(trace.dropped_events() > 0, "cap of 2 must drop detail");
        let summary = trace.summary();
        assert_eq!(summary.total_simulated(), run.stats.simulated_time());
        assert_eq!(summary.total.rounds, run.stats.total.rounds);
        assert_eq!(summary.total.messages, run.stats.total.messages);
        assert_eq!(summary.total.bytes, run.stats.total.bytes);
        for pt in &trace.parties {
            assert!(pt.spans.len() + pt.rounds.len() + pt.net_events.len() <= 2);
        }
    }

    #[test]
    fn causal_critical_path_matches_simulated_time_exactly() {
        // The message DAG reconstructed from the causal stamps must yield a
        // critical path whose total is bit-exact with the virtual clock.
        let cfg = MpcConfig::semi_honest(4)
            .with_latency(Duration::from_millis(100))
            .with_trace(true);
        let run = MpcEngine::new(cfg).run::<M61, _, _>(|ctx| {
            ctx.set_phase("input");
            let x = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(5); 3]).as_deref(),
                3,
            );
            ctx.set_phase("mul");
            let y = ctx.mul(&x, &x);
            ctx.set_phase("open");
            ctx.open(&y)
        });
        let trace = run.trace.expect("trace requested");
        let dag = sqm_obs::MessageDag::build(&trace);
        assert!(
            dag.fully_matched(),
            "every send must match exactly one recv"
        );
        assert_eq!(dag.lamport_violations(), 0);
        assert_eq!(dag.edges().len() as u64, run.stats.total.messages);
        let cp = dag.critical_path();
        assert_eq!(cp.total, run.stats.simulated_time());
        // Per-party breakdowns partition each party's timeline.
        for p in &cp.parties {
            assert_eq!(p.idle + p.compute, p.total);
        }
    }

    #[test]
    fn causal_stamps_cross_the_tcp_backend() {
        // Headers travel inside the TCP frames: the reconstructed DAG over
        // loopback sockets must match every send to a recv, with the same
        // message count and zero Lamport violations as in-process.
        let cfg = MpcConfig::semi_honest(3)
            .with_latency(Duration::ZERO)
            .with_trace(true)
            .with_backend(NetBackend::tcp());
        let run = MpcEngine::new(cfg).run::<M61, _, _>(|ctx| {
            let x = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(7)]).as_deref(),
                1,
            );
            let y = ctx.mul(&x, &x);
            ctx.open(&y)
        });
        let trace = run.trace.expect("trace requested");
        let dag = sqm_obs::MessageDag::build(&trace);
        assert!(dag.fully_matched());
        assert_eq!(dag.lamport_violations(), 0);
        assert_eq!(dag.edges().len() as u64, run.stats.total.messages);
    }

    /// A traced run for the degraded-DAG tests below.
    fn traced_run() -> MpcRun<Vec<M61>> {
        let cfg = MpcConfig::semi_honest(3)
            .with_latency(Duration::ZERO)
            .with_trace(true);
        MpcEngine::new(cfg).run::<M61, _, _>(|ctx| {
            let x = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(5); 3]).as_deref(),
                3,
            );
            let y = ctx.mul(&x, &x);
            let y = ctx.mul(&y, &x);
            ctx.open(&y)
        })
    }

    #[test]
    fn causal_dag_survives_seeded_drop_faults_fully_matched() {
        // Drops happen below the protocol layer: every retransmitted
        // message still crosses the causal boundary exactly once, so the
        // reconstructed DAG must be as clean as a fault-free run's.
        let cfg = MpcConfig::semi_honest(3)
            .with_latency(Duration::ZERO)
            .with_trace(true)
            .with_faults(Some(
                sqm_net::FaultSpec::seeded(31)
                    .with_delay(Duration::ZERO, Duration::from_micros(200))
                    .with_drop(0.2)
                    .with_retransmit(Duration::from_micros(100), 32),
            ));
        let run = MpcEngine::new(cfg).run::<M61, _, _>(|ctx| {
            let x = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(9); 4]).as_deref(),
                4,
            );
            let y = ctx.mul(&x, &x);
            ctx.open(&y)
        });
        let trace = run.trace.expect("trace requested");
        let dag = sqm_obs::MessageDag::build(&trace);
        assert!(
            dag.fully_matched(),
            "retransmits must not duplicate or lose causal stamps"
        );
        assert_eq!(dag.lamport_violations(), 0);
        assert_eq!(dag.edges().len() as u64, run.stats.total.messages);
    }

    #[test]
    fn causal_unmatched_counts_are_exact_when_a_party_record_is_truncated() {
        // Simulate a party crashing before flushing its trace: drop the
        // tail of party 0's causal record from a real run. Every send
        // stamp removed leaves one peer recv unmatched, and every recv
        // stamp removed leaves one peer send unmatched — exactly.
        let run = traced_run();
        let trace = run.trace.expect("trace requested");
        let clean = sqm_obs::MessageDag::build(&trace);
        assert!(clean.fully_matched());

        let mut parties = trace.parties.clone();
        let rounds = parties[0].causal.len();
        assert!(rounds >= 2, "need a multi-round record to truncate");
        let keep = rounds / 2;
        let removed: Vec<_> = parties[0].causal.drain(keep..).collect();
        let removed_sends: usize = removed.iter().map(|r| r.sends.len()).sum();
        let removed_recvs: usize = removed.iter().map(|r| r.recvs.len()).sum();
        assert!(removed_sends > 0 && removed_recvs > 0);

        let degraded = sqm_obs::Trace::from_parties(trace.latency, parties);
        let dag = sqm_obs::MessageDag::build(&degraded);
        assert!(!dag.fully_matched());
        assert_eq!(
            dag.unmatched_recvs(),
            removed_sends,
            "each lost send stamp leaves exactly one recv unmatched"
        );
        assert_eq!(
            dag.unmatched_sends(),
            removed_recvs,
            "each lost recv stamp leaves exactly one send unmatched"
        );
        // Truncation loses data but does not corrupt clocks.
        assert_eq!(dag.lamport_violations(), 0);
    }

    #[test]
    fn causal_lamport_violation_detected_on_corrupted_clock() {
        // A zeroed receive clock on a late round breaks Lamport
        // monotonicity; the validator must flag it rather than trusting
        // the stamps blindly.
        let run = traced_run();
        let trace = run.trace.expect("trace requested");
        assert_eq!(sqm_obs::MessageDag::build(&trace).lamport_violations(), 0);

        let mut parties = trace.parties.clone();
        let last = parties[0].causal.len() - 1;
        assert!(last >= 1, "need at least two rounds to corrupt the last");
        parties[0].causal[last].lamport_recv = 0;
        let corrupted = sqm_obs::Trace::from_parties(trace.latency, parties);
        let dag = sqm_obs::MessageDag::build(&corrupted);
        assert!(
            dag.lamport_violations() > 0,
            "zeroed clock must be reported as a Lamport violation"
        );
    }

    #[test]
    fn trace_absent_by_default() {
        let run = engine(3).run::<M61, _, _>(|ctx| {
            let x = ctx.share_input(0, (ctx.id == 0).then(|| vec![M61::ONE]).as_deref(), 1);
            ctx.open(&x)
        });
        assert!(run.trace.is_none());
    }

    #[test]
    fn worker_pool_width_does_not_change_results() {
        // Any worker count / parallelism threshold must produce the exact
        // same run: the RNG draws are serialized before the pool fans out.
        let program = |ctx: &mut PartyCtx<M61>| {
            let a = ctx.share_input(
                0,
                (ctx.id == 0)
                    .then(|| (0..777u64).map(M61::from_u64).collect::<Vec<_>>())
                    .as_deref(),
                777,
            );
            let sq = ctx.mul(&a, &a);
            ctx.open(&sq)
        };
        let base = MpcConfig::semi_honest(5).with_latency(Duration::ZERO);
        let golden = MpcEngine::new(base.clone()).run::<M61, _, _>(program);
        for opts in [
            BatchOptions {
                workers: 1,
                min_parallel_width: 1,
            },
            BatchOptions {
                workers: 2,
                min_parallel_width: 0,
            },
            BatchOptions {
                workers: 7,
                min_parallel_width: 10,
            },
            BatchOptions {
                workers: 4,
                min_parallel_width: 1_000_000,
            },
        ] {
            let cfg = MpcConfig {
                batching: opts,
                ..base.clone()
            };
            let run = MpcEngine::new(cfg).run::<M61, _, _>(program);
            assert_eq!(run.outputs, golden.outputs, "{opts:?}");
            assert_eq!(run.stats.total.messages, golden.stats.total.messages);
            assert_eq!(run.stats.total.bytes, golden.stats.total.bytes);
            assert_eq!(run.stats.total.elems, golden.stats.total.elems);
        }
    }

    #[test]
    fn two_party_config_t_zero_still_multiplies() {
        // With n=2, t=0: degenerate sharing (each "share" IS the secret, so
        // there is no secrecy between the two parties — see the caveat on
        // MpcConfig::semi_honest), but the protocol must still be correct.
        let run = engine(2).run::<M61, _, _>(|ctx| {
            let a = ctx.share_input(
                0,
                (ctx.id == 0).then(|| vec![M61::from_u64(6)]).as_deref(),
                1,
            );
            let b = ctx.share_input(
                1,
                (ctx.id == 1).then(|| vec![M61::from_u64(7)]).as_deref(),
                1,
            );
            let p = ctx.mul(&a, &b);
            ctx.open(&p)
        });
        for out in run.outputs {
            assert_eq!(out[0].to_canonical(), 42);
        }
    }
}
