//! The life cycle of resident party workers (`PartyPool`): a run on a pool
//! is the run a reused mesh gives, on threads the pool started once; a
//! dropped pool joins its workers; a failed run — a crash or a panicking
//! program — ends them, on both backends.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, ThreadId};
use std::time::Duration;

use sqm_field::{PrimeField, M61};
use sqm_mpc::net::transport::build_mesh;
use sqm_mpc::{
    FaultSpec, MpcConfig, MpcEngine, NetBackend, PartyCtx, PartyPool, PhaseStats, TransportError,
};

mod common;
use common::{assert_released, release_program};

/// A worker's state: a token whose count says how many workers are alive.
type Token = Arc<()>;
type Pool<T> = PartyPool<M61, Token, T>;

const PARTIES: usize = 4;

fn backends() -> [NetBackend; 2] {
    [NetBackend::InProcess, NetBackend::tcp()]
}

fn config(backend: NetBackend, faults: Option<FaultSpec>) -> MpcConfig {
    MpcConfig::semi_honest(PARTIES)
        .with_latency(Duration::ZERO)
        .with_seed(11)
        .with_backend(backend)
        .with_faults(faults)
}

/// A pool over a fresh mesh for `cfg`, each worker holding a clone of the
/// returned token.
fn pool<T: Send + 'static>(cfg: &MpcConfig) -> (Pool<T>, Token) {
    let mesh = build_mesh::<M61>(PARTIES, &cfg.backend, cfg.faults.as_ref()).expect("mesh");
    let token = Token::default();
    let states = (0..PARTIES).map(|_| Arc::clone(&token)).collect();
    (PartyPool::new(mesh, states), token)
}

/// Drop `value` on a helper thread and fail unless that returns within
/// `limit`.
fn drop_within<T: Send + 'static>(value: T, limit: Duration) {
    let (done, dropped) = mpsc::channel();
    thread::spawn(move || {
        drop(value);
        done.send(()).expect("the test waits");
    });
    dropped
        .recv_timeout(limit)
        .expect("dropping the pool joined its workers in time");
}

/// Each party's shares of a dealt secret (drawn from the run's share
/// stream), then the release shape.
fn dealt_and_released(ctx: &mut PartyCtx<M61>) -> (Vec<M61>, Option<Vec<M61>>) {
    let secret = [M61::from_u64(ctx.id as u64 + 7)];
    let dealt = ctx.share_input(0, (ctx.id == 0).then_some(&secret[..]), 1);
    (dealt, release_program(ctx))
}

#[test]
fn a_pool_run_is_a_reused_mesh_run_on_the_threads_the_pool_started() {
    for backend in backends() {
        let cfg = config(backend, None);
        let engine = MpcEngine::new(cfg.clone());
        let (mut pool, _token) = pool(&cfg);
        let mut mesh = build_mesh::<M61>(PARTIES, &cfg.backend, None).expect("mesh");
        let mut workers: Option<Vec<ThreadId>> = None;
        for i in 0..1000 {
            let run = engine
                .try_run_pool(&mut pool, |ctx, _: &mut Token| {
                    (dealt_and_released(ctx), thread::current().id())
                })
                .expect("fault-free run");
            let (outputs, threads): (Vec<_>, Vec<_>) = run.outputs.into_iter().unzip();
            assert_eq!(
                workers.get_or_insert_with(|| threads.clone()),
                &threads,
                "run {i}"
            );
            if i < 3 {
                // Share salts and pair-mask nonces continue as on a reused
                // mesh: the same shares, sums and counters.
                let (reused, back) = engine
                    .try_run_on(mesh, dealt_and_released)
                    .expect("fault-free run");
                mesh = back;
                assert_eq!(outputs, reused.outputs, "run {i}");
                let counters = |t: &PhaseStats| (t.rounds, t.messages, t.bytes, t.elems);
                let (pooled, reused) = (&run.stats.total, &reused.stats.total);
                assert_eq!(counters(pooled), counters(reused), "run {i}");
            }
            let released: Vec<_> = outputs.into_iter().map(|(_, sum)| sum).collect();
            assert_released(&released);
        }
        let caller = thread::current().id();
        assert!(workers.expect("ran").iter().all(|&w| w != caller));
    }
}

#[test]
fn dropping_a_pool_joins_every_worker() {
    for backend in backends() {
        let cfg = config(backend, None);
        let (mut pool, token) = pool(&cfg);
        let run = MpcEngine::new(cfg).try_run_pool(&mut pool, |ctx, _| release_program(ctx));
        assert_released(&run.expect("fault-free run").outputs);
        assert_eq!(Arc::strong_count(&token), PARTIES + 1);
        drop_within(pool, Duration::from_secs(2));
        assert_eq!(
            Arc::strong_count(&token),
            1,
            "every worker dropped its state"
        );
    }
}

#[test]
fn a_crashed_run_ends_every_worker_and_poisons_the_pool() {
    for backend in backends() {
        let cfg = config(backend, Some(FaultSpec::seeded(1).with_crash(2, 1)));
        let engine = MpcEngine::new(cfg.clone());
        let (mut pool, token) = pool(&cfg);
        let err = engine
            .try_run_pool(&mut pool, |ctx, _| release_program(ctx))
            .expect_err("party 2 crashes at round 1");
        assert_eq!(err, TransportError::Crashed { party: 2, round: 1 });
        assert_eq!(
            Arc::strong_count(&token),
            1,
            "the failed run ended every worker"
        );
        let again = catch_unwind(AssertUnwindSafe(|| {
            engine.try_run_pool(&mut pool, |ctx, _| release_program(ctx))
        }));
        assert!(again.is_err(), "a shut-down pool runs nothing");
        drop_within(pool, Duration::from_secs(2));
    }
}

#[test]
fn a_panicking_program_on_a_pool_panics_the_caller() {
    for backend in backends() {
        let cfg = config(backend, None);
        let (mut pool, token) = pool(&cfg);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            MpcEngine::new(cfg).try_run_pool(&mut pool, |ctx, _| {
                if ctx.id == 1 {
                    panic!("bug in the party program");
                }
                release_program(ctx)
            })
        }));
        let payload = panicked.expect_err("a panicking party must fail the run");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            message.contains("party thread panicked: bug in the party program"),
            "unexpected panic message: {message}"
        );
        assert_eq!(
            Arc::strong_count(&token),
            1,
            "the failed run ended every worker"
        );
        drop_within(pool, Duration::from_secs(2));
    }
}
