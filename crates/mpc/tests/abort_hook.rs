//! A transport failure is an error return, not a panic the embedding
//! process hears about: the engine installs no panic hook, and the unwind
//! that carries a `TransportError` out of a party program — out of a
//! broadcast open or out of a release's sparse masked sum — never reaches
//! whatever hook the embedder configured. Genuine panics in a
//! party program still do, and still propagate out of the run.
//!
//! The panic hook is process-global, so this file is its own test binary
//! and holds a single test.

use std::panic::{catch_unwind, set_hook, take_hook, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use sqm_field::{PrimeField, M61};
use sqm_mpc::{FaultSpec, MpcConfig, MpcEngine, NetBackend, TransportError};

mod common;
use common::{assert_released, release_program};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

fn bgw_program(ctx: &mut sqm_mpc::PartyCtx<M61>) -> Vec<M61> {
    let v = [M61::from_u64(7), M61::from_i128(-2)];
    let shares = ctx.share_input(0, (ctx.id == 0).then_some(&v[..]), 2);
    ctx.open(&shares)
}

#[test]
fn transport_aborts_bypass_the_panic_hook_and_real_panics_still_reach_it() {
    let base = MpcConfig::semi_honest(4).with_latency(Duration::ZERO);

    // Fault-free runs first, so that anything the engine sets up once per
    // process has been set up before the embedder's hook goes in.
    MpcEngine::new(base.clone()).run::<M61, _, _>(bgw_program);
    assert_released(&MpcEngine::new(base.clone()).run(release_program).outputs);

    // The embedder configures its own hook after start-up.
    let previous = take_hook();
    set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));

    let mut crashes = Vec::new();
    for backend in [NetBackend::InProcess, NetBackend::tcp()] {
        let cfg = base
            .clone()
            .with_backend(backend)
            .with_faults(Some(FaultSpec::seeded(1).with_crash(2, 1)));
        let engine = MpcEngine::new(cfg);
        crashes.push(engine.try_run(bgw_program).map(|_| ()));
        crashes.push(engine.try_run(release_program).map(|_| ()));
    }
    let calls_after_crashes = HOOK_CALLS.load(Ordering::SeqCst);

    // A bug in a party program is still a panic: the hook hears it and the
    // run does not swallow it.
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        MpcEngine::new(base.clone()).run::<M61, _, _>(|ctx| {
            if ctx.id == 1 {
                panic!("bug in the party program");
            }
            bgw_program(ctx)
        })
    }));
    let calls_after_panic = HOOK_CALLS.load(Ordering::SeqCst);

    // Put the original hook back before asserting, so a failure below is
    // reported the usual way.
    set_hook(previous);

    for result in crashes {
        assert_eq!(result, Err(TransportError::Crashed { party: 2, round: 1 }));
    }
    assert_eq!(
        calls_after_crashes, 0,
        "a transport abort must not invoke the process panic hook"
    );
    assert!(
        calls_after_panic > calls_after_crashes,
        "a genuine party panic must reach the panic hook"
    );
    let payload = panicked.expect_err("a panicking party must fail the run");
    let message = payload
        .downcast_ref::<String>()
        .expect("expect() panics with a String");
    assert!(
        message.contains("party thread panicked"),
        "unexpected panic message: {message}"
    );
}
