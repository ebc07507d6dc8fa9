//! Acceptance tests for the cost profiler (`sqm_obs::prof`) at the engine
//! level: profiling must be *passive* (outputs and every deterministic
//! `RunStats` counter bit-identical with a profiler attached or not), the
//! deterministic artifacts must be byte-identical across two same-seed
//! runs, the per-layer attribution `eval_mpc` records must agree exactly
//! with the circuit's own mul widths, and a profiler must see the runs it
//! was handed to and no others.
//!
//! Every test owns its profiler, so they run in parallel.

use std::sync::Arc;
use std::time::Duration;

use sqm_field::{PrimeField, M61};
use sqm_mpc::circuit::{Circuit, CircuitBuilder};
use sqm_mpc::{MpcConfig, MpcEngine, ProfConfig};
use sqm_obs::prof::{self, Profiler};

mod common;
use common::{assert_released, release_program};

fn profiler() -> Arc<Profiler> {
    Profiler::new(ProfConfig::default())
}

/// Product of six inputs (two per party): mul widths 3, 1, 1 — a circuit
/// with more than one layer to attribute.
fn product_circuit() -> Circuit<M61> {
    let mut b = CircuitBuilder::<M61>::new(3);
    let mut wires = Vec::new();
    for party in 0..3 {
        for _ in 0..2 {
            wires.push(b.input(party));
        }
    }
    let p = b.product(&wires);
    b.output(p);
    b.build()
}

fn run_product(prof: Option<Arc<Profiler>>) -> sqm_mpc::MpcRun<Vec<M61>> {
    let circ = product_circuit();
    let cfg = MpcConfig::semi_honest(3)
        .with_latency(Duration::ZERO)
        .with_seed(33)
        .with_prof(prof);
    MpcEngine::new(cfg).run::<M61, _, _>(move |ctx| {
        ctx.set_phase("compute");
        let my_inputs = vec![M61::from_u64(ctx.id as u64 + 2); 2];
        let shares = circ.eval_mpc(ctx, &my_inputs);
        ctx.set_phase("open");
        ctx.open(&shares)
    })
}

#[test]
fn outputs_and_runstats_bit_identical_with_prof_on_and_off() {
    let prof = profiler();
    let off = run_product(None);
    assert!(
        prof.snapshot().nodes.is_empty(),
        "an unprofiled run must record nothing"
    );
    let on = run_product(Some(prof.clone()));
    assert!(
        !prof.snapshot().nodes.is_empty(),
        "the engine must profile the run"
    );

    // 2^2 * 3^2 * 4^2 at every party, profiled or not.
    for run in [&off, &on] {
        for out in &run.outputs {
            assert_eq!(out[0].to_canonical(), 576);
        }
    }
    // Deterministic accounting is bit-identical (wall time is measured and
    // excluded — it differs between any two runs, profiled or not).
    assert_eq!(off.stats.total.rounds, on.stats.total.rounds);
    assert_eq!(off.stats.total.messages, on.stats.total.messages);
    assert_eq!(off.stats.total.bytes, on.stats.total.bytes);
    let phases_off: Vec<&String> = off.stats.phases.keys().collect();
    let phases_on: Vec<&String> = on.stats.phases.keys().collect();
    assert_eq!(phases_off, phases_on);
    for (name, p_off) in &off.stats.phases {
        let p_on = &on.stats.phases[name];
        assert_eq!(p_off.rounds, p_on.rounds, "{name}");
        assert_eq!(p_off.messages, p_on.messages, "{name}");
        assert_eq!(p_off.bytes, p_on.bytes, "{name}");
    }
}

#[test]
fn profile_is_byte_deterministic_and_batching_matches_circuit() {
    let profiled = || {
        let prof = profiler();
        run_product(Some(prof.clone()));
        prof.snapshot()
    };
    let (first, second) = (profiled(), profiled());
    let (folded1, json1) = (prof::render_folded(&first), prof::render_json(&first));
    assert_eq!(folded1, prof::render_folded(&second));
    assert_eq!(json1, prof::render_json(&second));
    assert_eq!(second.seed, 33, "the run's seed names the artifacts");

    // Attribution structure: per-layer mul widths exactly the circuit's
    // own (3 parties each record the batch width), degree reductions with
    // their field-mul bulk, the setup inversions, and per-phase exchange
    // traffic.
    let circ = product_circuit();
    assert_eq!(circ.mul_level_widths(), vec![3, 1, 1]);
    let nodes = &second.nodes;
    assert_eq!(nodes["circuit;mul;layer0001"].work, 3 * 3);
    assert_eq!(nodes["circuit;mul;layer0002"].work, 3);
    assert_eq!(nodes["circuit;mul;layer0003"].work, 3);
    assert!(!nodes.contains_key("circuit;mul;layer0004"));
    assert_eq!(nodes["circuit;gates;mul"].calls, 3 * 5);
    assert_eq!(nodes["engine;compute;reduce_degree"].work, 3 * (3 + 1 + 1));
    assert!(nodes.contains_key("engine;compute;reduce_degree;field_mul"));
    assert_eq!(nodes["engine;setup;field_inv"].work, 3);
    // The open phase is one all-to-all exchange: n(n-1) messages.
    assert_eq!(nodes["engine;open;exchange"].messages, 6);
    assert!(nodes.contains_key("engine;open;round0004"));
    // Wall time is collected in memory but never rendered.
    assert!(!json1.contains("wall"));
}

#[test]
fn release_shaped_run_records_its_sparse_round_like_any_other() {
    let prof = profiler();
    let cfg = MpcConfig::semi_honest(3)
        .with_latency(Duration::ZERO)
        .with_seed(44)
        .with_prof(Some(prof.clone()));
    let run = MpcEngine::new(cfg).run::<M61, _, _>(release_program);
    assert_released(&run.outputs);
    let nodes = prof.snapshot().nodes;
    // One exchange per party per phase; two owners ship two peers their
    // shares, then the two non-receivers ship the receiver one masked sum.
    let (input, open) = (
        &nodes["engine;input;exchange"],
        &nodes["engine;open;exchange"],
    );
    assert_eq!((input.calls, input.messages), (3, 2 * 2));
    assert_eq!((open.calls, open.messages), (3, 2));
    assert_eq!(input.messages + open.messages, run.stats.total.messages);
    assert_eq!(input.bytes + open.bytes, run.stats.total.bytes);
    assert_eq!(nodes["engine;open;round0001"].messages, open.messages);
    // Three parties each mask two sums.
    assert_eq!(nodes["engine;open;sum_to_receiver"].work, 3 * 2);
    assert!(nodes.keys().all(|k| k.starts_with("engine;")));
}

/// `prof: None` means unprofiled, always: a run whose config carries no
/// profiler must not add to one an earlier run in this process was handed.
#[test]
fn a_run_without_a_profiler_leaves_an_earlier_runs_profile_alone() {
    let share_mul_open = |ctx: &mut sqm_mpc::PartyCtx<M61>| {
        let x = ctx.share_input(
            0,
            (ctx.id == 0).then(|| vec![M61::from_u64(3)]).as_deref(),
            1,
        );
        let y = ctx.mul(&x, &x);
        ctx.open(&y)
    };
    let cfg = |seed: u64| {
        MpcConfig::semi_honest(4)
            .with_latency(Duration::ZERO)
            .with_seed(seed)
    };
    let prof = profiler();
    let a = MpcEngine::new(cfg(3).with_prof(Some(prof.clone()))).run::<M61, _, _>(share_mul_open);
    let before = prof.snapshot();
    let profiled: u64 = before.nodes.values().map(|n| n.messages).sum();
    assert_eq!(profiled, 2 * a.stats.total.messages);

    MpcEngine::new(cfg(99)).run::<M61, _, _>(share_mul_open);
    let after = prof.snapshot();
    assert_eq!(
        before.nodes, after.nodes,
        "run B leaked into run A's profile"
    );
    assert_eq!(after.seed, 3);
}
