//! BGW protocol throughput: batched multiplications, inner products, and
//! the full engine round trip.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sqm::field::{PrimeField, M61};
use sqm::mpc::{MpcConfig, MpcEngine};
use std::time::Duration;

fn engine(n: usize) -> MpcEngine {
    MpcEngine::new(MpcConfig::semi_honest(n).with_latency(Duration::ZERO))
}

fn bench_bgw(c: &mut Criterion) {
    let mut g = c.benchmark_group("bgw_batched_mul");
    g.sample_size(20);
    for &batch in &[64usize, 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |bch, &batch| {
            let eng = engine(4);
            bch.iter(|| {
                let run = eng.run::<M61, _, _>(|ctx| {
                    let a = ctx.share_input(
                        0,
                        (ctx.id == 0)
                            .then(|| vec![M61::from_u64(3); batch])
                            .as_deref(),
                        batch,
                    );
                    let b = ctx.share_input(
                        1,
                        (ctx.id == 1)
                            .then(|| vec![M61::from_u64(5); batch])
                            .as_deref(),
                        batch,
                    );
                    let p = ctx.mul(&a, &b);
                    ctx.open(&p)
                });
                black_box(run.outputs)
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("bgw_inner_product");
    g.sample_size(20);
    for &len in &[1024usize, 16384] {
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |bch, &len| {
            let eng = engine(4);
            bch.iter(|| {
                let run = eng.run::<M61, _, _>(|ctx| {
                    let a = ctx.share_input(
                        0,
                        (ctx.id == 0)
                            .then(|| vec![M61::from_u64(2); len])
                            .as_deref(),
                        len,
                    );
                    let b = ctx.share_input(
                        1,
                        (ctx.id == 1)
                            .then(|| vec![M61::from_u64(7); len])
                            .as_deref(),
                        len,
                    );
                    let ip = ctx.inner_product(&a, &b);
                    ctx.open(&[ip])
                });
                black_box(run.outputs)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_bgw);
criterion_main!(benches);
