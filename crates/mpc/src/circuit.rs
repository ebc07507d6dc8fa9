//! A retained arithmetic-circuit IR with plaintext and BGW evaluators.
//!
//! The generic polynomial mechanism (Algorithm 3 for arbitrary polynomials)
//! compiles each monomial into a multiplication tree over the parties'
//! quantized inputs. The MPC evaluator batches all multiplications at the
//! same depth into a single degree-reduction round, so a degree-`lambda`
//! polynomial with any number of monomials costs `O(log-free lambda)` rounds
//! (sequential in depth, parallel in width).

use sqm_field::PrimeField;

use crate::engine::PartyCtx;

/// A wire in the circuit (index of the gate producing it).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Wire(usize);

/// One gate.
#[derive(Clone, Debug)]
enum Gate<F> {
    /// The `pos`-th private input of party `owner`.
    Input {
        owner: usize,
        pos: usize,
    },
    /// A public constant.
    Const(F),
    Add(Wire, Wire),
    Sub(Wire, Wire),
    Mul(Wire, Wire),
    /// Multiply by a public constant.
    MulConst(Wire, F),
    /// Add a public constant.
    AddConst(Wire, F),
}

/// An arithmetic circuit over `n_parties` private input vectors.
#[derive(Clone, Debug)]
pub struct Circuit<F: PrimeField> {
    gates: Vec<Gate<F>>,
    outputs: Vec<Wire>,
    input_counts: Vec<usize>,
    /// `mul_level[g]`: number of sequential multiplication rounds needed
    /// before gate `g`'s value is available.
    mul_level: Vec<u32>,
}

/// Builder for [`Circuit`].
pub struct CircuitBuilder<F: PrimeField> {
    gates: Vec<Gate<F>>,
    outputs: Vec<Wire>,
    input_counts: Vec<usize>,
    mul_level: Vec<u32>,
}

impl<F: PrimeField> CircuitBuilder<F> {
    /// A builder for a circuit over `n_parties` input owners.
    pub fn new(n_parties: usize) -> Self {
        CircuitBuilder {
            gates: Vec::new(),
            outputs: Vec::new(),
            input_counts: vec![0; n_parties],
            mul_level: Vec::new(),
        }
    }

    fn push(&mut self, gate: Gate<F>, level: u32) -> Wire {
        self.gates.push(gate);
        self.mul_level.push(level);
        Wire(self.gates.len() - 1)
    }

    fn level(&self, w: Wire) -> u32 {
        self.mul_level[w.0]
    }

    /// Declare the next private input of `owner`.
    pub fn input(&mut self, owner: usize) -> Wire {
        assert!(
            owner < self.input_counts.len(),
            "owner {owner} out of range"
        );
        let pos = self.input_counts[owner];
        self.input_counts[owner] += 1;
        self.push(Gate::Input { owner, pos }, 0)
    }

    /// A public constant.
    pub fn constant(&mut self, c: F) -> Wire {
        self.push(Gate::Const(c), 0)
    }

    pub fn add(&mut self, a: Wire, b: Wire) -> Wire {
        let l = self.level(a).max(self.level(b));
        self.push(Gate::Add(a, b), l)
    }

    pub fn sub(&mut self, a: Wire, b: Wire) -> Wire {
        let l = self.level(a).max(self.level(b));
        self.push(Gate::Sub(a, b), l)
    }

    pub fn mul(&mut self, a: Wire, b: Wire) -> Wire {
        let l = self.level(a).max(self.level(b)) + 1;
        self.push(Gate::Mul(a, b), l)
    }

    pub fn mul_const(&mut self, a: Wire, c: F) -> Wire {
        let l = self.level(a);
        self.push(Gate::MulConst(a, c), l)
    }

    pub fn add_const(&mut self, a: Wire, c: F) -> Wire {
        let l = self.level(a);
        self.push(Gate::AddConst(a, c), l)
    }

    /// A balanced product tree over `factors` (minimizes multiplication
    /// depth: `ceil(log2(len))` rounds).
    pub fn product(&mut self, factors: &[Wire]) -> Wire {
        assert!(!factors.is_empty(), "product of zero factors");
        let mut layer = factors.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for chunk in layer.chunks(2) {
                next.push(if chunk.len() == 2 {
                    self.mul(chunk[0], chunk[1])
                } else {
                    chunk[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Sum of wires (free).
    pub fn sum(&mut self, terms: &[Wire]) -> Wire {
        assert!(!terms.is_empty(), "sum of zero terms");
        let mut acc = terms[0];
        for &t in &terms[1..] {
            acc = self.add(acc, t);
        }
        acc
    }

    /// Mark a wire as a circuit output.
    pub fn output(&mut self, w: Wire) {
        self.outputs.push(w);
    }

    /// Finalize.
    pub fn build(self) -> Circuit<F> {
        assert!(!self.outputs.is_empty(), "circuit has no outputs");
        Circuit {
            gates: self.gates,
            outputs: self.outputs,
            input_counts: self.input_counts,
            mul_level: self.mul_level,
        }
    }
}

impl<F: PrimeField> Circuit<F> {
    /// How many private inputs each party owns.
    pub fn input_counts(&self) -> &[usize] {
        &self.input_counts
    }

    /// Number of outputs.
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Multiplicative depth (communication rounds the MPC evaluation needs
    /// for multiplications).
    pub fn mul_depth(&self) -> u32 {
        self.outputs
            .iter()
            .map(|w| self.mul_level[w.0])
            .max()
            .unwrap_or(0)
    }

    /// Total number of multiplication gates.
    pub fn n_mul_gates(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::Mul(_, _)))
            .count()
    }

    /// Independent-multiplication width of each sequential mul round, in
    /// round order: `widths[l-1]` is the number of `Mul` gates the MPC
    /// evaluator batches into the level-`l` degree reduction. The widths
    /// always sum to [`Circuit::n_mul_gates`], and their count equals
    /// [`Circuit::mul_depth`] whenever every multiplication feeds an
    /// output.
    pub fn mul_level_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = Vec::new();
        for (i, gate) in self.gates.iter().enumerate() {
            if matches!(gate, Gate::Mul(_, _)) {
                let level = self.mul_level[i] as usize;
                if widths.len() < level {
                    widths.resize(level, 0);
                }
                widths[level - 1] += 1;
            }
        }
        widths
    }

    /// The width-parallel gate schedule: `schedule[l-1]` lists the `Mul`
    /// gate indices the MPC evaluator batches into the level-`l` degree
    /// reduction, in gate order. One forward pass over the gate list,
    /// computed once per evaluation instead of one rescan per level; the
    /// per-level lengths are exactly [`Circuit::mul_level_widths`].
    fn mul_schedule(&self) -> Vec<Vec<usize>> {
        let mut schedule: Vec<Vec<usize>> = Vec::new();
        for (i, gate) in self.gates.iter().enumerate() {
            if matches!(gate, Gate::Mul(_, _)) {
                let level = self.mul_level[i] as usize;
                if schedule.len() < level {
                    schedule.resize_with(level, Vec::new);
                }
                schedule[level - 1].push(i);
            }
        }
        schedule
    }

    /// Evaluate in the clear (reference semantics for tests and the
    /// plaintext VFL backend). `inputs[p]` are party `p`'s private inputs.
    pub fn eval_plain(&self, inputs: &[Vec<F>]) -> Vec<F> {
        assert_eq!(inputs.len(), self.input_counts.len(), "wrong party count");
        for (p, (inp, &want)) in inputs.iter().zip(&self.input_counts).enumerate() {
            assert_eq!(inp.len(), want, "party {p}: wrong input count");
        }
        let mut values: Vec<F> = Vec::with_capacity(self.gates.len());
        for gate in &self.gates {
            let v = match *gate {
                Gate::Input { owner, pos } => inputs[owner][pos],
                Gate::Const(c) => c,
                Gate::Add(a, b) => values[a.0] + values[b.0],
                Gate::Sub(a, b) => values[a.0] - values[b.0],
                Gate::Mul(a, b) => values[a.0] * values[b.0],
                Gate::MulConst(a, c) => values[a.0] * c,
                Gate::AddConst(a, c) => values[a.0] + c,
            };
            values.push(v);
        }
        self.outputs.iter().map(|w| values[w.0]).collect()
    }

    /// Evaluate under BGW: inputs are shared (one round), multiplications
    /// run level-by-level with one batched degree reduction per level, and
    /// the caller receives degree-`t` *shares* of the outputs: release them
    /// with [`PartyCtx::sum_to_receiver`] (each party's noise as its addend)
    /// or open them to every party with [`PartyCtx::open`].
    pub fn eval_mpc(&self, ctx: &mut PartyCtx<F>, my_inputs: &[F]) -> Vec<F> {
        assert_eq!(
            ctx.n,
            self.input_counts.len(),
            "circuit built for {} parties, engine has {}",
            self.input_counts.len(),
            ctx.n
        );
        // Cost profiling (when the run has a profiler): per-gate-kind
        // counts and scratch allocation sizes. Purely observational — the
        // evaluation below is identical either way.
        if let Some(prof) = ctx.profiler() {
            const KINDS: [&str; 7] = [
                "input",
                "const",
                "add",
                "sub",
                "mul",
                "mul_const",
                "add_const",
            ];
            let mut counts = [0u64; 7];
            for gate in &self.gates {
                let k = match gate {
                    Gate::Input { .. } => 0,
                    Gate::Const(_) => 1,
                    Gate::Add(_, _) => 2,
                    Gate::Sub(_, _) => 3,
                    Gate::Mul(_, _) => 4,
                    Gate::MulConst(_, _) => 5,
                    Gate::AddConst(_, _) => 6,
                };
                counts[k] += 1;
            }
            for (kind, &count) in KINDS.iter().zip(&counts) {
                if count > 0 {
                    prof.record(&format!("circuit;gates;{kind}"), count, count);
                }
            }
            prof.record("circuit;alloc;values", 1, self.gates.len() as u64);
        }

        // Input phase: every party shares its inputs simultaneously.
        let contributions = ctx.share_all_uneven(my_inputs, &self.input_counts);

        let mut values: Vec<Option<F>> = vec![None; self.gates.len()];

        // Evaluate all local (non-mul) gates whose operands are ready.
        // Gates are topologically ordered, so one forward pass suffices.
        let local_pass = |values: &mut Vec<Option<F>>| {
            for (i, gate) in self.gates.iter().enumerate() {
                if values[i].is_some() {
                    continue;
                }
                let v = match *gate {
                    Gate::Input { owner, pos } => Some(contributions[owner][pos]),
                    Gate::Const(c) => Some(c),
                    Gate::Add(a, b) => match (values[a.0], values[b.0]) {
                        (Some(x), Some(y)) => Some(x + y),
                        _ => None,
                    },
                    Gate::Sub(a, b) => match (values[a.0], values[b.0]) {
                        (Some(x), Some(y)) => Some(x - y),
                        _ => None,
                    },
                    Gate::MulConst(a, c) => values[a.0].map(|x| x * c),
                    Gate::AddConst(a, c) => values[a.0].map(|x| x + c),
                    Gate::Mul(_, _) => None, // handled by batches
                };
                values[i] = v;
            }
        };

        // Width-parallel gate scheduling: the mul gates of each sequential
        // level are grouped once up front; each level's independent local
        // products are computed (across the engine's worker pool when the
        // batch is wide) and shared/reduced in a single round.
        let schedule = self.mul_schedule();
        local_pass(&mut values);
        for (li, batch) in schedule.iter().enumerate() {
            let level = li + 1;
            if batch.is_empty() {
                continue;
            }
            let gate_product = |i: usize, values: &[Option<F>]| match self.gates[i] {
                Gate::Mul(a, b) => {
                    let x = values[a.0].expect("mul operand not ready");
                    let y = values[b.0].expect("mul operand not ready");
                    x * y
                }
                _ => unreachable!("mul schedule lists only Mul gates"),
            };
            let opts = ctx.batch_options();
            let locals: Vec<F> = if opts.parallel(batch.len()) {
                let mut out = vec![F::ZERO; batch.len()];
                let chunk = batch.len().div_ceil(opts.workers);
                std::thread::scope(|s| {
                    let values = &values;
                    let gate_product = &gate_product;
                    for (slice, idxs) in out.chunks_mut(chunk).zip(batch.chunks(chunk)) {
                        s.spawn(move || {
                            for (o, &i) in slice.iter_mut().zip(idxs) {
                                *o = gate_product(i, values);
                            }
                        });
                    }
                });
                out
            } else {
                batch.iter().map(|&i| gate_product(i, &values)).collect()
            };
            if let Some(prof) = ctx.profiler() {
                prof.record(
                    &format!("circuit;mul;layer{level:04}"),
                    1,
                    batch.len() as u64,
                );
                prof.record("circuit;alloc;mul_locals", 1, batch.len() as u64);
            }
            let reduced = ctx.reduce_degree(&locals);
            for (&i, r) in batch.iter().zip(reduced) {
                values[i] = Some(r);
            }
            local_pass(&mut values);
        }

        self.outputs
            .iter()
            .map(|w| values[w.0].expect("output not evaluated"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MpcConfig, MpcEngine};
    use sqm_field::M61;
    use std::time::Duration;

    fn engine(n: usize) -> MpcEngine {
        MpcEngine::new(MpcConfig::semi_honest(n).with_latency(Duration::ZERO))
    }

    /// (x0 + 2)*(y0 - z0) + 5, inputs owned by parties 0, 1, 2.
    fn sample_circuit() -> Circuit<M61> {
        let mut b = CircuitBuilder::<M61>::new(3);
        let x = b.input(0);
        let y = b.input(1);
        let z = b.input(2);
        let x2 = b.add_const(x, M61::from_u64(2));
        let yz = b.sub(y, z);
        let p = b.mul(x2, yz);
        let out = b.add_const(p, M61::from_u64(5));
        b.output(out);
        b.build()
    }

    #[test]
    fn plain_eval() {
        let c = sample_circuit();
        let out = c.eval_plain(&[
            vec![M61::from_u64(3)],
            vec![M61::from_u64(10)],
            vec![M61::from_u64(4)],
        ]);
        assert_eq!(out[0].to_canonical(), (3 + 2) * (10 - 4) + 5);
    }

    #[test]
    fn mpc_matches_plain() {
        let c = sample_circuit();
        let expect = c.eval_plain(&[
            vec![M61::from_u64(3)],
            vec![M61::from_u64(10)],
            vec![M61::from_u64(4)],
        ]);
        let c2 = c.clone();
        let run = engine(3).run::<M61, _, _>(move |ctx| {
            let my_inputs = vec![M61::from_u64([3u64, 10, 4][ctx.id])];
            let shares = c2.eval_mpc(ctx, &my_inputs);
            ctx.open(&shares)
        });
        for out in run.outputs {
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn product_tree_depth_is_logarithmic() {
        let mut b = CircuitBuilder::<M61>::new(1);
        let factors: Vec<Wire> = (0..8).map(|_| b.input(0)).collect();
        let p = b.product(&factors);
        b.output(p);
        let c = b.build();
        assert_eq!(c.mul_depth(), 3); // log2(8)
        assert_eq!(c.n_mul_gates(), 7);
    }

    #[test]
    fn degree_five_monomial_mpc() {
        // x^2 * y^3 with x from party 0, y from party 1.
        let mut b = CircuitBuilder::<M61>::new(2);
        let x = b.input(0);
        let y = b.input(1);
        let p = b.product(&[x, x, y, y, y]);
        b.output(p);
        let c = b.build();

        let expect = 2u64.pow(2) * 3u64.pow(3);
        let run = engine(2).run::<M61, _, _>(move |ctx| {
            let my_inputs = vec![M61::from_u64(if ctx.id == 0 { 2 } else { 3 })];
            let shares = c.eval_mpc(ctx, &my_inputs);
            ctx.open(&shares)
        });
        for out in run.outputs {
            assert_eq!(out[0].to_canonical(), expect as u128);
        }
    }

    #[test]
    fn multiple_outputs() {
        let mut b = CircuitBuilder::<M61>::new(2);
        let x = b.input(0);
        let y = b.input(1);
        let s = b.add(x, y);
        let p = b.mul(x, y);
        b.output(s);
        b.output(p);
        let c = b.build();
        let out = c.eval_plain(&[vec![M61::from_u64(6)], vec![M61::from_u64(7)]]);
        assert_eq!(out[0].to_canonical(), 13);
        assert_eq!(out[1].to_canonical(), 42);
    }

    #[test]
    fn rounds_scale_with_depth_not_width() {
        // 16 independent products of pairs: depth 1, so input + 1 reduction.
        let mut b = CircuitBuilder::<M61>::new(2);
        for _ in 0..16 {
            let x = b.input(0);
            let y = b.input(1);
            let p = b.mul(x, y);
            b.output(p);
        }
        let c = b.build();
        assert_eq!(c.mul_depth(), 1);
        let run = engine(2).run::<M61, _, _>(move |ctx| {
            let my_inputs = vec![M61::from_u64(ctx.id as u64 + 2); 16];
            let shares = c.eval_mpc(ctx, &my_inputs);
            ctx.open(&shares)
        });
        // share_all + 1 reduction + open = 3 rounds.
        assert_eq!(run.stats.total.rounds, 3);
        for out in run.outputs {
            assert!(out.iter().all(|v| v.to_canonical() == 6));
        }
    }

    #[test]
    fn mul_schedule_widths_match_batching_report_predictions() {
        // The widths the evaluator actually batches must equal the
        // circuit's own per-level widths, gate for gate.
        let circuits: Vec<Circuit<M61>> = vec![
            sample_circuit(),
            {
                let mut b = CircuitBuilder::<M61>::new(1);
                let factors: Vec<Wire> = (0..8).map(|_| b.input(0)).collect();
                let p = b.product(&factors);
                b.output(p);
                b.build()
            },
            {
                let mut b = CircuitBuilder::<M61>::new(2);
                for _ in 0..16 {
                    let x = b.input(0);
                    let y = b.input(1);
                    let p = b.mul(x, y);
                    b.output(p);
                }
                b.build()
            },
        ];
        for c in circuits {
            let schedule = c.mul_schedule();
            let widths: Vec<usize> = schedule.iter().map(Vec::len).collect();
            assert_eq!(widths, c.mul_level_widths());
            assert_eq!(widths.iter().sum::<usize>(), c.n_mul_gates());
            assert_eq!(widths.len() as u32, c.mul_depth());
            // Gate order within a level is ascending (deterministic batch).
            for batch in &schedule {
                assert!(batch.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn eval_mpc_identical_across_batching_modes() {
        use crate::engine::BatchOptions;
        // Deep + wide circuit: (prod of 8 factors) plus 16 independent
        // pair-products, evaluated with every gate layer inline and with
        // the worker pool forced on for every layer.
        let mut b = CircuitBuilder::<M61>::new(3);
        let factors: Vec<Wire> = (0..8).map(|k| b.input(k % 3)).collect();
        let p = b.product(&factors);
        b.output(p);
        for _ in 0..16 {
            let x = b.input(0);
            let y = b.input(1);
            let q = b.mul(x, y);
            b.output(q);
        }
        let c = b.build();
        let inputs_of = |id: usize| -> Vec<M61> {
            (0..c.input_counts()[id] as u64)
                .map(|k| M61::from_u64(2 + k % 5))
                .collect()
        };
        let run = |workers: usize| {
            let cfg = MpcConfig {
                batching: BatchOptions {
                    workers,
                    min_parallel_width: 1,
                },
                ..MpcConfig::semi_honest(3).with_latency(Duration::ZERO)
            };
            let c = c.clone();
            MpcEngine::new(cfg).run::<M61, _, _>(move |ctx| {
                let shares = c.eval_mpc(ctx, &inputs_of(ctx.id));
                ctx.open(&shares)
            })
        };
        let inline = run(1);
        let pooled = run(3);
        assert_eq!(inline.outputs, pooled.outputs);
        let (a, b) = (&inline.stats.total, &pooled.stats.total);
        assert_eq!(
            (a.rounds, a.messages, a.bytes, a.elems),
            (b.rounds, b.messages, b.bytes, b.elems)
        );
        let expect = c.eval_plain(&[inputs_of(0), inputs_of(1), inputs_of(2)]);
        assert_eq!(inline.outputs[0], expect);
    }

    #[test]
    fn negative_values_via_centered_encoding() {
        let mut b = CircuitBuilder::<M61>::new(2);
        let x = b.input(0);
        let y = b.input(1);
        let p = b.mul(x, y);
        b.output(p);
        let c = b.build();
        let out = c.eval_plain(&[vec![M61::from_i128(-4)], vec![M61::from_i128(5)]]);
        assert_eq!(out[0].to_centered_i128(), -20);
    }

    #[test]
    #[should_panic(expected = "no outputs")]
    fn empty_circuit_rejected() {
        CircuitBuilder::<M61>::new(1).build();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sqm_field::{PrimeField, M61};

    // Random linear+quadratic expression over 3 single-owner inputs,
    // checked against direct field arithmetic.
    proptest! {
        #[test]
        fn prop_plain_eval_matches_reference(
            x in -1000i64..1000,
            y in -1000i64..1000,
            z in -1000i64..1000,
            c1 in -50i64..50,
            c2 in -50i64..50,
        ) {
            let mut b = CircuitBuilder::<M61>::new(3);
            let wx = b.input(0);
            let wy = b.input(1);
            let wz = b.input(2);
            // expr = c1*x*y + c2*z + (x - y)*z
            let xy = b.mul(wx, wy);
            let t1 = b.mul_const(xy, M61::from_i128(c1 as i128));
            let t2 = b.mul_const(wz, M61::from_i128(c2 as i128));
            let xmy = b.sub(wx, wy);
            let t3 = b.mul(xmy, wz);
            let s1 = b.add(t1, t2);
            let out = b.add(s1, t3);
            b.output(out);
            let circ = b.build();
            let got = circ.eval_plain(&[
                vec![M61::from_i128(x as i128)],
                vec![M61::from_i128(y as i128)],
                vec![M61::from_i128(z as i128)],
            ])[0];
            let expect = (c1 as i128) * (x as i128) * (y as i128)
                + (c2 as i128) * (z as i128)
                + ((x - y) as i128) * (z as i128);
            prop_assert_eq!(got.to_centered_i128(), expect);
        }

        #[test]
        fn prop_product_tree_matches_pow(
            base in -20i64..20,
            exp in 1u32..7,
        ) {
            let mut b = CircuitBuilder::<M61>::new(1);
            let w = b.input(0);
            let factors = vec![w; exp as usize];
            let p = b.product(&factors);
            b.output(p);
            let circ = b.build();
            let got = circ.eval_plain(&[vec![M61::from_i128(base as i128)]])[0];
            let expect = (base as i128).pow(exp);
            prop_assert_eq!(got.to_centered_i128(), expect);
        }
    }
}
