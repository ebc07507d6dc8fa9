//! The release-shaped program the observer suites run beside their GRR +
//! broadcast-open one: the two protocol shapes over the one party runtime.

use sqm_field::{PrimeField, M61};
use sqm_mpc::{PartyCtx, RECEIVER};

/// The shape of a release: every party but the last shares two secrets
/// (uneven input sharing, one owner contributing nothing; phase `input`),
/// the shares are added locally, and one sparse round sums them with a
/// private addend per party to the receiver (phase `open`). Party `i` holds
/// `(i + 1, -5)` and adds `10 i`.
pub fn release_program(ctx: &mut PartyCtx<M61>) -> Option<Vec<M61>> {
    ctx.set_phase("input");
    let counts: Vec<usize> = (0..ctx.n).map(|i| 2 * usize::from(i + 1 < ctx.n)).collect();
    let mine = [M61::from_u64(ctx.id as u64 + 1), M61::from_i128(-5)];
    let mut shares = vec![M61::ZERO; 2];
    for contrib in ctx.share_all_uneven(&mine[..counts[ctx.id]], &counts) {
        for (share, &part) in shares.iter_mut().zip(&contrib) {
            *share += part;
        }
    }
    ctx.set_phase("open");
    ctx.sum_to_receiver(&shares, &[M61::from_u64(10 * ctx.id as u64); 2])
}

/// `outputs` are what [`release_program`] returns at each party: the two
/// sums at the receiver and nothing anywhere else.
pub fn assert_released(outputs: &[Option<Vec<M61>>]) {
    let n = outputs.len() as i128;
    let addends = 10 * n * (n - 1) / 2;
    let sums = vec![n * (n - 1) / 2 + addends, -5 * (n - 1) + addends];
    for (party, out) in outputs.iter().enumerate() {
        let centred = |sum: &Vec<M61>| sum.iter().map(|v| v.to_centered_i128()).collect();
        let want = (party == RECEIVER).then(|| sums.clone());
        assert_eq!(out.as_ref().map(centred), want, "party {party}");
    }
}
