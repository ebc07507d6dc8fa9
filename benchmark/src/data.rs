//! Seeded inputs. Everything a workload feeds the program — records,
//! labels and protocol seeds — is drawn here from the benchmark's `--seed`;
//! the program receives only the generated values.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm::linalg::Matrix;

/// An independent generator per (run seed, purpose), so adding a draw to
/// one workload never shifts another's inputs.
pub fn rng_for(seed: u64, purpose: &str) -> StdRng {
    // FNV-1a over the purpose keeps the streams apart without a table.
    let tag = purpose.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

/// `rows` records of `cols` features, each with l2 norm in `[0.5, 1]` —
/// the paper's `c = 1` record-norm envelope.
pub fn records(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|_| {
            let mut row: Vec<f64> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
            let radius = rng.gen_range(0.5..1.0);
            row.iter_mut().for_each(|v| *v *= radius / norm);
            row
        })
        .collect()
}

pub fn matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_rows(&records(rng, rows, cols))
}

/// The VFL logistic-regression layout: `d` features with record norm at
/// most 1, then a 0/1 label as the last column.
pub fn labelled_matrix(rng: &mut StdRng, rows: usize, d: usize) -> Matrix {
    let mut rows = records(rng, rows, d);
    for row in &mut rows {
        row.push(if rng.gen_bool(0.5) { 1.0 } else { 0.0 });
    }
    Matrix::from_rows(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_purposes_are_independent() {
        let a = matrix(&mut rng_for(7, "cov_wide"), 20, 5);
        let b = matrix(&mut rng_for(7, "cov_wide"), 20, 5);
        assert!(a == b);
        assert!(a != matrix(&mut rng_for(8, "cov_wide"), 20, 5));
        assert!(a != matrix(&mut rng_for(7, "cov_clients"), 20, 5));
    }

    #[test]
    fn records_stay_inside_the_unit_ball() {
        let m = labelled_matrix(&mut rng_for(3, "lr_train"), 50, 9);
        for i in 0..m.rows() {
            let row = m.row(i);
            let norm = row[..9].iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((0.5..=1.0 + 1e-12).contains(&norm), "{norm}");
            assert!(row[9] == 0.0 || row[9] == 1.0);
        }
    }
}
