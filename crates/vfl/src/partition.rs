//! Vertical (column-wise) partitioning of the database across clients.

/// Assignment of each column to an owning client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnPartition {
    /// `owner[j]` = client owning column `j`.
    owner: Vec<usize>,
    n_clients: usize,
}

impl ColumnPartition {
    /// Contiguous even partition of `n_cols` columns among `n_clients`
    /// (the paper's canonical setup; with `n_clients == n_cols` each client
    /// owns exactly one attribute).
    pub fn even(n_cols: usize, n_clients: usize) -> Self {
        assert!(n_clients >= 1, "need at least one client");
        assert!(
            n_cols >= n_clients,
            "cannot spread {n_cols} columns over {n_clients} clients"
        );
        let base = n_cols / n_clients;
        let extra = n_cols % n_clients;
        let mut owner = Vec::with_capacity(n_cols);
        for c in 0..n_clients {
            let w = base + usize::from(c < extra);
            owner.extend(std::iter::repeat_n(c, w));
        }
        ColumnPartition { owner, n_clients }
    }

    /// [`ColumnPartition::even`], or with fewer columns than clients, column
    /// `j` to client `j` and none to the rest.
    pub fn even_or_sparse(n_cols: usize, n_clients: usize) -> Self {
        if n_cols >= n_clients {
            return Self::even(n_cols, n_clients);
        }
        Self::from_owners((0..n_cols).collect(), n_clients)
    }

    /// Explicit assignment.
    pub fn from_owners(owner: Vec<usize>, n_clients: usize) -> Self {
        assert!(!owner.is_empty(), "no columns");
        assert!(
            owner.iter().all(|&c| c < n_clients),
            "owner index out of range"
        );
        ColumnPartition { owner, n_clients }
    }

    pub fn n_cols(&self) -> usize {
        self.owner.len()
    }

    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// The client owning column `j`.
    pub fn owner_of(&self, j: usize) -> usize {
        self.owner[j]
    }

    /// The columns owned by `client`, ascending.
    pub fn columns_of(&self, client: usize) -> Vec<usize> {
        assert!(client < self.n_clients, "client {client} out of range");
        self.owner
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == client)
            .map(|(j, _)| j)
            .collect()
    }

    /// Per-client column counts.
    pub fn counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_clients];
        for &c in &self.owner {
            counts[c] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_balanced() {
        let p = ColumnPartition::even(10, 4);
        assert_eq!(p.counts(), vec![3, 3, 2, 2]);
        assert_eq!(p.columns_of(0), vec![0, 1, 2]);
        assert_eq!(p.columns_of(3), vec![8, 9]);
    }

    #[test]
    fn exact_division() {
        let p = ColumnPartition::even(8, 4);
        assert_eq!(p.counts(), vec![2; 4]);
    }

    #[test]
    fn one_column_per_client() {
        let p = ColumnPartition::even(5, 5);
        assert_eq!(p.counts(), vec![1; 5]);
        for j in 0..5 {
            assert_eq!(p.owner_of(j), j);
        }
    }

    #[test]
    fn explicit_owners() {
        let p = ColumnPartition::from_owners(vec![1, 0, 1], 2);
        assert_eq!(p.columns_of(1), vec![0, 2]);
    }

    #[test]
    fn even_or_sparse_leaves_the_clients_past_the_last_column_empty() {
        assert_eq!(
            ColumnPartition::even_or_sparse(10, 4),
            ColumnPartition::even(10, 4)
        );
        let p = ColumnPartition::even_or_sparse(3, 5);
        assert_eq!(p.counts(), vec![1, 1, 1, 0, 0]);
        assert_eq!((p.owner_of(2), p.n_clients()), (2, 5));
    }

    #[test]
    #[should_panic(expected = "cannot spread")]
    fn rejects_more_clients_than_columns() {
        ColumnPartition::even(3, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_owner() {
        ColumnPartition::from_owners(vec![0, 5], 2);
    }
}
