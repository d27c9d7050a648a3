//! Systematic Reed-Solomon erasure code over GF(2⁸).
//!
//! The encoding matrix is a Vandermonde matrix on distinct nodes,
//! normalised so its top m×m block is the identity (systematic: data
//! chunks are stored verbatim, parity appended). Any m rows of the
//! normalised matrix stay invertible — every m-subset of the m+k chunks
//! reconstructs the stripe exactly, the MDS property the stripe oracle
//! leans on: data is lost *iff* more than k chunks are unrecoverable.

use crate::gf256;

/// Why a reconstruction attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Fewer than m chunks were supplied.
    NotEnoughChunks {
        /// Chunks supplied.
        have: usize,
        /// Chunks needed (m).
        need: usize,
    },
    /// A chunk index was out of range or supplied twice.
    BadChunkIndex(usize),
    /// Supplied chunks disagree on payload length.
    LengthMismatch,
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::NotEnoughChunks { have, need } => {
                write!(f, "need {need} chunks to reconstruct, have {have}")
            }
            RsError::BadChunkIndex(i) => write!(f, "chunk index {i} invalid or duplicated"),
            RsError::LengthMismatch => write!(f, "chunk payload lengths differ"),
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic m-data + k-parity Reed-Solomon code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsCode {
    m: usize,
    k: usize,
    /// (m+k)×m encoding matrix; rows 0..m are the identity.
    matrix: Vec<Vec<u8>>,
}

impl RsCode {
    /// Builds the code.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= m`, `1 <= k`, and `m + k <= 255` (the node
    /// count a GF(2⁸) Vandermonde supports).
    pub fn new(m: usize, k: usize) -> Self {
        assert!(m >= 1, "need at least one data chunk");
        assert!(k >= 1, "need at least one parity chunk");
        assert!(m + k <= 255, "GF(256) supports at most 255 chunks");
        // Vandermonde rows on distinct nodes x_i = i (0, 1, 2, …): row i
        // is [1, x_i, x_i², …]. Node 0 contributes [1, 0, 0, …].
        let vander: Vec<Vec<u8>> = (0..m + k)
            .map(|i| (0..m).map(|j| gf256::pow(i as u8, j as u64)).collect())
            .collect();
        // Normalise: A = V · V_top⁻¹, so the top block is the identity.
        let top: Vec<Vec<u8>> = vander[..m].to_vec();
        let top_inv = invert(top).expect("distinct Vandermonde nodes are invertible");
        let matrix = vander
            .iter()
            .map(|row| mat_vec_rows(row, &top_inv))
            .collect();
        RsCode { m, k, matrix }
    }

    /// Data chunks per stripe (m).
    pub fn data_chunks(&self) -> usize {
        self.m
    }

    /// Parity chunks per stripe (k).
    pub fn parity_chunks(&self) -> usize {
        self.k
    }

    /// Encodes the k parity payloads from the m data payloads.
    ///
    /// # Panics
    ///
    /// Panics unless exactly m equally-long payloads are supplied.
    pub fn encode(&self, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.m, "encode takes exactly m data payloads");
        let len = data[0].len();
        assert!(
            data.iter().all(|d| d.len() == len),
            "data payloads must share one length"
        );
        (self.m..self.m + self.k)
            .map(|row| {
                let coeffs = &self.matrix[row];
                let mut out = vec![0u8; len];
                for (j, chunk) in data.iter().enumerate() {
                    let c = coeffs[j];
                    if c == 0 {
                        continue;
                    }
                    for (o, b) in out.iter_mut().zip(chunk.iter()) {
                        *o = gf256::add(*o, gf256::mul(c, *b));
                    }
                }
                out
            })
            .collect()
    }

    /// Reconstructs all m data payloads from any m available chunks
    /// (data or parity), given as `(chunk index, payload)` pairs.
    /// Extra chunks beyond m are ignored (the first m in supplied order
    /// are used).
    ///
    /// # Errors
    ///
    /// [`RsError`] when fewer than m chunks are supplied, an index is
    /// invalid or duplicated, or payload lengths disagree.
    pub fn reconstruct(&self, available: &[(usize, &[u8])]) -> Result<Vec<Vec<u8>>, RsError> {
        if available.len() < self.m {
            return Err(RsError::NotEnoughChunks {
                have: available.len(),
                need: self.m,
            });
        }
        let used = &available[..self.m];
        let mut seen = vec![false; self.m + self.k];
        for &(i, _) in used {
            if i >= self.m + self.k || seen[i] {
                return Err(RsError::BadChunkIndex(i));
            }
            seen[i] = true;
        }
        let len = used[0].1.len();
        if used.iter().any(|(_, p)| p.len() != len) {
            return Err(RsError::LengthMismatch);
        }
        // Rows of the encoding matrix for the available chunks form an
        // invertible m×m system: data = B⁻¹ · available.
        let b: Vec<Vec<u8>> = used.iter().map(|&(i, _)| self.matrix[i].clone()).collect();
        let b_inv = invert(b).expect("any m rows of a normalised Vandermonde are invertible");
        Ok((0..self.m)
            .map(|d| {
                let mut out = vec![0u8; len];
                for (j, &(_, payload)) in used.iter().enumerate() {
                    let c = b_inv[d][j];
                    if c == 0 {
                        continue;
                    }
                    for (o, b) in out.iter_mut().zip(payload.iter()) {
                        *o = gf256::add(*o, gf256::mul(c, *b));
                    }
                }
                out
            })
            .collect())
    }

    /// The payload of chunk `index` (data chunks verbatim, parity
    /// re-encoded) from the full set of data payloads. Used by the
    /// rebuild engine to regenerate exactly the chunk that was lost.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index or a malformed data set (see
    /// [`RsCode::encode`]).
    pub fn chunk_payload(&self, index: usize, data: &[Vec<u8>]) -> Vec<u8> {
        assert!(index < self.m + self.k, "chunk index out of range");
        if index < self.m {
            return data[index].clone();
        }
        let parity = self.encode(data);
        parity[index - self.m].clone()
    }
}

/// `row · m⁻¹` helper: multiplies a 1×m row vector by an m×m matrix.
fn mat_vec_rows(row: &[u8], matrix: &[Vec<u8>]) -> Vec<u8> {
    let m = matrix.len();
    (0..m)
        .map(|col| {
            let mut acc = 0u8;
            for (j, &r) in row.iter().enumerate() {
                acc = gf256::add(acc, gf256::mul(r, matrix[j][col]));
            }
            acc
        })
        .collect()
}

/// Gauss-Jordan inversion over GF(2⁸). `None` for a singular matrix.
fn invert(mut a: Vec<Vec<u8>>) -> Option<Vec<Vec<u8>>> {
    let n = a.len();
    let mut inv: Vec<Vec<u8>> = (0..n)
        .map(|i| (0..n).map(|j| u8::from(i == j)).collect())
        .collect();
    for col in 0..n {
        let pivot = (col..n).find(|&r| a[r][col] != 0)?;
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let p = gf256::inv(a[col][col]);
        for j in 0..n {
            a[col][j] = gf256::mul(a[col][j], p);
            inv[col][j] = gf256::mul(inv[col][j], p);
        }
        for r in 0..n {
            if r == col || a[r][col] == 0 {
                continue;
            }
            let f = a[r][col];
            for j in 0..n {
                let ac = gf256::mul(f, a[col][j]);
                let ic = gf256::mul(f, inv[col][j]);
                a[r][j] = gf256::add(a[r][j], ac);
                inv[r][j] = gf256::add(inv[r][j], ic);
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfault_sim::DetRng;

    fn payloads(m: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = DetRng::new(seed);
        (0..m)
            .map(|_| (0..len).map(|_| rng.next_u64() as u8).collect())
            .collect()
    }

    /// Every m-subset of chunk indices, by bitmask walk.
    fn m_subsets(total: usize, m: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for mask in 0u32..(1 << total) {
            if mask.count_ones() as usize != m {
                continue;
            }
            out.push((0..total).filter(|i| mask & (1 << i) != 0).collect());
        }
        out
    }

    #[test]
    fn systematic_top_is_identity() {
        let code = RsCode::new(4, 2);
        for (i, row) in code.matrix[..4].iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, u8::from(i == j), "row {i} col {j}");
            }
        }
    }

    #[test]
    fn every_m_subset_reconstructs_exactly() {
        for (m, k) in [(2, 1), (2, 2), (3, 2), (4, 3)] {
            let code = RsCode::new(m, k);
            let data = payloads(m, 64, 42 + m as u64 * 10 + k as u64);
            let parity = code.encode(&data);
            let all: Vec<Vec<u8>> = data.iter().chain(parity.iter()).cloned().collect();
            for subset in m_subsets(m + k, m) {
                let avail: Vec<(usize, &[u8])> =
                    subset.iter().map(|&i| (i, all[i].as_slice())).collect();
                let rebuilt = code.reconstruct(&avail).expect("m chunks suffice");
                assert_eq!(rebuilt, data, "subset {subset:?} of ({m},{k})");
            }
        }
    }

    #[test]
    fn chunk_payload_regenerates_any_chunk() {
        let code = RsCode::new(3, 2);
        let data = payloads(3, 32, 7);
        let parity = code.encode(&data);
        for i in 0..3 {
            assert_eq!(code.chunk_payload(i, &data), data[i]);
        }
        for (p, chunk) in parity.iter().enumerate() {
            assert_eq!(&code.chunk_payload(3 + p, &data), chunk);
        }
    }

    #[test]
    fn too_few_chunks_is_an_error() {
        let code = RsCode::new(3, 1);
        let data = payloads(3, 8, 1);
        let avail: Vec<(usize, &[u8])> = data[..2]
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.as_slice()))
            .collect();
        assert_eq!(
            code.reconstruct(&avail),
            Err(RsError::NotEnoughChunks { have: 2, need: 3 })
        );
    }

    #[test]
    fn duplicate_or_bad_index_is_an_error() {
        let code = RsCode::new(2, 1);
        let d = payloads(2, 8, 2);
        let dup: Vec<(usize, &[u8])> = vec![(0, d[0].as_slice()), (0, d[0].as_slice())];
        assert_eq!(code.reconstruct(&dup), Err(RsError::BadChunkIndex(0)));
        let oob: Vec<(usize, &[u8])> = vec![(0, d[0].as_slice()), (9, d[1].as_slice())];
        assert_eq!(code.reconstruct(&oob), Err(RsError::BadChunkIndex(9)));
    }

    #[test]
    fn corrupted_chunk_decodes_to_wrong_data() {
        // RS erasure decoding trusts its inputs: a silently corrupted
        // chunk produces wrong output rather than an error. Detection is
        // the stripe oracle's job (generation witnesses), not the
        // codec's — this test pins that division of labour.
        let code = RsCode::new(2, 1);
        let data = payloads(2, 16, 3);
        let parity = code.encode(&data);
        let mut poisoned = data[0].clone();
        poisoned[0] ^= 0xFF;
        let avail: Vec<(usize, &[u8])> = vec![(0, poisoned.as_slice()), (2, parity[0].as_slice())];
        let rebuilt = code.reconstruct(&avail).expect("decode proceeds");
        assert_ne!(rebuilt, data, "corruption must surface as wrong bytes");
    }
}
