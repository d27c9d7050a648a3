//! The sweep workload's op list, generated from a seed. Shared by
//! `pfsweep` (the workload) and `pflayers` (the `core.sweep` seam loop)
//! through `#[path]`, so both sweep the same kind of list.

use pfault_platform::sweep::IoOp;

const EXTENTS: u64 = 64;
const EXTENT_SECTORS: u64 = 8;

/// xorshift64*: the op list depends on the seed and on nothing else.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// `count` ops: about 80 % writes of 1–8 sectors over 64 extents of 8
/// sectors, 12 % trims, 8 % flushes.
pub fn generate(seed: u64, count: usize) -> Vec<IoOp> {
    // A zero state would stay zero; the constant keeps seed 0 usable.
    let mut rng = XorShift(seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..count)
        .map(|_| {
            let lba = (rng.next() % EXTENTS) * EXTENT_SECTORS;
            let sectors = 1 + rng.next() % EXTENT_SECTORS;
            match rng.next() % 100 {
                0..=79 => IoOp::Write {
                    lba,
                    sectors,
                    tag: rng.next(),
                },
                80..=91 => IoOp::Trim { lba, sectors },
                _ => IoOp::Flush,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_depend_only_on_the_seed() {
        assert_eq!(generate(7, 64), generate(7, 64));
        assert_ne!(generate(7, 64), generate(8, 64));
    }

    #[test]
    fn op_mix_is_mostly_writes_inside_the_extents() {
        let ops = generate(20180429, 1000);
        let writes = ops
            .iter()
            .filter(|op| matches!(op, IoOp::Write { .. }))
            .count();
        assert!((700..900).contains(&writes), "{writes} writes of 1000");
        for op in &ops {
            if let IoOp::Write { lba, sectors, .. } | IoOp::Trim { lba, sectors } = op {
                assert!(*lba < EXTENTS * EXTENT_SECTORS);
                assert!((1..=EXTENT_SECTORS).contains(sectors));
            }
        }
    }
}
