//! Bit-parallel LCS *length* (Allison & Dix 1986; Hyyrö 2004).
//!
//! One bit per element of `a` encodes a column of the LCS table by its
//! row-to-row increments: bit `i` of `V` is `0` where
//! `|LCS(a[..=i], b[..j])|` rises over `|LCS(a[..i], b[..j])|`. Each
//! element `b[j]` updates the whole column with one add and a few logic
//! operations over `⌈|a|/64⌉` words, so the length costs
//! `O(⌈|a|/64⌉·|b|)` word operations plus `|a|·|b|` calls of `equal` — no
//! table and no pair list. The recurrence only needs the match matrix, so
//! any `equal`, transitive or not, is allowed.

/// Columns of at most this many 64-bit blocks live on the stack.
const STACK_BLOCKS: usize = 4;

/// `|LCS(a, b)|` under `equal`, without materializing the pairs.
///
/// ```
/// let a = b"kitten";
/// let b = b"sitting";
/// assert_eq!(hierdiff_lcs::lcs_len(a, b, |x, y| x == y), 4); // i t t n
/// ```
pub fn lcs_len<T, U>(a: &[T], b: &[U], mut equal: impl FnMut(&T, &U) -> bool) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let blocks = a.len().div_ceil(64);
    let mut stack = [u64::MAX; STACK_BLOCKS];
    let mut heap = Vec::new();
    let v: &mut [u64] = match stack.get_mut(..blocks) {
        Some(v) => v,
        None => {
            heap.resize(blocks, u64::MAX);
            &mut heap
        }
    };
    for y in b {
        // `U = V & M; V = (V + U) | (V − U)`, the addition carrying from
        // block to block. `U ⊆ V` bitwise, so `V − U` never borrows.
        let mut carry = false;
        for (vk, chunk) in v.iter_mut().zip(a.chunks(64)) {
            let mut m = 0u64;
            for (x, bit) in chunk.iter().zip(0..) {
                if equal(x, y) {
                    m |= 1 << bit;
                }
            }
            let u = *vk & m;
            let (sum, c1) = vk.overflowing_add(u);
            let (sum, c2) = sum.overflowing_add(u64::from(carry));
            *vk = sum | (*vk - u);
            carry = c1 | c2;
        }
    }
    // Bits past `a.len()` in the last block never match and stay set.
    v.iter().map(|vk| vk.count_zeros() as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs_dp;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn empty_inputs() {
        let e: [u8; 0] = [];
        assert_eq!(lcs_len(&e, &e, |x, y| x == y), 0);
        assert_eq!(lcs_len(&[1u8], &e, |x, y| x == y), 0);
        assert_eq!(lcs_len(&e, &[1u8], |x, y| x == y), 0);
    }

    #[test]
    fn carries_across_blocks() {
        // 200 equal elements span four blocks; every carry must propagate.
        let a = vec![7u8; 200];
        assert_eq!(lcs_len(&a, &a, |x, y| x == y), 200);
        assert_eq!(lcs_len(&a, &a[..130], |x, y| x == y), 130);
        let b: Vec<u8> = (0..=255).collect();
        assert_eq!(lcs_len(&b, &b, |x, y| x == y), 256);
        assert_eq!(lcs_len(&b, &[255u8, 0], |x, y| x == y), 1);
    }

    #[test]
    fn heap_column_beyond_stack_blocks() {
        let a: Vec<u16> = (0..400).map(|i| i % 7).collect();
        let b: Vec<u16> = (0..300).map(|i| (i * 3) % 7).collect();
        let eq = |x: &u16, y: &u16| x == y;
        assert_eq!(lcs_len(&a, &b, eq), lcs_dp(&a, &b, eq).len());
    }

    /// Lengths around the 64-bit block boundaries, plus arbitrary ones.
    fn len() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(0usize),
            Just(1),
            Just(63),
            Just(64),
            Just(65),
            Just(128),
            Just(129),
            0usize..140,
        ]
    }

    /// Two sequences over a shared alphabet of 2, 4 or 1000 symbols.
    fn seqs() -> impl Strategy<Value = (Vec<u16>, Vec<u16>)> {
        let sigma = prop_oneof![Just(2u16), Just(4), Just(1000)];
        (len(), len(), sigma, any::<u64>()).prop_map(|(n, m, sigma, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draw = |k| (0..k).map(|_| rng.gen_range(0..sigma)).collect();
            (draw(n), draw(m))
        })
    }

    proptest! {
        #[test]
        fn prop_bitparallel_lcs_len_equals_dp(ab in seqs()) {
            let (a, b) = ab;
            let eq = |x: &u16, y: &u16| x == y;
            prop_assert_eq!(lcs_len(&a, &b, eq), lcs_dp(&a, &b, eq).len());
            // `x ~ y ⇔ |x − y| ≤ 1` is not transitive.
            let near = |x: &u16, y: &u16| x.abs_diff(*y) <= 1;
            prop_assert_eq!(lcs_len(&a, &b, near), lcs_dp(&a, &b, near).len());
        }
    }
}
