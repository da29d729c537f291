//! Seeded item orders: the same seed gives the same order on every host.

/// splitmix64 step.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stream of the set-up, kept apart from the timed passes (0, 1, 2, …).
pub const SETUP: u64 = u64::MAX;

/// Stream of the sample the correctness checks draw.
pub const SAMPLE: u64 = u64::MAX - 1;

/// A seed for pass `pass` of a run seeded with `seed`.
pub fn derive(seed: u64, pass: u64) -> u64 {
    let mut state = seed ^ pass.wrapping_mul(0xd1b5_4a32_d192_ed03);
    splitmix64(&mut state)
}

/// `0..n` in a Fisher–Yates order drawn from `seed`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order() {
        assert_eq!(shuffled(90, 20150207), shuffled(90, 20150207));
        assert_ne!(shuffled(90, 20150207), shuffled(90, 20150208));
        assert_eq!(derive(7, 3), derive(7, 3));
        assert_ne!(derive(7, 3), derive(7, 4));
    }

    #[test]
    fn orders_are_permutations() {
        let mut order = shuffled(60, 42);
        order.sort_unstable();
        assert_eq!(order, (0..60).collect::<Vec<_>>());
        assert!(shuffled(0, 1).is_empty());
    }
}
