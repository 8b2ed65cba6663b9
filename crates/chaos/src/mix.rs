//! The content-keyed roll every fault plan decides with. The `domain`
//! argument keeps fault classes (and the plans of different layers)
//! independent: two classes rolling on the same key see uncorrelated
//! values.

/// splitmix64: tiny, high-quality 64-bit mixer.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Map a content key to a uniform probability in `[0, 1)`.
pub(crate) fn roll(seed: u64, domain: u64, key: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(domain) ^ splitmix64(key));
    // 53 mantissa bits → uniform double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}
