//! Seeded input generation. Everything the benchmark feeds the system
//! is a pure function of `--seed`; the program under test receives
//! only the generated inputs, never the seed.

/// splitmix64: a stateless mixer, so request `i` of a stream can be
/// generated without generating the `i - 1` before it (the sender and
/// the verifier both need the stream and must agree on it).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derive an independent sub-seed for a named purpose, so the key
/// stream, the power-cut index and the probe keys do not share draws.
pub fn subseed(seed: u64, purpose: &str) -> u64 {
    purpose
        .bytes()
        .fold(mix(seed, 0x5EED), |h, b| mix(h, u64::from(b)))
}

/// One request of the `served` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Point read of `key`.
    Get {
        /// Row key.
        key: u64,
    },
    /// Upsert of `key`; the value is the request id, so a later read
    /// identifies its writer.
    Put {
        /// Row key.
        key: u64,
    },
}

impl KvOp {
    /// The key the request addresses.
    pub fn key(self) -> u64 {
        match self {
            KvOp::Get { key } | KvOp::Put { key } => key,
        }
    }
}

/// Request `id` of the `served` stream: 50 % `Get` / 50 % `Put`, keys
/// uniform over `0..keys`.
pub fn kv_op(seed: u64, id: u64, keys: u64) -> KvOp {
    let r = mix(seed, id);
    let key = (r >> 1) % keys;
    if r & 1 == 0 {
        KvOp::Get { key }
    } else {
        KvOp::Put { key }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a: Vec<KvOp> = (0..10_000).map(|i| kv_op(7, i, 4096)).collect();
        let b: Vec<KvOp> = (0..10_000).map(|i| kv_op(7, i, 4096)).collect();
        let c: Vec<KvOp> = (0..10_000).map(|i| kv_op(8, i, 4096)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stream_is_half_puts_and_covers_the_key_space() {
        let n = 100_000u64;
        let ops: Vec<KvOp> = (0..n).map(|i| kv_op(1, i, 4096)).collect();
        let puts = ops.iter().filter(|o| matches!(o, KvOp::Put { .. })).count() as f64;
        assert!((puts / n as f64 - 0.5).abs() < 0.01, "{puts}");
        let mut seen = vec![false; 4096];
        for o in &ops {
            assert!(o.key() < 4096);
            seen[o.key() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn subseeds_differ_by_purpose_and_seed() {
        assert_eq!(subseed(1, "cut"), subseed(1, "cut"));
        assert_ne!(subseed(1, "cut"), subseed(1, "probe"));
        assert_ne!(subseed(1, "cut"), subseed(2, "cut"));
    }
}
