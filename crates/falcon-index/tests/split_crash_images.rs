//! Crash-image sweep for B⁺-tree splits.
//!
//! Brute-force replay: fill an ADR-domain tree to the brink of a split,
//! calibrate how many device events the triggering insert emits, then
//! re-run that insert once per possible cut point. Every resulting
//! media image must reopen into a valid tree whose key set is *exactly*
//! the pre-split or the post-split set — never a blend, never a loss.
//!
//! Two splits are exercised: a leaf split (depth 1 → 2, randomized over
//! key stride and value salt by proptest) and an inner split (depth
//! 2 → 3, where the leaf split propagates into a full root and grows
//! the tree). The split thresholds are probed via [`NbTree::shape`]
//! rather than hard-coding node capacity, so the test tracks layout
//! changes automatically.

use proptest::prelude::*;

use falcon_index::{Index, NbTree};
use falcon_storage::layout::{format, index_slot};
use falcon_storage::NvmAllocator;
use pmem_sim::{FaultPlan, MemCtx, PersistDomain, PmemDevice, SimConfig};

fn adr_device() -> PmemDevice {
    let sim = SimConfig::small()
        .with_capacity(16 << 20)
        .with_domain(PersistDomain::Adr);
    let dev = PmemDevice::new(sim).unwrap();
    format(&dev).unwrap();
    dev
}

/// Number of sequential inserts after which the tree first reaches
/// `depth` — i.e. insert number `n` is the one that triggers the split
/// growing the tree to that depth.
fn inserts_until_depth(depth: u32) -> u64 {
    let dev = adr_device();
    let alloc = NvmAllocator::new(dev);
    let mut ctx = MemCtx::new(0);
    let t = NbTree::create(&alloc, index_slot(2), &mut ctx).unwrap();
    let mut n = 0u64;
    loop {
        n += 1;
        t.insert(n, n, &mut ctx).unwrap();
        if t.shape(&mut ctx).0 >= depth {
            return n;
        }
        assert!(n < 1 << 20, "tree never reached depth {depth}");
    }
}

/// Fill a fresh ADR tree with `prefill` keys (`key = i * stride`,
/// `value = key ^ salt`), then cut the next insert at every device
/// event and check each image reopens to exactly the pre- or
/// post-split key set with intact values.
fn sweep_split_images(prefill: u64, stride: u64, salt: u64) {
    let dev = adr_device();
    let alloc = NvmAllocator::new(dev.clone());
    let mut ctx = MemCtx::new(0);
    let t = NbTree::create(&alloc, index_slot(2), &mut ctx).unwrap();
    for i in 1..=prefill {
        let k = i * stride;
        t.insert(k, k ^ salt, &mut ctx).unwrap();
    }
    drop(t);
    dev.quiesce();
    let trigger = (prefill + 1) * stride;

    // Calibrate: count the device events of the triggering insert.
    let cal = dev.fork();
    cal.install_fault_plan(FaultPlan::calibrate());
    {
        let calloc = NvmAllocator::new(cal.clone());
        let tc = NbTree::open(&calloc, index_slot(2), &mut ctx).unwrap();
        tc.insert(trigger, trigger ^ salt, &mut ctx).unwrap();
    }
    let events = cal.fault_events();
    assert!(events > 0, "calibration saw no device events");

    let pre: Vec<u64> = (1..=prefill).map(|i| i * stride).collect();
    let mut post = pre.clone();
    post.push(trigger);
    for cut in 0..events {
        let f = dev.fork();
        f.install_fault_plan(FaultPlan::cut(0x5eed ^ salt, cut));
        {
            let fal = NvmAllocator::new(f.clone());
            let tf = NbTree::open(&fal, index_slot(2), &mut ctx).unwrap();
            tf.insert(trigger, trigger ^ salt, &mut ctx).unwrap();
        }
        f.crash();
        let fal = NvmAllocator::new(f.clone());
        let tr = NbTree::open(&fal, index_slot(2), &mut ctx)
            .unwrap_or_else(|e| panic!("cut {cut}/{events}: reopen failed: {e}"));
        let mut keys = Vec::new();
        let mut prev = None;
        tr.scan(0, u64::MAX, &mut ctx, &mut |k, v| {
            assert!(prev.is_none_or(|p| k > p), "cut {cut}: unordered scan");
            prev = Some(k);
            assert_eq!(v, k ^ salt, "cut {cut}: key {k} has wrong value");
            keys.push(k);
            true
        })
        .unwrap();
        assert!(
            keys == pre || keys == post,
            "cut {cut}/{events}: key set is neither pre- nor post-split \
             ({} keys, expected {} or {})",
            keys.len(),
            pre.len(),
            post.len()
        );
        assert_eq!(
            tr.len(&mut ctx),
            keys.len() as u64,
            "cut {cut}: len drifted"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Leaf split (depth 1 → 2) under randomized key stride and value
    /// salt: every crash image is pre- xor post-split.
    #[test]
    fn leaf_split_images_are_atomic(stride in 1u64..1000, salt in 1u64..u64::MAX) {
        let leaf_split_at = inserts_until_depth(2);
        sweep_split_images(leaf_split_at - 1, stride, salt);
    }
}

/// Inner split (depth 2 → 3): the triggering insert splits a leaf,
/// overflows the full root inner, splits it, and grows a new root.
/// Every one of the (many more) crash images must still be pre- xor
/// post-split. Deterministic: one sweep is ~root-fanout × leaf-capacity
/// keys and several hundred cut points.
#[test]
fn inner_split_images_are_atomic() {
    let inner_split_at = inserts_until_depth(3);
    sweep_split_images(inner_split_at - 1, 3, 0x00C0_FFEE);
}
