//! Deterministic fault injection: seeded power cuts, torn writes, bit-rot.
//!
//! A [`FaultPlan`] installed on a [`crate::PmemDevice`] turns the next
//! [`crate::PmemDevice::crash`] into an *adversarial* power failure:
//!
//! * **Cut anywhere.** Every mutating device operation (store, zero,
//!   atomic RMW, `clwb`, `sfence`, cache-line writeback) ticks a global
//!   event counter while a plan is installed. When the counter reaches
//!   `cut_at_event` the device freezes its *durable overlay* (the lines
//!   whose crash-surviving bytes differ from the image) **before** the
//!   tripping operation mutates anything: from then on every line an
//!   operation changes first keeps its bytes at the cut there, and
//!   writebacks no longer make lines durable. Execution continues
//!   normally (the workload does not observe the cut), but the
//!   subsequent `crash()` reverts every overlay line, so everything after
//!   the cut point vanishes exactly as if power had been lost
//!   mid-operation.
//! * **Torn writes.** If `tear_writes` is set, the tripping operation is
//!   applied *partially* to the overlay at 8-byte atomicity granularity: a
//!   multi-word store under eADR persists a seeded word-prefix; a
//!   cache-line writeback under ADR persists a seeded word-subset of the
//!   line. Single 8-byte aligned stores never tear (word atomicity).
//! * **Bit-rot.** `bit_flips` lists media bits to flip when the crash is
//!   applied, modelling media corruption that recovery must detect.
//!
//! Everything is a pure function of the plan (seed, cut index, flips), so
//! any failure a fuzzer finds is replayable by re-installing the same
//! plan — the chaos driver prints exactly that tuple.
//!
//! When no plan is installed the only overhead on the hot path is one
//! relaxed atomic load per mutating operation, plus one for the
//! overlay's capture test (whether the plan has tripped).

/// One media bit to flip when the faulty crash is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    /// Byte offset into the device.
    pub addr: u64,
    /// Bit index within the byte (0..8).
    pub bit: u8,
}

/// A seeded fault-injection plan. Install with
/// [`crate::PmemDevice::install_fault_plan`]; consumed by the next
/// [`crate::PmemDevice::crash`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the tear-pattern RNG (derived per event, replayable).
    pub seed: u64,
    /// Device-event index at which power is cut. `None` never trips —
    /// useful for calibration runs that only count events.
    pub cut_at_event: Option<u64>,
    /// Apply the tripping operation partially (8-byte granularity)
    /// instead of dropping it entirely.
    pub tear_writes: bool,
    /// Media bits to flip when the crash is applied (bit-rot).
    pub bit_flips: Vec<BitFlip>,
}

impl FaultPlan {
    /// A plan that cuts power at `cut_at_event` with torn writes enabled
    /// and no bit-rot.
    pub fn cut(seed: u64, cut_at_event: u64) -> FaultPlan {
        FaultPlan {
            seed,
            cut_at_event: Some(cut_at_event),
            tear_writes: true,
            bit_flips: Vec::new(),
        }
    }

    /// A plan that never trips: the device merely counts events, so a
    /// calibration run can learn the total event count of a workload.
    pub fn calibrate() -> FaultPlan {
        FaultPlan {
            seed: 0,
            cut_at_event: None,
            tear_writes: false,
            bit_flips: Vec::new(),
        }
    }
}

/// What the faulty crash actually did; returned by
/// [`crate::PmemDevice::fault_outcome`] after the crash consumed the
/// plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultOutcome {
    /// Event index the plan tripped at, or `None` if the workload
    /// finished in fewer events than `cut_at_event`.
    pub tripped_at: Option<u64>,
    /// Total mutating device events counted while the plan was live.
    pub events: u64,
    /// 8-byte words of the tripping operation that persisted (torn
    /// write). Zero when the cut fell cleanly between operations.
    pub torn_words: u64,
    /// Bit flips actually applied (in-range entries of the plan).
    pub bit_flips_applied: u64,
}

/// splitmix64-style mixer: derive a replayable per-event pattern from
/// the plan seed.
pub(crate) fn mix(seed: u64, event: u64) -> u64 {
    let mut x = seed ^ event.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }

    #[test]
    fn plan_constructors() {
        let p = FaultPlan::cut(7, 42);
        assert_eq!(p.cut_at_event, Some(42));
        assert!(p.tear_writes);
        let c = FaultPlan::calibrate();
        assert_eq!(c.cut_at_event, None);
    }
}
