//! YCSB (Cooper et al., SoCC '10) as configured in the paper (§6.1):
//! one table, 8-byte keys, ten 100-byte columns (~1 KB tuples), and —
//! matching the paper's out-of-place-friendly choice — updates that
//! rewrite *all* ten fields. Workloads A–F, Uniform or Zipfian
//! (θ = 0.99) request distributions.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::Rng;

use falcon_core::table::{IndexKind, TableDef};
use falcon_core::{Engine, TxnError, Worker};
use falcon_storage::{ColType, Schema};
use pmem_sim::MemCtx;

use crate::harness::Workload;
use crate::zipf::Zipfian;

/// The YCSB table id.
pub const TABLE: u32 = 0;

/// The six core workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbWorkload {
    /// 50 % read / 50 % update.
    A,
    /// 95 % read / 5 % update.
    B,
    /// 100 % read.
    C,
    /// 95 % read-latest / 5 % insert.
    D,
    /// 95 % scan / 5 % insert.
    E,
    /// 50 % read / 50 % read-modify-write.
    F,
}

impl YcsbWorkload {
    /// All six workloads in order.
    pub fn all() -> [YcsbWorkload; 6] {
        [
            YcsbWorkload::A,
            YcsbWorkload::B,
            YcsbWorkload::C,
            YcsbWorkload::D,
            YcsbWorkload::E,
            YcsbWorkload::F,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            YcsbWorkload::A => "YCSB-A",
            YcsbWorkload::B => "YCSB-B",
            YcsbWorkload::C => "YCSB-C",
            YcsbWorkload::D => "YCSB-D",
            YcsbWorkload::E => "YCSB-E",
            YcsbWorkload::F => "YCSB-F",
        }
    }
}

/// Request distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Uniform over the key space.
    Uniform,
    /// Zipfian with the given θ (the paper uses 0.99).
    Zipfian,
}

impl Dist {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Dist::Uniform => "Uniform",
            Dist::Zipfian => "Zipfian",
        }
    }
}

/// YCSB configuration.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Rows loaded before the run (the paper loads 256 M; scaled here).
    pub records: u64,
    /// Number of value columns (10).
    pub fields: usize,
    /// Bytes per column (100).
    pub field_len: u32,
    /// Workload letter.
    pub workload: YcsbWorkload,
    /// Request distribution.
    pub dist: Dist,
    /// Zipfian θ.
    pub theta: f64,
    /// Maximum scan length (workload E).
    pub max_scan: u64,
}

impl YcsbConfig {
    /// The scaled default: 64 K records (≈ 64 MB of tuples).
    pub fn new(workload: YcsbWorkload, dist: Dist) -> YcsbConfig {
        YcsbConfig {
            records: 64 << 10,
            fields: 10,
            field_len: 100,
            workload,
            dist,
            theta: 0.99,
            max_scan: 100,
        }
    }

    /// Builder-style record-count override.
    pub fn with_records(mut self, n: u64) -> Self {
        self.records = n;
        self
    }

    /// Builder-style field-length override (Figure 12 sweeps tuple
    /// size).
    pub fn with_field_len(mut self, len: u32) -> Self {
        self.field_len = len;
        self
    }

    /// Tuple data size implied by this configuration.
    pub fn tuple_size(&self) -> u32 {
        8 + self.fields as u32 * self.field_len
    }
}

fn key_fn(_s: &Schema, row: &[u8]) -> u64 {
    u64::from_le_bytes(row[0..8].try_into().unwrap())
}

/// The YCSB workload driver.
pub struct Ycsb {
    cfg: YcsbConfig,
    zipf: Option<Zipfian>,
    /// Next key for inserts (workloads D/E grow the key space).
    insert_cursor: AtomicU64,
}

impl Ycsb {
    /// Build the driver.
    pub fn new(cfg: YcsbConfig) -> Ycsb {
        let zipf = match cfg.dist {
            Dist::Zipfian => Some(Zipfian::new(cfg.records, cfg.theta)),
            Dist::Uniform => None,
        };
        Ycsb {
            insert_cursor: AtomicU64::new(cfg.records),
            zipf,
            cfg,
        }
    }

    /// The table definition for this configuration (B+tree when scans
    /// are needed, hash otherwise — mirroring the paper's use of NBTree
    /// vs Dash).
    pub fn table_def(&self) -> TableDef {
        let kind = if self.cfg.workload == YcsbWorkload::E {
            IndexKind::BTree
        } else {
            IndexKind::Hash
        };
        let mut cols: Vec<(String, ColType)> = vec![("key".to_string(), ColType::U64)];
        for f in 0..self.cfg.fields {
            cols.push((format!("field{f}"), ColType::Bytes(self.cfg.field_len)));
        }
        let pairs: Vec<(&str, ColType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        TableDef {
            schema: Schema::new("usertable", &pairs),
            index_kind: kind,
            capacity_hint: self.cfg.records * 2,
            primary_key: key_fn,
            secondary: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &YcsbConfig {
        &self.cfg
    }

    fn row(&self, key: u64, fill: u8) -> Vec<u8> {
        let size = self.table_schema_size();
        let mut row = vec![fill; size];
        row[0..8].copy_from_slice(&key.to_le_bytes());
        row
    }

    fn table_schema_size(&self) -> usize {
        // Matches Schema::new's 8-byte rounding.
        let raw = 8 + self.cfg.fields * self.cfg.field_len as usize;
        raw.div_ceil(8) * 8
    }

    fn pick_key<R: Rng>(&self, rng: &mut R) -> u64 {
        let n = self.insert_cursor.load(Ordering::Relaxed);
        match &self.zipf {
            Some(z) => z.next_scrambled(rng),
            None => rng.random_range(0..n),
        }
    }

    fn pick_latest<R: Rng>(&self, rng: &mut R) -> u64 {
        // Workload D: reads cluster on recently-inserted keys.
        let n = self.insert_cursor.load(Ordering::Relaxed);
        let back = match &self.zipf {
            Some(z) => z.next_rank(rng).min(n - 1),
            None => rng.random_range(0..n.min(1000)),
        };
        n - 1 - back
    }

    /// One field's worth of `byte` (the value every updated column gets).
    fn payload(&self, byte: u8) -> Vec<u8> {
        vec![byte; self.cfg.field_len as usize]
    }

    /// All-field update ops for a row (the paper's configuration): every
    /// column is set to the same `payload`.
    fn update_ops<'p>(&self, payload: &'p [u8]) -> Vec<(u32, &'p [u8])> {
        (0..self.cfg.fields as u32)
            .map(|f| (8 + f * self.cfg.field_len, payload))
            .collect()
    }
}

impl Workload for Ycsb {
    fn setup(&self, engine: &Engine) {
        let mut ctx = MemCtx::new(0);
        let threads = engine.config().threads;
        for k in 0..self.cfg.records {
            let row = self.row(k, (k % 251) as u8);
            engine
                .load_row(TABLE, (k % threads as u64) as usize, &row, &mut ctx)
                .expect("ycsb load");
        }
    }

    fn txn(&self, engine: &Engine, w: &mut Worker, rng: &mut StdRng) -> Result<usize, TxnError> {
        // Drawn first on every path so key streams do not depend on the
        // read/write split; only write paths materialise the payload.
        let payload_byte: u8 = rng.random();
        match self.cfg.workload {
            YcsbWorkload::A | YcsbWorkload::B | YcsbWorkload::C => {
                let write_pct = match self.cfg.workload {
                    YcsbWorkload::A => 50,
                    YcsbWorkload::B => 5,
                    _ => 0,
                };
                let key = self.pick_key(rng);
                if rng.random_range(0..100) < write_pct {
                    let mut t = engine.begin(w, false);
                    let payload = self.payload(payload_byte);
                    t.update(TABLE, key, &self.update_ops(&payload))?;
                    t.commit()?;
                    Ok(1)
                } else {
                    let mut t = engine.begin(w, true);
                    t.read(TABLE, key)?;
                    t.commit()?;
                    Ok(0)
                }
            }
            YcsbWorkload::D => {
                if rng.random_range(0..100) < 5 {
                    let key = self.insert_cursor.fetch_add(1, Ordering::Relaxed);
                    let mut t = engine.begin(w, false);
                    t.insert(TABLE, &self.row(key, payload_byte))?;
                    t.commit()?;
                    Ok(2)
                } else {
                    let key = self.pick_latest(rng);
                    let mut t = engine.begin(w, true);
                    t.read(TABLE, key)?;
                    t.commit()?;
                    Ok(0)
                }
            }
            YcsbWorkload::E => {
                if rng.random_range(0..100) < 5 {
                    let key = self.insert_cursor.fetch_add(1, Ordering::Relaxed);
                    let mut t = engine.begin(w, false);
                    t.insert(TABLE, &self.row(key, payload_byte))?;
                    t.commit()?;
                    Ok(2)
                } else {
                    let lo = self.pick_key(rng);
                    let len = rng.random_range(1..=self.cfg.max_scan);
                    let mut t = engine.begin(w, true);
                    let mut n = 0u64;
                    t.scan(TABLE, lo, lo.saturating_add(len * 4), |_, _| {
                        n += 1;
                        n < len
                    })?;
                    t.commit()?;
                    Ok(3)
                }
            }
            YcsbWorkload::F => {
                let key = self.pick_key(rng);
                if rng.random_range(0..100) < 50 {
                    // Read-modify-write: the read makes this conflict-
                    // prone (the paper notes F has more conflicts than
                    // A).
                    let mut t = engine.begin(w, false);
                    let cur = t.read(TABLE, key)?;
                    let mut payload = self.payload(payload_byte);
                    payload[0] = cur[8].wrapping_add(1);
                    t.update(TABLE, key, &self.update_ops(&payload))?;
                    t.commit()?;
                    Ok(4)
                } else {
                    let mut t = engine.begin(w, true);
                    t.read(TABLE, key)?;
                    t.commit()?;
                    Ok(0)
                }
            }
        }
    }

    fn txn_types(&self) -> &'static [&'static str] {
        &["read", "update", "insert", "scan", "rmw"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let c = YcsbConfig::new(YcsbWorkload::A, Dist::Uniform)
            .with_records(100)
            .with_field_len(8);
        assert_eq!(c.records, 100);
        assert_eq!(c.tuple_size(), 8 + 80);
    }

    #[test]
    fn table_def_picks_btree_for_scans() {
        let e = Ycsb::new(YcsbConfig::new(YcsbWorkload::E, Dist::Uniform));
        assert!(matches!(e.table_def().index_kind, IndexKind::BTree));
        let a = Ycsb::new(YcsbConfig::new(YcsbWorkload::A, Dist::Uniform));
        assert!(matches!(a.table_def().index_kind, IndexKind::Hash));
    }

    #[test]
    fn row_layout_matches_schema() {
        let y = Ycsb::new(YcsbConfig::new(YcsbWorkload::A, Dist::Uniform).with_records(10));
        let def = y.table_def();
        assert_eq!(y.row(3, 0).len(), def.schema.tuple_size() as usize);
        assert_eq!((def.primary_key)(&def.schema, &y.row(3, 0)), 3);
    }

    #[test]
    fn update_ops_cover_all_fields() {
        let y = Ycsb::new(YcsbConfig::new(YcsbWorkload::A, Dist::Uniform));
        let ops = y.update_ops(&[7u8; 100]);
        assert_eq!(ops.len(), 10);
        assert_eq!(ops[0].0, 8);
        assert_eq!(ops[9].0, 8 + 900);
    }
}
