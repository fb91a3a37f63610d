//! CRC-32C (Castagnoli) for redo-record integrity.
//!
//! Every record appended to a log window carries a CRC over its header
//! (excluding the CRC word itself) and payload, so replay can tell a
//! *torn* append (power cut mid-record: valid prefix, garbage tail) from
//! a *corrupt* one (media bit-rot inside a previously durable record).
//! Castagnoli is the polynomial real engines use (`crc32c` instruction);
//! eight 256-entry tables computed at compile time (slicing-by-8) keep
//! this dependency-free while checksumming 8 bytes per step.

const POLY: u32 = 0x82F6_3B78; // CRC-32C, reflected

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, which lets one step
/// fold eight input bytes with eight independent lookups.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            b += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC-32C of `data` (init/final XOR `0xFFFF_FFFF`, reflected).
pub fn crc32c(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// One byte-at-a-time step (the definition the sliced loop must match).
#[inline]
fn step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize]
}

/// Continue a CRC computation over another chunk; `state` is the raw
/// (pre-final-XOR) register, seeded with `0xFFFF_FFFF`.
pub fn update(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    words.remainder().iter().fold(crc, |crc, &b| step(crc, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 test vectors for CRC-32C.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"incremental crc over two chunks";
        let oneshot = crc32c(data);
        let st = update(0xFFFF_FFFF, &data[..10]);
        let st = update(st, &data[10..]);
        assert_eq!(st ^ 0xFFFF_FFFF, oneshot);
    }

    /// Table-free reference: one byte through the shift register.
    fn bitwise(crc: u32, b: u8) -> u32 {
        (0..8).fold(crc ^ u32::from(b), |c, _| {
            if c & 1 != 0 {
                (c >> 1) ^ POLY
            } else {
                c >> 1
            }
        })
    }

    /// The sliced kernel is the bytewise definition, for every length
    /// around the 8-byte stride and every way of splitting the input
    /// across two `update` calls (records are checksummed header, then
    /// payload).
    #[test]
    fn sliced_matches_bytewise_for_every_length_and_split() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in 0..=data.len() {
            let d = &data[..len];
            let want = d.iter().fold(0xFFFF_FFFF, |c, &b| bitwise(c, b));
            assert_eq!(update(0xFFFF_FFFF, d), want, "len {len}");
            for split in 0..=len {
                let st = update(update(0xFFFF_FFFF, &d[..split]), &d[split..]);
                assert_eq!(st, want, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![7u8; 48];
        let before = crc32c(&data);
        data[17] ^= 0x10;
        assert_ne!(crc32c(&data), before);
    }
}
