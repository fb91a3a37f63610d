//! Storage error type.

/// Errors from the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The NVM device has no pages left.
    OutOfSpace,
    /// The superblock magic did not match (device was never formatted or
    /// is corrupt).
    BadMagic {
        /// The value found on the device.
        found: u64,
    },
    /// A schema does not fit in its catalog slot.
    SchemaTooLarge {
        /// Encoded size in bytes.
        encoded: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// The catalog already holds [`crate::MAX_TABLES`] tables.
    TableLimit,
    /// No table with this id exists.
    NoSuchTable(u32),
    /// A thread id exceeded [`crate::MAX_THREADS`].
    ThreadLimit(usize),
    /// A schema failed to decode from the catalog.
    SchemaDecode(&'static str),
    /// A tuple slot size is invalid for its heap.
    BadSlotSize {
        /// The offending size.
        size: u64,
    },
    /// The device is too small for the fixed layout.
    DeviceTooSmall {
        /// Required minimum bytes.
        need: u64,
        /// Actual capacity.
        have: u64,
    },
    /// A tuple-heap page chain failed a structural check during a walk
    /// (see `TupleHeap::scan`).
    CorruptHeap {
        /// The table whose heap failed.
        table: u32,
        /// The page address that failed the check.
        page: u64,
        /// Which check failed.
        what: &'static str,
    },
}

impl core::fmt::Display for StorageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StorageError::OutOfSpace => write!(f, "out of NVM pages"),
            StorageError::BadMagic { found } => {
                write!(f, "bad superblock magic {found:#x}")
            }
            StorageError::SchemaTooLarge { encoded, max } => {
                write!(f, "schema encodes to {encoded} bytes, max {max}")
            }
            StorageError::TableLimit => write!(f, "table limit reached"),
            StorageError::NoSuchTable(id) => write!(f, "no such table {id}"),
            StorageError::ThreadLimit(t) => write!(f, "thread id {t} out of range"),
            StorageError::SchemaDecode(why) => write!(f, "schema decode failed: {why}"),
            StorageError::BadSlotSize { size } => write!(f, "bad tuple slot size {size}"),
            StorageError::DeviceTooSmall { need, have } => {
                write!(f, "device too small: need {need} bytes, have {have}")
            }
            StorageError::CorruptHeap { table, page, what } => {
                write!(f, "table {table} heap page {page:#x}: {what}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let s = StorageError::SchemaTooLarge {
            encoded: 5000,
            max: 4096,
        }
        .to_string();
        assert!(s.contains("5000") && s.contains("4096"));
        assert!(StorageError::OutOfSpace.to_string().contains("pages"));
    }
}
