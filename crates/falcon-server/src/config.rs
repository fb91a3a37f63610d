//! Server configuration: admission, backpressure, group commit, and
//! timeout knobs.

use falcon_core::RetryPolicy;

/// Tunable server limits. Every field has a hard, typed failure mode —
/// hitting a cap produces an `Overloaded`/`ShuttingDown` response or a
/// reaped connection, never a silent drop or an unbounded queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Hard cap on queued-but-unexecuted requests across all
    /// connections. Admission beyond this sheds with
    /// [`Status::Overloaded`](crate::proto::Status::Overloaded).
    pub admission_cap: usize,
    /// Per-connection in-flight window: a connection's reader stops
    /// pulling bytes off the socket once this many of its requests are
    /// unanswered, so backpressure propagates to the client via TCP.
    pub conn_window: u64,
    /// Socket read timeout in milliseconds. A blocked read returns and
    /// lets the reader notice drain or idle expiry.
    pub read_timeout_ms: u64,
    /// Socket write timeout in milliseconds; a stalled client peer
    /// fails the write and reaps the connection.
    pub write_timeout_ms: u64,
    /// A connection idle (no complete frame) for this long is reaped.
    pub idle_timeout_ms: u64,
    /// Most transactions one group commit covers: the batch fences as
    /// soon as it reaches this size, or earlier when the admission
    /// queue runs empty — a pending write never waits on a timer.
    pub group_max_batch: usize,
    /// Retry budget and backoff for transient engine errors; exhaustion
    /// becomes a typed `RetryExhausted` response.
    pub retry: RetryPolicy,
    /// Seed for retry jitter.
    pub seed: u64,
    /// Fault-injection knob for overload testing: stretch every
    /// engine-thread execution by this many microseconds so the
    /// admission queue demonstrably fills. Zero (the default) in any
    /// real deployment.
    pub engine_slowdown_us: u64,
    /// Rows preloaded (durably) at startup, keys `0..preload_keys`.
    pub preload_keys: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            admission_cap: 256,
            conn_window: 32,
            read_timeout_ms: 50,
            write_timeout_ms: 1_000,
            idle_timeout_ms: 5_000,
            group_max_batch: 16,
            retry: RetryPolicy::server(),
            seed: 0x5EB5_E4FE,
            engine_slowdown_us: 0,
            preload_keys: 64,
        }
    }
}

impl ServerConfig {
    /// Validate the knobs; every rule names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.admission_cap == 0 {
            return Err("admission_cap must be at least 1".into());
        }
        if self.conn_window == 0 {
            return Err("conn_window must be at least 1".into());
        }
        if self.group_max_batch == 0 {
            return Err("group_max_batch must be at least 1".into());
        }
        if self.read_timeout_ms == 0 || self.write_timeout_ms == 0 {
            return Err(
                "read/write timeouts must be nonzero (use idle_timeout_ms for patience)".into(),
            );
        }
        if self.idle_timeout_ms < self.read_timeout_ms {
            return Err("idle_timeout_ms must be at least read_timeout_ms".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert_eq!(ServerConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_caps_are_rejected_by_name() {
        let broken = |f: fn(&mut ServerConfig)| {
            let mut c = ServerConfig::default();
            f(&mut c);
            c.validate().unwrap_err()
        };
        assert!(broken(|c| c.admission_cap = 0).contains("admission_cap"));
        assert!(broken(|c| c.group_max_batch = 0).contains("group_max_batch"));
        assert!(broken(|c| c.conn_window = 0).contains("conn_window"));
        assert!(broken(|c| c.idle_timeout_ms = 1).contains("idle_timeout_ms"));
    }
}
