//! The one group-commit loop: a sans-I/O state machine that owns the
//! engine worker, executes every admitted request, and decides when the
//! batched commit fence runs.
//!
//! Both drivers sit on this object — the TCP server's engine thread
//! ([`crate::server`]) and the virtual-clock simulator ([`crate::sim`],
//! which is also the workload of the falcon-chaos serving spec) — so
//! the power cut, the perf gate and the benchmark's twin all exercise
//! the code that serves sockets. The committer never sees a socket, a
//! channel, a wall clock or the fault plane:
//!
//! | input | when the driver sends it | effect |
//! |-------|--------------------------|--------|
//! | [`submit`](GroupCommitter::submit) | one admitted request | execute; release a read's ack at once, hold a write's; fence when pending writes reach `group_max_batch` |
//! | [`flush`](GroupCommitter::flush) | the queue ran empty with writes pending | fence the pending writes (if any), release their acks |
//! | [`drain`](GroupCommitter::drain) | every submitter is gone | final fence, ack release, checkpoint |
//!
//! Everything leaves through a [`CommitSink`]: the per-request
//! execution summary, the fence begin/end bracket, and each released
//! acknowledgement. A write's ack is released only after the fence that
//! covers it — *acked ⇒ durable* is this module's invariant.

use crate::proto::{Op, Response};
use crate::store::{apply_op, OpResult};
use falcon_core::{Engine, EngineError, RetryPolicy, Worker};
use std::borrow::Borrow;

/// Where the committer's outputs go. The TCP server sends acks down
/// per-connection channels and counts fences; the simulator stamps
/// request records and brackets fences in device events.
pub trait CommitSink {
    /// Routing token for one request's acknowledgement.
    type Ack;

    /// `ack`'s request finished executing (before any fence it
    /// triggers, and before its ack is released).
    fn executed(&mut self, ack: &Self::Ack, res: &OpResult);

    /// The group fence is about to be issued.
    fn fence_begin(&mut self);

    /// The group fence completed, covering `txns` write transactions.
    fn fence_end(&mut self, txns: u64);

    /// Deliver `resp` to whoever holds `ack`. `virt_ns` is the worker's
    /// virtual clock at release.
    fn release(&mut self, ack: Self::Ack, resp: Response, virt_ns: u64);
}

/// What the committer reports after draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// The group-commit queue was empty at exit (always true on a
    /// clean drain: the final fence runs before the checkpoint).
    pub group_queue_empty: bool,
    /// Write transactions committed over the committer's lifetime.
    pub committed: u64,
    /// Group fences issued.
    pub fences: u64,
    /// A final checkpoint was published before exit.
    pub checkpointed: bool,
}

/// The group-commit state machine. `E` is an owned [`Engine`] (the
/// server moves it onto the engine thread) or a borrowed one (the
/// simulator runs against an engine its caller keeps).
pub struct GroupCommitter<E: Borrow<Engine>, S: CommitSink> {
    engine: E,
    worker: Worker,
    policy: RetryPolicy,
    max_batch: u64,
    /// Write acks waiting on the next fence.
    held: Vec<(S::Ack, Response)>,
    committed: u64,
    fences: u64,
    sink: S,
}

impl<E: Borrow<Engine>, S: CommitSink> GroupCommitter<E, S> {
    /// Acquire worker 0 of `engine` and build the committer; a batch
    /// fences as soon as it holds `group_max_batch` writes.
    pub fn new(
        engine: E,
        policy: RetryPolicy,
        group_max_batch: usize,
        sink: S,
    ) -> Result<Self, EngineError> {
        let worker = engine.borrow().worker(0)?;
        Ok(GroupCommitter {
            engine,
            worker,
            policy,
            max_batch: group_max_batch as u64,
            held: Vec::new(),
            committed: 0,
            fences: 0,
            sink,
        })
    }

    /// Execute one admitted request. A result that committed no write
    /// (reads, misses, typed failures) is acknowledged at once; a
    /// write's ack is held until the fence that covers it.
    pub fn submit(&mut self, id: u64, op: &Op, seed: u64, ack: S::Ack) {
        let res = apply_op(
            self.engine.borrow(),
            &mut self.worker,
            op,
            &self.policy,
            seed,
        );
        self.sink.executed(&ack, &res);
        let resp = Response {
            id,
            status: res.status,
            payload: res.payload,
        };
        if res.wrote {
            self.committed += 1;
            self.held.push((ack, resp));
            if self.pending() >= self.max_batch {
                self.flush();
            }
        } else {
            self.sink.release(ack, resp, self.worker.ctx.clock);
        }
    }

    /// Fence the pending writes, if any, and release their acks.
    pub fn flush(&mut self) {
        if self.pending() > 0 {
            self.sink.fence_begin();
            let n = self.engine.borrow().group_fence(&mut self.worker);
            self.fences += 1;
            self.sink.fence_end(n);
        }
        let now = self.worker.ctx.clock;
        for (ack, resp) in self.held.drain(..) {
            self.sink.release(ack, resp, now);
        }
    }

    /// Flush the final batch, then checkpoint so recovery starts from a
    /// clean epoch.
    pub fn drain(&mut self) -> DrainReport {
        self.flush();
        let group_queue_empty = self.pending() == 0 && self.held.is_empty();
        self.engine.borrow().checkpoint(&mut self.worker);
        DrainReport {
            group_queue_empty,
            committed: self.committed,
            fences: self.fences,
            checkpointed: true,
        }
    }

    /// Write transactions committed but not yet covered by a fence.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.engine.borrow().group_pending(&self.worker)
    }

    /// The worker's virtual clock, ns.
    #[must_use]
    pub fn virt_ns(&self) -> u64 {
        self.worker.ctx.clock
    }

    /// The sink (the simulator collects its results from it).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Status;
    use crate::store::create_engine;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Ev {
        Executed(u64),
        FenceBegin,
        FenceEnd(u64),
        Release(u64, Status),
    }

    #[derive(Default)]
    struct Rec(Vec<Ev>);

    impl CommitSink for Rec {
        type Ack = u64;
        fn executed(&mut self, ack: &u64, _res: &OpResult) {
            self.0.push(Ev::Executed(*ack));
        }
        fn fence_begin(&mut self) {
            self.0.push(Ev::FenceBegin);
        }
        fn fence_end(&mut self, txns: u64) {
            self.0.push(Ev::FenceEnd(txns));
        }
        fn release(&mut self, ack: u64, resp: Response, _virt_ns: u64) {
            assert_eq!(ack, resp.id, "ack token and response id travel together");
            self.0.push(Ev::Release(ack, resp.status));
        }
    }

    fn committer(max_batch: usize) -> GroupCommitter<Engine, Rec> {
        let (_dev, e) = create_engine(4).expect("engine");
        GroupCommitter::new(e, RetryPolicy::server(), max_batch, Rec::default()).expect("worker 0")
    }

    fn put(gc: &mut GroupCommitter<Engine, Rec>, id: u64) {
        let op = Op::Put {
            key: 100 + id,
            value: id.to_le_bytes().to_vec(),
        };
        gc.submit(id, &op, id, id);
    }

    #[test]
    fn write_ack_waits_for_its_fence_and_read_ack_does_not() {
        let mut gc = committer(8);
        put(&mut gc, 1);
        assert_eq!(gc.pending(), 1);
        gc.submit(2, &Op::Get { key: 0 }, 2, 2);
        // The read is answered inside submit; the write is still held.
        assert_eq!(
            gc.sink.0,
            vec![Ev::Executed(1), Ev::Executed(2), Ev::Release(2, Status::Ok)]
        );
        // A miss commits nothing, so it is released at once too.
        gc.submit(3, &Op::Delete { key: 999 }, 3, 3);
        assert_eq!(gc.sink.0.last(), Some(&Ev::Release(3, Status::NotFound)));
        gc.flush();
        assert_eq!(
            gc.sink.0[5..],
            [Ev::FenceBegin, Ev::FenceEnd(1), Ev::Release(1, Status::Ok)]
        );
        assert_eq!(gc.pending(), 0);
    }

    #[test]
    fn size_trigger_fires_at_exactly_group_max_batch() {
        let mut gc = committer(3);
        put(&mut gc, 1);
        put(&mut gc, 2);
        assert!(!gc.sink.0.contains(&Ev::FenceBegin), "2 of 3: no fence yet");
        assert_eq!(gc.pending(), 2);
        put(&mut gc, 3);
        assert_eq!(
            gc.sink.0[3..],
            [
                Ev::FenceBegin,
                Ev::FenceEnd(3),
                Ev::Release(1, Status::Ok),
                Ev::Release(2, Status::Ok),
                Ev::Release(3, Status::Ok),
            ]
        );
        assert_eq!(gc.pending(), 0);
        // Every write ack sits after the FenceEnd that covers it.
        let fence = gc.sink.0.iter().position(|e| *e == Ev::FenceEnd(3));
        let first_ack = gc.sink.0.iter().position(|e| matches!(e, Ev::Release(..)));
        assert!(fence < first_ack);
    }

    #[test]
    fn flush_with_nothing_pending_issues_no_fence() {
        let mut gc = committer(8);
        gc.flush();
        gc.submit(1, &Op::Get { key: 0 }, 1, 1);
        gc.flush();
        assert!(!gc.sink.0.contains(&Ev::FenceBegin));
        let rep = gc.drain();
        assert_eq!(rep.fences, 0);
    }

    #[test]
    fn drain_fences_the_tail_and_checkpoints() {
        let mut gc = committer(8);
        put(&mut gc, 1);
        put(&mut gc, 2);
        let rep = gc.drain();
        assert_eq!(gc.pending(), 0);
        assert_eq!(
            rep,
            DrainReport {
                group_queue_empty: true,
                committed: 2,
                fences: 1,
                checkpointed: true,
            }
        );
        assert_eq!(
            gc.sink.0[2..],
            [
                Ev::FenceBegin,
                Ev::FenceEnd(2),
                Ev::Release(1, Status::Ok),
                Ev::Release(2, Status::Ok),
            ]
        );
    }
}
