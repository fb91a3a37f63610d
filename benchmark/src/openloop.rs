//! Open-loop request scheduling: a fixed-rate timetable, a sender that
//! keeps to it, and the bookkeeping that shows when it could not.
//!
//! Every request has a *due* time fixed before the step starts. The
//! sender sleeps until a request is due and sends it; if something
//! stalled it (a full window, a slow write) it does not re-base the
//! timetable — it sends the overdue requests back to back, and each
//! keeps its original due time. Latency is measured from the due time,
//! so the wait a stall imposes on later requests is counted
//! (choosing-metrics §5), and how late the generator ran is reported
//! beside it. The clock is a trait so the arithmetic is tested against
//! a fake one.

/// A monotonic nanosecond clock the sender can wait on.
pub trait Clock {
    /// Nanoseconds since an arbitrary origin.
    fn now_ns(&self) -> u64;
    /// Block until `now_ns() >= t_ns`.
    fn sleep_until(&self, t_ns: u64);
}

/// A send this long after its due time counts as late.
pub const LATE_NS: u64 = 1_000_000;

/// A fixed-rate timetable: request `i` is due at `start + i * period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Due time of request 0.
    pub start_ns: u64,
    /// Gap between due times.
    pub period_ns: u64,
    /// Requests in the step; all are due before `end_ns()`.
    pub count: u64,
}

impl Schedule {
    /// `rate` requests per second for `duration_ns`, starting at
    /// `start_ns`.
    pub fn fixed_rate(start_ns: u64, rate: u64, duration_ns: u64) -> Schedule {
        let period_ns = 1_000_000_000 / rate.max(1);
        Schedule {
            start_ns,
            period_ns,
            count: duration_ns / period_ns,
        }
    }

    /// Due time of request `i`.
    pub fn due(&self, i: u64) -> u64 {
        self.start_ns + i * self.period_ns
    }

    /// The instant the step ends: the sender issues nothing after it.
    pub fn end_ns(&self) -> u64 {
        self.due(self.count)
    }
}

/// What the sender did with a timetable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendLog {
    /// Requests sent.
    pub sent: u64,
    /// Of those, sent more than [`LATE_NS`] after their due time.
    pub late: u64,
    /// Requests still unsent when the step ended (the generator fell
    /// so far behind that their turn never came).
    pub unsent: u64,
    /// Largest send delay seen.
    pub max_late_ns: u64,
}

impl SendLog {
    /// Share of the timetable that went out late or not at all.
    pub fn late_share(&self) -> f64 {
        let total = self.sent + self.unsent;
        if total == 0 {
            0.0
        } else {
            (self.late + self.unsent) as f64 / total as f64
        }
    }
}

/// Latency of a request as the user of an open system sees it: from
/// the moment it was due, not the moment a stalled sender got to it.
pub fn latency_from_due(due_ns: u64, recv_ns: u64) -> u64 {
    recv_ns.saturating_sub(due_ns)
}

/// Walk the timetable. `send(i, due_ns)` transmits request `i` (it may
/// block, e.g. on a full window) and returns the clock reading at
/// which the request actually went out.
pub fn run_schedule<C: Clock>(
    clock: &C,
    sched: &Schedule,
    mut send: impl FnMut(u64, u64) -> u64,
) -> SendLog {
    let mut log = SendLog::default();
    let end = sched.end_ns();
    for i in 0..sched.count {
        let due = sched.due(i);
        if clock.now_ns() < due {
            clock.sleep_until(due);
        } else if clock.now_ns() >= end {
            log.unsent = sched.count - i;
            break;
        }
        let sent_at = send(i, due);
        let delay = sent_at.saturating_sub(due);
        log.sent += 1;
        log.max_late_ns = log.max_late_ns.max(delay);
        if delay > LATE_NS {
            log.late += 1;
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: sleeping jumps to the
    /// target, and the test's `send` advances it by the service time.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn schedule_arithmetic() {
        let s = Schedule::fixed_rate(5 * MS, 1000, 2_000 * MS);
        assert_eq!(s.period_ns, MS);
        assert_eq!(s.count, 2000);
        assert_eq!(s.due(0), 5 * MS);
        assert_eq!(s.due(10), 15 * MS);
        assert_eq!(s.end_ns(), 2005 * MS);
    }

    #[test]
    fn on_time_sender_is_never_late() {
        let clock = FakeClock(Cell::new(0));
        let s = Schedule::fixed_rate(0, 1000, 100 * MS);
        let mut sent_at = Vec::new();
        let log = run_schedule(&clock, &s, |_, _| {
            let t = clock.now_ns();
            clock.0.set(t + 10_000); // 10 µs to write
            sent_at.push(t);
            t
        });
        assert_eq!(
            log,
            SendLog {
                sent: 100,
                late: 0,
                unsent: 0,
                max_late_ns: 0
            }
        );
        // Each request left exactly when due.
        for (i, t) in sent_at.iter().enumerate() {
            assert_eq!(*t, s.due(i as u64));
        }
        assert_eq!(log.late_share(), 0.0);
    }

    #[test]
    fn stall_is_caught_up_without_rebasing_and_counted_late() {
        let clock = FakeClock(Cell::new(0));
        let s = Schedule::fixed_rate(0, 1000, 100 * MS);
        let mut rows = Vec::new();
        let log = run_schedule(&clock, &s, |i, due| {
            if i == 10 {
                // Request 10 blocks for 20 ms before it goes out.
                clock.0.set(clock.now_ns() + 20 * MS);
            }
            let t = clock.now_ns();
            clock.0.set(t + 10_000);
            rows.push((due, t));
            t
        });
        assert_eq!(log.sent, 100);
        assert_eq!(log.unsent, 0);
        // Due times never moved.
        for (i, (due, _)) in rows.iter().enumerate() {
            assert_eq!(*due, i as u64 * MS);
        }
        // Request 10 left at 30 ms; the overdue ones follow back to
        // back at 10 µs spacing, gaining 0.99 ms on the timetable each:
        // request 10+k leaves at 30 ms + k·10 µs against a due time of
        // (10+k) ms, so it is more than 1 ms late while
        // 20 − 0.99·k > 1, i.e. for k ≤ 19.
        assert_eq!(rows[10].1, 30 * MS);
        assert_eq!(rows[11].1, 30 * MS + 10_000);
        assert_eq!(log.late, 20);
        assert_eq!(log.max_late_ns, 20 * MS);
        // Once caught up the sender is back on the timetable.
        assert_eq!(rows[40].1, 40 * MS);
        // Latency counts from the due time: a reply to request 11 that
        // arrives 1 ms after it was sent took ~20 ms, not 1 ms.
        let recv = rows[11].1 + MS;
        assert_eq!(latency_from_due(rows[11].0, recv), 20 * MS + 10_000);
        assert!((log.late_share() - 0.20).abs() < 1e-12);
    }

    #[test]
    fn sender_that_never_catches_up_drops_the_tail() {
        let clock = FakeClock(Cell::new(0));
        // 1000 req/s for 50 ms, but every send takes 5 ms.
        let s = Schedule::fixed_rate(0, 1000, 50 * MS);
        let log = run_schedule(&clock, &s, |_, _| {
            let t = clock.now_ns();
            clock.0.set(t + 5 * MS);
            t
        });
        // Sends start at 0, 5, …, 45 ms: ten go out before the step
        // ends at 50 ms, forty never get their turn.
        assert_eq!(log.sent, 10);
        assert_eq!(log.unsent, 40);
        // Request i leaves at 5i ms against a due time of i ms: late
        // (> 1 ms) from i = 1 on.
        assert_eq!(log.late, 9);
        assert!((log.late_share() - 49.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule() {
        let clock = FakeClock(Cell::new(0));
        let s = Schedule::fixed_rate(0, 1000, 0);
        let log = run_schedule(&clock, &s, |_, _| unreachable!());
        assert_eq!(log, SendLog::default());
        assert_eq!(log.late_share(), 0.0);
    }
}
