//! The `served` workload: `falcon_server::serve` in-process on
//! `127.0.0.1:0`, one connection, a paced sender and a receiver thread.
//!
//! 50 % `Get` / 50 % `Put`, uniform over the 4 096 preloaded keys, each
//! `Put` stamped with its request id.
//!
//! 1. Closed loop, one outstanding (one synchronous caller):
//!    `host_ops_per_s`, `host_p50_us`, `host_p95_us`. Then 32
//!    outstanding, the connection window.
//! 2. Open loop at 250, 1 000, 4 000 and 16 000 req/s: latency from the
//!    *due* time, drained between steps, lateness reported:
//!    `rate_ok_max`.
//! 3. Read back every key that was `Put` and compare with the last
//!    acknowledged writer, `DRAIN`, check the `DrainReport`.
//!
//! The virtual-clock end-to-end numbers come from the serving loop's
//! virtual-clock twin (`falcon_server::sim::run_loop`), since a live
//! TCP server has no virtual clock to read from outside.

use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

use crate::gen::{kv_op, subseed, KvOp};
use crate::metrics::Report;
use crate::openloop::{latency_from_due, run_schedule, Clock, Schedule, SendLog};
use crate::probes;
use crate::stats::{
    better_quartile, median, p50_p99, percentile, ratio, segment_rates, tail_percentile,
};
use crate::surface::{self, Engine, ServerHandle};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::{peak_rss_mb, Outcome, SETUPS, TRACED_DIVISOR};

/// Requests outstanding in the closed loop (the server's per-connection
/// window).
const CLOSED_WINDOW: u64 = 32;

/// Most requests the open loop lets pile up before the sender stalls
/// (and is counted late): the server's admission cap. Without a bound,
/// a step the server cannot keep up with would leave a backlog that
/// takes minutes to drain.
const OPEN_WINDOW: u64 = 256;

/// Fixed rates of the open-loop steps, req/s.
const RATES: [u64; 4] = [250, 1_000, 4_000, 16_000];

/// Latency limit on p99 for a rate to count as met.
const LIMIT_NS: u64 = 5_000_000;

/// Equal-op-count segments of the one-outstanding phase;
/// `host_ops_per_s` is their better quartile, as for embedded windows.
const SEGMENTS: usize = 5;

/// How long a reply may take before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

struct HostClock(Instant);

impl Clock for HostClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, t_ns: u64) {
        // Sleep most of the way, yield the rest: `sleep` alone
        // overshoots by a timer slack comparable to the 62 µs gap of
        // the fastest step.
        loop {
            let left = t_ns.saturating_sub(self.now_ns());
            match left {
                0 => return,
                1..=150_000 => std::thread::yield_now(),
                _ => std::thread::sleep(Duration::from_nanos(left - 100_000)),
            }
        }
    }
}

/// A request as the sender announces it to the receiver, before it is
/// written.
struct Sent {
    id: u64,
    op: KvOp,
    /// When it was due (open loop) or handed to the socket (closed).
    due_ns: u64,
    send_ns: u64,
    /// Stamp a `Get` must return (read-back phase).
    expect: Option<u64>,
}

/// What the receiver saw.
#[derive(Default)]
struct Received {
    /// Latency of each answered request, from its due time.
    latency_ns: Vec<u64>,
    /// Arrival time of each `Ok` reply.
    ok_at_ns: Vec<u64>,
    not_ok: u64,
    /// `Get` replies whose stamp was not the expected writer's.
    mismatched: u64,
    /// `(key, request id)` of each acknowledged `Put`.
    acked_puts: Vec<(u64, u64)>,
    /// Traced requests: `(id, send start, reply arrived, reply decoded)`.
    spans: Vec<(u64, u64, u64, u64)>,
}

/// One phase's results.
struct Phase {
    rx: Received,
    log: SendLog,
    /// Requests outstanding when the sender reached the end of its
    /// timetable.
    backlog_at_end: u64,
    /// Traced requests: `(id, write start, write end)`.
    send_spans: Vec<(u64, u64, u64)>,
    start_ns: u64,
    end_ns: u64,
}

enum Mode {
    /// Send whenever fewer than `window` are outstanding, until
    /// `until_ns` (if any) or the source runs dry.
    Closed { window: u64, until_ns: Option<u64> },
    /// Send on a timetable; stall (and run late) at `OPEN_WINDOW`.
    Open(Schedule),
}

struct Conn {
    stream: TcpStream,
    clock: HostClock,
    next_id: u64,
}

fn receiver(
    mut stream: TcpStream,
    clock: &HostClock,
    sent: &Receiver<Sent>,
    credits: &Sender<()>,
    traced: bool,
) -> io::Result<Received> {
    let mut out = Received::default();
    let mut pending: HashMap<u64, Sent> = HashMap::new();
    loop {
        if pending.is_empty() {
            // Nothing outstanding: wait for the sender, not the socket.
            match sent.recv() {
                Ok(s) => pending.insert(s.id, s),
                Err(_) => return Ok(out),
            };
        }
        // Something is outstanding, so a reply will come.
        let body = surface::read_frame(&mut stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        let arrived = clock.now_ns();
        let reply = surface::decode_resp(&body)?;
        let decoded = clock.now_ns();
        // A request is announced before it is written, so by the time
        // its reply is here the announcement is in the channel.
        while !pending.contains_key(&reply.id) {
            let s = sent.try_recv().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("reply to unknown request {}", reply.id),
                )
            })?;
            pending.insert(s.id, s);
        }
        let s = pending.remove(&reply.id).expect("just checked");
        out.latency_ns.push(latency_from_due(s.due_ns, arrived));
        if reply.ok {
            out.ok_at_ns.push(arrived);
            match s.op {
                KvOp::Put { key } => out.acked_puts.push((key, s.id)),
                KvOp::Get { .. } => {
                    if s.expect.is_some() && reply.stamp != s.expect {
                        out.mismatched += 1;
                    }
                }
            }
        } else {
            out.not_ok += 1;
        }
        if traced {
            out.spans.push((s.id, s.send_ns, arrived, decoded));
        }
        let _ = credits.send(());
    }
}

/// Run one phase: this thread sends, a scoped thread receives; returns
/// once every request sent has been answered. `source` yields the next
/// operation (and the stamp a `Get` must return), or `None` when done.
fn exchange(
    conn: &mut Conn,
    mode: &Mode,
    traced: bool,
    source: &mut dyn FnMut(u64) -> Option<(KvOp, Option<u64>)>,
) -> io::Result<Phase> {
    let (sent_tx, sent_rx) = mpsc::channel::<Sent>();
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let reader = conn.stream.try_clone()?;
    let clock = &conn.clock;
    let stream = &mut conn.stream;
    let next_id = &mut conn.next_id;
    std::thread::scope(|scope| {
        let rx = scope.spawn(move || receiver(reader, clock, &sent_rx, &credit_tx, traced));
        let start_ns = clock.now_ns();
        let mut outstanding = 0u64;
        let mut send_spans = Vec::new();
        let mut failure: Option<io::Error> = None;
        // Send one request now; returns the instant it was handed to
        // the socket.
        let mut send_one = |due_ns: Option<u64>, window: u64| -> Option<u64> {
            while let Ok(()) = credit_rx.try_recv() {
                outstanding -= 1;
            }
            while outstanding >= window {
                match credit_rx.recv_timeout(REPLY_TIMEOUT) {
                    Ok(()) => outstanding -= 1,
                    Err(_) => {
                        failure = Some(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "no reply within the timeout",
                        ));
                        return None;
                    }
                }
            }
            let id = *next_id;
            let (op, expect) = source(id)?;
            *next_id += 1;
            let send_ns = clock.now_ns();
            let announced = sent_tx.send(Sent {
                id,
                op,
                due_ns: due_ns.unwrap_or(send_ns),
                send_ns,
                expect,
            });
            if announced.is_err() {
                return None; // The receiver failed; its error is reported at join.
            }
            if let Err(e) = surface::write_frame(stream, &surface::encode_req(op, id)) {
                failure = Some(e);
                return None;
            }
            outstanding += 1;
            if traced {
                send_spans.push((id, send_ns, clock.now_ns()));
            }
            Some(send_ns)
        };
        let mut log = SendLog::default();
        match mode {
            Mode::Closed { window, until_ns } => {
                while until_ns.is_none_or(|t| clock.now_ns() < t) {
                    if send_one(None, *window).is_none() {
                        break;
                    }
                    log.sent += 1;
                }
            }
            Mode::Open(sched) => {
                let mut dry = false;
                log = run_schedule(clock, sched, |_, due| {
                    if dry {
                        return clock.now_ns();
                    }
                    send_one(Some(due), OPEN_WINDOW).unwrap_or_else(|| {
                        dry = true;
                        clock.now_ns()
                    })
                });
            }
        }
        let end_ns = clock.now_ns();
        while let Ok(()) = credit_rx.try_recv() {
            outstanding -= 1;
        }
        let backlog_at_end = outstanding;
        drop(sent_tx); // The receiver returns once the last reply is in.
        let rx = rx.join().expect("receiver thread panicked")?;
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(Phase {
            rx,
            log,
            backlog_at_end,
            send_spans,
            start_ns,
            end_ns,
        })
    })
}

/// Add a phase's request spans under `parent`: `req` from send to
/// decoded reply, with `client.send` and `client.recv` inside it.
fn add_spans(tracer: &mut Tracer, parent: SpanId, phase: &Phase) {
    let writes: HashMap<u64, (u64, u64)> = phase
        .send_spans
        .iter()
        .map(|&(id, a, b)| (id, (a, b)))
        .collect();
    for &(id, send, arrived, decoded) in &phase.rx.spans {
        let req = tracer.add("req", parent, id, send, decoded);
        if let Some(&(a, b)) = writes.get(&id) {
            tracer.add("client.send", req, id, a, b);
        }
        tracer.add("client.recv", req, id, arrived, decoded);
    }
}

/// Better-quartile reply rate over `SEGMENTS` equal-op-count segments of a
/// closed-loop phase; `None` with fewer replies than segments.
fn steady_rate(p: &Phase) -> Option<f64> {
    let oks = &p.rx.ok_at_ns;
    let per_segment = oks.len() / SEGMENTS;
    if per_segment == 0 {
        return None;
    }
    let marks: Vec<u64> = std::iter::once(p.start_ns)
        .chain((1..=SEGMENTS).map(|k| oks[k * per_segment - 1]))
        .collect();
    Some(better_quartile(
        &segment_rates(&marks, per_segment as u64),
        true,
    ))
}

fn start_server() -> Result<(ServerHandle, f64), String> {
    let t0 = Instant::now();
    let h = surface::serve().map_err(|e| format!("SKIP served (no loopback): {e}"))?;
    Ok((h, t0.elapsed().as_secs_f64()))
}

/// Run the workload, untraced (`tracer == None`: end-to-end metrics)
/// or traced (quarter length, spans, round trip with one outstanding,
/// layer probes on fixtures).
pub fn run(seed: u64, seconds: u64, mut tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let traced = tracer.is_some();
    let divisor = if traced { TRACED_DIVISOR } else { 1 };
    let total_ns = seconds * 1_000_000_000 / divisor;
    let mut report = Report::new();
    let mut problems: Vec<String> = Vec::new();
    let io_err = |what: &str, e: io::Error| format!("{what}: {e}");

    // Set-up: engine create + preload + listener bind.
    let mut setup_s = Vec::new();
    let mut handle = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        if let Some(h) = handle.take() {
            stop(h);
        }
        let (h, s) = start_server()?;
        setup_s.push(s);
        handle = Some(h);
    }
    let handle = handle.expect("at least one set-up");

    let stream =
        surface::connect(surface::server_addr(&handle)).map_err(|e| io_err("connect", e))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| io_err("read timeout", e))?;
    let mut conn = Conn {
        stream,
        clock: HostClock(tracer.as_deref().map_or_else(Instant::now, Tracer::origin)),
        next_id: 1,
    };
    let op_seed = subseed(seed, "served");
    let mut stream_ops = |id: u64| Some((kv_op(op_seed, id, surface::KV_KEYS), None));
    let root = match tracer.as_deref_mut() {
        Some(t) => t.open("run", NO_PARENT, 0),
        None => NO_PARENT,
    };
    let run_start = Instant::now();
    let mut phases: Vec<Phase> = Vec::new();

    // Phase 1: one synchronous caller — closed loop, one outstanding.
    // The end-to-end figures of this workload: at today's 44 ms per
    // round trip nothing else about the server repeats from run to run
    // (see README, "served today").
    let until = conn.clock.now_ns() + total_ns / 6;
    let mut sync = exchange(
        &mut conn,
        &Mode::Closed {
            window: 1,
            until_ns: Some(until),
        },
        traced,
        &mut stream_ops,
    )
    .map_err(|e| io_err("one outstanding", e))?;
    let host_ops_per_s = steady_rate(&sync).ok_or_else(|| {
        format!(
            "one outstanding: {} replies in {} ns",
            sync.rx.ok_at_ns.len(),
            total_ns / 6
        )
    })?;
    // `(p50, tail, samples)`. At 44 ms a round trip the phase cannot
    // collect the 200 samples p95 wants, so the tail is the highest
    // percentile that still leaves ten samples beyond it.
    let lat = &mut sync.rx.latency_ns;
    lat.sort_unstable();
    let tail_at = tail_percentile(lat.len());
    let headline = (percentile(lat, 50.0), percentile(lat, tail_at), lat.len());
    report.put("falcon-server.rtt1.p50_us", headline.0 as f64 / 1e3);
    phases.push(sync);

    // Phase 1b: closed loop, 32 outstanding (the connection window).
    let until = conn.clock.now_ns() + total_ns / 12;
    let closed = exchange(
        &mut conn,
        &Mode::Closed {
            window: CLOSED_WINDOW,
            until_ns: Some(until),
        },
        traced,
        &mut stream_ops,
    )
    .map_err(|e| io_err("closed loop", e))?;
    report.put(
        "falcon-server.closed32.ops_per_s",
        closed.rx.ok_at_ns.len() as f64 * 1e9 / (closed.end_ns - closed.start_ns).max(1) as f64,
    );
    phases.push(closed);

    // Phase 2: open loop at fixed rates. The slowest step gets a third
    // of the run so it collects enough samples for p99; the other
    // three share 5/12.
    let mut rate_ok_max = 0u64;
    let mut all_lower_met = true;
    for (i, rate) in RATES.into_iter().enumerate() {
        let duration = if i == 0 {
            total_ns / 3
        } else {
            total_ns * 5 / 36
        };
        let sched = Schedule::fixed_rate(conn.clock.now_ns() + 1_000_000, rate, duration);
        let mut p = exchange(&mut conn, &Mode::Open(sched), traced, &mut stream_ops)
            .map_err(|e| io_err("open loop", e))?;
        let (p50, p99, n) = p50_p99(&mut p.rx.latency_ns);
        report.put(
            &format!("falcon-server.rate{rate}.p50_us"),
            p50 as f64 / 1e3,
        );
        report.put(
            &format!("falcon-server.rate{rate}.p99_us"),
            p99 as f64 / 1e3,
        );
        if i == 0 {
            // The slowest step is the one with the samples for p99.
            report.put("host_p99_us", p99 as f64 / 1e3);
        }
        report.put(
            &format!("falcon-server.rate{rate}.late_share"),
            p.log.late_share(),
        );
        println!(
            "# rate {rate}: {n} samples, sent {} late {} unsent {} backlog at end {}",
            p.log.sent, p.log.late, p.log.unsent, p.backlog_at_end
        );
        // Little's law at the limit: more than rate × limit in flight
        // when the timetable ends is a backlog, not a pipeline.
        let pipeline = (rate * LIMIT_NS).div_ceil(1_000_000_000).max(1);
        all_lower_met &= p99 <= LIMIT_NS
            && p.rx.not_ok == 0
            && p.log.late_share() < 0.01
            && p.backlog_at_end <= pipeline;
        // A rate counts only if every lower rate was met too.
        if all_lower_met {
            rate_ok_max = rate;
        }
        phases.push(p);
    }
    report.put("rate_ok_max", rate_ok_max as f64);

    // Phase 3: read back every key that was Put and compare with its
    // last acknowledged writer. Puts to one key execute in submission
    // order on the single engine thread, so the last writer is the
    // highest acknowledged request id.
    let mut last_put: HashMap<u64, u64> = HashMap::new();
    for &(key, id) in phases.iter().flat_map(|p| &p.rx.acked_puts) {
        let e = last_put.entry(key).or_default();
        *e = (*e).max(id);
    }
    let acked_puts: u64 = phases.iter().map(|p| p.rx.acked_puts.len() as u64).sum();
    let mut keys: Vec<(u64, u64)> = last_put.into_iter().collect();
    keys.sort_unstable();
    let mut it = keys.iter();
    let readback = exchange(
        &mut conn,
        &Mode::Closed {
            window: CLOSED_WINDOW,
            until_ns: None,
        },
        false,
        &mut |_| it.next().map(|&(key, id)| (KvOp::Get { key }, Some(id))),
    )
    .map_err(|e| io_err("read back", e))?;
    if readback.rx.mismatched > 0 {
        problems.push(format!(
            "{} of {} keys did not read back their last acknowledged Put",
            readback.rx.mismatched,
            keys.len()
        ));
    }
    phases.push(readback);
    let host_run_s = run_start.elapsed().as_secs_f64();

    // Counters, then DRAIN and the drain report.
    let counts = surface::server_counts(&handle);
    let drain_id = conn.next_id;
    surface::write_frame(&mut conn.stream, &surface::encode_drain(drain_id))
        .map_err(|e| io_err("drain", e))?;
    let drained = surface::read_frame(&mut conn.stream)
        .and_then(|b| b.ok_or_else(|| io::ErrorKind::UnexpectedEof.into()))
        .and_then(|b| surface::decode_resp(&b))
        .map_err(|e| io_err("drain reply", e))?;
    if !(drained.ok && drained.id == drain_id) {
        problems.push("DRAIN was not acknowledged".into());
    }
    drop(conn);
    let drain = surface::server_wait(handle);
    if !drain.group_queue_empty {
        problems.push("group-commit queue was not empty at exit".into());
    }
    if drain.committed != acked_puts {
        problems.push(format!(
            "server committed {} writes, client saw {acked_puts} acknowledged Puts",
            drain.committed
        ));
    }
    if let Some(t) = tracer.as_deref_mut() {
        t.close(root);
        for p in &phases {
            add_spans(t, root, p);
        }
    }

    let sent: u64 = phases.iter().map(|p| p.log.sent).sum();
    let not_ok: u64 = phases.iter().map(|p| p.rx.not_ok).sum();
    let answered: u64 = phases.iter().map(|p| p.rx.latency_ns.len() as u64).sum();
    if answered != sent {
        problems.push(format!("{sent} requests sent, {answered} answered"));
    }
    if counts.shed + counts.timeouts > 0 {
        problems.push(format!(
            "server shed {} requests, reaped {} connections",
            counts.shed, counts.timeouts
        ));
    }
    report.put(
        "falcon-server.mean_batch",
        ratio(counts.batch_txns, counts.batches),
    );
    report.put(
        "falcon-server.fences_per_commit",
        ratio(drain.fences, drain.committed),
    );
    report.put("falcon-server.batch_peak", counts.batch_peak as f64);
    report.put("falcon-server.shed", counts.shed as f64);
    report.put("falcon-server.retries", counts.retries as f64);
    report.put("falcon-server.timeouts", counts.timeouts as f64);
    report.put("falcon-wl.host_run_s", host_run_s);

    // The virtual-clock twin.
    let mut twin = surface::serving_twin(
        subseed(seed, "twin"),
        TWIN_WAVES_PER_SECOND * seconds / divisor,
    )?;
    if twin.failed > 0 {
        problems.push(format!(
            "{} of {} twin requests failed",
            twin.failed, twin.requests
        ));
    }
    report.put("falcon-server.sim.virt_txn_per_s", twin.virt_txn_per_s);
    report.put(
        "falcon-server.sim.fences_per_commit",
        twin.fences_per_commit,
    );

    let (virt_p50, virt_p99, _) = p50_p99(&mut twin.latency_virt_ns);
    report.put("virt_p50_ns", virt_p50 as f64);
    report.put("virt_p99_ns", virt_p99 as f64);
    if !traced {
        report.put("setup_s", median(&setup_s));
        report.put("host_ops_per_s", host_ops_per_s);
        report.put("host_p50_us", headline.0 as f64 / 1e3);
        report.put("host_p95_us", headline.1 as f64 / 1e3);
        report.put("virt_txn_per_s", twin.virt_txn_per_s);
        println!(
            "# one outstanding: {} round trips; host_p95_us is their p{tail_at:.1}",
            headline.2
        );
    }

    // Traced pass: layer probes on fixtures, then the serving engine's
    // device counters and a power cut, on the socket-less fixture.
    let mut checks = keys.len() as u64 + 3;
    let mut fixture_ops = 0;
    if let Some(t) = tracer {
        let (costs, kv) = probes::run_served(seed, t, &mut report);
        report.put(
            "falcon-wl.unexplained_host_share",
            1.0 - (costs.codec + costs.apply) / headline.0 as f64,
        );
        let (n, c) = fixture_tail(kv, seed, &mut report, &mut problems)?;
        fixture_ops = n;
        checks += c;
    }

    let attempted = sent + twin.requests + fixture_ops + checks;
    let failed = not_ok + twin.failed + problems.len() as u64;
    report.put("failed_share", failed as f64 / attempted as f64);
    if !traced {
        report.put("peak_rss_mb", peak_rss_mb());
    }
    Ok(Outcome {
        report,
        attempted,
        failed,
        problems,
    })
}

/// Waves of 32 requests the twin runs per `--seconds`.
const TWIN_WAVES_PER_SECOND: u64 = 250;

/// Serving-mix operations per stage of the fixture tail.
const FIXTURE_OPS: u64 = 4_096;

/// The serving engine without sockets: run the `served` op mix through
/// `store::apply_op` with a fence every 16 writes (as the engine thread
/// batches) for the device counters per request; then cut power at a
/// seeded event, recover, and check every preloaded key is readable.
/// Returns `(operations applied, checks made)`.
fn fixture_tail(
    kv: Engine,
    seed: u64,
    report: &mut Report,
    problems: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let op_seed = subseed(seed, "fixture");
    let mut w = surface::worker(&kv, 0);
    let mut id = 0u64;
    let mut stage = |w: &mut surface::Worker, n: u64| {
        let mut writes = 0;
        for _ in 0..n {
            let op = kv_op(op_seed, id, surface::KV_KEYS);
            if !surface::apply(&kv, w, op, id) {
                problems.push(format!("fixture request {id} was not Ok"));
            }
            id += 1;
            writes += u64::from(matches!(op, KvOp::Put { .. }));
            if writes == 16 {
                surface::group_fence(&kv, w);
                writes = 0;
            }
        }
        surface::group_fence(&kv, w);
    };
    let c0 = surface::worker_counters(&w);
    let t0 = Instant::now();
    stage(&mut w, FIXTURE_OPS);
    let host_ns = t0.elapsed().as_nanos() as f64;
    let c = surface::worker_counters(&w).since(&c0);
    crate::put_device_counters(report, &c, FIXTURE_OPS, host_ns);

    let cut_seed = subseed(seed, "cut");
    surface::arm_calibration(&kv);
    stage(&mut w, FIXTURE_OPS / 8);
    let events = surface::fault_events(&kv);
    surface::arm_cut(
        &kv,
        cut_seed,
        crate::gen::mix(cut_seed, 1) % (events / 2).max(1),
    );
    stage(&mut w, FIXTURE_OPS / 8);
    drop(w);
    let (kv, rec) = surface::crash_and_recover(kv)?;
    if !rec.tripped {
        problems.push(format!(
            "fixture power cut below event {events} never tripped"
        ));
    }
    crate::put_recovery(report, &rec);
    let checks = match surface::check_kv(&kv) {
        Ok(n) => n,
        Err(e) => {
            problems.push(e);
            1
        }
    };
    Ok((FIXTURE_OPS + FIXTURE_OPS / 4, checks))
}

fn stop(h: ServerHandle) {
    surface::server_shutdown(&h);
    surface::server_wait(h);
}
