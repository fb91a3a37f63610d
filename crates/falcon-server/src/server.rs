//! The live TCP server: listener/worker split, per-connection reader
//! and writer threads, a single engine thread draining a bounded
//! admission queue in group-commit batches.
//!
//! Threading model: one listener (accepts, spawns connections), one
//! engine thread (feeds the [`GroupCommitter`] — which owns the engine
//! and worker 0, executes every transaction, fences group batches and
//! releases write acks only after the fence — from the admission
//! queue), and per connection a reader (frame parsing, admission,
//! typed sheds) plus a writer (response frames, in-flight window
//! release). All queues are bounded: the admission queue at
//! `admission_cap` (overflow sheds `Overloaded`), the per-connection
//! window at `conn_window` (overflow stops reading the socket, so
//! backpressure reaches the client through TCP).
//!
//! Nothing on the request path waits on a timer. Accepted sockets set
//! `TCP_NODELAY`; the writer puts every response already queued — the
//! acks one fence released — into one buffer and one `write`; the
//! reader parses frames in place; and the engine thread fences pending
//! writes the moment the admission queue runs empty instead of holding
//! them for a batch that may not come.
//!
//! Shutdown: a `DRAIN` request (or [`ServerHandle::shutdown`]) flips
//! the drain flag. The listener stops accepting, readers answer any
//! still-pipelined requests with `ShuttingDown` and wind down, and
//! once every submitter is gone the engine thread drains the
//! committer: last group batch flushed, checkpoint, empty queue.

use crate::commit::{CommitSink, DrainReport, GroupCommitter};
use crate::config::ServerConfig;
pub use crate::proto::CounterSnapshot;
use crate::proto::{decode_request, frame_response_into, Op, Request, Response, Status, MAX_FRAME};
use crate::store::{create_engine, OpResult};
use falcon_core::retry::mix64;
use falcon_core::Engine;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Monotonic counters the server maintains.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Requests admitted to the engine queue.
    pub admitted: AtomicU64,
    /// Requests shed with `Overloaded` at the admission cap.
    pub shed_overloaded: AtomicU64,
    /// Requests shed with `ShuttingDown` during drain.
    pub shed_shutting_down: AtomicU64,
    /// Frames that failed to decode (answered `BadRequest`).
    pub bad_requests: AtomicU64,
    /// Connections reaped by the idle/stall timeout.
    pub timeouts: AtomicU64,
    /// Connections accepted.
    pub conns_opened: AtomicU64,
    /// Connections closed (any reason).
    pub conns_closed: AtomicU64,
    /// Transient-error retries consumed by the engine thread.
    pub retries: AtomicU64,
    /// Requests whose retry budget ran out (`RetryExhausted`).
    pub retries_exhausted: AtomicU64,
    /// Group fences issued.
    pub batches: AtomicU64,
    /// Write transactions covered by group fences.
    pub batch_txns: AtomicU64,
    /// Largest single group batch.
    pub batch_peak: AtomicU64,
}

impl ServerCounters {
    fn add(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot every counter.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_overloaded: self.shed_overloaded.load(Ordering::Relaxed),
            shed_shutting_down: self.shed_shutting_down.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            conns_opened: self.conns_opened.load(Ordering::Relaxed),
            conns_closed: self.conns_closed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            retries_exhausted: self.retries_exhausted.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_txns: self.batch_txns.load(Ordering::Relaxed),
            batch_peak: self.batch_peak.load(Ordering::Relaxed),
        }
    }
}

/// Per-connection in-flight window: the reader blocks once
/// `conn_window` responses are outstanding, so a client that stops
/// reading eventually stops being read.
struct Window {
    state: Mutex<u64>,
    cv: Condvar,
    limit: u64,
}

impl Window {
    fn new(limit: u64) -> Window {
        Window {
            state: Mutex::new(0),
            cv: Condvar::new(),
            limit,
        }
    }

    /// Block until a slot frees; gives up (returns false) if `dead`
    /// flips while waiting.
    fn acquire(&self, dead: &AtomicBool) -> bool {
        let mut n = self.state.lock().expect("window");
        while *n >= self.limit {
            if dead.load(Ordering::Relaxed) {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(n, Duration::from_millis(10))
                .expect("window");
            n = guard;
        }
        *n += 1;
        true
    }

    /// Free `slots` slots (the one reader is the only waiter).
    fn release(&self, slots: u64) {
        let mut n = self.state.lock().expect("window");
        *n = n.saturating_sub(slots);
        self.cv.notify_one();
    }
}

/// One unit of engine work.
struct Job {
    req: Request,
    reply: Sender<Response>,
    seed: u64,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or send `DRAIN`) then
/// [`ServerHandle::wait`].
pub struct ServerHandle {
    addr: SocketAddr,
    draining: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
    listener: Option<JoinHandle<()>>,
    engine: Option<JoinHandle<DrainReport>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot.
    #[must_use]
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Shared handle to the counters, usable after [`ServerHandle::wait`].
    #[must_use]
    pub fn counters_arc(&self) -> Arc<ServerCounters> {
        Arc::clone(&self.counters)
    }

    /// Begin a graceful drain (idempotent; `DRAIN` over the wire does
    /// the same).
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Block until the server has fully drained: listener gone, every
    /// connection closed, group-commit queue flushed, checkpoint
    /// published.
    pub fn wait(mut self) -> DrainReport {
        if let Some(l) = self.listener.take() {
            l.join().expect("listener thread");
        }
        loop {
            let h = self.conns.lock().expect("conns").pop();
            match h {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        self.engine
            .take()
            .expect("engine thread")
            .join()
            .expect("engine thread")
    }
}

/// Start the server. Returns once the listener is bound; everything
/// else runs on background threads. Every startup failure — bad knobs,
/// engine creation, worker acquisition, bind — is an `io::Error` here,
/// before any thread exists.
pub fn serve(cfg: ServerConfig) -> io::Result<ServerHandle> {
    cfg.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let (_dev, engine) = create_engine(cfg.preload_keys).map_err(io::Error::other)?;
    let counters = Arc::new(ServerCounters::default());
    let committer = GroupCommitter::new(
        engine,
        cfg.retry,
        cfg.group_max_batch,
        ChannelSink {
            counters: Arc::clone(&counters),
        },
    )
    .map_err(io::Error::other)?;
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let draining = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let (tx, rx) = mpsc::sync_channel::<Job>(cfg.admission_cap);

    let engine_jh = {
        let cfg = cfg.clone();
        thread::spawn(move || engine_thread(committer, &rx, &cfg))
    };

    let listener_jh = {
        let counters = Arc::clone(&counters);
        let draining = Arc::clone(&draining);
        let conns = Arc::clone(&conns);
        thread::spawn(move || {
            listener_thread(&listener, &tx, &cfg, &counters, &draining, &conns);
        })
    };

    Ok(ServerHandle {
        addr,
        draining,
        counters,
        listener: Some(listener_jh),
        engine: Some(engine_jh),
        conns,
    })
}

fn listener_thread(
    listener: &TcpListener,
    tx: &SyncSender<Job>,
    cfg: &ServerConfig,
    counters: &Arc<ServerCounters>,
    draining: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_conn = 0u64;
    while !draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                counters.add(&counters.conns_opened);
                let tx = tx.clone();
                let cfg = cfg.clone();
                let counters = Arc::clone(counters);
                let draining = Arc::clone(draining);
                let conn_id = next_conn;
                next_conn += 1;
                let jh = thread::spawn(move || {
                    connection(stream, tx, &cfg, &counters, draining, conn_id);
                    counters.add(&counters.conns_closed);
                });
                conns.lock().expect("conns").push(jh);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
    // tx (the prototype sender) drops here; once every connection's
    // clone is gone the engine thread sees Disconnected and drains.
}

/// Everything one connection's reader needs to admit a frame.
struct Conn {
    tx: SyncSender<Job>,
    counters: Arc<ServerCounters>,
    draining: Arc<AtomicBool>,
    window: Arc<Window>,
    dead: Arc<AtomicBool>,
    wtx: Sender<Response>,
    /// `cfg.seed` mixed with the connection id; request seeds derive
    /// from it by request number.
    seed: u64,
    idle: Duration,
}

/// Run one connection: spawn the writer, then read/admit frames until
/// EOF, reaping, or drain.
fn connection(
    stream: TcpStream,
    tx: SyncSender<Job>,
    cfg: &ServerConfig,
    counters: &Arc<ServerCounters>,
    draining: Arc<AtomicBool>,
    conn_id: u64,
) {
    // Replies are small and latency-bound: never let Nagle hold one
    // for the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms)));
    let Ok(wstream) = stream.try_clone() else {
        return;
    };
    let window = Arc::new(Window::new(cfg.conn_window));
    let dead = Arc::new(AtomicBool::new(false));
    let (wtx, wrx) = mpsc::channel::<Response>();
    let writer = {
        let window = Arc::clone(&window);
        let dead = Arc::clone(&dead);
        thread::spawn(move || writer_thread(wstream, &wrx, &window, &dead))
    };
    let conn = Conn {
        tx,
        counters: Arc::clone(counters),
        draining,
        window,
        dead,
        wtx,
        seed: cfg.seed ^ mix64(conn_id),
        idle: Duration::from_millis(cfg.idle_timeout_ms),
    };
    conn.reader_loop(stream);
    conn.dead.store(true, Ordering::Relaxed);
    // Closes the writer's channel once the in-flight replies are out.
    drop(conn);
    let _ = writer.join();
}

/// Write responses until the channel closes or the peer fails. Each
/// wake-up takes every response already queued — what one group fence
/// released arrives together — frames them into one reused buffer and
/// issues one `write`, then releases their window slots. The buffer is
/// bounded by the window: at most `conn_window` responses are ever
/// outstanding on a connection.
fn writer_thread(
    mut stream: impl Write,
    rx: &Receiver<Response>,
    window: &Window,
    dead: &AtomicBool,
) {
    let mut buf = Vec::new();
    let mut broken = false;
    while let Ok(first) = rx.recv() {
        buf.clear();
        let mut taken = 0;
        for resp in std::iter::once(first).chain(rx.try_iter()) {
            if !broken {
                frame_response_into(&resp, &mut buf);
            }
            taken += 1;
        }
        if !broken && stream.write_all(&buf).is_err() {
            // Peer vanished or stalled past the write timeout: stop
            // writing but keep draining (and releasing) so the reader
            // sheds cleanly instead of wedging.
            broken = true;
            dead.store(true, Ordering::Relaxed);
        }
        window.release(taken);
    }
}

/// What the head of the reader's buffer holds.
enum FrameState<'a> {
    /// Not a whole frame yet.
    Need,
    /// A length prefix above [`MAX_FRAME`].
    Oversize,
    /// One frame body, borrowed from the buffer.
    Frame(&'a [u8]),
}

/// Most bytes one `read` may deliver.
const READ_CHUNK: usize = 4096;

/// The reader's accumulate buffer, parsed in place: `buf[head..tail]`
/// holds the bytes read and not yet consumed. Frames are handed out as
/// slices of it and only a partial frame left behind by a `read` is
/// ever moved — once, to the front, before the next `read`. The buffer
/// stops growing at one maximal frame plus one chunk, because an
/// oversize prefix ends the connection.
struct Framer {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl Framer {
    fn new() -> Framer {
        Framer {
            buf: vec![0; READ_CHUNK],
            head: 0,
            tail: 0,
        }
    }

    /// One `read` into the free space; returns what `read` returned.
    fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.buf.len() < self.tail + READ_CHUNK {
            self.buf.resize(self.tail + READ_CHUNK, 0);
        }
        let n = r.read(&mut self.buf[self.tail..self.tail + READ_CHUNK])?;
        self.tail += n;
        Ok(n)
    }

    /// Whether unconsumed bytes remain (a frame cut short at EOF).
    fn has_partial(&self) -> bool {
        self.head < self.tail
    }

    /// Consume and return the next whole frame, if one is buffered.
    fn next_frame(&mut self) -> FrameState<'_> {
        let avail = &self.buf[self.head..self.tail];
        let Some(prefix) = avail.first_chunk::<4>() else {
            return FrameState::Need;
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return FrameState::Oversize;
        }
        if avail.len() < 4 + len {
            return FrameState::Need;
        }
        let body = self.head + 4;
        self.head = body + len;
        FrameState::Frame(&self.buf[body..body + len])
    }
}

impl Conn {
    fn reader_loop(&self, mut stream: TcpStream) {
        let counters = &self.counters;
        let mut framer = Framer::new();
        let mut last_progress = Instant::now();
        let mut next_req = 0u64;
        loop {
            if self.dead.load(Ordering::Relaxed) {
                return;
            }
            match framer.fill(&mut stream) {
                Ok(0) => {
                    if framer.has_partial() {
                        // Connection reset mid-frame.
                        counters.add(&counters.bad_requests);
                    }
                    return;
                }
                Ok(_) => {
                    last_progress = Instant::now();
                    loop {
                        match framer.next_frame() {
                            FrameState::Need => break,
                            FrameState::Oversize => {
                                counters.add(&counters.bad_requests);
                                self.respond(0, Status::BadRequest);
                                return;
                            }
                            FrameState::Frame(body) => {
                                let seed = mix64(self.seed ^ mix64(next_req));
                                next_req += 1;
                                if !self.handle_frame(body, seed) {
                                    return;
                                }
                            }
                        }
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if last_progress.elapsed() >= self.idle {
                        counters.add(&counters.timeouts);
                        return;
                    }
                    if self.draining.load(Ordering::SeqCst) {
                        // Drain grace expired with no new frame: wind down.
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Send an empty-payload response through the writer, honouring
    /// the in-flight window.
    fn respond(&self, id: u64, status: Status) -> bool {
        self.reply(empty(id, status))
    }

    /// Answer from the admission layer: straight to the writer, through
    /// the in-flight window like every other response.
    fn reply(&self, resp: Response) -> bool {
        if !self.window.acquire(&self.dead) {
            return false;
        }
        if self.wtx.send(resp).is_err() {
            self.window.release(1);
            return false;
        }
        true
    }

    /// Admit one decoded frame; returns false when the connection
    /// should close.
    fn handle_frame(&self, body: &[u8], seed: u64) -> bool {
        let counters = &self.counters;
        let req = match decode_request(body) {
            Ok(r) => r,
            Err(_) => {
                counters.add(&counters.bad_requests);
                // Echo the id when the prefix survived decoding.
                let id = if body.len() >= 8 {
                    u64::from_le_bytes(body[0..8].try_into().unwrap())
                } else {
                    0
                };
                return self.respond(id, Status::BadRequest);
            }
        };
        match req.op {
            Op::Drain => {
                self.draining.store(true, Ordering::SeqCst);
                return self.respond(req.id, Status::Ok);
            }
            // Answered even while draining: the server explains itself
            // until its last connection closes.
            Op::Stats => {
                return self.reply(Response {
                    id: req.id,
                    status: Status::Ok,
                    payload: counters.snapshot().encode(),
                });
            }
            _ => {}
        }
        if self.draining.load(Ordering::SeqCst) {
            counters.add(&counters.shed_shutting_down);
            return self.respond(req.id, Status::ShuttingDown);
        }
        let id = req.id;
        if !self.window.acquire(&self.dead) {
            return false;
        }
        match self.tx.try_send(Job {
            req,
            reply: self.wtx.clone(),
            seed,
        }) {
            Ok(()) => {
                counters.add(&counters.admitted);
                true
            }
            Err(TrySendError::Full(_)) => {
                // Typed shed, never a silent drop: the slot acquired above
                // is consumed by the Overloaded response itself.
                counters.add(&counters.shed_overloaded);
                if self.wtx.send(empty(id, Status::Overloaded)).is_err() {
                    self.window.release(1);
                    return false;
                }
                true
            }
            Err(TrySendError::Disconnected(_)) => {
                counters.add(&counters.shed_shutting_down);
                if self.wtx.send(empty(id, Status::ShuttingDown)).is_err() {
                    self.window.release(1);
                }
                false
            }
        }
    }
}

fn empty(id: u64, status: Status) -> Response {
    Response {
        id,
        status,
        payload: Vec::new(),
    }
}

/// The server's [`CommitSink`]: acks go down the submitting
/// connection's writer channel, fences and retries into the counters.
struct ChannelSink {
    counters: Arc<ServerCounters>,
}

impl CommitSink for ChannelSink {
    type Ack = Sender<Response>;

    fn executed(&mut self, _ack: &Sender<Response>, res: &OpResult) {
        let c = &self.counters;
        c.retries.fetch_add(res.retries, Ordering::Relaxed);
        if res.status == Status::RetryExhausted {
            c.add(&c.retries_exhausted);
        }
    }

    fn fence_begin(&mut self) {}

    fn fence_end(&mut self, txns: u64) {
        let c = &self.counters;
        c.add(&c.batches);
        c.batch_txns.fetch_add(txns, Ordering::Relaxed);
        c.batch_peak.fetch_max(txns, Ordering::Relaxed);
    }

    fn release(&mut self, ack: Sender<Response>, resp: Response, _virt_ns: u64) {
        // A vanished connection cannot receive its ack; the
        // transaction is still durable.
        let _ = ack.send(resp);
    }
}

/// The engine thread: feed the committer from the admission queue. An
/// arrival is a `submit`, the queue running empty while writes are
/// pending is the `flush`, and the last submitter leaving is the
/// `drain`. It blocks while nothing is pending and only polls while
/// something is, so it reads no clock: under load the queue is never
/// empty and batches end on the size trigger; when idle a write is
/// fenced as soon as it has executed.
fn engine_thread(
    mut committer: GroupCommitter<Engine, ChannelSink>,
    rx: &Receiver<Job>,
    cfg: &ServerConfig,
) -> DrainReport {
    loop {
        let job = if committer.pending() == 0 {
            match rx.recv() {
                Ok(job) => job,
                Err(mpsc::RecvError) => return committer.drain(),
            }
        } else {
            match rx.try_recv() {
                Ok(job) => job,
                Err(TryRecvError::Empty) => {
                    committer.flush();
                    continue;
                }
                Err(TryRecvError::Disconnected) => return committer.drain(),
            }
        };
        if cfg.engine_slowdown_us > 0 {
            // Overload-test fault injection: stretch execution so the
            // admission queue actually fills.
            thread::sleep(Duration::from_micros(cfg.engine_slowdown_us));
        }
        committer.submit(job.req.id, &job.req.op, job.seed, job.reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, read_frame, write_frame, CountingWriter};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ok(id: u64) -> Response {
        Response {
            id,
            status: Status::Ok,
            payload: id.to_le_bytes().to_vec(),
        }
    }

    /// Queue `k` responses (window slots taken, as the reader would),
    /// close the channel and run the writer to completion on `w`.
    fn run_writer(w: impl Write, k: u64) -> (u64, bool) {
        let window = Window::new(k);
        let dead = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel();
        for id in 0..k {
            assert!(window.acquire(&dead));
            tx.send(ok(id)).unwrap();
        }
        drop(tx);
        writer_thread(w, &rx, &window, &dead);
        let held = *window.state.lock().unwrap();
        (held, dead.load(Ordering::Relaxed))
    }

    #[test]
    fn queued_responses_leave_in_one_write() {
        let mut w = CountingWriter::default();
        assert_eq!(run_writer(&mut w, 5), (0, false), "slots freed, peer alive");
        assert_eq!(w.writes, 1, "what one fence released is one segment");
        let mut rd = &w.bytes[..];
        for id in 0..5 {
            let body = read_frame(&mut rd).unwrap().expect("five frames");
            assert_eq!(decode_response(&body).unwrap(), ok(id));
        }
        assert!(read_frame(&mut rd).unwrap().is_none());
    }

    #[test]
    fn a_failed_write_still_drains_and_frees_the_window() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        assert_eq!(run_writer(Broken, 5), (0, true), "slots freed, peer dead");
    }

    /// The accumulate-copy-drain framer this module shipped before
    /// frames were parsed in place; the oracle [`Framer`] is held to.
    fn take_frame(acc: &mut Vec<u8>) -> Option<Result<Vec<u8>, ()>> {
        if acc.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes(acc[0..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Some(Err(()));
        }
        if acc.len() < 4 + len {
            return None;
        }
        let body = acc[4..4 + len].to_vec();
        acc.drain(0..4 + len);
        Some(Ok(body))
    }

    /// Hands out `data` in reads of the given sizes, then EOF.
    struct Chunked<'a> {
        data: &'a [u8],
        sizes: std::slice::Iter<'a, usize>,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let want = self.sizes.next().copied().unwrap_or(usize::MAX);
            let n = want.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// What a reader loop sees: every frame in order, then how the
    /// stream ended (`Some(true)` oversize prefix, `Some(false)` EOF
    /// inside a frame, `None` clean EOF).
    type Seen = (Vec<Vec<u8>>, Option<bool>);

    fn seen_in_place(mut r: Chunked<'_>) -> Seen {
        let mut framer = Framer::new();
        let mut frames = Vec::new();
        while framer.fill(&mut r).unwrap() > 0 {
            loop {
                match framer.next_frame() {
                    FrameState::Need => break,
                    FrameState::Oversize => return (frames, Some(true)),
                    FrameState::Frame(body) => frames.push(body.to_vec()),
                }
            }
            assert!(framer.buf.len() <= 4 + MAX_FRAME + READ_CHUNK, "bounded");
        }
        (frames, framer.has_partial().then_some(false))
    }

    fn seen_by_oracle(mut r: Chunked<'_>) -> Seen {
        let mut acc = Vec::new();
        let mut scratch = [0u8; READ_CHUNK];
        let mut frames = Vec::new();
        loop {
            let n = r.read(&mut scratch).unwrap();
            if n == 0 {
                return (frames, (!acc.is_empty()).then_some(false));
            }
            acc.extend_from_slice(&scratch[..n]);
            while let Some(f) = take_frame(&mut acc) {
                match f {
                    Ok(body) => frames.push(body),
                    Err(()) => return (frames, Some(true)),
                }
            }
        }
    }

    #[test]
    fn in_place_framing_matches_the_copying_oracle_on_any_chunking() {
        let mut rng = StdRng::seed_from_u64(0xF4A3_E125);
        // A valid stream: empty, tiny, chunk-straddling and maximal
        // frames, several of which fit one read.
        let lens = [0, 1, 13, 21, 21, 21, 4092, 4096, 9000, 3, MAX_FRAME, 56];
        let mut bodies = Vec::new();
        let mut valid = Vec::new();
        for len in lens {
            let body: Vec<u8> = (0..len).map(|_| rng.random()).collect();
            write_frame(&mut valid, &body).unwrap();
            bodies.push(body);
        }
        let mut oversize = valid.clone();
        oversize.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        oversize.extend_from_slice(b"never parsed");
        let truncated = &valid[..valid.len() - 5];
        let mid_prefix = &valid[..valid.len() - 56 - 2];

        let streams: [(&[u8], usize, Option<bool>); 4] = [
            (&valid, lens.len(), None),
            (&oversize, lens.len(), Some(true)),
            (truncated, lens.len() - 1, Some(false)),
            (mid_prefix, lens.len() - 1, Some(false)),
        ];
        for (data, whole, end) in streams {
            let mut chunkings: Vec<Vec<usize>> = vec![
                vec![1; data.len()],       // byte at a time
                Vec::new(),                // as much as fits, every read
                [3, 1].repeat(data.len()), // every length prefix split
            ];
            for _ in 0..24 {
                let top = [2, 40, 700, READ_CHUNK][rng.random_range(0..4usize)];
                chunkings.push((0..data.len()).map(|_| rng.random_range(1..=top)).collect());
            }
            for sizes in &chunkings {
                let reader = || Chunked {
                    data,
                    sizes: sizes.iter(),
                };
                let got = seen_in_place(reader());
                assert_eq!(got, seen_by_oracle(reader()), "chunking {sizes:?}");
                assert_eq!(got.0[..], bodies[..whole]);
                assert_eq!(got.1, end);
            }
        }
    }
}
