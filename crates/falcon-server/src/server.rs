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
//! Shutdown: a `DRAIN` request (or [`ServerHandle::shutdown`]) flips
//! the drain flag. The listener stops accepting, readers answer any
//! still-pipelined requests with `ShuttingDown` and wind down, and
//! once every submitter is gone the engine thread drains the
//! committer: last group batch flushed, checkpoint, empty queue.

use crate::commit::{CommitSink, DrainReport, GroupCommitter};
use crate::config::ServerConfig;
use crate::proto::{
    self, decode_request, encode_response, Op, Request, Response, Status, MAX_FRAME,
};
use crate::store::{create_engine, OpResult};
use falcon_core::retry::mix64;
use falcon_core::Engine;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
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

/// Plain-value snapshot of [`ServerCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct CounterSnapshot {
    pub admitted: u64,
    pub shed_overloaded: u64,
    pub shed_shutting_down: u64,
    pub bad_requests: u64,
    pub timeouts: u64,
    pub conns_opened: u64,
    pub conns_closed: u64,
    pub retries: u64,
    pub retries_exhausted: u64,
    pub batches: u64,
    pub batch_txns: u64,
    pub batch_peak: u64,
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

    fn release(&self) {
        let mut n = self.state.lock().expect("window");
        *n = n.saturating_sub(1);
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

/// Write responses until the channel closes or the peer fails; always
/// releases the window slot so the reader never wedges.
fn writer_thread(
    mut stream: TcpStream,
    rx: &Receiver<Response>,
    window: &Window,
    dead: &AtomicBool,
) {
    let mut broken = false;
    for resp in rx {
        if !broken {
            let body = encode_response(&resp);
            if proto::write_frame(&mut stream, &body).is_err() {
                // Peer vanished or stalled past the write timeout:
                // stop writing but keep draining (and releasing) so
                // the reader sheds cleanly instead of wedging.
                broken = true;
                dead.store(true, Ordering::Relaxed);
            }
        }
        window.release();
    }
}

enum FrameState {
    Need,
    Oversize,
    Frame(Vec<u8>),
}

/// Pop one complete frame off the accumulator, if present.
fn take_frame(acc: &mut Vec<u8>) -> FrameState {
    if acc.len() < 4 {
        return FrameState::Need;
    }
    let len = u32::from_le_bytes(acc[0..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return FrameState::Oversize;
    }
    if acc.len() < 4 + len {
        return FrameState::Need;
    }
    let body = acc[4..4 + len].to_vec();
    acc.drain(0..4 + len);
    FrameState::Frame(body)
}

impl Conn {
    fn reader_loop(&self, mut stream: TcpStream) {
        let counters = &self.counters;
        let mut acc: Vec<u8> = Vec::new();
        let mut scratch = [0u8; 4096];
        let mut last_progress = Instant::now();
        let mut next_req = 0u64;
        loop {
            if self.dead.load(Ordering::Relaxed) {
                return;
            }
            match stream.read(&mut scratch) {
                Ok(0) => {
                    if !acc.is_empty() {
                        // Connection reset mid-frame.
                        counters.add(&counters.bad_requests);
                    }
                    return;
                }
                Ok(n) => {
                    acc.extend_from_slice(&scratch[..n]);
                    last_progress = Instant::now();
                    loop {
                        match take_frame(&mut acc) {
                            FrameState::Need => break,
                            FrameState::Oversize => {
                                counters.add(&counters.bad_requests);
                                self.respond(0, Status::BadRequest);
                                return;
                            }
                            FrameState::Frame(body) => {
                                let seed = mix64(self.seed ^ mix64(next_req));
                                next_req += 1;
                                if !self.handle_frame(&body, seed) {
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
        if !self.window.acquire(&self.dead) {
            return false;
        }
        if self.wtx.send(empty(id, status)).is_err() {
            self.window.release();
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
        if matches!(req.op, Op::Drain) {
            self.draining.store(true, Ordering::SeqCst);
            return self.respond(req.id, Status::Ok);
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
                    self.window.release();
                    return false;
                }
                true
            }
            Err(TrySendError::Disconnected(_)) => {
                counters.add(&counters.shed_shutting_down);
                if self.wtx.send(empty(id, Status::ShuttingDown)).is_err() {
                    self.window.release();
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
/// arrival is a `submit`, a queue that stayed empty for the hold time
/// (or the idle tick) is a `flush`, and the last submitter leaving is
/// the `drain`.
fn engine_thread(
    mut committer: GroupCommitter<Engine, ChannelSink>,
    rx: &Receiver<Job>,
    cfg: &ServerConfig,
) -> DrainReport {
    let hold = Duration::from_micros(cfg.group_hold_us);
    let idle = Duration::from_millis(5);
    loop {
        let wait = if committer.pending() > 0 { hold } else { idle };
        match rx.recv_timeout(wait) {
            Ok(job) => {
                if cfg.engine_slowdown_us > 0 {
                    // Overload-test fault injection: stretch execution
                    // so the admission queue actually fills.
                    thread::sleep(Duration::from_micros(cfg.engine_slowdown_us));
                }
                committer.submit(job.req.id, &job.req.op, job.seed, job.reply);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => committer.flush(),
            Err(mpsc::RecvTimeoutError::Disconnected) => return committer.drain(),
        }
    }
}
