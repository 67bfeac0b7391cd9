//! The real run: one load-generator process drives a sharded
//! [`UdpDeployment`] over UDP.
//!
//! Two threads share one client [`UdpEndpoint`]: the calling thread
//! sends, a spawned receiver matches replies. Open-loop requests are
//! timed from their due time, so a stall that delays later sends shows
//! in their latency; saturation requests are timed from their send.
//! The receiver records every update outcome and query answer; the
//! answers are checked against those records after the run.
// lint:allow-file(wallclock) the load generator paces and times requests on the host clock

use crate::checks::{self, Answer, Move, Reply, Truth};
use crate::host;
use crate::workload::{Body, OpGen, Workload, WINDOW};
use hiloc_core::node::ServerStats;
use hiloc_core::proto::Message;
use hiloc_core::runtime::{ShardSpec, UdpDeployment};
use hiloc_net::{ClientId, CorrId, Endpoint, Envelope, ServerId, UdpEndpoint};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A measured request without a reply this long after its first send
/// has failed (above the servers' 2 s gather timeout).
const OP_TIMEOUT_NS: u64 = 3_000_000_000;
/// Set-up registrations kept in flight. With 64, the kernel dropped
/// datagrams at the shard sockets in a third of set-ups on a 2-vCPU
/// host; a dropped `CreatePath` leaves a registered object without a
/// forwarding path until the keep-alive, minutes later, so the measured
/// phase would start from a state that differs run to run. With 16 no
/// set-up dropped any.
const SETUP_WINDOW: usize = 16;
/// A request without a reply this long after its last send is sent
/// again: the runtime sheds datagrams under load, and its clients must
/// retry. Measured requests retry until their [`OP_TIMEOUT_NS`].
const RETRY_NS: u64 = 250_000_000;
/// Set-up gives up after this many retries of one registration.
const SETUP_MAX_RETRIES: u32 = 20;
/// Share of the measured time spent in the open loop when the workload
/// also has a saturation phase.
pub const OPEN_SHARE: f64 = 0.5;
/// Saturation-phase samples reserved per series (pages are touched only
/// as samples arrive).
const WINDOW_SAMPLES: usize = 1 << 23;
/// Wrong answers kept verbatim for the report.
const MAX_EXAMPLES: usize = 5;

/// A phase of the real run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Registering the initial population (retried, not measured).
    Setup,
    /// Open loop at the workload's rates.
    Open,
    /// A window of [`WINDOW`] requests in flight.
    Window,
}

impl Phase {
    fn idx(self) -> usize {
        self as usize
    }
}

/// Request accounting of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent that expect a reply.
    pub sent: u64,
    /// Answered in place (ack, complete and correct answer).
    pub acked: u64,
    /// Updates answered by `AgentChanged`.
    pub handovers: u64,
    /// Timeouts, lost replies, incomplete or refused answers, and
    /// wrong answers.
    pub failed: u64,
    /// Of `failed`: answers that contradict the generator's records.
    pub wrong: u64,
    /// Deregistrations sent (the protocol does not answer them).
    pub deregs: u64,
}

/// Where a request's latency is measured from. An open-loop request
/// counts from when it was due, so a stall that holds up the sender
/// shows in every request it delayed; a window request counts from its
/// send, since the window itself decides when it goes out.
pub fn latency_origin(phase: Phase, due_ns: u64, sent_ns: u64) -> u64 {
    match phase {
        Phase::Open => due_ns,
        Phase::Setup | Phase::Window => sent_ns,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Obj(u64),
    Corr(u64),
}

#[derive(Debug, Clone, Copy)]
struct Flight {
    body: Body,
    phase: Phase,
    /// Latency origin: due time (open loop) or first send time.
    start_ns: u64,
    /// First and latest send.
    first_ns: u64,
    sent_ns: u64,
    retries: u32,
}

/// Everything the sender and receiver share.
struct Book {
    inflight: HashMap<Key, Flight>,
    /// Current agent of every object, as the replies tell it.
    agent: Vec<ServerId>,
    /// Finished updates and query answers, for the checks; updates are
    /// kept only when there are queries to check.
    record_moves: bool,
    moves: Vec<Move>,
    answers: Vec<Answer>,
    tally: [Tally; 3],
    /// Successful latencies (µs) by phase and kind.
    lat: [[Vec<f64>; 6]; 3],
    /// Open-loop latencies of updates answered by `AgentChanged`.
    handover_lat: Vec<f64>,
    /// The saturation window, and the receipt time of every success
    /// inside it.
    window: (u64, u64),
    window_done: Vec<u64>,
    /// The open loop's start and the receipt time of its last success.
    open_span: (u64, u64),
    late_replies: u64,
    strays: u64,
    /// Sends again, by phase.
    retries: [u64; 3],
    send_errors: u64,
}

/// State shared by the sender and the receiver thread.
struct Shared {
    book: Mutex<Book>,
    space: Condvar,
    stop: AtomicBool,
    epoch: Instant,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> MutexGuard<'_, Book> {
        self.book
            .lock()
            .expect("generator thread panicked while holding the book")
    }
}

enum Verdict {
    Ack,
    Handover(ServerId),
    Fail,
}

impl Book {
    fn new(objects: usize, record_moves: bool) -> Book {
        Book {
            inflight: HashMap::new(),
            agent: vec![ServerId(0); objects],
            record_moves,
            moves: Vec::new(),
            answers: Vec::new(),
            tally: [Tally::default(); 3],
            lat: Default::default(),
            handover_lat: Vec::new(),
            window: (u64::MAX, u64::MAX),
            window_done: Vec::new(),
            open_span: (0, 0),
            late_replies: 0,
            strays: 0,
            retries: [0; 3],
            send_errors: 0,
        }
    }

    fn on_reply(&mut self, msg: &Message, now: u64) {
        let key = match msg {
            Message::UpdateAck { oid, .. }
            | Message::AgentChanged { oid, .. }
            | Message::OutOfServiceArea { oid } => Key::Obj(oid.0),
            Message::RegisterRes { corr, .. }
            | Message::RegisterFailed { corr, .. }
            | Message::PosQueryRes { corr, .. }
            | Message::RangeQueryRes { corr, .. }
            | Message::NeighborQueryRes { corr, .. } => Key::Corr(corr.0),
            _ => {
                self.strays += 1;
                return;
            }
        };
        let Some(f) = self.inflight.remove(&key) else {
            self.late_replies += 1;
            return;
        };
        let verdict = self.judge(&f, msg, now);
        let (p, k) = (f.phase.idx(), f.body.kind().idx());
        let lat_us = now.saturating_sub(f.start_ns) as f64 / 1e3;
        match verdict {
            Verdict::Ack | Verdict::Handover(_) => {
                if let Verdict::Handover(agent) = verdict {
                    self.tally[p].handovers += 1;
                    if f.phase == Phase::Open {
                        self.handover_lat.push(lat_us);
                    }
                    if let Body::Update { oid, .. } = f.body {
                        self.agent[oid as usize] = agent;
                    }
                } else {
                    self.tally[p].acked += 1;
                }
                self.lat[p][k].push(lat_us);
                if (self.window.0..self.window.1).contains(&now) {
                    self.window_done.push(now);
                }
                if f.phase == Phase::Open {
                    self.open_span.1 = self.open_span.1.max(now);
                }
            }
            Verdict::Fail => self.tally[p].failed += 1,
        }
    }

    /// Classifies a reply and records what the checks need.
    fn judge(&mut self, f: &Flight, msg: &Message, now: u64) -> Verdict {
        let answer = |reply| Answer {
            body: f.body,
            sent_ns: f.first_ns,
            done_ns: now,
            reply,
            phase: f.phase.idx(),
        };
        match (f.body, msg) {
            (Body::Update { oid, pos }, _) => {
                let verdict = match msg {
                    Message::UpdateAck { .. } => Verdict::Ack,
                    Message::AgentChanged { new_agent, .. } => Verdict::Handover(*new_agent),
                    // Every generated position lies inside the service
                    // area, so `OutOfServiceArea` is a failure.
                    _ => Verdict::Fail,
                };
                let ok = !matches!(verdict, Verdict::Fail);
                if self.record_moves {
                    self.moves.push(Move {
                        oid,
                        sent_ns: f.first_ns,
                        done_ns: now,
                        pos,
                        ok,
                    });
                }
                verdict
            }
            (Body::Register { oid, .. }, Message::RegisterRes { agent, .. }) => {
                let o = oid as usize;
                if o >= self.agent.len() {
                    self.agent.resize(o + 1, ServerId(0));
                }
                self.agent[o] = *agent;
                Verdict::Ack
            }
            (Body::Pos { .. }, Message::PosQueryRes { found, .. }) => {
                self.answers.push(answer(Reply::Pos(*found)));
                if found.is_some() {
                    Verdict::Ack
                } else {
                    Verdict::Fail
                }
            }
            (
                Body::Range { .. },
                Message::RangeQueryRes {
                    items,
                    complete: true,
                    ..
                },
            ) => {
                self.answers.push(answer(Reply::Range(items.clone())));
                Verdict::Ack
            }
            (
                Body::Nn { .. },
                Message::NeighborQueryRes {
                    nearest,
                    complete: true,
                    ..
                },
            ) => {
                self.answers.push(answer(Reply::Nn(*nearest)));
                Verdict::Ack
            }
            // RegisterFailed, an incomplete answer, or a reply of the
            // wrong shape.
            _ => Verdict::Fail,
        }
    }

    /// Removes and returns the requests to send again; fails every
    /// measured request past its timeout.
    fn sweep(&mut self, now: u64) -> Result<Vec<Flight>, String> {
        let expired: Vec<Key> = self
            .inflight
            .iter()
            .filter(|(_, f)| now.saturating_sub(f.sent_ns) > RETRY_NS)
            .map(|(k, _)| *k)
            .collect();
        let mut resend = Vec::new();
        for key in expired {
            let f = self.inflight.remove(&key).expect("listed above");
            if f.phase == Phase::Setup && f.retries >= SETUP_MAX_RETRIES {
                return Err(format!(
                    "set-up registration {:?} unanswered after {} retries",
                    f.body, f.retries
                ));
            }
            if f.phase == Phase::Setup || now.saturating_sub(f.first_ns) <= OP_TIMEOUT_NS {
                self.retries[f.phase.idx()] += 1;
                resend.push(f);
                continue;
            }
            self.tally[f.phase.idx()].failed += 1;
            if let Body::Update { oid, pos } = f.body {
                if self.record_moves {
                    self.moves.push(Move {
                        oid,
                        sent_ns: f.first_ns,
                        done_ns: now,
                        pos,
                        ok: false,
                    });
                }
            }
        }
        Ok(resend)
    }
}

/// Results of one real session (set-up, optionally the measured run).
#[derive(Debug, Clone, Default)]
pub struct RealRun {
    /// Wall seconds to bind the deployment and register the population.
    pub setup_s: f64,
    /// Requests sent again after [`RETRY_NS`] without a reply, by phase
    /// (set-up, open loop, saturation).
    pub retries: [u64; 3],
    /// Tallies of the open and saturation phases.
    pub open: Tally,
    /// See `open`.
    pub window: Tally,
    /// Successful open-loop latencies (µs) by kind.
    pub open_lat: [Vec<f64>; 6],
    /// Successful saturation latencies (µs) by kind.
    pub window_lat: [Vec<f64>; 6],
    /// Open-loop updates answered by `AgentChanged`, latency (µs).
    pub handover_lat: Vec<f64>,
    /// Generator lag behind the schedule (µs), open loop.
    pub lag_us: Vec<f64>,
    /// Open-loop measured seconds.
    pub open_s: f64,
    /// Saturation measured seconds (0 without a saturation phase).
    pub window_s: f64,
    /// The saturation window (ns since the session epoch) and the
    /// receipt time of every success inside it.
    pub window_span: (u64, u64),
    /// See `window_span`.
    pub window_done: Vec<u64>,
    /// Seconds from the open loop's start to its last successful reply.
    pub open_span_s: f64,
    /// Replies that arrived after their request had timed out.
    pub late_replies: u64,
    /// Replies that matched no request shape.
    pub strays: u64,
    /// Sends the socket refused.
    pub send_errors: u64,
    /// Answers checked against the generator's records, by kind.
    pub checked: [u64; 6],
    /// First wrong answers, verbatim.
    pub examples: Vec<String>,
    /// Requests still in flight after the drain (must be 0).
    pub in_flight_end: u64,
    /// Sum of `ServerStats` over servers: measured-phase deltas.
    pub stats_open: ServerStats,
    /// Same, whole measured time.
    pub stats_all: ServerStats,
    /// Kernel UDP counters, measured-time delta.
    pub udp_out: u64,
    /// Kernel `Udp: RcvbufErrors` delta over the measured time.
    pub rcvbuf_drops: u64,
    /// CPU seconds of threads the benchmark did not spawn.
    pub server_cpu_s: f64,
}

/// Set-up positions by object id.
fn population_positions(population: &[Body]) -> Vec<hiloc_geo::Point> {
    population
        .iter()
        .map(|b| match b {
            Body::Register { pos, .. } => *pos,
            other => unreachable!("set-up registers, not {other:?}"),
        })
        .collect()
}

fn sum_stats(dep: &UdpDeployment) -> ServerStats {
    let mut total = ServerStats::default();
    for (_, s) in dep.stats_snapshot() {
        total.add(&s);
    }
    total
}

/// The sending half: builds requests and registers them as in flight.
struct Sender<'a> {
    shared: &'a Shared,
    dep: &'a UdpDeployment,
    ep: &'a UdpEndpoint<Message>,
    me: Endpoint,
    next_corr: u64,
}

impl Sender<'_> {
    /// Registers `flight` as in flight and builds its message.
    fn launch(&mut self, book: &mut Book, flight: Flight) -> (ServerId, Message) {
        let (body, phase) = (flight.body, flight.phase);
        if !body.kind().expects_reply() {
            book.tally[phase.idx()].deregs += 1;
            return body.message(ServerId(0), CorrId(0), self.me, self.dep.now_us());
        }
        self.next_corr += 1;
        let corr = self.next_corr;
        let (key, agent) = match body {
            Body::Update { oid, .. } => (Key::Obj(oid), book.agent[oid as usize]),
            _ => (Key::Corr(corr), ServerId(0)),
        };
        if let Some(old) = book.inflight.insert(key, flight) {
            // One request per object at a time: the schedule revisits
            // an object long after its last update timed out.
            book.tally[old.phase.idx()].failed += 1;
        }
        if flight.retries == 0 {
            book.tally[phase.idx()].sent += 1;
        }
        body.message(agent, CorrId(corr), self.me, self.dep.now_us())
    }

    /// Sends a new request. `due_ns` is the schedule time of an
    /// open-loop request.
    fn fire(&mut self, body: Body, phase: Phase, due_ns: u64) {
        let now = self.shared.now_ns();
        self.send(Flight {
            body,
            phase,
            start_ns: latency_origin(phase, due_ns, now),
            first_ns: now,
            sent_ns: now,
            retries: 0,
        });
    }

    fn send(&mut self, flight: Flight) {
        let shared = self.shared;
        let (to, msg) = self.launch(&mut shared.lock(), flight);
        if self
            .ep
            .send(Envelope::new(self.me, to.into(), msg))
            .is_err()
        {
            // The request stays in flight and fails at its timeout.
            self.shared.lock().send_errors += 1;
        }
    }

    /// Sends requests again, each with a fresh correlation id; latency
    /// still counts from the first send (or due time).
    fn resend(&mut self, again: Vec<Flight>) {
        for f in again {
            let sent_ns = self.shared.now_ns();
            self.send(Flight {
                sent_ns,
                retries: f.retries + 1,
                ..f
            });
        }
    }

    /// Blocks until fewer than `limit` requests are in flight (or the
    /// clock passes `until_ns`); sweeps timeouts while waiting.
    fn wait_space(&mut self, limit: usize, until_ns: u64) -> Result<bool, String> {
        let mut book = self.shared.lock();
        loop {
            let now = self.shared.now_ns();
            if now >= until_ns {
                return Ok(false);
            }
            let again = book.sweep(now)?;
            if !again.is_empty() {
                drop(book);
                self.resend(again);
                book = self.shared.lock();
                continue;
            }
            if book.inflight.len() < limit {
                return Ok(true);
            }
            book = self
                .shared
                .space
                .wait_timeout(book, Duration::from_millis(2))
                .expect("generator thread panicked while holding the book")
                .0;
        }
    }

    fn setup(&mut self, population: Vec<Body>) -> Result<(), String> {
        for body in population {
            self.wait_space(SETUP_WINDOW, u64::MAX)?;
            self.fire(body, Phase::Setup, 0);
        }
        self.wait_space(1, u64::MAX).map(|_| ())
    }

    fn open_loop(
        &mut self,
        gen: &mut OpGen,
        seconds: f64,
        lag: &mut Vec<f64>,
    ) -> Result<(), String> {
        let start = self.shared.now_ns();
        self.shared.lock().open_span = (start, start);
        let end_us = (seconds * 1e6) as u64;
        let mut next_sweep = start;
        loop {
            let op = gen.next_open();
            if op.due_us >= end_us {
                return Ok(());
            }
            let due = start + op.due_us * 1000;
            let mut now = self.shared.now_ns();
            while now < due {
                std::thread::sleep(Duration::from_nanos(due - now));
                now = self.shared.now_ns();
            }
            lag.push((now - due) as f64 / 1e3);
            self.fire(op.body, Phase::Open, due);
            if now >= next_sweep {
                next_sweep = now + 10_000_000;
                let again = self.shared.lock().sweep(now)?;
                self.resend(again);
            }
        }
    }

    fn saturate(&mut self, gen: &mut OpGen, seconds: f64) -> Result<(), String> {
        let start = self.shared.now_ns();
        let end = start + (seconds * 1e9) as u64;
        {
            // Reserved up front: growing these by doubling mid-phase
            // would copy them and make the process's peak RSS depend on
            // where the sample count falls.
            let mut book = self.shared.lock();
            book.window = (start, end);
            book.window_done.reserve(WINDOW_SAMPLES);
            if let Some(kind) = gen.spec().saturate {
                book.lat[Phase::Window.idx()][kind.idx()].reserve(WINDOW_SAMPLES);
            }
        }
        while self.wait_space(WINDOW, end)? {
            self.fire(gen.next_window(), Phase::Window, 0);
        }
        Ok(())
    }
}

fn receive(shared: &Shared, ep: &UdpEndpoint<Message>) {
    let mut batch = Vec::with_capacity(256);
    while !shared.stop.load(Ordering::Acquire) {
        batch.clear();
        if ep
            .recv_batch(Duration::from_millis(2), 256, &mut batch)
            .is_err()
            || batch.is_empty()
        {
            continue;
        }
        let now = shared.now_ns();
        let mut book = shared.lock();
        for env in &batch {
            book.on_reply(&env.msg, now);
        }
        drop(book);
        shared.space.notify_all();
    }
}

/// Binds a deployment for `workload`, registers the population of
/// `seed`, and — when `seconds > 0` — runs the measured phases.
///
/// # Errors
///
/// Fails when the deployment cannot be bound or set-up registrations
/// stay unanswered.
pub fn session(
    workload: Workload,
    seed: u64,
    seconds: f64,
    data_dir: &Path,
) -> Result<RealRun, String> {
    let mut gen = OpGen::new(workload, seed);
    let spec = gen.spec();
    let population = gen.population();
    let initial = population_positions(&population);
    let shared = Shared {
        book: Mutex::new(Book::new(population.len(), spec.query_rate > 0.0)),
        space: Condvar::new(),
        stop: AtomicBool::new(false),
        epoch: Instant::now(),
    };
    let t0 = shared.now_ns();
    let spec_shards = ShardSpec {
        shards: host::nproc(),
        ..Default::default()
    };
    let opts = workload.server_options(data_dir);
    let dep = UdpDeployment::bind_sharded(gen.hierarchy().clone(), opts, spec_shards)
        .map_err(|e| format!("bind: {e}"))?;
    let me = Endpoint::Client(ClientId(0xBE_0000_0000 | (seed & 0xFFFF)));
    let ep: UdpEndpoint<Message> = UdpEndpoint::bind(me, "127.0.0.1:0".parse().expect("addr"))
        .map_err(|e| format!("client bind: {e}"))?;
    ep.add_routes(
        gen.hierarchy()
            .servers()
            .iter()
            .filter_map(|c| Some((c.id.into(), dep.server_addr(c.id)?))),
    );
    host::tighten_timer_slack();
    let sender_tid = host::current_tid();
    let (tid_tx, tid_rx) = std::sync::mpsc::channel();
    let mut run = RealRun::default();
    let result = std::thread::scope(|s| {
        let (shared_ref, ep_ref) = (&shared, &ep);
        let receiver = s.spawn(move || {
            let _ = tid_tx.send(host::current_tid());
            receive(shared_ref, ep_ref);
        });
        let mut sender = Sender {
            shared: &shared,
            dep: &dep,
            ep: &ep,
            me,
            next_corr: 0,
        };
        let out = (|| -> Result<(), String> {
            sender.setup(population)?;
            run.setup_s = (shared.now_ns() - t0) as f64 / 1e9;
            if seconds <= 0.0 {
                return Ok(());
            }
            let bench_tids: Vec<u32> = [sender_tid, tid_rx.recv().ok().flatten()]
                .into_iter()
                .flatten()
                .collect();
            let (open_s, window_s) = match spec.saturate {
                Some(_) => (seconds * OPEN_SHARE, seconds * (1.0 - OPEN_SHARE)),
                None => (seconds, 0.0),
            };
            let stats0 = sum_stats(&dep);
            let udp0 = host::udp_counters();
            let cpu0 = host::cpu_s_except(&bench_tids);
            sender.open_loop(&mut gen, open_s, &mut run.lag_us)?;
            let stats1 = sum_stats(&dep);
            if window_s > 0.0 {
                sender.saturate(&mut gen, window_s)?;
            }
            // Drain: every request ends answered or timed out.
            sender.wait_space(1, u64::MAX)?;
            run.server_cpu_s = host::cpu_s_except(&bench_tids) - cpu0;
            let udp1 = host::udp_counters();
            let stats2 = sum_stats(&dep);
            run.stats_open = stats1.minus(&stats0);
            run.stats_all = stats2.minus(&stats0);
            run.udp_out = host::counter_delta(&udp0, &udp1, "OutDatagrams");
            run.rcvbuf_drops = host::counter_delta(&udp0, &udp1, "RcvbufErrors");
            run.open_s = open_s;
            run.window_s = window_s;
            Ok(())
        })();
        shared.stop.store(true, Ordering::Release);
        receiver.join().expect("receiver thread panicked");
        out
    });
    dep.shutdown();
    result?;
    let mut book = shared.book.into_inner().expect("generator threads joined");
    run.retries = book.retries;
    run.open = book.tally[Phase::Open.idx()];
    run.window = book.tally[Phase::Window.idx()];
    run.open_lat = std::mem::take(&mut book.lat[Phase::Open.idx()]);
    run.window_lat = std::mem::take(&mut book.lat[Phase::Window.idx()]);
    run.handover_lat = book.handover_lat;
    run.window_span = book.window;
    run.window_done = book.window_done;
    run.open_span_s = (book.open_span.1 - book.open_span.0) as f64 / 1e9;
    run.late_replies = book.late_replies;
    run.strays = book.strays;
    run.send_errors = book.send_errors;
    run.in_flight_end = book.inflight.len() as u64;
    let verdicts = checks::verify(&Truth::new(initial, book.moves), &book.answers);
    run.checked = verdicts.checked;
    for &(phase, counted_ok) in &verdicts.wrong {
        let t = if phase == Phase::Open.idx() {
            &mut run.open
        } else {
            &mut run.window
        };
        t.wrong += 1;
        if counted_ok {
            t.acked -= 1;
            t.failed += 1;
        }
    }
    run.examples = verdicts.reasons.into_iter().take(MAX_EXAMPLES).collect();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiloc_geo::Point;

    const MS: u64 = 1_000_000;

    fn update(phase: Phase, first_ns: u64, sent_ns: u64) -> Flight {
        Flight {
            body: Body::Update {
                oid: 0,
                pos: Point::new(1.0, 1.0),
            },
            phase,
            start_ns: first_ns,
            first_ns,
            sent_ns,
            retries: 0,
        }
    }

    #[test]
    fn an_unanswered_request_is_sent_again_until_its_timeout() {
        let mut book = Book::new(1, true);
        book.inflight
            .insert(Key::Obj(0), update(Phase::Window, 0, 0));
        assert!(book.sweep(RETRY_NS).unwrap().is_empty());
        let again = book.sweep(RETRY_NS + MS).unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(book.retries, [0, 0, 1]);
        assert_eq!(book.tally[Phase::Window.idx()].failed, 0);

        // The last resend, still unanswered at the timeout, fails; the
        // failed move covers the time since the first send.
        let late = OP_TIMEOUT_NS - MS;
        book.inflight
            .insert(Key::Obj(0), update(Phase::Window, 0, late));
        assert!(book.sweep(late + RETRY_NS + MS).unwrap().is_empty());
        assert_eq!(book.tally[Phase::Window.idx()].failed, 1);
        assert!(book.inflight.is_empty());
        assert_eq!((book.moves[0].sent_ns, book.moves[0].ok), (0, false));
    }

    #[test]
    fn set_up_gives_up_after_its_retries() {
        let mut book = Book::new(1, false);
        let mut f = update(Phase::Setup, 0, 0);
        f.retries = SETUP_MAX_RETRIES;
        book.inflight.insert(Key::Obj(0), f);
        assert!(book.sweep(RETRY_NS + MS).is_err());
    }
}
