//! The traced run: a single-threaded runner walks the real run's op
//! sequence through `LocationServer::new/handle/tick/next_timer`, one op
//! at a time, so every span belongs to the op in flight.
//!
//! Envelopes that cross shards (or involve the client) are encoded and
//! decoded with the public codec, as the UDP transport does, and one
//! whose frame exceeds the datagram limit is dropped, as the UDP
//! transport drops it. Same-shard envelopes are handed over in memory,
//! as the sharded runtime does. Each leaf's storage inputs are logged
//! for the standalone storage replay.

use crate::spans::{Layer, Tracer, ROOT};
use crate::workload::{Body, Kind, OpGen, Workload};
use hiloc_core::cache::{CacheStats, HitMiss};
use hiloc_core::model::{Micros, ObjectId, SECOND};
use hiloc_core::node::{
    DurabilityOptions, LocationServer, ServerOptions, StorageSyncPolicy, VisitorRecord,
};
use hiloc_core::proto::Message;
use hiloc_core::runtime::ShardSpec;
use hiloc_net::wire::{WireCodec, ENDPOINT_LEN};
use hiloc_net::{ClientId, CorrId, Endpoint, Envelope, ServerId};
use hiloc_storage::StoredSighting;
use std::collections::VecDeque;
use std::path::Path;

/// Largest datagram payload the UDP transport sends.
pub const MAX_DATAGRAM: usize = 60_000;
/// Frame header around each message: magic, sender, receiver.
const FRAME_OVERHEAD: usize = 2 + 2 * ENDPOINT_LEN;
/// An op still unanswered this long after its start is abandoned.
const GIVE_UP_US: Micros = 5 * SECOND;

/// One storage-layer input observed at a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StorageEvent {
    /// The visitor record of an object became `Some` value or was
    /// removed.
    Visitor(u64, Option<VisitorRecord>),
    /// A leaf stored a sighting.
    Upsert(StoredSighting),
    /// A leaf dropped an object's sighting.
    Remove(u64),
}

/// Everything the traced run measured.
#[derive(Debug, Default)]
pub struct TraceOut {
    /// Ops run, by kind.
    pub ops: [u64; 6],
    /// Ops that got no reply although their kind expects one.
    pub unanswered: [u64; 6],
    /// Op span durations (µs), answered ops, by kind.
    pub op_us: [Vec<f64>; 6],
    /// `handle` calls, by the kind of the op that caused them.
    pub handles: [u64; 6],
    /// Datagrams (network envelopes), by op kind.
    pub datagrams: [u64; 6],
    /// Datagram bytes including frame headers, by op kind.
    pub bytes: [u64; 6],
    /// Envelopes over [`MAX_DATAGRAM`], dropped.
    pub oversize: u64,
    /// Service-clock seconds the traced ops spanned.
    pub virtual_s: f64,
    /// Cache counters accumulated over the traced ops.
    pub cache: CacheStats,
    /// Storage inputs per server, indexed by server id.
    pub storage: Vec<Vec<StorageEvent>>,
    /// The recorded spans.
    pub tracer: Tracer,
}

/// The oid a message is about, when it can change visitor or sighting
/// state.
fn subject(msg: &Message) -> Option<u64> {
    match msg {
        Message::RegisterReq { sighting, .. }
        | Message::UpdateReq { sighting }
        | Message::HandoverReq { sighting, .. } => Some(sighting.oid.0),
        Message::CreatePath { oid, .. }
        | Message::HandoverRes { oid, .. }
        | Message::HandoverFailed { oid, .. }
        | Message::DeregisterReq { oid }
        | Message::RemovePath { oid, .. } => Some(oid.0),
        _ => None,
    }
}

fn sighting_of(msg: &Message) -> Option<hiloc_core::model::Sighting> {
    match msg {
        Message::RegisterReq { sighting, .. }
        | Message::UpdateReq { sighting }
        | Message::HandoverReq { sighting, .. } => Some(*sighting),
        _ => None,
    }
}

struct World {
    servers: Vec<LocationServer>,
    shards: usize,
    clock_us: Micros,
    me: Endpoint,
    agents: Vec<ServerId>,
    next_corr: u64,
    queue: VecDeque<Envelope<Message>>,
    scratch: Vec<u8>,
    tracing: bool,
    ttl_us: Micros,
    out: TraceOut,
}

impl World {
    fn build(
        opts: &ServerOptions,
        h: &hiloc_core::area::Hierarchy,
    ) -> Result<Vec<LocationServer>, String> {
        let mut servers: Vec<LocationServer> = h
            .servers()
            .iter()
            .map(|c| LocationServer::new(c.clone(), opts.clone()).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        servers.sort_by_key(|s| s.id().0);
        for (i, s) in servers.iter().enumerate() {
            assert_eq!(s.id().0 as usize, i, "server ids are dense");
        }
        Ok(servers)
    }

    fn is_network(&self, env: &Envelope<Message>) -> bool {
        match (env.from, env.to) {
            (Endpoint::Server(a), Endpoint::Server(b)) => {
                ShardSpec::shard_of(a, self.shards) != ShardSpec::shard_of(b, self.shards)
            }
            _ => true,
        }
    }

    /// Puts `env` on the wire: encode, size check, decode — or an
    /// in-memory hand-over between servers of one shard.
    fn transmit(&mut self, env: Envelope<Message>, kind: Kind, parent: u32, op: u32) {
        if !self.is_network(&env) {
            self.queue.push_back(env);
            return;
        }
        let label = env.msg.label();
        let Envelope { from, to, msg } = env;
        let (on, scratch, out) = (self.tracing, &mut self.scratch, &mut self.out);
        out.tracer.maybe(on, Layer::Encode, label, parent, op, || {
            msg.encode_into(scratch)
        });
        let frame = scratch.len() + FRAME_OVERHEAD;
        if on {
            out.datagrams[kind.idx()] += 1;
            out.bytes[kind.idx()] += frame as u64;
            out.oversize += u64::from(frame > MAX_DATAGRAM);
        }
        if frame > MAX_DATAGRAM {
            return;
        }
        let msg = out
            .tracer
            .maybe(on, Layer::Decode, label, parent, op, || {
                Message::from_bytes(scratch)
            })
            .expect("the codec round-trips its own encoding");
        self.queue.push_back(Envelope { from, to, msg });
    }

    /// Hands `env` to its server and queues the outputs.
    fn deliver(&mut self, env: Envelope<Message>, kind: Kind, parent: u32, op: u32) {
        let Endpoint::Server(sid) = env.to else {
            unreachable!("client envelopes are not delivered")
        };
        let i = sid.0 as usize;
        let oid = subject(&env.msg);
        let sighting = sighting_of(&env.msg);
        let before = oid.and_then(|o| self.servers[i].visitors().get(ObjectId(o)).copied());
        let label = env.msg.label();
        let now = self.clock_us;
        let server = &mut self.servers[i];
        let outs = self
            .out
            .tracer
            .maybe(self.tracing, Layer::Handle, label, parent, op, || {
                server.handle(now, env)
            });
        if self.tracing {
            self.out.handles[kind.idx()] += 1;
        }
        if let (true, Some(o)) = (self.tracing, oid) {
            let after = self.servers[i].visitors().get(ObjectId(o)).copied();
            let log = &mut self.out.storage[i];
            if after != before {
                log.push(StorageEvent::Visitor(o, after));
            }
            let cfg = self.servers[i].config();
            match (sighting, after) {
                (Some(s), Some(VisitorRecord::Leaf { .. }))
                    if cfg.is_leaf() && cfg.contains(s.pos) =>
                {
                    log.push(StorageEvent::Upsert(StoredSighting {
                        key: o,
                        pos: s.pos,
                        time_us: s.time_us,
                        acc_sens_m: s.acc_sens_m,
                        expires_us: now + self.ttl_us,
                    }));
                }
                (_, None) if matches!(before, Some(VisitorRecord::Leaf { .. })) => {
                    log.push(StorageEvent::Remove(o));
                }
                _ => {}
            }
        }
        for e in outs {
            self.transmit(e, kind, parent, op);
        }
    }

    /// Fires every timer due at the current clock.
    fn tick_due(&mut self, kind: Kind, parent: u32, op: u32) {
        for i in 0..self.servers.len() {
            if self.servers[i]
                .next_timer()
                .is_some_and(|t| t <= self.clock_us)
            {
                let (now, server) = (self.clock_us, &mut self.servers[i]);
                let outs =
                    self.out
                        .tracer
                        .maybe(self.tracing, Layer::Tick, "tick", parent, op, || {
                            server.tick(now)
                        });
                for e in outs {
                    self.transmit(e, kind, parent, op);
                }
            }
        }
    }

    /// Runs one request to completion; returns the client's reply.
    fn exec(&mut self, body: Body, op: u32) -> Option<Message> {
        let kind = body.kind();
        self.next_corr += 1;
        let agent = match body {
            Body::Update { oid, .. } => self.agents[oid as usize],
            _ => ServerId(0),
        };
        let (to, msg) = body.message(agent, CorrId(self.next_corr), self.me, self.clock_us);
        let span = if self.tracing {
            self.out.tracer.begin(Layer::Op, kind.name(), ROOT, op)
        } else {
            ROOT
        };
        let started = self.clock_us;
        self.transmit(Envelope::new(self.me, to.into(), msg), kind, span, op);
        let mut reply = None;
        loop {
            while let Some(env) = self.queue.pop_front() {
                if env.to == self.me {
                    reply = Some(env.msg);
                } else {
                    self.deliver(env, kind, span, op);
                }
            }
            if reply.is_some() || !kind.expects_reply() {
                break;
            }
            // Waiting on a timer (a gather whose sub-result was lost):
            // jump the service clock to it.
            let Some(next) = self.servers.iter().filter_map(|s| s.next_timer()).min() else {
                break;
            };
            if next > started + GIVE_UP_US {
                break;
            }
            self.clock_us = self.clock_us.max(next);
            self.tick_due(kind, span, op);
        }
        if self.tracing {
            self.out.tracer.end(span);
            self.out.ops[kind.idx()] += 1;
            if reply.is_some() {
                let us = self.out.tracer.spans()[span as usize].dur_ns() as f64 / 1e3;
                self.out.op_us[kind.idx()].push(us);
            } else if kind.expects_reply() {
                self.out.unanswered[kind.idx()] += 1;
            }
        }
        match (&body, &reply) {
            (Body::Update { oid, .. }, Some(Message::AgentChanged { new_agent, .. })) => {
                self.agents[*oid as usize] = *new_agent;
            }
            (Body::Register { oid, .. }, Some(Message::RegisterRes { agent, .. })) => {
                let o = *oid as usize;
                if o >= self.agents.len() {
                    self.agents.resize(o + 1, ServerId(0));
                }
                self.agents[o] = *agent;
            }
            _ => {}
        }
        reply
    }

    fn cache_totals(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.servers {
            total.add(&s.cache_stats_detail());
        }
        total
    }
}

fn cache_delta(a: &CacheStats, b: &CacheStats) -> CacheStats {
    let d = |x: HitMiss, y: HitMiss| HitMiss {
        hits: y.hits - x.hits,
        misses: y.misses - x.misses,
    };
    CacheStats {
        area: d(a.area, b.area),
        agent: d(a.agent, b.agent),
        position: d(a.position, b.position),
    }
}

/// Runs the first `seconds` of `workload`'s open-loop schedule for
/// `seed` through the traced runner. `data_dir` holds the durable
/// workload's visitor stores.
///
/// # Errors
///
/// Fails when a durable store cannot be opened or the population does
/// not register.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    shards: usize,
    data_dir: &Path,
) -> Result<TraceOut, String> {
    let mut gen = OpGen::new(workload, seed);
    let h = gen.hierarchy().clone();
    let opts = workload.server_options(data_dir);
    // The durable population is written without per-record fsync, then
    // the servers restart on it with the measured policy: set-up is
    // not traced, and 3 × 20k synced writes would dominate the run.
    let setup_opts = match &opts.durability {
        Some(d) => ServerOptions {
            durability: Some(DurabilityOptions {
                dir: d.dir.clone(),
                policy: StorageSyncPolicy::OsFlush,
            }),
            ..opts.clone()
        },
        None => opts.clone(),
    };
    let mut w = World {
        servers: World::build(&setup_opts, &h)?,
        shards,
        clock_us: SECOND,
        me: Endpoint::Client(ClientId(0xBE_0000_0000)),
        agents: Vec::new(),
        next_corr: 0,
        queue: VecDeque::new(),
        scratch: Vec::with_capacity(1024),
        tracing: false,
        ttl_us: opts.sighting_ttl_us,
        out: TraceOut {
            storage: vec![Vec::new(); h.len()],
            ..Default::default()
        },
    };
    for body in gen.population() {
        match w.exec(body, 0) {
            Some(Message::RegisterRes { .. }) => {}
            other => return Err(format!("traced set-up: {body:?} answered {other:?}")),
        }
        // As a shard loop does between batches: this schedules each
        // server's first path keep-alive a refresh period ahead.
        w.tick_due(Kind::Register, ROOT, 0);
    }
    if opts.durability.is_some() {
        w.servers.clear();
        // A restarted server re-asserts every recovered path at its
        // first tick; the measured ops never wait on a timer, so the
        // traced churn run does not tick.
        w.servers = World::build(&opts, &h)?;
    }
    w.tracing = true;
    let cache0 = w.cache_totals();
    let start_us = w.clock_us;
    let end_us = (seconds * 1e6) as u64;
    let mut op = 0u32;
    loop {
        let next = gen.next_open();
        if next.due_us >= end_us {
            break;
        }
        // Timers fire only while an op waits on one: within the
        // measured seconds that is a gather deadline, the next keep-alive
        // being a refresh period away.
        w.clock_us = w.clock_us.max(start_us + next.due_us);
        w.exec(next.body, op);
        op += 1;
    }
    w.out.virtual_s = (w.clock_us - start_us) as f64 / 1e6;
    w.out.cache = cache_delta(&cache0, &w.cache_totals());
    Ok(w.out)
}
