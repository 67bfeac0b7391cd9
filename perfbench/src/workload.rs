//! Workload definitions and the deterministic op generator.
//!
//! Everything the program under test receives is generated here from
//! the seed: the initial population, the open-loop schedule and the
//! saturation-phase ops. The real run and the traced run build their
//! own [`OpGen`] from the same seed and see the same op sequence.

use hiloc_core::area::{Hierarchy, HierarchyBuilder};
use hiloc_core::cache::CacheConfig;
use hiloc_core::model::{Micros, ObjectId, RangeQuery, Sighting};
use hiloc_core::node::{DurabilityOptions, ServerOptions, StorageSyncPolicy};
use hiloc_core::proto::Message;
use hiloc_geo::{Point, Rect, Region};
use hiloc_net::{CorrId, Endpoint, ServerId};
use hiloc_sim::mobility::{MobilityKind, MobilityModel};
use hiloc_sim::Zipf;
use hiloc_util::rng::{RngExt, SeedableRng, StdRng};
use std::path::Path;

/// Side of the square service area (m): the `macro --quick` shape.
pub const AREA_M: f64 = 10_240.0;
/// Hierarchy levels below the root.
pub const LEVELS: u32 = 2;
/// Grid fan-out per level.
pub const FANOUT: u32 = 2;
/// Requests kept in flight by a saturation phase.
pub const WINDOW: usize = 64;
/// Every update moves its object at least this far (the default
/// distance-based update policy's threshold).
pub const MIN_MOVE_M: f64 = 15.0;
/// Virtual seconds per mobility step while looking for the next move.
const STEP_S: f64 = 20.0;
/// Nominal object speed: 3 km/h pedestrians.
const SPEED_MPS: f64 = 0.83;
/// Zipf exponent of object popularity and entry-leaf hotness.
const ZIPF_ALPHA: f64 = 0.9;
/// Sensor accuracy attached to sightings (m).
pub const ACC_SENS_M: f64 = 10.0;
/// Desired accuracy at registration (m).
pub const DES_ACC_M: f64 = 25.0;
/// Minimal acceptable accuracy at registration (m); also the query
/// accuracy bound, as in the macro bench.
pub const MIN_ACC_M: f64 = 100.0;
/// Declared maximum speed (m/s): servers age cached answers at this
/// rate. In `mixed` an object reports every 20 s, about 1 m/s.
pub const MAX_SPEED_MPS: f64 = 3.0;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Updates only, caches off, volatile visitor DB.
    Track,
    /// Updates beside a 70:20 pos/range query stream, caches on.
    Mixed,
    /// `Mixed` with a 70/20/10 pos/range/NN query stream.
    MixedNn,
    /// Registrations and deregistrations with a durable visitor DB.
    Churn,
}

/// The kind of one client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Position update.
    Update,
    /// Position query.
    Pos,
    /// Range query.
    Range,
    /// Nearest-neighbour query.
    Nn,
    /// Registration.
    Register,
    /// Deregistration (no reply in the protocol).
    Deregister,
}

impl Kind {
    /// All kinds, in reporting order.
    pub const ALL: [Kind; 6] = [
        Kind::Update,
        Kind::Pos,
        Kind::Range,
        Kind::Nn,
        Kind::Register,
        Kind::Deregister,
    ];

    /// Short name used in metric and diagnostic names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Update => "update",
            Kind::Pos => "pos",
            Kind::Range => "range",
            Kind::Nn => "nn",
            Kind::Register => "register",
            Kind::Deregister => "deregister",
        }
    }

    /// Dense index into per-kind arrays.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Whether the protocol answers this request.
    pub fn expects_reply(self) -> bool {
        self != Kind::Deregister
    }
}

/// One request body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Body {
    /// Move `oid` to `pos` (sent to its current agent).
    Update { oid: u64, pos: Point },
    /// Where is `oid`? Asked at `entry`.
    Pos { oid: u64, entry: ServerId },
    /// Who is inside `cell`? Asked at `entry`.
    Range { cell: Rect, entry: ServerId },
    /// Who is nearest to `p`? Asked at `entry`.
    Nn { p: Point, entry: ServerId },
    /// Register a new object at `pos` via `entry`.
    Register {
        oid: u64,
        pos: Point,
        entry: ServerId,
    },
    /// Deregister `oid` at its agent.
    Deregister { oid: u64, agent: ServerId },
}

impl Body {
    /// The request's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Body::Update { .. } => Kind::Update,
            Body::Pos { .. } => Kind::Pos,
            Body::Range { .. } => Kind::Range,
            Body::Nn { .. } => Kind::Nn,
            Body::Register { .. } => Kind::Register,
            Body::Deregister { .. } => Kind::Deregister,
        }
    }

    /// The request as a protocol message and its destination. An
    /// update goes to `agent`, the object's current agent as the
    /// sender knows it; `now_us` stamps sightings.
    pub fn message(
        &self,
        agent: ServerId,
        corr: CorrId,
        me: Endpoint,
        now_us: Micros,
    ) -> (ServerId, Message) {
        match *self {
            Body::Update { oid, pos } => (
                agent,
                Message::UpdateReq {
                    sighting: Sighting::new(ObjectId(oid), now_us, pos, ACC_SENS_M),
                },
            ),
            Body::Pos { oid, entry } => (
                entry,
                Message::PosQueryReq {
                    oid: ObjectId(oid),
                    corr,
                },
            ),
            Body::Range { cell, entry } => (
                entry,
                Message::RangeQueryReq {
                    query: RangeQuery::new(Region::from(cell), MIN_ACC_M, 0.5),
                    corr,
                },
            ),
            Body::Nn { p, entry } => (
                entry,
                Message::NeighborQueryReq {
                    p,
                    req_acc_m: MIN_ACC_M,
                    near_qual_m: MIN_ACC_M / 2.0,
                    corr,
                },
            ),
            Body::Register { oid, pos, entry } => (
                entry,
                Message::RegisterReq {
                    sighting: Sighting::new(ObjectId(oid), now_us, pos, ACC_SENS_M),
                    des_acc_m: DES_ACC_M,
                    min_acc_m: MIN_ACC_M,
                    max_speed_mps: MAX_SPEED_MPS,
                    registrant: me,
                    corr,
                },
            ),
            Body::Deregister { oid, agent } => {
                (agent, Message::DeregisterReq { oid: ObjectId(oid) })
            }
        }
    }
}

/// A scheduled open-loop request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Due time, µs after the phase start.
    pub due_us: u64,
    /// What to send.
    pub body: Body,
}

/// Rates and set-up of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Objects registered during set-up.
    pub objects: u64,
    /// Open-loop updates per second.
    pub update_rate: f64,
    /// Open-loop queries per second: 70/20/10 pos/range/NN, or 70:20
    /// pos/range without NN queries.
    pub query_rate: f64,
    /// Whether the query stream holds NN queries.
    pub nn_queries: bool,
    /// Open-loop arrivals per second (register one, deregister the
    /// oldest).
    pub arrival_rate: f64,
    /// Kind kept at a window of [`WINDOW`] in the saturation phase;
    /// `None` runs the open loop for the whole measured time.
    pub saturate: Option<Kind>,
    /// The op kind whose open-loop latency is the headline metric.
    pub primary: Kind,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "track" => Some(Workload::Track),
            "mixed" => Some(Workload::Mixed),
            "mixed-nn" => Some(Workload::MixedNn),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Track => "track",
            Workload::Mixed => "mixed",
            Workload::MixedNn => "mixed-nn",
            Workload::Churn => "churn",
        }
    }

    /// Rates and set-up.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Track => Spec {
                objects: 100_000,
                update_rate: 10_000.0,
                query_rate: 0.0,
                nn_queries: false,
                arrival_rate: 0.0,
                saturate: Some(Kind::Update),
                primary: Kind::Update,
            },
            Workload::Mixed | Workload::MixedNn => Spec {
                objects: 100_000,
                update_rate: 5_000.0,
                query_rate: 100.0,
                nn_queries: self == Workload::MixedNn,
                arrival_rate: 0.0,
                saturate: None,
                primary: Kind::Range,
            },
            Workload::Churn => Spec {
                objects: 20_000,
                update_rate: 0.0,
                query_rate: 0.0,
                nn_queries: false,
                arrival_rate: 1_000.0,
                saturate: Some(Kind::Register),
                primary: Kind::Register,
            },
        }
    }

    /// Server options: the defaults plus this workload's deltas.
    /// `data_dir` is used only by the durable workload.
    pub fn server_options(self, data_dir: &Path) -> ServerOptions {
        match self {
            Workload::Track => ServerOptions::default(),
            Workload::Mixed | Workload::MixedNn => ServerOptions {
                caches: CacheConfig::all_enabled(),
                ..Default::default()
            },
            Workload::Churn => ServerOptions {
                durability: Some(DurabilityOptions {
                    dir: data_dir.to_path_buf(),
                    policy: StorageSyncPolicy::Always,
                }),
                ..Default::default()
            },
        }
    }

    /// The [`Workload::server_options`] deltas, for the fingerprint.
    pub fn options_delta(self) -> &'static str {
        match self {
            Workload::Track => "none",
            Workload::Mixed | Workload::MixedNn => "caches=CacheConfig::all_enabled()",
            Workload::Churn => "durability=DurabilityOptions{policy:SyncPolicy::Always}",
        }
    }

    /// The visitor-DB flush policy, for the fingerprint.
    pub fn flush_policy(self) -> &'static str {
        match self {
            Workload::Churn => "SyncPolicy::Always",
            _ => "none (volatile visitor DB)",
        }
    }
}

/// The benchmark hierarchy: 21 servers, 16 leaves.
pub fn hierarchy() -> Hierarchy {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(AREA_M, AREA_M));
    HierarchyBuilder::grid(area, LEVELS, FANOUT)
        .build()
        .expect("benchmark hierarchy")
}

/// Leaves of `h` in hierarchy order (the Zipf rank order).
pub fn leaves(h: &Hierarchy) -> Vec<(ServerId, Rect)> {
    h.servers()
        .iter()
        .filter(|c| c.is_leaf())
        .map(|c| (c.id, c.area))
        .collect()
}

/// Spreads Zipf rank `r` over the object ids, as the macro bench does
/// (7919 is prime and divides no population used here).
fn rank_to_oid(rank: usize, objects: u64) -> u64 {
    (rank as u64).wrapping_mul(7919) % objects
}

fn random_point(rng: &mut StdRng, area: Rect) -> Point {
    Point::new(
        rng.random_range(area.min().x..area.max().x - 1e-3),
        rng.random_range(area.min().y..area.max().y - 1e-3),
    )
}

/// Deterministic request generator of one workload run.
pub struct OpGen {
    spec: Spec,
    area: Rect,
    leaves: Vec<(ServerId, Rect)>,
    hierarchy: Hierarchy,
    /// Initial positions of the population.
    initial: Vec<Point>,
    /// Last generated position of every moving object.
    last: Vec<Point>,
    models: Vec<Box<dyn MobilityModel>>,
    zipf_obj: Zipf,
    zipf_leaf: Zipf,
    rng: StdRng,
    next_update: u64,
    updates: u64,
    queries: u64,
    arrivals: u64,
    /// Churn: next object id to register and next resident to
    /// deregister (oldest first).
    next_oid: u64,
    oldest: u64,
    /// Agents of churn residents, by oid (churn objects never move).
    resident_agent: Vec<ServerId>,
    /// A deregistration due at the same time as the last arrival.
    pending_dereg: Option<Op>,
}

impl std::fmt::Debug for OpGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpGen")
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl OpGen {
    /// The generator of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> OpGen {
        let spec = workload.spec();
        let hierarchy = hierarchy();
        let area = hierarchy.root_area();
        let leaves = leaves(&hierarchy);
        let mut place = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let initial: Vec<Point> = (0..spec.objects)
            .map(|_| random_point(&mut place, area))
            .collect();
        let kinds = [
            MobilityKind::RandomWaypoint,
            MobilityKind::Manhattan { spacing_m: 100.0 },
            MobilityKind::GaussMarkov { alpha: 0.75 },
        ];
        let models = if spec.update_rate > 0.0 || spec.saturate == Some(Kind::Update) {
            initial
                .iter()
                .enumerate()
                .map(|(i, &p)| kinds[i % 3].build(area, p, SPEED_MPS, seed ^ (i as u64 + 1)))
                .collect()
        } else {
            Vec::new()
        };
        let resident_agent = if spec.arrival_rate > 0.0 || spec.saturate == Some(Kind::Register) {
            initial
                .iter()
                .map(|&p| hierarchy.leaf_for(p).expect("in area"))
                .collect()
        } else {
            Vec::new()
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0000_C17F);
        let next_update = rng.random_range(0..spec.objects);
        OpGen {
            spec,
            area,
            zipf_obj: Zipf::new(spec.objects as usize, ZIPF_ALPHA),
            zipf_leaf: Zipf::new(leaves.len(), ZIPF_ALPHA),
            leaves,
            hierarchy,
            last: initial.clone(),
            initial,
            models,
            rng,
            next_update,
            updates: 0,
            queries: 0,
            arrivals: 0,
            next_oid: spec.objects,
            oldest: 0,
            resident_agent,
            pending_dereg: None,
        }
    }

    /// The workload's rates.
    pub fn spec(&self) -> Spec {
        self.spec
    }

    /// The hierarchy the ops are generated for.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The set-up registrations: every object of the initial population
    /// at its responsible leaf.
    pub fn population(&self) -> Vec<Body> {
        self.initial
            .iter()
            .enumerate()
            .map(|(i, &pos)| Body::Register {
                oid: i as u64,
                pos,
                entry: self.hierarchy.leaf_for(pos).expect("in area"),
            })
            .collect()
    }

    fn update(&mut self) -> Body {
        let oid = self.next_update;
        self.next_update = (self.next_update + 1) % self.spec.objects;
        let i = oid as usize;
        let from = self.last[i];
        let mut pos = self.models[i].step(STEP_S);
        for _ in 0..50 {
            if pos.distance(from) >= MIN_MOVE_M {
                break;
            }
            pos = self.models[i].step(STEP_S);
        }
        self.last[i] = pos;
        Body::Update { oid, pos }
    }

    fn hot_leaf(&mut self) -> (ServerId, Rect) {
        self.leaves[self.zipf_leaf.sample(&mut self.rng)]
    }

    fn query(&mut self) -> Body {
        let entry = self.hot_leaf().0;
        // Without NN queries the draw is scaled into the pos and range
        // bands, keeping their 70:20 ratio.
        let top = if self.spec.nn_queries { 1.0 } else { 0.9 };
        let kind = self.rng.random::<f64>() * top;
        if kind < 0.7 {
            let oid = rank_to_oid(self.zipf_obj.sample(&mut self.rng), self.spec.objects);
            Body::Pos { oid, entry }
        } else if kind < 0.9 {
            // A hot cell: half a leaf's side, centred on a Zipf-hot leaf.
            let hot = self.hot_leaf().1;
            let side = hot.width() / 2.0;
            Body::Range {
                cell: Rect::from_center_size(hot.center(), side, side),
                entry,
            }
        } else {
            Body::Nn {
                p: self.hot_leaf().1.center(),
                entry,
            }
        }
    }

    fn arrival(&mut self) -> Body {
        let oid = self.next_oid;
        self.next_oid += 1;
        let pos = random_point(&mut self.rng, self.area);
        let entry = self.hierarchy.leaf_for(pos).expect("in area");
        self.resident_agent.push(entry);
        Body::Register { oid, pos, entry }
    }

    /// The next open-loop request, in due-time order.
    pub fn next_open(&mut self) -> Op {
        if let Some(op) = self.pending_dereg.take() {
            return op;
        }
        let due = |count: u64, rate: f64| {
            if rate > 0.0 {
                (count as f64 * 1e6 / rate) as u64
            } else {
                u64::MAX
            }
        };
        let du = due(self.updates, self.spec.update_rate);
        let dq = due(self.queries, self.spec.query_rate);
        let da = due(self.arrivals, self.spec.arrival_rate);
        if du <= dq && du <= da {
            self.updates += 1;
            Op {
                due_us: du,
                body: self.update(),
            }
        } else if dq <= da {
            self.queries += 1;
            Op {
                due_us: dq,
                body: self.query(),
            }
        } else {
            self.arrivals += 1;
            let body = self.arrival();
            let old = self.oldest;
            self.oldest += 1;
            let agent = self.resident_agent[old as usize];
            self.pending_dereg = Some(Op {
                due_us: da,
                body: Body::Deregister { oid: old, agent },
            });
            Op { due_us: da, body }
        }
    }

    /// The next saturation-phase request.
    ///
    /// # Panics
    ///
    /// Panics when the workload has no saturation phase.
    pub fn next_window(&mut self) -> Body {
        match self.spec.saturate {
            Some(Kind::Update) => self.update(),
            Some(Kind::Register) => self.arrival(),
            other => panic!("no saturation phase for {other:?}"),
        }
    }
}
