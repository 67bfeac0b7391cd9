//! Output checks: query answers against the generator's own record of
//! every acked position.
//!
//! The checks run after the measured phases, from what the receiver
//! recorded, so checking never delays the load. An object is checked
//! only while its position is known for sure: no update of it was in
//! flight between the query's send and its reply, and its last update
//! before that was acked.

use crate::workload::{Body, DES_ACC_M, MAX_SPEED_MPS, MIN_ACC_M};
use hiloc_core::cache::CacheConfig;
use hiloc_core::model::LocationDescriptor;
use hiloc_core::node::ServerOptions;
use hiloc_core::proto::ObjectLocation;
use hiloc_geo::{Point, Rect};

/// Objects this far inside a range cell must be in a complete answer.
const RANGE_MARGIN_M: f64 = 60.0;
/// Slack for floating-point comparisons of positions.
const EPS_M: f64 = 1e-6;

/// The servers' gather deadline, in ns.
fn gather_timeout_ns() -> u64 {
    ServerOptions::default().query_timeout_us * 1_000
}

/// The longest a cached position is served: until its accuracy, aged
/// at the declared speed, passes the cache's limit.
fn cache_life_ns() -> u64 {
    let cfg = CacheConfig::all_enabled();
    ((cfg.position_max_aged_acc_m - DES_ACC_M) / MAX_SPEED_MPS * 1e9) as u64
}

/// One finished update: acked (`ok`) or failed.
#[derive(Debug, Clone, Copy)]
pub struct Move {
    /// The object.
    pub oid: u64,
    /// When the update was sent and when it finished (ns).
    pub sent_ns: u64,
    /// See `sent_ns`.
    pub done_ns: u64,
    /// The position it reported.
    pub pos: Point,
    /// Acked (in place or by handover).
    pub ok: bool,
}

/// The part of a query reply the checks read.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A position answer.
    Pos(Option<LocationDescriptor>),
    /// A complete range answer.
    Range(Vec<ObjectLocation>),
    /// A complete nearest-neighbour answer.
    Nn(Option<ObjectLocation>),
}

/// A recorded query answer.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The request.
    pub body: Body,
    /// When it was sent and when the reply arrived (ns).
    pub sent_ns: u64,
    /// See `sent_ns`.
    pub done_ns: u64,
    /// The reply.
    pub reply: Reply,
    /// Index of the phase tally it was counted in.
    pub phase: usize,
}

/// Where every object was, as far as the generator knows.
#[derive(Debug)]
pub struct Truth {
    initial: Vec<Point>,
    moves: Vec<Move>,
    /// `moves[start[o]..start[o + 1]]` are object `o`'s, by send time.
    start: Vec<usize>,
}

impl Truth {
    /// Indexes the set-up positions and the updates of a run.
    pub fn new(initial: Vec<Point>, mut moves: Vec<Move>) -> Truth {
        let n = initial.len();
        moves.retain(|m| (m.oid as usize) < n);
        moves.sort_by_key(|m| (m.oid, m.sent_ns));
        let mut start = vec![0; n + 1];
        for m in &moves {
            start[m.oid as usize + 1] += 1;
        }
        for o in 0..n {
            start[o + 1] += start[o];
        }
        Truth {
            initial,
            moves,
            start,
        }
    }

    /// Objects known.
    fn len(&self) -> usize {
        self.initial.len()
    }

    /// Every position object `o` held at some time in
    /// `[from - horizon, from)`, newest first (its acked reports; the
    /// set-up position counts as held from the start).
    pub fn recent(&self, o: usize, from: u64, horizon: u64) -> Vec<Point> {
        let since = from.saturating_sub(horizon);
        let mut out = Vec::new();
        // A position stays current until the next acked report.
        let mut next_report = u64::MAX;
        for m in self.moves[self.start[o]..self.start[o + 1]].iter().rev() {
            if !m.ok || m.done_ns >= from {
                continue;
            }
            if next_report <= since {
                return out;
            }
            out.push(m.pos);
            next_report = m.done_ns;
        }
        if next_report > since {
            out.push(self.initial[o]);
        }
        out
    }

    /// Object `o`'s position if it held still and was known for sure
    /// throughout `[from, to]`.
    pub fn still(&self, o: usize, from: u64, to: u64) -> Option<Point> {
        let mine = &self.moves[self.start[o]..self.start[o + 1]];
        let before = mine.partition_point(|m| m.sent_ns <= to);
        match before.checked_sub(1).map(|i| mine[i]) {
            None => Some(self.initial[o]),
            Some(m) if m.ok && m.done_ns < from => Some(m.pos),
            Some(_) => None,
        }
    }
}

/// Judges one answer: `Ok(true)` when it was checked and holds,
/// `Ok(false)` when nothing in it could be checked, `Err` with the
/// reason when it contradicts the truth.
pub fn check(truth: &Truth, a: &Answer) -> Result<bool, String> {
    let (from, to) = (a.sent_ns, a.done_ns);
    match (&a.body, &a.reply) {
        (Body::Pos { oid, .. }, Reply::Pos(found)) => {
            let o = *oid as usize;
            let Some(pos) = truth.still(o, from, to) else {
                return Ok(false);
            };
            match found {
                // The entry's reply when its forwarded query timed out
                // looks like "unknown": a failure, already counted.
                None if to - from >= gather_timeout_ns() => Ok(false),
                None => Err(format!(
                    "pos: object {o} answered unknown after {:.3} ms, but it is registered at {pos:?}",
                    (to - from) as f64 / 1e6
                )),
                // A cached answer describes the report it was learned
                // from, aged at the declared speed. Benchmark objects
                // jump between reports instead of moving smoothly, so
                // the aged answer is held to the report it came from:
                // any position the object held within a cache entry's
                // lifetime.
                Some(ld) => {
                    let held = truth.recent(o, from, cache_life_ns());
                    if held.iter().any(|p| ld.pos.distance(*p) <= ld.acc_m + EPS_M) {
                        Ok(true)
                    } else {
                        Err(format!(
                            "pos: object {o} answered at {:?} ±{} m, but it is at {pos:?} ({:.1} m away) and held no position within reach in the last {} s",
                            ld.pos,
                            ld.acc_m,
                            ld.pos.distance(pos),
                            cache_life_ns() / 1_000_000_000
                        ))
                    }
                }
            }
        }
        (Body::Range { cell, .. }, Reply::Range(items)) => {
            let mut ids: Vec<u64> = items.iter().map(|(oid, _)| oid.0).collect();
            ids.sort_unstable();
            for &(oid, ld) in items {
                let o = oid.0 as usize;
                if let Some(pos) = (o < truth.len())
                    .then(|| truth.still(o, from, to))
                    .flatten()
                {
                    if ld.pos.distance(pos) > ld.acc_m + EPS_M {
                        return Err(format!(
                            "range: object {o} answered at {:?}, but it is at {pos:?}",
                            ld.pos
                        ));
                    }
                }
            }
            let inner = Rect::new(
                Point::new(cell.min().x + RANGE_MARGIN_M, cell.min().y + RANGE_MARGIN_M),
                Point::new(cell.max().x - RANGE_MARGIN_M, cell.max().y - RANGE_MARGIN_M),
            );
            for o in 0..truth.len() {
                if let Some(pos) = truth.still(o, from, to) {
                    if inner.contains(pos) && ids.binary_search(&(o as u64)).is_err() {
                        return Err(format!(
                            "range: object {o} at {pos:?} lies well inside {cell:?} but is missing from a complete answer of {} objects",
                            items.len()
                        ));
                    }
                }
            }
            Ok(true)
        }
        (Body::Nn { p, .. }, Reply::Nn(nearest)) => {
            let closest = (0..truth.len())
                .filter_map(|o| truth.still(o, from, to))
                .map(|pos| pos.distance(*p))
                .fold(f64::INFINITY, f64::min);
            match nearest {
                None if closest.is_finite() => Err(format!(
                    "nn: nothing found near {p:?}, but an object is {closest:.1} m away"
                )),
                Some((oid, ld)) if ld.pos.distance(*p) > closest + MIN_ACC_M => Err(format!(
                    "nn: object {} answered at {:.1} m from {p:?}, but one is {closest:.1} m away",
                    oid.0,
                    ld.pos.distance(*p)
                )),
                _ => Ok(true),
            }
        }
        _ => Ok(false),
    }
}

/// Summary of all checks of a run.
#[derive(Debug, Default)]
pub struct Verdicts {
    /// Answers checked, by kind.
    pub checked: [u64; 6],
    /// Wrong answers by phase index, and whether each was counted as
    /// a success (`true`) or already as a failure.
    pub wrong: Vec<(usize, bool)>,
    /// The reasons, verbatim.
    pub reasons: Vec<String>,
}

/// Checks every recorded answer.
pub fn verify(truth: &Truth, answers: &[Answer]) -> Verdicts {
    let mut v = Verdicts::default();
    for a in answers {
        match check(truth, a) {
            Ok(true) => v.checked[a.body.kind().idx()] += 1,
            Ok(false) => {}
            Err(why) => {
                v.checked[a.body.kind().idx()] += 1;
                let counted_ok = !matches!(a.reply, Reply::Pos(None));
                v.wrong.push((a.phase, counted_ok));
                v.reasons.push(why);
            }
        }
    }
    v
}
