//! Storage and spatial layers measured standalone: each server's
//! logged inputs from the traced run are replayed against a fresh
//! `SightingDb::new_quadtree()` and `DurableMap::open(dir, Always)`.
// lint:allow-file(wallclock) the replay times individual storage and index calls

use crate::traced::StorageEvent;
use crate::workload::{Body, MIN_ACC_M};
use hiloc_core::node::VisitorRecord;
use hiloc_geo::{Point, Rect, Region};
use hiloc_net::ServerId;
use hiloc_storage::{DurableMap, SightingDb, StoredSighting, SyncPolicy};
use hiloc_util::rng::{RngExt, SeedableRng, StdRng};
use std::path::Path;
use std::time::Instant;

/// Synced visitor writes replayed at most (each costs an fsync).
const MAX_VISITOR_WRITES: usize = 3_000;
/// Range and nearest probes run against the replayed indexes.
const PROBES: usize = 200;

/// Per-call costs of the storage and spatial layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageOut {
    /// Sighting upserts and removes replayed.
    pub sighting_ops: u64,
    /// Mean ns per sighting upsert or remove.
    pub sighting_ns: f64,
    /// Visitor-store writes replayed.
    pub visitor_writes: u64,
    /// Mean µs per synced visitor insert or remove.
    pub visitor_write_us: f64,
    /// WAL bytes appended per visitor write.
    pub wal_bytes_per_write: f64,
    /// Automatic checkpoints taken during the replay.
    pub auto_checkpoints: u64,
    /// Mean ms of the checkpoint that closes each replayed store.
    pub checkpoint_ms: f64,
    /// Mean µs per range-candidate scan.
    pub range_us: f64,
    /// Mean µs per nearest-neighbour search.
    pub nearest_us: f64,
    /// Index candidates per object inside the probed cell.
    pub candidates_per_result: f64,
}

/// Replays `logs` (indexed by server id). `population` seeds each
/// leaf's index with the set-up registrations; `leaves` lists the leaf
/// areas; `dir` receives the replayed visitor stores.
///
/// # Errors
///
/// Fails when a replay store cannot be opened or written.
pub fn replay(
    logs: &[Vec<StorageEvent>],
    population: &[Body],
    leaves: &[(ServerId, Rect)],
    dir: &Path,
    seed: u64,
) -> Result<StorageOut, String> {
    let mut out = StorageOut::default();
    let mut dbs: Vec<Option<SightingDb>> = (0..logs.len()).map(|_| None).collect();
    for &(id, _) in leaves {
        dbs[id.0 as usize] = Some(SightingDb::new_quadtree());
    }
    for body in population {
        if let Body::Register { oid, pos, entry } = *body {
            if let Some(db) = dbs[entry.0 as usize].as_mut() {
                db.upsert(StoredSighting {
                    key: oid,
                    pos,
                    time_us: 0,
                    acc_sens_m: 10.0,
                    expires_us: u64::MAX,
                });
            }
        }
    }

    // Sighting DB: time the whole replay of each leaf's log.
    let mut ns = 0u128;
    for (i, log) in logs.iter().enumerate() {
        let Some(db) = dbs[i].as_mut() else { continue };
        let t = Instant::now();
        for ev in log {
            match *ev {
                StorageEvent::Upsert(s) => {
                    std::hint::black_box(db.upsert(s));
                    out.sighting_ops += 1;
                }
                StorageEvent::Remove(key) => {
                    std::hint::black_box(db.remove(key));
                    out.sighting_ops += 1;
                }
                StorageEvent::Visitor(..) => {}
            }
        }
        ns += t.elapsed().as_nanos();
    }
    out.sighting_ns = ns as f64 / out.sighting_ops.max(1) as f64;

    // Visitor store: one synced DurableMap per server that wrote.
    let mut write_ns = 0u128;
    let mut wal_bytes = 0u64;
    let mut ckpt_ms = Vec::new();
    for (i, log) in logs.iter().enumerate() {
        let writes: Vec<(u64, Option<VisitorRecord>)> = log
            .iter()
            .filter_map(|ev| match *ev {
                StorageEvent::Visitor(oid, rec) => Some((oid, rec)),
                _ => None,
            })
            .take(MAX_VISITOR_WRITES.saturating_sub(out.visitor_writes as usize))
            .collect();
        if writes.is_empty() {
            continue;
        }
        let path = dir.join(format!("server-{i}"));
        let _ = std::fs::remove_dir_all(&path);
        let mut map: DurableMap<VisitorRecord> = DurableMap::open(&path, SyncPolicy::Always)
            .map_err(|e| format!("replay store: {e}"))?;
        let wal0 = map.wal_bytes();
        for (oid, rec) in writes {
            let t = Instant::now();
            match rec {
                Some(r) => map.insert(oid, r),
                None => map.remove(oid).map(|_| ()),
            }
            .map_err(|e| format!("replay write: {e}"))?;
            write_ns += t.elapsed().as_nanos();
            out.visitor_writes += 1;
        }
        wal_bytes += map.wal_bytes().saturating_sub(wal0);
        out.auto_checkpoints += map.stats().snapshots_written;
        let t = Instant::now();
        map.compact()
            .map_err(|e| format!("replay checkpoint: {e}"))?;
        ckpt_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let writes = out.visitor_writes.max(1) as f64;
    out.visitor_write_us = write_ns as f64 / 1e3 / writes;
    out.wal_bytes_per_write = wal_bytes as f64 / writes;
    out.checkpoint_ms = crate::stats::mean(&ckpt_ms);

    // Spatial probes shaped like the mixed workloads' queries: a
    // half-leaf cell and a nearest search at a random leaf's centre.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05EA_71A1);
    let (mut range_ns, mut nearest_ns, mut candidates, mut results) = (0u128, 0u128, 0u64, 0u64);
    for _ in 0..PROBES {
        let (id, area) = leaves[rng.random_range(0..leaves.len())];
        let db = dbs[id.0 as usize].as_ref().expect("leaf index");
        let side = area.width() / 2.0;
        let jitter = Point::new(
            rng.random_range(-side / 2.0..side / 2.0),
            rng.random_range(-side / 2.0..side / 2.0),
        );
        let cell = Rect::from_center_size(area.center() + jitter, side, side);
        let region = Region::from(cell);
        let t = Instant::now();
        db.range_candidates(&region, MIN_ACC_M, &mut |s| {
            candidates += 1;
            if cell.contains(s.pos) {
                results += 1;
            }
        });
        range_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        std::hint::black_box(db.nearest_where(area.center() + jitter, &mut |_| true));
        nearest_ns += t.elapsed().as_nanos();
    }
    out.range_us = range_ns as f64 / 1e3 / PROBES as f64;
    out.nearest_us = nearest_ns as f64 / 1e3 / PROBES as f64;
    out.candidates_per_result = candidates as f64 / results.max(1) as f64;
    Ok(out)
}
