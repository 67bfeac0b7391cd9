//! Direct unit tests of the server state machine: feed envelopes into
//! `LocationServer::handle` without any runtime and inspect the exact
//! outputs — the paper's pseudocode, line by line.

use hiloc_core::area::HierarchyBuilder;
use hiloc_core::model::semantics::qualifies_for_range;
use hiloc_core::model::{Hlc, LocationDescriptor, ObjectId, RangeQuery, Sighting, SECOND};
use hiloc_core::node::{LocationServer, ServerOptions, VisitorRecord};
use hiloc_core::proto::Message;
use hiloc_geo::{Point, Polygon, Rect, Region};
use hiloc_net::{ClientId, CorrId, Endpoint, Envelope, ServerId};
use hiloc_util::rng::{RngExt, SeedableRng, StdRng};
use std::collections::BTreeMap;

fn servers() -> Vec<LocationServer> {
    // Root + 4 leaves over 1 km².
    let h = HierarchyBuilder::grid(
        Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)),
        1,
        2,
    )
    .build()
    .unwrap();
    h.servers()
        .iter()
        .map(|cfg| LocationServer::new(cfg.clone(), ServerOptions::default()).unwrap())
        .collect()
}

fn client() -> Endpoint {
    ClientId(7).into()
}

fn env(from: Endpoint, to: ServerId, msg: Message) -> Envelope<Message> {
    Envelope::new(from, to.into(), msg)
}

fn register_msg(oid: u64, pos: Point, corr: u64) -> Message {
    Message::RegisterReq {
        sighting: Sighting::new(ObjectId(oid), 0, pos, 5.0),
        des_acc_m: 10.0,
        min_acc_m: 50.0,
        max_speed_mps: 2.0,
        registrant: client(),
        corr: CorrId(corr),
    }
}

#[test]
fn leaf_registration_emits_res_and_create_path() {
    let mut nodes = servers();
    let leaf = &mut nodes[1]; // SW quadrant
    let pos = Point::new(100.0, 100.0);
    assert!(leaf.config().contains(pos));

    let out = leaf.handle(0, env(client(), ServerId(1), register_msg(1, pos, 9)));
    assert_eq!(out.len(), 2);
    // CreatePath to the parent...
    assert!(out.iter().any(|e| {
        e.to == Endpoint::Server(ServerId(0))
            && matches!(e.msg, Message::CreatePath { oid: ObjectId(1), .. })
    }));
    // ...and the response to the registrant with the desired accuracy.
    assert!(out.iter().any(|e| {
        e.to == client()
            && matches!(
                e.msg,
                Message::RegisterRes { agent: ServerId(1), offered_acc_m, corr: CorrId(9) }
                if offered_acc_m == 10.0
            )
    }));
    assert_eq!(leaf.sighting_count(), 1);
    assert_eq!(leaf.visitor_count(), 1);
    assert_eq!(leaf.stats().registrations, 1);
}

#[test]
fn leaf_rejects_registrations_with_invalid_accuracy_bounds() {
    // Each of these would be stored as a record whose handover or
    // replication message the codec refuses to decode.
    let pos = Point::new(100.0, 100.0);
    let bounds = [
        (50.0, 30.0, 2.0),      // desired worse than minimal
        (-1.0, 30.0, 2.0),      // negative desired accuracy
        (10.0, 30.0, f64::NAN), // NaN max speed
        (10.0, 30.0, -3.0),     // negative max speed
    ];
    for (i, (des_acc_m, min_acc_m, max_speed_mps)) in bounds.into_iter().enumerate() {
        let mut nodes = servers();
        let msg = Message::RegisterReq {
            sighting: Sighting::new(ObjectId(1), 0, pos, 5.0),
            des_acc_m,
            min_acc_m,
            max_speed_mps,
            registrant: client(),
            corr: CorrId(i as u64),
        };
        let out = nodes[1].handle(0, env(client(), ServerId(1), msg));
        assert_eq!(out.len(), 1, "case {i}: {out:?}");
        assert_eq!(out[0].to, client());
        assert!(matches!(out[0].msg, Message::RegisterFailed { .. }), "case {i}: {out:?}");
        assert_eq!(nodes[1].visitor_count(), 0, "case {i}");
    }

    // A renegotiation to a NaN range is refused the same way.
    let mut nodes = servers();
    nodes[1].handle(0, env(client(), ServerId(1), register_msg(1, pos, 9)));
    let change = Message::ChangeAccReq {
        oid: ObjectId(1),
        des_acc_m: f64::NAN,
        min_acc_m: 30.0,
        corr: CorrId(10),
    };
    let out = nodes[1].handle(1, env(client(), ServerId(1), change));
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(matches!(out[0].msg, Message::ChangeAccRes { ok: false, .. }), "{out:?}");
}

#[test]
fn nonleaf_routes_registration_down_and_root_rejects_outside() {
    let mut nodes = servers();
    let pos = Point::new(900.0, 100.0); // SE quadrant = s2
    let out = nodes[0].handle(0, env(client(), ServerId(0), register_msg(2, pos, 1)));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, Endpoint::Server(ServerId(2)));

    // Outside the root area: RegisterFailed straight to the registrant.
    let outside = Point::new(5_000.0, 0.0);
    let out = nodes[0].handle(0, env(client(), ServerId(0), register_msg(3, outside, 2)));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, client());
    assert!(matches!(out[0].msg, Message::RegisterFailed { .. }));
}

#[test]
fn create_path_propagates_until_root() {
    let mut nodes = servers();
    let out = nodes[0].handle(
        0,
        env(ServerId(1).into(), ServerId(0), Message::CreatePath { oid: ObjectId(4), epoch: Hlc(5) }),
    );
    // Root has no parent: path ends here.
    assert!(out.is_empty());
    assert!(matches!(
        nodes[0].visitors().get(ObjectId(4)),
        Some(VisitorRecord::Forward { child: ServerId(1), .. })
    ));

    // A stale CreatePath (older epoch) is ignored and not propagated.
    let out = nodes[0].handle(
        1,
        env(ServerId(2).into(), ServerId(0), Message::CreatePath { oid: ObjectId(4), epoch: Hlc(3) }),
    );
    assert!(out.is_empty());
    assert!(matches!(
        nodes[0].visitors().get(ObjectId(4)),
        Some(VisitorRecord::Forward { child: ServerId(1), .. })
    ));
}

#[test]
fn update_without_registration_triggers_agent_lookup() {
    let mut nodes = servers();
    let out = nodes[1].handle(
        0,
        env(
            client(),
            ServerId(1),
            Message::UpdateReq { sighting: Sighting::new(ObjectId(9), 0, Point::new(1.0, 1.0), 5.0) },
        ),
    );
    // The update itself is dropped, but the leaf routes an agent lookup
    // so the (possibly stale) client can recover.
    assert_eq!(nodes[1].stats().updates_dropped, 1);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, Endpoint::Server(ServerId(0)));
    assert!(matches!(out[0].msg, Message::AgentLookup { oid: ObjectId(9), .. }));

    // At the root with no record at all: the object is told to
    // re-register.
    let out = nodes[0].handle(
        0,
        env(ServerId(1).into(), ServerId(0), Message::AgentLookup { oid: ObjectId(9), object: client() }),
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, client());
    assert!(matches!(out[0].msg, Message::OutOfServiceArea { oid: ObjectId(9) }));
}

#[test]
fn update_inside_area_acks_with_offered_accuracy() {
    let mut nodes = servers();
    let pos = Point::new(100.0, 100.0);
    nodes[1].handle(0, env(client(), ServerId(1), register_msg(5, pos, 1)));
    let out = nodes[1].handle(
        SECOND,
        env(
            client(),
            ServerId(1),
            Message::UpdateReq { sighting: Sighting::new(ObjectId(5), SECOND, Point::new(120.0, 90.0), 5.0) },
        ),
    );
    assert_eq!(out.len(), 1);
    assert!(matches!(
        out[0].msg,
        Message::UpdateAck { oid: ObjectId(5), offered_acc_m, time_us }
        if offered_acc_m == 10.0 && time_us == SECOND
    ));
    assert_eq!(nodes[1].stats().updates, 1);
}

#[test]
fn update_batch_coalesces_acks_and_keeps_individual_failures() {
    let mut nodes = servers();
    // Two objects registered at leaf s1; a third is unknown there.
    nodes[1].handle(0, env(client(), ServerId(1), register_msg(20, Point::new(100.0, 100.0), 1)));
    nodes[1].handle(0, env(client(), ServerId(1), register_msg(21, Point::new(200.0, 150.0), 2)));
    let batch = Message::UpdateBatch {
        sightings: vec![
            Sighting::new(ObjectId(20), SECOND, Point::new(110.0, 100.0), 5.0),
            Sighting::new(ObjectId(99), SECOND, Point::new(50.0, 50.0), 5.0), // unknown
            Sighting::new(ObjectId(21), SECOND, Point::new(205.0, 150.0), 5.0),
        ],
        corr: CorrId(77),
    };
    let out = nodes[1].handle(SECOND, env(client(), ServerId(1), batch));
    // One coalesced ack for the two applied sightings, plus the agent
    // lookup for the unknown object.
    let ack = out
        .iter()
        .find_map(|e| match &e.msg {
            Message::UpdateBatchAck { acks, time_us, corr } => Some((acks.clone(), *time_us, *corr)),
            _ => None,
        })
        .expect("batch ack emitted");
    assert_eq!(ack.0, vec![(ObjectId(20), 10.0), (ObjectId(21), 10.0)]);
    assert_eq!((ack.1, ack.2), (SECOND, CorrId(77)));
    assert!(out.iter().any(|e| matches!(e.msg, Message::AgentLookup { oid: ObjectId(99), .. })));
    assert_eq!(nodes[1].stats().updates, 2);
    assert_eq!(nodes[1].stats().updates_dropped, 1);
    assert_eq!(nodes[1].sighting_count(), 2);

    // A batched sighting that leaves the area still starts its own
    // handover while the rest of the batch acks in place.
    let batch = Message::UpdateBatch {
        sightings: vec![
            Sighting::new(ObjectId(20), 2 * SECOND, Point::new(120.0, 100.0), 5.0),
            Sighting::new(ObjectId(21), 2 * SECOND, Point::new(900.0, 100.0), 5.0), // out of s1
        ],
        corr: CorrId(78),
    };
    let out = nodes[1].handle(2 * SECOND, env(client(), ServerId(1), batch));
    assert!(out.iter().any(|e| matches!(e.msg, Message::HandoverReq { .. })));
    let ack = out
        .iter()
        .find_map(|e| match &e.msg {
            Message::UpdateBatchAck { acks, .. } => Some(acks.clone()),
            _ => None,
        })
        .expect("batch ack emitted");
    assert_eq!(ack, vec![(ObjectId(20), 10.0)]);
    assert_eq!(nodes[1].stats().handovers_started, 1);
}

#[test]
fn out_of_area_update_starts_handover_without_touching_records_yet() {
    let mut nodes = servers();
    let pos = Point::new(100.0, 100.0);
    nodes[1].handle(0, env(client(), ServerId(1), register_msg(6, pos, 1)));
    let out = nodes[1].handle(
        SECOND,
        env(
            client(),
            ServerId(1),
            Message::UpdateReq { sighting: Sighting::new(ObjectId(6), SECOND, Point::new(900.0, 100.0), 5.0) },
        ),
    );
    // One HandoverReq to the parent; the local records stay until the
    // response arrives (paper Alg. 6-2 removes only after handoverRes).
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, Endpoint::Server(ServerId(0)));
    assert!(matches!(out[0].msg, Message::HandoverReq { .. }));
    assert_eq!(nodes[1].sighting_count(), 1);
    assert_eq!(nodes[1].visitor_count(), 1);
    assert_eq!(nodes[1].pending_count(), 1);
    assert_eq!(nodes[1].stats().handovers_started, 1);
}

#[test]
fn direct_pos_query_fwd_on_stale_leaf_reports_miss() {
    let mut nodes = servers();
    // Leaf s1 does not know object 42; a *direct* (cache-routed) probe
    // must answer PosQueryMiss to the entry instead of crawling the
    // hierarchy.
    let out = nodes[1].handle(
        0,
        env(
            ServerId(4).into(),
            ServerId(1),
            Message::PosQueryFwd { oid: ObjectId(42), entry: ServerId(4), direct: true, corr: CorrId(3) },
        ),
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, Endpoint::Server(ServerId(4)));
    assert!(matches!(out[0].msg, Message::PosQueryMiss { oid: ObjectId(42), corr: CorrId(3) }));

    // A non-direct probe arriving *from the parent* (stale forwarding
    // reference) must not bounce back up — it answers "unknown" to the
    // entry (loop guard).
    let out = nodes[1].handle(
        0,
        env(
            ServerId(0).into(),
            ServerId(1),
            Message::PosQueryFwd { oid: ObjectId(42), entry: ServerId(4), direct: false, corr: CorrId(4) },
        ),
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, Endpoint::Server(ServerId(4)));
    assert!(matches!(out[0].msg, Message::PosQueryRes { found: None, .. }));

    // The same probe from a non-parent (e.g. the entry itself during a
    // cache-assisted flow) still climbs toward the root.
    let out = nodes[1].handle(
        0,
        env(
            ServerId(4).into(),
            ServerId(1),
            Message::PosQueryFwd { oid: ObjectId(42), entry: ServerId(4), direct: false, corr: CorrId(5) },
        ),
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, Endpoint::Server(ServerId(0)));
    assert!(matches!(out[0].msg, Message::PosQueryFwd { .. }));
}

#[test]
fn client_addressed_messages_are_ignored_by_servers() {
    let mut nodes = servers();
    for msg in [
        Message::UpdateAck { oid: ObjectId(1), offered_acc_m: 1.0, time_us: 0 },
        Message::RegisterRes { agent: ServerId(1), offered_acc_m: 1.0, corr: CorrId(1) },
        Message::AgentChanged { oid: ObjectId(1), new_agent: ServerId(2), offered_acc_m: 1.0 },
        Message::EventNotify {
            event_id: 1,
            kind: hiloc_core::events::EventKind::CountReached { count: 1 },
        },
        Message::PositionProbe { oid: ObjectId(1) },
    ] {
        let out = nodes[1].handle(0, env(ServerId(0).into(), ServerId(1), msg));
        assert!(out.is_empty(), "misrouted client message must be ignored");
    }
}

#[test]
fn late_handover_response_is_ignored() {
    let mut nodes = servers();
    let out = nodes[1].handle(
        0,
        env(
            ServerId(0).into(),
            ServerId(1),
            Message::HandoverRes {
                oid: ObjectId(1),
                new_agent: ServerId(2),
                offered_acc_m: 10.0,
                epoch: Hlc(1),
                corr: CorrId(999), // no pending entry
            },
        ),
    );
    assert!(out.is_empty());
}

#[test]
fn tick_times_out_stale_gathers_with_partial_answer() {
    let mut nodes = servers();
    let q = hiloc_core::model::RangeQuery::new(
        hiloc_geo::Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(999.0, 999.0))),
        50.0,
        0.5,
    );
    // Entry s1 scatters and parks a gather.
    let out = nodes[1].handle(
        0,
        env(client(), ServerId(1), Message::RangeQueryReq { query: q, corr: CorrId(5) }),
    );
    assert!(!out.is_empty());
    assert_eq!(nodes[1].pending_count(), 1);
    assert!(nodes[1].next_timer().is_some());

    // No sub-results ever arrive; the deadline passes.
    let deadline = nodes[1].next_timer().unwrap();
    let out = nodes[1].tick(deadline);
    assert_eq!(out.len(), 1);
    assert!(matches!(
        out[0].msg,
        Message::RangeQueryRes { complete: false, .. }
    ));
    assert_eq!(nodes[1].pending_count(), 0);
    assert_eq!(nodes[1].stats().gathers_timed_out, 1);
}

/// A leaf's range answer equals a scan of every sighting through the
/// exact predicate, for rectangle and polygon regions, including
/// objects whose offered accuracy exceeds `reqAcc`, and comes back
/// sorted by object id.
#[test]
fn leaf_range_answers_match_a_brute_force_scan() {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
    let h = HierarchyBuilder::grid(area, 0, 2).build().unwrap();
    let mut leaf = LocationServer::new(h.servers()[0].clone(), ServerOptions::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA4C1E);
    let random_pos = |rng: &mut StdRng| {
        Point::new(rng.random_range(0.0..1_000.0), rng.random_range(0.0..1_000.0))
    };
    // oid → (position, offered accuracy), filled in from the leaf's replies.
    let mut truth: BTreeMap<u64, LocationDescriptor> = BTreeMap::new();
    for oid in 0..600u64 {
        // Ids spread over the key space, registered in scrambled order.
        let oid = oid.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
        let pos = random_pos(&mut rng);
        let msg = Message::RegisterReq {
            sighting: Sighting::new(ObjectId(oid), 0, pos, 5.0),
            des_acc_m: rng.random_range(1.0..120.0),
            min_acc_m: 150.0,
            max_speed_mps: 2.0,
            registrant: client(),
            corr: CorrId(oid),
        };
        for e in leaf.handle(0, env(client(), ServerId(0), msg)) {
            if let Message::RegisterRes { offered_acc_m, .. } = e.msg {
                truth.insert(oid, LocationDescriptor::new(pos, offered_acc_m));
            }
        }
    }
    assert_eq!(truth.len(), 600);
    // Move half of the objects so the index holds updated positions.
    let oids: Vec<u64> = truth.keys().copied().step_by(2).collect();
    for oid in oids {
        let pos = random_pos(&mut rng);
        let sighting = Sighting::new(ObjectId(oid), SECOND, pos, 5.0);
        leaf.handle(SECOND, env(client(), ServerId(0), Message::UpdateReq { sighting }));
        truth.get_mut(&oid).unwrap().pos = pos;
    }

    let mut regions = Vec::new();
    for _ in 0..6 {
        let (a, b) = (random_pos(&mut rng), random_pos(&mut rng));
        regions.push(Region::from(Rect::new(a, b)));
        let r = rng.random_range(20.0..400.0);
        regions.push(Region::from(Polygon::regular(a, r, rng.random_range(3usize..9))));
    }
    regions.push(Region::from(area));
    let mut corr = 1_000;
    for region in &regions {
        for (req_acc_m, req_overlap) in [(30.0, 0.5), (150.0, 1.0), (60.0, 0.1), (10.0, 0.9)] {
            corr += 1;
            let query = RangeQuery::new(region.clone(), req_acc_m, req_overlap);
            let out = leaf.handle(
                2 * SECOND,
                env(client(), ServerId(0), Message::RangeQueryReq { query, corr: CorrId(corr) }),
            );
            assert_eq!(out.len(), 1);
            let Message::RangeQueryRes { items, complete: true, .. } = &out[0].msg else {
                panic!("expected a complete answer, got {:?}", out[0].msg);
            };
            let expect: Vec<(ObjectId, LocationDescriptor)> = truth
                .iter()
                .filter(|(_, ld)| qualifies_for_range(region, ld, req_acc_m, req_overlap))
                .map(|(&oid, &ld)| (ObjectId(oid), ld))
                .collect();
            assert_eq!(items, &expect, "{region} reqAcc {req_acc_m} reqOverlap {req_overlap}");
            assert!(items.windows(2).all(|w| w[0].0 < w[1].0), "items sorted by oid");
        }
    }
}

#[test]
fn remove_path_stops_at_newer_records() {
    let mut nodes = servers();
    nodes[0].handle(
        0,
        env(ServerId(1).into(), ServerId(0), Message::CreatePath { oid: ObjectId(8), epoch: Hlc(100) }),
    );
    // A stale removal (epoch 50) must neither remove nor forward.
    let out = nodes[0].handle(
        1,
        env(ServerId(1).into(), ServerId(0), Message::RemovePath { oid: ObjectId(8), epoch: Hlc(50) }),
    );
    assert!(out.is_empty());
    assert!(nodes[0].visitors().get(ObjectId(8)).is_some());
    // A current removal works.
    nodes[0].handle(
        2,
        env(ServerId(1).into(), ServerId(0), Message::RemovePath { oid: ObjectId(8), epoch: Hlc(100) }),
    );
    assert!(nodes[0].visitors().get(ObjectId(8)).is_none());
}
