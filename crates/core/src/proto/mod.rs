//! The hiloc wire protocol: every message exchanged between clients,
//! tracked objects and location servers.
//!
//! Message names follow the paper's pseudocode (§6): `registerReq`,
//! `createPath`, `update`, `handoverReq/Res`, `posQueryReq/Fwd/Res`,
//! `rangeQueryReq/Fwd/SubRes/Res`. Additions beyond the paper are
//! documented on each variant: nearest-neighbor scatter/gather (the
//! paper defines the query semantics but no distributed algorithm),
//! the event mechanism (paper §8 future work), and cache-support
//! messages (§6.5).
//!
//! Each message is declared once, in the `wire_enum!` table below, with
//! its tag byte, trace label and typed fields; the table generates the
//! enum, `label()`, `encoded_len()` and the codec. Each field type's
//! layout and decode-time validation is a `Field` impl (`field.rs`).
//! Tags are never reused: a new variant takes the next free tag. The
//! golden corpus (`tests/golden.txt`) is the format's reference.

use crate::events::{EventKind, Predicate};
use crate::model::{Hlc, LocationDescriptor, Micros, ObjectId, RangeQuery, RegInfo, Sighting};
use hiloc_geo::{Point, Rect};
use hiloc_net::wire::WireCodec;
use hiloc_net::{CorrId, Endpoint, ServerId};

mod field;

pub(crate) use field::{accuracy, fixed_sum, wire_enum, wire_struct, Field};

/// One `(object, location descriptor)` result pair.
pub type ObjectLocation = (ObjectId, LocationDescriptor);

wire_struct! {
    /// One visitor's complete agent-side state, moved by a bulk
    /// [`Message::StateTransfer`] during hierarchy reconfiguration (a
    /// server joining or leaving the tree): the registration info the
    /// paper keeps persistent plus the volatile sighting, when the source
    /// still holds one (a freshly restarted source may not — the target
    /// then restores it on demand, §5).
    #[derive(Debug, Clone, PartialEq)]
    pub struct TransferRecord {
        /// The transferred object.
        pub oid: ObjectId,
        /// Registration info (`v.regInfo`), moved verbatim.
        pub reg: RegInfo,
        /// Accuracy the source offered (the target renegotiates against
        /// its own sensor floor and notifies the registrant on change).
        pub offered_acc_m: f64 where accuracy,
        /// The source's current sighting, when one exists.
        pub sighting: Option<Sighting>,
    }
}

wire_enum! {
    /// A protocol message.
    ///
    /// All positions are in the deployment's local planar frame; the
    /// geographic WGS84 boundary lives in the client API.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Message {
        // ------------------------------------------------------ registration
        /// `registerReq(s, desAcc, minAcc, regInst)` — routed through the
        /// hierarchy to the leaf responsible for `sighting.pos`.
        RegisterReq = 1, "registerReq" {
            /// Initial sighting of the object to register.
            sighting: Sighting,
            /// Desired accuracy in meters.
            des_acc_m: f64,
            /// Minimal acceptable accuracy in meters.
            min_acc_m: f64,
            /// Declared maximum speed (m/s), used for accuracy ageing.
            max_speed_mps: f64,
            /// The registering instance, to receive the response.
            registrant: Endpoint,
            /// Correlation id.
            corr: CorrId,
        },
        /// `registerRes(self, offeredAcc)` — sent by the new agent leaf.
        RegisterRes = 2, "registerRes" {
            /// The agent (leaf) server now tracking the object.
            agent: ServerId,
            /// Accuracy the service offers.
            offered_acc_m: f64,
            /// Correlation id.
            corr: CorrId,
        },
        /// `registerFailed(self, acc)` — the accuracy range is unachievable.
        RegisterFailed = 3, "registerFailed" {
            /// The rejecting server.
            server: ServerId,
            /// Best accuracy the server could achieve.
            achievable_m: f64,
            /// Correlation id.
            corr: CorrId,
        },
        /// `createPath(oId)` — builds the forwarding path leaf→root;
        /// receivers set the forwarding reference to the envelope sender.
        CreatePath = 4, "createPath" {
            /// The newly registered object.
            oid: ObjectId,
            /// Path-change stamp (hybrid logical clock) guarding against
            /// stale create/remove races.
            epoch: Hlc,
        },

        // ------------------------------------------------ update & handover
        /// `update(s)` — a position update from a tracked object (or
        /// stationary tracking system) to its agent.
        UpdateReq = 5, "update" {
            /// The new sighting.
            sighting: Sighting,
        },
        /// Acknowledgement of an update (the paper measures updates "with
        /// ACK" in Table 2).
        UpdateAck = 6, "updateAck" {
            /// The updated object.
            oid: ObjectId,
            /// Currently offered accuracy.
            offered_acc_m: f64,
            /// Server time of the acknowledgement.
            time_us: Micros,
        },
        /// A registrant's position updates coalesced into one datagram —
        /// the batched update protocol of §7's discussion (a stationary
        /// tracking system or gateway reports many tracked objects at
        /// once). The leaf applies every sighting, amortizing WAL syncs
        /// across the batch (group commit), and coalesces the plain acks
        /// into a single [`Message::UpdateBatchAck`]; handovers and
        /// deregistrations still produce their individual messages.
        UpdateBatch = 38, "updateBatch" {
            /// The batched sightings, applied in order.
            sightings: Vec<Sighting>,
            /// Correlation id, echoed by the batch ack.
            corr: CorrId,
        },
        /// The coalesced acknowledgement for a [`Message::UpdateBatch`]:
        /// one `(object, offered accuracy)` pair per sighting that was
        /// applied in place by this agent.
        UpdateBatchAck = 39, "updateBatchAck" {
            /// Acknowledged objects with their currently offered accuracy.
            acks: Vec<(ObjectId, f64)>,
            /// Server time of the acknowledgement.
            time_us: Micros,
            /// Correlation id of the batch.
            corr: CorrId,
        },
        /// `handoverReq(s, regInfo)` — tracking responsibility transfer,
        /// routed to the leaf containing the new position.
        HandoverReq = 7, "handoverReq" {
            /// The sighting that left the old agent's area.
            sighting: Sighting,
            /// Registration info, moved to the new agent.
            reg: RegInfo,
            /// Path-change stamp.
            epoch: Hlc,
            /// Correlation id (allocated by the old agent).
            corr: CorrId,
        },
        /// `handoverRes(lsnew, acc)` — travels back along the request path,
        /// splicing the forwarding pointers.
        HandoverRes = 8, "handoverRes" {
            /// The object being handed over.
            oid: ObjectId,
            /// The new agent leaf.
            new_agent: ServerId,
            /// Accuracy offered by the new agent.
            offered_acc_m: f64,
            /// Path-change stamp.
            epoch: Hlc,
            /// Correlation id.
            corr: CorrId,
        },
        /// The old agent rejects/aborts a handover: the object moved outside
        /// the root service area and is deregistered (paper §4: "tracked
        /// objects that move out of the service area are automatically
        /// deregistered").
        HandoverFailed = 9, "handoverFailed" {
            /// The object.
            oid: ObjectId,
            /// Path-change stamp.
            epoch: Hlc,
            /// Correlation id.
            corr: CorrId,
        },
        /// The old agent informs the tracked object of its new agent.
        AgentChanged = 10, "agentChanged" {
            /// The object.
            oid: ObjectId,
            /// Its new agent leaf.
            new_agent: ServerId,
            /// Accuracy offered by the new agent.
            offered_acc_m: f64,
        },
        /// The object left the service area entirely and was deregistered.
        OutOfServiceArea = 11, "outOfServiceArea" {
            /// The object.
            oid: ObjectId,
        },

        // --------------------------------------- deregistration & soft state
        /// `deregister(o)` — explicit deregistration at the agent.
        DeregisterReq = 12, "deregister" {
            /// The object to forget.
            oid: ObjectId,
        },
        /// Removes the forwarding path leaf→root (deregistration or
        /// soft-state expiry). Guarded by `epoch` against racing re-paths.
        RemovePath = 13, "removePath" {
            /// The object.
            oid: ObjectId,
            /// Path-change stamp of the removal.
            epoch: Hlc,
        },

        // ------------------------------------------------ accuracy management
        /// `changeAcc(o, desAcc, minAcc)` — renegotiate the accuracy range.
        ChangeAccReq = 14, "changeAccReq" {
            /// The object.
            oid: ObjectId,
            /// New desired accuracy.
            des_acc_m: f64,
            /// New minimal acceptable accuracy.
            min_acc_m: f64,
            /// Correlation id.
            corr: CorrId,
        },
        /// Response to [`Message::ChangeAccReq`].
        ChangeAccRes = 15, "changeAccRes" {
            /// The object.
            oid: ObjectId,
            /// Whether the new range is achievable (and now in effect).
            ok: bool,
            /// The offered accuracy after the change.
            offered_acc_m: f64,
            /// Correlation id.
            corr: CorrId,
        },
        /// `notifyAvailAcc()` — unsolicited notification that the offered
        /// accuracy changed (e.g. after a handover to a leaf with different
        /// sensor infrastructure).
        NotifyAvailAcc = 16, "notifyAvailAcc" {
            /// The object.
            oid: ObjectId,
            /// The now-offered accuracy.
            offered_acc_m: f64,
        },

        // ----------------------------------------------------- position query
        /// `posQuery(o)` from a client to its entry server.
        PosQueryReq = 17, "posQueryReq" {
            /// The queried object.
            oid: ObjectId,
            /// Correlation id.
            corr: CorrId,
        },
        /// `posQueryFwd(oId, lse)` — routed via forwarding pointers.
        PosQueryFwd = 18, "posQueryFwd" {
            /// The queried object.
            oid: ObjectId,
            /// The entry server awaiting the answer.
            entry: ServerId,
            /// True when the entry contacted a cached agent directly
            /// (cache miss then falls back to the hierarchy) — §6.5.
            direct: bool,
            /// Correlation id.
            corr: CorrId,
        },
        /// `posQueryRes(ld)` — the answer, sent to the entry server (or the
        /// client). `found = None` means the object is unknown.
        PosQueryRes = 19, "posQueryRes" {
            /// The queried object.
            oid: ObjectId,
            /// The location descriptor, when the object is tracked.
            found: Option<LocationDescriptor>,
            /// Sighting timestamp backing the descriptor (0 when unknown) —
            /// lets caches age the accuracy.
            time_us: Micros,
            /// The object's declared maximum speed (0 when unknown).
            max_speed_mps: f64,
            /// Correlation id.
            corr: CorrId,
        },
        /// A directly-contacted leaf no longer tracks the object (stale
        /// agent cache): the entry falls back to hierarchy routing.
        PosQueryMiss = 20, "posQueryMiss" {
            /// The queried object.
            oid: ObjectId,
            /// Correlation id.
            corr: CorrId,
        },

        // -------------------------------------------------------- range query
        /// `rangeQuery(a, reqAcc, reqOverlap)` from a client.
        RangeQueryReq = 21, "rangeQueryReq" {
            /// The query parameters.
            query: RangeQuery,
            /// Correlation id.
            corr: CorrId,
        },
        /// `rangeQueryFwd(area, reqAcc, reqOverlap, lse)` — scattered
        /// through the hierarchy to all overlapping leaves.
        RangeQueryFwd = 22, "rangeQueryFwd" {
            /// The query parameters.
            query: RangeQuery,
            /// The entry server collecting the partial results.
            entry: ServerId,
            /// Correlation id.
            corr: CorrId,
        },
        /// `rangeQuerySubRes(objs, a)` — one leaf's partial result, sent
        /// directly to the entry server. Carries the leaf's service area so
        /// entry servers can populate their area caches (§6.5: "the
        /// originator of the message includes a specification of its (leaf)
        /// service area").
        RangeQuerySubRes = 23, "rangeQuerySubRes" {
            /// Qualifying `(object, descriptor)` pairs at this leaf.
            items: Vec<ObjectLocation>,
            /// Area (m²) of `Enlarge(query area) ∩ leaf area` — the portion
            /// of the query this sub-result covers.
            covered_area_m2: f64,
            /// The answering leaf.
            leaf: ServerId,
            /// The answering leaf's service area (cache food).
            leaf_area: Rect,
            /// Correlation id.
            corr: CorrId,
        },
        /// `rangeQueryRes(objects)` — the collected answer to the client.
        RangeQueryRes = 24, "rangeQueryRes" {
            /// All qualifying `(object, descriptor)` pairs.
            items: Vec<ObjectLocation>,
            /// False when the gather timed out (partial answer).
            complete: bool,
            /// Correlation id.
            corr: CorrId,
        },

        // -------------------------------------------------- nearest neighbor
        /// `neighborQuery(p, reqAcc, nearQual)` from a client.
        ///
        /// The paper defines the semantics (§3.2) but no distributed
        /// algorithm; hiloc uses an expanding-ring scatter (DESIGN.md §3).
        NeighborQueryReq = 25, "neighborQueryReq" {
            /// The queried position.
            p: Point,
            /// Accuracy threshold.
            req_acc_m: f64,
            /// Near-set qualification distance.
            near_qual_m: f64,
            /// Correlation id.
            corr: CorrId,
        },
        /// Ring scatter: collect candidates within `radius_m` of `p`.
        NeighborQueryFwd = 26, "neighborQueryFwd" {
            /// The queried position.
            p: Point,
            /// Accuracy threshold.
            req_acc_m: f64,
            /// Current search radius.
            radius_m: f64,
            /// The entry server gathering candidates.
            entry: ServerId,
            /// Correlation id.
            corr: CorrId,
        },
        /// A leaf's candidates within the ring.
        NeighborQuerySubRes = 27, "neighborQuerySubRes" {
            /// Candidates (center within the ring, accuracy qualified).
            items: Vec<ObjectLocation>,
            /// Covered portion (m²) of the ring's bounding box.
            covered_area_m2: f64,
            /// The answering leaf.
            leaf: ServerId,
            /// The answering leaf's service area (cache food).
            leaf_area: Rect,
            /// Correlation id.
            corr: CorrId,
        },
        /// The nearest-neighbor answer to the client.
        NeighborQueryRes = 28, "neighborQueryRes" {
            /// The selected nearest object.
            nearest: Option<ObjectLocation>,
            /// Qualified objects within `nearQual` of the nearest.
            near_set: Vec<ObjectLocation>,
            /// False when the gather timed out.
            complete: bool,
            /// Correlation id.
            corr: CorrId,
        },

        // ------------------------------------------------------------ events
        /// Registers a predicate (paper §8 future work).
        EventRegisterReq = 29, "eventRegisterReq" {
            /// The predicate to watch.
            predicate: Predicate,
            /// Correlation id.
            corr: CorrId,
        },
        /// Acknowledges an event registration with its id.
        EventRegisterRes = 30, "eventRegisterRes" {
            /// The allocated event id.
            event_id: u64,
            /// Correlation id.
            corr: CorrId,
        },
        /// Installs an observer at a leaf (scattered like a range query).
        EventInstall = 31, "eventInstall" {
            /// The event id.
            event_id: u64,
            /// The coordinating server (receives local reports).
            coordinator: ServerId,
            /// The predicate to observe.
            predicate: Predicate,
        },
        /// Removes an observer from a leaf.
        EventUninstall = 32, "eventUninstall" {
            /// The event id.
            event_id: u64,
        },
        /// A leaf's membership report to the coordinator.
        EventLocalReport = 33, "eventLocalReport" {
            /// The event id.
            event_id: u64,
            /// The reporting leaf.
            leaf: ServerId,
            /// Members currently in the watched area at this leaf.
            count: u32,
            /// Objects that entered since the last report.
            entered: Vec<ObjectId>,
            /// Objects that left since the last report.
            left: Vec<ObjectId>,
        },
        /// An event notification to the subscriber.
        EventNotify = 34, "eventNotify" {
            /// The event id.
            event_id: u64,
            /// What happened.
            kind: EventKind,
        },
        /// Cancels an event registration.
        EventCancelReq = 35, "eventCancelReq" {
            /// The event id.
            event_id: u64,
        },

        // ------------------------------------------------- restore-on-demand
        /// A recovering leaf asks a visitor for a fresh position update
        /// (paper §5: "persistent registration information also allows a
        /// location server to ask a visitor for a position update to restore
        /// its position information … after system restart").
        PositionProbe = 36, "positionProbe" {
            /// The object asked to report.
            oid: ObjectId,
        },
        /// A server that received an update for an object it no longer
        /// tracks (the object's `AgentChanged` was lost) routes this along
        /// the forwarding paths; the current agent answers the object with
        /// a fresh `AgentChanged`. Robustness extension beyond the paper's
        /// pseudocode, required for UDP deployments.
        AgentLookup = 37, "agentLookup" {
            /// The object whose agent is sought.
            oid: ObjectId,
            /// The tracked object's endpoint (receives the answer).
            object: Endpoint,
        },

        // --------------------------------------- hierarchy reconfiguration
        //
        // The paper's tree is static (§4); these messages implement live
        // reshaping: a joining server receives the visitor records its new
        // area covers from the sibling it split (bulk handover), a leaving
        // server drains everything to the sibling absorbing its area, and
        // a root successor rebuilds its forwarding table from its children.
        /// Bulk visitor handover from a source leaf to a sibling leaf
        /// during a join (the source's area was split) or a leave (the
        /// source drains before detaching). The target applies the whole
        /// batch as **one atomic WAL record**, re-asserts each forwarding
        /// path (`createPath` with `epoch`), and acks; the source keeps
        /// answering for the records — and retries on a timer — until the
        /// ack arrives, then deletes its copies under the same epoch guard.
        StateTransfer = 40, "stateTransfer" {
            /// The transferred visitors.
            records: Vec<TransferRecord>,
            /// Path-change stamp of the transfer: stale replays lose
            /// against any newer per-object path change (handover or
            /// re-registration) on both sides.
            epoch: Hlc,
            /// Correlation id, identifying the transfer across retries.
            corr: CorrId,
        },
        /// The target durably applied a [`Message::StateTransfer`].
        StateTransferAck = 41, "stateTransferAck" {
            /// Records accepted (stale ones are counted out but still
            /// acknowledged — the source's epoch guard skips them too).
            accepted: u32,
            /// Echo of the acknowledged transfer's stamp: the source's
            /// removal guard must use the stamp of the send this ack
            /// answers, not its latest — a delayed ack for an earlier
            /// send must not delete records that changed since.
            epoch: Hlc,
            /// Correlation id of the transfer.
            corr: CorrId,
        },
        /// A promoted root successor asks a child for a chunk of the
        /// visitors reachable through it, to rebuild its forwarding table
        /// without waiting a full keep-alive period. Chunked as a cursor
        /// pull: `after` names the last object already received (`None`
        /// starts the scan), and the child answers with the next chunk in
        /// object-id order.
        PathSyncReq = 42, "pathSyncReq" {
            /// Resume cursor: only records with ids strictly greater are
            /// returned.
            after: Option<ObjectId>,
            /// Correlation id.
            corr: CorrId,
        },
        /// A child's answer to [`Message::PathSyncReq`]: the next chunk
        /// of objects it has records for, with each record's path-change
        /// stamp. The new root installs a forwarding reference per entry
        /// (epoch-guarded) and pulls again from the last id until `done`.
        PathSyncRes = 43, "pathSyncRes" {
            /// `(object, record stamp)` pairs, ascending by object id.
            entries: Vec<(ObjectId, Hlc)>,
            /// True when no records remain past this chunk.
            done: bool,
            /// Correlation id.
            corr: CorrId,
        },

        // ------------------------------------------------------- replication
        /// A batch of forwarding-table / visitor-record deltas streamed to
        /// a warm standby (roots and mid-nodes) or to a sibling replica
        /// leaf (k=2 leaf replication). Exactly one batch per stream is in
        /// flight; the source retries it with backoff (like
        /// [`Message::StateTransfer`]) until the ack arrives, and every
        /// record is HLC-guarded at the receiver, so replayed batches are
        /// idempotent.
        FwdDelta = 44, "fwdDelta" {
            /// Stream id (the designation stamp's raw bits): a receiver
            /// ignores batches from a stream it was never attached to, so
            /// deltas from a deposed source cannot corrupt a fresh stream.
            stream: u64,
            /// Batch sequence number within the stream (diagnostic; the
            /// per-record stamps carry the ordering).
            seq: u64,
            /// True when the receiver holds these as leaf *replica*
            /// records (side table serving bounded-staleness reads)
            /// rather than adopting them into its own visitor table.
            replica: bool,
            /// The batched deltas.
            records: Vec<DeltaRecord>,
            /// Correlation id, identifying the batch across retries.
            corr: CorrId,
        },
        /// The receiver durably applied a [`Message::FwdDelta`] batch.
        FwdDeltaAck = 45, "fwdDeltaAck" {
            /// Echo of the batch's stream id.
            stream: u64,
            /// Echo of the batch's sequence number.
            seq: u64,
            /// Records accepted (stale ones are counted out but still
            /// acknowledged — the sender's watermark keeps the stamp it
            /// sent either way).
            applied: u32,
            /// Correlation id of the batch.
            corr: CorrId,
        },
    }
}

wire_struct! {
    /// One replicated record change inside a [`Message::FwdDelta`] batch.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DeltaRecord {
        /// The object whose record changed.
        pub oid: ObjectId,
        /// The change itself.
        pub body: DeltaBody,
    }
}

wire_enum! {
    /// What a [`DeltaRecord`] replicates. Every variant carries the HLC
    /// stamp that arbitrates it at the receiver: apply iff not older than
    /// the copy already held (ties resolve by the stamp's node id, so
    /// every replica picks the same winner).
    #[derive(Debug, Clone, PartialEq)]
    pub enum DeltaBody {
        /// A non-leaf forwarding reference (standby streams).
        Forward = 0 {
            /// The next-hop child server.
            child: ServerId,
            /// The record's path-change stamp.
            epoch: Hlc,
        },
        /// A leaf visitor record plus its current sighting (replica
        /// streams) — everything a sibling needs to serve a
        /// bounded-staleness position read or adopt the record on
        /// failover.
        Leaf = 1 {
            /// Registration info.
            reg: RegInfo,
            /// Accuracy the agent currently offers.
            offered_acc_m: f64 where accuracy,
            /// The record's path-change stamp.
            epoch: Hlc,
            /// The agent's current sighting, when one exists.
            sighting: Option<Sighting>,
        },
        /// The record was removed (deregistration, handover away,
        /// soft-state expiry).
        Remove = 2 {
            /// Stamp of the removal.
            epoch: Hlc,
        },
    }
}

impl Message {
    /// The exact number of bytes [`WireCodec::encode`] appends for this
    /// message. One-shot encodes ([`WireCodec::to_bytes`]) use it to
    /// allocate exactly once — no `with_capacity(64)` guess, no
    /// reallocation for large range results.
    // lint:hot_path
    pub fn encoded_len(&self) -> usize {
        Field::len(self)
    }
}

/// The public codec of the top-level wire types is their [`Field`]
/// layout.
macro_rules! codec_via_field {
    ($($ty:ty),*) => {$(
        impl WireCodec for $ty {
            fn encoded_len(&self) -> Option<usize> {
                Some(Field::len(self))
            }
            fn encode(&self, buf: &mut Vec<u8>) {
                Field::put(self, buf);
            }
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                Field::get(buf)
            }
        }
    )*};
}

codec_via_field!(Message, Predicate, EventKind);

#[cfg(test)]
mod tests {
    use super::*;
    use hiloc_geo::{Polygon, Region};
    use hiloc_net::wire;
    use hiloc_net::ClientId;
    use std::collections::BTreeSet;

    mod golden;

    fn sample_messages() -> Vec<Message> {
        let s = Sighting::new(ObjectId(42), 123_456, Point::new(10.0, -5.0), 12.5);
        let reg = RegInfo::new(ClientId(9).into(), 25.0, 100.0, 3.0);
        let ld = LocationDescriptor::new(Point::new(1.0, 2.0), 25.0);
        let area = Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(50.0, 50.0)));
        let query = RangeQuery::new(area.clone(), 50.0, 0.3);
        let polygon = Region::Polygon(
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(40.0, 0.0), Point::new(20.0, 30.0)])
                .unwrap(),
        );
        vec![
            Message::RegisterReq {
                sighting: s,
                des_acc_m: 25.0,
                min_acc_m: 100.0,
                max_speed_mps: 3.0,
                registrant: ClientId(9).into(),
                corr: CorrId(77),
            },
            Message::RegisterRes { agent: ServerId(4), offered_acc_m: 25.0, corr: CorrId(77) },
            Message::RegisterFailed { server: ServerId(4), achievable_m: 80.0, corr: CorrId(1) },
            Message::CreatePath { oid: ObjectId(42), epoch: Hlc(999) },
            Message::UpdateReq { sighting: s },
            Message::UpdateAck { oid: ObjectId(42), offered_acc_m: 25.0, time_us: 5 },
            Message::UpdateBatch {
                sightings: vec![
                    s,
                    Sighting::new(ObjectId(43), 123_999, Point::new(11.0, -4.0), 8.0),
                ],
                corr: CorrId(88),
            },
            Message::UpdateBatch { sightings: vec![], corr: CorrId(89) },
            Message::UpdateBatchAck {
                acks: vec![(ObjectId(42), 25.0), (ObjectId(43), 30.0)],
                time_us: 6,
                corr: CorrId(88),
            },
            Message::HandoverReq { sighting: s, reg, epoch: Hlc(1_000), corr: CorrId(2) },
            Message::HandoverRes {
                oid: ObjectId(42),
                new_agent: ServerId(5),
                offered_acc_m: 30.0,
                epoch: Hlc(1_000),
                corr: CorrId(2),
            },
            Message::HandoverFailed { oid: ObjectId(42), epoch: Hlc(1), corr: CorrId(3) },
            Message::AgentChanged { oid: ObjectId(42), new_agent: ServerId(5), offered_acc_m: 30.0 },
            Message::OutOfServiceArea { oid: ObjectId(42) },
            Message::DeregisterReq { oid: ObjectId(42) },
            Message::RemovePath { oid: ObjectId(42), epoch: Hlc(1_500) },
            Message::ChangeAccReq { oid: ObjectId(42), des_acc_m: 10.0, min_acc_m: 50.0, corr: CorrId(4) },
            Message::ChangeAccRes { oid: ObjectId(42), ok: true, offered_acc_m: 10.0, corr: CorrId(4) },
            Message::NotifyAvailAcc { oid: ObjectId(42), offered_acc_m: 40.0 },
            Message::PosQueryReq { oid: ObjectId(42), corr: CorrId(5) },
            Message::PosQueryFwd { oid: ObjectId(42), entry: ServerId(1), direct: true, corr: CorrId(5) },
            Message::PosQueryRes {
                oid: ObjectId(42),
                found: Some(ld),
                time_us: 44,
                max_speed_mps: 3.0,
                corr: CorrId(5),
            },
            Message::PosQueryRes { oid: ObjectId(42), found: None, time_us: 0, max_speed_mps: 0.0, corr: CorrId(5) },
            Message::PosQueryMiss { oid: ObjectId(42), corr: CorrId(5) },
            Message::RangeQueryReq { query: query.clone(), corr: CorrId(6) },
            Message::RangeQueryFwd { query, entry: ServerId(2), corr: CorrId(6) },
            Message::RangeQueryReq { query: RangeQuery::new(polygon.clone(), 5.0, 1.0), corr: CorrId(6) },
            Message::RangeQuerySubRes {
                items: vec![(ObjectId(1), ld), (ObjectId(2), ld)],
                covered_area_m2: 2_500.0,
                leaf: ServerId(3),
                leaf_area: Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
                corr: CorrId(6),
            },
            Message::RangeQueryRes { items: vec![(ObjectId(1), ld)], complete: true, corr: CorrId(6) },
            Message::NeighborQueryReq { p: Point::new(5.0, 5.0), req_acc_m: 50.0, near_qual_m: 10.0, corr: CorrId(7) },
            Message::NeighborQueryFwd {
                p: Point::new(5.0, 5.0),
                req_acc_m: 50.0,
                radius_m: 100.0,
                entry: ServerId(1),
                corr: CorrId(7),
            },
            Message::NeighborQuerySubRes {
                items: vec![(ObjectId(3), ld)],
                covered_area_m2: 123.0,
                leaf: ServerId(2),
                leaf_area: Rect::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0)),
                corr: CorrId(7),
            },
            Message::NeighborQueryRes {
                nearest: Some((ObjectId(3), ld)),
                near_set: vec![(ObjectId(4), ld)],
                complete: true,
                corr: CorrId(7),
            },
            Message::NeighborQueryRes { nearest: None, near_set: vec![], complete: false, corr: CorrId(7) },
            Message::EventRegisterReq {
                predicate: Predicate::CountAtLeast { area: Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(9.0, 9.0))), threshold: 5 },
                corr: CorrId(8),
            },
            Message::EventRegisterRes { event_id: 11, corr: CorrId(8) },
            Message::EventInstall {
                event_id: 11,
                coordinator: ServerId(1),
                predicate: Predicate::Enter { area: Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(9.0, 9.0))), oid: None },
            },
            Message::EventRegisterReq {
                predicate: Predicate::Enter { area: polygon.clone(), oid: Some(ObjectId(42)) },
                corr: CorrId(8),
            },
            Message::EventRegisterReq {
                predicate: Predicate::Leave { area: polygon, oid: Some(ObjectId(7)) },
                corr: CorrId(8),
            },
            Message::EventInstall {
                event_id: 12,
                coordinator: ServerId(1),
                predicate: Predicate::Leave { area: area.clone(), oid: None },
            },
            Message::EventUninstall { event_id: 11 },
            Message::EventLocalReport {
                event_id: 11,
                leaf: ServerId(4),
                count: 3,
                entered: vec![ObjectId(1)],
                left: vec![ObjectId(2), ObjectId(3)],
            },
            Message::EventNotify { event_id: 11, kind: EventKind::CountReached { count: 6 } },
            Message::EventNotify { event_id: 11, kind: EventKind::Entered { oid: ObjectId(42) } },
            Message::EventNotify { event_id: 11, kind: EventKind::Left { oid: ObjectId(43) } },
            Message::EventCancelReq { event_id: 11 },
            Message::PositionProbe { oid: ObjectId(42) },
            Message::AgentLookup { oid: ObjectId(42), object: ClientId(9).into() },
            Message::AgentLookup { oid: ObjectId(42), object: ServerId(3).into() },
            Message::StateTransfer {
                records: vec![
                    TransferRecord {
                        oid: ObjectId(42),
                        reg,
                        offered_acc_m: 25.0,
                        sighting: Some(s),
                    },
                    TransferRecord {
                        // A post-restart record whose sighting was lost.
                        oid: ObjectId(43),
                        reg,
                        offered_acc_m: 30.0,
                        sighting: None,
                    },
                ],
                epoch: Hlc(2_000),
                corr: CorrId(9),
            },
            Message::StateTransfer { records: vec![], epoch: Hlc(2_000), corr: CorrId(10) },
            Message::StateTransferAck { accepted: 2, epoch: Hlc(2_000), corr: CorrId(9) },
            Message::PathSyncReq { after: None, corr: CorrId(11) },
            Message::PathSyncReq { after: Some(ObjectId(42)), corr: CorrId(11) },
            Message::PathSyncRes {
                entries: vec![(ObjectId(42), Hlc(2_000)), (ObjectId(43), Hlc(2_001))],
                done: false,
                corr: CorrId(11),
            },
            Message::PathSyncRes { entries: vec![], done: true, corr: CorrId(12) },
            Message::FwdDelta {
                stream: 7,
                seq: 3,
                replica: false,
                records: vec![
                    DeltaRecord {
                        oid: ObjectId(42),
                        body: DeltaBody::Forward { child: ServerId(5), epoch: Hlc(3_000) },
                    },
                    DeltaRecord {
                        oid: ObjectId(43),
                        body: DeltaBody::Remove { epoch: Hlc(3_001) },
                    },
                ],
                corr: CorrId(13),
            },
            Message::FwdDelta {
                stream: 7,
                seq: 4,
                replica: true,
                records: vec![
                    DeltaRecord {
                        oid: ObjectId(42),
                        body: DeltaBody::Leaf {
                            reg,
                            offered_acc_m: 25.0,
                            epoch: Hlc(3_002),
                            sighting: Some(s),
                        },
                    },
                    DeltaRecord {
                        oid: ObjectId(44),
                        body: DeltaBody::Leaf {
                            reg,
                            offered_acc_m: 30.0,
                            epoch: Hlc(3_003),
                            sighting: None,
                        },
                    },
                ],
                corr: CorrId(14),
            },
            Message::FwdDelta { stream: 7, seq: 5, replica: false, records: vec![], corr: CorrId(15) },
            Message::FwdDeltaAck { stream: 7, seq: 3, applied: 2, corr: CorrId(13) },
        ]
    }

    #[test]
    fn samples_cover_every_variant() {
        let sampled: BTreeSet<u8> = sample_messages().iter().map(|m| m.to_bytes()[0]).collect();
        let missing: Vec<_> =
            Message::VARIANTS.iter().filter(|(tag, _)| !sampled.contains(tag)).collect();
        assert!(missing.is_empty(), "sample_messages misses variants {missing:?}");
    }

    #[test]
    fn all_messages_roundtrip() {
        for msg in sample_messages() {
            let bytes = msg.to_bytes();
            let back = Message::from_bytes(&bytes);
            assert_eq!(back.as_ref(), Some(&msg), "roundtrip failed for {}", msg.label());
        }
    }

    #[test]
    fn message_sizes_are_exact() {
        for msg in sample_messages() {
            let bytes = msg.to_bytes();
            assert_eq!(
                bytes.len(),
                msg.encoded_len(),
                "encoded_len out of sync with encode for {}",
                msg.label()
            );
            // to_bytes must allocate exactly once, with no slack.
            assert_eq!(
                bytes.capacity(),
                msg.encoded_len(),
                "to_bytes over- or under-allocated for {}",
                msg.label()
            );
        }
    }

    #[test]
    fn labels_are_unique_per_variant() {
        let tags: BTreeSet<u8> = Message::VARIANTS.iter().map(|(tag, _)| *tag).collect();
        let labels: BTreeSet<&str> = Message::VARIANTS.iter().map(|(_, label)| *label).collect();
        assert_eq!(tags.len(), Message::VARIANTS.len(), "every variant needs its own tag");
        assert_eq!(labels.len(), Message::VARIANTS.len(), "every variant needs its own label");
        for m in sample_messages() {
            let tag = m.to_bytes()[0];
            assert!(
                Message::VARIANTS.contains(&(tag, m.label())),
                "{} is not labelled by its table entry",
                m.label()
            );
        }
    }

    #[test]
    fn truncated_messages_never_panic() {
        for msg in sample_messages() {
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                let _ = Message::from_bytes(&bytes[..cut]);
            }
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Message::from_bytes(&[0xEE]), None);
        assert_eq!(Message::from_bytes(&[]), None);
    }

    #[test]
    fn semantic_validation_in_decode() {
        // Negative accuracy must not decode into a Sighting.
        let mut buf = Vec::new();
        wire::put_u8(&mut buf, 5); // update
        wire::put_u64(&mut buf, 1);
        wire::put_u64(&mut buf, 0);
        wire::put_point(&mut buf, Point::ORIGIN);
        wire::put_f64(&mut buf, -5.0);
        assert_eq!(Message::from_bytes(&buf), None);
    }
}
