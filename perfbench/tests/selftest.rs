//! Self-tests of the benchmark's own arithmetic and naming.

use hiloc_util::json::Json;
use perfbench::loadgen::{latency_origin, Phase};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::spans::{self_times, Layer, Span, ROOT};
use perfbench::stats::{percentile, valid_name, valid_unit, MIN_BEYOND};
use perfbench::workload::{Kind, OpGen, Workload};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_needs_ten_samples_beyond() {
    // p90 of 100 samples is the 90th, with exactly 10 above it.
    assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
    // One sample fewer leaves only 9 beyond: no p90.
    assert_eq!(percentile(&ramp(99), 0.9), None);
    // The median needs 20 samples.
    assert_eq!(percentile(&ramp(19), 0.5), None);
    assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
    // p99 needs 1000 samples, p999 10000.
    assert_eq!(percentile(&ramp(999), 0.99), None);
    assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
    assert_eq!(MIN_BEYOND, 10);
}

fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
    Span {
        layer: Layer::Handle,
        label: "t",
        start_ns,
        end_ns,
        parent,
        op: 0,
    }
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let spans = [
        Span {
            layer: Layer::Op,
            ..span(ROOT, 0, 100)
        },
        span(0, 10, 40),
        span(0, 30, 60),  // overlaps the first child by 10
        span(0, 90, 120), // runs past its parent's end
        span(1, 15, 35),  // a grandchild: covers its parent, not the root
    ];
    let own = self_times(&spans);
    // Covered: [10, 60) and [90, 100) = 60 of 100.
    assert_eq!(own[0], 40);
    assert_eq!(own[1], 30 - 20);
    assert_eq!(own[2], 30);
    assert_eq!(own[3], 30);
    assert_eq!(own[4], 20);
}

/// A responder that serves one request at a time in 100 µs, except for
/// one 20 ms stall, in front of a sender that blocks while the
/// responder is busy (the coordinated-omission trap).
#[test]
fn a_stalled_responder_raises_later_latencies() {
    const GAP: u64 = 1_000_000; // one request due every ms
    const SERVICE: u64 = 100_000;
    const STALL: u64 = 20_000_000;
    let mut free_at = 0u64;
    let mut from_due = Vec::new();
    let mut from_send = Vec::new();
    for i in 0..100u64 {
        let due = i * GAP;
        let sent = due.max(free_at);
        let done = sent + SERVICE + if i == 10 { STALL } else { 0 };
        free_at = done;
        from_due.push(done - latency_origin(Phase::Open, due, sent));
        from_send.push(done - latency_origin(Phase::Window, due, sent));
    }
    // Timed from the send, the stall hides in one request.
    assert_eq!(from_send.iter().filter(|&&l| l > SERVICE).count(), 1);
    // Timed from the due time, every request the stall held up pays
    // for it: request 11 was due 19 ms before it could be sent.
    assert!(from_due[11] >= STALL - GAP);
    let delayed = from_due.iter().filter(|&&l| l > SERVICE).count();
    assert!(delayed >= 20, "only {delayed} requests show the stall");
    // Latency falls back once the backlog has drained.
    assert_eq!(from_due[99], SERVICE);
}

#[test]
fn metric_names_and_units_use_the_allowed_characters() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(valid_unit(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(*name), "metric {name} declared twice");
    }
    assert!(!valid_name(".hidden"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(!valid_unit("µs"));
    assert!(valid_unit("count/kop"));
}

#[test]
fn benchmark_manifest_matches_the_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), declared(END_TO_END));
    assert_eq!(listed("per_layer"), declared(PER_LAYER));
    for w in doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
    {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        assert!(valid_name(name));
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn only_mixed_nn_sends_nn_queries() {
    let kinds = |w: Workload| {
        let mut gen = OpGen::new(w, 7);
        let mut counts = [0usize; Kind::ALL.len()];
        while counts[Kind::Pos.idx()] + counts[Kind::Range.idx()] + counts[Kind::Nn.idx()] < 400 {
            counts[gen.next_open().body.kind().idx()] += 1;
        }
        counts
    };
    let mixed = kinds(Workload::Mixed);
    assert_eq!(mixed[Kind::Nn.idx()], 0);
    // Pos and range keep their 70:20 ratio.
    let pos_share = mixed[Kind::Pos.idx()] as f64 / 400.0;
    assert!((0.70..0.86).contains(&pos_share), "pos share {pos_share}");
    let nn = kinds(Workload::MixedNn)[Kind::Nn.idx()];
    assert!((20..65).contains(&nn), "{nn} of 400 queries were NN");
}

mod answers {
    use hiloc_core::model::{LocationDescriptor, ObjectId};
    use hiloc_geo::{Point, Rect};
    use hiloc_net::ServerId;
    use perfbench::checks::{check, Answer, Move, Reply, Truth};
    use perfbench::workload::Body;

    const MS: u64 = 1_000_000;

    /// Object 0 starts at the origin and reports (100, 0) then (200, 0);
    /// object 1 never moves.
    fn truth() -> Truth {
        let mv = |sent, done, x| Move {
            oid: 0,
            sent_ns: sent * MS,
            done_ns: done * MS,
            pos: Point::new(x, 0.0),
            ok: true,
        };
        Truth::new(
            vec![Point::new(0.0, 0.0), Point::new(500.0, 500.0)],
            vec![mv(100, 110, 100.0), mv(1000, 1010, 200.0)],
        )
    }

    fn pos_answer(sent: u64, done: u64, found: Option<(f64, f64)>) -> Answer {
        Answer {
            body: Body::Pos {
                oid: 0,
                entry: ServerId(0),
            },
            sent_ns: sent * MS,
            done_ns: done * MS,
            reply: Reply::Pos(found.map(|(x, acc)| LocationDescriptor {
                pos: Point::new(x, 0.0),
                acc_m: acc,
            })),
            phase: 1,
        }
    }

    #[test]
    fn only_objects_known_to_hold_still_are_checked() {
        let t = truth();
        assert_eq!(
            t.still(0, 1020 * MS, 1030 * MS),
            Some(Point::new(200.0, 0.0))
        );
        // An update in flight during the query: nothing to check.
        assert_eq!(t.still(0, 1005 * MS, 1030 * MS), None);
        assert_eq!(check(&t, &pos_answer(1005, 1030, None)), Ok(false));
        assert_eq!(t.still(1, 0, u64::MAX), Some(Point::new(500.0, 500.0)));
    }

    #[test]
    fn pos_answers_must_match_a_position_the_object_held() {
        let t = truth();
        assert_eq!(
            check(&t, &pos_answer(1020, 1021, Some((200.0, 1.0)))),
            Ok(true)
        );
        // Aged (cached) answer from the previous report.
        assert_eq!(
            check(&t, &pos_answer(1020, 1021, Some((100.0, 1.0)))),
            Ok(true)
        );
        // A position the object never held.
        assert!(check(&t, &pos_answer(1020, 1021, Some((150.0, 1.0)))).is_err());
        // "Unknown" for a registered object is wrong, unless it is the
        // entry's reply to a timed-out gather.
        assert!(check(&t, &pos_answer(1020, 1021, None)).is_err());
        assert_eq!(check(&t, &pos_answer(1020, 3100, None)), Ok(false));
    }

    #[test]
    fn complete_range_answers_hold_every_object_well_inside() {
        let t = truth();
        let cell = Rect::new(Point::new(400.0, 400.0), Point::new(600.0, 600.0));
        let answer = |items| Answer {
            body: Body::Range {
                cell,
                entry: ServerId(0),
            },
            sent_ns: 2000 * MS,
            done_ns: 2001 * MS,
            reply: Reply::Range(items),
            phase: 1,
        };
        let one = (
            ObjectId(1),
            LocationDescriptor {
                pos: Point::new(500.0, 500.0),
                acc_m: 25.0,
            },
        );
        assert_eq!(check(&t, &answer(vec![one])), Ok(true));
        assert!(check(&t, &answer(vec![])).is_err());
    }
}
