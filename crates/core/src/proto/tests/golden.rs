//! The wire format's reference: a golden corpus of encodings and
//! decode verdicts, checked byte for byte.
//!
//! Each line of `golden.txt` is `<name> <digest> <hex encoding>`. The
//! encoding is what the codec writes for one sample value. The digest
//! folds the decoder's verdict on every truncation of that encoding and
//! on 64 seeded single-byte mutations of it: reject, or accept plus the
//! bytes the accepted value re-encodes to. A codec change that alters
//! any stored or transmitted byte, or that accepts or rejects anything
//! it did not before, changes a line here.
//!
//! When a test fails, the assertion prints the line the codec now
//! produces for every entry that differs.

use super::sample_messages;
use crate::events::{EventKind, Predicate};
use crate::model::{Hlc, ObjectId, RegInfo, Sighting};
use crate::node::{ReplicaValue, VisitorRecord};
use crate::proto::Message;
use hiloc_geo::{Point, Polygon, Rect, Region};
use hiloc_net::wire::WireCodec;
use hiloc_net::{ClientId, ServerId};
use hiloc_storage::RecordValue;
use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("golden.txt");

/// Mutations per sample, on top of every truncation.
const MUTATIONS: usize = 64;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The verdict digest of `decode` (which returns the re-encoding of
/// what it accepted) over every truncation and `MUTATIONS` seeded
/// single-byte mutations of `bytes`.
fn verdict_digest(name: &str, bytes: &[u8], decode: &dyn Fn(&[u8]) -> Option<Vec<u8>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut probe = |input: &[u8]| match decode(input) {
        None => fnv(&mut h, &[0]),
        Some(re) => {
            fnv(&mut h, &[1]);
            fnv(&mut h, &(re.len() as u64).to_le_bytes());
            fnv(&mut h, &re);
        }
    };
    for cut in 0..bytes.len() {
        probe(&bytes[..cut]);
    }
    let mut seed = 0xcbf2_9ce4_8422_2325;
    fnv(&mut seed, name.as_bytes());
    for _ in 0..MUTATIONS {
        let r = splitmix(&mut seed);
        let mut m = bytes.to_vec();
        let at = (r % m.len() as u64) as usize;
        m[at] ^= ((r >> 32) % 255 + 1) as u8;
        probe(&m);
    }
    h
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn line(name: &str, bytes: &[u8], decode: &dyn Fn(&[u8]) -> Option<Vec<u8>>) -> String {
    format!("{name} {:016x} {}", verdict_digest(name, bytes, decode), hex(bytes))
}

fn record_bytes<V: RecordValue>(v: &V) -> Vec<u8> {
    let mut buf = Vec::new();
    v.encode(&mut buf);
    buf
}

fn reg() -> RegInfo {
    RegInfo::new(ClientId(5).into(), 10.0, 50.0, 2.0)
}

fn sighting() -> Sighting {
    Sighting::new(ObjectId(7), 1_000, Point::new(3.0, 4.0), 5.0)
}

/// Every golden line the current codec produces, keyed by name.
fn corpus() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut add = |name: String, bytes: Vec<u8>, decode: &dyn Fn(&[u8]) -> Option<Vec<u8>>| {
        let l = line(&name, &bytes, decode);
        assert!(out.insert(name, l).is_none(), "duplicate golden name");
    };

    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for m in sample_messages() {
        let k = seen.entry(m.label()).or_default();
        *k += 1;
        add(format!("{}#{k}", m.label()), m.to_bytes(), &|b| {
            Message::from_bytes(b).map(|m| m.to_bytes())
        });
    }

    let rect = Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(9.0, 9.0)));
    let polygon = Region::Polygon(
        Polygon::new(vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0), Point::new(2.0, 3.0)])
            .unwrap(),
    );
    let predicates = [
        ("countAtLeast", Predicate::CountAtLeast { area: rect.clone(), threshold: 5 }),
        ("enter", Predicate::Enter { area: polygon.clone(), oid: None }),
        ("leave", Predicate::Leave { area: rect, oid: Some(ObjectId(3)) }),
    ];
    for (name, p) in predicates {
        add(format!("predicate.{name}"), p.to_bytes(), &|b| {
            Predicate::from_bytes(b).map(|p| p.to_bytes())
        });
    }
    let kinds = [
        ("countReached", EventKind::CountReached { count: 6 }),
        ("entered", EventKind::Entered { oid: ObjectId(1) }),
        ("left", EventKind::Left { oid: ObjectId(2) }),
    ];
    for (name, k) in kinds {
        add(format!("eventKind.{name}"), k.to_bytes(), &|b| {
            EventKind::from_bytes(b).map(|k| k.to_bytes())
        });
    }

    let visitors = [
        ("leaf", VisitorRecord::Leaf { offered_acc_m: 10.0, reg: reg(), epoch: Hlc(42) }),
        ("forward", VisitorRecord::Forward { child: ServerId(7), epoch: Hlc(100) }),
    ];
    for (name, v) in visitors {
        add(format!("visitorRecord.{name}"), record_bytes(&v), &|b| {
            VisitorRecord::decode(b).map(|v| record_bytes(&v))
        });
    }
    let replicas = [("sighted", Some(sighting())), ("unsighted", None)];
    for (name, sighting) in replicas {
        let v = ReplicaValue { reg: reg(), offered_acc_m: 12.5, epoch: Hlc(9), sighting };
        add(format!("replicaValue.{name}"), record_bytes(&v), &|b| {
            ReplicaValue::decode(b).map(|v| record_bytes(&v))
        });
    }
    out
}

#[test]
fn codec_reproduces_the_golden_corpus() {
    let want: BTreeMap<&str, &str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| (l.split(' ').next().unwrap(), l))
        .collect();
    let got = corpus();
    let mut diffs = String::new();
    for (name, line) in &got {
        if want.get(name.as_str()) != Some(&line.as_str()) {
            diffs.push_str(&format!("  {line}\n"));
        }
    }
    for name in want.keys() {
        if !got.contains_key(*name) {
            diffs.push_str(&format!("  (no longer produced) {name}\n"));
        }
    }
    assert!(diffs.is_empty(), "codec drifted from golden.txt; current lines:\n{diffs}");
}
