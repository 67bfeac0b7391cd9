//! Metric definitions and the result line.

use crate::loadgen::{RealRun, Tally};
use crate::replay::StorageOut;
use crate::spans::{Layer, Split};
use crate::stats::{median_of, percentile, slice_rates, sort};
use crate::traced::TraceOut;
use crate::workload::{Kind, Spec};

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one; "op" is the workload's headline request kind
/// (update on `track`, range query on `mixed`, registration on `churn`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.lag_p50_us", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.retries", "count"),
    ("net.datagrams_per_op", "count/op"),
    ("net.rcvbuf_drops", "count"),
    ("net.encode_ns_per_msg", "ns"),
    ("net.decode_ns_per_msg", "ns"),
    ("net.bytes_per_op", "B/op"),
    ("net.oversize_msgs", "count"),
    ("runtime.server_cpu_us_per_op", "us"),
    ("runtime.unattributed_us", "us"),
    ("node.handle_us_per_op", "us"),
    ("node.msgs_per_op", "count/op"),
    ("node.gathers_timed_out", "count"),
    ("node.handovers_per_kop", "count/kop"),
    ("cache.hit_ratio", "ratio"),
    ("cache.answers_per_pos", "ratio"),
    ("storage.sighting_upsert_ns", "ns"),
    ("storage.visitor_write_us", "us"),
    ("storage.wal_bytes_per_write", "B"),
    ("storage.checkpoints", "count"),
    ("storage.checkpoint_ms", "ms"),
    ("spatial.range_us", "us"),
    ("spatial.nearest_us", "us"),
    ("spatial.candidates_per_result", "ratio"),
];

/// The traced runner must see this many `handle` calls per request as
/// the real run's `ServerStats::msgs_in` shows, within this share.
pub const MSGS_TOLERANCE: f64 = 0.10;

/// Equal slices of the saturation phase; `ops_per_s` is the median of
/// their rates, so a burst of host interference moves one slice, not
/// the result.
pub const SLICES: usize = 20;

/// Percentiles printed as diagnostics beside the named metrics.
const QUANTILES: [(f64, &str); 4] = [(0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (0.999, "p999")];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}

/// Named metric values of one run, in declaration order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The JSON object of the `metrics` key.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_num(*v),
                    unit_of(n)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number (non-finite values become 0, and fail the
/// finiteness check before they are printed).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    sort(&mut v);
    v
}

fn pct(v: &[f64], q: f64) -> f64 {
    percentile(&sorted(v), q).unwrap_or(f64::NAN)
}

/// Successful replies per second in each of [`SLICES`] equal slices of
/// the saturation phase.
pub fn window_rates(real: &RealRun) -> Vec<f64> {
    let (start, end) = real.window_span;
    slice_rates(&real.window_done, start, end, SLICES)
}

/// The end-to-end metrics of a `--trace 0` run.
pub fn end_to_end(spec: &Spec, setup_s: f64, real: &RealRun, peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    let lat = &real.open_lat[spec.primary.idx()];
    let ops_per_s = match spec.saturate {
        Some(_) => median_of(&window_rates(real)),
        None => (real.open.acked + real.open.handovers) as f64 / real.open_span_s,
    };
    m.put("setup_s", setup_s);
    m.put("ops_per_s", ops_per_s);
    m.put("op_p50_us", pct(lat, 0.5));
    m.put("peak_rss_mb", peak_rss_mb);
    m
}

/// Requests of the open-loop phase, deregistrations included.
fn open_requests(t: &Tally) -> u64 {
    t.sent + t.deregs
}

/// Traced `handle` calls per request, and the real run's
/// `msgs_in` per request over the open loop.
pub fn msgs_per_request(real: &RealRun, trace: &TraceOut) -> (f64, f64) {
    let traced_ops: u64 = trace.ops.iter().sum();
    let traced = trace.handles.iter().sum::<u64>() as f64 / traced_ops.max(1) as f64;
    let real = real.stats_open.msgs_in as f64 / open_requests(&real.open).max(1) as f64;
    (traced, real)
}

/// The per-layer metrics of a `--trace 1` run.
pub fn per_layer(
    spec: &Spec,
    real: &RealRun,
    trace: &TraceOut,
    split: &Split,
    store: &StorageOut,
) -> Metrics {
    let mut m = Metrics::default();
    let requests = (open_requests(&real.open) + open_requests(&real.window)).max(1) as f64;
    let traced_ops = trace.ops.iter().sum::<u64>().max(1) as f64;
    let k = spec.primary.idx();
    m.put("loadgen.lag_p50_us", pct(&real.lag_us, 0.5));
    m.put("loadgen.lag_p99_us", pct(&real.lag_us, 0.99));
    m.put("loadgen.retries", real.retries.iter().sum::<u64>() as f64);
    m.put("net.datagrams_per_op", real.udp_out as f64 / requests);
    m.put("net.rcvbuf_drops", real.rcvbuf_drops as f64);
    m.put("net.encode_ns_per_msg", split.mean_ns(Layer::Encode));
    m.put("net.decode_ns_per_msg", split.mean_ns(Layer::Decode));
    m.put(
        "net.bytes_per_op",
        trace.bytes.iter().sum::<u64>() as f64 / traced_ops,
    );
    m.put("net.oversize_msgs", trace.oversize as f64);
    m.put(
        "runtime.server_cpu_us_per_op",
        real.server_cpu_s * 1e6 / requests,
    );
    m.put(
        "runtime.unattributed_us",
        pct(&real.open_lat[k], 0.5) - pct(&trace.op_us[k], 0.5),
    );
    m.put(
        "node.handle_us_per_op",
        split.total_ns(Layer::Handle) as f64 / 1e3 / traced_ops,
    );
    m.put("node.msgs_per_op", msgs_per_request(real, trace).0);
    m.put(
        "node.gathers_timed_out",
        real.stats_all.gathers_timed_out as f64,
    );
    let updates =
        (real.open.acked + real.open.handovers + real.window.acked + real.window.handovers).max(1);
    m.put(
        "node.handovers_per_kop",
        real.stats_all.handovers_completed as f64 * 1e3 / updates as f64,
    );
    let c = &trace.cache;
    let hits = c.area.hits + c.agent.hits + c.position.hits;
    let lookups = hits + c.area.misses + c.agent.misses + c.position.misses;
    m.put("cache.hit_ratio", hits as f64 / lookups.max(1) as f64);
    let pos =
        (real.open_lat[Kind::Pos.idx()].len() + real.window_lat[Kind::Pos.idx()].len()).max(1);
    m.put(
        "cache.answers_per_pos",
        real.stats_all.cache_answers as f64 / pos as f64,
    );
    m.put("storage.sighting_upsert_ns", store.sighting_ns);
    m.put("storage.visitor_write_us", store.visitor_write_us);
    m.put("storage.wal_bytes_per_write", store.wal_bytes_per_write);
    m.put("storage.checkpoints", store.auto_checkpoints as f64);
    m.put("storage.checkpoint_ms", store.checkpoint_ms);
    m.put("spatial.range_us", store.range_us);
    m.put("spatial.nearest_us", store.nearest_us);
    m.put("spatial.candidates_per_result", store.candidates_per_result);
    m
}

/// `# latency` diagnostic lines: every kind with samples, its sample
/// count, and the median and each tail percentile the tail rule allows.
pub fn latency_lines(tag: &str, lat: &[Vec<f64>; 6]) -> Vec<String> {
    let mut out = Vec::new();
    for kind in Kind::ALL {
        let v = sorted(&lat[kind.idx()]);
        if v.is_empty() {
            continue;
        }
        let shown: Vec<String> = QUANTILES
            .iter()
            .filter_map(|&(q, name)| percentile(&v, q).map(|x| format!("{name}_us={x:.1}")))
            .collect();
        out.push(format!(
            "# {tag} {} n={} {}",
            kind.name(),
            v.len(),
            shown.join(" ")
        ));
    }
    out
}

/// `p50` of a sample list for diagnostics (`NaN` when too thin).
pub fn p50(v: &[f64]) -> f64 {
    pct(v, 0.5)
}
