//! In-memory spans recorded around calls into the program's layers.
// lint:allow-file(wallclock) spans are wall-clock measurements by definition

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// "No parent" marker.
pub const ROOT: u32 = u32::MAX;

/// The layer a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One client operation, from first encode to its reply.
    Op,
    /// `WireCodec::encode_into` of one envelope.
    Encode,
    /// `WireCodec::from_bytes` of one envelope.
    Decode,
    /// `LocationServer::handle` of one message.
    Handle,
    /// `LocationServer::tick` of one server.
    Tick,
}

impl Layer {
    /// The span name prefix written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Encode => "net.encode",
            Layer::Decode => "net.decode",
            Layer::Handle => "node.handle",
            Layer::Tick => "node.tick",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Measured layer.
    pub layer: Layer,
    /// Message or op label.
    pub label: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The op this span belongs to.
    pub op: u32,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory; nothing is written until [`Tracer::write_tsv`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, layer: Layer, label: &'static str, parent: u32, op: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            label,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f`, inside a span when `on`.
    pub fn maybe<T>(
        &mut self,
        on: bool,
        layer: Layer,
        label: &'static str,
        parent: u32,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        if !on {
            return f();
        }
        let id = self.begin(layer, label, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `id  parent  op  name  label  start_ns  end_ns`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\top\tname\tlabel\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                s.layer.name(),
                s.label,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover. Overlapping children are counted
/// once, and a child's part outside its parent is ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self time of a trace, summed by layer and grouped by label.
#[derive(Debug, Default)]
pub struct Split {
    /// Per layer: total self time (ns) and number of spans.
    pub layers: BTreeMap<Layer, (u64, u64)>,
    /// Self times (ns) of each layer's spans, by label.
    pub labels: BTreeMap<(Layer, &'static str), Vec<u64>>,
}

impl Split {
    /// Splits `spans` by layer and label.
    pub fn of(spans: &[Span]) -> Split {
        let mut split = Split::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let e = split.layers.entry(s.layer).or_default();
            e.0 += own;
            e.1 += 1;
            split
                .labels
                .entry((s.layer, s.label))
                .or_default()
                .push(own);
        }
        split
    }

    /// Total self time (ns) of `layer`.
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.layers.get(&layer).map_or(0, |e| e.0)
    }

    /// Mean self time (ns) per span of `layer`.
    pub fn mean_ns(&self, layer: Layer) -> f64 {
        self.layers
            .get(&layer)
            .map_or(0.0, |&(t, n)| t as f64 / n.max(1) as f64)
    }
}
