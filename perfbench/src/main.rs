//! `perfbench --workload <track|mixed|mixed-nn|churn> --seed N --seconds S --trace 0|1`
//!
//! See the crate documentation and `perfbench/README.md`.

use perfbench::host::{self, Fingerprint};
use perfbench::loadgen::{self, RealRun, Tally, OPEN_SHARE};
use perfbench::metrics::{self, Metrics, MSGS_TOLERANCE};
use perfbench::spans::{Layer, Split};
use perfbench::stats::median_of;
use perfbench::workload::{self, Kind, OpGen, Workload};
use perfbench::{replay, traced};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Open-loop seconds the traced runner replays.
const TRACE_SECONDS: f64 = 3.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A fresh, empty directory.
fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

/// Prints one phase's books.
fn books_line(name: &str, t: &Tally) -> String {
    format!(
        "# books {name}: sent={} acked={} handovers={} failed={} (wrong={}) deregs={}",
        t.sent, t.acked, t.handovers, t.failed, t.wrong, t.deregs
    )
}

/// Checks the real run's books and answers; prints its diagnostics.
fn check_real(real: &RealRun) -> bool {
    let (o, w) = (&real.open, &real.window);
    // Every request sent is acked, handed over, failed or in flight,
    // and the drain leaves nothing in flight.
    let balanced = o.sent + w.sent
        == o.acked + w.acked + o.handovers + w.handovers + o.failed + w.failed + real.in_flight_end;
    println!("{}", books_line("open", o));
    println!("{}", books_line("window", w));
    println!(
        "# books balance: {}",
        if balanced { "ok" } else { "UNBALANCED" }
    );
    println!(
        "# checks: in_flight_end={} answers_checked pos={} range={} nn={} late_replies={} strays={} send_errors={}",
        real.in_flight_end,
        real.checked[Kind::Pos.idx()],
        real.checked[Kind::Range.idx()],
        real.checked[Kind::Nn.idx()],
        real.late_replies,
        real.strays,
        real.send_errors
    );
    for e in &real.examples {
        println!("# WRONG ANSWER: {e}");
    }
    for line in metrics::latency_lines("open", &real.open_lat)
        .into_iter()
        .chain(metrics::latency_lines("window", &real.window_lat))
    {
        println!("{line}");
    }
    if !real.handover_lat.is_empty() {
        println!(
            "# open handover n={} p50_us={:.1}",
            real.handover_lat.len(),
            metrics::p50(&real.handover_lat)
        );
    }
    if real.window_s > 0.0 {
        let rates: Vec<String> = metrics::window_rates(real)
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect();
        println!("# window replies/s by slice: {}", rates.join(" "));
    }
    let (attempted, failed) = attempted_failed(real);
    println!(
        "# failed_ratio={:.6} ({failed}/{attempted}) kernel RcvbufErrors delta={} gathers_timed_out={}",
        failed as f64 / attempted.max(1) as f64,
        real.rcvbuf_drops,
        real.stats_all.gathers_timed_out
    );
    balanced && real.in_flight_end == 0 && o.wrong + w.wrong == 0
}

fn attempted_failed(real: &RealRun) -> (u64, u64) {
    (
        real.open.sent + real.window.sent,
        real.open.failed + real.window.failed,
    )
}

/// What the result line reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Outcome {
    fn new(checks_pass: bool, real: &RealRun, metrics: Metrics) -> Outcome {
        let (attempted, failed) = attempted_failed(real);
        let finite = metrics.0.iter().all(|(_, v)| v.is_finite());
        Outcome {
            correct: checks_pass && finite,
            attempted,
            failed,
            metrics,
        }
    }
}

/// `--trace 0`: three set-ups (for `setup_s`), then the measured run.
fn run_untraced(args: &Args, data: &Path) -> Result<Outcome, String> {
    let session = |tag: &str, seconds: f64| {
        loadgen::session(
            args.workload,
            args.seed,
            seconds,
            &fresh_dir(&data.join(tag))?,
        )
    };
    let mut setups = Vec::new();
    for i in 1..SETUPS {
        setups.push(session(&format!("setup-{i}"), 0.0)?.setup_s);
    }
    let real = session("run", args.seconds)?;
    setups.push(real.setup_s);
    let [setup, open, window] = real.retries;
    println!("# setup_s runs={setups:?}");
    println!("# retries setup={setup} open={open} window={window}");
    let ok = check_real(&real);
    let m = metrics::end_to_end(
        &args.workload.spec(),
        median_of(&setups),
        &real,
        host::peak_rss_mb(),
    );
    Ok(Outcome::new(ok, &real, m))
}

/// `--trace 1`: the measured run, then the traced replay of its first
/// seconds and the standalone storage replay.
fn run_traced(args: &Args, root: &Path, data: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let spec = w.spec();
    let real = loadgen::session(w, args.seed, args.seconds, &fresh_dir(&data.join("run"))?)?;
    let ok = check_real(&real);
    let open_s = if spec.saturate.is_some() {
        args.seconds * OPEN_SHARE
    } else {
        args.seconds
    };
    let trace = traced::run(
        w,
        args.seed,
        TRACE_SECONDS.min(open_s),
        host::nproc(),
        &fresh_dir(&data.join("trace"))?,
    )?;
    let gen = OpGen::new(w, args.seed);
    let store = replay::replay(
        &trace.storage,
        &gen.population(),
        &workload::leaves(gen.hierarchy()),
        &fresh_dir(&data.join("replay"))?,
        args.seed,
    )?;
    write_spans(&trace, &root.join(".bench_out"), w);

    let (traced_mpo, real_mpo) = metrics::msgs_per_request(&real, &trace);
    let path_ok = (traced_mpo / real_mpo - 1.0).abs() <= MSGS_TOLERANCE;
    println!(
        "# cross-check msgs/request: traced={traced_mpo:.3} real={real_mpo:.3} tolerance={MSGS_TOLERANCE} {}",
        if path_ok { "ok" } else { "MISMATCH" }
    );
    for kind in Kind::ALL {
        let k = kind.idx();
        if trace.ops[k] == 0 {
            continue;
        }
        let ops = trace.ops[k] as f64;
        let (traced_p50, real_p50) = (
            metrics::p50(&trace.op_us[k]),
            metrics::p50(&real.open_lat[k]),
        );
        println!(
            "# traced {}: ops={} unanswered={} p50_us={traced_p50:.1} real_p50_us={real_p50:.1} unattributed_us={:.1} msgs_per_op={:.2} datagrams_per_op={:.2} bytes_per_op={:.0}",
            kind.name(),
            trace.ops[k],
            trace.unanswered[k],
            real_p50 - traced_p50,
            trace.handles[k] as f64 / ops,
            trace.datagrams[k] as f64 / ops,
            trace.bytes[k] as f64 / ops,
        );
    }
    let split = Split::of(trace.tracer.spans());
    let ops = trace.ops.iter().sum::<u64>().max(1) as f64;
    let per_op = |layer| split.total_ns(layer) as f64 / 1e3 / ops;
    println!(
        "# traced self time per op (us): runner={:.3} encode={:.3} decode={:.3} handle={:.3} tick={:.3}",
        per_op(Layer::Op),
        per_op(Layer::Encode),
        per_op(Layer::Decode),
        per_op(Layer::Handle),
        per_op(Layer::Tick)
    );
    for ((layer, label), v) in &split.labels {
        if *layer == Layer::Handle {
            let us: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e3).collect();
            println!(
                "# node.handle_us.{label} n={} p50={:.2}",
                us.len(),
                metrics::p50(&us)
            );
        }
    }
    println!(
        "# node.tick_us_per_s={:.3} virtual_s={:.2} cache area={:?} agent={:?} position={:?}",
        split.total_ns(Layer::Tick) as f64 / 1e3 / trace.virtual_s.max(1e-9),
        trace.virtual_s,
        trace.cache.area,
        trace.cache.agent,
        trace.cache.position
    );
    println!("# storage replay: {store:?}");
    let m = metrics::per_layer(&spec, &real, &trace, &split, &store);
    Ok(Outcome::new(ok && path_ok, &real, m))
}

/// Writes the traced run's spans to `dir/spans-<workload>.tsv`.
fn write_spans(trace: &traced::TraceOut, dir: &Path, w: Workload) {
    let path = dir.join(format!("spans-{}.tsv", w.name()));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut buf = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace.tracer.write_tsv(&mut buf)?;
        std::io::Write::flush(&mut buf)
    });
    match written {
        Ok(()) => println!(
            "# spans: {} written to {}",
            trace.tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("# spans: not written to {}: {e}", path.display()),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let data = fresh_dir(&root.join(".bench_data").join(format!(
        "{}-{}",
        w.name(),
        std::process::id()
    )))?;
    let fp = Fingerprint::read(&data);
    println!(
        "# host nproc={} cpu=\"{}\" kernel={} data_fs={} shards={} workload={} options_delta={} flush_policy=\"{}\" seed={} seconds={} trace={}",
        fp.nproc,
        fp.cpu_model,
        fp.kernel,
        fp.data_fs,
        fp.nproc,
        w.name(),
        w.options_delta(),
        w.flush_policy(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = if args.trace {
        run_traced(args, &root, &data)
    } else {
        run_untraced(args, &data)
    };
    let _ = std::fs::remove_dir_all(&data);
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for (name, v) in &out.metrics.0 {
                println!("# metric {name} = {v}");
            }
            println!(
                "{}",
                metrics::result_line(out.correct, out.attempted, out.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
