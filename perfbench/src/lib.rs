//! Wall-clock benchmark of the hiloc UDP runtime.
//!
//! `perfbench --workload <track|mixed|mixed-nn|churn> --seed N --seconds S --trace 0|1`
//! runs one workload against a sharded `UdpDeployment` from a single
//! load-generator process. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it repeats the run, replays the same op
//! sequence through a traced single-threaded runner and prints the
//! per-layer split. The last line of standard output is one JSON
//! object; every line before it is a `#` diagnostic.

pub mod checks;
pub mod host;
pub mod loadgen;
pub mod metrics;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workload;
