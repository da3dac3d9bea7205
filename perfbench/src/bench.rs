//! The orchestrator: runs set-ups and repetitions as child processes of
//! this binary, checks their outputs, and turns their reports into the
//! metrics of `workloads::END_TO_END` (untraced run) or
//! `workloads::PER_LAYER` (traced run).

use crate::measure::{median, quantile, Report, Span, Spans};
use crate::sut;
use crate::workloads::{
    Workload, DEFAULT_SEED, END_TO_END, PARTITIONS, PER_LAYER, REPS, TRACED_PAIRS,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

pub struct Options {
    pub seed: u64,
    pub smoke: bool,
    /// Stands in for the workload's recorded golden digest (to show that a
    /// wrong one fails the run).
    pub golden_override: Option<u64>,
}

impl Options {
    pub fn size_name(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// One run's result: what the last output line reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The driver's result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Where the benchmark writes: under its own package directory, which
/// `cargo run` names at run time and the build recorded at compile time.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("target")
}

/// Run this binary with `args`; its report.
fn child(args: &[&str]) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning `perfbench {}`: {e}", args[0]))?;
    if !out.status.success() {
        return Err(format!("`perfbench {}` ended with {}", args[0], out.status));
    }
    Ok(Report::parse(&String::from_utf8_lossy(&out.stdout)))
}

/// The per-run state shared by the untraced and the traced flow.
struct Run<'a> {
    w: &'a Workload,
    opts: &'a Options,
    work: PathBuf,
    store: String,
    /// Recreated by every repetition: its checkpoints and its worker
    /// processes' reports.
    scratch: String,
    attempted: u64,
    failed: u64,
    /// Digest of the first repetition; every later one must match.
    first_digest: Option<u64>,
    setup: Report,
    /// Spans of this process and of every child, for the trace file.
    spans: Vec<(u32, Span)>,
}

const TID_ORCHESTRATOR: u32 = 1;
const TID_SETUP: u32 = 2;
const TID_REP: u32 = 3;

impl<'a> Run<'a> {
    fn new(w: &'a Workload, opts: &'a Options) -> Result<Self, String> {
        let work =
            target_dir()
                .join("bench-work")
                .join(format!("{}-{}", w.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
        let path = |leaf: &str| work.join(leaf).to_string_lossy().into_owned();
        Ok(Run {
            w,
            opts,
            store: path("store"),
            scratch: path("rep"),
            work,
            attempted: 0,
            failed: 0,
            first_digest: None,
            setup: Report::default(),
            spans: Vec::new(),
        })
    }

    /// Keep a child's spans for the trace file; its root spans were caused
    /// by the orchestrator span `cause`.
    fn adopt(&mut self, tid: u32, spans: &[Span], cause: &str) {
        self.spans.extend(spans.iter().map(|s| {
            let mut s = s.clone();
            if s.parent.is_empty() {
                s.parent = cause.to_string();
            }
            (tid, s)
        }));
    }

    /// Generate, partition and write the dataset afresh in a child.
    fn set_up(&mut self, cause: &str) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.store);
        let seed = self.opts.seed.to_string();
        let report = child(&[
            "setup",
            "--workload",
            self.w.name,
            "--size",
            self.opts.size_name(),
            "--seed",
            &seed,
            "--dir",
            &self.store,
        ])?;
        self.adopt(TID_SETUP, &report.spans, cause);
        self.setup = report;
        Ok(())
    }

    fn setup_num(&self, key: &str) -> f64 {
        self.setup.num(key).unwrap_or(0.0)
    }

    /// One repetition in a fresh child; `None` (and `failed` counted) when
    /// the child failed or its output is wrong.
    fn rep(&mut self, armed: bool, events: Option<&Path>, cause: &str) -> Option<Report> {
        self.attempted += 1;
        let mut args = vec![
            "rep",
            "--workload",
            self.w.name,
            "--size",
            self.opts.size_name(),
            "--dir",
            &self.store,
            "--scratch",
            &self.scratch,
            "--armed",
            if armed { "1" } else { "0" },
        ];
        let events = events.map(|p| p.to_string_lossy().into_owned());
        if let Some(path) = &events {
            args.extend(["--events", path]);
        }
        let checked = child(&args).and_then(|report| {
            self.check(&report)?;
            Ok(report)
        });
        match checked {
            Ok(report) => {
                self.adopt(TID_REP, &report.spans, cause);
                Some(report)
            }
            Err(e) => {
                eprintln!("{}: repetition {} failed: {e}", self.w.name, self.attempted);
                self.failed += 1;
                None
            }
        }
    }

    fn check(&mut self, rep: &Report) -> Result<(), String> {
        let hex = |r: &Report, key: &str| {
            r.facts
                .get(key)
                .and_then(|v| u64::from_str_radix(v, 16).ok())
        };
        let digest = hex(rep, "digest").ok_or("the repetition reported no digest")?;
        let first = *self.first_digest.get_or_insert(digest);
        if digest != first {
            return Err(format!(
                "digest {digest:016x} differs from the first repetition's {first:016x}"
            ));
        }
        if let Some(expected) = hex(&self.setup, "expect_digest") {
            if digest != expected {
                return Err(format!(
                    "digest {digest:016x} differs from {expected:016x}, counted directly over the generated collection"
                ));
            }
        }
        if self.w.is_tdsp() {
            let vertices = self.setup_num("vertices");
            for key in ["emitted", "counter.tdsp_finalized"] {
                if rep.num(key) != Some(vertices) {
                    return Err(format!(
                        "{key} is {:?}, expected every one of {vertices} vertices",
                        rep.num(key)
                    ));
                }
            }
        }
        let golden = self.opts.golden_override.or_else(|| {
            (self.opts.seed == DEFAULT_SEED && !self.opts.smoke).then_some(self.w.golden)
        });
        match golden {
            Some(g) if g != digest => Err(format!(
                "digest {digest:016x} differs from the golden {g:016x}"
            )),
            _ => Ok(()),
        }
    }

    fn finish(self, metrics: Vec<(&'static str, f64, &'static str)>) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// The run's store, checkpoints and engine spans go when the run ends,
/// however it ends.
impl Drop for Run<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

fn listed(values: &[f64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
    shown.join(" ")
}

fn nums(reps: &[Report], key: &str) -> Vec<f64> {
    reps.iter().filter_map(|r| r.num(key)).collect()
}

/// The untraced run: one set-up and one discarded warm-up — together
/// `setup_s` — then `REPS` timed repetitions, one at a time.
pub fn run_untraced(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut run = Run::new(w, opts)?;
    run.set_up("")?;
    let warm_up = run.rep(false, None, "");
    let setup_s = started.elapsed().as_secs_f64();
    let reps: Vec<Report> = (0..REPS).filter_map(|_| run.rep(false, None, "")).collect();
    if reps.is_empty() {
        return Err(format!("{}: no timed repetition succeeded", w.name));
    }

    let job_wall_s = median(&nums(&reps, "wall_s"));
    let edge_timesteps =
        reps[0].num("edges").unwrap_or(0.0) * reps[0].num("timesteps_run").unwrap_or(0.0);
    let values = [
        setup_s,
        job_wall_s,
        edge_timesteps / job_wall_s,
        median(&nums(&reps, "cpu_s")),
        median(&nums(&reps, "hwm_mb")),
    ];
    println!(
        "{}: seed {}, size {}, {} V, {} E, {} subgraphs, {} instances, {} timesteps run; warm-up of {} s, {} timed repetitions of {} s, peaking at {} MB",
        w.name,
        opts.seed,
        opts.size_name(),
        run.setup_num("vertices"),
        run.setup_num("edges"),
        run.setup_num("subgraphs"),
        run.setup_num("instances"),
        reps[0].num("timesteps_run").unwrap_or(0.0),
        listed(&nums(warm_up.as_slice(), "wall_s")),
        reps.len(),
        listed(&nums(&reps, "wall_s")),
        listed(&nums(&reps, "hwm_mb")),
    );
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), value)| (name, value, unit))
        .collect();
    Ok(run.finish(metrics))
}

/// The traced run: one set-up, a warm-up, `TRACED_PAIRS` pairs of an
/// untraced and an armed repetition, then the outside probes. Writes the
/// workload's Chrome trace and prints the layer table.
pub fn run_traced(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut run = Run::new(w, opts)?;
    let mut own = Spans::new();
    let run_start_ns = own.now_ns();
    own.record("bench.setup", |_| run.set_up("bench.setup"))?;
    let events_path = run.work.join("engine-spans.tsv");

    let warm_up = own.record("bench.rep.warm_up", |_| {
        run.rep(false, None, "bench.rep.warm_up")
    });
    let setup_s = started.elapsed().as_secs_f64();
    // Only complete pairs count: the overhead is a ratio within a pair, so
    // that the host's drift from one pair to the next cancels.
    let mut untraced: Vec<Report> = Vec::new();
    let mut traced: Vec<Report> = Vec::new();
    for _ in 0..TRACED_PAIRS {
        let plain = own.record("bench.rep.untraced", |_| {
            run.rep(false, None, "bench.rep.untraced")
        });
        let armed = own.record("bench.rep.traced", |_| {
            run.rep(true, Some(&events_path), "bench.rep.traced")
        });
        if let (Some(plain), Some(armed)) = (plain, armed) {
            untraced.push(plain);
            traced.push(armed);
        }
    }
    if untraced.is_empty() {
        return Err(format!(
            "{}: the traced pass has no successful pair of repetitions",
            w.name
        ));
    }

    // Per-timestep walls of every repetition that ran with instruments off.
    let timestep_ms: Vec<f64> = warm_up
        .iter()
        .chain(&untraced)
        .filter_map(|rep| rep.facts.get("timestep_ms"))
        .flat_map(|line| line.split(','))
        .filter_map(|x| x.parse().ok())
        .collect();

    let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
    let store = Path::new(&run.store);
    let (load_s, cells, cached_mb) = own.record("bench.probe.gofs_load_all", |_| {
        sut::probe_gofs_load_all(store)
    })?;
    layer.insert("gofs.load_all_s", load_s);
    layer.insert(
        "gofs.decode_ns_per_cell",
        load_s * 1e9 / cells.max(1) as f64,
    );
    layer.insert("gofs.cached_mb_peak", cached_mb);
    // A batch of the workload's median remote-batch size (at least one
    // message, so the probe has something to time on message-free jobs).
    let last = traced.last().expect("checked non-empty above");
    let per_batch = last.num("layer.batch.msgs_remote").unwrap_or(0.0)
        / last
            .num("layer.batch.batches_remote")
            .unwrap_or(0.0)
            .max(1.0);
    let dropped = last.num("trace_spans_dropped").unwrap_or(0.0);
    let (enc, dec, merge) = own.record("bench.probe.batch", |_| {
        sut::probe_batch(per_batch as usize)
    });
    layer.insert("batch.encode_ns_per_msg", enc);
    layer.insert("batch.decode_ns_per_msg", dec);
    layer.insert("batch.merge_ns_per_msg", merge);
    let (rtt_us, mb_per_s) = own.record("bench.probe.net", |_| sut::probe_net())?;
    layer.insert("net.frame_rtt_us", rtt_us);
    layer.insert("net.stream_mb_per_s", mb_per_s);
    if w.is_tdsp() {
        let (wall, supersteps, msgs) = own.record("bench.probe.pregel_sssp", |_| {
            sut::probe_pregel_sssp(store, opts.seed)
        })?;
        layer.insert("pregel.sssp_wall_s", wall);
        layer.insert("pregel.supersteps", supersteps);
        layer.insert("pregel.msgs", msgs);
    }

    // Set-up layers: the child's spans around each call.
    for (metric, span) in [
        ("gen.template_s", "bench.setup.gen_template"),
        ("gen.instances_s", "bench.setup.gen_instances"),
        ("partition.partition_s", "bench.setup.partition"),
        (
            "partition.discover_subgraphs_s",
            "bench.setup.discover_subgraphs",
        ),
        ("gofs.write_s", "bench.setup.gofs_write"),
    ] {
        let total: f64 = run
            .setup
            .spans
            .iter()
            .filter(|s| s.name == span)
            .map(Span::dur_s)
            .sum();
        layer.insert(metric, total);
    }
    layer.insert("partition.cut_fraction", run.setup_num("cut_fraction"));
    layer.insert("partition.balance", run.setup_num("balance"));
    layer.insert("partition.subgraphs", run.setup_num("subgraphs"));
    layer.insert("gofs.store_mb", run.setup_num("store_bytes") / 1e6);
    layer.insert(
        "gofs.bytes_per_instance",
        run.setup_num("store_bytes") / run.setup_num("instances").max(1.0),
    );

    // Job layers come from the untraced repetitions, whose `JobResult`
    // already splits each timestep into compute, messaging, barrier wait
    // and I/O; only what needs the metrics registry comes from the armed
    // ones. Times are means, counts are the last repetition's (they repeat
    // exactly).
    for (name, unit) in PER_LAYER {
        let key = format!("layer.{name}");
        let mut values = nums(&untraced, &key);
        if values.is_empty() {
            values = nums(&traced, &key);
        }
        if !values.is_empty() {
            let value = if unit == "count" {
                *values.last().expect("checked non-empty")
            } else {
                values.iter().sum::<f64>() / values.len() as f64
            };
            layer.insert(name, value);
        }
    }
    let untraced_wall = median(&nums(&untraced, "wall_s"));
    let traced_wall = median(&nums(&traced, "wall_s"));
    layer.insert("gofs.open_s", median(&nums(&traced, "open_s")));
    layer.insert(
        "executor.cpu_utilisation",
        median(&nums(&untraced, "cpu_s")) / (PARTITIONS as f64 * untraced_wall),
    );
    layer.insert("executor.timestep_ms_p50", quantile(&timestep_ms, 0.5));
    layer.insert("executor.timestep_ms_p95", quantile(&timestep_ms, 0.95));
    layer.insert(
        "checkpoint.written_mb",
        last.num("checkpoint_bytes").unwrap_or(0.0) / 1e6,
    );
    let overheads: Vec<f64> = nums(&traced, "wall_s")
        .iter()
        .zip(nums(&untraced, "wall_s"))
        .map(|(armed, plain)| armed / plain - 1.0)
        .collect();
    layer.insert("trace.overhead_frac", median(&overheads));
    layer.insert("trace.events", last.num("trace_events").unwrap_or(0.0));
    layer.insert("bench.traced_job_wall_s", traced_wall);
    layer.insert("bench.untraced_job_wall_s", untraced_wall);
    layer.insert("bench.timestep_samples", timestep_ms.len() as f64);
    layer.insert("bench.setup_s", setup_s);

    run.spans
        .extend(own.done.iter().map(|s| (TID_ORCHESTRATOR, s.clone())));
    let trace_path = target_dir()
        .join("traces")
        .join(format!("{}.trace.json", w.name));
    write_chrome_trace(&trace_path, run_start_ns, &run.spans, &events_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    print_layer_table(w, &layer, untraced_wall);
    println!(
        "{}: trace written to {} ({dropped} engine spans beyond the per-name cap left out)",
        w.name,
        trace_path.display()
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layer.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(run.finish(metrics))
}

/// Programs fetch their instance lazily, inside `Compute`, so the loader's
/// clock runs within the executor's: this row is part of the one above it
/// and is not added to the total again.
const GOFS_IN_COMPUTE: &str = "  of which gofs slice read+decode";

/// Layer, busy seconds (summed over partitions), share of `k × job wall`,
/// and the count of the layer's unit of work.
fn print_layer_table(w: &Workload, layer: &BTreeMap<&str, f64>, job_wall_s: f64) {
    let get = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let budget = PARTITIONS as f64 * job_wall_s;
    // Open and spawn/connect are wall during which every partition waits.
    let spawn_busy = get("transport.spawn_connect_s") * PARTITIONS as f64;
    let rows = [
        (
            "gofs (store open, subgraph discovery)",
            get("gofs.open_s") * PARTITIONS as f64,
            1.0,
            "stores",
        ),
        (
            "executor (program compute)",
            get("executor.compute_s"),
            get("executor.supersteps"),
            "supersteps",
        ),
        (
            GOFS_IN_COMPUTE,
            get("gofs.io_s"),
            get("gofs.slice_loads"),
            "slice loads",
        ),
        (
            "batch (encode/route/merge)",
            get("batch.msg_s"),
            get("batch.msgs_local") + get("batch.msgs_remote"),
            "messages",
        ),
        (
            "transport (barrier wait)",
            get("transport.barrier_wait_s"),
            get("transport.barrier_rounds"),
            "barrier waits",
        ),
        (
            "checkpoint (encode+write)",
            get("checkpoint.write_s"),
            get("checkpoint.count"),
            "writes",
        ),
        (
            "transport (spawn/connect/collect)",
            spawn_busy,
            PARTITIONS as f64,
            "workers",
        ),
    ];
    println!(
        "{}: layer table of the untraced job ({PARTITIONS} partitions x {job_wall_s:.3} s wall = {budget:.3} s)",
        w.name
    );
    println!(
        "  {:<38} {:>9} {:>7}  {:>12} unit of work",
        "layer", "busy s", "share", "count"
    );
    let mut accounted = 0.0;
    for (name, busy, count, what) in rows {
        if name != GOFS_IN_COMPUTE {
            accounted += busy;
        }
        println!(
            "  {name:<38} {busy:>9.3} {:>6.1}%  {count:>12.0} {what}",
            100.0 * busy / budget
        );
    }
    let rest = budget - accounted;
    println!(
        "  {:<38} {rest:>9.3} {:>6.1}%",
        "(unattributed)",
        100.0 * rest / budget
    );
}

/// One Chrome trace-event file: the benchmark's spans (process 1, one
/// thread per role) and the last armed repetition's engine spans (process
/// 2, one thread per engine track), on one clock that starts with the run.
fn write_chrome_trace(
    path: &Path,
    run_start_ns: u64,
    spans: &[(u32, Span)],
    engine_tsv: &Path,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let us = |ns: u64| ns.saturating_sub(run_start_ns) as f64 / 1e3;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"traceEvents\":[\n{}",
        meta(1, 0, "process_name", "perfbench")
    )?;
    write!(
        out,
        ",\n{}",
        meta(
            2,
            0,
            "process_name",
            "tempograph job (last traced repetition)"
        )
    )?;
    for (tid, name) in [
        (TID_ORCHESTRATOR, "orchestrator"),
        (TID_SETUP, "setup child"),
        (TID_REP, "repetition children"),
    ] {
        write!(out, ",\n{}", meta(1, tid, "thread_name", name))?;
    }
    for (tid, s) in spans {
        write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"{}\",\"args\":{{\"parent\":\"{}\"}}}}",
            us(s.start_ns),
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.name,
            s.parent
        )?;
    }
    let engine = std::fs::read_to_string(engine_tsv).unwrap_or_default();
    let mut tracks: Vec<&str> = Vec::new();
    for line in engine.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let [track, name, start, dur] = f[..] else {
            continue;
        };
        let (Ok(start), Ok(dur)) = (start.parse::<u64>(), dur.parse::<u64>()) else {
            continue;
        };
        let tid = match tracks.iter().position(|t| *t == track) {
            Some(i) => i + 1,
            None => {
                tracks.push(track);
                write!(
                    out,
                    ",\n{}",
                    meta(2, tracks.len() as u32, "thread_name", track)
                )?;
                tracks.len()
            }
        };
        write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":2,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"{name}\",\"args\":{{\"parent\":\"bench.job\"}}}}",
            us(start),
            dur as f64 / 1e3
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

fn meta(pid: u32, tid: u32, what: &str, name: &str) -> String {
    format!("{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{what}\",\"args\":{{\"name\":\"{name}\"}}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            attempted: 6,
            failed: 0,
            metrics: vec![("job_wall_s", 1.25, "s"), ("setup_s", 0.5, "s")],
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 6, \"failed\": 0, \"metrics\": {\
             \"job_wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(o.metric("setup_s"), Some(0.5));
        let bad = Outcome { failed: 1, ..o };
        assert!(bad.to_json().starts_with("{\"correct\": false"));
    }
}
