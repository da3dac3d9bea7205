//! `perfbench` — the end-to-end and per-layer benchmark of tempograph.
//! README.md explains the workloads, the metrics and how to read the output.

mod bench;
mod measure;
mod sut;
mod workloads;

use bench::{Options, Outcome};
use measure::{emit, emit_spans, max_pairwise_rel_diff, Spans};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use workloads::{Workload, DEFAULT_SEED, END_TO_END, WORKLOADS};

const USAGE: &str = "\
perfbench — end-to-end and per-layer benchmark of tempograph

USAGE:
  perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
            [--size full|smoke] [--golden HEX]
      Run one workload (default: all four). --trace 0 measures the
      end-to-end metrics with every instrument off; --trace 1 measures the
      per-layer metrics, prints the layer table and writes a Chrome trace
      to perfbench/target/traces/; neither flag does both. The last line
      printed for a workload is its result as one JSON object. Exits
      non-zero on a wrong output or a failed repetition. --seconds is the
      driver's; sizes and repetition counts are constants, so it changes
      nothing.

  perfbench selfcheck [--sets S] [--seed N] [--size full|smoke]
      Noise discipline: run the untraced benchmark S times (default 3) and
      fail unless, for every workload and end-to-end metric, the S values
      agree pairwise within half the metric's bound.

WORKLOADS: tdsp_road | tdsp_hashcut_tcp | hash_tweets | tdsp_road_ckpt_proc";

type Opts = HashMap<String, String>;

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{key}`"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for --{name}"))?;
        opts.insert(name.to_string(), value.clone());
    }
    Ok(opts)
}

fn parsed<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --{key}: `{v}`")),
    }
}

fn required<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("--{key} is required"))
}

fn workload_of(opts: &Opts) -> Result<&'static Workload, String> {
    let name = required(opts, "workload")?;
    workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

fn smoke_of(opts: &Opts) -> Result<bool, String> {
    match opts.get("size").map_or("full", String::as_str) {
        "full" => Ok(false),
        "smoke" => Ok(true),
        other => Err(format!("unknown size `{other}` (full|smoke)")),
    }
}

fn options_of(opts: &Opts) -> Result<Options, String> {
    // The driver passes `run_seconds`; the run's length is fixed by the
    // constants in workloads.rs, not by this.
    parsed(opts, "seconds", 0.0_f64)?;
    let golden_override = opts
        .get("golden")
        .map(|v| {
            u64::from_str_radix(v, 16).map_err(|_| format!("invalid value for --golden: `{v}`"))
        })
        .transpose()?;
    Ok(Options {
        seed: parsed(opts, "seed", DEFAULT_SEED)?,
        smoke: smoke_of(opts)?,
        golden_override,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("bench", &args[..]),
    };
    let result = parse_opts(rest).and_then(|opts| match cmd {
        "bench" => cmd_bench(&opts),
        "selfcheck" => cmd_selfcheck(&opts),
        "setup" => cmd_setup(&opts),
        "rep" => cmd_rep(&opts),
        "worker" => cmd_worker(&opts),
        "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_outcome(w: &Workload, traced: bool, o: &Outcome) {
    let pass = if traced {
        "per-layer (traced)"
    } else {
        "end-to-end (untraced)"
    };
    println!(
        "{}: {pass} metrics; reps_attempted {}, reps_failed {}",
        w.name, o.attempted, o.failed
    );
    for (name, value, unit) in &o.metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
}

fn cmd_bench(opts: &Opts) -> Result<(), String> {
    let options = options_of(opts)?;
    let selected: Vec<&Workload> = match opts.get("workload") {
        Some(_) => vec![workload_of(opts)?],
        None => WORKLOADS.iter().collect(),
    };
    let passes: &[bool] = match opts.get("trace").map(String::as_str) {
        None => &[false, true],
        Some("0") => &[false],
        Some("1") => &[true],
        Some(other) => return Err(format!("invalid value for --trace: `{other}` (0|1)")),
    };
    println!(
        "perfbench: cpus {}, os {}, arch {}, profile {}, partitions {}",
        std::thread::available_parallelism().map_or(0, usize::from),
        std::env::consts::OS,
        std::env::consts::ARCH,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        workloads::PARTITIONS,
    );
    let mut all_correct = true;
    for w in selected {
        println!("{}: {}", w.name, w.why);
        for &traced in passes {
            let outcome = if traced {
                bench::run_traced(w, &options)?
            } else {
                bench::run_untraced(w, &options)?
            };
            print_outcome(w, traced, &outcome);
            all_correct &= outcome.correct();
            println!("{}", outcome.to_json());
        }
    }
    if all_correct {
        Ok(())
    } else {
        Err("a repetition failed or produced a wrong output".into())
    }
}

fn cmd_selfcheck(opts: &Opts) -> Result<(), String> {
    let options = options_of(opts)?;
    let sets: usize = parsed(opts, "sets", 3)?;
    if sets < 2 {
        return Err("selfcheck needs --sets >= 2".into());
    }
    // values[workload][metric][set]. A whole pass over the workloads
    // separates one set from the next, so the sets see the host at
    // different times.
    let mut values = vec![vec![Vec::with_capacity(sets); END_TO_END.len()]; WORKLOADS.len()];
    for _ in 0..sets {
        for (w, per_metric) in WORKLOADS.iter().zip(&mut values) {
            let outcome = bench::run_untraced(w, &options)?;
            if !outcome.correct() {
                return Err(format!("{}: a repetition failed during selfcheck", w.name));
            }
            for ((name, ..), per_set) in END_TO_END.iter().zip(per_metric.iter_mut()) {
                per_set.push(
                    outcome
                        .metric(name)
                        .expect("run_untraced reports every end-to-end metric"),
                );
            }
        }
    }
    let mut ok = true;
    println!("| workload | metric | values | max pairwise diff | limit (bound/2) | within |");
    println!("|---|---|---|---|---|---|");
    for (w, per_metric) in WORKLOADS.iter().zip(&values) {
        for (&(name, _, _, bound), per_set) in END_TO_END.iter().zip(per_metric) {
            let diff = max_pairwise_rel_diff(per_set);
            let pass = diff <= bound / 2.0;
            ok &= pass;
            let shown: Vec<String> = per_set.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "| {} | {name} | {} | {:.2}% | {:.2}% | {} |",
                w.name,
                shown.join(" / "),
                100.0 * diff,
                50.0 * bound,
                if pass { "yes" } else { "NO" },
            );
        }
    }
    if ok {
        Ok(())
    } else {
        Err("selfcheck: a metric does not repeat within half its bound".into())
    }
}

/// Internal: one set-up in this process; facts and spans on stdout.
fn cmd_setup(opts: &Opts) -> Result<(), String> {
    let w = workload_of(opts)?;
    let size = w.size(smoke_of(opts)?);
    let seed: u64 = parsed(opts, "seed", DEFAULT_SEED)?;
    let dir = required(opts, "dir")?;
    let mut spans = Spans::new();
    let facts = sut::setup(w, size, seed, Path::new(dir), &mut spans)?;
    emit("vertices", facts.vertices);
    emit("edges", facts.edges);
    emit("subgraphs", facts.subgraphs);
    emit("instances", size.instances);
    emit("cut_fraction", facts.cut_fraction);
    emit("balance", facts.balance);
    emit("store_bytes", facts.store_bytes);
    if let Some(d) = facts.expect_digest {
        emit("expect_digest", format!("{d:016x}"));
    }
    emit_spans(&spans);
    Ok(())
}

fn job_args(opts: &Opts) -> Result<sut::JobArgs<'_>, String> {
    Ok(sut::JobArgs {
        dir: Path::new(required(opts, "dir")?),
        armed: required(opts, "armed")? == "1",
        scratch: Path::new(required(opts, "scratch")?),
        events_out: opts.get("events").map(Path::new),
    })
}

/// Internal: one repetition in this process; measurements on stdout.
fn cmd_rep(opts: &Opts) -> Result<(), String> {
    let w = workload_of(opts)?;
    let args = job_args(opts)?;
    // Nothing of an earlier repetition may be read as this one's.
    let _ = std::fs::remove_dir_all(args.scratch);
    std::fs::create_dir_all(args.checkpoint_dir())
        .map_err(|e| format!("creating {}: {e}", args.scratch.display()))?;
    // The command line that makes this binary a worker of the same job.
    let mut worker_args: Vec<String> = vec!["worker".into()];
    for key in ["workload", "dir", "armed", "scratch"] {
        if let Some(v) = opts.get(key) {
            worker_args.extend([format!("--{key}"), v.clone()]);
        }
    }
    let mut spans = Spans::new();
    let out = sut::run_rep(w, &args, worker_args, &mut spans)?;
    let cpu_s = measure::self_cpu_s();
    let hwm_mb = measure::self_hwm_mb().max(out.workers_hwm_mb);

    emit("wall_s", out.wall_s);
    emit("open_s", out.open_s);
    emit("cpu_s", cpu_s);
    emit("hwm_mb", hwm_mb);
    emit("edges", out.edges);
    emit("timesteps_run", out.timesteps_run);
    emit("digest", format!("{:016x}", out.digest));
    emit("emitted", out.emitted);
    emit("checkpoint_bytes", out.checkpoint_bytes);
    for (name, total) in &out.counters {
        emit(&format!("counter.{name}"), total);
    }
    let ms: Vec<String> = out.timestep_ms.iter().map(f64::to_string).collect();
    emit("timestep_ms", ms.join(","));
    for (name, value) in &out.layers {
        emit(&format!("layer.{name}"), value);
    }
    emit("trace_events", out.trace_events);
    emit("trace_spans_dropped", out.trace_spans_dropped);
    emit_spans(&spans);
    Ok(())
}

/// Internal: one worker process of a `tdsp_road_ckpt_proc` repetition.
fn cmd_worker(opts: &Opts) -> Result<(), String> {
    let w = workload_of(opts)?;
    let args = job_args(opts)?;
    let partition: u16 = parsed(opts, "partition", u16::MAX)?;
    let coordinator = required(opts, "coordinator")?.to_string();
    let code = sut::worker(w, &args, partition, coordinator)?;
    // The exit code is how the engine attributes a worker's death.
    std::process::exit(code);
}
