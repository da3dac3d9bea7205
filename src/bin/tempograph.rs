//! `tempograph` — command-line driver for the time-series graph stack.
//!
//! ```text
//! tempograph generate --preset carn --scale 0.5 --workload road \
//!                     --partitions 6 --out /tmp/carn-road
//! tempograph inspect  /tmp/carn-road
//! tempograph run      --algo tdsp --data /tmp/carn-road --source 0
//! tempograph partition --preset wiki --scale 0.5 --k 9 --algorithm ldg
//! ```
//!
//! Argument parsing is deliberately dependency-free: `--key value` pairs
//! after a subcommand.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use tempograph::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "inspect" => cmd_inspect(&opts, rest),
        "partition" => cmd_partition(&opts),
        "run" => cmd_run(&opts),
        "worker" => cmd_worker(&opts),
        "status" => cmd_status(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
tempograph — distributed programming over time-series graphs

USAGE:
  tempograph generate  --out DIR [--preset carn|wiki] [--scale F]
                       [--workload road|tweets|churn] [--timesteps N]
                       [--partitions K] [--packing N] [--binning N]
                       [--partitioner multilevel|ldg|hash]
      Generate a synthetic time-series graph dataset as a GoFS store.

  tempograph inspect   DIR
      Print a stored dataset's metadata, template and partition stats,
      then read and check every slice (exits non-zero on a missing or
      corrupt one) and print the storage stats.

  tempograph inspect   list                     [--ledger DIR]
  tempograph inspect   show RUN [--json true]   [--ledger DIR]
  tempograph inspect   diff OLD NEW [--threshold F] [--ledger DIR]
  tempograph inspect   rebalance RUN --data DIR [--max-moves N]
                       [--cost measured|invocations] [--ledger DIR]
      Query the run ledger: list recorded runs, show one (human or
      canonical JSON), gate-compare two (bench noise-floor rules; exits
      non-zero on a regression or count change), or propose a rebalance
      from a run's measured per-subgraph costs.

  tempograph partition [--preset carn|wiki] [--scale F] [--k K]
                       [--partitioner multilevel|ldg|hash]
      Partition a generated template and report edge cut / balance.

  tempograph run       --algo ALGO --data DIR [--source V] [--meme TAG]
                       [--timesteps N] [--ledger DIR] [--seed N]
                       [--deterministic true] [--observe true]
                       [--transport inprocess|tcp|tcp-process]
                       [--status-addr HOST:PORT] [--straggler-factor F]
                       [--faults SPEC] [--checkpoint-dir D]
                       [--checkpoint-every N]
      Run an algorithm over a stored dataset. With --ledger, the run is
      armed with metrics + cost attribution and recorded to the ledger
      (--deterministic strips measured timings so a seeded run records
      byte-identically across executions). --transport tcp runs the
      cluster over loopback TCP (worker threads); tcp-process spawns one
      real `tempograph worker` process per partition. Results —
      including ledger records — are byte-identical across transports:
      every worker ships its metrics/attribution home with its results,
      so the coordinator folds the same data on every transport.
      --observe arms metrics + attribution without
      recording; --status-addr serves live cluster introspection for
      `tempograph status` (implies --observe); --straggler-factor (or
      env TEMPOGRAPH_STRAGGLER_FACTOR, default 4.0) tunes how many
      multiples of the median barrier wait flag a straggler.
      --faults SPEC injects worker deaths, `;`-separated: panic@pP:tT:sS
      kills partition P at timestep T, superstep S; ckpt@pP:tT kills it
      halfway through its checkpoint write after timestep T.
      ALGO: tdsp | meme | hash | sssp | bfs | wcc | pagerank | topn | stats

  tempograph status    --addr HOST:PORT
      Query a running coordinator's status endpoint (started via
      `run --status-addr`): per-worker epoch, timestep, supersteps,
      barrier-wait watermark, bytes sent/received, telemetry age.

  tempograph worker    --data DIR --algo ALGO --partition N
                       --coordinator ADDR [--timesteps N] [--source V]
                       [--meme TAG] [--observe true] [--faults SPEC]
                       [--checkpoint-dir D] [--checkpoint-every N]
      One TCP cluster worker (spawned by `run --transport tcp-process`;
      rarely invoked by hand). Flags after --coordinator must mirror the
      coordinator's so every worker runs the identical job.";

fn parse_opts(rest: &[String]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut it = rest.iter();
    while let Some(key) = it.next() {
        if let Some(name) = key.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for --{name}"))?;
            opts.insert(name.to_string(), value.clone());
        }
        // bare positionals (e.g. inspect DIR) handled by the commands
    }
    Ok(opts)
}

fn opt<'a>(opts: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    opts.get(key).map(String::as_str).unwrap_or(default)
}

fn parse<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --{key}: `{v}`")),
    }
}

fn preset_of(opts: &HashMap<String, String>) -> Result<DatasetPreset, String> {
    match opt(opts, "preset", "carn") {
        "carn" => Ok(DatasetPreset::Carn),
        "wiki" => Ok(DatasetPreset::Wiki),
        other => Err(format!("unknown preset `{other}` (carn|wiki)")),
    }
}

fn partitioner_of(name: &str) -> Result<Box<dyn Partitioner>, String> {
    Ok(match name {
        "multilevel" => Box::new(MultilevelPartitioner::default()),
        "ldg" => Box::new(LdgPartitioner),
        "hash" => Box::new(HashPartitioner),
        other => return Err(format!("unknown partitioner `{other}`")),
    })
}

fn cmd_generate(opts: &HashMap<String, String>) -> Result<(), String> {
    let out = opts.get("out").ok_or("--out DIR is required")?;
    let preset = preset_of(opts)?;
    let scale: f64 = parse(opts, "scale", 0.5)?;
    let timesteps: usize = parse(opts, "timesteps", 50)?;
    let k: usize = parse(opts, "partitions", 6)?;
    let packing: usize = parse(opts, "packing", 10)?;
    let binning: usize = parse(opts, "binning", 5)?;
    let workload = opt(opts, "workload", "road");

    println!("generating {} template at scale {scale}…", preset.name());
    let base = preset.template(scale);
    // Churn workloads need the isExists attribute; rebuild with it declared.
    let template = if workload == "churn" {
        let mut b = TemplateBuilder::new(base.name().to_string(), base.directed());
        b.vertex_schema()
            .add(GraphTemplate::IS_EXISTS, AttrType::Bool);
        for v in base.vertices() {
            b.add_vertex(base.vertex_id(v));
        }
        for e in base.edges() {
            let (s, d) = base.endpoints(e);
            b.add_edge(base.edge_id(e), base.vertex_id(s), base.vertex_id(d))
                .map_err(|e| e.to_string())?;
        }
        Arc::new(b.finalize().map_err(|e| e.to_string())?)
    } else {
        Arc::new(base)
    };
    println!(
        "  {} vertices, {} edges",
        template.num_vertices(),
        template.num_edges()
    );

    println!("generating {timesteps} instances ({workload})…");
    let series = match workload {
        "road" => generate_road_latencies(
            template.clone(),
            &RoadLatencyConfig {
                timesteps,
                ..Default::default()
            },
        ),
        "tweets" => generate_sir_tweets(
            template.clone(),
            &SirConfig {
                timesteps,
                hit_prob: preset.hit_prob(),
                ..Default::default()
            },
        ),
        "churn" => tempograph::gen::generate_topology_churn(
            template.clone(),
            &tempograph::gen::ChurnConfig {
                timesteps,
                pinned_alive: vec![VertexIdx(0)],
                ..Default::default()
            },
        ),
        other => return Err(format!("unknown workload `{other}` (road|tweets|churn)")),
    };

    println!("partitioning into {k} parts…");
    let partitioner = partitioner_of(opt(opts, "partitioner", "multilevel"))?;
    let parts = partitioner.partition(&template, k);
    println!(
        "  edge cut {:.3}%, balance {:.3}",
        100.0 * tempograph::partition::cut_fraction(&template, &parts),
        tempograph::partition::balance(&template, &parts)
    );
    let pg = Arc::new(discover_subgraphs(template, parts));
    println!("  {} subgraphs", pg.subgraphs().len());

    println!("writing GoFS store to {out} (packing {packing} × binning {binning})…");
    let meta = tempograph::gofs::store::write_dataset(out, pg, &series, packing, binning)
        .map_err(|e| e.to_string())?;
    println!(
        "done: {} timesteps, {} partitions",
        meta.num_timesteps, meta.num_partitions
    );
    Ok(())
}

/// Bare (non-flag) arguments, skipping each `--key`'s value.
fn positionals(rest: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            let _ = it.next();
        } else {
            out.push(a.as_str());
        }
    }
    out
}

fn cmd_inspect(opts: &HashMap<String, String>, rest: &[String]) -> Result<(), String> {
    let pos = positionals(rest);
    match pos.first().copied() {
        Some("list") => return inspect_list(opts),
        Some("show") => return inspect_show(opts, &pos[1..]),
        Some("diff") => return inspect_diff(opts, &pos[1..]),
        Some("rebalance") => return inspect_rebalance(opts, &pos[1..]),
        _ => {}
    }
    let dir = *pos
        .first()
        .ok_or("usage: tempograph inspect DIR | list | show | diff | rebalance")?;
    let store = GofsStore::open(dir).map_err(|e| e.to_string())?;
    let meta = store.meta();
    println!("dataset  : {}", meta.name);
    println!("dir      : {dir}");
    println!(
        "series   : {} instances from t0 = {} every δ = {}s",
        meta.num_timesteps, meta.start_time, meta.period
    );
    println!(
        "layout   : {} partitions, packing {} × binning {}",
        meta.num_partitions, meta.packing, meta.binning
    );
    let t = store.template();
    println!(
        "template : {} vertices, {} edges, {}",
        t.num_vertices(),
        t.num_edges(),
        if t.directed() {
            "directed"
        } else {
            "undirected"
        }
    );
    print!("v-schema : ");
    for a in t.vertex_schema().iter() {
        print!("{}: {:?}  ", a.name, a.ty);
    }
    println!();
    print!("e-schema : ");
    for a in t.edge_schema().iter() {
        print!("{}: {:?}  ", a.name, a.ty);
    }
    println!();
    let pg = store.partitioned_graph();
    println!(
        "subgraphs: {} total; per partition: {:?}",
        pg.subgraphs().len(),
        (0..meta.num_partitions as u16)
            .map(|p| pg.subgraphs_of_partition(p).len())
            .collect::<Vec<_>>()
    );
    println!(
        "edge cut : {:.3}%",
        100.0 * tempograph::partition::cut_fraction(t, store.partitioning())
    );
    // Every slice read, checksummed and decoded: a missing or corrupt one
    // fails the command.
    let stats = tempograph::gofs::validate_dataset(&store, &pg).map_err(|e| e.to_string())?;
    println!(
        "slices   : {} files, {} bytes; per partition: {:?}",
        stats.slice_files, stats.total_bytes, stats.bytes_per_partition
    );
    println!("validated: {} (subgraph, timestep) records", stats.records);
    Ok(())
}

fn open_ledger(opts: &HashMap<String, String>) -> Result<Ledger, String> {
    Ledger::open(opt(opts, "ledger", "ledger")).map_err(|e| e.to_string())
}

fn inspect_list(opts: &HashMap<String, String>) -> Result<(), String> {
    let ledger = open_ledger(opts)?;
    let names = ledger.list().map_err(|e| e.to_string())?;
    if names.is_empty() {
        println!("no runs recorded in {}", ledger.dir().display());
        return Ok(());
    }
    for name in names {
        match ledger.load(&name) {
            Ok(rec) => println!(
                "{name}  {} ({})  {} ts  wall {:.3} ms",
                rec.config.algorithm,
                rec.config.pattern,
                rec.aggregates.timesteps_run,
                rec.aggregates.wall_ns as f64 / 1e6
            ),
            Err(e) => println!("{name}  [unreadable: {e}]"),
        }
    }
    Ok(())
}

fn inspect_show(opts: &HashMap<String, String>, pos: &[&str]) -> Result<(), String> {
    let name = *pos
        .first()
        .ok_or("usage: tempograph inspect show RUN [--json true] [--ledger DIR]")?;
    let ledger = open_ledger(opts)?;
    let rec = ledger.load(name).map_err(|e| e.to_string())?;
    if parse(opts, "json", false)? {
        println!("{}", rec.to_value().write_pretty());
        return Ok(());
    }
    let c = &rec.config;
    let a = &rec.aggregates;
    println!("run        : {name}");
    println!("algorithm  : {} ({})", c.algorithm, c.pattern);
    println!(
        "dataset    : {} ({} partitions, {} subgraphs, {} timesteps, seed {:#x})",
        c.dataset, c.partitions, c.subgraphs, c.timesteps, c.seed
    );
    println!("series     : t0 = {} every δ = {}s", c.start_time, c.period);
    print!("env        :");
    for (k, v) in &c.env {
        print!(" {k}={v}");
    }
    println!();
    println!(
        "wall       : {:.3} ms (virtual {:.3} ms over {} timesteps run)",
        a.wall_ns as f64 / 1e6,
        a.virtual_ns as f64 / 1e6,
        a.timesteps_run
    );
    println!(
        "phases     : compute {:.3} ms, msg {:.3} ms, sync {:.3} ms, io {:.3} ms",
        a.compute_ns as f64 / 1e6,
        a.msg_ns as f64 / 1e6,
        a.sync_ns as f64 / 1e6,
        a.io_ns as f64 / 1e6
    );
    println!(
        "traffic    : {} local + {} remote msgs ({} bytes, {} batches, {} combined)",
        a.msgs_local, a.msgs_remote, a.bytes_remote, a.batches_remote, a.msgs_combined
    );
    println!(
        "work       : {} supersteps, {} slice loads, {} recoveries, {} emits",
        a.supersteps, a.slice_loads, a.recoveries, a.emitted_values
    );
    for w in &rec.workers {
        println!(
            "worker {:>4}: compute {:.3} ms, msg {:.3} ms, sync {:.3} ms, io {:.3} ms, \
             wall {:.3} ms, {} supersteps",
            w.partition,
            w.compute_ns as f64 / 1e6,
            w.msg_ns as f64 / 1e6,
            w.sync_ns as f64 / 1e6,
            w.io_ns as f64 / 1e6,
            w.wall_ns as f64 / 1e6,
            w.supersteps
        );
    }
    if !rec.attribution.is_empty() {
        let mut per_sg = rec.per_subgraph_costs(true);
        let invocations = rec.per_subgraph_costs(false);
        per_sg.sort_by_key(|&(id, ns)| (std::cmp::Reverse(ns), id.idx()));
        println!(
            "attribution: {} subgraphs, top by measured compute:",
            per_sg.len()
        );
        for &(id, ns) in per_sg.iter().take(8) {
            let inv = invocations
                .iter()
                .find(|(i, _)| *i == id)
                .map_or(0, |&(_, n)| n);
            println!(
                "  subgraph {:>4}: {:.3} ms over {} invocations",
                id.idx(),
                ns as f64 / 1e6,
                inv
            );
        }
    }
    for (cname, total) in &rec.counters {
        println!("counter {cname:24} total {total}");
    }
    Ok(())
}

fn inspect_diff(opts: &HashMap<String, String>, pos: &[&str]) -> Result<(), String> {
    let [old_name, new_name] = pos else {
        return Err("usage: tempograph inspect diff OLD NEW [--threshold F] [--ledger DIR]".into());
    };
    let threshold: f64 = parse(opts, "threshold", tempograph::ledger::DEFAULT_THRESHOLD)?;
    let ledger = open_ledger(opts)?;
    let old = ledger.load(old_name).map_err(|e| e.to_string())?;
    let new = ledger.load(new_name).map_err(|e| e.to_string())?;
    let diff = diff_records(&old, &new, threshold);
    println!(
        "comparing {old_name} -> {new_name} (threshold +{:.0}%, noise floor {} ms)",
        threshold * 100.0,
        tempograph::ledger::NOISE_FLOOR_NS / 1_000_000
    );
    if diff.config_differs {
        println!("warning: config fingerprints differ (not apples-to-apples)");
    }
    if diff.deltas.is_empty() {
        println!("records agree on every gated field");
        return Ok(());
    }
    for d in &diff.deltas {
        println!("  {}", d.describe());
    }
    let fatal = diff.fatal().count();
    if fatal > 0 {
        return Err(format!("{fatal} gate-fatal delta(s)"));
    }
    println!("ok: drift only, nothing gate-fatal");
    Ok(())
}

fn inspect_rebalance(opts: &HashMap<String, String>, pos: &[&str]) -> Result<(), String> {
    let name = *pos.first().ok_or(
        "usage: tempograph inspect rebalance RUN --data DIR [--max-moves N] \
         [--cost measured|invocations] [--ledger DIR]",
    )?;
    let dir = opts.get("data").ok_or("--data DIR is required")?;
    let max_moves: usize = parse(opts, "max-moves", 3)?;
    let measured = match opt(opts, "cost", "measured") {
        "measured" => true,
        "invocations" => false,
        other => {
            return Err(format!(
                "unknown cost source `{other}` (measured|invocations)"
            ))
        }
    };
    let ledger = open_ledger(opts)?;
    let rec = ledger.load(name).map_err(|e| e.to_string())?;
    if rec.attribution.is_empty() {
        return Err(format!(
            "run `{name}` has no cost attribution (record it via `tempograph run --ledger`)"
        ));
    }
    let store = GofsStore::open(dir).map_err(|e| e.to_string())?;
    let pg = store.partitioned_graph();
    if pg.subgraphs().len() != rec.config.subgraphs as usize
        || pg.num_partitions() != rec.config.partitions as usize
    {
        return Err(format!(
            "dataset {dir} has {} subgraphs / {} partitions but run `{name}` recorded {} / {}",
            pg.subgraphs().len(),
            pg.num_partitions(),
            rec.config.subgraphs,
            rec.config.partitions
        ));
    }
    let costs = rec.per_subgraph_costs(measured);
    let plan = suggest_rebalance_from(&pg, CostSource::MeasuredPerSubgraph(&costs), max_moves);
    println!(
        "run {name}: {} cost source over {} attributed subgraphs",
        if measured {
            "measured-ns"
        } else {
            "invocation-count"
        },
        costs.len()
    );
    println!(
        "makespan {} -> {} (predicted speedup {:.3}x)",
        plan.makespan_before,
        plan.makespan_after,
        plan.predicted_speedup()
    );
    if plan.moves.is_empty() {
        println!("no beneficial moves found");
        return Ok(());
    }
    for mv in &plan.moves {
        println!(
            "  move subgraph {:>4}: partition {} -> {} (shifts cost {})",
            mv.subgraph.idx(),
            mv.from,
            mv.to,
            mv.est_cost
        );
    }
    plan.apply(&pg)
        .map_err(|e| format!("plan failed validation against {dir}: {e}"))?;
    println!("plan validates against {dir}");
    Ok(())
}

fn cmd_partition(opts: &HashMap<String, String>) -> Result<(), String> {
    let preset = preset_of(opts)?;
    let scale: f64 = parse(opts, "scale", 0.5)?;
    let k: usize = parse(opts, "k", 6)?;
    let name = opt(opts, "partitioner", "multilevel");
    let partitioner = partitioner_of(name)?;
    let template = preset.template(scale);
    let started = Clock::start();
    let parts = partitioner.partition(&template, k);
    let elapsed = started.elapsed();
    println!(
        "{} on {} ({} V, {} E), k = {k}:",
        name,
        preset.name(),
        template.num_vertices(),
        template.num_edges()
    );
    println!(
        "  edge cut {:.3}%  balance {:.3}  time {:.2?}",
        100.0 * tempograph::partition::cut_fraction(&template, &parts),
        tempograph::partition::balance(&template, &parts),
        elapsed
    );
    println!("  sizes: {:?}", parts.sizes());
    Ok(())
}

/// Config adjustments shared by the coordinator and every worker — a
/// worker process must rebuild the byte-identical [`JobConfig`] (same
/// barrier schedule, same fault plan) from its mirrored flags.
struct JobTuning {
    /// Arm metrics + attribution for ledger recording.
    ledger_on: bool,
    /// `--observe true` — arm metrics + attribution without recording.
    observe: bool,
    /// `--status-addr HOST:PORT` — serve live introspection (implies
    /// observe; coordinator-side only, never mirrored to workers).
    status_addr: Option<String>,
    /// `--straggler-factor F` or env `TEMPOGRAPH_STRAGGLER_FACTOR`.
    straggler_factor: Option<f64>,
    /// `--checkpoint-every N --checkpoint-dir D`.
    checkpoint: Option<(usize, String)>,
    /// `--faults SPEC`: injected worker deaths, `;`-separated
    /// `panic@pP:tT:sS` and `ckpt@pP:tT` events (see
    /// `FaultPlan::from_spec`).
    fault_spec: Option<String>,
}

impl JobTuning {
    fn from_opts(opts: &HashMap<String, String>) -> Result<JobTuning, String> {
        let checkpoint = match (opts.get("checkpoint-dir"), opts.get("checkpoint-every")) {
            (Some(dir), every) => Some((
                every
                    .map(|v| {
                        v.parse()
                            .map_err(|_| format!("invalid value for --checkpoint-every: `{v}`"))
                    })
                    .transpose()?
                    .unwrap_or(1),
                dir.clone(),
            )),
            (None, Some(_)) => return Err("--checkpoint-every requires --checkpoint-dir".into()),
            (None, None) => None,
        };
        let straggler_factor: Option<f64> = match opts.get("straggler-factor") {
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("invalid value for --straggler-factor: `{v}`"))?,
            ),
            None => match std::env::var("TEMPOGRAPH_STRAGGLER_FACTOR") {
                Ok(v) => Some(v.parse().map_err(|_| {
                    format!("invalid TEMPOGRAPH_STRAGGLER_FACTOR in environment: `{v}`")
                })?),
                Err(_) => None,
            },
        };
        if let Some(f) = straggler_factor {
            if f.is_nan() || f < 1.0 {
                return Err(format!("--straggler-factor must be >= 1.0, got {f}"));
            }
        }
        Ok(JobTuning {
            ledger_on: opts.contains_key("ledger"),
            observe: parse(opts, "observe", false)?,
            status_addr: opts.get("status-addr").cloned(),
            straggler_factor,
            checkpoint,
            fault_spec: opts.get("faults").cloned(),
        })
    }

    /// True when the job should carry metrics + attribution — the same
    /// predicate arms telemetry shipping on both sides of the coordinator
    /// protocol.
    fn observability_on(&self) -> bool {
        self.ledger_on || self.observe || self.status_addr.is_some()
    }

    fn apply<M>(&self, mut cfg: JobConfig<M>) -> Result<JobConfig<M>, String> {
        if self.observability_on() {
            cfg = cfg.with_metrics().with_attribution();
        }
        if let Some(addr) = &self.status_addr {
            cfg = cfg.with_status_addr(addr.clone());
        }
        if let Some(f) = self.straggler_factor {
            cfg = cfg.with_straggler_factor(f);
        }
        if let Some((every, dir)) = &self.checkpoint {
            cfg = cfg.with_checkpoint(*every, dir);
        }
        if let Some(spec) = &self.fault_spec {
            cfg = cfg.with_faults(FaultPlan::from_spec(spec)?);
        }
        Ok(cfg)
    }
}

/// How to execute one (factory, config) pair: as a whole cluster, or as
/// one TCP worker. Lets [`dispatch_algo`] own the
/// algo-name → (program, pattern) table once, while each caller supplies
/// the execution mode — the table is the single point that guarantees a
/// worker process builds the same job as its coordinator.
trait AlgoRunner {
    type Out;
    fn run<P, F>(self, factory: F, config: JobConfig<P::Msg>) -> Self::Out
    where
        P: SubgraphProgram,
        F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync + 'static;
}

/// A whole cluster (`run_job_tcp`): in-process, TCP threads, or spawned
/// worker processes.
struct ClusterRunner<'a> {
    pg: &'a Arc<PartitionedGraph>,
    src: &'a InstanceSource,
    cluster: Cluster,
}

impl AlgoRunner for ClusterRunner<'_> {
    type Out = Result<JobResult, EngineError>;
    fn run<P, F>(self, factory: F, config: JobConfig<P::Msg>) -> Self::Out
    where
        P: SubgraphProgram,
        F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync + 'static,
    {
        run_job_tcp(self.pg, self.src, factory, config, self.cluster)
    }
}

/// One worker process in a TCP cluster (`run_tcp_worker`); yields the
/// process exit code.
struct WorkerRunner {
    coordinator: String,
    partition: u16,
    pg: Arc<PartitionedGraph>,
    src: InstanceSource,
}

impl AlgoRunner for WorkerRunner {
    type Out = i32;
    fn run<P, F>(self, factory: F, config: JobConfig<P::Msg>) -> i32
    where
        P: SubgraphProgram,
        F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync + 'static,
    {
        run_tcp_worker::<P, F>(
            self.coordinator,
            self.partition,
            self.pg,
            self.src,
            factory,
            config,
        )
    }
}

/// The algo-name → (program factory, job pattern) table, shared by `run`
/// (all transports) and `worker` so both sides of a TCP cluster agree on
/// the job byte-for-byte.
#[allow(clippy::too_many_arguments)]
fn dispatch_algo<R: AlgoRunner>(
    algo: &str,
    t: &GraphTemplate,
    timesteps: usize,
    source: VertexIdx,
    meme: String,
    tuning: &JobTuning,
    runner: R,
) -> Result<R::Out, String> {
    let find_v = |name: &str| t.vertex_schema().index_of(name);
    let find_e = |name: &str| t.edge_schema().index_of(name);
    Ok(match algo {
        "tdsp" => {
            let col = find_e(LATENCY_ATTR).ok_or("dataset lacks a latency column")?;
            runner.run(
                Tdsp::factory(source, col),
                tuning
                    .apply(JobConfig::sequentially_dependent(timesteps).while_active(timesteps))?,
            )
        }
        "meme" => {
            let col = find_v(TWEETS_ATTR).ok_or("dataset lacks a tweets column")?;
            runner.run(
                MemeTracking::factory(meme, col),
                tuning.apply(JobConfig::sequentially_dependent(timesteps))?,
            )
        }
        "hash" => {
            let col = find_v(TWEETS_ATTR).ok_or("dataset lacks a tweets column")?;
            runner.run(
                HashtagAggregation::factory(meme, col),
                tuning.apply(JobConfig::eventually_dependent(timesteps))?,
            )
        }
        "sssp" => {
            let col = find_e(LATENCY_ATTR);
            runner.run(
                Sssp::factory(source, col),
                tuning.apply(JobConfig::independent(1))?,
            )
        }
        "bfs" => runner.run(
            Sssp::factory(source, None),
            tuning.apply(JobConfig::independent(1))?,
        ),
        "wcc" => runner.run(Wcc::factory(), tuning.apply(JobConfig::independent(1))?),
        "pagerank" => runner.run(
            PageRank::factory(10),
            tuning.apply(JobConfig::independent(1))?,
        ),
        "topn" => {
            let col = find_v(TWEETS_ATTR).ok_or("dataset lacks a tweets column")?;
            runner.run(
                TopNActivity::factory(5, col),
                tuning.apply(JobConfig::independent(timesteps))?,
            )
        }
        "stats" => runner.run(
            tempograph::algos::InstanceStats::factory(
                find_v(TWEETS_ATTR),
                find_e(LATENCY_ATTR),
                200.0,
            ),
            tuning.apply(JobConfig::independent(timesteps))?,
        ),
        other => return Err(format!("unknown algorithm `{other}`")),
    })
}

fn cmd_worker(opts: &HashMap<String, String>) -> Result<(), String> {
    let dir = opts.get("data").ok_or("--data DIR is required")?;
    let algo = opts.get("algo").ok_or("--algo is required")?;
    let partition: u16 = opts
        .get("partition")
        .ok_or("--partition N is required")?
        .parse()
        .map_err(|_| "invalid value for --partition".to_string())?;
    let coordinator = opts
        .get("coordinator")
        .ok_or("--coordinator ADDR is required")?
        .clone();
    let store = GofsStore::open(dir).map_err(|e| e.to_string())?;
    let t = store.template().clone();
    let pg = Arc::new(store.partitioned_graph());
    let max_ts = store.meta().num_timesteps;
    let timesteps: usize = parse(opts, "timesteps", max_ts)?.min(max_ts);
    let source = VertexIdx(parse(opts, "source", 0u32)?);
    let meme = opt(opts, "meme", "#meme").to_string();
    let tuning = JobTuning::from_opts(opts)?;
    let code = dispatch_algo(
        algo,
        &t,
        timesteps,
        source,
        meme,
        &tuning,
        WorkerRunner {
            coordinator,
            partition,
            pg,
            src: InstanceSource::Gofs(dir.into()),
        },
    )?;
    // Exit code is the cross-process failure-attribution channel (see
    // `INJECTED_EXIT_CODE`) — bypass ExitCode to report it exactly.
    std::process::exit(code);
}

fn cmd_status(opts: &HashMap<String, String>) -> Result<(), String> {
    let addr = opts.get("addr").ok_or("--addr HOST:PORT is required")?;
    let reply = query_status(addr).map_err(|e| e.to_string())?;
    println!("cluster @ {addr}: {} workers", reply.workers.len());
    println!(
        "{:>9}  {:>5}  {:>8}  {:>10}  {:>14}  {:>12}  {:>12}  {:>14}",
        "partition",
        "epoch",
        "timestep",
        "supersteps",
        "barrier-wait",
        "sent",
        "received",
        "last telemetry"
    );
    for w in &reply.workers {
        let age = if w.last_telemetry_ms == u64::MAX {
            "never".to_string()
        } else {
            format!("{} ms ago", w.last_telemetry_ms)
        };
        println!(
            "{:>9}  {:>5}  {:>8}  {:>10}  {:>11.3} ms  {:>10} B  {:>10} B  {:>14}",
            w.partition,
            w.epoch,
            w.timestep,
            w.supersteps,
            w.barrier_wait_ns as f64 / 1e6,
            w.bytes_sent,
            w.bytes_received,
            age
        );
    }
    Ok(())
}

/// FNV-1a over the emits in the order the job returned them, each as its
/// 20-byte wire record (`u64` timestep, `u32` vertex, `f64` value bits,
/// little-endian): two runs print one digest only when they agree on every
/// emit and on its place.
fn emit_digest(emitted: &[tempograph::engine::Emit]) -> u64 {
    let mut records = Vec::with_capacity(20 * emitted.len());
    for e in emitted {
        records.extend_from_slice(&(e.timestep as u64).to_le_bytes());
        records.extend_from_slice(&e.vertex.0.to_le_bytes());
        records.extend_from_slice(&e.value.to_bits().to_le_bytes());
    }
    tempograph::gofs::codec::fnv1a64(&records)
}

fn cmd_run(opts: &HashMap<String, String>) -> Result<(), String> {
    let dir = opts.get("data").ok_or("--data DIR is required")?;
    let algo = opts.get("algo").ok_or("--algo is required")?;
    let store = GofsStore::open(dir).map_err(|e| e.to_string())?;
    let t = store.template().clone();
    let pg = Arc::new(store.partitioned_graph());
    let max_ts = store.meta().num_timesteps;
    let timesteps: usize = parse(opts, "timesteps", max_ts)?.min(max_ts);
    let source = VertexIdx(parse(opts, "source", 0u32)?);
    let meme = opt(opts, "meme", "#meme").to_string();
    let src = InstanceSource::Gofs(dir.into());
    let tuning = JobTuning::from_opts(opts)?;
    let transport = opt(opts, "transport", "inprocess");

    println!(
        "running {algo} over {timesteps} timesteps on {} partitions ({transport})…",
        pg.num_partitions()
    );
    let cluster = match transport {
        "inprocess" => Cluster::InProcess,
        "tcp" => Cluster::Threads,
        "tcp-process" => {
            let worker_bin = std::env::current_exe().map_err(|e| e.to_string())?;
            // Mirror every job-shaping flag so workers rebuild the
            // identical config (see `tempograph worker` usage).
            let mut worker_args: Vec<String> = vec![
                "worker".into(),
                "--data".into(),
                dir.clone(),
                "--algo".into(),
                algo.clone(),
                "--timesteps".into(),
                timesteps.to_string(),
                "--source".into(),
                source.0.to_string(),
                "--meme".into(),
                meme.clone(),
            ];
            if tuning.observability_on() {
                // Workers must arm metrics + attribution whenever the
                // coordinator does (--ledger / --observe / --status-addr)
                // so their results carry what the coordinator folds;
                // otherwise a tcp-process ledger record would be empty.
                worker_args.extend(["--observe".into(), "true".into()]);
            }
            if let Some((every, ckdir)) = &tuning.checkpoint {
                worker_args.extend([
                    "--checkpoint-every".into(),
                    every.to_string(),
                    "--checkpoint-dir".into(),
                    ckdir.clone(),
                ]);
            }
            if let Some(spec) = &tuning.fault_spec {
                worker_args.extend(["--faults".into(), spec.clone()]);
            }
            Cluster::Processes {
                worker_bin,
                worker_args,
            }
        }
        other => {
            return Err(format!(
                "unknown transport `{other}` (inprocess|tcp|tcp-process)"
            ))
        }
    };
    let started = Clock::start();
    let runner = ClusterRunner {
        pg: &pg,
        src: &src,
        cluster,
    };
    let result = dispatch_algo(algo, &t, timesteps, source, meme, &tuning, runner)?
        .map_err(|e| format!("{transport} job failed: {e}"))?;
    let elapsed = started.elapsed();

    println!(
        "finished in {elapsed:.2?} ({} timesteps run)",
        result.timesteps_run
    );
    println!(
        "emitted values : {} (digest {:016x})",
        result.emitted.len(),
        emit_digest(&result.emitted)
    );
    for (name, per_t) in &result.counters {
        let total: u64 = per_t.iter().flatten().sum();
        println!("counter {name:24} total {total}");
    }
    for (name, per_p) in &result.merge_counters {
        let total: u64 = per_p.iter().sum();
        println!("merge counter {name:18} total {total}");
    }
    let m: u64 = result
        .metrics
        .iter()
        .flatten()
        .map(|m| m.msgs_local + m.msgs_remote)
        .sum();
    let loads: u64 = result.metrics.iter().flatten().map(|m| m.slice_loads).sum();
    println!("messages       : {m}");
    println!("slice loads    : {loads}");

    // With observability armed, print the coordinator-side registry totals
    // next to the worker-local sums above. Over TCP the histogram content
    // arrives only in the workers' Output frames, so nonzero observation
    // counts here prove the worker shards were shipped and folded; everything printed
    // is deterministic, so the line must match across transports.
    if let Some(reg) = &result.registry {
        let snap = reg.snapshot();
        let hist_count = |name: &str| match snap.get(name, &[]) {
            Some(tempograph::metrics::Metric::Histogram(h)) => h.count(),
            _ => 0,
        };
        let reg_msgs = snap.counter_total("tempograph_msgs_local_total")
            + snap.counter_total("tempograph_msgs_remote_total");
        println!(
            "registry       : messages {reg_msgs}, slice loads {}, compute spans {}, barrier waits {}",
            snap.counter_total("tempograph_slice_loads_total"),
            hist_count("tempograph_superstep_compute_ns"),
            hist_count("tempograph_barrier_wait_ns"),
        );
    }

    if let Some(ldir) = opts.get("ledger") {
        let pattern = match algo.as_str() {
            "tdsp" | "meme" => "sequentially-dependent",
            "hash" => "eventually-dependent",
            _ => "independent",
        };
        let meta = store.meta();
        let fp = ConfigFingerprint {
            algorithm: algo.clone(),
            pattern: pattern.to_string(),
            partitions: pg.num_partitions() as u32,
            subgraphs: pg.subgraphs().len() as u32,
            timesteps: timesteps as u32,
            start_time: meta.start_time,
            period: meta.period,
            seed: parse(opts, "seed", 0u64)?,
            dataset: dir.clone(),
            env: ConfigFingerprint::host_env(),
        };
        let mut rec = RunRecord::from_result(fp, &result);
        if parse(opts, "deterministic", false)? {
            rec.strip_nondeterminism();
        }
        let ledger = Ledger::open(ldir).map_err(|e| e.to_string())?;
        let name = ledger.record(&rec).map_err(|e| e.to_string())?;
        println!(
            "recorded run   : {name} ({})",
            ledger.path_of(&name).display()
        );
    }
    Ok(())
}
