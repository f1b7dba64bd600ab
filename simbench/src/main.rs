//! Host-time benchmark of the tnt simulator.
//!
//! ```text
//! simbench --workload ctx|mem|io --seed N --seconds S --trace 0|1 [--out FILE]
//! simbench compare A.json B.json
//! ```
//!
//! A run plans its workload's experiments at `Scale::quick()`, then makes
//! untraced passes over their units for `--seconds` (at least two): the
//! first in plan order, each later one in a fresh seeded order. Host time
//! is the sum over units of each unit's best time across the passes,
//! scaled to a reference host by the run's yardsticks (`calib.rs`).
//! With `--trace 1` it then
//! makes two traced passes for exact per-layer counts. The last line of
//! standard output is the result as one JSON object. See README.md.

mod bench;
mod calib;
mod host;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tnt_core::Os;
use tnt_runner::json::Value;
use tnt_sim::trace::Counter;

use bench::{
    check_against, failures, plan_units, read_blessed, run_pass, set_up, Counts, Pass, Passes,
    Workload, LAYERS, WORKLOADS,
};
use calib::{Scales, Yardstick};
use host::Fingerprint;

/// Untraced passes a run makes however short `--seconds` is: two, so that
/// every unit's output is checked across passes.
const MIN_PASSES: usize = 2;

/// Traced passes of a `--trace 1` run: two, whose counts must agree.
const TRACED_PASSES: usize = 2;

/// Bursts of timed set-ups in a run. They are spread evenly over the
/// run time after the first pass, between units, so that they sample
/// the host's fast and slow moments as the units do. A fixed count, so
/// that a run that fits more passes does not get a better best.
const SETUP_BURSTS: usize = 40;

/// Set-ups in a burst, back to back. `setup_s` and
/// `harness.baselines_s` are the best over all bursts. A lone set-up
/// right after a unit finds the caches as that unit left them, and its
/// time depends on which unit ran before it.
const SETUP_BURST: usize = 5;

/// Repeats of an empty machine boot; `sim.boot_us` is the best of them.
const BOOT_REPEATS: usize = 50;

const USAGE: &str =
    "usage: simbench --workload ctx|mem|io --seed N --seconds S --trace 0|1 [--out FILE]\n\
       simbench compare A.json B.json";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let fingerprint = Fingerprint::probe();
    println!(
        "host: nproc={} cpu={:?} kernel={} engine_spins={}",
        fingerprint.nproc, fingerprint.cpu_model, fingerprint.kernel, fingerprint.engine_spins
    );

    let mut yardstick = Yardstick::new();
    let started = Instant::now();
    let mut setups = SetUps::new();
    let mut passes: Option<Passes> = None;
    let mut peak_rss_kib = None;
    // From the end of the first pass: its instant, and the run time left.
    let mut spread: Option<(Instant, f64)> = None;
    while passes.as_ref().map_or(0, |p| p.count) < MIN_PASSES
        || started.elapsed().as_secs_f64() < args.seconds
    {
        let k = passes.as_ref().map_or(0, |p| p.count);
        let setup = set_up(w, args.seed, k as u64)?;
        let mut failure = None;
        let pass = run_pass(setup, false, &mut || {
            // Set-ups start after the first pass, which runs as a user's
            // run does: its peak resident set is the one reported.
            if let Some((from, left)) = spread {
                let due = SETUP_BURSTS as f64 * from.elapsed().as_secs_f64() / left;
                if let Err(e) = setups.time(w, args.seed, (due as usize).min(SETUP_BURSTS)) {
                    failure.get_or_insert(e);
                }
            }
            yardstick.tick();
        });
        if let Some(e) = failure {
            return Err(e);
        }
        keep(&mut passes, pass, "pass");
        if peak_rss_kib.is_none() {
            // The first pass is a user's run: the units in plan order,
            // once. Later passes only add the allocator's churn from
            // repeating the same work in other orders, which grows with
            // the number of passes that fit.
            peak_rss_kib = Some(host::peak_rss_kib()?);
            spread = Some((
                Instant::now(),
                args.seconds - started.elapsed().as_secs_f64(),
            ));
        }
    }
    let passes = passes.expect("a run makes at least one pass");
    let peak_rss_mib = peak_rss_kib.unwrap_or_default() as f64 / 1024.0;
    setups.time(w, args.seed, SETUP_BURSTS)?;
    let scales = yardstick.scales();
    let best = scaled_best(&passes, scales);
    let harness_s = (passes.render_s + passes.check_s) * scales.compute;
    let wall_s = best.iter().sum::<f64>() + harness_s;
    let setup_s = setups.plan_s;
    let raw_wall_s = passes.best.iter().sum::<f64>() + passes.render_s + passes.check_s;
    let blocking_s = (0..best.len())
        .filter(|&i| passes.blocks[i])
        .fold(0.0, |sum, i| sum + passes.best[i]);
    let (round_trip_ns, parse_ns) = (yardstick.round_trip_ns(), yardstick.parse_ns());
    eprintln!(
        "simbench: {} passes, best of passes {raw_wall_s:.4} host s ({blocking_s:.4} s in \
         units that block), best plan {:.4} ms, best baselines parse {:.4} ms; yardsticks {round_trip_ns:.0} ns/round \
         trip, {parse_ns:.0} ns/parse, scales {:.4} blocking, {:.4} compute; wall_s \
         {wall_s:.4} s, setup_s {:.4} ms",
        passes.count,
        setups.plan_s * 1e3,
        setups.baselines_s * 1e3,
        scales.blocking,
        scales.compute,
        setup_s * 1e3
    );

    let (mut attempted, mut failed) = (passes.attempted, passes.failed);
    let metrics: Vec<Metric> = if args.trace {
        let boot_us = boot_us() * scales.blocking;
        let mut traced: Option<Passes> = None;
        for k in 0..TRACED_PASSES {
            let setup = set_up(w, args.seed, (passes.count + k) as u64)?;
            let mut pass = run_pass(setup, true, &mut || {});
            if traced.is_none() {
                check_against(&mut pass, &passes.first);
            }
            keep(&mut traced, pass, "traced pass");
        }
        let traced = traced.expect("a traced run makes traced passes");
        attempted += traced.attempted;
        failed += traced.failed;
        let mut m = per_layer(&passes, &traced, &best, scales);
        m.push(("harness.baselines_s".into(), setups.baselines_s, "s"));
        m.push(("sim.boot_us".into(), boot_us, "us"));
        m.push(("host.yardstick_round_trip_ns".into(), round_trip_ns, "ns"));
        m.push(("host.yardstick_parse_ns".into(), parse_ns, "ns"));
        m.push((
            "failed_frac".into(),
            failed as f64 / attempted as f64,
            "frac",
        ));
        m
    } else {
        vec![
            ("wall_s".into(), wall_s, "s"),
            ("setup_s".into(), setup_s, "s"),
            ("peak_rss_mib".into(), peak_rss_mib, "MiB"),
        ]
    };

    if let Some(path) = &args.out {
        let doc = report(args, &fingerprint, &passes, scales, &metrics);
        std::fs::write(path, doc.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    Ok(())
}

/// The timed repeats of the set-up step, in its two parts: planning the
/// units of every workload, and reading the blessed records of one.
struct SetUps {
    done: usize,
    /// Best host seconds of planning the units of every workload.
    plan_s: f64,
    /// Best host seconds of reading and parsing `baselines.json`.
    baselines_s: f64,
}

impl SetUps {
    fn new() -> SetUps {
        SetUps {
            done: 0,
            plan_s: f64::INFINITY,
            baselines_s: f64::INFINITY,
        }
    }

    /// Times bursts of set-ups until `upto` bursts have been timed in all.
    /// The planning is of every workload, whichever `w` is: planning one
    /// workload alone takes 20 to 150 µs, too short to hold still from
    /// one build to the next (see README.md).
    fn time(&mut self, w: &Workload, seed: u64, upto: usize) -> Result<(), String> {
        while self.done < upto * SETUP_BURST {
            let t0 = Instant::now();
            let planned: Vec<_> = WORKLOADS
                .iter()
                .map(|all| plan_units(all, seed, self.done as u64 + 1))
                .collect();
            let t1 = Instant::now();
            let blessed = read_blessed(w)?;
            let t2 = Instant::now();
            drop((planned, blessed));
            self.plan_s = self.plan_s.min((t1 - t0).as_secs_f64());
            self.baselines_s = self.baselines_s.min((t2 - t1).as_secs_f64());
            self.done += 1;
        }
        Ok(())
    }
}

/// Checks `pass` against the first of `passes` and folds it in, or
/// starts `passes` with it; reports the pass on standard error.
fn keep(passes: &mut Option<Passes>, pass: Pass, what: &str) {
    let k = passes.as_ref().map_or(0, |p| p.count);
    let (units_s, render_s, n) = (
        pass.secs.iter().sum::<f64>(),
        pass.render_s,
        pass.failed.len(),
    );
    let failed = match passes {
        Some(p) => p.fold(pass),
        None => {
            let failed = failures(&pass);
            *passes = Some(Passes::new(pass));
            failed
        }
    };
    eprintln!("simbench: {what} {k}: units {units_s:.3} s, render {render_s:.4} s, {failed} of {n} failed");
}

/// Each unit's best host time, scaled by the factor of its kind: the
/// blocking one for a unit that blocks, which computes and waits on
/// wakeups, and the compute one for a unit that never blocks, which is
/// pure computation.
fn scaled_best(passes: &Passes, scales: Scales) -> Vec<f64> {
    passes
        .best
        .iter()
        .zip(&passes.blocks)
        .map(|(&secs, &blocks)| {
            secs * if blocks {
                scales.blocking
            } else {
                scales.compute
            }
        })
        .collect()
}

/// Best host time of booting an empty machine with a file system, in µs.
fn boot_us() -> f64 {
    (0..BOOT_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            tnt_core::run_with_fs(Os::Linux, 1, |_| ());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// The per-layer metrics of a traced run: host times from the untraced
/// `passes`, with each unit's `best` time and the harness times scaled
/// as in `wall_s`, and exact counts from the `traced` ones.
fn per_layer(passes: &Passes, traced: &Passes, best: &[f64], scales: Scales) -> Vec<Metric> {
    let layers = &passes.first.layers;
    let counts = &traced.first.counts;
    let mut total = Counts::default();
    counts.iter().for_each(|c| total.add(c));

    let mut m: Vec<Metric> = Vec::new();
    for layer in LAYERS {
        let busy: f64 = (0..best.len())
            .filter(|&i| layers[i] == layer)
            .map(|i| best[i])
            .sum();
        m.push((format!("{layer}.busy_s"), busy, "s"));
    }
    // Host time per unit of simulated work, over the units that did it.
    let per_work = |work: &dyn Fn(&Counts) -> u64| {
        let (mut secs, mut n) = (0.0, 0u64);
        for (i, c) in counts.iter().enumerate() {
            if work(c) > 0 {
                secs += best[i];
                n += work(c);
            }
        }
        if n == 0 {
            0.0
        } else {
            secs / n as f64
        }
    };
    let disk_cmds = |c: &Counts| c.get(Counter::DiskReads) + c.get(Counter::DiskWrites);
    m.push((
        "sim.host_ns_per_dispatch".into(),
        per_work(&|c| c.get(Counter::Dispatches)) * 1e9,
        "ns",
    ));
    m.push((
        "cpu.host_ns_per_l1_miss".into(),
        per_work(&|c| c.get(Counter::L1Misses)) * 1e9,
        "ns",
    ));
    m.push((
        "fs.host_us_per_disk_cmd".into(),
        per_work(&disk_cmds) * 1e6,
        "us",
    ));

    let usage = &passes.usage;
    m.push(("host.vol_csw".into(), usage.vol_csw as f64, "count"));
    m.push(("host.sys_s".into(), usage.sys_s, "s"));
    m.push(("host.minflt".into(), usage.minflt as f64, "count"));
    m.push(("host.cpu_s".into(), usage.user_s + usage.sys_s, "s"));
    m.push((
        "harness.render_s".into(),
        passes.render_s * scales.compute,
        "s",
    ));
    m.push((
        "harness.check_s".into(),
        passes.check_s * scales.compute,
        "s",
    ));

    m.push(("sim.sims".into(), total.sims as f64, "count"));
    m.push((
        "sim.elapsed_mcycles".into(),
        total.elapsed as f64 / 1e6,
        "Mcycles",
    ));
    let exact = [
        ("sim.dispatches", Counter::Dispatches),
        ("sim.lite_dispatches", Counter::LiteDispatches),
        ("os.syscalls", Counter::Syscalls),
        ("os.forks", Counter::Forks),
        ("os.execs", Counter::Execs),
        ("cpu.l1_misses", Counter::L1Misses),
        ("cpu.l2_misses", Counter::L2Misses),
        ("cpu.mem_stall_cycles", Counter::MemStallCycles),
        ("fs.bufcache_hits", Counter::CacheHits),
        ("fs.bufcache_misses", Counter::CacheMisses),
        ("fs.disk_reads", Counter::DiskReads),
        ("fs.disk_writes", Counter::DiskWrites),
        ("fs.sync_meta_writes", Counter::SyncMetaWrites),
        ("net.tcp_segments", Counter::TcpSegments),
        ("net.delayed_acks", Counter::DelayedAcks),
        ("net.udp_datagrams", Counter::UdpDatagrams),
        ("nfs.rpc_calls", Counter::RpcCalls),
    ];
    for (name, c) in exact {
        m.push((name.into(), total.get(c) as f64, "count"));
    }
    m.push(("trace.drops".into(), total.drops as f64, "count"));
    let overhead = traced.best.iter().sum::<f64>() / passes.best.iter().sum::<f64>() - 1.0;
    m.push(("trace.overhead_frac".into(), overhead, "frac"));
    m
}

/// The full result of a run, for `--out`: fingerprint, metrics, the
/// yardstick scales, and every unit's best host time, unscaled.
fn report(
    args: &Args,
    fp: &Fingerprint,
    passes: &Passes,
    scales: Scales,
    metrics: &[Metric],
) -> Value {
    let units = passes
        .first
        .labels
        .iter()
        .zip(&passes.first.layers)
        .zip(passes.best.iter().zip(&passes.blocks))
        .map(|((label, layer), (secs, blocks))| {
            Value::Obj(vec![
                ("label".into(), Value::Str(label.clone())),
                ("layer".into(), Value::Str(layer.to_string())),
                ("best_host_s".into(), Value::Num(*secs)),
                ("blocks".into(), Value::Bool(*blocks)),
            ])
        })
        .collect();
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            Value::Obj(vec![
                ("name".into(), Value::Str(name.clone())),
                ("value".into(), Value::Num(*value)),
                ("unit".into(), Value::Str(unit.to_string())),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("fingerprint".into(), fingerprint_json(fp)),
        ("workload".into(), Value::Str(args.workload.name.into())),
        ("seed".into(), Value::Num(args.seed as f64)),
        ("trace".into(), Value::Bool(args.trace)),
        ("passes".into(), Value::Num(passes.count as f64)),
        ("blocking_scale".into(), Value::Num(scales.blocking)),
        ("compute_scale".into(), Value::Num(scales.compute)),
        ("metrics".into(), Value::Arr(metrics)),
        ("units".into(), Value::Arr(units)),
    ])
}

fn fingerprint_json(fp: &Fingerprint) -> Value {
    Value::Obj(vec![
        ("nproc".into(), Value::Num(fp.nproc as f64)),
        ("cpu_model".into(), Value::Str(fp.cpu_model.clone())),
        ("kernel".into(), Value::Str(fp.kernel.clone())),
        ("engine_spins".into(), Value::Bool(fp.engine_spins)),
    ])
}

/// `simbench compare A B`: prints B's metrics against A's, and refuses
/// when the two results come from different hosts or workloads.
fn compare(files: &[String]) -> ExitCode {
    let [a, b] = files else {
        eprintln!("simbench: compare takes two result files\n{USAGE}");
        return ExitCode::from(2);
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The documents are compared through their rendering, which is
    // deterministic for equal values.
    let field = |v: &Value, key: &str| v.get(key).map(Value::render).unwrap_or_default();
    for key in ["fingerprint", "workload", "trace"] {
        if field(&a, key) != field(&b, key) {
            eprintln!(
                "simbench: refusing to compare: {key} differs\n  A: {}\n  B: {}",
                field(&a, key).trim(),
                field(&b, key).trim()
            );
            return ExitCode::from(2);
        }
    }
    let metrics = |v: &Value| -> Vec<(String, f64)> {
        v.get("metrics")
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("value")?.as_f64()?,
                ))
            })
            .collect()
    };
    let base = metrics(&a);
    println!("{:<28} {:>16} {:>16} {:>8}", "metric", "A", "B", "B/A");
    for (name, vb) in metrics(&b) {
        let va = base.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        match va {
            Some(va) if va != 0.0 => println!("{name:<28} {va:>16.6} {vb:>16.6} {:>8.4}", vb / va),
            Some(va) => println!("{name:<28} {va:>16.6} {vb:>16.6} {:>8}", "-"),
            None => println!("{name:<28} {:>16} {vb:>16.6} {:>8}", "-", "-"),
        }
    }
    ExitCode::SUCCESS
}
