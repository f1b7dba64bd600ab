//! Workloads, their units of work, and one timed pass over the units
//! with the checks every pass must meet.
//!
//! A unit is one `Cell::work` closure or one `PlanBody::Whole::run`
//! closure of a planned experiment. A pass runs every unit once, on
//! this thread, timing each from outside: the first pass in plan order,
//! as a user's run does, and every later one in an order drawn from the
//! workload seed. It then hands the stored results back to
//! `tnt_harness::execute(.., 1)` to render, and compares the rendered
//! records with the blessed ones at tolerance 0.

use std::collections::BTreeSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tnt_harness::{execute, plan, Cell, ExperimentOutput, ExperimentPlan, PlanBody, Scale};
use tnt_runner::{BaselineStore, Drift};
use tnt_sim::trace::{session, Counter, SessionReport};

use crate::host::Usage;

/// The blessed quick-scale records every pass is checked against.
pub const BASELINES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/baselines.json");

/// Trace ring capacity of a traced unit: the tracer's default, 64 Ki
/// events. Counters and attribution stay exact when the ring drops.
const TRACE_RING: usize = 1 << 16;

/// A named set of experiments whose plan cells are the units.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Experiment ids, in suite order.
    pub ids: &'static [&'static str],
}

/// The benchmark's workloads. Why each exists is in the README.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ctx",
        ids: &["f1", "t4", "x3"],
    },
    Workload {
        name: "mem",
        ids: &["f2", "f3", "f4", "f5", "f6", "f7", "f8"],
    },
    Workload {
        name: "io",
        ids: &[
            "f9", "f10", "f11", "f12", "t3", "f13", "t5", "t6", "t7", "x9", "x10",
        ],
    },
];

/// The layers (crates) host time is booked to, in report order.
pub const LAYERS: [&str; 6] = ["os", "cpu", "fs", "net", "nfs", "farm"];

/// The layer whose model an experiment exercises: the crate its host
/// time is booked to. Spans inside the program would split it finer.
pub fn layer_of(plan_id: &str) -> &'static str {
    match plan_id {
        "f1" | "t4" | "x3" => "os",
        "f2" | "f3" | "f4" | "f5" | "f6" | "f7" | "f8" => "cpu",
        "f9+f10+f11" | "f12" | "t3" => "fs",
        "f13" | "t5" => "net",
        "t6" | "t7" => "nfs",
        "x9" | "x10" => "farm",
        _ => "other",
    }
}

/// The closure of a unit, taken out of its plan.
pub enum Work {
    /// A `Cell::work`: raw samples.
    Cell(Box<dyn FnOnce() -> Vec<f64> + Send>),
    /// A `PlanBody::Whole::run`: rendered outputs.
    Whole(Box<dyn FnOnce() -> Vec<ExperimentOutput> + Send>),
}

/// What a unit returned.
enum Output {
    Samples(Vec<f64>),
    Outputs(Vec<ExperimentOutput>),
    Panicked(String),
}

impl Output {
    /// A string that is equal for two outputs exactly when they are
    /// bit-identical.
    fn signature(&self) -> String {
        match self {
            Output::Samples(v) => v.iter().map(|x| format!("{:016x} ", x.to_bits())).collect(),
            Output::Outputs(outs) => outs
                .iter()
                .map(|o| {
                    let stats = o.record.as_ref().map(|r| &r.stats);
                    format!("{}{:?}{:?}", o.text, o.csv, stats)
                })
                .collect(),
            Output::Panicked(msg) => format!("panicked: {msg}"),
        }
    }

    fn into_samples(self) -> Vec<f64> {
        match self {
            Output::Samples(v) => v,
            Output::Panicked(msg) => panic!("{msg}"),
            Output::Outputs(_) => unreachable!("a cell returns samples"),
        }
    }

    fn into_outputs(self) -> Vec<ExperimentOutput> {
        match self {
            Output::Outputs(o) => o,
            Output::Panicked(msg) => panic!("{msg}"),
            Output::Samples(_) => unreachable!("a whole plan returns outputs"),
        }
    }
}

/// One unit of work.
pub struct Unit {
    /// Cell label, or the plan id of a whole plan.
    pub label: String,
    /// Layer its host time is booked to.
    pub layer: &'static str,
    /// The closure.
    pub work: Work,
}

type Render = Box<dyn FnOnce(Vec<Vec<f64>>) -> Vec<ExperimentOutput> + Send>;

/// A planned experiment with its units taken out.
struct Shell {
    id: &'static str,
    title: &'static str,
    /// `None` for a whole plan.
    render: Option<Render>,
    units: Range<usize>,
}

/// Everything a pass needs, made by [`set_up`].
pub struct Setup {
    /// The units, in plan order.
    pub units: Vec<Unit>,
    shells: Vec<Shell>,
    /// The order to run the units in.
    order: Vec<usize>,
    /// The blessed records of this workload's experiments.
    blessed: BaselineStore,
}

/// The planned units of a pass, before the blessed records are read.
pub struct Planned {
    units: Vec<Unit>,
    shells: Vec<Shell>,
    order: Vec<usize>,
}

/// The set-up step: plans the units and reads the blessed records.
pub fn set_up(w: &Workload, seed: u64, pass: u64) -> Result<Setup, String> {
    let Planned {
        units,
        shells,
        order,
    } = plan_units(w, seed, pass);
    Ok(Setup {
        units,
        shells,
        order,
        blessed: read_blessed(w)?,
    })
}

/// Plans the workload at `Scale::quick()`, takes the units out of the
/// plans, and orders them. Pass 0 keeps the plan order, which is the
/// order `execute(.., 1)` runs a user's plan in; every later pass draws
/// its order from the seed.
pub fn plan_units(w: &Workload, seed: u64, pass: u64) -> Planned {
    let mut units = Vec::new();
    let mut shells = Vec::new();
    for p in plan(w.ids, &Scale::quick()) {
        let layer = layer_of(p.id);
        let start = units.len();
        let render = match p.body {
            PlanBody::Cells { cells, render } => {
                units.extend(cells.into_iter().map(|c| Unit {
                    label: c.label,
                    layer,
                    work: Work::Cell(c.work),
                }));
                Some(render)
            }
            PlanBody::Whole { run, .. } => {
                units.push(Unit {
                    label: p.id.to_string(),
                    layer,
                    work: Work::Whole(run),
                });
                None
            }
        };
        shells.push(Shell {
            id: p.id,
            title: p.title,
            render,
            units: start..units.len(),
        });
    }
    let order = if pass == 0 {
        (0..units.len()).collect()
    } else {
        shuffled(units.len(), seed, pass)
    };
    Planned {
        units,
        shells,
        order,
    }
}

/// Reads and parses `results/baselines.json` and keeps the blessed
/// records of the workload's experiments.
pub fn read_blessed(w: &Workload) -> Result<BaselineStore, String> {
    let text =
        std::fs::read_to_string(BASELINES).map_err(|e| format!("cannot read {BASELINES}: {e}"))?;
    let mut blessed =
        BaselineStore::from_json(&text).map_err(|e| format!("{BASELINES} is corrupt: {e}"))?;
    blessed.records.retain(|r| w.ids.contains(&r.id.as_str()));
    Ok(blessed)
}

/// A permutation of `0..n` drawn from `(seed, pass)` (Fisher–Yates over
/// splitmix64).
fn shuffled(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut state = seed ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Exact work counts of one traced unit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Simulations booted.
    pub sims: u64,
    /// Simulated cycles, summed over simulations.
    pub elapsed: u64,
    /// Trace-ring events dropped.
    pub drops: u64,
    /// Counter totals, indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
}

impl Counts {
    fn of(r: &SessionReport) -> Counts {
        Counts {
            sims: r.sims,
            elapsed: r.elapsed,
            drops: r.dropped,
            counters: r.counters,
        }
    }

    /// Counter total for `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.sims += other.sims;
        self.elapsed += other.elapsed;
        self.drops += other.drops;
        for (a, b) in self.counters.iter_mut().zip(other.counters) {
            *a += b;
        }
    }
}

/// The outcome of one pass. Vectors are indexed by unit, in plan order.
pub struct Pass {
    /// Unit labels.
    pub labels: Vec<String>,
    /// Unit layers.
    pub layers: Vec<&'static str>,
    /// Host seconds of each unit.
    pub secs: Vec<f64>,
    /// Bit-exact signature of each unit's output.
    pub signatures: Vec<String>,
    /// Units that failed in this pass.
    pub failed: Vec<bool>,
    /// Exact counts of each unit; empty for an untraced pass.
    pub counts: Vec<Counts>,
    /// Host seconds of `execute` rendering the stored unit results.
    pub render_s: f64,
    /// Host seconds of `BaselineStore::compare`.
    pub check_s: f64,
    /// Process resource usage while the units ran: the sum over the
    /// units' timed windows, so nothing of the benchmark's own counts.
    pub usage: Usage,
    /// Voluntary context switches of each unit.
    pub vol_csw: Vec<u64>,
}

/// What a run keeps of its passes: the first pass whole, as the
/// reference every later pass is checked against, and of the others
/// only what the metrics need. A pass is folded in and dropped, so the
/// memory a run holds does not grow with its pass count.
pub struct Passes {
    /// The first pass.
    pub first: Pass,
    /// Passes folded in, the first included.
    pub count: usize,
    /// Each unit's best host seconds.
    pub best: Vec<f64>,
    /// Best host seconds of the render step.
    pub render_s: f64,
    /// Best host seconds of the check step.
    pub check_s: f64,
    /// The least of each usage field.
    pub usage: Usage,
    /// Units that blocked, making voluntary context switches, in every
    /// pass. A unit that never blocks is pure computation.
    pub blocks: Vec<bool>,
    /// Units run, over all passes.
    pub attempted: usize,
    /// Units failed, over all passes.
    pub failed: usize,
}

impl Passes {
    /// Starts from `first`, which has been checked already.
    pub fn new(first: Pass) -> Passes {
        Passes {
            count: 1,
            best: first.secs.clone(),
            render_s: first.render_s,
            check_s: first.check_s,
            usage: first.usage,
            blocks: first.vol_csw.iter().map(|&n| n > 0).collect(),
            attempted: first.failed.len(),
            failed: failures(&first),
            first,
        }
    }

    /// Checks `pass` against the first pass, folds it in, and returns
    /// how many of its units failed.
    pub fn fold(&mut self, mut pass: Pass) -> usize {
        check_against(&mut pass, &self.first);
        for (best, secs) in self.best.iter_mut().zip(&pass.secs) {
            *best = best.min(*secs);
        }
        self.render_s = self.render_s.min(pass.render_s);
        self.check_s = self.check_s.min(pass.check_s);
        self.usage = self.usage.least(&pass.usage);
        for (blocks, &n) in self.blocks.iter_mut().zip(&pass.vol_csw) {
            *blocks &= n > 0;
        }
        let failed = failures(&pass);
        self.count += 1;
        self.attempted += pass.failed.len();
        self.failed += failed;
        failed
    }
}

/// Units of `pass` that failed.
pub fn failures(pass: &Pass) -> usize {
    pass.failed.iter().filter(|&&f| f).count()
}

fn run_work(work: Work) -> Output {
    let out = catch_unwind(AssertUnwindSafe(move || match work {
        Work::Cell(f) => Output::Samples(f()),
        Work::Whole(f) => Output::Outputs(f()),
    }));
    out.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "opaque panic payload".into());
        Output::Panicked(msg)
    })
}

/// Runs one pass: every unit once in the set-up's order, then render
/// and check. With `traced`, each unit runs inside its own trace
/// session and its exact counts are kept. `between` runs before each
/// unit and before the render step, outside their timed and `getrusage`
/// windows; the benchmark's own measurements go there.
pub fn run_pass(setup: Setup, traced: bool, between: &mut dyn FnMut()) -> Pass {
    let Setup {
        units,
        shells,
        order,
        blessed,
    } = setup;
    let n = units.len();
    let mut labels = Vec::with_capacity(n);
    let mut layers = Vec::with_capacity(n);
    let mut works = Vec::with_capacity(n);
    for u in units {
        labels.push(u.label);
        layers.push(u.layer);
        works.push(Some(u.work));
    }
    let mut outputs: Vec<Option<Output>> = (0..n).map(|_| None).collect();
    let mut secs = vec![0.0; n];
    let mut counts = vec![Counts::default(); if traced { n } else { 0 }];

    let mut usage = Usage::default();
    let mut vol_csw = vec![0; n];
    for &i in &order {
        let work = works[i].take().expect("the order is a permutation");
        between();
        let before = Usage::now();
        let t0 = Instant::now();
        let out = if traced {
            let (out, report) = session::run(TRACE_RING, || run_work(work));
            counts[i] = Counts::of(&report);
            out
        } else {
            run_work(work)
        };
        secs[i] = t0.elapsed().as_secs_f64();
        let used = Usage::now().since(&before);
        vol_csw[i] = used.vol_csw;
        usage.add(&used);
        outputs[i] = Some(out);
    }

    let outputs: Vec<Output> = outputs
        .into_iter()
        .map(|o| o.expect("every unit ran"))
        .collect();
    let signatures: Vec<String> = outputs.iter().map(Output::signature).collect();
    let mut failed: Vec<bool> = outputs
        .iter()
        .map(|o| matches!(o, Output::Panicked(_)))
        .collect();

    // Hand the stored results back to the harness to render.
    let spans: Vec<(&'static str, Range<usize>)> =
        shells.iter().map(|s| (s.id, s.units.clone())).collect();
    let mut outputs = outputs.into_iter().zip(labels.iter().cloned());
    let plans: Vec<ExperimentPlan> = shells
        .into_iter()
        .map(|shell| {
            let mut taken = outputs.by_ref().take(shell.units.len());
            let body = match shell.render {
                Some(render) => PlanBody::Cells {
                    cells: taken
                        .map(|(out, label)| Cell {
                            label,
                            cost: 1,
                            work: Box::new(move || out.into_samples()),
                        })
                        .collect(),
                    render,
                },
                None => {
                    let (out, _) = taken.next().expect("a whole plan is one unit");
                    PlanBody::Whole {
                        cost: 1,
                        run: Box::new(move || out.into_outputs()),
                    }
                }
            };
            ExperimentPlan {
                id: shell.id,
                title: shell.title,
                body,
            }
        })
        .collect();
    between();
    let t0 = Instant::now();
    let results = execute(plans, 1);
    let render_s = t0.elapsed().as_secs_f64();

    let fresh = BaselineStore {
        scale: Scale::quick().label.to_string(),
        records: results
            .iter()
            .flat_map(|r| r.outputs.iter().filter_map(|o| o.record.clone()))
            .collect(),
    };
    let t0 = Instant::now();
    let drifts = blessed.compare(&fresh, 0.0);
    let check_s = t0.elapsed().as_secs_f64();

    // A drifted or failed experiment fails every unit it was made from.
    let mut drifted = BTreeSet::new();
    let mut all_drifted = false;
    for d in &drifts {
        eprintln!("simbench: drift: {d}");
        match d {
            Drift::ScaleMismatch { .. } => all_drifted = true,
            Drift::MissingExperiment(id) | Drift::UnexpectedExperiment(id) => {
                drifted.insert(id.clone());
            }
            Drift::MissingStat { id, .. }
            | Drift::UnexpectedStat { id, .. }
            | Drift::StatDrift { id, .. } => {
                drifted.insert(id.clone());
            }
        }
    }
    for (result, (id, span)) in results.iter().zip(spans) {
        if let Some(err) = &result.error {
            eprintln!("simbench: {id} failed: {err}");
        }
        let bad = all_drifted
            || result.error.is_some()
            || id.split('+').any(|record| drifted.contains(record));
        if bad {
            failed[span].iter_mut().for_each(|f| *f = true);
        }
    }

    Pass {
        labels,
        layers,
        secs,
        signatures,
        failed,
        counts,
        render_s,
        check_s,
        usage,
        vol_csw,
    }
}

/// Fails every unit of `pass` whose output is not bit-identical to the
/// reference pass's, or, when both passes were traced, whose exact
/// counts differ.
pub fn check_against(pass: &mut Pass, reference: &Pass) {
    let traced = !pass.counts.is_empty() && !reference.counts.is_empty();
    for i in 0..pass.failed.len() {
        if pass.signatures[i] != reference.signatures[i] {
            eprintln!(
                "simbench: {}: output differs between passes",
                pass.labels[i]
            );
            pass.failed[i] = true;
        }
        if traced && pass.counts[i] != reference.counts[i] {
            eprintln!(
                "simbench: {}: traced counts differ between passes",
                pass.labels[i]
            );
            pass.failed[i] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    use super::*;

    const F2: Workload = Workload {
        name: "f2",
        ids: &["f2"],
    };

    /// A trace session counts the memory-model work of every thread, so
    /// tests that run passes take turns, as a benchmark run does.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tamper(setup: &mut Setup, unit: usize, drift: impl Fn(f64) -> f64 + Send + 'static) {
        let Work::Cell(f) =
            std::mem::replace(&mut setup.units[unit].work, Work::Cell(Box::new(Vec::new)))
        else {
            panic!("f2 units are cells");
        };
        setup.units[unit].work = Work::Cell(Box::new(move || {
            let mut v = f();
            v[0] = drift(v[0]);
            v
        }));
    }

    #[test]
    fn shuffled_is_a_seeded_permutation() {
        let a = shuffled(100, 7, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_eq!(a, shuffled(100, 7, 0));
        assert_ne!(a, shuffled(100, 7, 1));
        assert_ne!(a, shuffled(100, 8, 0));
    }

    #[test]
    fn clean_passes_fail_nothing_and_keep_each_units_best() {
        let _serial = serial();
        let mut passes = Passes::new(run_pass(set_up(&F2, 1, 0).unwrap(), false, &mut || {}));
        let second = run_pass(set_up(&F2, 1, 1).unwrap(), false, &mut || {});
        let secs = second.secs.clone();
        assert_eq!(passes.fold(second), 0);
        assert_eq!((passes.count, passes.failed), (2, 0));
        assert_eq!(passes.attempted, 2 * secs.len());
        for (i, s) in secs.iter().enumerate() {
            assert_eq!(passes.best[i], passes.first.secs[i].min(*s));
        }
    }

    #[test]
    fn a_planted_drift_against_the_blessed_record_is_counted() {
        let _serial = serial();
        let mut setup = set_up(&F2, 1, 0).unwrap();
        tamper(&mut setup, 3, |x| x * 1.01);
        let pass = run_pass(setup, false, &mut || {});
        let units = pass.failed.len();
        assert_eq!(failures(&pass), units, "the whole drifted experiment fails");
    }

    #[test]
    fn a_one_ulp_drift_between_passes_is_counted() {
        let _serial = serial();
        let mut passes = Passes::new(run_pass(set_up(&F2, 1, 0).unwrap(), false, &mut || {}));
        let mut setup = set_up(&F2, 1, 1).unwrap();
        tamper(&mut setup, 3, |x| f64::from_bits(x.to_bits() + 1));
        let second = run_pass(setup, false, &mut || {});
        assert_eq!(passes.fold(second), 1, "only the drifted unit fails");
        assert_eq!(passes.failed, 1);
    }

    #[test]
    fn a_panicking_unit_is_counted() {
        let _serial = serial();
        let mut setup = set_up(&F2, 1, 0).unwrap();
        setup.units[0].work = Work::Cell(Box::new(|| panic!("planted")));
        let pass = run_pass(setup, false, &mut || {});
        assert!(pass.failed[0]);
        assert_eq!(pass.signatures[0], "panicked: planted");
    }

    #[test]
    fn traced_passes_repeat_their_counts() {
        let _serial = serial();
        let first = run_pass(set_up(&F2, 1, 0).unwrap(), true, &mut || {});
        let mut second = run_pass(set_up(&F2, 1, 1).unwrap(), true, &mut || {});
        check_against(&mut second, &first);
        assert_eq!(failures(&second), 0);
        let l1: u64 = first.counts.iter().map(|c| c.get(Counter::L1Misses)).sum();
        assert!(l1 > 0, "a traced memory unit counts its L1 misses");
    }
}
