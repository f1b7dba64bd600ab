//! Profiled experiment runs (`reproduce --profile` and `--audit`).
//!
//! A profile is a trace of the run itself: [`execute_traced`] wraps
//! **every shard of the plan** in its own `tnt-trace` session and keeps
//! each shard's report, so the breakdown describes exactly the samples
//! the tables and figures were computed from, under `--jobs N` like any
//! other run. [`render_profile`] merges the shards of each leg (the
//! shard labels without their run/point suffix) and renders the cycle
//! breakdown: which subsystem the simulated Pentium spent its time in,
//! per OS personality. This is the reproduction's answer to the paper's
//! "why" questions — Table 5's profile shows Linux's TCP loss is
//! delayed-ACK window stall, Figure 1's shows the O(n) run-queue scan,
//! Figure 12's shows FreeBSD's synchronous metadata writes.

use std::sync::{Arc, OnceLock};

use tnt_sim::trace::{session, SessionReport};

use crate::plan::{execute, Cell, ExperimentPlan, ExperimentResult, PlanBody};

/// Event-ring capacity for profiled runs. Attribution is online, so a
/// ring overflow only truncates the raw event dump; drops are counted
/// and called out in the rendered block, never silent.
const PROFILE_RING_CAPACITY: usize = 1 << 20;

/// One traced shard of an executed plan.
#[derive(Clone, Debug)]
pub struct ShardTrace {
    /// Id of the plan the shard belongs to (`"t5"`, `"f9+f10+f11"`).
    pub plan: &'static str,
    /// The shard's label (`"t5/Linux/run3"`; the plan id for a
    /// whole-experiment shard).
    pub label: String,
    /// The trace session the shard ran in, or `None` if it panicked
    /// before the session closed.
    pub report: Option<SessionReport>,
}

impl ShardTrace {
    /// The leg the shard belongs to: its label without the leading
    /// experiment component and the trailing run/point component
    /// (`"t5/Linux/run3"` → `"Linux"`, `"f1/Solaris-LIFO/x=96"` →
    /// `"Solaris-LIFO"`). A label with no middle part (a
    /// whole-experiment shard) is the leg `"all"`.
    pub(crate) fn leg(&self) -> &str {
        let head = self.label.rsplit_once('/').map_or("", |(head, _)| head);
        match head.split_once('/') {
            Some((_, leg)) if !leg.is_empty() => leg,
            _ => "all",
        }
    }
}

type Slot = Arc<OnceLock<SessionReport>>;

fn traced<T>(slot: &Slot, f: impl FnOnce() -> T) -> T {
    let (out, report) = session::run(PROFILE_RING_CAPACITY, f);
    let _ = slot.set(report);
    out
}

/// [`execute`] with every shard run inside its own trace session.
/// Returns the results, identical to `execute`'s, and one
/// [`ShardTrace`] per shard in submission order.
pub fn execute_traced(
    plans: Vec<ExperimentPlan>,
    jobs: usize,
) -> (Vec<ExperimentResult>, Vec<ShardTrace>) {
    let mut slots: Vec<(&'static str, String, Slot)> = Vec::new();
    let mut slot_for = |plan: &'static str, label: &str| {
        let slot = Slot::default();
        slots.push((plan, label.to_string(), slot.clone()));
        slot
    };
    let plans = plans
        .into_iter()
        .map(|plan| {
            let body = match plan.body {
                PlanBody::Cells { cells, render } => PlanBody::Cells {
                    cells: cells
                        .into_iter()
                        .map(|cell| {
                            let slot = slot_for(plan.id, &cell.label);
                            let work = cell.work;
                            Cell {
                                work: Box::new(move || traced(&slot, work)),
                                ..cell
                            }
                        })
                        .collect(),
                    render,
                },
                PlanBody::Whole { cost, run } => {
                    let slot = slot_for(plan.id, plan.id);
                    PlanBody::Whole {
                        cost,
                        run: Box::new(move || traced(&slot, run)),
                    }
                }
            };
            ExperimentPlan { body, ..plan }
        })
        .collect();
    let results = execute(plans, jobs);
    let shards = slots
        .into_iter()
        .map(|(plan, label, slot)| ShardTrace {
            plan,
            label,
            report: Arc::into_inner(slot).and_then(OnceLock::into_inner),
        })
        .collect();
    (results, shards)
}

/// Each leg of `shards` with its merged report, in order of first
/// appearance. Shards without a report (they panicked) are skipped.
pub fn legs<'a>(shards: impl IntoIterator<Item = &'a ShardTrace>) -> Vec<(String, SessionReport)> {
    let mut legs: Vec<(String, SessionReport)> = Vec::new();
    for shard in shards {
        let Some(report) = &shard.report else {
            continue;
        };
        match legs.iter_mut().find(|(leg, _)| leg == shard.leg()) {
            Some((_, merged)) => merged.merge(report),
            None => legs.push((shard.leg().to_string(), report.clone())),
        }
    }
    legs
}

/// The rendered profile of one experiment: a text block to print under
/// the experiment's table/figure plus folded-stack files to write.
#[derive(Clone, Debug)]
pub struct ProfileOutput {
    /// Rendered breakdown tables, one per leg.
    pub text: String,
    /// Folded-stack exports: (file name, contents), flame-graph ready.
    pub files: Vec<(String, String)>,
}

fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Renders the profile of plan `id` from its traced shards: one
/// breakdown table per leg plus `{id}_{leg}.folded` flame-graph exports.
/// A leg that traced nothing (no sim, no counter: Table 1 is static
/// configuration) renders nothing.
pub fn render_profile(id: &str, shards: &[ShardTrace]) -> ProfileOutput {
    let mut text = String::new();
    let mut files = Vec::new();
    for (leg, report) in legs(shards.iter().filter(|s| s.plan == id)) {
        if report.sims == 0 && report.counters.iter().all(|&n| n == 0) {
            continue;
        }
        text.push_str(&report.render(&leg));
        let folded = report.folded_text();
        if !folded.is_empty() {
            files.push((format!("{id}_{}.folded", slug(&leg)), folded));
        }
    }
    ProfileOutput { text, files }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use crate::scale::Scale;
    use tnt_sim::trace::{Class, Counter};

    fn one_run() -> Scale {
        Scale {
            runs: 1,
            ..Scale::smoke()
        }
    }

    fn shard(label: &str) -> ShardTrace {
        ShardTrace {
            plan: "t5",
            label: label.into(),
            report: None,
        }
    }

    #[test]
    fn legs_drop_the_experiment_and_run_components() {
        assert_eq!(shard("t5/Linux/run3").leg(), "Linux");
        assert_eq!(shard("f1/Solaris-LIFO/x=96").leg(), "Solaris-LIFO");
        assert_eq!(shard("bonnie/FreeBSD/4MB").leg(), "FreeBSD");
        assert_eq!(shard("x8").leg(), "all");
        assert_eq!(shard("boom/ok").leg(), "all");
    }

    #[test]
    fn t2_profile_attributes_trap_time() {
        let (results, shards) = execute_traced(plan(&["t2"], &one_run()), 1);
        assert!(results[0].error.is_none());
        assert_eq!(shards.len(), 3, "one shard per OS at one run");
        for s in &shards {
            let r = s.report.as_ref().expect("shard traced");
            assert!(r.sims > 0, "{}: no sims published", s.label);
            assert!(
                r.class_total(Class::TrapEntry) > 0,
                "{}: getpid must spend cycles in trap entry",
                s.label
            );
            assert!(r.counter(Counter::Syscalls) > 0);
            assert!(
                r.coverage() > 0.9,
                "{}: coverage {:.3}",
                s.label,
                r.coverage()
            );
        }
    }

    #[test]
    fn mem_profile_is_counters_only() {
        let (_, shards) = execute_traced(plan(&["f2"], &one_run()), 1);
        let legs = legs(&shards);
        assert_eq!(legs.len(), 1, "one curve, one leg");
        let r = &legs[0].1;
        assert_eq!(r.sims, 0, "bandwidth loops boot no sim");
        assert!(r.counter(Counter::L1Misses) > 0);
        assert!(r.counter(Counter::MemStallCycles) > 0);
    }

    #[test]
    fn render_profile_prints_legs_and_exports() {
        let (_, shards) = execute_traced(plan(&["t4"], &one_run()), 1);
        let out = render_profile("t4", &shards);
        assert!(out.text.contains("profile: Linux"), "{}", out.text);
        assert!(out.text.contains("data copy"), "{}", out.text);
        assert_eq!(out.files.len(), 3, "one folded file per OS leg");
        assert!(out.files.iter().any(|(name, _)| name == "t4_linux.folded"));
        assert!(render_profile("t2", &shards).text.is_empty());
    }

    #[test]
    fn x8_profile_surfaces_the_fault_counters() {
        // x8 is one whole-experiment shard: its profile is the whole
        // drop-rate sweep, lossy points included.
        let (_, shards) = execute_traced(plan(&["x8"], &one_run()), 1);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].leg(), "all");
        let r = shards[0].report.as_ref().expect("x8 traced");
        assert!(
            r.counter(Counter::RpcRetransmits) > 0,
            "the lossy points must force retransmissions"
        );
        let out = render_profile("x8", &shards);
        assert!(out.text.contains("profile: all"), "{}", out.text);
        assert!(out.text.contains("rpc retransmits="), "{}", out.text);
    }

    #[test]
    fn unknown_or_static_ids_yield_no_profile() {
        let (_, shards) = execute_traced(plan(&["t1"], &one_run()), 1);
        assert_eq!(shards.len(), 1, "t1 is one traced shard");
        assert!(render_profile("t1", &shards).text.is_empty());
        assert!(render_profile("zzz", &shards).files.is_empty());
    }
}
