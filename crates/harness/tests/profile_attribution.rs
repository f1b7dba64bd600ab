//! The payoff tests for `--profile`: the cycle breakdowns of the traced
//! run must *explain* the paper's headline results, not just decorate
//! them.
//!
//! - Table 5: Linux's 0.38x TCP bandwidth is delayed-ack/window stall,
//!   not protocol CPU.
//! - Figure 1: Linux's context-switch curve grows because its O(n)
//!   run-queue scan grows with the number of processes.
//! - Figure 12: FreeBSD's create/delete cost is synchronous metadata
//!   writes pinning the benchmark to the disk.
//! - And across personalities, the attribution accounts for (nearly) all
//!   elapsed cycles — the instrumentation has no blind spots.

use tnt_harness::{execute_traced, legs, plan, Scale, ShardTrace};
use tnt_sim::trace::{Class, Counter, SessionReport};

/// Traces every shard of experiment `id` at `scale`.
fn traced(id: &str, scale: &Scale) -> Vec<ShardTrace> {
    let (results, shards) = execute_traced(plan(&[id], scale), 2);
    assert!(results[0].error.is_none(), "{id}: {:?}", results[0].error);
    shards
}

fn leg(shards: &[ShardTrace], name: &str) -> SessionReport {
    let legs = legs(shards);
    let names: Vec<&str> = legs.iter().map(|(l, _)| l.as_str()).collect();
    legs.iter()
        .find(|(l, _)| l == name)
        .unwrap_or_else(|| panic!("no leg {name:?} in {names:?}"))
        .1
        .clone()
}

fn shard<'a>(shards: &'a [ShardTrace], label: &str) -> &'a SessionReport {
    shards
        .iter()
        .find(|s| s.label == label)
        .and_then(|s| s.report.as_ref())
        .unwrap_or_else(|| {
            let labels: Vec<&str> = shards.iter().map(|s| s.label.as_str()).collect();
            panic!("no traced shard {label:?} in {labels:?}")
        })
}

fn share(r: &SessionReport, class: Class) -> f64 {
    r.class_total(class) as f64 / r.elapsed.max(1) as f64
}

#[test]
fn t5_linux_loses_to_delayed_ack_wait() {
    let shards = traced("t5", &Scale::quick());
    let linux = leg(&shards, "Linux");
    let (top_class, _) = linux.by_class()[0];
    assert_eq!(
        top_class,
        Class::AckWindowWait,
        "Linux TCP's largest cost class must be the delayed-ack/window \
         stall:\n{}",
        linux.render("Linux")
    );
    assert!(
        linux.counter(Counter::DelayedAcks) > 0,
        "every Linux segment waits out a delayed ack"
    );
    // FreeBSD streams against a real window: no ack stall at all, and
    // protocol CPU on top.
    let freebsd = leg(&shards, "FreeBSD");
    assert_eq!(freebsd.class_total(Class::AckWindowWait), 0);
    assert_eq!(freebsd.by_class()[0].0, Class::ProtoCpu);
    assert_eq!(freebsd.counter(Counter::DelayedAcks), 0);
}

#[test]
fn f1_linux_sched_scan_grows_with_nprocs() {
    let quick = Scale::quick();
    let lo = *quick.ctx_procs.first().unwrap();
    let hi = *quick.ctx_procs.last().unwrap();
    let scale = Scale {
        ctx_procs: vec![lo, hi],
        runs: 1,
        ..quick
    };
    let shards = traced("f1", &scale);
    let small = shard(&shards, &format!("f1/Linux/x={lo}"));
    let big = shard(&shards, &format!("f1/Linux/x={hi}"));
    // The O(n) scan shows up as per-switch scheduler cost growing with
    // the number of runnable processes...
    let per_switch = |r: &SessionReport| {
        r.class_total(Class::SchedScan) as f64 / r.counter(Counter::Dispatches).max(1) as f64
    };
    assert!(
        per_switch(big) > 3.0 * per_switch(small),
        "Linux's run-queue scan must cost much more per switch at n={hi} \
         ({:.0}cy) than at n={lo} ({:.0}cy)",
        per_switch(big),
        per_switch(small)
    );
    // ...and as a growing share of total time, which is Figure 1's slope.
    assert!(
        share(big, Class::SchedScan) > share(small, Class::SchedScan),
        "scan share must grow with nprocs"
    );
}

#[test]
fn f12_freebsd_pays_synchronous_metadata_writes() {
    let scale = Scale::quick();
    let shards = traced("f12", &scale);
    let size = scale.crtdel_sizes[0];
    let freebsd = shard(&shards, &format!("f12/FreeBSD/x={size}"));
    let linux = shard(&shards, &format!("f12/Linux/x={size}"));
    // A figure shard covers every run at its point.
    let iters = scale.crtdel_iters as u64 * scale.runs;
    let fb_sync = freebsd.counter(Counter::SyncMetaWrites);
    assert!(
        fb_sync >= 4 * iters,
        "FFS pays at least four synchronous metadata writes per \
         create/delete: {fb_sync} over {iters} iterations"
    );
    assert!(
        fb_sync > linux.counter(Counter::SyncMetaWrites),
        "Linux's asynchronous metadata policy writes less synchronously"
    );
    let disk = |r: &SessionReport| {
        share(r, Class::DiskSeek) + share(r, Class::DiskRotation) + share(r, Class::DiskMedia)
    };
    assert!(
        disk(freebsd) > disk(linux),
        "the sync writes pin FreeBSD to the platter: {:.1}% vs {:.1}%",
        100.0 * disk(freebsd),
        100.0 * disk(linux)
    );
}

#[test]
fn attribution_covers_at_least_ninety_percent_everywhere() {
    let scale = Scale::quick();
    for id in ["t5", "f12", "t2"] {
        for s in traced(id, &scale) {
            let r = s.report.as_ref().expect("every shard traced");
            assert!(
                r.coverage() >= 0.90,
                "{}: only {:.1}% of elapsed cycles attributed:\n{}",
                s.label,
                100.0 * r.coverage(),
                r.render(&s.label)
            );
        }
    }
}
