//! End-to-end lint-engine tests over the fixture files in
//! `tests/fixtures/`. Each fixture exercises one rule three ways:
//! a positive hit, an `audit:allow` suppression, and string/comment
//! immunity. The fixtures are scanned with fake workspace-relative
//! paths chosen to put them in each rule's scope; the real scanner
//! skips `/fixtures/` directories, so these files never pollute the
//! workspace lint.

use tnt_audit::scan_source;
use tnt_audit::Finding;

fn scan(fake_path: &str, fixture: &str) -> (Vec<Finding>, Vec<(usize, String)>) {
    scan_source(fake_path, fixture)
}

fn rule_findings<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn hashmap_iter_fixture() {
    let (findings, stale) = scan(
        "crates/fs/src/fixture.rs",
        include_str!("fixtures/hashmap_iter.rs"),
    );
    let hits = rule_findings(&findings, "hashmap-iter");
    assert_eq!(hits.len(), 2, "one bare + one allowed: {hits:#?}");
    assert_eq!(hits[0].line, 4);
    assert!(hits[0].allowed.is_none(), "line 4 is a violation");
    assert_eq!(hits[1].line, 7);
    assert_eq!(
        hits[1].allowed.as_deref(),
        Some("keyed lookup only, never iterated")
    );
    assert!(stale.is_empty(), "both annotations suppress something");
}

#[test]
fn wallclock_fixture() {
    let (findings, stale) = scan(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/wallclock.rs"),
    );
    let hits = rule_findings(&findings, "wallclock");
    assert_eq!(hits.len(), 2, "{hits:#?}");
    assert_eq!(hits[0].line, 4, "Instant::now violation");
    assert!(hits[0].allowed.is_none());
    assert_eq!(hits[1].line, 10, "SystemTime::now allowed");
    assert!(hits[1].allowed.is_some());
    assert!(stale.is_empty());
}

#[test]
fn wallclock_is_exempt_in_runner_pool() {
    let (findings, _) = scan(
        "crates/runner/src/pool.rs",
        include_str!("fixtures/wallclock.rs"),
    );
    assert!(
        rule_findings(&findings, "wallclock").is_empty(),
        "runner::pool is the one module allowed to read the host clock"
    );
}

#[test]
fn float_eq_fixture() {
    let (findings, stale) = scan(
        "crates/harness/src/fixture.rs",
        include_str!("fixtures/float_eq.rs"),
    );
    let hits = rule_findings(&findings, "float-eq");
    assert_eq!(hits.len(), 2, "{hits:#?}");
    assert_eq!(hits[0].line, 4);
    assert!(hits[0].allowed.is_none());
    assert_eq!(hits[1].line, 9);
    assert!(hits[1].allowed.is_some());
    assert!(stale.is_empty());
}

#[test]
fn float_eq_is_out_of_scope_in_simulator_code() {
    let (findings, _) = scan(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/float_eq.rs"),
    );
    assert!(rule_findings(&findings, "float-eq").is_empty());
}

#[test]
fn unwrap_fixture() {
    let (findings, stale) = scan(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/unwrap.rs"),
    );
    let hits = rule_findings(&findings, "unwrap");
    assert_eq!(hits.len(), 3, "{hits:#?}");
    assert_eq!((hits[0].line, hits[0].allowed.is_none()), (4, true));
    assert_eq!(hits[1].line, 9);
    assert_eq!(
        hits[1].allowed.as_deref(),
        Some("invariant: caller checked is_ok above")
    );
    assert_eq!(
        (hits[2].line, hits[2].allowed.is_none()),
        (13, true),
        "a reason-less audit:allow does not suppress"
    );
    assert!(stale.is_empty());
}

#[test]
fn must_use_fixture() {
    let (findings, stale) = scan(
        "crates/cpu/src/fixture.rs",
        include_str!("fixtures/must_use.rs"),
    );
    let hits = rule_findings(&findings, "must-use-cycles");
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![3, 13, 21], "{hits:#?}");
    assert!(hits[0].allowed.is_none(), "bare pub fn -> Cycles");
    assert!(hits[1].allowed.is_some(), "allow on the line above");
    assert!(
        hits[2].allowed.is_none(),
        "multi-line signature reported at its first line"
    );
    assert!(stale.is_empty());
}

#[test]
fn host_thread_spawn_fixture() {
    let (findings, stale) = scan(
        "crates/os/src/fixture.rs",
        include_str!("fixtures/host_thread_spawn.rs"),
    );
    let hits = rule_findings(&findings, "host-thread-spawn");
    assert_eq!(hits.len(), 2, "{hits:#?}");
    assert_eq!(hits[0].line, 4, "thread::spawn violation");
    assert!(hits[0].allowed.is_none());
    assert_eq!(hits[1].line, 10, "thread::Builder allowed");
    assert_eq!(
        hits[1].allowed.as_deref(),
        Some("watchdog thread, joined before any sim starts")
    );
    assert!(stale.is_empty());
}

#[test]
fn host_thread_spawn_is_exempt_in_engine_and_pool() {
    for path in ["crates/sim/src/engine.rs", "crates/runner/src/pool.rs"] {
        let (findings, _) = scan(path, include_str!("fixtures/host_thread_spawn.rs"));
        assert!(
            rule_findings(&findings, "host-thread-spawn").is_empty(),
            "{path} hosts real threads by design"
        );
    }
}

#[test]
fn global_state_fixture() {
    let (findings, stale) = scan(
        "crates/harness/src/fixture.rs",
        include_str!("fixtures/global_state.rs"),
    );
    let hits = rule_findings(&findings, "global-state");
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![5, 8, 10],
        "test-module static exempt: {hits:#?}"
    );
    assert!(hits[0].allowed.is_none(), "bare static atomic");
    assert_eq!(
        hits[1].allowed.as_deref(),
        Some("set once at start-up, read-only after")
    );
    assert!(hits[2].allowed.is_none(), "bare static mutex");
    assert!(stale.is_empty());
}

#[test]
fn fixtures_have_no_cross_rule_noise() {
    // Each fixture should only ever trip its own rule: strings and
    // comments carrying other rules' trigger text must stay inert.
    for (path, src, own) in [
        (
            "crates/sim/src/a.rs",
            include_str!("fixtures/wallclock.rs"),
            "wallclock",
        ),
        (
            "crates/sim/src/b.rs",
            include_str!("fixtures/unwrap.rs"),
            "unwrap",
        ),
        (
            "crates/harness/src/c.rs",
            include_str!("fixtures/float_eq.rs"),
            "float-eq",
        ),
        (
            "crates/harness/src/d.rs",
            include_str!("fixtures/global_state.rs"),
            "global-state",
        ),
    ] {
        let (findings, _) = scan(path, src);
        for f in &findings {
            assert_eq!(f.rule, own, "unexpected {} hit in {path}: {f:#?}", f.rule);
        }
    }
}

#[test]
fn nondet_taint_fixture() {
    let (findings, stale) = scan(
        "crates/runner/src/fixture.rs",
        include_str!("fixtures/nondet_taint.rs"),
    );
    let hits = rule_findings(&findings, "nondet-taint");
    assert_eq!(hits.len(), 2, "{hits:#?}");
    assert_eq!(hits[0].line, 10, "reachable clock read is a violation");
    assert!(hits[0].allowed.is_none());
    assert!(
        hits[0].message.contains("emit_stats -> sample_latency"),
        "message carries the call chain: {}",
        hits[0].message
    );
    assert_eq!(hits[1].line, 16, "allowed hit");
    assert!(hits[1].allowed.is_some());
    assert!(
        !hits.iter().any(|h| h.line == 23),
        "bench_only is unreachable from the sink"
    );
    assert!(stale.is_empty());
}

#[test]
fn stale_allow_is_reported_with_its_slug() {
    let src = "// audit:allow(hashmap-iter) nothing below uses one\nfn empty() {}\n";
    let (findings, stale) = scan("crates/fs/src/x.rs", src);
    assert!(findings.is_empty());
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0], (1, "hashmap-iter".to_string()));
}
