//! Cross-simulation profiling sessions.
//!
//! Every benchmark entry point in `tnt-core` boots its own short-lived
//! `Sim`, so profiling an *experiment* means aggregating over many
//! tracers. A session is a collector installed on the calling thread
//! for the duration of [`run`]: every `Sim` booted on that thread while
//! it is installed enables its tracer, keeps a handle to the collector
//! and publishes its attribution into it when `Sim::run` finishes.
//! Components without a `Sim` (the raw memory-system model) contribute
//! through [`add_counter`].
//!
//! The collector is per thread, so sessions on different threads never
//! see each other's sims, and a nested [`run`] collects only its own.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::class::{Class, Counter};
use crate::tracer::Tracer;

/// Aggregated attribution across every `Sim` that ran during a session.
#[derive(Clone, Debug, Default)]
pub struct SessionReport {
    /// Number of simulations that published into the session.
    pub sims: u64,
    /// Sum of final simulated clocks (cycles).
    pub elapsed: u64,
    /// Sum of attributed cycles (equals `elapsed` when instrumentation
    /// covers every clock-advance path).
    pub attributed: u64,
    /// Cycles attributed to [`Class::UnknownIdle`].
    pub unknown_idle: u64,
    /// Trace-ring drops across all sims (counted, never silent).
    pub dropped: u64,
    /// Cycles per (class, process name).
    pub class_cycles: BTreeMap<(Class, String), u64>,
    /// Counter totals, indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
    /// Merged folded stacks.
    pub folded: BTreeMap<String, u64>,
}

impl SessionReport {
    /// Total cycles in `class` across all processes.
    pub fn class_total(&self, class: Class) -> u64 {
        self.class_cycles
            .iter()
            .filter(|((c, _), _)| *c == class)
            .map(|(_, cy)| *cy)
            .sum()
    }

    /// Per-class totals, largest first (ties broken by class order).
    pub fn by_class(&self) -> Vec<(Class, u64)> {
        let mut totals: Vec<(Class, u64)> = Class::ALL
            .iter()
            .map(|&c| (c, self.class_total(c)))
            .filter(|&(_, cy)| cy > 0)
            .collect();
        totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        totals
    }

    /// Fraction of elapsed cycles attributed to a known class.
    pub fn coverage(&self) -> f64 {
        if self.elapsed == 0 {
            return 1.0;
        }
        (self.attributed.saturating_sub(self.unknown_idle)) as f64 / self.elapsed as f64
    }

    /// Counter total for `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Adds `other` into this report, as if its sims had published
    /// into this session too.
    pub fn merge(&mut self, other: &SessionReport) {
        self.sims += other.sims;
        self.elapsed += other.elapsed;
        self.attributed += other.attributed;
        self.unknown_idle += other.unknown_idle;
        self.dropped += other.dropped;
        for (key, cy) in &other.class_cycles {
            *self.class_cycles.entry(key.clone()).or_default() += cy;
        }
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (key, cy) in &other.folded {
            *self.folded.entry(key.clone()).or_default() += cy;
        }
    }

    /// Checks cycle conservation: with tracing enabled, the simulated
    /// clock only moves through `Charge`, `Dispatch` and `Idle` events,
    /// every one of which the tracer attributes to a class — so the
    /// attributed total must equal the elapsed total *exactly*, and the
    /// per-class breakdown must sum back to it. A mismatch means a
    /// clock-advance path escaped instrumentation (cycles charged but
    /// never attributed, or attributed twice) and the profiler's
    /// percentages can no longer be trusted.
    ///
    /// Returns `Ok(())` when both legs hold, or a message naming the
    /// drift.
    pub fn conservation(&self) -> Result<(), String> {
        if self.attributed != self.elapsed {
            return Err(format!(
                "attributed {} cycles != elapsed {} (drift {:+}): a clock-advance path \
                 escaped instrumentation",
                self.attributed,
                self.elapsed,
                self.attributed as i128 - self.elapsed as i128
            ));
        }
        let class_sum: u64 = self.class_cycles.values().sum();
        if class_sum != self.attributed {
            return Err(format!(
                "per-class cycles sum to {} but {} were attributed (drift {:+}): \
                 attribution lost or double-counted cycles",
                class_sum,
                self.attributed,
                class_sum as i128 - self.attributed as i128
            ));
        }
        Ok(())
    }

    /// Folded stacks rendered one per line for flame-graph tooling.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (key, cy) in &self.folded {
            out.push_str(&format!("{key} {cy}\n"));
        }
        out
    }

    /// Renders the breakdown as an indented text table with a counter
    /// footer — the block `reproduce --profile` prints under each
    /// table/figure.
    pub fn render(&self, label: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("  profile: {label}\n"));
        out.push_str("    class                  cycles      %\n");
        let denom = self.elapsed.max(1) as f64;
        for (class, cy) in self.by_class() {
            out.push_str(&format!(
                "    {:<20} {:>12} {:>5.1}%\n",
                class.label(),
                cy,
                100.0 * cy as f64 / denom
            ));
        }
        out.push_str(&format!(
            "    {:<20} {:>12} 100.0%   ({} sims, coverage {:.1}%)\n",
            "total elapsed",
            self.elapsed,
            self.sims,
            100.0 * self.coverage()
        ));
        let footer: Vec<String> = Counter::ALL
            .iter()
            .filter(|&&c| self.counter(c) > 0)
            .map(|&c| format!("{}={}", c.label(), self.counter(c)))
            .collect();
        if !footer.is_empty() {
            out.push_str(&format!("    counters: {}\n", footer.join(", ")));
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "    trace ring overflow: {} events dropped (attribution unaffected)\n",
                self.dropped
            ));
        }
        out
    }
}

/// A session's collector. Cheap to clone: every `Sim` booted under the
/// session keeps a clone and publishes into it.
#[derive(Clone, Debug)]
pub struct Session(Arc<Collector>);

#[derive(Debug)]
struct Collector {
    capacity: usize,
    report: Mutex<SessionReport>,
}

impl Session {
    fn new(capacity: usize) -> Session {
        Session(Arc::new(Collector {
            capacity,
            report: Mutex::new(SessionReport::default()),
        }))
    }

    /// Ring capacity sims booted under this session enable their
    /// tracer with.
    pub fn ring_capacity(&self) -> usize {
        self.0.capacity
    }

    /// Folds one finished simulation's tracer into this session.
    pub fn publish(&self, tracer: &Tracer, elapsed: u64) {
        let profile = tracer.profile();
        let mut r = self.0.report.lock();
        r.sims += 1;
        r.elapsed += elapsed;
        r.attributed += profile.attributed;
        r.unknown_idle += profile.unknown_idle;
        r.dropped += tracer.dropped();
        for ((class, name), cy) in tracer.cycles_by_name() {
            *r.class_cycles.entry((class, name)).or_default() += cy;
        }
        for (key, cy) in tracer.folded_map() {
            *r.folded.entry(key).or_default() += cy;
        }
        let snap = tracer.counters().snapshot();
        for (i, v) in snap.iter().enumerate() {
            r.counters[i] += v;
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Session>> = const { RefCell::new(None) };
}

/// The session installed on the calling thread, if any.
pub fn current() -> Option<Session> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Runs `f` with `session` installed on the calling thread (`None`: no
/// session), restoring the previous one when `f` returns or unwinds.
pub fn scope<T>(session: Option<Session>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Session>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(session)));
    f()
}

/// Whether a profiling session is collecting on the calling thread.
pub fn active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Ring capacity newly booted sims should enable their tracer with.
pub fn ring_capacity() -> usize {
    current().map_or(crate::tracer::DEFAULT_RING_CAPACITY, |s| s.ring_capacity())
}

/// Folds one finished simulation's tracer into the calling thread's
/// session (no-op when none is installed).
pub fn publish(tracer: &Tracer, elapsed: u64) {
    if let Some(session) = current() {
        session.publish(tracer, elapsed);
    }
}

/// Adds directly to the calling thread's session counters — for
/// components that have no `Sim` (the raw memory-system model). No-op
/// when no session is installed.
pub fn add_counter(c: Counter, n: u64) {
    CURRENT.with(|cur| {
        if let Some(session) = &*cur.borrow() {
            session.0.report.lock().counters[c as usize] += n;
        }
    });
}

/// Runs `f` with a fresh profiling session installed on the calling
/// thread and returns its result plus the aggregated report. A session
/// already installed is set aside while `f` runs and restored after.
pub fn run<T>(capacity: usize, f: impl FnOnce() -> T) -> (T, SessionReport) {
    let session = Session::new(capacity);
    let out = scope(Some(session.clone()), f);
    let report = std::mem::take(&mut *session.0.report.lock());
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Event, EventKind};

    #[test]
    fn session_collects_published_tracers() {
        let ((), report) = run(1024, || {
            assert!(active());
            let tr = Tracer::new();
            tr.enable(ring_capacity());
            tr.record(Event {
                t: 0,
                pid: 1,
                kind: EventKind::Spawn("w".into()),
            });
            tr.record(Event {
                t: 0,
                pid: 1,
                kind: EventKind::Enter(Class::ProtoCpu),
            });
            tr.record(Event {
                t: 4,
                pid: 1,
                kind: EventKind::Charge { cy: 4 },
            });
            tr.count(Counter::TcpSegments, 2);
            publish(&tr, 4);
            add_counter(Counter::L1Misses, 9);
        });
        assert!(!active());
        assert_eq!(report.sims, 1);
        assert_eq!(report.elapsed, 4);
        assert_eq!(report.class_total(Class::ProtoCpu), 4);
        assert_eq!(report.counter(Counter::TcpSegments), 2);
        assert_eq!(report.counter(Counter::L1Misses), 9);
        assert!((report.coverage() - 1.0).abs() < 1e-9);
        let rendered = report.render("test");
        assert!(rendered.contains("protocol cpu"), "{rendered}");
        assert!(rendered.contains("tcp segments=2"), "{rendered}");
    }

    #[test]
    fn conservation_holds_for_published_tracers() {
        let ((), report) = run(1024, || {
            let tr = Tracer::new();
            tr.enable(ring_capacity());
            tr.record(Event {
                t: 0,
                pid: 1,
                kind: EventKind::Enter(Class::TrapEntry),
            });
            tr.record(Event {
                t: 7,
                pid: 1,
                kind: EventKind::Charge { cy: 7 },
            });
            tr.record(Event {
                t: 9,
                pid: 1,
                kind: EventKind::Dispatch { cy: 2 },
            });
            tr.record(Event {
                t: 14,
                pid: 0,
                kind: EventKind::Idle { cy: 5 },
            });
            publish(&tr, 14);
        });
        report.conservation().expect("conservation must hold");
    }

    #[test]
    fn conservation_catches_unattributed_and_lost_cycles() {
        // Elapsed moved without a matching Charge event: leg one fails.
        let mut r = SessionReport {
            elapsed: 100,
            attributed: 90,
            ..SessionReport::default()
        };
        r.class_cycles.insert((Class::User, "p".into()), 90);
        let err = r.conservation().unwrap_err();
        assert!(err.contains("escaped instrumentation"), "{err}");

        // Attributed total and per-class breakdown disagree: leg two.
        let mut r = SessionReport {
            elapsed: 100,
            attributed: 100,
            ..SessionReport::default()
        };
        r.class_cycles.insert((Class::User, "p".into()), 60);
        let err = r.conservation().unwrap_err();
        assert!(err.contains("double-counted"), "{err}");
    }

    #[test]
    fn publish_without_session_is_noop() {
        let tr = Tracer::new();
        tr.enable(16);
        tr.record(Event {
            t: 1,
            pid: 1,
            kind: EventKind::Charge { cy: 1 },
        });
        publish(&tr, 1);
        add_counter(Counter::Forks, 1);
        let ((), report) = run(16, || {});
        assert_eq!(report.sims, 0);
        assert_eq!(report.counter(Counter::Forks), 0);
    }

    #[test]
    fn merge_equals_one_session_over_both() {
        let publish_one = |t: u64, class: Class| {
            let tr = Tracer::new();
            tr.enable(16);
            tr.record(Event {
                t: 0,
                pid: 1,
                kind: EventKind::Enter(class),
            });
            tr.record(Event {
                t,
                pid: 1,
                kind: EventKind::Charge { cy: t },
            });
            tr.count(Counter::Syscalls, t);
            publish(&tr, t);
        };
        let ((), a) = run(16, || publish_one(3, Class::TrapEntry));
        let ((), b) = run(16, || publish_one(5, Class::ProtoCpu));
        let ((), both) = run(16, || {
            publish_one(3, Class::TrapEntry);
            publish_one(5, Class::ProtoCpu);
        });
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.sims, 2);
        assert_eq!(merged.render("x"), both.render("x"));
        assert_eq!(merged.folded_text(), both.folded_text());
        merged.conservation().expect("merging keeps conservation");
    }

    #[test]
    fn sessions_reset_between_runs() {
        let ((), first) = run(16, || {
            let tr = Tracer::new();
            tr.enable(16);
            tr.record(Event {
                t: 2,
                pid: 1,
                kind: EventKind::Charge { cy: 2 },
            });
            publish(&tr, 2);
        });
        assert_eq!(first.elapsed, 2);
        let ((), second) = run(16, || {});
        assert_eq!(second.elapsed, 0);
        assert_eq!(second.sims, 0);
    }
}
