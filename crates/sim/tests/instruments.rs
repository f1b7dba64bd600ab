//! Instruments are per thread: a profiling session counts exactly the
//! simulations booted under it, whatever other threads are doing, and
//! a nested session collects only its own.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use tnt_sim::trace::session;
use tnt_sim::{Cycles, FifoPolicy, Sim, SimConfig};

/// How long a rendezvous may take on a loaded host. Sessions that
/// serialize or deadlock never arrive, so the tests fail instead of
/// hanging.
const RENDEZVOUS: Duration = Duration::from_secs(20);

/// A booted simulation whose run takes exactly `cycles`.
fn booted(cycles: u64) -> Sim {
    let sim = Sim::new(Box::new(FifoPolicy::new()), SimConfig::default());
    sim.spawn("work", move |s| s.advance(Cycles(cycles)));
    sim
}

/// Runs `f` on a thread of its own and returns its result, failing if
/// it has not returned within twice [`RENDEZVOUS`].
fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(2 * RENDEZVOUS) {
        Ok(v) => {
            handle.join().expect("the thread returned its value");
            v
        }
        Err(RecvTimeoutError::Timeout) => panic!("no result within {RENDEZVOUS:?}: deadlocked"),
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("the thread sends before it returns"),
        },
    }
}

#[test]
fn concurrent_sessions_each_count_exactly_their_own_sim() {
    within(concurrent_sessions);
}

fn concurrent_sessions() {
    let (a_tx, a_rx) = channel();
    let (b_tx, b_rx) = channel();
    let side = |cycles: u64, tell: Sender<()>, hear: Receiver<()>| {
        move || {
            session::run(1024, || {
                let sim = booted(cycles);
                // Both sessions are open and both sims booted before
                // either sim runs.
                tell.send(()).expect("the other side is listening");
                hear.recv_timeout(RENDEZVOUS)
                    .expect("the other session never opened");
                sim.run().expect("run")
            })
        }
    };
    std::thread::scope(|s| {
        let a = s.spawn(side(100, a_tx, b_rx));
        let b = s.spawn(side(7, b_tx, a_rx));
        let (ea, ra) = a.join().expect("session a");
        let (eb, rb) = b.join().expect("session b");
        assert_eq!((ea, eb), (Cycles(100), Cycles(7)));
        assert_eq!((ra.sims, ra.elapsed), (1, 100), "session a: {ra:?}");
        assert_eq!((rb.sims, rb.elapsed), (1, 7), "session b: {rb:?}");
    });
}

#[test]
fn a_sim_booted_outside_any_session_is_not_counted() {
    within(bystander_beside_a_session);
}

fn bystander_beside_a_session() {
    let (open_tx, open_rx) = channel();
    let (done_tx, done_rx) = channel::<()>();
    std::thread::scope(|s| {
        let profiler = s.spawn(move || {
            let ((), report) = session::run(1024, || {
                open_tx.send(()).expect("the bystander is listening");
                done_rx
                    .recv_timeout(RENDEZVOUS)
                    .expect("the bystander never finished");
            });
            report
        });
        open_rx
            .recv_timeout(RENDEZVOUS)
            .expect("the session never opened");
        let sim = booted(100);
        assert!(
            !sim.tracer().is_enabled(),
            "another thread's session enabled this sim's tracer"
        );
        sim.run().expect("run");
        done_tx.send(()).expect("the profiler is waiting");
        let report = profiler.join().expect("profiler");
        assert_eq!((report.sims, report.elapsed), (0, 0), "{report:?}");
    });
}

#[test]
fn a_nested_session_collects_its_own_sims_and_leaves_the_outer_intact() {
    let (inner, outer) = within(|| {
        session::run(1024, || {
            booted(100).run().expect("outer run before");
            let ((), inner) = session::run(1024, || {
                booted(7).run().expect("inner run");
            });
            booted(20).run().expect("outer run after");
            inner
        })
    });
    assert_eq!((inner.sims, inner.elapsed), (1, 7), "inner: {inner:?}");
    assert_eq!((outer.sims, outer.elapsed), (2, 120), "outer: {outer:?}");
}
